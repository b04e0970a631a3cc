//! The TCP client side of `gateway_paced`: one connection, one sender
//! (the calling thread) and one receiver thread.
//!
//! * [`open_loop`] offers frames on a fixed schedule and charges every
//!   request from the instant it was **due**, so a sender that falls
//!   behind shows up as latency and as reported lateness, never as a
//!   silently lower load.
//! * [`fenced_windows`] is the closed loop: a window of frames, a
//!   `drain` fence, and nothing more until the fence is answered.
//!
//! Both keep fewer frames in flight than the gateway's default 256-deep
//! queue holds, so a stalled fsync makes the *client* late instead of
//! making the gateway shed: the workload never fails an operation, and
//! the stall is still charged in full because latency counts from the
//! due time.

use crate::drive::Answers;
use crate::spans::{Tracer, NO_REQ};
use hka_core::{parse_wire_reply, RequestEnvelope, WireMsg, WireReply};
use hka_gateway::GatewayClient;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames per closed-loop window (half the gateway's default queue).
pub const WINDOW: usize = 128;
/// Most frames the open loop keeps unacknowledged (three quarters of the
/// gateway's default queue).
pub const IN_FLIGHT_CAP: usize = 192;

/// The served stream as wire lines. An envelope's `req_id` is its
/// position in the stream, so a response names the frame — and therefore
/// the due time — it answers.
pub struct Frames {
    lines: Vec<String>,
    is_request: Vec<bool>,
}

impl Frames {
    /// Serializes `envs` (whose ids must be their positions).
    pub fn encode(envs: &[RequestEnvelope]) -> Frames {
        debug_assert!(envs.iter().enumerate().all(|(i, e)| e.req_id == i as u64));
        Frames {
            lines: envs
                .iter()
                .map(|e| {
                    let mut l = e.to_wire();
                    l.push('\n');
                    l
                })
                .collect(),
            is_request: envs.iter().map(|e| e.is_request()).collect(),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Requests among `range`.
    pub fn requests_in(&self, range: Range<usize>) -> usize {
        self.is_request[range].iter().filter(|r| **r).count()
    }
}

/// What the receiver thread hands back when the connection closes.
pub struct Received<T> {
    /// `(frame index, arrival)` of every response, in arrival order.
    pub arrivals: Vec<(u64, Instant)>,
    /// The responses, counted.
    pub answers: Answers,
    /// Reply lines that did not parse, or `err` replies.
    pub bad_replies: u64,
    /// The receiver's tracer.
    pub tracer: T,
}

/// One client connection with its receiver thread running.
pub struct Conn<T> {
    out: BufWriter<TcpStream>,
    /// One past the frame index of the latest answered request: every
    /// frame before it has left the gateway's queue.
    acked: Arc<AtomicU64>,
    fences: Receiver<()>,
    receiver: JoinHandle<Received<T>>,
    /// Frames known to have left the queue because a fence was answered.
    fence_floor: u64,
}

fn receive<T: Tracer>(
    stream: TcpStream,
    acked: Arc<AtomicU64>,
    fences: Sender<()>,
    mut tracer: T,
) -> Received<T> {
    let mut reader = BufReader::new(stream);
    let mut arrivals = Vec::new();
    let mut answers = Answers::default();
    let mut bad_replies = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        let span = tracer.open("socket.read", NO_REQ);
        let n = reader.read_line(&mut line);
        tracer.close(span, 1);
        match n {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let span = tracer.open("reply.decode", NO_REQ);
        let reply = parse_wire_reply(&line);
        tracer.close(span, 1);
        match reply {
            Ok(WireReply::Resp(r)) => {
                arrivals.push((r.req_id, Instant::now()));
                acked.fetch_max(r.req_id + 1, Ordering::Release);
                answers.note(&r);
            }
            Ok(WireReply::Drained { .. }) => {
                if fences.send(()).is_err() {
                    break;
                }
            }
            Ok(WireReply::Bye) => break,
            Ok(WireReply::Bound { .. }) => {}
            Ok(WireReply::Err { .. }) | Err(_) => bad_replies += 1,
        }
    }
    Received {
        arrivals,
        answers,
        bad_replies,
        tracer,
    }
}

impl<T: Tracer + Send + 'static> Conn<T> {
    /// Connects and starts the receiver thread, which traces into
    /// `receiver_tracer`.
    pub fn connect(addr: SocketAddr, receiver_tracer: T) -> std::io::Result<Conn<T>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let acked = Arc::new(AtomicU64::new(0));
        let (fence_tx, fences) = mpsc::channel();
        let receiver = {
            let acked = Arc::clone(&acked);
            std::thread::Builder::new()
                .name("bench-recv".into())
                .spawn(move || receive(read_half, acked, fence_tx, receiver_tracer))?
        };
        Ok(Conn {
            out: BufWriter::with_capacity(64 * 1024, stream),
            acked,
            fences,
            receiver,
            fence_floor: 0,
        })
    }

    /// Waits for the gateway to close the connection and returns what
    /// the receiver collected.
    pub fn finish(self) -> Received<T> {
        drop(self.out);
        self.receiver.join().expect("receiver thread never panics")
    }
}

impl<T> Conn<T> {
    fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire).max(self.fence_floor)
    }

    /// Sends a `drain` fence and blocks until it is answered: every
    /// frame written before it has been served. Returns the round trip.
    pub fn fence<S: Tracer>(&mut self, sent: usize, tr: &mut S) -> std::io::Result<Duration> {
        let t0 = Instant::now();
        let span = tr.open("socket.write", NO_REQ);
        self.out
            .write_all(GatewayClient::wire_line(&WireMsg::Drain).as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        tr.close(span, 1);
        let span = tr.open("fence.wait", NO_REQ);
        let answered = self.fences.recv();
        tr.close(span, 1);
        if answered.is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the drain fence was answered",
            ));
        }
        self.fence_floor = sent as u64;
        Ok(t0.elapsed())
    }
}

/// How one open-loop phase went on the sending side.
pub struct OpenLoop {
    /// The schedule's origin: every due time counts from here.
    pub start: Instant,
    /// How late each request frame was written, ns (0 when on time).
    pub request_lateness_ns: Vec<u64>,
    /// Times the in-flight cap held the sender back.
    pub cap_waits: u64,
}

/// When each frame of an open-loop phase is due: fixed before the run,
/// whatever the server then does.
///
/// Requests are what is timed, so requests are what is scheduled: one
/// every `request_interval_ns`, evenly — the constant-rate generator.
/// The location reports between two requests are spread evenly over the
/// gap before the request they precede. (One frame per fixed interval
/// would space requests by the length of their location runs, which is
/// geometric: Poisson-like arrivals, whose p99 is the depth of whichever
/// request clusters a seed happens to draw — 44 % apart across seeds.)
pub struct Schedule {
    /// Due time of frame `range.start + j`, ns after the phase starts.
    due_ns: Vec<u64>,
}

impl Schedule {
    /// The schedule of `frames[range]` with one request per
    /// `request_interval_ns`.
    pub fn even_requests(
        frames: &Frames,
        range: Range<usize>,
        request_interval_ns: u64,
    ) -> Schedule {
        let mut due_ns = vec![0u64; range.len()];
        let mut gap_start = 0usize; // first frame after the previous request
        let mut gap_due = 0u64; // the previous request's due time
        for j in 0..=range.len() {
            // The end of the range closes the last gap like a request would.
            if j < range.len() && !frames.is_request[range.start + j] {
                continue;
            }
            let slots = (j - gap_start + 1) as u64;
            for (k, due) in due_ns[gap_start..j.min(range.len())].iter_mut().enumerate() {
                *due = gap_due + request_interval_ns * (k as u64 + 1) / slots;
            }
            if j < range.len() {
                gap_due += request_interval_ns;
                due_ns[j] = gap_due;
            }
            gap_start = j + 1;
        }
        Schedule { due_ns }
    }

    /// When frame `range.start + offset` is due, ns after the phase starts.
    pub fn due_ns(&self, offset: usize) -> u64 {
        self.due_ns[offset]
    }
}

/// A response's latency under an open-loop schedule: from the instant
/// the request was *due*, whatever the sender actually managed.
pub fn latency_from_due(start: Instant, due_ns: u64, arrival: Instant) -> u64 {
    let arrived = u64::try_from(arrival.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    arrived.saturating_sub(due_ns)
}

/// Offers `frames[range]` on `schedule`, open loop.
pub fn open_loop<T, S: Tracer>(
    conn: &mut Conn<T>,
    frames: &Frames,
    range: Range<usize>,
    schedule: &Schedule,
    tr: &mut S,
) -> std::io::Result<OpenLoop> {
    let start = Instant::now();
    let mut run = OpenLoop {
        start,
        request_lateness_ns: Vec::with_capacity(frames.requests_in(range.clone())),
        cap_waits: 0,
    };
    let mut last_request: Option<usize> = None;
    // Only requests are timed, so only requests need to leave on the
    // dot. Location frames go out in whatever small bursts a sleeping
    // sender produces; before a request the sender stops sleeping early
    // and spins, because a sleep's wake-up jitter would otherwise be
    // charged to the program as latency.
    let spin = Duration::from_micros(250);
    let due_of = |i: usize| start + Duration::from_nanos(schedule.due_ns(i - range.start));
    let mut next_request = range.start;
    for i in range.clone() {
        while next_request < range.end && (next_request < i || !frames.is_request[next_request]) {
            next_request += 1;
        }
        let due = due_of(i);
        let mut now = Instant::now();
        if now < due {
            conn.out.flush()?;
            let sleep_until = if next_request < range.end {
                due.min(due_of(next_request).checked_sub(spin).unwrap_or(start))
            } else {
                due
            };
            if sleep_until > now {
                std::thread::sleep(sleep_until - now);
            }
            loop {
                now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::yield_now();
            }
        }
        // The in-flight cap: never more unacknowledged frames than the
        // gateway's queue can hold. It binds only when the server stalls.
        if i as u64 - conn.acked() >= IN_FLIGHT_CAP as u64 {
            run.cap_waits += 1;
            conn.out.flush()?;
            let span = tr.open("cap.wait", NO_REQ);
            if last_request.is_some_and(|r| r as u64 >= conn.acked()) {
                // A response is still due; its arrival moves `acked`.
                while i as u64 - conn.acked() >= IN_FLIGHT_CAP as u64 {
                    std::thread::yield_now();
                }
            } else {
                conn.fence(i, tr)?;
            }
            tr.close(span, 1);
            now = Instant::now();
        }
        let span = tr.open("socket.write", i as u64);
        conn.out.write_all(frames.lines[i].as_bytes())?;
        if frames.is_request[i] {
            // A request never waits in the client's buffer.
            conn.out.flush()?;
            last_request = Some(i);
            run.request_lateness_ns.push(
                u64::try_from(now.saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX),
            );
        }
        tr.close(span, 1);
    }
    conn.out.flush()?;
    Ok(run)
}

/// Sends `frames[range]` closed loop: [`WINDOW`] frames, a `drain`
/// fence, wait. Returns the wall from the first write to the last fence
/// answered.
pub fn fenced_windows<T, S: Tracer>(
    conn: &mut Conn<T>,
    frames: &Frames,
    range: Range<usize>,
    tr: &mut S,
) -> std::io::Result<Duration> {
    let t0 = Instant::now();
    let mut sent = range.start;
    while sent < range.end {
        let end = (sent + WINDOW).min(range.end);
        let span = tr.open("window", NO_REQ);
        let w = tr.open("socket.write", NO_REQ);
        for line in &frames.lines[sent..end] {
            conn.out.write_all(line.as_bytes())?;
        }
        tr.close(w, (end - sent) as u32);
        conn.fence(end, tr)?;
        tr.close(span, (end - sent) as u32);
        sent = end;
    }
    Ok(t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NoTrace;
    use hka_anonymity::{Pseudonym, ServiceId};
    use hka_core::{RequestService, ResponseEnvelope, ServerMode, WireOutcome};
    use hka_gateway::{Gateway, GatewayConfig};
    use hka_geo::{StPoint, TimeSec};
    use hka_trajectory::UserId;

    /// A backend that answers every request `suppressed/stub` after
    /// sleeping `delay` — a server with a known, slow service time.
    struct Stub {
        delay: Duration,
        out: Vec<ResponseEnvelope>,
    }

    impl RequestService for Stub {
        fn submit(&mut self, env: &RequestEnvelope) {
            if env.is_request() {
                std::thread::sleep(self.delay);
                self.out.push(ResponseEnvelope::refusal(
                    env.req_id,
                    WireOutcome::Suppressed,
                    "stub",
                    ServerMode::Normal,
                ));
            }
        }
        fn drain(&mut self) -> Vec<ResponseEnvelope> {
            std::mem::take(&mut self.out)
        }
        fn mode(&self) -> ServerMode {
            ServerMode::Normal
        }
        fn pseudonym_of(&self, _user: UserId) -> Option<Pseudonym> {
            None
        }
        fn flush_journal(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn note_slo_events(&mut self, _events: &[hka_obs::SloEvent]) {}
        fn note_gateway_stats(&mut self, _conns: u64, _drains: u64, _queue_depth: u64) {}
    }

    fn stream(frames: usize, request_every: usize) -> Frames {
        let envs: Vec<RequestEnvelope> = (0..frames)
            .map(|i| {
                let at = StPoint::xyt(i as f64, 0.0, TimeSec(i as i64));
                if i % request_every == request_every - 1 {
                    RequestEnvelope::request(i as u64, UserId(1), at, ServiceId(0))
                } else {
                    RequestEnvelope::location(i as u64, UserId(1), at)
                }
            })
            .collect();
        Frames::encode(&envs)
    }

    fn gateway(delay: Duration) -> Gateway {
        Gateway::spawn(
            "127.0.0.1:0",
            Box::new(Stub {
                delay,
                out: Vec::new(),
            }),
            GatewayConfig::default(),
        )
        .expect("gateway binds")
    }

    #[test]
    fn schedule_is_fixed_before_the_run() {
        // A request every 4th frame, one request per 80 µs: requests are
        // due at 80, 160, ... µs and the three locations before each
        // split its gap evenly.
        let frames = stream(12, 4);
        let schedule = Schedule::even_requests(&frames, 0..12, 80_000);
        let due: Vec<u64> = (0..12).map(|j| schedule.due_ns(j) / 1_000).collect();
        assert_eq!(
            due,
            vec![20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240]
        );
        // A sub-range starts its own clock, and trailing locations keep
        // the pace instead of piling up at the end.
        let tail = Schedule::even_requests(&frames, 4..10, 80_000);
        let due: Vec<u64> = (0..6).map(|j| tail.due_ns(j) / 1_000).collect();
        assert_eq!(due, vec![20, 40, 60, 80, 106, 133]);

        let start = Instant::now();
        let arrival = start + Duration::from_millis(30);
        // Due at 20 ms, answered at 30 ms: 10 ms, whenever it was sent.
        assert_eq!(latency_from_due(start, 20_000_000, arrival), 10_000_000);
        // An answer cannot precede its due time by construction; clamp.
        assert_eq!(latency_from_due(start, 40_000_000, arrival), 0);
    }

    #[test]
    fn late_sender_is_charged_from_the_due_time() {
        // 300 requests at one per 80 µs are a 24 ms schedule, but the
        // backend needs 1 ms per request: the in-flight cap must hold the
        // sender back, and the last requests must be charged hundreds of
        // milliseconds — from when they were due — although each was
        // served within ~1 ms of being sent.
        let frames = stream(1_200, 4);
        let gw = gateway(Duration::from_millis(1));
        let mut conn = Conn::connect(gw.addr(), NoTrace).unwrap();
        let schedule = Schedule::even_requests(&frames, 0..frames.len(), 80_000);
        let run = open_loop(&mut conn, &frames, 0..frames.len(), &schedule, &mut NoTrace).unwrap();
        conn.fence(frames.len(), &mut NoTrace).unwrap();
        let stats = gw.stats().snapshot();
        drop(gw.shutdown());
        let got = conn.finish();

        assert_eq!(got.arrivals.len(), 300, "every request answered");
        assert_eq!(got.answers.suppressed, 300);
        assert_eq!(
            (stats.overloads, stats.shed_locations),
            (0, 0),
            "nothing shed"
        );
        assert!(run.cap_waits > 0, "the cap held the sender back");
        let worst_late = *run.request_lateness_ns.iter().max().unwrap();
        assert!(worst_late > 100_000_000, "sender ran late: {worst_late} ns");

        let (last_frame, arrival) = *got.arrivals.last().unwrap();
        let latency = latency_from_due(run.start, schedule.due_ns(last_frame as usize), arrival);
        // 300 requests * 1 ms of service, minus the 24 ms schedule.
        assert!(latency > 250_000_000, "charged from due time: {latency} ns");
    }

    #[test]
    fn fenced_windows_shed_nothing_on_the_default_queue() {
        let frames = stream(5_000, 21);
        let gw = gateway(Duration::ZERO);
        let mut conn = Conn::connect(gw.addr(), NoTrace).unwrap();
        fenced_windows(&mut conn, &frames, 0..frames.len(), &mut NoTrace).unwrap();
        let stats = gw.stats().snapshot();
        drop(gw.shutdown());
        let got = conn.finish();
        assert_eq!(got.arrivals.len(), frames.requests_in(0..frames.len()));
        assert_eq!(got.bad_replies, 0);
        assert_eq!((stats.overloads, stats.shed_locations), (0, 0));
        assert_eq!(stats.bad_frames, 0);
    }
}
