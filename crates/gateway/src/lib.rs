//! # hka-gateway
//!
//! A TCP frontend for the Trusted Server — the network leg of the
//! paper's Fig. 1 service model (users → TS → providers), which every
//! in-process driver skips. The gateway fronts **any**
//! [`RequestService`] (a `TrustedServer` on either journal cadence)
//! without knowing what it holds:
//!
//! * **Framing** — one canonical JSON object per line
//!   ([`hka_core::parse_wire_msg`]); oversized and unparseable frames
//!   are refused with an `err` reply, never partially applied.
//! * **Threading** — thread-per-connection (`std::net`): each accepted
//!   socket gets a reader and a writer thread; one *service thread*
//!   owns the backend and is the only code that touches it, so the
//!   backend needs no internal synchronization.
//! * **Backpressure** — a bounded inflight queue
//!   ([`GatewayConfig::inflight`]) between readers and the service
//!   thread. When it is full the gateway answers `suppressed /
//!   overload` at `degraded` **immediately** — the fail-closed rule
//!   from DESIGN.md extended to the network layer: overload makes the
//!   TS *refuse*, never forward something weaker than k. Overloaded
//!   location reports are dropped (losing a position can only shrink
//!   anonymity sets the TS believes in — fail-closed again).
//! * **Graceful drain** — [`Gateway::shutdown`] stops the listener,
//!   lets every queued envelope settle, sends `bye` on every
//!   connection, flushes the journal, and hands the backend back to
//!   the caller.
//! * **Chaos** — the accept loop, connection reads, frame decode, and
//!   response writes consult the `hka-faults` injector
//!   (`gateway.accept`, `conn.read`, `conn.frame`, `conn.write`), so
//!   seeded drills can tear frames and stall peers deterministically.
//! * **SLO watchdog** — an optional gateway-level
//!   [`SloMonitor`](hka_obs::SloMonitor) over end-to-end
//!   (enqueue→response) latency and queue depth; threshold crossings
//!   are journaled through the backend's hash chain like the server's
//!   own breaches.
//!
//! With stats emission off (the default) the gateway adds **zero**
//! journal records of its own: a journal produced behind TCP is
//! byte-identical to one produced in-process on the same traffic
//! (`tests/gateway.rs` pins this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;

pub use client::GatewayClient;

use hka_core::{
    RequestEnvelope, RequestService, ResponseEnvelope, ServerMode, WireMsg, WireOutcome, WireReply,
};
use hka_faults::{sites, FaultInjector, FaultKind};
use hka_trajectory::UserId;

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway tuning knobs. `Default` is production-shaped: a 256-deep
/// inflight queue, 64-envelope service bursts, 64 KiB frames, no
/// fault injection, no SLO watchdog, and **no** stats records (so the
/// journal stays byte-identical to an in-process run).
#[derive(Clone)]
pub struct GatewayConfig {
    /// Bounded inflight queue depth between connection readers and the
    /// service thread; `try_send` overflow is answered `overload`.
    pub inflight: usize,
    /// Max envelopes the service thread ingests per burst before
    /// draining outcomes back to connections.
    pub batch: usize,
    /// Max frame length in bytes (including the newline); longer
    /// frames get an `err` reply and the connection is closed.
    pub max_frame: usize,
    /// Journal a `gw.stats` liveness record after every drain cycle.
    /// Off by default: stats records change journal bytes.
    pub emit_stats: bool,
    /// Gateway-level SLO watchdog (p999 end-to-end latency + queue
    /// depth). `None` disables it.
    pub slo: Option<hka_obs::SloConfig>,
    /// Fault injection for the four `gateway.*`/`conn.*` sites.
    pub faults: FaultInjector,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            inflight: 256,
            batch: 64,
            max_frame: 64 * 1024,
            emit_stats: false,
            slo: None,
            faults: FaultInjector::none(),
        }
    }
}

/// Live gateway counters, readable from any thread.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections currently open.
    pub conns_open: AtomicU64,
    /// Connections accepted over the gateway's lifetime.
    pub conns_total: AtomicU64,
    /// Service-thread drain cycles completed.
    pub drains: AtomicU64,
    /// Requests refused with `overload` at the bounded queue.
    pub overloads: AtomicU64,
    /// Location reports dropped at the bounded queue.
    pub shed_locations: AtomicU64,
    /// Responses routed back to connections.
    pub responses: AtomicU64,
    /// Responses with outcome `forwarded`.
    pub forwarded: AtomicU64,
    /// Frames refused (`err` replies: parse failures, oversize).
    pub bad_frames: AtomicU64,
    /// Faults fired across the four gateway sites.
    pub faults_fired: AtomicU64,
}

/// A point-in-time copy of [`GatewayStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections currently open.
    pub conns_open: u64,
    /// Connections accepted over the gateway's lifetime.
    pub conns_total: u64,
    /// Drain cycles completed.
    pub drains: u64,
    /// Requests refused with `overload`.
    pub overloads: u64,
    /// Location reports dropped at the bounded queue.
    pub shed_locations: u64,
    /// Responses routed back.
    pub responses: u64,
    /// Responses with outcome `forwarded`.
    pub forwarded: u64,
    /// Frames refused.
    pub bad_frames: u64,
    /// Faults fired on gateway sites.
    pub faults_fired: u64,
}

impl GatewayStats {
    /// Reads every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_total: self.conns_total.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            shed_locations: self.shed_locations.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            faults_fired: self.faults_fired.load(Ordering::Relaxed),
        }
    }
}

/// What a connection sends the service thread.
enum Cmd {
    /// Bind a session; answer on `reply`.
    Bind {
        user: UserId,
        reply: Sender<WireReply>,
    },
    /// An envelope; `reply` is `Some` for requests, `None` for
    /// fire-and-forget location reports.
    Submit {
        env: RequestEnvelope,
        enqueued: Instant,
        reply: Option<Sender<WireReply>>,
    },
    /// Settle everything submitted so far, then answer `drained`.
    Barrier { reply: Sender<WireReply> },
}

fn mode_to_u8(mode: ServerMode) -> u8 {
    match mode {
        ServerMode::Normal => 0,
        ServerMode::Degraded => 1,
        ServerMode::ReadOnly => 2,
    }
}

fn mode_from_u8(v: u8) -> ServerMode {
    match v {
        0 => ServerMode::Normal,
        1 => ServerMode::Degraded,
        _ => ServerMode::ReadOnly,
    }
}

/// A running TCP gateway. Dropping the handle without calling
/// [`Gateway::shutdown`] aborts the process-wide threads unjoined;
/// call `shutdown` for a graceful drain.
pub struct Gateway {
    addr: SocketAddr,
    stats: Arc<GatewayStats>,
    stop: Arc<AtomicBool>,
    listener_thread: JoinHandle<()>,
    service_thread: JoinHandle<Box<dyn RequestService + Send>>,
    /// Keeps the service-queue sender alive until shutdown; the
    /// service thread exits when every sender (this one + per-conn
    /// clones) is gone.
    cmd_tx: SyncSender<Cmd>,
}

impl Gateway {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `service`.
    pub fn spawn(
        addr: &str,
        service: Box<dyn RequestService + Send>,
        config: GatewayConfig,
    ) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(GatewayStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mode_cache = Arc::new(AtomicU8::new(mode_to_u8(service.mode())));

        let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(config.inflight.max(1));
        let service_thread = {
            let stats = Arc::clone(&stats);
            let mode_cache = Arc::clone(&mode_cache);
            let config = config.clone();
            std::thread::Builder::new()
                .name("gw-service".into())
                .spawn(move || service_loop(service, cmd_rx, stats, mode_cache, config))?
        };

        let listener_thread = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let mode_cache = Arc::clone(&mode_cache);
            let cmd_tx = cmd_tx.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("gw-accept".into())
                .spawn(move || accept_loop(listener, cmd_tx, stats, stop, mode_cache, config))?
        };

        Ok(Gateway {
            addr: local,
            stats,
            stop,
            listener_thread,
            service_thread,
            cmd_tx,
        })
    }

    /// The bound address (use with `127.0.0.1:0` to discover the port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// Whether a peer asked the gateway to stop (wire `shutdown` op).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, close every connection (each
    /// gets `bye`), settle every queued envelope, flush the journal,
    /// and return the backend. A panic on the service thread is raised
    /// again here, with its own payload.
    pub fn shutdown(self) -> Box<dyn RequestService + Send> {
        let Gateway {
            addr,
            stop,
            listener_thread,
            service_thread,
            cmd_tx,
            ..
        } = self;
        stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(addr);
        let _ = listener_thread.join();
        // The listener joined every connection thread, so the only
        // remaining sender is ours; dropping it lets the service loop
        // settle the queue and exit.
        drop(cmd_tx);
        service_thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Accepts connections until the stop flag rises; joins every
/// connection thread before returning (so shutdown is a full drain).
fn accept_loop(
    listener: TcpListener,
    cmd_tx: SyncSender<Cmd>,
    stats: Arc<GatewayStats>,
    stop: Arc<AtomicBool>,
    mode_cache: Arc<AtomicU8>,
    config: GatewayConfig,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        match config.faults.check(sites::GATEWAY_ACCEPT) {
            Some(FaultKind::Drop) | Some(FaultKind::Io) | Some(FaultKind::Unavailable) => {
                // Refused at the door: the socket closes before any
                // frame is read, like a listener backlog overflow.
                stats.faults_fired.fetch_add(1, Ordering::Relaxed);
                drop(stream);
                continue;
            }
            _ => {}
        }
        stats.conns_total.fetch_add(1, Ordering::Relaxed);
        stats.conns_open.fetch_add(1, Ordering::Relaxed);
        let conn_stats = Arc::clone(&stats);
        let cmd_tx = cmd_tx.clone();
        let stop = Arc::clone(&stop);
        let mode_cache = Arc::clone(&mode_cache);
        let config = config.clone();
        let spawned = std::thread::Builder::new()
            .name("gw-conn".into())
            .spawn(move || {
                connection(stream, cmd_tx, &conn_stats, &stop, &mode_cache, &config);
                conn_stats.conns_open.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                // Out of threads (a peer can open connections until
                // spawning fails): refused at the door too. The socket
                // closed with the unspawned closure; undo its counts and
                // keep accepting.
                stats.conns_total.fetch_sub(1, Ordering::Relaxed);
                stats.conns_open.fetch_sub(1, Ordering::Relaxed);
            }
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Outcome of one bounded frame read.
enum FrameRead {
    /// A complete line (newline stripped) is in the buffer.
    Frame(Vec<u8>),
    /// Clean EOF.
    Eof,
    /// Read timeout — check the stop flag and try again.
    Idle,
    /// The peer sent more than `max_frame` bytes without a newline.
    TooLarge,
}

/// Reads one newline-terminated frame, tolerating read timeouts
/// (partial bytes stay in `pending` across calls).
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    pending: &mut Vec<u8>,
    max_frame: usize,
) -> io::Result<FrameRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(FrameRead::Eof);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(idx) => {
                pending.extend_from_slice(&available[..idx]);
                reader.consume(idx + 1);
                if pending.len() > max_frame {
                    return Ok(FrameRead::TooLarge);
                }
                return Ok(FrameRead::Frame(std::mem::take(pending)));
            }
            None => {
                let n = available.len();
                pending.extend_from_slice(available);
                reader.consume(n);
                if pending.len() > max_frame {
                    return Ok(FrameRead::TooLarge);
                }
            }
        }
    }
}

/// One connection: this thread reads and parses frames; a paired
/// writer thread owns the response half of the socket.
fn connection(
    stream: TcpStream,
    cmd_tx: SyncSender<Cmd>,
    stats: &GatewayStats,
    stop: &AtomicBool,
    mode_cache: &AtomicU8,
    config: &GatewayConfig,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = mpsc::channel::<WireReply>();
    let writer_faults = config.faults.clone();
    let writer_stats_faults = Arc::new(AtomicU64::new(0));
    let writer_fault_count = Arc::clone(&writer_stats_faults);
    // Without a writer thread the connection cannot answer: close it.
    let Ok(writer) = std::thread::Builder::new()
        .name("gw-write".into())
        .spawn(move || writer_loop(write_half, reply_rx, writer_faults, writer_fault_count))
    else {
        return;
    };

    let mut reader = BufReader::new(stream);
    let mut pending = Vec::new();
    'conn: loop {
        if stop.load(Ordering::SeqCst) {
            let _ = reply_tx.send(WireReply::Bye);
            break;
        }
        // A stalled or reset peer: stop reading, close the connection.
        match config.faults.check(sites::CONN_READ) {
            Some(FaultKind::Io) | Some(FaultKind::Drop) | Some(FaultKind::Unavailable) => {
                stats.faults_fired.fetch_add(1, Ordering::Relaxed);
                break 'conn;
            }
            _ => {}
        }
        let mut frame = match read_frame(&mut reader, &mut pending, config.max_frame) {
            Ok(FrameRead::Frame(f)) => f,
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => break,
            Ok(FrameRead::TooLarge) => {
                stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(WireReply::Err {
                    code: "too_large".into(),
                    msg: format!("frame exceeds {} bytes", config.max_frame),
                });
                break;
            }
        };
        // Frame-level chaos: tear the line mid-bytes (a parse error the
        // peer sees as `err`) or lose it between read and decode.
        match config.faults.check(sites::CONN_FRAME) {
            Some(FaultKind::Torn) => {
                stats.faults_fired.fetch_add(1, Ordering::Relaxed);
                frame.truncate(frame.len() / 2);
            }
            Some(FaultKind::Drop) => {
                stats.faults_fired.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            _ => {}
        }
        let line = String::from_utf8_lossy(&frame);
        let msg = match hka_core::parse_wire_msg(&line) {
            Ok(m) => m,
            Err(e) => {
                stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(WireReply::Err {
                    code: "bad_frame".into(),
                    msg: e.0,
                });
                continue;
            }
        };
        match msg {
            WireMsg::Bind { user } => {
                if cmd_tx
                    .send(Cmd::Bind {
                        user,
                        reply: reply_tx.clone(),
                    })
                    .is_err()
                {
                    break;
                }
            }
            WireMsg::Drain => {
                if cmd_tx
                    .send(Cmd::Barrier {
                        reply: reply_tx.clone(),
                    })
                    .is_err()
                {
                    break;
                }
            }
            WireMsg::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                let _ = reply_tx.send(WireReply::Bye);
                break;
            }
            WireMsg::Env(env) => {
                let is_request = env.is_request();
                let req_id = env.req_id;
                let cmd = Cmd::Submit {
                    env,
                    enqueued: Instant::now(),
                    reply: is_request.then(|| reply_tx.clone()),
                };
                match cmd_tx.try_send(cmd) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        if is_request {
                            // Fail-closed overload: answer `suppressed`
                            // now, at (at least) degraded — the queue
                            // never grows unboundedly and the TS never
                            // serves a request it cannot protect.
                            stats.overloads.fetch_add(1, Ordering::Relaxed);
                            let mode = mode_from_u8(mode_cache.load(Ordering::Relaxed).max(1));
                            let _ = reply_tx.send(WireReply::Resp(ResponseEnvelope::refusal(
                                req_id,
                                WireOutcome::Suppressed,
                                "overload",
                                mode,
                            )));
                        } else {
                            stats.shed_locations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    stats.faults_fired.fetch_add(
        writer_stats_faults.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

/// Writes replies until every sender is gone. Chaos on `conn.write`:
/// `Io`/`Drop` lose the response (the journal already holds the
/// decision — response loss is a durability/QoS event, never a privacy
/// one); `Torn` writes half the frame and kills the connection.
fn writer_loop(
    stream: TcpStream,
    replies: Receiver<WireReply>,
    faults: FaultInjector,
    fault_count: Arc<AtomicU64>,
) {
    let mut out = io::BufWriter::new(stream);
    for reply in replies {
        match faults.check(sites::CONN_WRITE) {
            Some(FaultKind::Io) | Some(FaultKind::Drop) | Some(FaultKind::Unavailable) => {
                fault_count.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Some(FaultKind::Torn) => {
                fault_count.fetch_add(1, Ordering::Relaxed);
                let line = reply.to_wire();
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = out.write_all(half);
                let _ = out.flush();
                return;
            }
            _ => {}
        }
        let line = reply.to_wire();
        if out
            .write_all(line.as_bytes())
            .and_then(|_| out.write_all(b"\n"))
            .and_then(|_| out.flush())
            .is_err()
        {
            return;
        }
    }
}

/// A request in flight through the backend, keyed by rewritten id.
struct Pending {
    client_req_id: u64,
    enqueued: Instant,
    reply: Option<Sender<WireReply>>,
}

/// The service thread: sole owner of the backend. Ingests command
/// bursts, drains settled responses back to their connections, feeds
/// the gateway SLO watchdog, and (optionally) journals liveness stats.
fn service_loop(
    mut service: Box<dyn RequestService + Send>,
    cmd_rx: Receiver<Cmd>,
    stats: Arc<GatewayStats>,
    mode_cache: Arc<AtomicU8>,
    config: GatewayConfig,
) -> Box<dyn RequestService + Send> {
    let mut slo = config.slo.map(hka_obs::SloMonitor::new);
    // Client req ids are per-connection; the backend needs process-wide
    // unique ones. Rewrite on the way in, restore on the way out.
    let mut next_id: u64 = 1;
    let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut batch: Vec<Cmd> = Vec::with_capacity(config.batch.max(1));
    let mut disconnected = false;
    while !disconnected {
        batch.clear();
        match cmd_rx.recv() {
            Ok(cmd) => batch.push(cmd),
            Err(_) => break,
        }
        while batch.len() < config.batch.max(1) {
            match cmd_rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let mut barriers: Vec<Sender<WireReply>> = Vec::new();
        for cmd in batch.drain(..) {
            match cmd {
                Cmd::Bind { user, reply } => {
                    let _ = reply.send(WireReply::Bound {
                        user,
                        pseudonym: service.pseudonym_of(user),
                        mode: service.mode(),
                    });
                }
                Cmd::Submit {
                    mut env,
                    enqueued,
                    reply,
                } => {
                    if env.is_request() {
                        let id = next_id;
                        next_id += 1;
                        pending.insert(
                            id,
                            Pending {
                                client_req_id: env.req_id,
                                enqueued,
                                reply,
                            },
                        );
                        env.req_id = id;
                    }
                    service.submit(&env);
                }
                Cmd::Barrier { reply } => barriers.push(reply),
            }
        }
        drain_cycle(
            &mut *service,
            &mut pending,
            &mut slo,
            &stats,
            &mode_cache,
            &config,
        );
        for reply in barriers {
            let _ = reply.send(WireReply::Drained { pending: 0 });
        }
    }
    // Settle everything that raced the shutdown, then make the journal
    // durable before handing the backend back.
    drain_cycle(
        &mut *service,
        &mut pending,
        &mut slo,
        &stats,
        &mode_cache,
        &config,
    );
    let _ = service.flush_journal();
    service
}

/// One drain: collect settled responses, route them to their
/// connections, observe SLOs, update caches, optionally journal stats.
fn drain_cycle(
    service: &mut dyn RequestService,
    pending: &mut BTreeMap<u64, Pending>,
    slo: &mut Option<hka_obs::SloMonitor>,
    stats: &GatewayStats,
    mode_cache: &AtomicU8,
    config: &GatewayConfig,
) {
    let responses = service.drain();
    stats.drains.fetch_add(1, Ordering::Relaxed);
    let mut transitions: Vec<hka_obs::SloEvent> = Vec::new();
    let degraded = service.mode() != ServerMode::Normal;
    for mut resp in responses {
        let Some(p) = pending.remove(&resp.req_id) else {
            continue;
        };
        resp.req_id = p.client_req_id;
        stats.responses.fetch_add(1, Ordering::Relaxed);
        if resp.outcome == WireOutcome::Forwarded {
            stats.forwarded.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(monitor) = slo.as_mut() {
            let latency = u64::try_from(p.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let suppressed = resp.outcome != WireOutcome::Forwarded;
            transitions.extend(monitor.observe_request(
                latency,
                suppressed,
                degraded,
                hka_obs::trace::TraceId(resp.trace),
            ));
        }
        if let Some(reply) = p.reply {
            let _ = reply.send(WireReply::Resp(resp));
        }
    }
    if let Some(monitor) = slo.as_mut() {
        transitions.extend(monitor.observe_queue_depth(pending.len()));
    }
    if !transitions.is_empty() {
        service.note_slo_events(&transitions);
    }
    mode_cache.store(mode_to_u8(service.mode()), Ordering::Relaxed);
    if config.emit_stats {
        service.note_gateway_stats(
            stats.conns_open.load(Ordering::Relaxed),
            stats.drains.load(Ordering::Relaxed),
            pending.len() as u64,
        );
    }
}

/// Replays a mobility-style event stream through a [`GatewayClient`]
/// as one session: binds `users`, streams envelopes, drains, and
/// returns the responses in submission order. A convenience for
/// drivers and drills; the open-loop bench paces itself instead.
pub fn serve_events(
    client: &mut GatewayClient,
    events: &[RequestEnvelope],
) -> io::Result<Vec<ResponseEnvelope>> {
    let mut expected = 0usize;
    for env in events {
        client.send_env(env)?;
        if env.is_request() {
            expected += 1;
        }
    }
    client.drain_responses(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_core::{PrivacyLevel, TrustedServer, TsConfig};
    use hka_geo::{StPoint, TimeSec};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn backend(users: u64) -> Box<dyn RequestService + Send> {
        let mut ts = TrustedServer::new(TsConfig::default());
        for u in 0..users {
            ts.register_user(UserId(u), PrivacyLevel::Medium);
        }
        Box::new(ts)
    }

    #[test]
    fn serves_requests_over_tcp() {
        let gw = Gateway::spawn("127.0.0.1:0", backend(4), GatewayConfig::default()).unwrap();
        let mut client = GatewayClient::connect(gw.addr()).unwrap();
        let bound = client.bind(UserId(0)).unwrap();
        assert!(bound.is_some(), "registered user has a pseudonym");

        let mut envs = Vec::new();
        let mut req = 0u64;
        for t in 0..20i64 {
            for u in 0..4u64 {
                envs.push(RequestEnvelope::location(
                    req,
                    UserId(u),
                    sp(10.0 * u as f64 + t as f64, 5.0 * u as f64, t * 10),
                ));
                req += 1;
            }
        }
        envs.push(RequestEnvelope::request(
            req,
            UserId(1),
            sp(11.0, 5.0, 200),
            hka_anonymity::ServiceId(1),
        ));
        let responses = serve_events(&mut client, &envs).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].req_id, req);
        assert!(matches!(
            responses[0].outcome,
            WireOutcome::Forwarded | WireOutcome::Suppressed
        ));
        let service = gw.shutdown();
        assert_eq!(service.mode(), ServerMode::Normal);
    }

    #[test]
    fn unknown_users_are_rejected_and_bad_frames_answered() {
        let gw = Gateway::spawn("127.0.0.1:0", backend(1), GatewayConfig::default()).unwrap();
        let mut client = GatewayClient::connect(gw.addr()).unwrap();
        assert_eq!(client.bind(UserId(77)).unwrap(), None);
        client
            .send_env(&RequestEnvelope::request(
                5,
                UserId(77),
                sp(0.0, 0.0, 1),
                hka_anonymity::ServiceId(1),
            ))
            .unwrap();
        let resp = client.drain_responses(1).unwrap();
        assert_eq!(resp[0].outcome, WireOutcome::Rejected);
        assert_eq!(resp[0].detail, "unknown_user");

        client.send_raw("this is not json").unwrap();
        let reply = client.recv_reply().unwrap();
        assert!(matches!(reply, WireReply::Err { .. }), "{reply:?}");
        gw.shutdown();
    }

    #[test]
    fn overload_answers_suppressed_at_degraded_never_forwarded() {
        // A 1-deep queue with a single slow drain cycle: flood it and
        // check every refusal is fail-closed.
        let config = GatewayConfig {
            inflight: 1,
            batch: 1,
            ..GatewayConfig::default()
        };
        let gw = Gateway::spawn("127.0.0.1:0", backend(2), config).unwrap();
        let mut client = GatewayClient::connect(gw.addr()).unwrap();
        let n = 200u64;
        for i in 0..n {
            client
                .send_env(&RequestEnvelope::request(
                    i,
                    UserId(0),
                    sp(1.0, 1.0, i as i64),
                    hka_anonymity::ServiceId(1),
                ))
                .unwrap();
        }
        let responses = client.drain_responses(n as usize).unwrap();
        assert_eq!(responses.len(), n as usize);
        let overloads = responses
            .iter()
            .filter(|r| r.detail == "overload")
            .collect::<Vec<_>>();
        for r in &overloads {
            assert_eq!(r.outcome, WireOutcome::Suppressed);
            assert!(r.mode >= ServerMode::Degraded, "overload implies degraded");
        }
        let snap = gw.stats().snapshot();
        assert_eq!(snap.overloads, overloads.len() as u64);
        gw.shutdown();
    }

    #[test]
    fn shutdown_drains_and_returns_the_backend() {
        let gw = Gateway::spawn("127.0.0.1:0", backend(2), GatewayConfig::default()).unwrap();
        let addr = gw.addr();
        let mut client = GatewayClient::connect(addr).unwrap();
        client
            .send_env(&RequestEnvelope::location(0, UserId(0), sp(1.0, 2.0, 3)))
            .unwrap();
        client.drain_responses(0).unwrap();
        let service = gw.shutdown();
        assert!(service.pseudonym_of(UserId(0)).is_some());
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close; a write must fail.
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"{\"op\":\"drain\"}\n").is_err() || {
                    let mut buf = [0u8; 1];
                    use std::io::Read;
                    let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                    !matches!(s.read(&mut buf), Ok(n) if n > 0)
                }
            },
            "listener is gone after shutdown"
        );
    }
}
