//! The in-process drivers: closed loops of one client over the
//! [`RequestService`] seam, and the response bookkeeping every driver
//! (in-process or TCP) shares.

use crate::spans::{Tracer, NO_REQ};
use hka_core::{RequestEnvelope, RequestService, ResponseEnvelope, WireOutcome};
use std::time::Instant;

/// Most envelopes handed to one `submit_batch`.
pub const TICK_BATCH: usize = 64;

/// Responses kept verbatim per pass.
pub const REPLY_SAMPLE: usize = 2_000;

/// What came back, counted. `PartialEq` so passes can be compared: the
/// same input must produce the same decisions every pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answers {
    /// Responses with outcome `forwarded`.
    pub forwarded: u64,
    /// Responses with outcome `suppressed` for a policy reason.
    pub suppressed: u64,
    /// Responses refused for load (`suppressed/overload`): failures.
    pub overload: u64,
    /// Responses with outcome `err`: failures.
    pub rejected: u64,
    /// Areas of the generalized forwards (area > 0), m².
    pub areas: Vec<f64>,
    /// The first [`REPLY_SAMPLE`] responses, kept so the traced run can
    /// replay real reply frames through the decoder.
    pub sample: Vec<ResponseEnvelope>,
}

impl Answers {
    /// Counts one response.
    pub fn note(&mut self, r: &ResponseEnvelope) {
        if self.sample.len() < REPLY_SAMPLE {
            self.sample.push(r.clone());
        }
        match r.outcome {
            WireOutcome::Forwarded => {
                self.forwarded += 1;
                if r.area > 0.0 {
                    self.areas.push(r.area);
                }
            }
            WireOutcome::Suppressed if r.detail == "overload" => self.overload += 1,
            WireOutcome::Suppressed => self.suppressed += 1,
            WireOutcome::Rejected => self.rejected += 1,
        }
    }

    /// Responses received, of any kind.
    pub fn received(&self) -> u64 {
        self.forwarded + self.suppressed + self.overload + self.rejected
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Preloads location history through `submit` (set-up, not serve), and
/// reaches a barrier so a pipelined backend has ingested it before the
/// serve clock starts.
pub fn preload<T: Tracer>(svc: &mut dyn RequestService, warm: &[RequestEnvelope], tr: &mut T) {
    let span = tr.open("preload.submit", NO_REQ);
    for env in warm {
        svc.submit(env);
    }
    tr.close(span, warm.len() as u32);
    let span = tr.open("preload.drain", NO_REQ);
    svc.drain();
    tr.close(span, 1);
}

/// Closed loop, one client, `submit` + `drain` per request: the client
/// holds each response before it sends anything further. A request's
/// latency runs from the hand-off to the service to the response in
/// hand. Location reports are fire-and-forget; a run of consecutive
/// reports is one span.
pub fn serve_per_request<T: Tracer>(
    svc: &mut dyn RequestService,
    envs: &[RequestEnvelope],
    tr: &mut T,
    answers: &mut Answers,
    lat_ns: &mut Vec<u64>,
) {
    let mut i = 0;
    while i < envs.len() {
        let env = &envs[i];
        if env.is_request() {
            let span = tr.open("request", env.req_id);
            let t0 = Instant::now();
            let s = tr.open("submit", env.req_id);
            svc.submit(env);
            tr.close(s, 1);
            let d = tr.open("drain", env.req_id);
            let responses = svc.drain();
            tr.close(d, 1);
            lat_ns.push(elapsed_ns(t0));
            tr.close(span, 1);
            for r in &responses {
                answers.note(r);
            }
            i += 1;
        } else {
            let run = envs[i..].iter().take_while(|e| !e.is_request()).count();
            let span = tr.open("submit.locations", NO_REQ);
            for env in &envs[i..i + run] {
                svc.submit(env);
            }
            tr.close(span, run as u32);
            i += run;
        }
    }
}

/// Splits a time-ordered stream into simulation ticks (envelopes sharing
/// a timestamp), each cut into batches of at most [`TICK_BATCH`].
pub fn tick_batches(envs: &[RequestEnvelope]) -> Vec<&[RequestEnvelope]> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < envs.len() {
        let t = envs[start].at.t;
        let len = envs[start..].iter().take_while(|e| e.at.t == t).count();
        out.extend(envs[start..start + len].chunks(TICK_BATCH));
        start += len;
    }
    out
}

/// Closed loop, one client, `submit_batch` + `drain` per tick batch: the
/// shape a pipelined backend is built for. Every request in a batch is
/// answered at the batch's barrier, so each is charged the batch's wall.
pub fn serve_ticks<T: Tracer>(
    svc: &mut dyn RequestService,
    envs: &[RequestEnvelope],
    tr: &mut T,
    answers: &mut Answers,
    lat_ns: &mut Vec<u64>,
) {
    for batch in tick_batches(envs) {
        let span = tr.open("tick", NO_REQ);
        let t0 = Instant::now();
        let s = tr.open("submit_batch", NO_REQ);
        svc.submit_batch(batch);
        tr.close(s, 1);
        let d = tr.open("drain", NO_REQ);
        let responses = svc.drain();
        tr.close(d, 1);
        let wall = elapsed_ns(t0);
        tr.close(span, 1);
        for r in &responses {
            answers.note(r);
            lat_ns.push(wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_anonymity::ServiceId;
    use hka_geo::{StPoint, TimeSec};
    use hka_trajectory::UserId;

    #[test]
    fn ticks_split_on_time_and_size() {
        let at = |t: i64| StPoint::xyt(0.0, 0.0, TimeSec(t));
        let mut envs = Vec::new();
        for i in 0..300u64 {
            envs.push(RequestEnvelope::location(i, UserId(i), at(0)));
        }
        envs.push(RequestEnvelope::request(
            300,
            UserId(1),
            at(0),
            ServiceId(0),
        ));
        for i in 0..5u64 {
            envs.push(RequestEnvelope::location(301 + i, UserId(i), at(300)));
        }
        let batches = tick_batches(&envs);
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![64, 64, 64, 64, 45, 5]);
        assert!(batches
            .iter()
            .all(|b| b.iter().all(|e| e.at.t == b[0].at.t)));
    }
}
