//! The transport-agnostic service seam.
//!
//! [`RequestService`] is the one interface every driver talks to —
//! `hka-sim simulate`, `serve-drill`, the benches, and the TCP
//! gateway all hand [`RequestEnvelope`]s to a `&mut dyn
//! RequestService` and read [`ResponseEnvelope`]s back from
//! [`RequestService::drain`]. The sequential [`TrustedServer`]
//! implements it here; the pipelined `ShardedTs` implements it in
//! `hka-shard` (orphan rule). Both implementations preserve their
//! pre-seam journal bytes exactly: `submit` on the sequential server
//! is `location_update`/`try_handle_request` verbatim, and
//! `submit_batch` takes the Algorithm-1 batch path
//! ([`TrustedServer::handle_requests`]), which is order-equivalent by
//! contract.
//!
//! The seam is deliberately *pull-based*: `submit` never returns an
//! outcome. Sequential backends answer immediately and buffer; the
//! sharded backend answers at its next flush. Callers that
//! need outcomes call `drain`, which yields every response settled
//! since the previous drain, in submission order. Location reports
//! are fire-and-forget and never produce a response.

use hka_anonymity::Pseudonym;
use hka_trajectory::UserId;

use crate::envelope::{EnvelopeBody, RequestEnvelope, ResponseEnvelope};
use crate::events::TsEvent;
use crate::server::{RequestOutcome, ServerMode, TrustedServer, TsError};

/// Object-safe interface over a Trusted Server backend.
pub trait RequestService {
    /// Ingests one envelope. Location reports are applied immediately
    /// (fire-and-forget); requests are decided now or at the backend's
    /// next flush, and their responses surface via
    /// [`RequestService::drain`].
    fn submit(&mut self, env: &RequestEnvelope);

    /// Ingests a batch. Backends that can share work across
    /// co-arriving requests (one Algorithm-1 window pass) override
    /// this; the default is sequential submission. Outcome order is
    /// submission order either way.
    fn submit_batch(&mut self, envs: &[RequestEnvelope]) {
        for env in envs {
            self.submit(env);
        }
    }

    /// Takes every response settled since the last drain, in
    /// submission order. Backends with internal queues flush first,
    /// so after `drain` returns, every previously
    /// submitted request has been answered.
    fn drain(&mut self) -> Vec<ResponseEnvelope>;

    /// The backend's position on the Normal→Degraded→ReadOnly ladder.
    fn mode(&self) -> ServerMode;

    /// The pseudonym currently bound to `user`, if registered.
    fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym>;

    /// Flushes the attached journal through to its sink.
    fn flush_journal(&mut self) -> std::io::Result<()>;

    /// Journals SLO transitions observed *outside* the backend — the
    /// gateway's own watchdog (p999 latency, queue depth) reports
    /// through the same hash-chained journal as the server's.
    fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]);

    /// Journals a gateway liveness snapshot ([`TsEvent::GwStats`]).
    /// Telemetry only; a backend without a journal may drop it.
    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64);
}

/// Best-effort `k_got` for the freshest forwarded decisions: walks the
/// last `tail` ring events newest-first and returns the most recent
/// `ts.forwarded` for `user`. The journal record is authoritative;
/// this only enriches the wire response, so 0 ("unknown") is an
/// acceptable answer when the ring has already evicted the event.
fn k_got_of(server: &TrustedServer, user: UserId, tail: usize) -> u64 {
    let events = server.log().events();
    let skip = events.len().saturating_sub(tail);
    let mut found = 0u64;
    for ev in events.skip(skip) {
        if let TsEvent::Forwarded { user: u, k_got, .. } = ev {
            if *u == user {
                found = *k_got as u64;
            }
        }
    }
    found
}

impl TrustedServer {
    fn respond(&mut self, env: &RequestEnvelope, result: Result<RequestOutcome, TsError>) {
        let k_got = match &result {
            Ok(RequestOutcome::Forwarded(_)) => k_got_of(self, env.user, 8),
            _ => 0,
        };
        let resp =
            ResponseEnvelope::from_result(env.req_id, env.trace, &result, self.mode(), k_got);
        self.svc_outbox_mut().push(resp);
    }
}

impl RequestService for TrustedServer {
    fn submit(&mut self, env: &RequestEnvelope) {
        match env.body {
            EnvelopeBody::Location => self.location_update(env.user, env.at),
            EnvelopeBody::Request { service } => {
                let result = self.try_handle_request(env.user, env.at, service);
                self.respond(env, result);
            }
        }
    }

    /// Runs of consecutive requests go through the Algorithm-1 batch
    /// path ([`TrustedServer::handle_requests`]); location reports act
    /// as batch boundaries because ingestion must happen between the
    /// surrounding decisions.
    fn submit_batch(&mut self, envs: &[RequestEnvelope]) {
        let mut run: Vec<&RequestEnvelope> = Vec::new();
        let flush_run = |server: &mut TrustedServer, run: &mut Vec<&RequestEnvelope>| {
            if run.is_empty() {
                return;
            }
            let batch: Vec<_> = run
                .iter()
                .map(|e| {
                    let service = match e.body {
                        EnvelopeBody::Request { service } => service,
                        EnvelopeBody::Location => unreachable!("runs hold requests only"),
                    };
                    (e.user, e.at, service)
                })
                .collect();
            let results = server.handle_requests(&batch);
            for (env, result) in run.drain(..).zip(results) {
                server.respond(env, result);
            }
        };
        for env in envs {
            match env.body {
                EnvelopeBody::Location => {
                    flush_run(self, &mut run);
                    self.location_update(env.user, env.at);
                }
                EnvelopeBody::Request { .. } => run.push(env),
            }
        }
        flush_run(self, &mut run);
    }

    fn drain(&mut self) -> Vec<ResponseEnvelope> {
        std::mem::take(self.svc_outbox_mut())
    }

    fn mode(&self) -> ServerMode {
        TrustedServer::mode(self)
    }

    fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        TrustedServer::pseudonym_of(self, user)
    }

    fn flush_journal(&mut self) -> std::io::Result<()> {
        TrustedServer::flush_journal(self)
    }

    fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        TrustedServer::note_slo_events(self, events);
    }

    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        TrustedServer::note_gateway_stats(self, conns, drains, queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::WireOutcome;
    use crate::server::TsConfig;
    use crate::PrivacyLevel;
    use hka_anonymity::ServiceId;
    use hka_geo::{StPoint, TimeSec};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn served() -> TrustedServer {
        let mut ts = TrustedServer::new(TsConfig::default());
        for u in 0..6 {
            ts.register_user(UserId(u), PrivacyLevel::Medium);
        }
        ts
    }

    #[test]
    fn seam_matches_direct_calls() {
        // The same traffic through the seam and through direct calls
        // must produce identical decisions and identical event logs.
        let mut direct = served();
        let mut seam = served();
        let svc: &mut dyn RequestService = &mut seam;

        let mut want = Vec::new();
        let mut req_id = 0u64;
        for t in 0..40i64 {
            for u in 0..6u64 {
                let at = sp(100.0 * u as f64 + t as f64, 50.0 * u as f64, t * 10);
                direct.location_update(UserId(u), at);
                svc.submit(&RequestEnvelope::location(req_id, UserId(u), at));
                req_id += 1;
                if (t + u as i64) % 7 == 0 {
                    let r = direct.try_handle_request(UserId(u), at, ServiceId(1));
                    want.push(r);
                    svc.submit(&RequestEnvelope::request(
                        req_id,
                        UserId(u),
                        at,
                        ServiceId(1),
                    ));
                    req_id += 1;
                }
            }
        }
        let got = svc.drain();
        assert_eq!(got.len(), want.len());
        for (resp, want) in got.iter().zip(&want) {
            let expect = match want {
                Ok(RequestOutcome::Forwarded(_)) => WireOutcome::Forwarded,
                Ok(RequestOutcome::Suppressed(_)) => WireOutcome::Suppressed,
                Err(_) => WireOutcome::Rejected,
            };
            assert_eq!(resp.outcome, expect);
        }
        assert!(svc.drain().is_empty(), "drain is take-once");

        // Event-for-event identical logs.
        let d: Vec<_> = direct.log().events().collect();
        let s: Vec<_> = seam.log().events().collect();
        assert_eq!(d, s);
    }

    #[test]
    fn batch_seam_matches_sequential_seam() {
        let mut seq = served();
        let mut bat = served();
        let mut envs = Vec::new();
        let mut req_id = 0u64;
        for t in 0..30i64 {
            for u in 0..6u64 {
                let at = sp(80.0 * u as f64 + t as f64, 60.0 * u as f64, t * 10);
                envs.push(RequestEnvelope::location(req_id, UserId(u), at));
                req_id += 1;
                if t % 3 == 0 {
                    envs.push(RequestEnvelope::request(
                        req_id,
                        UserId(u),
                        at,
                        ServiceId(2),
                    ));
                    req_id += 1;
                }
            }
        }
        for env in &envs {
            RequestService::submit(&mut seq, env);
        }
        bat.submit_batch(&envs);
        let a = RequestService::drain(&mut seq);
        let b = RequestService::drain(&mut bat);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.req_id, y.req_id);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.detail, y.detail);
        }
        let sl: Vec<_> = seq.log().events().collect();
        let bl: Vec<_> = bat.log().events().collect();
        assert_eq!(sl, bl, "batch path is order-equivalent (PR9 contract)");
    }

    #[test]
    fn rejections_and_telemetry_flow_through_the_seam() {
        let mut ts = served();
        let svc: &mut dyn RequestService = &mut ts;
        svc.submit(&RequestEnvelope::request(
            7,
            UserId(99),
            sp(0.0, 0.0, 5),
            ServiceId(1),
        ));
        let out = svc.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome, WireOutcome::Rejected);
        assert_eq!(out[0].detail, "unknown_user");
        assert_eq!(out[0].req_id, 7);

        assert_eq!(svc.mode(), ServerMode::Normal);
        assert!(svc.pseudonym_of(UserId(0)).is_some());
        assert!(svc.pseudonym_of(UserId(99)).is_none());
        svc.flush_journal().unwrap();

        svc.note_gateway_stats(3, 2, 11);
        let last = ts.log().events().last().unwrap();
        match last {
            TsEvent::GwStats {
                conns,
                drains,
                queue_depth,
                ..
            } => {
                assert_eq!((*conns, *drains, *queue_depth), (3, 2, 11));
            }
            other => panic!("expected gw.stats, got {other:?}"),
        }
    }
}
