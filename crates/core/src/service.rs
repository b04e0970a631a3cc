//! The transport-agnostic service seam.
//!
//! [`RequestService`] is the one interface every driver talks to —
//! `hka-sim simulate`, the live-tail and checkpoint drills in the
//! tests, the benches, and the TCP gateway all hand
//! [`RequestEnvelope`]s to a `&mut dyn RequestService` and read
//! [`ResponseEnvelope`]s back from [`RequestService::drain`].
//! [`TrustedServer`] implements it here, on either journal cadence;
//! `submit` is `location_update`/`try_handle_request` verbatim, so the
//! seam adds no journal byte.
//!
//! The seam is deliberately *pull-based*: `submit` never returns an
//! outcome. The server decides each submission at once and buffers the
//! response; callers that need outcomes call `drain`, which yields every
//! response settled since the previous drain, in submission order (on a
//! group journal it also commits there). Location reports are
//! fire-and-forget and never produce a response.

use hka_anonymity::Pseudonym;
use hka_trajectory::UserId;

use crate::envelope::{EnvelopeBody, RequestEnvelope, ResponseEnvelope};
use crate::server::{ServerMode, TrustedServer};

/// Object-safe interface over a Trusted Server backend.
pub trait RequestService {
    /// Ingests one envelope. Location reports are applied immediately
    /// (fire-and-forget); requests are decided immediately, and their
    /// responses surface via [`RequestService::drain`].
    fn submit(&mut self, env: &RequestEnvelope);

    /// Ingests a batch: each envelope in turn, as [`RequestService::submit`].
    fn submit_batch(&mut self, envs: &[RequestEnvelope]) {
        for env in envs {
            self.submit(env);
        }
    }

    /// Takes every response settled since the last drain, in
    /// submission order.
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

impl RequestService for TrustedServer {
    fn submit(&mut self, env: &RequestEnvelope) {
        let response = match env.body {
            EnvelopeBody::Location => {
                self.location_update(env.user, env.at);
                None
            }
            EnvelopeBody::Request { service } => {
                let result = self.try_handle_request(env.user, env.at, service);
                Some(ResponseEnvelope::from_result(
                    env.req_id,
                    env.trace,
                    &result,
                    self.mode(),
                ))
            }
        };
        self.settle(response);
    }

    /// Takes the buffered responses. On a group journal a drain that
    /// follows submissions also counts an epoch, judges the SLO
    /// watchdog's flush lag and commits.
    fn drain(&mut self) -> Vec<ResponseEnvelope> {
        self.drain_responses()
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
    use crate::server::tests::memory_journal;
    use crate::server::{RequestOutcome, TsConfig};
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
        let (journal, direct_bytes) = memory_journal();
        direct.attach_journal(journal);
        let (journal, seam_bytes) = memory_journal();
        seam.attach_journal(journal);
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
                Ok(RequestOutcome::Forwarded(..)) => WireOutcome::Forwarded,
                Ok(RequestOutcome::Suppressed(_)) => WireOutcome::Suppressed,
                Err(_) => WireOutcome::Rejected,
            };
            assert_eq!(resp.outcome, expect);
        }
        assert!(svc.drain().is_empty(), "drain is take-once");

        // Byte-for-byte identical journals.
        direct.flush_journal().unwrap();
        svc.flush_journal().unwrap();
        assert!(!direct_bytes.bytes().is_empty());
        assert_eq!(direct_bytes.bytes(), seam_bytes.bytes());
    }

    #[test]
    fn rejections_and_telemetry_flow_through_the_seam() {
        let mut ts = served();
        let (journal, bytes) = memory_journal();
        ts.attach_journal(journal);
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
        svc.flush_journal().unwrap();
        let report = hka_obs::verify_chain(&bytes.bytes()[..]).unwrap();
        let last = report.records.last().unwrap();
        assert_eq!(last.kind, "gw.stats");
        let member = |name| last.payload.get(name).and_then(|v| v.as_int());
        assert_eq!(
            (member("conns"), member("drains"), member("queue_depth")),
            (Some(3), Some(2), Some(11))
        );
    }
}
