//! # hka-shard
//!
//! A compatibility shim for the benchmark harness, which constructs
//! [`ShardedTs`] for its `Backend::Sharded(n)`. There is one Trusted
//! Server, [`TrustedServer`]; group commit is one of its journal
//! cadences ([`TrustedServer::attach_group_journal`]). [`ShardedTs`] is
//! a newtype over it that keeps only the names the harness calls, and
//! has no logic of its own. The next change to the benchmark harness
//! deletes this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hka_core::{
    CheckpointReceipt, Checkpointer, RequestEnvelope, RequestService, ResponseEnvelope, ServerMode,
    TrustedServer, TsConfig,
};
use hka_obs::{DurableJournal, Snapshot};
use hka_trajectory::UserId;

/// A [`TrustedServer`] on a group-commit journal, under the benchmark
/// harness's old name. Registration and introspection reach the server
/// through `Deref`.
#[derive(Debug)]
pub struct ShardedTs(TrustedServer);

impl ShardedTs {
    /// An empty server. The shard count is ignored.
    pub fn new(config: TsConfig, _shards: usize) -> Self {
        ShardedTs(TrustedServer::new(config))
    }

    /// [`TrustedServer::restore`]. The shard count is ignored.
    pub fn restore(config: TsConfig, _shards: usize, snapshot: &Snapshot) -> Result<Self, String> {
        TrustedServer::restore(config, snapshot).map(ShardedTs)
    }

    /// [`TrustedServer::attach_group_journal`].
    pub fn attach_journal(&mut self, journal: DurableJournal) {
        self.0.attach_group_journal(journal);
    }

    /// [`Checkpointer::checkpoint`] without truncation.
    pub fn write_checkpoint(
        &mut self,
        cp: &mut Checkpointer,
    ) -> std::io::Result<CheckpointReceipt> {
        cp.checkpoint(&mut self.0, false)
    }
}

impl std::ops::Deref for ShardedTs {
    type Target = TrustedServer;

    fn deref(&self) -> &TrustedServer {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedTs {
    fn deref_mut(&mut self) -> &mut TrustedServer {
        &mut self.0
    }
}

impl RequestService for ShardedTs {
    fn submit(&mut self, env: &RequestEnvelope) {
        self.0.submit(env);
    }

    fn drain(&mut self) -> Vec<ResponseEnvelope> {
        self.0.drain()
    }

    fn mode(&self) -> ServerMode {
        self.0.mode()
    }

    fn pseudonym_of(&self, user: UserId) -> Option<hka_anonymity::Pseudonym> {
        self.0.pseudonym_of(user)
    }

    fn flush_journal(&mut self) -> std::io::Result<()> {
        self.0.flush_journal()
    }

    fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        self.0.note_slo_events(events);
    }

    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        self.0.note_gateway_stats(conns, drains, queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_anonymity::ServiceId;
    use hka_core::{PrivacyLevel, Tolerance};
    use hka_geo::{StPoint, TimeSec};
    use hka_obs::{DurableSink, Journal, Unsynced};
    use std::sync::{Arc, Mutex};

    /// An in-memory durable sink whose bytes the test can read back.
    #[derive(Clone, Default)]
    struct Bytes(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Bytes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn traffic(svc: &mut dyn RequestService) {
        let mut req = 0;
        for round in 0..4i64 {
            for u in 0..6u64 {
                let at = StPoint::xyt(10.0 * u as f64, 3.0 * round as f64, TimeSec(60 * round));
                svc.submit(&RequestEnvelope::location(req, UserId(u), at));
                svc.submit(&RequestEnvelope::request(
                    req + 1,
                    UserId(u),
                    at,
                    ServiceId(1),
                ));
                req += 2;
            }
            svc.drain();
        }
    }

    fn register(ts: &mut TrustedServer) {
        ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        for u in 0..6u64 {
            let level = if u % 2 == 0 {
                PrivacyLevel::Medium
            } else {
                PrivacyLevel::Off
            };
            ts.register_user(UserId(u), level);
        }
    }

    #[test]
    fn the_shim_journals_and_counts_epochs_like_a_group_trusted_server() {
        let (want, got) = (Bytes::default(), Bytes::default());
        let mut ts = TrustedServer::new(TsConfig::default());
        register(&mut ts);
        ts.attach_group_journal(Journal::new(
            Box::new(Unsynced(want.clone())) as Box<dyn DurableSink>
        ));
        traffic(&mut ts);
        let mut shim = ShardedTs::new(TsConfig::default(), 2);
        register(&mut shim);
        shim.attach_journal(Journal::new(
            Box::new(Unsynced(got.clone())) as Box<dyn DurableSink>
        ));
        traffic(&mut shim);

        assert_eq!(shim.epoch(), 4);
        assert_eq!(shim.epoch(), ts.epoch());
        let (want, got) = (want.0.lock().unwrap(), got.0.lock().unwrap());
        assert!(!want.is_empty());
        assert!(*want == *got, "journal bytes diverge");
    }
}
