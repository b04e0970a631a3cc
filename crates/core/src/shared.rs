//! A thread-safe handle to the trusted server.
//!
//! The paper's TS serves a whole operator's user base; positioning
//! updates and service requests arrive concurrently. [`SharedTrustedServer`]
//! wraps the single-threaded [`TrustedServer`] state machine in a
//! `parking_lot::RwLock` so ingest threads, request handlers and
//! read-only auditors can share one server:
//!
//! * writers (`location_update`, `handle_request`) serialize through the
//!   write lock — the strategy's decisions are inherently ordered;
//! * readers (`audit_patterns`, `stats`, `pseudonym_of`, …) take the read
//!   lock and proceed in parallel.

use crate::{
    PrivacyLevel, RequestOutcome, ServerMode, Tolerance, TrustedServer, TsConfig, TsStats,
};
use hka_anonymity::{HkOutcome, Pseudonym, ServiceId};
use hka_geo::{Rect, StPoint};
use hka_lbqid::Lbqid;
use hka_trajectory::UserId;
use parking_lot::RwLock;
use std::sync::Arc;

/// A cloneable, `Send + Sync` handle to a trusted server.
#[derive(Clone)]
pub struct SharedTrustedServer {
    inner: Arc<RwLock<TrustedServer>>,
}

impl SharedTrustedServer {
    /// Creates a server behind a lock.
    pub fn new(config: TsConfig) -> Self {
        SharedTrustedServer {
            inner: Arc::new(RwLock::new(TrustedServer::new(config))),
        }
    }

    /// Wraps an existing server.
    pub fn from_server(server: TrustedServer) -> Self {
        SharedTrustedServer {
            inner: Arc::new(RwLock::new(server)),
        }
    }

    /// Runs a closure with shared (read) access.
    pub fn read<R>(&self, f: impl FnOnce(&TrustedServer) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs a closure with exclusive (write) access.
    pub fn write<R>(&self, f: impl FnOnce(&mut TrustedServer) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// See [`TrustedServer::register_user`].
    pub fn register_user(&self, user: UserId, level: PrivacyLevel) -> Pseudonym {
        self.write(|ts| ts.register_user(user, level))
    }

    /// See [`TrustedServer::add_lbqid`].
    pub fn add_lbqid(&self, user: UserId, lbqid: Lbqid) {
        self.write(|ts| ts.add_lbqid(user, lbqid))
    }

    /// See [`TrustedServer::register_service`].
    pub fn register_service(&self, service: ServiceId, tolerance: Tolerance) {
        self.write(|ts| ts.register_service(service, tolerance))
    }

    /// See [`TrustedServer::add_static_mixzone`].
    pub fn add_static_mixzone(&self, zone: Rect) {
        self.write(|ts| ts.add_static_mixzone(zone))
    }

    /// See [`TrustedServer::location_update`].
    pub fn location_update(&self, user: UserId, at: StPoint) {
        self.write(|ts| ts.location_update(user, at))
    }

    /// See [`TrustedServer::handle_request`].
    pub fn handle_request(&self, user: UserId, at: StPoint, service: ServiceId) -> RequestOutcome {
        self.write(|ts| ts.handle_request(user, at, service))
    }

    /// See [`TrustedServer::audit_patterns`].
    pub fn audit_patterns(&self, user: UserId, k: usize) -> Vec<(String, bool, HkOutcome)> {
        self.read(|ts| ts.audit_patterns(user, k))
    }

    /// See [`TrustedServer::pseudonym_of`].
    pub fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        self.read(|ts| ts.pseudonym_of(user))
    }

    /// See [`TrustedServer::mode`].
    pub fn mode(&self) -> ServerMode {
        self.read(|ts| ts.mode())
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> TsStats {
        self.read(|ts| ts.log().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::TimeSec;
    use std::thread;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    #[test]
    fn concurrent_users_are_all_served() {
        let ts = SharedTrustedServer::new(TsConfig::default());
        const USERS: u64 = 8;
        const REQS: i64 = 25;
        for u in 0..USERS {
            ts.register_user(UserId(u), PrivacyLevel::Off);
        }
        let forwards: Vec<(u64, Pseudonym)> = thread::scope(|scope| {
            let workers: Vec<_> = (0..USERS)
                .map(|u| {
                    let handle = ts.clone();
                    scope.spawn(move || {
                        (0..REQS)
                            .map(|i| {
                                let at = sp(u as f64 * 10.0, i as f64, i * 30);
                                handle.location_update(UserId(u), at);
                                match handle.handle_request(UserId(u), at, ServiceId(0)) {
                                    RequestOutcome::Forwarded(req, _) => (u, req.pseudonym),
                                    other => panic!("{other:?}"),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let stats = ts.stats();
        assert_eq!(stats.forwarded(), (USERS as usize) * (REQS as usize));
        // Every pseudonym is still single-user (no cross-thread mixing).
        let mut owners = std::collections::HashMap::new();
        for (user, pseudonym) in forwards {
            let prev = owners.insert(pseudonym, user);
            assert!(prev.is_none_or(|p| p == user));
        }
    }

    #[test]
    fn readers_run_while_holding_snapshots() {
        let ts = SharedTrustedServer::new(TsConfig::default());
        ts.register_user(UserId(1), PrivacyLevel::Medium);
        ts.location_update(UserId(1), sp(0.0, 0.0, 0));
        assert_eq!(ts.stats().forwarded(), 0);
        assert_eq!(ts.pseudonym_of(UserId(1)), Some(Pseudonym(0)));
        assert!(ts.audit_patterns(UserId(1), 2).is_empty());
    }
}
