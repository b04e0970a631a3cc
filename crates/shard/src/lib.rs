//! # hka-shard
//!
//! The group-commit Trusted Server. [`ShardedTs`] runs the paper's
//! Section-6.1 strategy exactly as
//! [`TrustedServer`](hka_core::TrustedServer) does — one user map, one
//! PHL store, the same `hka_core::strategy` code, so message ids and
//! pseudonyms come from the same counters — and differs in two things
//! only:
//!
//! * **Group commit.** Its journal is attached with
//!   [`EventLog::attach_group_journal`]: events queue in execution
//!   order, and one append + fsync commits them. The journal commits
//!   before each protected request (its fail-closed gate reads the mode
//!   ladder, so it must see a freshly committed health), before every
//!   request while a fault plan is attached, and at each
//!   [`drain`](RequestService::drain) that follows submissions. A
//!   privacy-off request therefore sees the mode as of the last commit.
//!   `verify_chain` and `hka-audit` accept the result unchanged:
//!   batching alters the durability cadence, not one byte of the chain.
//! * **A lazy index.** The spatial index is bulk-built from the store by
//!   the first protected request that queries it (`ts.index_builds`)
//!   and kept current by every recorded observation from then on
//!   (`ts.index_inserts`). A server that never sees a protected request
//!   never builds one.
//!
//! The crate and type names, and the shard-count arguments of
//! [`ShardedTs::new`] and [`ShardedTs::restore`], remain for the
//! benchmark harness, which constructs this type for its
//! `Backend::Sharded(n)`; the count is ignored until the harness drops
//! that variant.
//!
//! ## Equivalence contract
//!
//! Over the same submissions, [`ShardedTs`] produces **identical
//! outcomes** to the per-record `TrustedServer` — outcome kind,
//! forwarded context box, service, suppression reason, message id and
//! pseudonym — and, with a healthy journal, the same journal bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hka_anonymity::{historical_k_anonymity, HkOutcome, MsgId, Pseudonym, ServiceId, SpRequest};
use hka_core::checkpoint::{
    stats_to_json, AUDIT_SECTION, SERVER_SECTION, STATS_SECTION, STORE_SECTION,
};
use hka_core::strategy::{self, PatternState, RequestHost, UserState};
use hka_core::{
    algorithm1_first, algorithm1_subsequent, CheckpointReceipt, Checkpointer, EnvelopeBody,
    EventLog, Generalization, MixZoneManager, PrivacyIndicator, PrivacyLevel, Randomizer,
    RequestEnvelope, RequestOutcome, RequestService, ResponseEnvelope, ServerMeta, ServerMode,
    Tolerance, TsConfig, TsError, TsEvent, UnlinkDecision, UserMeta,
};
use hka_faults::{sites, FaultInjector};
use hka_geo::{Point, Rect, StBox, StPoint, TimeSec};
use hka_lbqid::{Lbqid, Monitor};
use hka_obs::checkpoint::{anchor_payload, Snapshot};
use hka_obs::{DurableJournal, CHECKPOINT_KIND};
use hka_trajectory::{SpatialIndex, TrajectoryStore, UserId};
use std::collections::BTreeMap;
use std::time::Instant;

/// The group-commit Trusted Server. See the crate docs.
pub struct ShardedTs {
    config: TsConfig,
    users: BTreeMap<UserId, UserState>,
    store: TrajectoryStore,
    /// Built by the first protected request that queries it; dropped by
    /// compaction, which removes what an insert cannot.
    index: Option<Box<dyn SpatialIndex>>,
    services: BTreeMap<ServiceId, Tolerance>,
    mixzones: MixZoneManager,
    randomizer: Option<Randomizer>,
    log: EventLog,
    outbox: Vec<(UserId, SpRequest)>,
    next_msg: u64,
    next_pseudonym: u64,
    injector: FaultInjector,
    /// A fault plan is attached: every request commits first, so the
    /// plan's journal faults move the mode ladder at the same request
    /// boundaries as on the per-record server.
    commit_each_request: bool,
    mode: ServerMode,
    last_time: TimeSec,
    slo: Option<hka_obs::SloMonitor>,
    /// Responses buffered for [`RequestService::drain`].
    responses: Vec<ResponseEnvelope>,
    /// Drains that followed submissions.
    epoch: u64,
    /// Whether anything was submitted since the last drain.
    submitted: bool,
}

impl ShardedTs {
    /// Creates an empty server. `_shards` is ignored (see the crate
    /// docs).
    pub fn new(config: TsConfig, _shards: usize) -> Self {
        ShardedTs {
            config,
            users: BTreeMap::new(),
            store: TrajectoryStore::new(),
            index: None,
            services: BTreeMap::new(),
            mixzones: MixZoneManager::new(config.mixzone),
            randomizer: config.randomize.map(Randomizer::new),
            log: EventLog::new(),
            outbox: Vec::new(),
            next_msg: 0,
            next_pseudonym: 0,
            injector: FaultInjector::none(),
            commit_each_request: false,
            mode: ServerMode::Normal,
            last_time: TimeSec(0),
            // Rolling windows are telemetry, not durable state: restore
            // starts with the watchdog off, like `TrustedServer`.
            slo: None,
            responses: Vec::new(),
            epoch: 0,
            submitted: false,
        }
    }

    /// Rebuilds a server from a checkpoint snapshot (`_shards` is
    /// ignored). The same conservative-restart rules as
    /// [`TrustedServer::restore`](hka_core::TrustedServer::restore)
    /// apply: LBQID monitors restart empty (re-attach them), and no
    /// journal is attached (re-attach one, resuming the chain, before
    /// serving). No index is built: the first protected request does.
    pub fn restore(config: TsConfig, _shards: usize, snapshot: &Snapshot) -> Result<Self, String> {
        let (store, meta, stats) = hka_core::checkpoint::restore_sections(snapshot)?;
        let mut ts = ShardedTs::new(config, 1);
        ts.store = store;
        ts.services.extend(meta.services.iter().copied());
        for zone in &meta.static_zones {
            ts.mixzones.add_static_zone(*zone);
        }
        ts.users = meta.users.iter().map(|u| (u.user, u.state())).collect();
        ts.log.restore_stats(stats);
        ts.next_msg = meta.next_msg;
        ts.next_pseudonym = meta.next_pseudonym;
        ts.last_time = meta.last_time;
        ts.mode = meta.mode;
        Ok(ts)
    }

    /// Drains that followed submissions.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Turns on the continuous SLO watchdog, as
    /// [`TrustedServer::enable_slo`](hka_core::TrustedServer::enable_slo);
    /// each drain also judges the journal's flush lag.
    pub fn enable_slo(&mut self, config: hka_obs::SloConfig) {
        self.slo = Some(hka_obs::SloMonitor::new(config));
    }

    /// The worst-latency request in the SLO window, as
    /// `(trace id, latency µs)`; `None` when the watchdog is off or the
    /// window is empty.
    pub fn slo_worst(&self) -> Option<(u64, u64)> {
        self.slo.as_ref()?.worst().map(|(t, us)| (t.0, us))
    }

    // ------------------------------------------------------------------
    // Setup.
    // ------------------------------------------------------------------

    /// Registers a user; returns the initial pseudonym.
    ///
    /// # Panics
    /// If custom parameters fail validation, the user already exists, or
    /// the server is read-only.
    pub fn register_user(&mut self, user: UserId, level: PrivacyLevel) -> Pseudonym {
        assert!(
            self.mode != ServerMode::ReadOnly,
            "register_user({user}) failed: {}",
            TsError::Degraded
        );
        let params = level.params();
        if let Some(Err(e)) = params.as_ref().map(|p| p.validate()) {
            panic!(
                "register_user({user}) failed: {}",
                TsError::InvalidParams(e)
            );
        }
        assert!(
            !self.users.contains_key(&user),
            "user {user} registered twice"
        );
        let pseudonym = self.fresh_pseudonym();
        self.users.insert(user, UserState::new(pseudonym, params));
        self.store.ensure_user(user);
        pseudonym
    }

    /// Attaches an LBQID to a user.
    ///
    /// # Panics
    /// If the user is unknown or the server is read-only.
    pub fn add_lbqid(&mut self, user: UserId, lbqid: Lbqid) {
        assert!(
            self.mode != ServerMode::ReadOnly,
            "add_lbqid({user}) failed: {}",
            TsError::Degraded
        );
        let Some(st) = self.users.get_mut(&user) else {
            panic!("add_lbqid({user}) failed: {}", TsError::UnknownUser(user));
        };
        st.monitors.push(Monitor::new(lbqid));
        st.patterns.push(PatternState::default());
    }

    /// Sets a per-service privacy override for a user.
    pub fn set_service_privacy(
        &mut self,
        user: UserId,
        service: ServiceId,
        level: PrivacyLevel,
    ) -> Result<(), TsError> {
        if self.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let params = level.params();
        if let Some(p) = &params {
            p.validate().map_err(TsError::InvalidParams)?;
        }
        let state = self
            .users
            .get_mut(&user)
            .ok_or(TsError::UnknownUser(user))?;
        state.overrides.insert(service, params);
        Ok(())
    }

    /// Registers a service's tolerance constraints.
    pub fn register_service(&mut self, service: ServiceId, tolerance: Tolerance) {
        self.services.insert(service, tolerance);
    }

    /// Adds a static mix-zone.
    pub fn add_static_mixzone(&mut self, zone: Rect) {
        self.mixzones.add_static_zone(zone);
    }

    /// Attaches a fault-injection plan. From then on the journal also
    /// commits before every request, not only before protected ones, so
    /// journal faults walk the mode ladder at the request boundaries the
    /// per-record server's writes would.
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.injector = injector;
        self.commit_each_request = true;
    }

    /// Routes every logged event into a durable hash-chained journal by
    /// group commit. A fresh journal is healthy, so a degraded server
    /// returns to [`ServerMode::Normal`].
    pub fn attach_journal(&mut self, journal: DurableJournal) {
        self.log.attach_group_journal(journal);
        self.log.align_mode(&mut self.mode, self.last_time);
    }

    /// Commits the pending journal batch (append + fsync). Errors surface
    /// through the mode ladder rather than this result.
    pub fn flush_journal(&mut self) -> std::io::Result<()> {
        self.commit();
        Ok(())
    }

    /// Commits the pending batch and re-aligns the mode ladder with the
    /// journal's health.
    fn commit(&mut self) {
        // Group commit reports no error: its failures move the health.
        let _ = self.log.flush_journal();
        self.log.align_mode(&mut self.mode, self.last_time);
    }

    /// Folds PHL points older than the policy cutoff, as
    /// [`TrustedServer::compact_history`](hka_core::TrustedServer::compact_history),
    /// and drops the index: a removal is what an insert cannot express,
    /// so the next protected request rebuilds it from the folded store.
    /// Like the per-record server, compaction writes no journal record.
    pub fn compact_history(
        &mut self,
        now: TimeSec,
        policy: &hka_trajectory::CompactionPolicy,
    ) -> hka_trajectory::CompactionStats {
        let stats = self.store.compact(now, policy);
        self.index = None;
        hka_obs::counter!("ts.compactions").incr();
        hka_obs::counter!("ts.compacted_points").add(stats.points_dropped());
        stats
    }

    // ------------------------------------------------------------------
    // The event path.
    // ------------------------------------------------------------------

    /// Ingests a location update, as
    /// [`TrustedServer::location_update`](hka_core::TrustedServer::location_update).
    pub fn location_update(&mut self, user: UserId, at: StPoint) {
        let ing = strategy::ingest_on(self, user, at);
        if ing.entering {
            if let Some(mut state) = self.users.remove(&user) {
                if state.params.is_some() {
                    strategy::change_pseudonym_on(self, user, &mut state, ing.at);
                }
                self.users.insert(user, state);
            }
        }
    }

    /// Handles a service request, as
    /// [`TrustedServer::try_handle_request`](hka_core::TrustedServer::try_handle_request),
    /// committing the journal first when the request is protected or a
    /// fault plan is attached (`ts.batched_requests` counts those).
    pub fn try_handle_request(
        &mut self,
        user: UserId,
        at: StPoint,
        service: ServiceId,
    ) -> Result<RequestOutcome, TsError> {
        let commits_first = self
            .users
            .get(&user)
            .is_some_and(|st| self.commit_each_request || st.params_for(service).is_some());
        if commits_first {
            hka_obs::counter!("ts.batched_requests").incr();
            self.commit();
        }
        let mut root = hka_obs::trace::root("ts.request");
        let started = Instant::now();
        let _span = hka_obs::span!("ts.handle_request");
        hka_obs::counter!("ts.requests").incr();
        let mut state = self.users.remove(&user).ok_or(TsError::UnknownUser(user))?;
        root.attr("uid", hka_obs::Json::from(state.pseudonym.0));
        let outcome = strategy::handle_request_on(self, user, &mut state, at, service);
        self.users.insert(user, state);
        let suppressed = matches!(outcome, RequestOutcome::Suppressed(_));
        root.attr(
            "outcome",
            hka_obs::Json::from(if suppressed {
                "suppressed"
            } else {
                "forwarded"
            }),
        );
        let trace = root.trace_id();
        drop(_span);
        drop(root);
        if let Some(monitor) = self.slo.as_mut() {
            let latency = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let degraded = self.mode != ServerMode::Normal;
            let transitions = monitor.observe_request(latency, suppressed, degraded, trace);
            self.note_slo_events(&transitions);
        }
        Ok(outcome)
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        let p = Pseudonym(self.next_pseudonym);
        self.next_pseudonym += 1;
        p
    }

    fn push_event(&mut self, e: TsEvent, at: TimeSec) {
        self.last_time = at;
        // A group journal only queues: health, and with it the mode,
        // moves at commits.
        self.log.push(e);
    }

    // ------------------------------------------------------------------
    // Checkpoints.
    // ------------------------------------------------------------------

    /// The `server` snapshot section; the same bytes as
    /// [`TrustedServer::server_meta`](hka_core::TrustedServer::server_meta)
    /// for the same state.
    pub fn server_meta(&self) -> ServerMeta {
        ServerMeta {
            mode: self.mode,
            last_time: self.last_time,
            next_msg: self.next_msg,
            next_pseudonym: self.next_pseudonym,
            services: self.services.iter().map(|(id, tol)| (*id, *tol)).collect(),
            static_zones: self.mixzones.static_zones().to_vec(),
            users: self
                .users
                .iter()
                .map(|(u, st)| UserMeta::of(*u, st))
                .collect(),
        }
    }

    /// Writes a checkpoint: commits the pending batch so the on-disk
    /// chain covers every folded event, snapshots the store, server meta,
    /// stats and resumed audit state, publishes it atomically through
    /// the [`Checkpointer`], and anchors it into the chain with a direct
    /// durable append. The snapshot restores into [`ShardedTs::restore`]
    /// or [`TrustedServer::restore`](hka_core::TrustedServer::restore).
    ///
    /// Fail-closed refusals: no journal attached, events the commit could
    /// not land (a degraded journal would leave the snapshot claiming
    /// events the chain doesn't have), or an audit position diverging
    /// from the journal's. On any error the previous checkpoint (or
    /// genesis) stays authoritative and the server keeps serving;
    /// `ts.checkpoint_failures` counts the attempt.
    ///
    /// Journal-prefix truncation is not offered here: the group journal
    /// cannot be detached around the inode swap mid-run. Truncate
    /// offline with
    /// [`truncate_to_anchor`](hka_obs::checkpoint::truncate_to_anchor)
    /// and attach a fresh journal.
    pub fn write_checkpoint(
        &mut self,
        cp: &mut Checkpointer,
    ) -> std::io::Result<CheckpointReceipt> {
        let started = Instant::now();
        let result = self.try_write_checkpoint(cp, started);
        if result.is_err() {
            cp.note_failed();
        }
        result
    }

    fn try_write_checkpoint(
        &mut self,
        cp: &mut Checkpointer,
        started: Instant,
    ) -> std::io::Result<CheckpointReceipt> {
        fn invalid(msg: &str) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        }
        self.commit();
        if self.log.uncommitted() > 0 {
            return Err(invalid(
                "pending events not durably committed: refusing to snapshot ahead of the chain",
            ));
        }
        let (records, head) = self
            .log
            .journal_position()
            .ok_or_else(|| invalid("no journal attached: nothing to anchor a checkpoint into"))?;
        let audit_state = cp.audit_state_at(records, &head)?;

        let mut snapshot = Snapshot::new(records, head.clone());
        snapshot.set_section(
            STORE_SECTION,
            hka_trajectory::state::store_to_json(&self.store),
        );
        snapshot.set_section(SERVER_SECTION, self.server_meta().to_json());
        snapshot.set_section(STATS_SECTION, stats_to_json(&self.log.stats()));
        snapshot.set_section(AUDIT_SECTION, audit_state);

        let (path, hash, bytes) = cp.publish_snapshot(&snapshot)?;

        if cp.check_site(sites::CHECKPOINT_APPEND).is_some() {
            return Err(std::io::Error::other(format!(
                "injected fault at {}",
                sites::CHECKPOINT_APPEND
            )));
        }
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .ok_or_else(|| invalid("snapshot path has no file name"))?;
        let seq = self.log.append_direct(
            CHECKPOINT_KIND,
            anchor_payload(&file_name, records, &head, &hash),
        )?;
        debug_assert_eq!(seq, records, "anchor seq equals the records it covers");
        cp.note_committed(&path, bytes, records, started);
        Ok(CheckpointReceipt {
            seq,
            path,
            snapshot_hash: hash,
            bytes,
            truncated_bytes: 0,
        })
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The user's current pseudonym.
    pub fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        self.users.get(&user).map(|s| s.pseudonym)
    }

    /// The lock-style privacy indicator, or `None` for unknown users.
    pub fn privacy_indicator(&self, user: UserId) -> Option<PrivacyIndicator> {
        let state = self.users.get(&user)?;
        Some(if state.params.is_none() {
            PrivacyIndicator::Off
        } else if state.at_risk {
            PrivacyIndicator::AtRisk
        } else {
            PrivacyIndicator::Locked
        })
    }

    /// The trajectory database (PHLs of all users).
    pub fn store(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The decision log (ring + exact statistics).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The server's current operating mode.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Provider view: the bare request stream.
    pub fn provider_view(&self) -> Vec<SpRequest> {
        self.outbox.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Per-LBQID audit, as
    /// [`TrustedServer::audit_patterns`](hka_core::TrustedServer::audit_patterns).
    pub fn audit_patterns(&self, user: UserId, k: usize) -> Vec<(String, bool, HkOutcome)> {
        let Some(state) = self.users.get(&user) else {
            return Vec::new();
        };
        state
            .monitors
            .iter()
            .zip(&state.patterns)
            .map(|(m, p)| {
                (
                    m.lbqid().name().to_owned(),
                    m.is_fully_matched(),
                    historical_k_anonymity(&self.store, user, &p.contexts, k),
                )
            })
            .collect()
    }

    /// The generalized contexts forwarded for each of the user's
    /// patterns under the current pseudonym.
    pub fn pattern_contexts(&self, user: UserId) -> Vec<(String, Vec<StBox>)> {
        let Some(state) = self.users.get(&user) else {
            return Vec::new();
        };
        state
            .monitors
            .iter()
            .zip(&state.patterns)
            .map(|(m, p)| (m.lbqid().name().to_owned(), p.contexts.clone()))
            .collect()
    }
}

/// The index, bulk-built from `store` on first use (`ts.index_builds`).
fn built<'a>(
    index: &'a mut Option<Box<dyn SpatialIndex>>,
    store: &TrajectoryStore,
    config: &TsConfig,
) -> &'a dyn SpatialIndex {
    let index = index.get_or_insert_with(|| {
        hka_obs::counter!("ts.index_builds").incr();
        config.backend.build(store, config.index)
    });
    &**index
}

impl RequestHost for ShardedTs {
    fn phl_last(&self, user: UserId) -> Option<StPoint> {
        self.store.phl(user).and_then(|p| p.last()).copied()
    }

    fn record(&mut self, user: UserId, at: StPoint) -> (StPoint, Option<StPoint>) {
        let (stored, prev) = self.store.record_with_prev(user, at);
        if let Some(index) = &mut self.index {
            index.insert(user, stored);
            hka_obs::counter!("ts.index_inserts").incr();
        }
        (stored, prev)
    }

    fn check_fault(&mut self, site: &str) -> bool {
        if self.injector.check(site).is_some() {
            hka_obs::counter!("faults.injected").incr();
            hka_obs::global().counter(&format!("faults.{site}")).incr();
            true
        } else {
            false
        }
    }

    fn in_static_zone(&self, pos: &Point) -> bool {
        self.mixzones.in_static_zone(pos)
    }

    fn suppressed_at(&mut self, at: &StPoint) -> bool {
        self.mixzones.suppressed_at(at)
    }

    fn tolerance_for(&self, service: ServiceId) -> Tolerance {
        *self
            .services
            .get(&service)
            .unwrap_or(&self.config.default_tolerance)
    }

    fn mode(&self) -> ServerMode {
        self.mode
    }

    fn algo1_first(
        &mut self,
        at: &StPoint,
        user: UserId,
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization {
        let index = built(&mut self.index, &self.store, &self.config);
        algorithm1_first(index, at, user, k, tolerance)
    }

    fn algo1_subsequent(
        &mut self,
        at: &StPoint,
        stored: &[UserId],
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization {
        algorithm1_subsequent(
            &self.store,
            at,
            stored,
            k,
            tolerance,
            &self.config.index.scale,
        )
    }

    fn try_unlink(&mut self, user: UserId, at: &StPoint, k: usize) -> UnlinkDecision {
        let index = built(&mut self.index, &self.store, &self.config);
        let store = &self.store;
        self.mixzones
            .try_unlink(|b, f| index.scan_in(b, f), |u| store.phl(u), user, at, k)
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        ShardedTs::fresh_pseudonym(self)
    }

    fn next_msg_id(&mut self) -> MsgId {
        let m = MsgId(self.next_msg);
        self.next_msg += 1;
        m
    }

    fn randomize(
        &mut self,
        context: StBox,
        at: &StPoint,
        msg_id: u64,
        service: ServiceId,
    ) -> StBox {
        match &self.randomizer {
            Some(rz) => rz.randomize(&context, at, msg_id, &self.tolerance_for(service)),
            None => context,
        }
    }

    fn emit(&mut self, e: TsEvent, at: TimeSec) {
        self.push_event(e, at);
    }

    fn deliver(&mut self, user: UserId, req: SpRequest) {
        self.outbox.push((user, req));
    }
}

impl RequestService for ShardedTs {
    fn submit(&mut self, env: &RequestEnvelope) {
        self.submitted = true;
        match env.body {
            EnvelopeBody::Location => self.location_update(env.user, env.at),
            EnvelopeBody::Request { service } => {
                let result = self.try_handle_request(env.user, env.at, service);
                let resp = hka_core::response_to(env, &result, self.mode, &self.log);
                self.responses.push(resp);
            }
        }
    }

    /// Takes the buffered responses. After submissions it also judges
    /// the SLO watchdog's flush lag and commits the journal.
    fn drain(&mut self) -> Vec<ResponseEnvelope> {
        if std::mem::take(&mut self.submitted) {
            self.epoch += 1;
            if let Some(monitor) = self.slo.as_mut() {
                let transitions = monitor.observe_flush_lag(self.log.uncommitted());
                self.note_slo_events(&transitions);
            }
            self.commit();
        }
        std::mem::take(&mut self.responses)
    }

    fn mode(&self) -> ServerMode {
        self.mode
    }

    fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        ShardedTs::pseudonym_of(self, user)
    }

    fn flush_journal(&mut self) -> std::io::Result<()> {
        ShardedTs::flush_journal(self)
    }

    fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        for ev in events {
            let at = self.last_time;
            self.push_event(TsEvent::from_slo(ev, at), at);
        }
    }

    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        let at = self.last_time;
        let e = TsEvent::GwStats {
            at,
            conns,
            drains,
            queue_depth,
        };
        self.push_event(e, at);
    }
}

impl std::fmt::Debug for ShardedTs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTs")
            .field("users", &self.users.len())
            .field("indexed", &self.index.is_some())
            .field("epoch", &self.epoch)
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_audit::AuditConfig;
    use hka_core::TrustedServer;
    use hka_faults::{FaultKind, FaultPlan, Trigger};
    use hka_obs::{DurableSink, Journal};
    use std::path::{Path, PathBuf};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("hka-shard-ckpt-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn durable_file_journal(path: &Path) -> DurableJournal {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        Journal::new(Box::new(file) as Box<dyn DurableSink>)
    }

    fn boxed_file_journal(path: &Path) -> hka_obs::BoxedJournal {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        Journal::new(Box::new(std::io::BufWriter::new(file)))
    }

    /// The identical traffic script for either server: six users
    /// (privacy alternating Medium/Off), five location updates and one
    /// request each.
    fn traffic(mut run: impl FnMut(Op)) {
        for u in 0..6u64 {
            let level = if u % 2 == 0 {
                PrivacyLevel::Medium
            } else {
                PrivacyLevel::Off
            };
            run(Op::Reg(UserId(u), level));
            for t in 0..5 {
                run(Op::Loc(
                    UserId(u),
                    sp(10.0 * u as f64, 3.0 * t as f64, 60 * t),
                ));
            }
            run(Op::Req(
                UserId(u),
                sp(10.0 * u as f64, 20.0, 400),
                ServiceId(1),
            ));
        }
    }

    enum Op {
        Reg(UserId, PrivacyLevel),
        Loc(UserId, StPoint),
        Req(UserId, StPoint, ServiceId),
    }

    fn busy_group(dir: &Path) -> (ShardedTs, PathBuf) {
        let journal = dir.join("group-journal.jsonl");
        let mut ts = ShardedTs::new(TsConfig::default(), 1);
        ts.attach_journal(durable_file_journal(&journal));
        ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        ts.add_static_mixzone(Rect::new(
            Point::new(500.0, 500.0),
            Point::new(600.0, 600.0),
        ));
        traffic(|op| match op {
            Op::Reg(u, level) => {
                ts.register_user(u, level);
            }
            Op::Loc(u, at) => ts.location_update(u, at),
            Op::Req(u, at, svc) => {
                let _ = ts.try_handle_request(u, at, svc);
            }
        });
        (ts, journal)
    }

    #[test]
    fn group_checkpoint_matches_the_per_record_snapshot_byte_for_byte() {
        let dir = TempDir::new("coord");
        let seq_journal = dir.0.join("seq-journal.jsonl");
        let mut seq = TrustedServer::new(TsConfig::default());
        seq.attach_journal(boxed_file_journal(&seq_journal));
        seq.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        seq.add_static_mixzone(Rect::new(
            Point::new(500.0, 500.0),
            Point::new(600.0, 600.0),
        ));
        traffic(|op| match op {
            Op::Reg(u, level) => {
                seq.register_user(u, level);
            }
            Op::Loc(u, at) => seq.location_update(u, at),
            Op::Req(u, at, svc) => {
                let _ = seq.handle_request(u, at, svc);
            }
        });
        let (mut grp, grp_journal) = busy_group(&dir.0);

        let mut cp_seq = Checkpointer::new(&seq_journal, dir.0.join("seq-snaps"));
        let mut cp_grp = Checkpointer::new(&grp_journal, dir.0.join("grp-snaps"));
        let a = cp_seq.checkpoint(&mut seq, false).unwrap();
        let b = grp.write_checkpoint(&mut cp_grp).unwrap();

        // Same chain position, same snapshot bytes (the hash covers the
        // whole file), and — because the anchor payload only names the
        // file, not the directory — the same journal bytes end to end.
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.snapshot_hash, b.snapshot_hash);
        assert_eq!(
            std::fs::read(&seq_journal).unwrap(),
            std::fs::read(&grp_journal).unwrap()
        );
    }

    #[test]
    fn group_anchor_resumes_the_audit_byte_identically() {
        let dir = TempDir::new("audit");
        let (mut grp, journal) = busy_group(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
        let receipt = grp.write_checkpoint(&mut cp).unwrap();

        // Suffix traffic after the anchor.
        for u in 0..6u64 {
            let _ = grp.try_handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
        }
        grp.flush_journal().unwrap();

        let genesis = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
        let resumed = hka_audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
        assert!(genesis.chain.verified(), "{:?}", genesis.chain.error);
        assert_eq!(genesis.totals.checkpoints, 1);
        assert_eq!(resumed.to_json().to_string(), genesis.to_json().to_string());
    }

    #[test]
    fn a_group_snapshot_restores_into_trusted_server_and_back() {
        let dir = TempDir::new("restore");
        let (mut grp, journal) = busy_group(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
        grp.write_checkpoint(&mut cp).unwrap();
        let (found, skipped) = cp.latest_valid().unwrap();
        assert!(skipped.is_empty());
        let rec = found.expect("checkpoint recovered");
        let store_json = |store: &TrajectoryStore| hka_trajectory::state::store_to_json(store);

        // Into the per-record server ...
        let mut seq = TrustedServer::restore(TsConfig::default(), &rec.snapshot).unwrap();
        assert_eq!(seq.server_meta(), grp.server_meta());
        assert_eq!(seq.log().stats(), grp.log().stats());
        assert_eq!(store_json(seq.store()), store_json(grp.store()));

        // ... and back, from that server's own sections.
        let mut again = Snapshot::new(rec.snapshot.records, rec.snapshot.head.clone());
        again.set_section(STORE_SECTION, store_json(seq.store()));
        again.set_section(SERVER_SECTION, seq.server_meta().to_json());
        again.set_section(STATS_SECTION, stats_to_json(&seq.log().stats()));
        let mut back = ShardedTs::restore(TsConfig::default(), 1, &again).unwrap();
        assert_eq!(back.server_meta(), grp.server_meta());
        assert_eq!(back.log().stats(), grp.log().stats());
        assert_eq!(store_json(back.store()), store_json(grp.store()));

        // And all three keep serving alike. Restore builds no index; the
        // first request Algorithm 1 generalizes builds it, and from then
        // on every outcome agrees, ids included. Monitors restart empty
        // on restore: (re-)attach a pattern whose first element the
        // morning requests below match.
        let home = Rect::new(Point::new(-5.0, 0.0), Point::new(100.0, 100.0));
        let office = Rect::new(Point::new(900.0, 900.0), Point::new(950.0, 950.0));
        for u in (0..6u64).step_by(2) {
            seq.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
            grp.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
            back.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
        }
        assert!(format!("{back:?}").contains("indexed: false"), "{back:?}");
        for round in 0..3i64 {
            let t = 7 * 3_600 + 100 * round;
            for u in 0..6u64 {
                let loc = sp(10.0 * u as f64 + round as f64, 22.0, t);
                let at = sp(10.0 * u as f64, 26.0, t + 50);
                seq.location_update(UserId(u), loc);
                grp.location_update(UserId(u), loc);
                back.location_update(UserId(u), loc);
                let want = format!("{:?}", seq.try_handle_request(UserId(u), at, ServiceId(1)));
                let orig = grp.try_handle_request(UserId(u), at, ServiceId(1));
                let got = back.try_handle_request(UserId(u), at, ServiceId(1));
                assert_eq!(
                    format!("{orig:?}"),
                    want,
                    "original, round {round} user {u}"
                );
                assert_eq!(format!("{got:?}"), want, "restored, round {round} user {u}");
                if u == 0 {
                    assert!(
                        want.contains("Forwarded"),
                        "generalized, not suppressed: {want}"
                    );
                    assert!(format!("{back:?}").contains("indexed: true"), "{back:?}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_faults_leave_the_previous_checkpoint_authoritative() {
        for (site, kind) in [
            (sites::SNAPSHOT_WRITE, FaultKind::Torn),
            (sites::SNAPSHOT_RENAME, FaultKind::Io),
            (sites::CHECKPOINT_APPEND, FaultKind::Io),
        ] {
            let dir = TempDir::new(&format!("fault-{}", site.replace('.', "-")));
            let (mut grp, journal) = busy_group(&dir.0);
            let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
            let good = grp.write_checkpoint(&mut cp).unwrap();
            let _ = grp.try_handle_request(UserId(1), sp(10.0, 30.0, 800), ServiceId(1));

            let mut plan = FaultPlan::new(7);
            plan.push_rule(site, Trigger::Always, kind);
            cp.attach_faults(FaultInjector::new(plan));
            let err = grp.write_checkpoint(&mut cp).unwrap_err();
            assert!(err.to_string().contains(site), "{site}: {err}");

            cp.attach_faults(FaultInjector::none());
            let (found, _skipped) = cp.latest_valid().unwrap();
            assert_eq!(
                found.expect("previous checkpoint survives").anchor.records,
                good.seq,
                "{site}"
            );

            // The server keeps serving and the chain stays verifiable.
            let _ = grp.try_handle_request(UserId(2), sp(20.0, 30.0, 900), ServiceId(1));
            grp.flush_journal().unwrap();
            let out = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
            assert!(out.chain.verified(), "{site}: {:?}", out.chain.error);
            assert!(out.ok(), "{site}: {:?}", out.violations);
        }
    }

    #[test]
    fn reordered_reports_are_stored_and_indexed_clamped() {
        let mut grp = ShardedTs::new(TsConfig::default(), 1);
        grp.register_user(UserId(1), PrivacyLevel::Off);
        grp.location_update(UserId(1), sp(0.0, 0.0, 100));
        // Build the index, as a protected request would, so the record
        // path inserts into it.
        built(&mut grp.index, &grp.store, &grp.config);
        let reordered = || hka_obs::global().snapshot().counter("ts.reordered");
        let before = reordered();
        grp.location_update(UserId(1), sp(5.0, 0.0, 40)); // arrives late
        assert_eq!(reordered(), before + 1, "one clamp, counted once");
        assert_eq!(
            grp.store().phl(UserId(1)).unwrap().last(),
            Some(&sp(5.0, 0.0, 100)),
            "clamped forward"
        );
        let indexed = |grp: &ShardedTs, at| {
            let index = grp.index.as_ref().expect("built");
            (index.len(), index.observations_in(&StBox::point(at)))
        };
        let at = sp(5.0, 0.0, 100);
        assert_eq!(indexed(&grp, at), (2, vec![(UserId(1), at)]));
        assert!(indexed(&grp, sp(5.0, 0.0, 40)).1.is_empty());
        // A PHL-write fault on a regressed report drops it before both.
        grp.attach_faults(FaultInjector::new(FaultPlan::new(7).with_rule(
            sites::PHL_WRITE,
            Trigger::Once(0),
            FaultKind::Drop,
        )));
        grp.location_update(UserId(1), sp(9.0, 0.0, 50));
        assert_eq!(grp.injector.fired(sites::PHL_WRITE), 1);
        assert_eq!((grp.store().total_points(), indexed(&grp, at).0), (2, 2));
    }

    #[test]
    fn checkpoint_without_a_journal_is_refused() {
        let dir = TempDir::new("nojournal");
        let mut grp = ShardedTs::new(TsConfig::default(), 1);
        let mut cp = Checkpointer::new(dir.0.join("none.jsonl"), dir.0.join("snaps"));
        let err = grp.write_checkpoint(&mut cp).unwrap_err();
        assert!(err.to_string().contains("no journal attached"), "{err}");
    }
}
