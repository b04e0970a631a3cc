//! # hka-shard
//!
//! A partitioned frontend for the paper's Trusted Server: users are
//! hash-partitioned across N shards, each holding the
//! `TrustedServer`-style per-user state (pseudonym, privacy profile,
//! LBQID monitors, pattern bookkeeping) and the PHL store partition of
//! its users. The coordinator owns everything global — the mode ladder,
//! mix-zones, outbox, journal — and the only spatial index.
//!
//! ## One execution order
//!
//! Events are submitted with a global **position** (their submission
//! order) and run at [`ShardedTs::flush`], one at a time and in
//! position order, on the coordinator: the same `hka_core::strategy`
//! code the sequential server runs, against a host that reads the
//! issuing user's partition and, for crowd searches, the union of all
//! of them. Message ids and pseudonyms come from the coordinator's one
//! counter, so a sharded run issues the ids a sequential run would.
//!
//! Cross-shard reads go through one
//! [`UnionIndex`](hka_trajectory::UnionIndex) — a single index over
//! every shard's users, built from the shard stores the first time a
//! protected request needs it and kept current from then on by every
//! recorded observation. It holds exactly the points a sequential
//! server's index would. A server that never sees a protected request
//! never builds it.
//!
//! ## Group-commit journal
//!
//! All shards' events funnel into **one** hash chain: they queue in a
//! pending batch in execution order, and a commit appends the whole
//! batch with a single flush + fsync (see [`crate::commit`]'s module
//! docs in the source for the batched retry semantics). The journal
//! commits before each protected request, before every request while a
//! fault plan is attached, and once at the end of each flush; a
//! privacy-off request therefore sees the mode as of the last commit.
//! `verify_chain` and `hka-audit` accept the result unchanged —
//! batching alters durability cadence, not one byte of the chain.
//!
//! ## Equivalence contract
//!
//! For every shard count, [`ShardedTs`] produces **identical outcomes**
//! to the sequential [`TrustedServer`](hka_core::TrustedServer) run over
//! the same submissions — outcome kind, forwarded context box, service,
//! suppression reason, message id and pseudonym — and, with a healthy
//! journal, the same journal bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod serial;

use crate::commit::GroupCommit;
use crate::serial::{shard_of, Coordinator, SerialHost, Shard};
use hka_anonymity::{historical_k_anonymity, HkOutcome, MsgId, Pseudonym, ServiceId, SpRequest};
use hka_core::checkpoint::{
    stats_to_json, AUDIT_SECTION, SERVER_SECTION, STATS_SECTION, STORE_SECTION,
};
use hka_core::strategy::{self, PatternState, UserState};
use hka_core::{
    CheckpointReceipt, Checkpointer, EventLog, JournalHealth, PrivacyIndicator, PrivacyLevel,
    RequestOutcome, RetryPolicy, ServerMeta, ServerMode, Tolerance, TsConfig, TsError, TsStats,
    UserMeta,
};
use hka_faults::{sites, FaultInjector};
use hka_geo::{Rect, StBox, StPoint};
use hka_lbqid::{Lbqid, Monitor};
use hka_obs::checkpoint::{anchor_payload, Snapshot};
use hka_obs::{DurableJournal, CHECKPOINT_KIND};
use hka_trajectory::{TrajectoryStore, UserId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-request tracing/SLO bookkeeping: the deferred root span opened
/// at submission (kept open until the flush that runs the request
/// settles it) and the submission instant for latency samples.
#[derive(Debug)]
struct ReqMeta {
    root: hka_obs::trace::ActiveSpan,
    started: Instant,
}

/// A submitted, not-yet-executed event.
#[derive(Debug, Clone, Copy)]
enum Submitted {
    Location {
        user: UserId,
        at: StPoint,
    },
    Request {
        pos: u64,
        user: UserId,
        at: StPoint,
        service: ServiceId,
    },
}

/// The sharded Trusted Server frontend. See the crate docs for the
/// execution model; the API is submission-based — queue events with
/// [`ShardedTs::submit_location`] / [`ShardedTs::submit_request`], run
/// them with [`ShardedTs::flush`], and collect request outcomes (tagged
/// with their submission position) via [`ShardedTs::take_outcomes`].
pub struct ShardedTs {
    shards: Vec<Shard>,
    co: Coordinator,
    queue: Vec<Submitted>,
    outcomes: Vec<(u64, UserId, Result<RequestOutcome, TsError>)>,
    /// Open request roots keyed by position; populated at submission
    /// while tracing or the SLO watchdog is on, finished at the end of
    /// the flush in position order.
    req_meta: BTreeMap<u64, ReqMeta>,
    slo: Option<hka_obs::SloMonitor>,
    next_pos: u64,
    epoch: u64,
    /// Submission position → `(req_id, trace)` of envelopes submitted
    /// through the [`RequestService`] seam, consumed by `drain`.
    svc_pending: BTreeMap<u64, (u64, u64)>,
}

impl ShardedTs {
    /// Creates an empty sharded TS with `shards` partitions (clamped to
    /// at least 1).
    pub fn new(config: TsConfig, shards: usize) -> Self {
        ShardedTs {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            co: Coordinator::new(config),
            queue: Vec::new(),
            outcomes: Vec::new(),
            req_meta: BTreeMap::new(),
            // Rolling windows are telemetry, not durable state: restore
            // paths start with the watchdog off, like the sequential
            // server.
            slo: None,
            next_pos: 0,
            epoch: 0,
            svc_pending: BTreeMap::new(),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many flushes have run queued events.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The union index generation stamp — bumps on every index mutation
    /// or invalidation, so a reading across a compaction can prove the
    /// index it used was discarded.
    pub fn union_generation(&self) -> u64 {
        self.co.union.generation()
    }

    /// Folds PHL points older than the policy cutoff on **every shard**
    /// (the sharded analogue of
    /// [`compact_history`](hka_core::TrustedServer::compact_history)):
    /// runs the queue, compacts each shard's store, and **invalidates
    /// the union index** — a removal is exactly what an insert cannot
    /// express, so any generation spanning the compaction is discarded
    /// and the next protected request rebuilds from the folded stores.
    ///
    /// When a journal is attached, one deterministic `ts.compaction`
    /// chain record (fields: `at`, `dropped`, `kept`) is appended
    /// durably via the group-commit sink — auditors tolerate the extra
    /// kind, and the payload is independent of shard count, so
    /// equivalence comparisons across configurations stay byte-for-byte.
    pub fn compact_history(
        &mut self,
        now: hka_geo::TimeSec,
        policy: &hka_trajectory::CompactionPolicy,
    ) -> hka_trajectory::CompactionStats {
        self.flush();
        let mut total = hka_trajectory::CompactionStats::default();
        for shard in &mut self.shards {
            total.absorb(shard.store.compact(now, policy));
        }
        self.co.union.invalidate();
        hka_obs::counter!("ts.compactions").incr();
        hka_obs::counter!("ts.compacted_points").add(total.points_dropped());
        if let Some(sink) = &mut self.co.journal {
            let kept: u64 = self
                .shards
                .iter()
                .map(|s| s.store.total_points() as u64)
                .sum();
            let payload = hka_obs::Json::obj([
                ("at", hka_obs::Json::from(now.0)),
                ("dropped", hka_obs::Json::from(total.points_dropped())),
                ("kept", hka_obs::Json::from(kept)),
            ]);
            // Best-effort durability: a down sink already has the mode
            // ladder degraded; the compaction itself must not be undone.
            let _ = sink.append_now("ts.compaction", payload);
        }
        self.co.sync_mode();
        total
    }

    /// Turns on the continuous SLO watchdog: every flushed request feeds
    /// a rolling window, and threshold transitions emit
    /// `ts.slo_breach` / `ts.slo_recovered` journal events — exactly the
    /// sequential [`enable_slo`](hka_core::TrustedServer::enable_slo).
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
    // Setup (runs any queued events first).
    // ------------------------------------------------------------------

    /// Registers a user; returns the initial pseudonym (the same one the
    /// sequential server would allocate).
    ///
    /// # Panics
    /// On the same conditions as the sequential
    /// [`register_user`](hka_core::TrustedServer::register_user).
    pub fn register_user(&mut self, user: UserId, level: PrivacyLevel) -> Pseudonym {
        match self.try_register_user(user, level) {
            Ok(p) => p,
            Err(TsError::DuplicateUser(u)) => panic!("user {u} registered twice"),
            Err(e) => panic!("register_user({user}) failed: {e}"),
        }
    }

    /// Fallible registration; refused with [`TsError::Degraded`] while
    /// read-only.
    pub fn try_register_user(
        &mut self,
        user: UserId,
        level: PrivacyLevel,
    ) -> Result<Pseudonym, TsError> {
        self.flush();
        if self.co.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let params = level.params();
        if let Some(p) = &params {
            p.validate().map_err(TsError::InvalidParams)?;
        }
        let sid = shard_of(self.shards.len(), user);
        let shard = &mut self.shards[sid];
        if shard.users.contains_key(&user) {
            return Err(TsError::DuplicateUser(user));
        }
        let pseudonym = Pseudonym(self.co.next_pseudonym);
        self.co.next_pseudonym += 1;
        shard.users.insert(user, UserState::new(pseudonym, params));
        shard.store.ensure_user(user);
        Ok(pseudonym)
    }

    /// Attaches an LBQID to a user.
    ///
    /// # Panics
    /// If the user is unknown or the server is read-only.
    pub fn add_lbqid(&mut self, user: UserId, lbqid: Lbqid) {
        if let Err(e) = self.try_add_lbqid(user, lbqid) {
            panic!("add_lbqid({user}) failed: {e}");
        }
    }

    /// Fallible variant of [`ShardedTs::add_lbqid`].
    pub fn try_add_lbqid(&mut self, user: UserId, lbqid: Lbqid) -> Result<(), TsError> {
        self.flush();
        if self.co.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let sid = shard_of(self.shards.len(), user);
        let shard = &mut self.shards[sid];
        let st = shard
            .users
            .get_mut(&user)
            .ok_or(TsError::UnknownUser(user))?;
        st.monitors.push(Monitor::new(lbqid));
        st.patterns.push(PatternState::default());
        Ok(())
    }

    /// Sets a per-service privacy override for a user.
    pub fn set_service_privacy(
        &mut self,
        user: UserId,
        service: ServiceId,
        level: PrivacyLevel,
    ) -> Result<(), TsError> {
        self.flush();
        if self.co.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let params = level.params();
        if let Some(p) = &params {
            p.validate().map_err(TsError::InvalidParams)?;
        }
        let sid = shard_of(self.shards.len(), user);
        let shard = &mut self.shards[sid];
        let state = shard
            .users
            .get_mut(&user)
            .ok_or(TsError::UnknownUser(user))?;
        state.overrides.insert(service, params);
        Ok(())
    }

    /// Registers a service's tolerance constraints.
    pub fn register_service(&mut self, service: ServiceId, tolerance: Tolerance) {
        self.flush();
        self.co.services.insert(service, tolerance);
    }

    /// Adds a static mix-zone.
    pub fn add_static_mixzone(&mut self, zone: Rect) {
        self.flush();
        self.co.mixzones.add_static_zone(zone);
    }

    /// Attaches a fault-injection plan. From then on the journal also
    /// commits before every request, not only before protected ones, so
    /// journal faults walk the mode ladder at the request boundaries the
    /// sequential server's per-event sink would.
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.flush();
        self.co.injector = injector;
        self.co.commit_each_request = true;
    }

    /// Routes every logged event into a durable hash-chained journal
    /// via group commit (default [`RetryPolicy`]). Returns the previous
    /// journal, if any. A fresh sink is healthy, so a degraded server
    /// returns to [`ServerMode::Normal`].
    pub fn attach_journal(&mut self, journal: DurableJournal) -> Option<DurableJournal> {
        self.attach_journal_with(journal, RetryPolicy::default())
    }

    /// Like [`ShardedTs::attach_journal`] with an explicit retry policy.
    pub fn attach_journal_with(
        &mut self,
        journal: DurableJournal,
        policy: RetryPolicy,
    ) -> Option<DurableJournal> {
        self.flush();
        // Give the outgoing sink a last chance at the pending batch;
        // whatever it cannot take carries over to the fresh journal.
        let previous = self.co.journal.take().map(|mut old| {
            old.commit(&mut self.co.pending);
            old.into_journal()
        });
        self.co.journal = Some(GroupCommit::new(journal, policy));
        self.co.sync_mode();
        previous
    }

    /// Runs any queued events and commits the pending journal batch
    /// (flush + fsync). Errors surface through the health ladder rather
    /// than this result, mirroring the sequential
    /// [`flush_journal`](hka_core::TrustedServer::flush_journal).
    pub fn flush_journal(&mut self) -> std::io::Result<()> {
        self.flush();
        self.co.commit();
        Ok(())
    }

    /// Detaches and returns the journal after committing what's pending.
    pub fn take_journal(&mut self) -> Option<DurableJournal> {
        self.flush();
        self.co.commit();
        let taken = self.co.journal.take().map(GroupCommit::into_journal);
        self.co.sync_mode();
        taken
    }

    // ------------------------------------------------------------------
    // Checkpoints: the coordinated cross-shard variant of
    // `hka_core::checkpoint` (same snapshot codecs, fault sites,
    // metrics, and recovery ladder).
    // ------------------------------------------------------------------

    /// The group-commit sink's chain position `(records, head)`, or
    /// `None` when no journal is attached. Meaningful only right after a
    /// commit with nothing pending — exactly where
    /// [`ShardedTs::write_checkpoint`] reads it.
    pub fn journal_position(&self) -> Option<(u64, String)> {
        self.co.journal.as_ref().map(|sink| sink.position())
    }

    /// The `server` snapshot section: per-user bindings merged across
    /// all shards in ascending user order, so the bytes are identical to
    /// the sequential server's
    /// [`server_meta`](hka_core::TrustedServer::server_meta) for the
    /// same state.
    pub fn server_meta(&self) -> ServerMeta {
        let mut users: Vec<UserMeta> = self
            .shards
            .iter()
            .flat_map(|s| s.users.iter())
            .map(|(user, st)| UserMeta {
                user: *user,
                pseudonym: st.pseudonym,
                params: st.params,
                overrides: st.overrides.iter().map(|(svc, p)| (*svc, *p)).collect(),
                at_risk: st.at_risk,
            })
            .collect();
        users.sort_by_key(|u| u.user);
        ServerMeta {
            mode: self.co.mode,
            last_time: self.co.last_time,
            next_msg: self.co.next_msg,
            next_pseudonym: self.co.next_pseudonym,
            services: self
                .co
                .services
                .iter()
                .map(|(id, tol)| (*id, *tol))
                .collect(),
            static_zones: self.co.mixzones.static_zones().to_vec(),
            users,
        }
    }

    /// Writes a **coordinated cross-shard checkpoint** at a flush
    /// boundary: runs the queue, commits the pending batch so the
    /// on-disk chain covers every folded event, snapshots the union of
    /// all shards (merged store + merged server
    /// meta + stats + resumed audit state), publishes it atomically
    /// through the [`Checkpointer`], and anchors it into the chain with
    /// a direct durable append on the group-commit sink.
    ///
    /// The snapshot is the *global* state — shard count is not part of
    /// it — so it restores into [`ShardedTs::restore`] with any shard
    /// count, or into the sequential
    /// [`TrustedServer::restore`](hka_core::TrustedServer::restore).
    ///
    /// Fail-closed refusals: no journal attached, a non-empty pending
    /// batch after the commit attempt (a degraded sink would leave the
    /// snapshot claiming events the chain doesn't have), or an audit
    /// position diverging from the sink's. On any error the previous
    /// checkpoint (or genesis) stays authoritative and the server keeps
    /// serving; `ts.checkpoint_failures` counts the attempt.
    ///
    /// Journal-prefix truncation is deliberately **not** offered on this
    /// path: the group-commit sink cannot be detached around the
    /// inode swap mid-run. Truncate offline instead — after
    /// [`ShardedTs::take_journal`], call
    /// [`truncate_to_anchor`](hka_obs::checkpoint::truncate_to_anchor)
    /// and re-attach a fresh sink.
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
        self.flush();
        self.co.commit();
        if !self.co.pending.is_empty() {
            return Err(invalid(
                "pending events not durably committed: refusing to snapshot ahead of the chain",
            ));
        }
        let (records, head) = self
            .journal_position()
            .ok_or_else(|| invalid("no journal attached: nothing to anchor a checkpoint into"))?;
        let audit_state = cp.audit_state_at(records, &head)?;

        let mut snapshot = Snapshot::new(records, head.clone());
        snapshot.set_section(
            STORE_SECTION,
            hka_trajectory::state::store_to_json(&self.merged_store()),
        );
        snapshot.set_section(SERVER_SECTION, self.server_meta().to_json());
        snapshot.set_section(STATS_SECTION, stats_to_json(&self.stats()));
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
        let sink = self
            .co
            .journal
            .as_mut()
            .expect("position above proved a sink is attached");
        let seq = sink.append_now(
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

    /// Rebuilds a sharded server from a checkpoint snapshot, re-hashing
    /// users (and their PHL partitions) across `shards` partitions — the
    /// snapshot is shard-count-free, so recovery may scale the fleet up
    /// or down. The same conservative-restart rules as the sequential
    /// [`TrustedServer::restore`](hka_core::TrustedServer::restore)
    /// apply: LBQID monitors restart empty (re-attach them), and no
    /// journal is attached (re-attach one, resuming the chain, before
    /// serving).
    pub fn restore(config: TsConfig, shards: usize, snapshot: &Snapshot) -> Result<Self, String> {
        use hka_core::checkpoint;

        let store = hka_trajectory::state::store_of_json(
            snapshot
                .section(STORE_SECTION)
                .ok_or("snapshot has no 'store' section")?,
        )?;
        let meta = ServerMeta::of_json(
            snapshot
                .section(SERVER_SECTION)
                .ok_or("snapshot has no 'server' section")?,
        )?;
        let stats = checkpoint::stats_of_json(
            snapshot
                .section(STATS_SECTION)
                .ok_or("snapshot has no 'stats' section")?,
        )?;

        let mut sharded = ShardedTs::new(config, shards);
        let n = sharded.shards.len();
        for (user, phl) in store.iter() {
            let shard = &mut sharded.shards[shard_of(n, user)];
            shard.store.ensure_user(user);
            for p in phl.points() {
                shard.store.record(user, *p);
            }
        }
        sharded.co.services.extend(meta.services.iter().copied());
        for zone in &meta.static_zones {
            sharded.co.mixzones.add_static_zone(*zone);
        }
        for u in &meta.users {
            let shard = &mut sharded.shards[shard_of(n, u.user)];
            shard.store.ensure_user(u.user);
            shard.users.insert(
                u.user,
                UserState {
                    pseudonym: u.pseudonym,
                    params: u.params,
                    overrides: u.overrides.iter().cloned().collect(),
                    monitors: Vec::new(),
                    patterns: Vec::new(),
                    at_risk: u.at_risk,
                },
            );
        }
        sharded.co.log.restore_stats(stats);
        sharded.co.next_msg = meta.next_msg;
        sharded.co.next_pseudonym = meta.next_pseudonym;
        sharded.co.last_time = meta.last_time;
        sharded.co.mode = meta.mode;
        Ok(sharded)
    }

    // ------------------------------------------------------------------
    // Submission API.
    // ------------------------------------------------------------------

    /// Queues a location update; returns its canonical position.
    pub fn submit_location(&mut self, user: UserId, at: StPoint) -> u64 {
        let pos = self.next_pos;
        self.next_pos += 1;
        self.queue.push(Submitted::Location { user, at });
        pos
    }

    /// Queues a service request; returns its canonical position (the
    /// key into [`ShardedTs::take_outcomes`]).
    pub fn submit_request(&mut self, user: UserId, at: StPoint, service: ServiceId) -> u64 {
        let pos = self.next_pos;
        self.next_pos += 1;
        if hka_obs::trace::enabled() || self.slo.is_some() {
            // Deferred root: opened detached (no thread frame) so it can
            // stay live until the flush that runs the request, which
            // adopts it as the request's context and finishes it in
            // position order afterwards.
            let mut root = hka_obs::trace::root_detached("ts.request");
            root.attr("pos", hka_obs::Json::from(pos));
            self.req_meta.insert(
                pos,
                ReqMeta {
                    root,
                    started: Instant::now(),
                },
            );
        }
        self.queue.push(Submitted::Request {
            pos,
            user,
            at,
            service,
        });
        pos
    }

    /// Whether the journal commits before this event runs: before a
    /// protected request (it consults the mode ladder, so it must see a
    /// freshly committed health), and before any registered user's
    /// request while a fault plan is attached.
    fn commits_before(&self, event: &Submitted) -> bool {
        let Submitted::Request { user, service, .. } = *event else {
            return false;
        };
        self.shards[shard_of(self.shards.len(), user)]
            .users
            .get(&user)
            .is_some_and(|st| self.co.commit_each_request || st.params_for(service).is_some())
    }

    /// Runs every queued event in submission order and commits the
    /// journal.
    ///
    /// Co-arriving protected requests are **batched**: a maximal run of
    /// consecutive ones executes as a single Algorithm-1 pass
    /// ([`strategy::handle_request_batch_on`]-shaped: commit, run,
    /// repeat), sharing the live union index and its generation-keyed
    /// query memo across the run (`ts.request_batches` and
    /// `ts.batched_requests` count them).
    pub fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let q = std::mem::take(&mut self.queue);
        let mut i = 0;
        while i < q.len() {
            if !self.commits_before(&q[i]) {
                self.run(q[i]);
                i += 1;
                continue;
            }
            let run = q[i..].iter().take_while(|e| self.commits_before(e)).count();
            hka_obs::counter!("ts.request_batches").incr();
            hka_obs::counter!("ts.batched_requests").add(run as u64);
            for &event in &q[i..i + run] {
                self.co.commit();
                self.run(event);
            }
            i += run;
        }
        self.epoch += 1;
        self.co.union.publish_inserts();
        self.finish_request_roots();
        self.co.commit();
    }

    /// Finishes the flush's deferred request roots in position order
    /// (attaching the outcome), feeds the SLO watchdog, and queues any
    /// SLO transitions for the commit that follows.
    fn finish_request_roots(&mut self) {
        if self.req_meta.is_empty() && self.slo.is_none() {
            return;
        }
        let meta = std::mem::take(&mut self.req_meta);
        // One pass over the outcome buffer (it may still hold untaken
        // outcomes from earlier flushes; those have no open root).
        let mut by_pos: BTreeMap<u64, &Result<RequestOutcome, TsError>> = BTreeMap::new();
        for (pos, _, outcome) in &self.outcomes {
            if meta.contains_key(pos) {
                by_pos.insert(*pos, outcome);
            }
        }
        let mut transitions = Vec::new();
        for (pos, mut m) in meta {
            let suppressed = match by_pos.get(&pos) {
                Some(Ok(RequestOutcome::Forwarded(_))) => {
                    m.root.attr("outcome", hka_obs::Json::from("forwarded"));
                    false
                }
                Some(Ok(RequestOutcome::Suppressed(_))) => {
                    m.root.attr("outcome", hka_obs::Json::from("suppressed"));
                    true
                }
                Some(Err(_)) => {
                    m.root.attr("outcome", hka_obs::Json::from("rejected"));
                    false
                }
                // A root without an outcome can only mean the request is
                // still queued (flush re-entered); keep it open.
                None => {
                    self.req_meta.insert(pos, m);
                    continue;
                }
            };
            let trace = m.root.trace_id();
            let latency = u64::try_from(m.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            drop(m.root);
            if let Some(monitor) = self.slo.as_mut() {
                let degraded = self.co.mode != ServerMode::Normal;
                transitions.extend(monitor.observe_request(latency, suppressed, degraded, trace));
            }
        }
        if let Some(monitor) = self.slo.as_mut() {
            transitions.extend(monitor.observe_flush_lag(self.co.pending.len()));
        }
        for ev in &transitions {
            let at = self.co.last_time;
            self.co.emit_event(hka_core::TsEvent::from_slo(ev, at), at);
        }
    }

    /// Flushes and returns all collected request outcomes, in
    /// submission order.
    pub fn take_outcomes(&mut self) -> Vec<(u64, UserId, Result<RequestOutcome, TsError>)> {
        self.flush();
        std::mem::take(&mut self.outcomes)
    }

    /// Convenience: submit one request, flush, and return its outcome —
    /// the sharded analogue of the sequential
    /// [`try_handle_request`](hka_core::TrustedServer::try_handle_request).
    pub fn request_now(
        &mut self,
        user: UserId,
        at: StPoint,
        service: ServiceId,
    ) -> Result<RequestOutcome, TsError> {
        let pos = self.submit_request(user, at, service);
        self.flush();
        let idx = self
            .outcomes
            .iter()
            .position(|(p, _, _)| *p == pos)
            .expect("flush records an outcome for every request");
        self.outcomes.remove(idx).2
    }

    /// Convenience: submit one location update and flush.
    pub fn location_update(&mut self, user: UserId, at: StPoint) {
        self.submit_location(user, at);
        self.flush();
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    fn run(&mut self, event: Submitted) {
        match event {
            Submitted::Location { user, at } => self.run_location(user, at),
            Submitted::Request {
                pos,
                user,
                at,
                service,
            } => self.run_request(pos, user, at, service),
        }
    }

    fn run_location(&mut self, user: UserId, at: StPoint) {
        let mut host = SerialHost {
            co: &mut self.co,
            shards: &mut self.shards,
        };
        // Unregistered users are still observed by the positioning
        // infrastructure (sequential behaviour). The user's state is
        // touched only when the move enters a static mix-zone.
        let ing = strategy::ingest_on(&mut host, user, at);
        if !ing.entering {
            return;
        }
        let sid = shard_of(host.shards.len(), user);
        if let Some(mut state) = host.shards[sid].users.remove(&user) {
            if state.params.is_some() {
                strategy::change_pseudonym_on(&mut host, user, &mut state, ing.at);
            }
            host.shards[sid].users.insert(user, state);
        }
    }

    fn run_request(&mut self, pos: u64, user: UserId, at: StPoint, service: ServiceId) {
        // Adopt the request's root so Algorithm 1 / mix-zone stage spans
        // parent under it.
        let handoff = self
            .req_meta
            .get(&pos)
            .and_then(|m| m.root.context())
            .map(|ctx| hka_obs::trace::swap_current(Some(ctx)));
        let _span = hka_obs::span!("ts.handle_request");
        hka_obs::counter!("ts.requests").incr();
        let sid = shard_of(self.shards.len(), user);
        let outcome = match self.shards[sid].users.remove(&user) {
            None => Err(TsError::UnknownUser(user)),
            Some(mut state) => {
                let mut host = SerialHost {
                    co: &mut self.co,
                    shards: &mut self.shards,
                };
                let outcome = strategy::handle_request_on(&mut host, user, &mut state, at, service);
                self.shards[sid].users.insert(user, state);
                Ok(outcome)
            }
        };
        self.outcomes.push((pos, user, outcome));
        drop(_span);
        if let Some(prev) = handoff {
            hka_obs::trace::swap_current(prev);
        }
    }

    // ------------------------------------------------------------------
    // Introspection (reflects flushed events only).
    // ------------------------------------------------------------------

    /// The user's current pseudonym.
    pub fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        self.shards[shard_of(self.shards.len(), user)]
            .users
            .get(&user)
            .map(|s| s.pseudonym)
    }

    /// Whether the user has an unresolved at-risk notification.
    pub fn is_at_risk(&self, user: UserId) -> bool {
        self.shards[shard_of(self.shards.len(), user)]
            .users
            .get(&user)
            .is_some_and(|s| s.at_risk)
    }

    /// The lock-style privacy indicator, or `None` for unknown users.
    pub fn privacy_indicator(&self, user: UserId) -> Option<PrivacyIndicator> {
        let state = self.shards[shard_of(self.shards.len(), user)]
            .users
            .get(&user)?;
        Some(if state.params.is_none() {
            PrivacyIndicator::Off
        } else if state.at_risk {
            PrivacyIndicator::AtRisk
        } else {
            PrivacyIndicator::Locked
        })
    }

    /// The decision log (ring + exact statistics, canonical order).
    pub fn log(&self) -> &EventLog {
        &self.co.log
    }

    /// The exact aggregate statistics.
    pub fn stats(&self) -> TsStats {
        self.co.log.stats()
    }

    /// The server's current operating mode.
    pub fn mode(&self) -> ServerMode {
        self.co.mode
    }

    /// Health of the group-commit journal sink.
    pub fn journal_health(&self) -> JournalHealth {
        self.co.journal_health()
    }

    /// Everything forwarded so far, with ground-truth issuers, in
    /// canonical order.
    pub fn outbox(&self) -> &[(UserId, SpRequest)] {
        &self.co.outbox
    }

    /// Provider view: the bare request stream.
    pub fn provider_view(&self) -> Vec<SpRequest> {
        self.co.outbox.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Routes a provider's answer back to the issuing user.
    pub fn route_response(&self, msg_id: MsgId) -> Option<UserId> {
        self.co.routes.get(&msg_id).copied()
    }

    /// A single store holding every shard's PHLs — the global view for
    /// audits and experiments.
    pub fn merged_store(&self) -> TrajectoryStore {
        TrajectoryStore::merged(self.shards.iter().map(|s| &s.store))
    }

    /// Per-LBQID audit, as the sequential
    /// [`audit_patterns`](hka_core::TrustedServer::audit_patterns):
    /// pattern name, full-match flag, and the audited historical
    /// k-anonymity of the forwarded contexts (over the merged store).
    pub fn audit_patterns(&self, user: UserId, k: usize) -> Vec<(String, bool, HkOutcome)> {
        let shard = &self.shards[shard_of(self.shards.len(), user)];
        let Some(state) = shard.users.get(&user) else {
            return Vec::new();
        };
        let store = self.merged_store();
        state
            .monitors
            .iter()
            .zip(&state.patterns)
            .map(|(m, p)| {
                (
                    m.lbqid().name().to_owned(),
                    m.is_fully_matched(),
                    historical_k_anonymity(&store, user, &p.contexts, k),
                )
            })
            .collect()
    }

    /// The generalized contexts forwarded for each of the user's
    /// patterns under the current pseudonym.
    pub fn pattern_contexts(&self, user: UserId) -> Vec<(String, Vec<StBox>)> {
        let shard = &self.shards[shard_of(self.shards.len(), user)];
        let Some(state) = shard.users.get(&user) else {
            return Vec::new();
        };
        state
            .monitors
            .iter()
            .zip(&state.patterns)
            .map(|(m, p)| (m.lbqid().name().to_owned(), p.contexts.clone()))
            .collect()
    }

    /// A point-in-time snapshot of the process-wide metrics registry.
    pub fn metrics_snapshot(&self) -> hka_obs::MetricsSnapshot {
        hka_obs::global().snapshot()
    }

    /// Journals SLO transitions observed outside the server's own
    /// watchdog — e.g. the TCP gateway's p999/queue-depth monitor.
    /// Async-class telemetry; never gates a request.
    pub fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        for ev in events {
            let at = self.co.last_time;
            self.co.emit_event(hka_core::TsEvent::from_slo(ev, at), at);
        }
    }

    /// Journals a gateway liveness snapshot
    /// ([`TsEvent`](hka_core::TsEvent)`::GwStats`).
    pub fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        let at = self.co.last_time;
        self.co.emit_event(
            hka_core::TsEvent::GwStats {
                at,
                conns,
                drains,
                queue_depth,
            },
            at,
        );
    }
}

impl hka_core::RequestService for ShardedTs {
    fn submit(&mut self, env: &hka_core::RequestEnvelope) {
        match env.body {
            hka_core::EnvelopeBody::Location => {
                self.submit_location(env.user, env.at);
            }
            hka_core::EnvelopeBody::Request { service } => {
                let pos = self.submit_request(env.user, env.at, service);
                self.svc_pending.insert(pos, (env.req_id, env.trace));
            }
        }
    }

    /// Flushes the pipeline and maps settled outcomes back to their
    /// envelopes. `k_got` is recovered by aligning the drain's
    /// forwarded outcomes (position order) with the log's most recent
    /// `ts.forwarded` events (canonical order — the same order); if
    /// the ring has already evicted an event the response carries 0,
    /// with the journal record staying authoritative.
    fn drain(&mut self) -> Vec<hka_core::ResponseEnvelope> {
        let outcomes = self.take_outcomes();
        let forwarded = outcomes
            .iter()
            .filter(|(_, _, r)| matches!(r, Ok(RequestOutcome::Forwarded(_))))
            .count();
        let mut k_gots: std::collections::VecDeque<(UserId, u64)> =
            std::collections::VecDeque::with_capacity(forwarded);
        for ev in self.co.log.events() {
            if let hka_core::TsEvent::Forwarded { user, k_got, .. } = ev {
                if k_gots.len() == forwarded {
                    k_gots.pop_front();
                }
                k_gots.push_back((*user, *k_got as u64));
            }
        }
        let mut responses = Vec::with_capacity(outcomes.len());
        for (pos, user, result) in &outcomes {
            let (req_id, trace) = self.svc_pending.remove(pos).unwrap_or((*pos, 0));
            let k_got = match result {
                Ok(RequestOutcome::Forwarded(_)) => match k_gots.pop_front() {
                    Some((u, k)) if u == *user => k,
                    _ => 0,
                },
                _ => 0,
            };
            responses.push(hka_core::ResponseEnvelope::from_result(
                req_id,
                trace,
                result,
                self.co.mode,
                k_got,
            ));
        }
        responses
    }

    fn mode(&self) -> ServerMode {
        ShardedTs::mode(self)
    }

    fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        ShardedTs::pseudonym_of(self, user)
    }

    fn flush_journal(&mut self) -> std::io::Result<()> {
        ShardedTs::flush_journal(self)
    }

    fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        ShardedTs::note_slo_events(self, events);
    }

    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        ShardedTs::note_gateway_stats(self, conns, drains, queue_depth);
    }
}

impl std::fmt::Debug for ShardedTs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTs")
            .field("shards", &self.shards.len())
            .field(
                "users",
                &self.shards.iter().map(|s| s.users.len()).sum::<usize>(),
            )
            .field("epoch", &self.epoch)
            .field("mode", &self.co.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_audit::AuditConfig;
    use hka_core::TrustedServer;
    use hka_faults::{FaultKind, FaultPlan, Trigger};
    use hka_geo::{Point, TimeSec};
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

    /// The identical traffic script for either frontend: six users
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

    fn busy_sharded(dir: &Path, shards: usize) -> (ShardedTs, PathBuf) {
        let journal = dir.join("shard-journal.jsonl");
        let mut ts = ShardedTs::new(TsConfig::default(), shards);
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
                let _ = ts.request_now(u, at, svc);
            }
        });
        (ts, journal)
    }

    #[test]
    fn coordinated_checkpoint_matches_the_sequential_snapshot_byte_for_byte() {
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
        let (mut shd, shd_journal) = busy_sharded(&dir.0, 3);

        let mut cp_seq = Checkpointer::new(&seq_journal, dir.0.join("seq-snaps"));
        let mut cp_shd = Checkpointer::new(&shd_journal, dir.0.join("shd-snaps"));
        let a = cp_seq.checkpoint(&mut seq, false).unwrap();
        let b = shd.write_checkpoint(&mut cp_shd).unwrap();

        // Same chain position, same snapshot bytes (the hash covers the
        // whole file), and — because the anchor payload only names the
        // file, not the directory — the same journal bytes end to end.
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.snapshot_hash, b.snapshot_hash);
        assert_eq!(
            std::fs::read(&seq_journal).unwrap(),
            std::fs::read(&shd_journal).unwrap()
        );
    }

    #[test]
    fn sharded_anchor_resumes_the_audit_byte_identically() {
        let dir = TempDir::new("audit");
        let (mut shd, journal) = busy_sharded(&dir.0, 4);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
        let receipt = shd.write_checkpoint(&mut cp).unwrap();

        // Suffix traffic after the anchor.
        for u in 0..6u64 {
            let _ = shd.request_now(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
        }
        shd.flush_journal().unwrap();

        let genesis = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
        let resumed = hka_audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
        assert!(genesis.chain.verified(), "{:?}", genesis.chain.error);
        assert_eq!(genesis.totals.checkpoints, 1);
        assert_eq!(resumed.to_json().to_string(), genesis.to_json().to_string());
    }

    #[test]
    fn sharded_checkpoint_restores_with_a_different_shard_count() {
        let dir = TempDir::new("restore");
        let (mut shd, journal) = busy_sharded(&dir.0, 3);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
        shd.write_checkpoint(&mut cp).unwrap();

        let (found, skipped) = cp.latest_valid().unwrap();
        assert!(skipped.is_empty());
        let rec = found.expect("checkpoint recovered");

        // Scale the fleet from 3 to 5 shards on restore: the snapshot is
        // shard-count-free, so the merged view must be unchanged.
        let restored = ShardedTs::restore(TsConfig::default(), 5, &rec.snapshot).unwrap();
        assert_eq!(restored.shard_count(), 5);
        assert_eq!(restored.server_meta(), shd.server_meta());
        assert_eq!(restored.stats(), shd.stats());
        assert_eq!(
            hka_trajectory::state::store_to_json(&restored.merged_store()).to_string(),
            hka_trajectory::state::store_to_json(&shd.merged_store()).to_string()
        );

        // And it keeps serving. Restore builds no index; the first
        // request Algorithm 1 generalizes rebuilds the union from the
        // re-hashed stores, and from then on every outcome equals both
        // the original server's and a sequential server's restored from
        // the same snapshot, ids included.
        let mut restored = restored;
        let mut seq = TrustedServer::restore(TsConfig::default(), &rec.snapshot).unwrap();
        // Monitors restart empty on restore: (re-)attach a pattern whose
        // first element the morning requests below match.
        let home = Rect::new(Point::new(-5.0, 0.0), Point::new(100.0, 100.0));
        let office = Rect::new(Point::new(900.0, 900.0), Point::new(950.0, 950.0));
        for u in (0..6u64).step_by(2) {
            seq.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
            shd.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
            restored.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
        }
        assert_eq!(restored.union_generation(), 0, "restore built no index");
        for round in 0..3i64 {
            let t = 7 * 3_600 + 100 * round;
            for u in 0..6u64 {
                let loc = sp(10.0 * u as f64 + round as f64, 22.0, t);
                let at = sp(10.0 * u as f64, 26.0, t + 50);
                seq.location_update(UserId(u), loc);
                shd.location_update(UserId(u), loc);
                restored.location_update(UserId(u), loc);
                let want = format!("{:?}", seq.try_handle_request(UserId(u), at, ServiceId(1)));
                let orig = shd.request_now(UserId(u), at, ServiceId(1));
                let got = restored.request_now(UserId(u), at, ServiceId(1));
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
                    assert!(restored.union_generation() > 0, "the union was rebuilt");
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
            let (mut shd, journal) = busy_sharded(&dir.0, 2);
            let mut cp = Checkpointer::new(&journal, dir.0.join("snaps"));
            let good = shd.write_checkpoint(&mut cp).unwrap();
            let _ = shd.request_now(UserId(1), sp(10.0, 30.0, 800), ServiceId(1));

            let mut plan = FaultPlan::new(7);
            plan.push_rule(site, Trigger::Always, kind);
            cp.attach_faults(FaultInjector::new(plan));
            let err = shd.write_checkpoint(&mut cp).unwrap_err();
            assert!(err.to_string().contains(site), "{site}: {err}");

            cp.attach_faults(FaultInjector::none());
            let (found, _skipped) = cp.latest_valid().unwrap();
            assert_eq!(
                found.expect("previous checkpoint survives").anchor.records,
                good.seq,
                "{site}"
            );

            // The server keeps serving and the chain stays verifiable.
            let _ = shd.request_now(UserId(2), sp(20.0, 30.0, 900), ServiceId(1));
            shd.flush_journal().unwrap();
            let out = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
            assert!(out.chain.verified(), "{site}: {:?}", out.chain.error);
            assert!(out.ok(), "{site}: {:?}", out.violations);
        }
    }

    #[test]
    fn reordered_reports_are_stored_and_indexed_clamped_across_shards() {
        let mut shd = ShardedTs::new(TsConfig::default(), 2);
        shd.register_user(UserId(1), PrivacyLevel::Off);
        shd.location_update(UserId(1), sp(0.0, 0.0, 100));
        // Bring the union live, as a protected request would, so the
        // record path inserts into it.
        shd.co.union.rebuild(shd.shards.iter().map(|s| &s.store));
        let reordered = || hka_obs::global().snapshot().counter("ts.reordered");
        let before = reordered();
        shd.location_update(UserId(1), sp(5.0, 0.0, 40)); // arrives late
        assert_eq!(reordered(), before + 1, "one clamp, counted once");
        let store = shd.merged_store();
        assert_eq!(
            store.phl(UserId(1)).unwrap().last(),
            Some(&sp(5.0, 0.0, 100)),
            "clamped forward"
        );
        assert_eq!(shd.co.union.len(), 2);
        let indexed = |shd: &ShardedTs, at| {
            let mut seen = Vec::new();
            shd.co.union.scan_in(&StBox::point(at), &mut |u, p| {
                seen.push((u, *p));
                std::ops::ControlFlow::Continue(())
            });
            seen
        };
        let at = sp(5.0, 0.0, 100);
        assert_eq!(indexed(&shd, at), vec![(UserId(1), at)]);
        assert!(indexed(&shd, sp(5.0, 0.0, 40)).is_empty());
        // A PHL-write fault on a regressed report drops it before both.
        shd.attach_faults(FaultInjector::new(FaultPlan::new(7).with_rule(
            sites::PHL_WRITE,
            Trigger::Once(0),
            FaultKind::Drop,
        )));
        shd.location_update(UserId(1), sp(9.0, 0.0, 50));
        assert_eq!(shd.co.injector.fired(sites::PHL_WRITE), 1);
        assert_eq!(
            (shd.merged_store().total_points(), shd.co.union.len()),
            (2, 2)
        );
    }

    #[test]
    fn checkpoint_without_a_journal_is_refused() {
        let dir = TempDir::new("nojournal");
        let mut shd = ShardedTs::new(TsConfig::default(), 2);
        let mut cp = Checkpointer::new(dir.0.join("none.jsonl"), dir.0.join("snaps"));
        let err = shd.write_checkpoint(&mut cp).unwrap_err();
        assert!(err.to_string().contains("no journal attached"), "{err}");
    }
}
