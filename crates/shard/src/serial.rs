//! The partitions, the coordinator, and the one event path.
//!
//! A [`Shard`] holds the per-user state and the PHL store of the users
//! hashed onto it. Everything global lives on the [`Coordinator`]: the
//! mix-zone manager (on-demand zones are global state), the randomizer,
//! the service registry, the fault injector, the mode ladder, the
//! outbox/routing table, the group-commit journal, and the server's one
//! index. Every event runs against [`SerialHost`], which answers the
//! extracted strategy's [`RequestHost`] capabilities over the *union* of
//! all partitions — Algorithm 1's candidate search goes through the
//! coordinator's [`UnionIndex`], and so does an unlink attempt's crowd
//! search (the union names the users near the point, their shards hand
//! out those PHLs), so every answer is bit-identical to the sequential
//! server's.

use crate::commit::GroupCommit;
use hka_anonymity::{MsgId, Pseudonym, ServiceId, SpRequest};
use hka_core::strategy::{RequestHost, UserState};
use hka_core::{
    algorithm1_first_from, algorithm1_subsequent_from, EventLog, Generalization, JournalHealth,
    MixZoneManager, Randomizer, ServerMode, Tolerance, TsConfig, TsEvent, UnlinkDecision,
};
use hka_faults::FaultInjector;
use hka_geo::{Point, StBox, StPoint, TimeSec};
use hka_trajectory::{TrajectoryStore, UnionIndex, UserId};
use std::collections::BTreeMap;

/// Which shard owns a user: a stable hash of the id. Registration is
/// not required — unregistered users' observations partition the same
/// way (the sequential server ingests those too).
pub(crate) fn shard_of(shards: usize, user: UserId) -> usize {
    (user.0 % shards as u64) as usize
}

/// One partition: the complete per-user state (pseudonym, privacy
/// profile, monitors, pattern bookkeeping) and the PHL store of the
/// users hashed onto it. It holds no index of its own.
#[derive(Default)]
pub(crate) struct Shard {
    pub users: BTreeMap<UserId, UserState>,
    pub store: TrajectoryStore,
}

/// Coordinator-only state: global subsystems plus the group-commit
/// journal and the mode ladder.
pub(crate) struct Coordinator {
    pub config: TsConfig,
    pub services: BTreeMap<ServiceId, Tolerance>,
    pub mixzones: MixZoneManager,
    pub randomizer: Option<Randomizer>,
    /// Ring + exact statistics (journaling is the group-commit sink's
    /// job, so the log itself never carries one).
    pub log: EventLog,
    /// Events in execution order, awaiting the next commit.
    pub pending: Vec<(&'static str, TsEvent)>,
    pub journal: Option<GroupCommit>,
    pub outbox: Vec<(UserId, SpRequest)>,
    pub routes: BTreeMap<MsgId, UserId>,
    pub next_msg: u64,
    pub next_pseudonym: u64,
    pub injector: FaultInjector,
    /// A fault plan is attached: every request commits first, so the
    /// shared plan's journal faults move the mode ladder at the same
    /// request boundaries as on the sequential server.
    pub commit_each_request: bool,
    pub mode: ServerMode,
    pub last_time: TimeSec,
    /// The one index of a sharded server (DESIGN.md §11): a union over
    /// all shards' users, built lazily from the shard stores at the
    /// first protected request, kept current by every recorded
    /// observation, invalidated by anything an insert cannot express.
    pub union: UnionIndex,
}

impl Coordinator {
    pub fn new(config: TsConfig) -> Self {
        Coordinator {
            config,
            services: BTreeMap::new(),
            mixzones: MixZoneManager::new(config.mixzone),
            randomizer: config.randomize.map(Randomizer::new),
            log: EventLog::new(),
            pending: Vec::new(),
            journal: None,
            outbox: Vec::new(),
            routes: BTreeMap::new(),
            next_msg: 0,
            next_pseudonym: 0,
            injector: FaultInjector::none(),
            commit_each_request: false,
            mode: ServerMode::Normal,
            last_time: TimeSec(0),
            union: UnionIndex::new(config.backend, config.index),
        }
    }

    /// Folds one event into the ring + statistics and queues it for the
    /// next group commit. Unlike the sequential server, no journal write
    /// happens here — health (and therefore mode) moves only at commits.
    pub fn emit_event(&mut self, e: TsEvent, at: TimeSec) {
        self.last_time = at;
        if self.journal.is_some() {
            self.pending.push((e.kind(), e.clone()));
        }
        self.log.push(e);
    }

    /// Commits the pending batch (append + fsync) and re-aligns the
    /// mode ladder with the sink's health.
    pub fn commit(&mut self) {
        if let Some(sink) = &mut self.journal {
            sink.commit(&mut self.pending);
        }
        self.sync_mode();
    }

    pub fn journal_health(&self) -> JournalHealth {
        match &self.journal {
            None => JournalHealth::Detached,
            Some(sink) => sink.health(),
        }
    }

    /// Aligns the mode with journal health, emitting the transition
    /// exactly like the sequential server (counter, gauge,
    /// `ts.mode_changed` into ring and pending batch).
    pub fn sync_mode(&mut self) {
        let target = match self.journal_health() {
            JournalHealth::Detached | JournalHealth::Healthy => ServerMode::Normal,
            JournalHealth::Retrying { .. } => ServerMode::Degraded,
            JournalHealth::Down => ServerMode::ReadOnly,
        };
        if target == self.mode {
            return;
        }
        let from = self.mode;
        self.mode = target;
        let metrics = hka_obs::global();
        metrics.counter("ts.mode_changes").incr();
        metrics.gauge("ts.mode").set(match target {
            ServerMode::Normal => 0,
            ServerMode::Degraded => 1,
            ServerMode::ReadOnly => 2,
        });
        let e = TsEvent::ModeChanged {
            at: self.last_time,
            from,
            to: target,
        };
        self.emit_event(e, self.last_time);
    }
}

/// The event-path host: the coordinator's global subsystems plus
/// mutable access to every partition.
pub(crate) struct SerialHost<'a> {
    pub co: &'a mut Coordinator,
    pub shards: &'a mut [Shard],
}

impl SerialHost<'_> {
    /// Rebuilds the union from the authoritative shard stores if it is
    /// stale (first use, or after an invalidation).
    fn ensure_union(&mut self) {
        if !self.co.union.is_live() {
            self.co.union.rebuild(self.shards.iter().map(|s| &s.store));
        }
    }
}

impl RequestHost for SerialHost<'_> {
    fn phl_last(&self, user: UserId) -> Option<StPoint> {
        self.shards[shard_of(self.shards.len(), user)]
            .store
            .phl(user)
            .and_then(|p| p.last())
            .copied()
    }

    fn record(&mut self, user: UserId, at: StPoint) {
        self.shards[shard_of(self.shards.len(), user)]
            .store
            .record(user, at);
        self.co.union.insert(user, at);
    }

    fn check_fault(&mut self, site: &str) -> bool {
        if self.co.injector.check(site).is_some() {
            let metrics = hka_obs::global();
            metrics.counter("faults.injected").incr();
            metrics.counter(&format!("faults.{site}")).incr();
            true
        } else {
            false
        }
    }

    fn in_static_zone(&self, pos: &Point) -> bool {
        self.co.mixzones.in_static_zone(pos)
    }

    fn suppressed_at(&mut self, at: &StPoint) -> bool {
        self.co.mixzones.suppressed_at(at)
    }

    fn tolerance_for(&self, service: ServiceId) -> Tolerance {
        *self
            .co
            .services
            .get(&service)
            .unwrap_or(&self.co.config.default_tolerance)
    }

    fn mode(&self) -> ServerMode {
        self.co.mode
    }

    fn algo1_first(
        &mut self,
        at: &StPoint,
        user: UserId,
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization {
        // The generation-keyed memo lets co-arriving batch members share
        // identical queries — a stale answer can never be served because
        // any mutation bumps the generation.
        self.ensure_union();
        let picks = self.co.union.k_nearest_users(at, k, Some(user));
        algorithm1_first_from(at, picks, k, tolerance)
    }

    fn algo1_subsequent(
        &mut self,
        at: &StPoint,
        stored: &[UserId],
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization {
        let shards = &*self.shards;
        algorithm1_subsequent_from(
            |u| shards[shard_of(shards.len(), u)].store.phl(u),
            at,
            stored,
            k,
            tolerance,
            &self.co.config.index.scale,
        )
    }

    fn try_unlink(&mut self, user: UserId, at: &StPoint, k: usize) -> UnlinkDecision {
        self.ensure_union();
        let (union, shards) = (&self.co.union, &*self.shards);
        self.co.mixzones.try_unlink(
            |b| union.users_crossing(b),
            |u| shards[shard_of(shards.len(), u)].store.phl(u),
            user,
            at,
            k,
        )
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        let p = Pseudonym(self.co.next_pseudonym);
        self.co.next_pseudonym += 1;
        p
    }

    fn next_msg_id(&mut self) -> MsgId {
        let m = MsgId(self.co.next_msg);
        self.co.next_msg += 1;
        m
    }

    fn randomize(
        &mut self,
        context: StBox,
        at: &StPoint,
        msg_id: u64,
        service: ServiceId,
    ) -> StBox {
        match &self.co.randomizer {
            Some(rz) => {
                let tolerance = *self
                    .co
                    .services
                    .get(&service)
                    .unwrap_or(&self.co.config.default_tolerance);
                rz.randomize(&context, at, msg_id, &tolerance)
            }
            None => context,
        }
    }

    fn emit(&mut self, e: TsEvent, at: TimeSec) {
        self.co.emit_event(e, at);
    }

    fn deliver(&mut self, user: UserId, req: SpRequest) {
        self.co.routes.insert(req.msg_id, user);
        self.co.outbox.push((user, req));
    }
}
