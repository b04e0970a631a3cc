//! Per-shard worker state and the parallel-safe event path.
//!
//! Each shard owns the complete per-user state for its slice of the user
//! population: `UserState` (pseudonym, privacy profile, monitors,
//! pattern bookkeeping) and the shard's `TrajectoryStore` partition.
//! Shards hold no index of their own: each recorded observation is
//! also logged as an `IndexDelta`, and the coordinator's union index —
//! the only index a sharded server has — absorbs those at the barrier.
//! A worker batch runs the *identical* extracted strategy
//! (`hka_core::strategy`) over this state; everything the
//! strategy could need but that a parallel-safe event can never reach
//! (mix-zone probes, Algorithm-1 searches, unlink attempts) is
//! implemented as `unreachable!()` so a scheduler classification bug
//! fails loudly instead of silently diverging from the sequential
//! server.

use hka_anonymity::{MsgId, Pseudonym, ServiceId, SpRequest};
use hka_core::strategy::{self, RequestHost, UserState};
use hka_core::{
    Generalization, RequestOutcome, ServerMode, Tolerance, TsConfig, TsEvent, UnlinkDecision,
};
use hka_faults::FaultInjector;
use hka_geo::{Point, Rect, StBox, StPoint, TimeSec};
use hka_trajectory::{IndexDelta, TrajectoryStore, UserId};
use std::collections::BTreeMap;

/// Shard-local ids live in a disjoint space: shard `i` allocates
/// `((i + 1) << 48) | n`, the coordinator allocates plain `n`. Message
/// ids and pseudonyms stay globally unique without cross-shard
/// coordination.
pub(crate) const SHARD_ID_SHIFT: u32 = 48;

/// One unit of parallel-safe work, tagged with its canonical submission
/// position so the coordinator can re-establish global order at the
/// barrier.
#[derive(Debug, Clone)]
pub(crate) struct Work {
    pub pos: u64,
    pub user: UserId,
    pub kind: WorkKind,
    /// The request's trace context, handed across the thread boundary so
    /// worker-side spans parent under the submitting request's root.
    /// `None` for locations and whenever tracing is off.
    pub ctx: Option<hka_obs::SpanContext>,
}

/// What the work item does.
#[derive(Debug, Clone)]
pub(crate) enum WorkKind {
    /// A positioning-infrastructure observation.
    Location { at: StPoint },
    /// A service request classified exact-forward (privacy off for this
    /// user/service, no faults, no randomizer).
    Request { at: StPoint, service: ServiceId },
}

/// One shard: the per-user state and trajectory partition for the
/// users hashed onto it, plus the buffers a worker batch fills for the
/// coordinator to merge at the next barrier.
pub(crate) struct ShardState {
    pub id: usize,
    pub users: BTreeMap<UserId, UserState>,
    pub store: TrajectoryStore,
    /// Static mix-zones, replicated from the coordinator (read-only on
    /// the worker path: crossing detection during ingest).
    pub static_zones: Vec<Rect>,
    /// Service tolerances, replicated from the coordinator (the strategy
    /// resolves the tolerance before the privacy-off branch).
    pub services: BTreeMap<ServiceId, Tolerance>,
    pub default_tolerance: Tolerance,
    /// Shared fault injector (`Arc` inside). Parallel batches are only
    /// scheduled while no plan is attached, so worker-side checks stay
    /// inert; the clone is defensive.
    pub injector: FaultInjector,
    /// The coordinator's mode, copied in at the start of each batch
    /// (mode only transitions at commit barriers).
    pub mode: ServerMode,
    next_msg: u64,
    next_pseudonym: u64,
    /// Events emitted this batch: `(pos, emit index within pos, event,
    /// timestamp)`.
    pub events_buf: Vec<(u64, u32, TsEvent, TimeSec)>,
    /// Forwarded requests this batch, with their canonical position.
    pub outbox_buf: Vec<(u64, UserId, SpRequest)>,
    /// Request outcomes this batch.
    pub outcomes_buf: Vec<(u64, UserId, RequestOutcome)>,
    /// Observations recorded this batch, tagged with their canonical
    /// position: the coordinator drains these at the barrier and applies
    /// them to the union index in global order.
    pub deltas_buf: Vec<IndexDelta>,
    cur_pos: u64,
    cur_idx: u32,
}

impl ShardState {
    pub fn new(id: usize, config: &TsConfig) -> Self {
        ShardState {
            id,
            users: BTreeMap::new(),
            store: TrajectoryStore::new(),
            static_zones: Vec::new(),
            services: BTreeMap::new(),
            default_tolerance: config.default_tolerance,
            injector: FaultInjector::none(),
            mode: ServerMode::Normal,
            next_msg: 0,
            next_pseudonym: 0,
            events_buf: Vec::new(),
            outbox_buf: Vec::new(),
            outcomes_buf: Vec::new(),
            deltas_buf: Vec::new(),
            cur_pos: 0,
            cur_idx: 0,
        }
    }

    /// Runs one batch of parallel-safe work in canonical (position)
    /// order. Per-user order is preserved exactly because every event of
    /// a user lands on this one shard and the batch is pre-sorted by
    /// submission position.
    pub fn run(&mut self, work: Vec<Work>) {
        for w in work {
            self.cur_pos = w.pos;
            self.cur_idx = 0;
            // Hand the request's trace context to this worker thread for
            // the duration of the item; spans opened below then parent
            // under the submitting request's root.
            let handoff = w.ctx.map(|ctx| hka_obs::trace::swap_current(Some(ctx)));
            match w.kind {
                WorkKind::Location { at } => {
                    let ing = strategy::ingest_on(self, w.user, at);
                    if ing.entering {
                        if let Some(mut state) = self.users.remove(&w.user) {
                            if state.params.is_some() {
                                strategy::change_pseudonym_on(self, w.user, &mut state, ing.at);
                            }
                            self.users.insert(w.user, state);
                        }
                    }
                }
                WorkKind::Request { at, service } => {
                    let mut span = hka_obs::span("ts.handle_request");
                    span.attr("shard", hka_obs::Json::from(self.id as u64));
                    hka_obs::global().counter("ts.requests").incr();
                    let mut state = self
                        .users
                        .remove(&w.user)
                        .expect("scheduler routes only registered users to workers");
                    let outcome =
                        strategy::handle_request_on(self, w.user, &mut state, at, service);
                    self.users.insert(w.user, state);
                    self.outcomes_buf.push((w.pos, w.user, outcome));
                }
            }
            if let Some(prev) = handoff {
                hka_obs::trace::swap_current(prev);
            }
        }
    }
}

impl RequestHost for ShardState {
    fn phl_last(&self, user: UserId) -> Option<StPoint> {
        self.store.phl(user).and_then(|p| p.last()).copied()
    }

    fn record(&mut self, user: UserId, at: StPoint) {
        self.store.record(user, at);
        self.deltas_buf.push(IndexDelta {
            pos: self.cur_pos,
            user,
            point: at,
        });
    }

    fn check_fault(&mut self, site: &str) -> bool {
        if self.injector.check(site).is_some() {
            let metrics = hka_obs::global();
            metrics.counter("faults.injected").incr();
            metrics.counter(&format!("faults.{site}")).incr();
            true
        } else {
            false
        }
    }

    fn in_static_zone(&self, pos: &Point) -> bool {
        self.static_zones.iter().any(|z| z.contains(pos))
    }

    fn suppressed_at(&mut self, _at: &StPoint) -> bool {
        unreachable!(
            "mix-zone probes never run on the parallel path (protected requests serialize)"
        )
    }

    fn tolerance_for(&self, service: ServiceId) -> Tolerance {
        *self
            .services
            .get(&service)
            .unwrap_or(&self.default_tolerance)
    }

    fn mode(&self) -> ServerMode {
        self.mode
    }

    fn algo1_first(
        &mut self,
        _at: &StPoint,
        _user: UserId,
        _k: usize,
        _tolerance: &Tolerance,
    ) -> Generalization {
        unreachable!("Algorithm 1 never runs on the parallel path (protected requests serialize)")
    }

    fn algo1_subsequent(
        &mut self,
        _at: &StPoint,
        _stored: &[UserId],
        _k: usize,
        _tolerance: &Tolerance,
    ) -> Generalization {
        unreachable!("Algorithm 1 never runs on the parallel path (protected requests serialize)")
    }

    fn try_unlink(&mut self, _user: UserId, _at: &StPoint, _k: usize) -> UnlinkDecision {
        unreachable!(
            "unlink attempts never run on the parallel path (protected requests serialize)"
        )
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        let p = Pseudonym(((self.id as u64 + 1) << SHARD_ID_SHIFT) | self.next_pseudonym);
        self.next_pseudonym += 1;
        p
    }

    fn next_msg_id(&mut self) -> MsgId {
        let m = MsgId(((self.id as u64 + 1) << SHARD_ID_SHIFT) | self.next_msg);
        self.next_msg += 1;
        m
    }

    fn randomize(
        &mut self,
        _context: StBox,
        _at: &StPoint,
        _msg_id: u64,
        _service: ServiceId,
    ) -> StBox {
        unreachable!("randomization never runs on the parallel path (a configured randomizer serializes everything)")
    }

    fn emit(&mut self, e: TsEvent, at: TimeSec) {
        self.events_buf.push((self.cur_pos, self.cur_idx, e, at));
        self.cur_idx += 1;
    }

    fn deliver(&mut self, user: UserId, req: SpRequest) {
        self.outbox_buf.push((self.cur_pos, user, req));
    }
}
