//! The Trusted Server: the Section-6.1 strategy end to end.
//!
//! One server, two journal cadences, read off its [`EventLog`]:
//!
//! * **Per record** ([`TrustedServer::attach_journal`]): every event is
//!   appended as it happens, and the spatial index is built from the
//!   start, so every report is inserted as it arrives.
//! * **Group commit** ([`TrustedServer::attach_group_journal`]): events
//!   queue and one append + fsync commits them — before each protected
//!   request (its fail-closed gate reads the mode ladder, so it must see
//!   a freshly committed health), before every request while a fault
//!   plan is attached, and at a [`drain`](crate::RequestService::drain)
//!   that follows submissions. Attaching one drops the index until the
//!   first read bulk-builds it from the store.
//!
//! Either way a read builds a missing index (`ts.index_builds`) and a
//! report inserts into a built one (`ts.index_inserts`); restore and
//! compaction leave it unbuilt. Decisions and journal bytes are the
//! same on both cadences.

use crate::envelope::ResponseEnvelope;
use crate::events::{JournalHealth, RetryPolicy, SuppressReason};
use crate::{
    EventLog, MixZoneConfig, MixZoneManager, PrivacyLevel, RandomizeConfig, Randomizer, Tolerance,
    TsEvent,
};
use hka_anonymity::{Pseudonym, ServiceId, SpRequest};
use hka_faults::FaultInjector;
use hka_geo::{Rect, StPoint, TimeSec};
use hka_lbqid::{Lbqid, Monitor};
use hka_trajectory::{GridIndexConfig, IndexBackend, SpatialIndex, TrajectoryStore, UserId};
use std::collections::BTreeMap;

mod strategy;
pub use strategy::{Disclosure, PatternState, UserState};

/// The server's operating mode, driven by the health of the durable
/// event journal (the audit trail every privacy guarantee is
/// demonstrated against).
///
/// Transitions are one-directional while a sink is failing —
/// `Normal → Degraded → ReadOnly` — and reset to `Normal` when a fresh
/// journal is attached. Each transition is counted
/// (`ts.mode_changes`), exported as a gauge (`ts.mode`: 0/1/2), and
/// journaled as a `ts.mode_changed` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServerMode {
    /// Fully operational: the journal (if attached) is accepting writes.
    Normal,
    /// The journal sink is failing and in retry backoff. The server
    /// keeps serving, but forwards only demonstrably protected requests
    /// (generalized with HK-anonymity intact); everything else is
    /// suppressed fail-closed.
    Degraded,
    /// The journal is down for good (retry budget exhausted): with no
    /// durable audit trail, no request is forwarded and no mutation is
    /// accepted until a new journal is attached. Location updates are
    /// still ingested — the positioning infrastructure keeps reporting,
    /// and a stale PHL would only hurt the crowd's anonymity later.
    ReadOnly,
}

impl ServerMode {
    /// Stable string form (journal payloads, metrics labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServerMode::Normal => "normal",
            ServerMode::Degraded => "degraded",
            ServerMode::ReadOnly => "read_only",
        }
    }

    /// Parses the [`as_str`](ServerMode::as_str) form.
    pub fn parse(s: &str) -> Option<ServerMode> {
        [
            ServerMode::Normal,
            ServerMode::Degraded,
            ServerMode::ReadOnly,
        ]
        .into_iter()
        .find(|mode| mode.as_str() == s)
    }
}

impl std::fmt::Display for ServerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Trusted-server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsConfig {
    /// Grid-index sizing (also fixes the space–time metric used by
    /// Algorithm 1's nearest-PHL searches). The brute backend uses
    /// only its `scale`.
    pub index: GridIndexConfig,
    /// Which [`SpatialIndex`] backend answers Algorithm 1's queries.
    pub backend: IndexBackend,
    /// Tolerance applied to services that never registered their own.
    pub default_tolerance: Tolerance,
    /// Mix-zone parameters.
    pub mixzone: MixZoneConfig,
    /// Optional cloak randomization (the paper's anti-inference
    /// recommendation); `None` emits minimal Algorithm-1 boxes.
    pub randomize: Option<RandomizeConfig>,
}

impl Default for TsConfig {
    fn default() -> Self {
        TsConfig {
            index: GridIndexConfig::default(),
            backend: IndexBackend::default(),
            default_tolerance: Tolerance::navigation(),
            mixzone: MixZoneConfig::default(),
            randomize: None,
        }
    }
}

/// What the TS did with a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// The request went out to the provider in this (possibly generalized)
    /// form, with what it disclosed — the disclosure the fail-closed gate
    /// cleared, as journaled with its `ts.forwarded` event.
    Forwarded(SpRequest, Disclosure),
    /// The request was withheld.
    Suppressed(SuppressReason),
}

/// Errors from the fallible server API (`try_*` methods). The
/// convenience methods (`register_user`, `handle_request`, …) panic on
/// these conditions instead, which is appropriate for simulations and
/// tests where they are programming errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// The user id is not registered.
    UnknownUser(UserId),
    /// The user id is already registered.
    DuplicateUser(UserId),
    /// Custom privacy parameters failed validation.
    InvalidParams(String),
    /// The server is read-only (journal sink down): mutations are
    /// refused until a new journal is attached.
    Degraded,
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::UnknownUser(u) => write!(f, "unknown user {u}"),
            TsError::DuplicateUser(u) => write!(f, "user {u} already registered"),
            TsError::InvalidParams(msg) => write!(f, "invalid privacy parameters: {msg}"),
            TsError::Degraded => {
                write!(
                    f,
                    "server is read-only: journal sink down, mutations refused"
                )
            }
        }
    }
}

impl std::error::Error for TsError {}

/// The lock-style privacy indicator the paper's conclusions call for:
/// "simple and effective interfaces are needed … to notify when
/// identification is at risk. Graphical solutions, like the open and
/// closed lock in an internet browser, should be considered."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyIndicator {
    /// No protection requested (grey lock).
    Off,
    /// Protection active, no unresolved risk (closed lock).
    Locked,
    /// An at-risk notification is pending: the user should "refrain from
    /// sending sensitive information, disrupt the service, or take other
    /// actions" (open lock).
    AtRisk,
}

/// The Trusted Server of the paper's service model (Fig. 1).
///
/// "User sensitive information, including user location at specific times
/// … is collected and handled by a Trusted Server. TS has the usual
/// functionalities of a location server … Qualitative privacy preferences
/// provided by each user are translated by the TS into specific
/// parameters. The TS has also access to the location-based
/// quasi-identifier specifications."
pub struct TrustedServer {
    config: TsConfig,
    store: TrajectoryStore,
    /// `None` until a read builds it: after restore, compaction, or
    /// attaching a group journal (see the module docs).
    index: Option<Box<dyn SpatialIndex>>,
    users: BTreeMap<UserId, UserState>,
    services: BTreeMap<ServiceId, Tolerance>,
    mixzones: MixZoneManager,
    randomizer: Option<Randomizer>,
    log: EventLog,
    next_msg: u64,
    next_pseudonym: u64,
    /// Fault-injection hook (inert unless a plan is attached).
    injector: FaultInjector,
    /// Degraded-mode state machine, kept in sync with journal health.
    mode: ServerMode,
    /// Timestamp of the most recent event, so administrative
    /// transitions (e.g. re-attaching a journal) can be stamped.
    last_time: TimeSec,
    /// Continuous SLO watchdog over the request stream
    /// ([`TrustedServer::enable_slo`]); off by default so journals stay
    /// byte-identical with existing fixtures.
    slo: Option<hka_obs::SloMonitor>,
    /// Responses buffered for the [`crate::RequestService`] seam,
    /// taken by `drain`. Transient — never checkpointed.
    responses: Vec<ResponseEnvelope>,
    /// Whether anything was submitted through the seam since the last
    /// drain.
    submitted: bool,
    /// Drains on a group journal that followed submissions.
    epoch: u64,
}

impl TrustedServer {
    /// Creates an empty TS.
    pub fn new(config: TsConfig) -> Self {
        TrustedServer {
            config,
            store: TrajectoryStore::new(),
            index: Some(config.backend.make(config.index)),
            users: BTreeMap::new(),
            services: BTreeMap::new(),
            mixzones: MixZoneManager::new(config.mixzone),
            randomizer: config.randomize.map(Randomizer::new),
            log: EventLog::new(),
            next_msg: 0,
            next_pseudonym: 0,
            injector: FaultInjector::none(),
            mode: ServerMode::Normal,
            last_time: TimeSec(0),
            slo: None,
            responses: Vec::new(),
            submitted: false,
            epoch: 0,
        }
    }

    /// Turns on the continuous SLO watchdog: every handled request is
    /// folded into a rolling window, and threshold crossings emit
    /// `ts.slo_breach` / `ts.slo_recovered` journal events (async-class;
    /// they never gate a request).
    pub fn enable_slo(&mut self, config: hka_obs::SloConfig) {
        self.slo = Some(hka_obs::SloMonitor::new(config));
    }

    /// The worst-latency request in the SLO window: `(trace id,
    /// microseconds)`. `None` when the watchdog is off or idle.
    pub fn slo_worst(&self) -> Option<(u64, u64)> {
        self.slo
            .as_ref()
            .and_then(|m| m.worst())
            .map(|(t, us)| (t.0, us))
    }

    /// Registers a user with a privacy level; returns the initial
    /// pseudonym.
    ///
    /// # Panics
    /// If custom parameters fail validation, the user already exists, or
    /// the server is read-only — use
    /// [`TrustedServer::try_register_user`] where these are runtime
    /// conditions rather than programming errors.
    pub fn register_user(&mut self, user: UserId, level: PrivacyLevel) -> Pseudonym {
        match self.try_register_user(user, level) {
            Ok(p) => p,
            Err(TsError::DuplicateUser(u)) => panic!("user {u} registered twice"),
            Err(e) => panic!("register_user({user}) failed: {e}"),
        }
    }

    /// Fallible registration (see [`TrustedServer::register_user`]).
    /// Refused with [`TsError::Degraded`] while the server is read-only.
    pub fn try_register_user(
        &mut self,
        user: UserId,
        level: PrivacyLevel,
    ) -> Result<Pseudonym, TsError> {
        if self.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let params = level.params();
        if let Some(p) = &params {
            p.validate().map_err(TsError::InvalidParams)?;
        }
        if self.users.contains_key(&user) {
            return Err(TsError::DuplicateUser(user));
        }
        let pseudonym = self.fresh_pseudonym();
        self.users.insert(user, UserState::new(pseudonym, params));
        self.store.ensure_user(user);
        Ok(pseudonym)
    }

    /// Attaches an LBQID to a user ("the TS has also access to the
    /// location-based quasi-identifier specifications").
    ///
    /// # Panics
    /// If the user is unknown or the server is read-only — use
    /// [`TrustedServer::try_add_lbqid`] otherwise.
    pub fn add_lbqid(&mut self, user: UserId, lbqid: Lbqid) {
        if let Err(e) = self.try_add_lbqid(user, lbqid) {
            panic!("add_lbqid({user}) failed: {e}");
        }
    }

    /// Fallible variant of [`TrustedServer::add_lbqid`]. Refused with
    /// [`TsError::Degraded`] while the server is read-only.
    pub fn try_add_lbqid(&mut self, user: UserId, lbqid: Lbqid) -> Result<(), TsError> {
        if self.mode == ServerMode::ReadOnly {
            return Err(TsError::Degraded);
        }
        let st = self
            .users
            .get_mut(&user)
            .ok_or(TsError::UnknownUser(user))?;
        st.monitors.push(Monitor::new(lbqid));
        st.patterns.push(PatternState::default());
        Ok(())
    }

    /// Sets a per-service privacy override for a user — Section 3: "the
    /// user choice may be applied uniformly to all services or
    /// selectively". `PrivacyLevel::Off` disables protection for that
    /// service only; any other level applies its parameters there while
    /// the rest of the user's traffic keeps the registration-time level.
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

    /// Ingests a location update (the positioning infrastructure reports
    /// these whether or not the user makes requests).
    ///
    /// Crossing *into* a static mix-zone unlinks the user on the spot —
    /// the Beresford–Stajano behaviour the paper imports: "if an
    /// individual crosses it, then it won't be possible to link his
    /// future positions (outside the area) with known positions (before
    /// entering the area)". Only protected users participate; users with
    /// privacy off keep their pseudonym.
    pub fn location_update(&mut self, user: UserId, at: StPoint) {
        let ing = self.ingest(user, at);
        if ing.entering {
            // Fetch-once: operate on the owned state, then put it back.
            if let Some(mut state) = self.users.remove(&user) {
                if state.params.is_some() {
                    self.change_pseudonym(user, &mut state, ing.at);
                }
                self.users.insert(user, state);
            }
        }
    }

    /// Handles a service request issued by `user` from the exact context
    /// `at` — the Section-6.1 strategy.
    ///
    /// # Panics
    /// If the user is unknown — use [`TrustedServer::try_handle_request`]
    /// otherwise.
    pub fn handle_request(
        &mut self,
        user: UserId,
        at: StPoint,
        service: ServiceId,
    ) -> RequestOutcome {
        match self.try_handle_request(user, at, service) {
            Ok(out) => out,
            Err(e) => panic!("handle_request({user}) failed: {e}"),
        }
    }

    /// Fallible variant of [`TrustedServer::handle_request`].
    ///
    /// Fetch-once: the user's state is taken out of the map, the whole
    /// request is handled against the owned value, and the state is put
    /// back — no mid-flight re-lookups, no "checked above" unwraps.
    pub fn try_handle_request(
        &mut self,
        user: UserId,
        at: StPoint,
        service: ServiceId,
    ) -> Result<RequestOutcome, TsError> {
        // On a group journal a protected request — every request while a
        // fault plan is attached — commits first, so its fail-closed gate
        // reads a freshly committed health.
        if self.log.group_commit()
            && self
                .users
                .get(&user)
                .is_some_and(|st| self.injector.is_enabled() || st.params_for(service).is_some())
        {
            hka_obs::counter!("ts.batched_requests").incr();
            self.commit();
        }
        // The root span for this request's trace: minted before any
        // stage span so every `hka_obs::span` site below becomes a
        // child. The trace id exists even with collection disabled, so
        // SLO payloads referencing it are identical tracing on or off.
        let mut root = hka_obs::trace::root("ts.request");
        let started = std::time::Instant::now();
        let _span = hka_obs::span!("ts.handle_request");
        hka_obs::counter!("ts.requests").incr();
        let mut state = self.users.remove(&user).ok_or(TsError::UnknownUser(user))?;
        let outcome = self.decide(user, &mut state, at, service);
        self.users.insert(user, state);
        // Built only when recorded: `Json::from(&str)` owns a copy.
        if root.is_recording() {
            root.attr(
                "outcome",
                hka_obs::Json::from(match &outcome {
                    RequestOutcome::Forwarded(..) => "forwarded",
                    RequestOutcome::Suppressed(_) => "suppressed",
                }),
            );
        }
        let trace = root.trace_id();
        drop(_span);
        drop(root);
        let transitions = match self.slo.as_mut() {
            Some(monitor) => {
                let latency = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let suppressed = matches!(outcome, RequestOutcome::Suppressed(_));
                let degraded = self.mode != ServerMode::Normal;
                monitor.observe_request(latency, suppressed, degraded, trace)
            }
            None => Vec::new(),
        };
        for ev in &transitions {
            let at = self.last_time;
            self.push_event(TsEvent::from_slo(ev, at), at);
        }
        Ok(outcome)
    }

    /// Pushes an event and re-synchronizes the mode state machine with
    /// the journal's health (on a per-record journal every event is a
    /// write attempt, so every event can move the health; a group
    /// journal only queues, and its health moves at commits).
    fn push_event(&mut self, e: TsEvent, at: TimeSec) {
        self.last_time = at;
        self.log.push(e);
        self.log.align_mode(&mut self.mode, at);
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        let p = Pseudonym(self.next_pseudonym);
        self.next_pseudonym += 1;
        p
    }

    // ------------------------------------------------------------------
    // Introspection for audits and experiments.
    // ------------------------------------------------------------------

    /// The user's current pseudonym.
    pub fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        self.users.get(&user).map(|s| s.pseudonym)
    }

    /// Whether the user has an unresolved at-risk notification.
    pub fn is_at_risk(&self, user: UserId) -> bool {
        self.users.get(&user).is_some_and(|s| s.at_risk)
    }

    /// The lock-style indicator to show the user, or `None` for unknown
    /// users.
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

    /// The spatio-temporal index, behind the backend-agnostic
    /// [`SpatialIndex`] seam (pick the backend via
    /// [`TsConfig::backend`]). A read: builds the index from the store
    /// if it is unbuilt.
    pub fn index(&mut self) -> &dyn SpatialIndex {
        built(&mut self.index, &self.store, &self.config)
    }

    /// Drains on a group journal that followed submissions.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The decision log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Folds PHL points older than the policy cutoff (granularity-aware
    /// compaction, [`hka_trajectory::CompactionPolicy`]) and drops the
    /// spatial index — a removal is what an insert cannot express — so
    /// the next read rebuilds it from the folded store and index queries
    /// never see points the store no longer holds. Compaction writes no
    /// journal record. Algorithm 1's anonymity queries look only at the
    /// recent window the cutoff leaves untouched, and folding preserves
    /// per-granule occupancy and extremes, so request outcomes and the
    /// auditor's k-timelines are unchanged — the differential tests pin
    /// exactly that.
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

    /// Routes every subsequent logged event into a hash-chained JSONL
    /// journal (see `hka_obs::journal`). Returns the previous sink, if
    /// one was attached. A fresh sink is healthy, so a degraded or
    /// read-only server returns to [`ServerMode::Normal`].
    ///
    /// Sync-class events ([`TsEvent::sync_flush`](crate::TsEvent)) are
    /// flushed through the sink as they are appended, so a concurrent
    /// audit tail sees every externally visible decision no later than
    /// its effect (DESIGN.md §12).
    pub fn attach_journal(
        &mut self,
        journal: hka_obs::BoxedJournal,
    ) -> Option<hka_obs::BoxedJournal> {
        self.attach_journal_with(journal, RetryPolicy::default())
    }

    /// Like [`TrustedServer::attach_journal`] with an explicit retry /
    /// backoff policy for the sink.
    pub fn attach_journal_with(
        &mut self,
        journal: hka_obs::BoxedJournal,
        policy: RetryPolicy,
    ) -> Option<hka_obs::BoxedJournal> {
        let previous = self.log.attach_journal_with(journal, policy);
        self.log.align_mode(&mut self.mode, self.last_time);
        previous
    }

    /// Routes every subsequent logged event into a durable hash-chained
    /// journal by **group commit** (see the module docs for when it
    /// commits) and drops the index until the first read. A fresh
    /// journal is healthy, so a degraded server returns to
    /// [`ServerMode::Normal`].
    pub fn attach_group_journal(&mut self, journal: hka_obs::DurableJournal) {
        self.log.attach_group_journal(journal);
        self.index = None;
        self.log.align_mode(&mut self.mode, self.last_time);
    }

    /// Detaches and returns the journal sink, if one was attached. The
    /// server falls back to in-memory logging; callers that detach to
    /// recover a journal file (crash drills) should re-attach with
    /// [`TrustedServer::attach_journal`] before handling more events.
    pub fn take_journal(&mut self) -> Option<hka_obs::BoxedJournal> {
        self.log.take_journal()
    }

    /// Health of the journal sink (drives [`TrustedServer::mode`]).
    pub fn journal_health(&self) -> JournalHealth {
        self.log.journal_health()
    }

    /// The server's current operating mode.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Attaches a fault-injection plan: the named sites in the request
    /// path (`phl.write`, `index.query`, `mixzone.available`; pair with
    /// `hka_faults::FaultyWriter` for `journal.io`) consult it on every
    /// hit. Injected faults never widen what the server forwards — the
    /// fail-closed gate suppresses any request whose protection a fault
    /// put in doubt.
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// The attached fault injector (inert unless a plan was attached).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Flushes the attached journal, if any. A group journal commits its
    /// pending batch; its failures surface through the mode ladder
    /// rather than this result.
    pub fn flush_journal(&mut self) -> std::io::Result<()> {
        if self.log.group_commit() {
            self.commit();
            return Ok(());
        }
        self.log.flush_journal()
    }

    /// Commits a group journal's pending batch and re-aligns the mode
    /// ladder with the journal's health.
    fn commit(&mut self) {
        // Group commit reports no error: its failures move the health.
        let _ = self.log.flush_journal();
        self.log.align_mode(&mut self.mode, self.last_time);
    }

    /// Journals SLO transitions observed outside the server's own
    /// watchdog — e.g. the TCP gateway's p999/queue-depth monitor —
    /// stamped with the server's last event time. Async-class: they
    /// describe telemetry, never gate a request.
    pub fn note_slo_events(&mut self, events: &[hka_obs::SloEvent]) {
        for ev in events {
            let at = self.last_time;
            self.push_event(TsEvent::from_slo(ev, at), at);
        }
    }

    /// Journals a gateway liveness snapshot ([`TsEvent::GwStats`]).
    pub fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        let at = self.last_time;
        self.push_event(
            TsEvent::GwStats {
                at,
                conns,
                drains,
                queue_depth,
            },
            at,
        );
    }

    /// The seam's `submit` bookkeeping: the next drain follows a
    /// submission, and a decided request's response waits for it.
    pub(crate) fn settle(&mut self, response: Option<ResponseEnvelope>) {
        self.submitted = true;
        self.responses.extend(response);
    }

    /// The seam's `drain`: takes the buffered responses. On a group
    /// journal a drain that follows submissions also counts an epoch,
    /// judges the SLO watchdog's flush lag, and commits.
    pub(crate) fn drain_responses(&mut self) -> Vec<ResponseEnvelope> {
        if std::mem::take(&mut self.submitted) && self.log.group_commit() {
            self.epoch += 1;
            if let Some(monitor) = self.slo.as_mut() {
                let transitions = monitor.observe_flush_lag(self.log.uncommitted());
                self.note_slo_events(&transitions);
            }
            self.commit();
        }
        std::mem::take(&mut self.responses)
    }

    /// The attached journal sink's chain position `(next_seq, head)`, or
    /// `None` when no journal is attached. Checkpoints anchor here.
    pub fn journal_position(&self) -> Option<(u64, String)> {
        self.log.journal_position()
    }

    /// Appends a chain-metadata record (checkpoint anchor) directly to
    /// the journal, bypassing the event path (see
    /// [`crate::EventLog::append_direct`]).
    pub(crate) fn append_journal_record(
        &mut self,
        kind: &str,
        payload: hka_obs::Json,
    ) -> std::io::Result<u64> {
        self.log.append_direct(kind, payload)
    }

    /// The durable server state beyond the trajectory store — the
    /// `server` section of a checkpoint snapshot.
    pub fn server_meta(&self) -> crate::checkpoint::ServerMeta {
        crate::checkpoint::ServerMeta {
            mode: self.mode,
            last_time: self.last_time,
            next_msg: self.next_msg,
            next_pseudonym: self.next_pseudonym,
            services: self.services.iter().map(|(id, tol)| (*id, *tol)).collect(),
            static_zones: self.mixzones.static_zones().to_vec(),
            users: self
                .users
                .iter()
                .map(|(user, st)| crate::checkpoint::UserMeta::of(*user, st))
                .collect(),
        }
    }

    /// Rebuilds a server from a checkpoint snapshot's `store`, `server`,
    /// and `stats` sections: the trajectory store (the index is built
    /// from it by the first read), pseudonym bindings, privacy
    /// parameters and overrides, at-risk flags, service tolerances,
    /// static mix-zones, mode, and counters.
    ///
    /// LBQID monitors and pattern traversals restart conservatively
    /// (exactly like after an unlink) — the operator re-attaches LBQIDs
    /// with [`TrustedServer::add_lbqid`]; active mix-zone cool-downs are
    /// transient and start empty. The restored server has no journal
    /// attached; callers re-attach one (resuming the chain) before
    /// serving.
    pub fn restore(config: TsConfig, snapshot: &hka_obs::Snapshot) -> Result<Self, String> {
        let (store, meta, stats) = crate::checkpoint::restore_sections(snapshot)?;
        let mut mixzones = MixZoneManager::new(config.mixzone);
        for zone in &meta.static_zones {
            mixzones.add_static_zone(*zone);
        }
        let users = meta.users.iter().map(|u| (u.user, u.state())).collect();
        let mut log = EventLog::new();
        log.restore_stats(stats);

        Ok(TrustedServer {
            config,
            store,
            index: None,
            users,
            services: meta.services.iter().copied().collect(),
            mixzones,
            randomizer: config.randomize.map(Randomizer::new),
            log,
            next_msg: meta.next_msg,
            next_pseudonym: meta.next_pseudonym,
            injector: FaultInjector::none(),
            mode: meta.mode,
            last_time: meta.last_time,
            // The watchdog's rolling window is telemetry, not durable
            // state: a restored server starts with a fresh (off) one.
            slo: None,
            responses: Vec::new(),
            submitted: false,
            epoch: 0,
        })
    }

    /// A point-in-time snapshot of the pipeline's metrics: request
    /// counters (`ts.requests`, `ts.forwarded`, `ts.forwarded_generalized`,
    /// `ts.suppressed`, `ts.unlinks`, `ts.at_risk`), stage counters
    /// (`algo1.iterations`, `index.probes`, `mixzone.*`), and latency
    /// histograms for every span (`ts.handle_request`,
    /// `algo1.generalize`, `index.query`, `linker.link`,
    /// `mixzone.try_unlink`).
    ///
    /// Metrics live in the process-wide registry (`hka_obs::global()`),
    /// so the snapshot aggregates across every server in the process;
    /// call `hka_obs::global().reset()` between runs for per-run numbers.
    pub fn metrics_snapshot(&self) -> hka_obs::MetricsSnapshot {
        hka_obs::global().snapshot()
    }
}

impl std::fmt::Debug for TrustedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedServer")
            .field("users", &self.users.len())
            .field("indexed", &self.index.is_some())
            .field("group_commit", &self.log.group_commit())
            .field("epoch", &self.epoch)
            .field("mode", &self.mode)
            .finish()
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{PrivacyParams, RiskAction};
    use hka_faults::sites;
    use hka_geo::{SpaceTimeScale, StBox, TimeSec};

    /// Serializes the tests that clamp reordered timestamps: one of them
    /// counts its clamps in the process-global `ts.reordered`.
    pub(crate) fn reorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn ts() -> TrustedServer {
        TrustedServer::new(TsConfig {
            index: GridIndexConfig {
                cell_size: 100.0,
                cell_duration: 300,
                scale: SpaceTimeScale::new(1.0),
            },
            default_tolerance: Tolerance::new(1e8, 7_200),
            mixzone: MixZoneConfig::default(),
            randomize: None,
            ..TsConfig::default()
        })
    }

    const SVC: ServiceId = ServiceId(0);

    #[test]
    fn privacy_off_forwards_exact() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        let at = sp(10.0, 10.0, 100);
        match s.handle_request(UserId(1), at, SVC) {
            RequestOutcome::Forwarded(req, _) => {
                assert_eq!(req.context, StBox::point(at));
                assert!(req.covers(&at));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.log().stats().forwarded_exact, 1);
    }

    #[test]
    fn request_points_enter_the_phl() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.handle_request(UserId(1), sp(10.0, 10.0, 100), SVC);
        assert_eq!(s.store().phl(UserId(1)).unwrap().len(), 1);
        // Repeated identical last point is not double-recorded.
        s.location_update(UserId(1), sp(11.0, 10.0, 200));
        s.handle_request(UserId(1), sp(11.0, 10.0, 200), SVC);
        assert_eq!(s.store().phl(UserId(1)).unwrap().len(), 2);
    }

    #[test]
    fn non_pattern_requests_stay_exact_even_with_privacy() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Medium);
        // No LBQIDs registered: nothing to protect.
        let at = sp(10.0, 10.0, 100);
        match s.handle_request(UserId(1), at, SVC) {
            RequestOutcome::Forwarded(req, _) => assert_eq!(req.context, StBox::point(at)),
            other => panic!("{other:?}"),
        }
    }

    /// Builds a TS with a crowd of `n` co-located users around the origin
    /// so Algorithm 1 can find neighbours.
    fn ts_with_crowd(n: u64) -> TrustedServer {
        let mut s = ts();
        for u in 100..100 + n {
            s.register_user(UserId(u), PrivacyLevel::Off);
            for t in 0..10 {
                s.location_update(
                    UserId(u),
                    sp(5.0 * (u - 100) as f64, 3.0 * t as f64, 50 * t),
                );
            }
        }
        s
    }

    fn one_shot_pattern() -> Lbqid {
        hka_lbqid::parse_lbqid(
            "lbqid clinic { element area(-50, -50, 50, 50) window(00:00, 23:59); }",
        )
        .unwrap()
    }

    #[test]
    fn pattern_requests_are_generalized() {
        let mut s = ts_with_crowd(10);
        s.register_user(UserId(1), PrivacyLevel::Low);
        s.add_lbqid(UserId(1), one_shot_pattern());
        let at = sp(0.0, 0.0, 100);
        let req = match s.handle_request(UserId(1), at, SVC) {
            RequestOutcome::Forwarded(req, _) => {
                assert!(req.context.area() > 0.0, "context must be generalized");
                assert!(req.covers(&at));
                req
            }
            other => panic!("{other:?}"),
        };
        let stats = s.log().stats();
        assert_eq!(stats.generalized(), 1);
        assert_eq!(stats.forwarded_hk_ok, 1);
        // The pattern is a one-element, once-anywhere LBQID: matched,
        // and its traversal took its first step.
        let state = &s.users[&UserId(1)];
        assert_eq!(state.monitors[0].lbqid().name(), "clinic");
        assert!(state.monitors[0].is_fully_matched());
        assert_eq!(state.patterns[0].step, 1);
        let hk = hka_anonymity::historical_k_anonymity(s.store(), UserId(1), &[req.context], 2);
        assert!(hk.satisfied, "witnesses: {:?}", hk.witnesses);
    }

    #[test]
    fn generalized_context_covers_k_witnesses() {
        let mut s = ts_with_crowd(10);
        s.register_user(
            UserId(1),
            PrivacyLevel::Custom(PrivacyParams::fixed(4, 0.5)),
        );
        s.add_lbqid(UserId(1), one_shot_pattern());
        let at = sp(0.0, 0.0, 100);
        let RequestOutcome::Forwarded(req, _) = s.handle_request(UserId(1), at, SVC) else {
            panic!("expected forward");
        };
        // At least 4 other users' PHLs cross the forwarded context.
        let witnesses = s
            .store()
            .users_crossing(&req.context)
            .into_iter()
            .filter(|u| *u != UserId(1))
            .count();
        assert!(witnesses >= 4, "only {witnesses} witnesses");
    }

    #[test]
    fn scarce_crowd_triggers_risk_path() {
        // Nobody else around: generalization fails, unlinking infeasible.
        let mut s = ts();
        s.register_user(
            UserId(1),
            PrivacyLevel::Custom(PrivacyParams {
                k: 3,
                theta: 0.5,
                k_init: 3,
                k_decrement: 0,
                on_risk: RiskAction::Suppress,
            }),
        );
        s.add_lbqid(UserId(1), one_shot_pattern());
        match s.handle_request(UserId(1), sp(0.0, 0.0, 100), SVC) {
            RequestOutcome::Suppressed(SuppressReason::RiskPolicy) => {}
            other => panic!("{other:?}"),
        }
        assert!(s.is_at_risk(UserId(1)));
        let stats = s.log().stats();
        assert_eq!(stats.at_risk, 1);
        assert_eq!(stats.suppressed_risk, 1);
    }

    #[test]
    fn risk_forward_policy_still_forwards_clamped() {
        let mut s = ts();
        s.register_user(
            UserId(1),
            PrivacyLevel::Custom(PrivacyParams {
                k: 3,
                theta: 0.5,
                k_init: 3,
                k_decrement: 0,
                on_risk: RiskAction::Forward,
            }),
        );
        s.add_lbqid(UserId(1), one_shot_pattern());
        let at = sp(0.0, 0.0, 100);
        match s.handle_request(UserId(1), at, SVC) {
            RequestOutcome::Forwarded(req, _) => assert!(req.covers(&at)),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.log().stats().forwarded_hk_failed, 1);
        assert!(s.is_at_risk(UserId(1)));
    }

    #[test]
    fn unlink_changes_pseudonym_and_resets_patterns() {
        // A crowd crossing the origin in diverging directions, but spread
        // too wide for the tolerance: generalization fails, unlink works.
        let mut s = TrustedServer::new(TsConfig {
            index: GridIndexConfig {
                cell_size: 100.0,
                cell_duration: 300,
                scale: SpaceTimeScale::new(1.0),
            },
            default_tolerance: Tolerance::new(10.0, 5), // brutally tight
            mixzone: MixZoneConfig::default(),
            randomize: None,
            ..TsConfig::default()
        });
        for (u, angle) in [(100u64, 0.0f64), (101, 1.6), (102, 3.1), (103, 4.7)] {
            s.register_user(UserId(u), PrivacyLevel::Off);
            s.location_update(UserId(u), sp(-60.0 * angle.cos(), -60.0 * angle.sin(), 40));
            s.location_update(UserId(u), sp(-10.0 * angle.cos(), -10.0 * angle.sin(), 90));
        }
        s.register_user(
            UserId(1),
            PrivacyLevel::Custom(PrivacyParams::fixed(3, 0.5)),
        );
        s.add_lbqid(UserId(1), one_shot_pattern());
        let before = s.pseudonym_of(UserId(1)).unwrap();
        match s.handle_request(UserId(1), sp(0.0, 0.0, 100), SVC) {
            RequestOutcome::Suppressed(SuppressReason::MixZone) => {}
            other => panic!("{other:?}"),
        }
        let after = s.pseudonym_of(UserId(1)).unwrap();
        assert_ne!(before, after, "pseudonym must change");
        let stats = s.log().stats();
        assert_eq!(stats.pseudonym_changes, 1);
        assert_eq!(stats.suppressed_mixzone, 1);
        // Pattern state is reset: no stored crowd, the k′ schedule
        // restarts.
        let pattern = &s.users[&UserId(1)].patterns[0];
        assert!(pattern.selected.is_empty());
        assert_eq!(pattern.step, 0);
        // Requests inside the active zone are suppressed for a while.
        match s.handle_request(UserId(1), sp(5.0, 5.0, 200), SVC) {
            RequestOutcome::Suppressed(SuppressReason::MixZone) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crossing_a_static_zone_unlinks_protected_users() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Medium);
        s.register_user(UserId(2), PrivacyLevel::Off);
        s.add_static_mixzone(Rect::from_bounds(100.0, 0.0, 200.0, 100.0));
        let before = s.pseudonym_of(UserId(1)).unwrap();
        let off_before = s.pseudonym_of(UserId(2)).unwrap();
        // Walk both users through the zone.
        for u in [1u64, 2] {
            s.location_update(UserId(u), sp(50.0, 50.0, 10 + u as i64));
            s.location_update(UserId(u), sp(150.0, 50.0, 60 + u as i64));
            s.location_update(UserId(u), sp(250.0, 50.0, 120 + u as i64));
        }
        assert_ne!(
            s.pseudonym_of(UserId(1)).unwrap(),
            before,
            "protected user unlinked"
        );
        assert_eq!(
            s.pseudonym_of(UserId(2)).unwrap(),
            off_before,
            "opted-out user untouched"
        );
        assert_eq!(s.log().stats().pseudonym_changes, 1);
        // Dwelling inside (no new crossing) does not churn pseudonyms.
        let after = s.pseudonym_of(UserId(1)).unwrap();
        s.location_update(UserId(1), sp(251.0, 50.0, 200));
        s.location_update(UserId(1), sp(252.0, 50.0, 260));
        assert_eq!(s.pseudonym_of(UserId(1)).unwrap(), after);
    }

    #[test]
    fn static_zone_suppresses_requests() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Low);
        s.add_static_mixzone(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        match s.handle_request(UserId(1), sp(50.0, 50.0, 10), SVC) {
            RequestOutcome::Suppressed(SuppressReason::MixZone) => {}
            other => panic!("{other:?}"),
        }
        // Off-zone requests pass.
        match s.handle_request(UserId(1), sp(500.0, 50.0, 20), SVC) {
            RequestOutcome::Forwarded(_, _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_forward_carries_the_pseudonym_not_the_user() {
        let mut s = ts();
        let pseudo = s.register_user(UserId(7), PrivacyLevel::Off);
        let RequestOutcome::Forwarded(req, _) = s.handle_request(UserId(7), sp(1.0, 2.0, 3), SVC)
        else {
            panic!("expected forward");
        };
        // The provider's tuple has no user field: the pseudonym is all
        // it learns of who asked.
        assert_eq!(req.pseudonym, pseudo);
    }

    #[test]
    fn service_specific_tolerance_is_used() {
        let mut s = ts_with_crowd(10);
        s.register_user(
            UserId(1),
            PrivacyLevel::Custom(PrivacyParams::fixed(5, 0.5)),
        );
        s.add_lbqid(UserId(1), one_shot_pattern());
        // A service with zero tolerance: any generalization gets clamped.
        let strict = ServiceId(9);
        s.register_service(strict, Tolerance::new(0.0, 0));
        let at = sp(0.0, 0.0, 100);
        match s.handle_request(UserId(1), at, strict) {
            // Generalization fails (area > 0 needed for 5 users), and in
            // this crowd unlinking may or may not find diverging headings;
            // either way no HK-ok forward can happen.
            RequestOutcome::Forwarded(req, _) => {
                assert_eq!(req.context, StBox::point(at));
                assert_eq!(s.log().stats().forwarded_hk_failed, 1);
            }
            RequestOutcome::Suppressed(_) => {}
        }
    }

    #[test]
    fn privacy_indicator_follows_state() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.register_user(UserId(2), PrivacyLevel::Medium);
        assert_eq!(s.privacy_indicator(UserId(1)), Some(PrivacyIndicator::Off));
        assert_eq!(
            s.privacy_indicator(UserId(2)),
            Some(PrivacyIndicator::Locked)
        );
        assert_eq!(s.privacy_indicator(UserId(9)), None);
        // Drive user 3 into the at-risk state (nobody around, suppress).
        s.register_user(
            UserId(3),
            PrivacyLevel::Custom(PrivacyParams {
                k: 3,
                theta: 0.5,
                k_init: 3,
                k_decrement: 0,
                on_risk: RiskAction::Forward,
            }),
        );
        s.add_lbqid(UserId(3), one_shot_pattern());
        s.handle_request(UserId(3), sp(0.0, 0.0, 100), SVC);
        assert_eq!(
            s.privacy_indicator(UserId(3)),
            Some(PrivacyIndicator::AtRisk)
        );
    }

    #[test]
    fn randomized_contexts_still_cover_and_grow() {
        let mut cfg = TsConfig {
            index: GridIndexConfig {
                cell_size: 100.0,
                cell_duration: 300,
                scale: SpaceTimeScale::new(1.0),
            },
            default_tolerance: Tolerance::new(1e8, 7_200),
            mixzone: MixZoneConfig::default(),
            randomize: Some(crate::RandomizeConfig::default()),
            ..TsConfig::default()
        };
        let mut s = TrustedServer::new(cfg);
        for u in 100..110u64 {
            s.register_user(UserId(u), PrivacyLevel::Off);
            for t in 0..10 {
                s.location_update(
                    UserId(u),
                    sp(5.0 * (u - 100) as f64, 3.0 * t as f64, 50 * t),
                );
            }
        }
        s.register_user(UserId(1), PrivacyLevel::Low);
        s.add_lbqid(UserId(1), one_shot_pattern());
        let at = sp(0.0, 0.0, 100);
        let RequestOutcome::Forwarded(req, _) = s.handle_request(UserId(1), at, SVC) else {
            panic!("expected forward");
        };
        assert!(req.covers(&at), "randomized context must cover the point");
        assert!(req.context.area() > 0.0);
        // Determinism: the same run reproduces the same randomized box.
        cfg.randomize = Some(crate::RandomizeConfig::default());
        let mut s2 = TrustedServer::new(cfg);
        for u in 100..110u64 {
            s2.register_user(UserId(u), PrivacyLevel::Off);
            for t in 0..10 {
                s2.location_update(
                    UserId(u),
                    sp(5.0 * (u - 100) as f64, 3.0 * t as f64, 50 * t),
                );
            }
        }
        s2.register_user(UserId(1), PrivacyLevel::Low);
        s2.add_lbqid(UserId(1), one_shot_pattern());
        let RequestOutcome::Forwarded(req2, _) = s2.handle_request(UserId(1), at, SVC) else {
            panic!("expected forward");
        };
        assert_eq!(req.context, req2.context);
    }

    use hka_faults::{FaultKind, FaultPlan, Trigger};

    /// A journal sink that always fails.
    struct BrokenSink;
    impl std::io::Write for BrokenSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink down"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn boxed(w: impl std::io::Write + Send + Sync + 'static) -> hka_obs::BoxedJournal {
        hka_obs::Journal::new(Box::new(w) as Box<dyn std::io::Write + Send + Sync>)
    }

    /// An in-memory sink whose clones share one buffer.
    #[derive(Clone, Default)]
    pub(crate) struct MemorySink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl MemorySink {
        /// What has been written so far.
        pub(crate) fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
        }
    }

    impl std::io::Write for MemorySink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            // Recover the guard even if another writer panicked mid-append:
            // a poisoned buffer must not cascade into every later flush.
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A per-record journal into memory, and the sink that reads its
    /// bytes back.
    pub(crate) fn memory_journal() -> (hka_obs::BoxedJournal, MemorySink) {
        let sink = MemorySink::default();
        (boxed(sink.clone()), sink)
    }

    /// A group journal over a sink that discards every byte.
    pub(crate) fn discarding_group_journal() -> hka_obs::DurableJournal {
        hka_obs::Journal::new(Box::new(std::io::sink()) as Box<dyn hka_obs::DurableSink>)
    }

    #[test]
    fn reordered_timestamps_are_clamped_not_fatal() {
        let _g = reorder_lock();
        for group in [false, true] {
            let mut s = ts();
            if group {
                s.attach_group_journal(discarding_group_journal());
            }
            s.register_user(UserId(1), PrivacyLevel::Off);
            s.location_update(UserId(1), sp(0.0, 0.0, 100));
            // A read builds the index a group journal left unbuilt, so
            // the late report below is inserted on both cadences.
            assert_eq!(s.index().len(), 1, "group {group}");
            let reordered = || hka_obs::global().snapshot().counter("ts.reordered");
            let before = reordered();
            s.location_update(UserId(1), sp(5.0, 0.0, 40)); // arrives late
            assert_eq!(reordered(), before + 1, "one clamp, counted once");
            let phl = s.store().phl(UserId(1)).unwrap();
            assert_eq!(phl.len(), 2);
            assert_eq!(phl.last(), Some(&sp(5.0, 0.0, 100)), "clamped forward");
            // The index holds the point the store holds.
            let at = sp(5.0, 0.0, 100);
            let mut indexed = |at| s.index().observations_in(&StBox::point(at));
            assert_eq!(indexed(at), vec![(UserId(1), at)], "group {group}");
            assert!(indexed(sp(5.0, 0.0, 40)).is_empty());
            assert_eq!(s.index().len(), 2);
            // A PHL-write fault on a regressed report drops it before both.
            s.attach_faults(FaultInjector::new(FaultPlan::new(7).with_rule(
                sites::PHL_WRITE,
                Trigger::Once(0),
                FaultKind::Drop,
            )));
            s.location_update(UserId(1), sp(9.0, 0.0, 50));
            assert_eq!(s.fault_injector().fired(sites::PHL_WRITE), 1);
            assert_eq!((s.store().total_points(), s.index().len()), (2, 2));
            // A regressed *request* timestamp is clamped and still served.
            match s.handle_request(UserId(1), sp(6.0, 0.0, 70), SVC) {
                RequestOutcome::Forwarded(req, _) => {
                    assert_eq!(req.context.span.start(), TimeSec(100));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn phl_write_fault_fails_the_request_closed() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.attach_faults(FaultInjector::new(FaultPlan::new(7).with_rule(
            sites::PHL_WRITE,
            Trigger::Always,
            FaultKind::Drop,
        )));
        match s.handle_request(UserId(1), sp(0.0, 0.0, 10), SVC) {
            RequestOutcome::Suppressed(SuppressReason::Degraded) => {}
            other => panic!("{other:?}"),
        }
        // The dropped observation never reached the store, and nothing
        // was forwarded on its back.
        assert!(s.store().phl(UserId(1)).unwrap().is_empty());
        assert_eq!(s.log().stats().suppressed_degraded, 1);
        assert_eq!(s.log().stats().forwarded(), 0);
        assert_eq!(s.fault_injector().fired(sites::PHL_WRITE), 1);
    }

    #[test]
    fn index_and_mixzone_faults_fail_pattern_requests_closed() {
        for site in [sites::INDEX_QUERY, sites::MIXZONE] {
            let mut s = ts_with_crowd(10);
            s.register_user(UserId(1), PrivacyLevel::Low);
            s.add_lbqid(UserId(1), one_shot_pattern());
            s.attach_faults(FaultInjector::new(FaultPlan::new(1).with_rule(
                site,
                Trigger::Always,
                FaultKind::Unavailable,
            )));
            match s.handle_request(UserId(1), sp(0.0, 0.0, 100), SVC) {
                RequestOutcome::Suppressed(SuppressReason::Degraded) => {}
                // The mix-zone site is only consulted when generalization
                // already failed; with this crowd it succeeds, so the
                // forward must be a fully protected one: no exact
                // location escaped.
                RequestOutcome::Forwarded(req, _) if site == sites::MIXZONE => {
                    assert!(req.context.area() > 0.0);
                }
                other => panic!("{site}: {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_mode_forwards_only_protected_requests() {
        let mut s = ts_with_crowd(10);
        s.register_user(UserId(1), PrivacyLevel::Low);
        s.add_lbqid(UserId(1), one_shot_pattern());
        // A generous budget: the sink keeps failing but the server stays
        // Degraded (not ReadOnly) across this test's event volume.
        s.attach_journal_with(
            boxed(BrokenSink),
            RetryPolicy {
                attempts: 1,
                max_failures: 10,
                backoff_base: 8,
            },
        );
        assert_eq!(s.mode(), ServerMode::Normal);

        // First request forwards (the gate saw Normal), but its journal
        // write fails and the server degrades.
        let out = s.handle_request(UserId(100), sp(1.0, 1.0, 500), SVC);
        assert!(matches!(out, RequestOutcome::Forwarded(_, _)));
        assert_eq!(s.mode(), ServerMode::Degraded);

        // Degraded: exact forwards are refused fail-closed…
        match s.handle_request(UserId(101), sp(6.0, 1.0, 510), SVC) {
            RequestOutcome::Suppressed(SuppressReason::Degraded) => {}
            other => panic!("{other:?}"),
        }
        // …and so is a protected one whose request point was lost to a
        // PHL-write fault…
        s.attach_faults(FaultInjector::new(FaultPlan::new(3).with_rule(
            sites::PHL_WRITE,
            Trigger::Once(0),
            FaultKind::Drop,
        )));
        match s.handle_request(UserId(1), sp(0.0, 0.0, 515), SVC) {
            RequestOutcome::Suppressed(SuppressReason::Degraded) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.fault_injector().fired(sites::PHL_WRITE), 1);
        // …but the same request, demonstrably protected (generalized,
        // HK-ok) and unfaulted, still flows.
        match s.handle_request(UserId(1), sp(0.0, 0.0, 520), SVC) {
            RequestOutcome::Forwarded(req, disclosure) => {
                assert!(req.context.area() > 0.0);
                assert!(disclosure.generalized && disclosure.hk_ok);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.mode(), ServerMode::Degraded);
        let stats = s.log().stats();
        assert_eq!(stats.suppressed_degraded, 2);
        assert!(stats.mode_changes >= 1);
    }

    #[test]
    fn journal_down_means_read_only_until_a_new_journal() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.register_user(UserId(2), PrivacyLevel::Off);
        // No budget at all: the first failed event kills the sink.
        s.attach_journal_with(
            boxed(BrokenSink),
            RetryPolicy {
                attempts: 1,
                max_failures: 1,
                backoff_base: 1,
            },
        );
        let out = s.handle_request(UserId(1), sp(1.0, 1.0, 10), SVC);
        assert!(matches!(out, RequestOutcome::Forwarded(_, _)));
        assert_eq!(s.mode(), ServerMode::ReadOnly);
        assert_eq!(s.journal_health(), JournalHealth::Down);

        // Read-only: nothing is forwarded, mutations are refused, yet
        // location updates still land (the PHL must not go stale).
        match s.handle_request(UserId(1), sp(2.0, 1.0, 20), SVC) {
            RequestOutcome::Suppressed(SuppressReason::Degraded) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.try_register_user(UserId(50), PrivacyLevel::Off),
            Err(TsError::Degraded)
        );
        assert_eq!(
            s.try_add_lbqid(UserId(1), one_shot_pattern()),
            Err(TsError::Degraded)
        );
        let before = s.store().phl(UserId(2)).unwrap().len();
        s.location_update(UserId(2), sp(15.0, 1.0, 30));
        assert_eq!(s.store().phl(UserId(2)).unwrap().len(), before + 1);

        // A fresh journal restores normal service.
        s.attach_journal(boxed(std::io::sink()));
        assert_eq!(s.mode(), ServerMode::Normal);
        let out = s.handle_request(UserId(1), sp(3.0, 1.0, 40), SVC);
        assert!(matches!(out, RequestOutcome::Forwarded(_, _)));
        let stats = s.log().stats();
        assert!(stats.mode_changes >= 2, "N→RO and RO→N at least");
        assert!(stats.suppressed_degraded >= 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.register_user(UserId(1), PrivacyLevel::Off);
    }

    #[test]
    fn fallible_api_reports_conditions() {
        let mut s = ts();
        assert_eq!(
            s.try_handle_request(UserId(1), sp(0.0, 0.0, 0), SVC),
            Err(TsError::UnknownUser(UserId(1)))
        );
        assert_eq!(
            s.try_add_lbqid(UserId(1), one_shot_pattern()),
            Err(TsError::UnknownUser(UserId(1)))
        );
        assert!(s.try_register_user(UserId(1), PrivacyLevel::Off).is_ok());
        assert_eq!(
            s.try_register_user(UserId(1), PrivacyLevel::Off),
            Err(TsError::DuplicateUser(UserId(1)))
        );
        let bad = PrivacyLevel::Custom(PrivacyParams::fixed(0, 0.5));
        assert!(matches!(
            s.try_register_user(UserId(2), bad),
            Err(TsError::InvalidParams(_))
        ));
        // Error type is displayable and std::error::Error.
        let e: Box<dyn std::error::Error> = Box::new(TsError::UnknownUser(UserId(7)));
        assert!(e.to_string().contains("u7"));
    }

    #[test]
    fn selective_privacy_applies_per_service() {
        let mut s = ts_with_crowd(10);
        s.register_user(UserId(1), PrivacyLevel::Low);
        s.add_lbqid(UserId(1), one_shot_pattern());
        // Privacy off for service 7 only.
        s.set_service_privacy(UserId(1), ServiceId(7), PrivacyLevel::Off)
            .unwrap();
        let at = sp(0.0, 0.0, 100);
        // Pattern-matching request to the opted-out service: exact.
        match s.handle_request(UserId(1), at, ServiceId(7)) {
            RequestOutcome::Forwarded(req, _) => assert_eq!(req.context, StBox::point(at)),
            other => panic!("{other:?}"),
        }
        // The same request shape to the default service: generalized.
        let at2 = sp(0.0, 0.0, 200);
        match s.handle_request(UserId(1), at2, SVC) {
            RequestOutcome::Forwarded(req, _) => assert!(req.context.area() > 0.0),
            other => panic!("{other:?}"),
        }
        // Unknown users are rejected.
        assert_eq!(
            s.set_service_privacy(UserId(99), SVC, PrivacyLevel::Off),
            Err(TsError::UnknownUser(UserId(99)))
        );
    }

    #[test]
    fn msg_ids_are_unique_and_increasing() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        let mut ids = Vec::new();
        for t in 0..5 {
            match s.handle_request(UserId(1), sp(1.0, 1.0, t * 10), SVC) {
                RequestOutcome::Forwarded(req, _) => ids.push(req.msg_id.0),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
