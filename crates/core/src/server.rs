//! The Trusted Server: the Section-6.1 strategy end to end.

use crate::events::{JournalHealth, RetryPolicy};
use crate::strategy::{self, PatternState, RequestHost, UserState};
use crate::{
    algorithm1_first, algorithm1_subsequent, EventLog, Generalization, MixZoneConfig,
    MixZoneManager, PrivacyLevel, RandomizeConfig, Randomizer, Tolerance, TsEvent, UnlinkDecision,
};
use hka_anonymity::{historical_k_anonymity, HkOutcome, MsgId, Pseudonym, ServiceId, SpRequest};
use hka_faults::FaultInjector;
use hka_geo::{Rect, StBox, StPoint, TimeSec};
use hka_lbqid::{Lbqid, Monitor};
use hka_trajectory::{GridIndexConfig, IndexBackend, SpatialIndex, TrajectoryStore, UserId};
use std::collections::BTreeMap;

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
    /// form.
    Forwarded(SpRequest),
    /// The request was withheld.
    Suppressed(SuppressReasonPub),
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

/// Public mirror of the suppression reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReasonPub {
    /// Inside a mix-zone (static, or an on-demand zone cooling down —
    /// including the one just activated to unlink this very user).
    MixZone,
    /// Risk policy: generalization and unlinking both failed and the user
    /// profile says suppress.
    RiskPolicy,
    /// Fail-closed: an injected fault or a degraded server mode made it
    /// impossible to guarantee this request's protection, so it was
    /// suppressed rather than forwarded under-generalized or exact.
    Degraded,
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
    index: Box<dyn SpatialIndex>,
    users: BTreeMap<UserId, UserState>,
    services: BTreeMap<ServiceId, Tolerance>,
    mixzones: MixZoneManager,
    randomizer: Option<Randomizer>,
    log: EventLog,
    outbox: Vec<(UserId, SpRequest)>,
    /// msgid → issuer: the routing table that lets the TS forward service
    /// answers without the provider ever learning a network address.
    routes: BTreeMap<MsgId, UserId>,
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
    svc_outbox: Vec<crate::envelope::ResponseEnvelope>,
}

impl TrustedServer {
    /// Creates an empty TS.
    pub fn new(config: TsConfig) -> Self {
        TrustedServer {
            config,
            store: TrajectoryStore::new(),
            index: config.backend.make(config.index),
            users: BTreeMap::new(),
            services: BTreeMap::new(),
            mixzones: MixZoneManager::new(config.mixzone),
            randomizer: config.randomize.map(Randomizer::new),
            log: EventLog::new(),
            outbox: Vec::new(),
            routes: BTreeMap::new(),
            next_msg: 0,
            next_pseudonym: 0,
            injector: FaultInjector::none(),
            mode: ServerMode::Normal,
            last_time: TimeSec(0),
            slo: None,
            svc_outbox: Vec::new(),
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
        self.users.insert(
            user,
            UserState {
                pseudonym,
                params,
                overrides: BTreeMap::new(),
                monitors: Vec::new(),
                patterns: Vec::new(),
                at_risk: false,
            },
        );
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
        let ing = strategy::ingest_on(self, user, at);
        if ing.entering {
            // Fetch-once: operate on the owned state, then put it back.
            if let Some(mut state) = self.users.remove(&user) {
                if state.params.is_some() {
                    strategy::change_pseudonym_on(self, user, &mut state, ing.at);
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

    /// Handles a batch of co-arriving requests in submission order
    /// through one Algorithm-1 pass
    /// ([`strategy::handle_request_batch_on`]). Outcomes, decision
    /// events, and journal bytes are identical to calling
    /// [`TrustedServer::try_handle_request`] once per element — order
    /// equivalence is the helper's contract — but a host sharing
    /// Algorithm-1 window state across the run may answer faster.
    /// Per-request trace roots are not minted on this bulk path.
    pub fn handle_requests(
        &mut self,
        requests: &[(UserId, StPoint, ServiceId)],
    ) -> Vec<Result<RequestOutcome, TsError>> {
        let tagged: Vec<(usize, UserId, StPoint, ServiceId)> = requests
            .iter()
            .enumerate()
            .map(|(i, (u, at, s))| (i, *u, *at, *s))
            .collect();
        let mut out: Vec<Result<RequestOutcome, TsError>> = Vec::with_capacity(requests.len());
        strategy::handle_request_batch_on(
            self,
            &tagged,
            |h, user| {
                let _span = hka_obs::span("ts.handle_request");
                hka_obs::global().counter("ts.requests").incr();
                h.users.remove(&user)
            },
            |h, _i, user, settled| match settled {
                Some((state, outcome)) => {
                    h.users.insert(user, state);
                    out.push(Ok(outcome));
                }
                None => out.push(Err(TsError::UnknownUser(user))),
            },
        );
        out
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
        // The root span for this request's trace: minted before any
        // stage span so every `hka_obs::span` site below becomes a
        // child. The trace id exists even with collection disabled, so
        // SLO payloads referencing it are identical tracing on or off.
        let mut root = hka_obs::trace::root("ts.request");
        let started = std::time::Instant::now();
        let _span = hka_obs::span("ts.handle_request");
        hka_obs::global().counter("ts.requests").incr();
        let mut state = self.users.remove(&user).ok_or(TsError::UnknownUser(user))?;
        root.attr("uid", hka_obs::Json::from(state.pseudonym.0));
        let outcome = strategy::handle_request_on(self, user, &mut state, at, service);
        self.users.insert(user, state);
        root.attr(
            "outcome",
            hka_obs::Json::from(match &outcome {
                RequestOutcome::Forwarded(_) => "forwarded",
                RequestOutcome::Suppressed(_) => "suppressed",
            }),
        );
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
    /// the journal's health (every event is a journal write attempt, so
    /// every event can move the health).
    fn push_event(&mut self, e: TsEvent, at: TimeSec) {
        self.last_time = at;
        self.log.push(e);
        self.sync_mode(at);
    }

    /// Aligns [`TrustedServer::mode`] with the journal's health,
    /// emitting the transition (counter, gauge, `ts.mode_changed`
    /// event) when it moves.
    fn sync_mode(&mut self, at: TimeSec) {
        let target = match self.log.journal_health() {
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
        // Direct push, no re-sync: this event's own journal write (which
        // may itself fail) is observed by whichever event comes next.
        self.log.push(TsEvent::ModeChanged {
            at,
            from,
            to: target,
        });
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        let p = Pseudonym(self.next_pseudonym);
        self.next_pseudonym += 1;
        p
    }

    // ------------------------------------------------------------------
    // Introspection for audits and experiments.
    // ------------------------------------------------------------------

    /// Routes a provider's answer back to the issuing user — "the msgid
    /// is used to hide the user network address and will be used by the
    /// TS to forward the answer to the user's device" (Section 3).
    /// Returns the recipient, or `None` for unknown message ids.
    pub fn route_response(&self, msg_id: MsgId) -> Option<UserId> {
        self.routes.get(&msg_id).copied()
    }

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
    /// [`TsConfig::backend`]).
    pub fn index(&self) -> &dyn SpatialIndex {
        self.index.as_ref()
    }

    /// The decision log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Folds PHL points older than the policy cutoff (granularity-aware
    /// compaction, [`hka_trajectory::CompactionPolicy`]) and rebuilds
    /// the spatial index over the folded store, so index queries never
    /// see points the store no longer holds. Algorithm 1's anonymity
    /// queries look only at the recent window the cutoff leaves
    /// untouched, and folding preserves per-granule occupancy and
    /// extremes, so request outcomes and the auditor's k-timelines are
    /// unchanged — the differential tests pin exactly that.
    pub fn compact_history(
        &mut self,
        now: TimeSec,
        policy: &hka_trajectory::CompactionPolicy,
    ) -> hka_trajectory::CompactionStats {
        let stats = self.store.compact(now, policy);
        self.index = self.config.backend.build(&self.store, self.config.index);
        let metrics = hka_obs::global();
        metrics.counter("ts.compactions").incr();
        metrics
            .counter("ts.compacted_points")
            .add(stats.points_dropped());
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
        self.sync_mode(self.last_time);
        previous
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

    /// Flushes the attached journal, if any.
    pub fn flush_journal(&mut self) -> std::io::Result<()> {
        self.log.flush_journal()
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

    /// The [`crate::RequestService`] response buffer (seam internals).
    pub(crate) fn svc_outbox_mut(&mut self) -> &mut Vec<crate::envelope::ResponseEnvelope> {
        &mut self.svc_outbox
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
                .map(|(user, st)| crate::checkpoint::UserMeta {
                    user: *user,
                    pseudonym: st.pseudonym,
                    params: st.params,
                    overrides: st.overrides.iter().map(|(s, p)| (*s, *p)).collect(),
                    at_risk: st.at_risk,
                })
                .collect(),
        }
    }

    /// Rebuilds a server from a checkpoint snapshot's `store`, `server`,
    /// and `stats` sections: the trajectory store (index bulk-built
    /// from it), pseudonym bindings, privacy parameters and
    /// overrides, at-risk flags, service tolerances, static mix-zones,
    /// mode, and counters.
    ///
    /// LBQID monitors and pattern traversals restart conservatively
    /// (exactly like after an unlink) — the operator re-attaches LBQIDs
    /// with [`TrustedServer::add_lbqid`]; active mix-zone cool-downs and
    /// the outbox/routing tables are transient and start empty. The
    /// restored server has no journal attached; callers re-attach one
    /// (resuming the chain) before serving.
    pub fn restore(config: TsConfig, snapshot: &hka_obs::Snapshot) -> Result<Self, String> {
        use crate::checkpoint::{self, ServerMeta};

        let store = hka_trajectory::state::store_of_json(
            snapshot
                .section(checkpoint::STORE_SECTION)
                .ok_or("snapshot has no 'store' section")?,
        )?;
        let meta = ServerMeta::of_json(
            snapshot
                .section(checkpoint::SERVER_SECTION)
                .ok_or("snapshot has no 'server' section")?,
        )?;
        let stats = checkpoint::stats_of_json(
            snapshot
                .section(checkpoint::STATS_SECTION)
                .ok_or("snapshot has no 'stats' section")?,
        )?;

        let index = config.backend.build(&store, config.index);
        let mut mixzones = MixZoneManager::new(config.mixzone);
        for zone in &meta.static_zones {
            mixzones.add_static_zone(*zone);
        }
        let users = meta
            .users
            .iter()
            .map(|u| {
                (
                    u.user,
                    UserState {
                        pseudonym: u.pseudonym,
                        params: u.params,
                        overrides: u.overrides.iter().cloned().collect(),
                        monitors: Vec::new(),
                        patterns: Vec::new(),
                        at_risk: u.at_risk,
                    },
                )
            })
            .collect();
        let mut log = EventLog::new();
        log.restore_stats(stats);

        Ok(TrustedServer {
            config,
            store,
            index,
            users,
            services: meta.services.iter().copied().collect(),
            mixzones,
            randomizer: config.randomize.map(Randomizer::new),
            log,
            outbox: Vec::new(),
            routes: BTreeMap::new(),
            next_msg: meta.next_msg,
            next_pseudonym: meta.next_pseudonym,
            injector: FaultInjector::none(),
            mode: meta.mode,
            last_time: meta.last_time,
            // The watchdog's rolling window is telemetry, not durable
            // state: a restored server starts with a fresh (off) one.
            slo: None,
            svc_outbox: Vec::new(),
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

    /// Everything forwarded to providers, with ground-truth issuers (for
    /// experiment evaluation only — a real SP sees just the requests).
    pub fn outbox(&self) -> &[(UserId, SpRequest)] {
        &self.outbox
    }

    /// Provider view: the bare request stream.
    pub fn provider_view(&self) -> Vec<SpRequest> {
        self.outbox.iter().map(|(_, r)| r.clone()).collect()
    }

    /// For each of the user's LBQIDs: the pattern name, whether it has
    /// been fully matched under the current pseudonym, and the audited
    /// historical k-anonymity of the generalized contexts forwarded for it.
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

    /// Replays an attacker's linking technique over everything forwarded
    /// so far (Section 5.2: "we assume the TS can replicate the
    /// techniques used by a possible attacker") and reports, per user
    /// that has held more than one pseudonym, the **maximum linkability
    /// between requests issued under different pseudonyms**. Values below
    /// the user's Θ mean past unlinkings hold against this attacker;
    /// values at or above Θ identify pseudonym changes an SP could chain
    /// back together.
    pub fn unlink_audit<L: hka_anonymity::Linker + ?Sized>(
        &self,
        linker: &L,
    ) -> Vec<(UserId, f64)> {
        let mut by_user: BTreeMap<UserId, Vec<&SpRequest>> = BTreeMap::new();
        for (u, r) in &self.outbox {
            by_user.entry(*u).or_default().push(r);
        }
        let mut out = Vec::new();
        for (user, reqs) in by_user {
            let pseudonyms: std::collections::BTreeSet<Pseudonym> =
                reqs.iter().map(|r| r.pseudonym).collect();
            if pseudonyms.len() < 2 {
                continue;
            }
            let mut worst = 0.0f64;
            for i in 0..reqs.len() {
                for j in (i + 1)..reqs.len() {
                    if reqs[i].pseudonym != reqs[j].pseudonym {
                        worst = worst.max(linker.link(reqs[i], reqs[j]));
                    }
                }
            }
            out.push((user, worst));
        }
        out
    }

    /// The generalized contexts forwarded for each of the user's patterns
    /// under the current pseudonym.
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

/// The capability surface the extracted Section-6.1 strategy
/// ([`crate::strategy`]) needs, answered by the server's own store,
/// index, mix-zone manager, and bookkeeping. The sharded frontend
/// implements the same trait over a partitioned layout; differential
/// tests pin the two to identical behaviour.
impl RequestHost for TrustedServer {
    fn phl_last(&self, user: UserId) -> Option<StPoint> {
        self.store.phl(user).and_then(|p| p.last()).copied()
    }

    fn record(&mut self, user: UserId, at: StPoint) {
        self.store.record(user, at);
        self.index.insert(user, at);
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

    fn in_static_zone(&self, pos: &hka_geo::Point) -> bool {
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
        algorithm1_first(self.index.as_ref(), at, user, k, tolerance)
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
        let (index, store) = (&self.index, &self.store);
        self.mixzones
            .try_unlink(|b| index.users_crossing(b), |u| store.phl(u), user, at, k)
    }

    fn fresh_pseudonym(&mut self) -> Pseudonym {
        TrustedServer::fresh_pseudonym(self)
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
            Some(rz) => {
                let tolerance = *self
                    .services
                    .get(&service)
                    .unwrap_or(&self.config.default_tolerance);
                rz.randomize(&context, at, msg_id, &tolerance)
            }
            None => context,
        }
    }

    fn emit(&mut self, e: TsEvent, at: TimeSec) {
        self.push_event(e, at);
    }

    fn deliver(&mut self, user: UserId, req: SpRequest) {
        self.routes.insert(req.msg_id, user);
        self.outbox.push((user, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrivacyParams, RiskAction};
    use hka_faults::sites;
    use hka_geo::{SpaceTimeScale, TimeSec};

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
            RequestOutcome::Forwarded(req) => {
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
            RequestOutcome::Forwarded(req) => assert_eq!(req.context, StBox::point(at)),
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
        match s.handle_request(UserId(1), at, SVC) {
            RequestOutcome::Forwarded(req) => {
                assert!(req.context.area() > 0.0, "context must be generalized");
                assert!(req.covers(&at));
            }
            other => panic!("{other:?}"),
        }
        let stats = s.log().stats();
        assert_eq!(stats.generalized(), 1);
        assert_eq!(stats.forwarded_hk_ok, 1);
        // The pattern is a one-element, once-anywhere LBQID: matched.
        let audits = s.audit_patterns(UserId(1), 2);
        assert_eq!(audits.len(), 1);
        let (name, matched, hk) = &audits[0];
        assert_eq!(name, "clinic");
        assert!(matched);
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
        let RequestOutcome::Forwarded(req) = s.handle_request(UserId(1), at, SVC) else {
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
            RequestOutcome::Suppressed(SuppressReasonPub::RiskPolicy) => {}
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
            RequestOutcome::Forwarded(req) => assert!(req.covers(&at)),
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
            RequestOutcome::Suppressed(SuppressReasonPub::MixZone) => {}
            other => panic!("{other:?}"),
        }
        let after = s.pseudonym_of(UserId(1)).unwrap();
        assert_ne!(before, after, "pseudonym must change");
        let stats = s.log().stats();
        assert_eq!(stats.pseudonym_changes, 1);
        assert_eq!(stats.suppressed_mixzone, 1);
        // Pattern state is reset.
        assert!(s.pattern_contexts(UserId(1))[0].1.is_empty());
        // Requests inside the active zone are suppressed for a while.
        match s.handle_request(UserId(1), sp(5.0, 5.0, 200), SVC) {
            RequestOutcome::Suppressed(SuppressReasonPub::MixZone) => {}
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
            RequestOutcome::Suppressed(SuppressReasonPub::MixZone) => {}
            other => panic!("{other:?}"),
        }
        // Off-zone requests pass.
        match s.handle_request(UserId(1), sp(500.0, 50.0, 20), SVC) {
            RequestOutcome::Forwarded(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outbox_hides_identity_but_keeps_ground_truth() {
        let mut s = ts();
        let pseudo = s.register_user(UserId(7), PrivacyLevel::Off);
        s.handle_request(UserId(7), sp(1.0, 2.0, 3), SVC);
        let (truth, req) = &s.outbox()[0];
        assert_eq!(*truth, UserId(7));
        assert_eq!(req.pseudonym, pseudo);
        let view = s.provider_view();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].pseudonym, pseudo);
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
            RequestOutcome::Forwarded(req) => {
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
        let RequestOutcome::Forwarded(req) = s.handle_request(UserId(1), at, SVC) else {
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
        let RequestOutcome::Forwarded(req2) = s2.handle_request(UserId(1), at, SVC) else {
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

    #[test]
    fn reordered_timestamps_are_clamped_not_fatal() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        s.location_update(UserId(1), sp(0.0, 0.0, 100));
        s.location_update(UserId(1), sp(5.0, 0.0, 40)); // arrives late
        let phl = s.store().phl(UserId(1)).unwrap();
        assert_eq!(phl.len(), 2);
        assert_eq!(phl.last().unwrap().t, TimeSec(100), "clamped forward");
        // A regressed *request* timestamp is clamped and still served.
        match s.handle_request(UserId(1), sp(6.0, 0.0, 70), SVC) {
            RequestOutcome::Forwarded(req) => {
                assert_eq!(req.context.span.start(), TimeSec(100));
            }
            other => panic!("{other:?}"),
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
            RequestOutcome::Suppressed(SuppressReasonPub::Degraded) => {}
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
                RequestOutcome::Suppressed(SuppressReasonPub::Degraded) => {}
                // The mix-zone site is only consulted when generalization
                // already failed; with this crowd it succeeds, so the
                // forward must be a fully protected one.
                RequestOutcome::Forwarded(req) if site == sites::MIXZONE => {
                    assert!(req.context.area() > 0.0);
                }
                other => panic!("{site}: {other:?}"),
            }
            // No exact location escaped either way.
            for req in s.provider_view() {
                assert!(req.context.area() > 0.0);
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
        assert!(matches!(out, RequestOutcome::Forwarded(_)));
        assert_eq!(s.mode(), ServerMode::Degraded);

        // Degraded: exact forwards are refused fail-closed…
        match s.handle_request(UserId(101), sp(6.0, 1.0, 510), SVC) {
            RequestOutcome::Suppressed(SuppressReasonPub::Degraded) => {}
            other => panic!("{other:?}"),
        }
        // …but a demonstrably protected (generalized, HK-ok) request
        // still flows.
        match s.handle_request(UserId(1), sp(0.0, 0.0, 520), SVC) {
            RequestOutcome::Forwarded(req) => assert!(req.context.area() > 0.0),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.mode(), ServerMode::Degraded);
        let stats = s.log().stats();
        assert_eq!(stats.suppressed_degraded, 1);
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
        assert!(matches!(out, RequestOutcome::Forwarded(_)));
        assert_eq!(s.mode(), ServerMode::ReadOnly);
        assert_eq!(s.journal_health(), JournalHealth::Down);

        // Read-only: nothing is forwarded, mutations are refused, yet
        // location updates still land (the PHL must not go stale).
        match s.handle_request(UserId(1), sp(2.0, 1.0, 20), SVC) {
            RequestOutcome::Suppressed(SuppressReasonPub::Degraded) => {}
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
        assert!(matches!(out, RequestOutcome::Forwarded(_)));
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
            RequestOutcome::Forwarded(req) => assert_eq!(req.context, StBox::point(at)),
            other => panic!("{other:?}"),
        }
        // The same request shape to the default service: generalized.
        let at2 = sp(0.0, 0.0, 200);
        match s.handle_request(UserId(1), at2, SVC) {
            RequestOutcome::Forwarded(req) => assert!(req.context.area() > 0.0),
            other => panic!("{other:?}"),
        }
        // Unknown users are rejected.
        assert_eq!(
            s.set_service_privacy(UserId(99), SVC, PrivacyLevel::Off),
            Err(TsError::UnknownUser(UserId(99)))
        );
    }

    #[test]
    fn responses_route_by_msgid_without_identity_leak() {
        let mut s = ts();
        s.register_user(UserId(5), PrivacyLevel::Off);
        let RequestOutcome::Forwarded(req) = s.handle_request(UserId(5), sp(1.0, 1.0, 1), SVC)
        else {
            panic!("expected forward");
        };
        assert_eq!(s.route_response(req.msg_id), Some(UserId(5)));
        assert_eq!(s.route_response(MsgId(9_999)), None);
    }

    #[test]
    fn unlink_audit_reports_cross_pseudonym_linkability() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Medium);
        s.register_user(UserId(2), PrivacyLevel::Off);
        s.add_static_mixzone(Rect::from_bounds(100.0, 0.0, 200.0, 100.0));
        // User 1 requests, crosses the zone (pseudonym change), requests
        // again far away and much later.
        s.handle_request(UserId(1), sp(50.0, 50.0, 10), SVC);
        s.location_update(UserId(1), sp(150.0, 50.0, 600));
        s.location_update(UserId(1), sp(250.0, 50.0, 1_200));
        s.handle_request(UserId(1), sp(1_800.0, 50.0, 9_000), SVC);
        // User 2 never changes pseudonym.
        s.handle_request(UserId(2), sp(10.0, 10.0, 5), SVC);

        let tracker = hka_anonymity::TrackerLinker::default();
        let audit = s.unlink_audit(&tracker);
        assert_eq!(audit.len(), 1, "only multi-pseudonym users are audited");
        let (user, worst) = audit[0];
        assert_eq!(user, UserId(1));
        assert!((0.0..=1.0).contains(&worst));
        // 1.5 km apart and 2+ hours later: the tracker cannot chain this.
        assert!(worst < 0.5, "unlinking should hold, got {worst}");
    }

    #[test]
    fn msg_ids_are_unique_and_increasing() {
        let mut s = ts();
        s.register_user(UserId(1), PrivacyLevel::Off);
        for t in 0..5 {
            s.handle_request(UserId(1), sp(1.0, 1.0, t * 10), SVC);
        }
        let ids: Vec<u64> = s.provider_view().iter().map(|r| r.msg_id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
