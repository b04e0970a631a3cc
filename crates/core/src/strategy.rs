//! The Section-6.1 per-request strategy, separate from the
//! [`TrustedServer`](crate::TrustedServer) state it runs against.
//!
//! The split is capability-shaped: [`RequestHost`] is everything the
//! strategy needs from its surroundings — PHL reads and writes, fault
//! checks, mix-zone probes, Algorithm-1 candidate searches, id
//! allocation, event emission — while the generic functions
//! ([`handle_request_on`], [`ingest_on`], [`location_update_on`],
//! [`change_pseudonym_on`], [`fail_closed_on`], [`forward_on`]) are the
//! strategy itself. Every counter, span, event, and ordering decision
//! lives here once, on either journal cadence; the group-vs-record
//! differential tests pin the two cadences to identical outcomes.

use crate::events::SuppressReason;
use crate::{
    Generalization, PrivacyParams, RequestOutcome, RiskAction, ServerMode, SuppressReasonPub,
    Tolerance, TsEvent, UnlinkDecision,
};
use hka_anonymity::{MsgId, Pseudonym, ServiceId, SpRequest};
use hka_faults::sites;
use hka_geo::{Point, StBox, StPoint, TimeSec};
use hka_lbqid::Monitor;
use hka_trajectory::UserId;
use std::collections::BTreeMap;

/// Per-LBQID anonymity-set state under the current pseudonym.
///
/// Algorithm 1 "store\[s\] the ids of the k users" the first time a
/// request matches the pattern's initial element; every later matching
/// request re-uses (a shrinking subset of) those ids, so that one fixed
/// crowd of candidate histories covers the whole matched request set —
/// exactly what Definition 8 requires.
#[derive(Debug, Clone, Default)]
pub struct PatternState {
    /// The stored user ids (monotonically shrinking along the trace).
    pub selected: Vec<UserId>,
    /// How many generalized requests this pattern has produced so far
    /// (drives the k′ schedule).
    pub step: usize,
    /// The generalized contexts forwarded for this pattern, for audits.
    pub contexts: Vec<StBox>,
}

/// Per-user TS state: the pseudonym, privacy profile, LBQID monitors,
/// and per-pattern anonymity-set bookkeeping.
#[derive(Debug)]
pub struct UserState {
    /// The user's current pseudonym.
    pub pseudonym: Pseudonym,
    /// Registration-time privacy parameters (`None` = privacy off).
    pub params: Option<PrivacyParams>,
    /// Per-service overrides — Section 3: "the user choice may be applied
    /// uniformly to all services or selectively". `Some(None)` means
    /// privacy explicitly off for that service.
    pub overrides: BTreeMap<ServiceId, Option<PrivacyParams>>,
    /// One online matcher per attached LBQID.
    pub monitors: Vec<Monitor>,
    /// One anonymity-set state per attached LBQID (same order).
    pub patterns: Vec<PatternState>,
    /// Whether the user has an unresolved at-risk notification.
    pub at_risk: bool,
}

impl UserState {
    /// Fresh state for a newly registered user.
    pub fn new(pseudonym: Pseudonym, params: Option<PrivacyParams>) -> Self {
        UserState {
            pseudonym,
            params,
            overrides: BTreeMap::new(),
            monitors: Vec::new(),
            patterns: Vec::new(),
            at_risk: false,
        }
    }

    /// The effective privacy parameters for one service, after
    /// per-service overrides.
    pub fn params_for(&self, service: ServiceId) -> Option<PrivacyParams> {
        match self.overrides.get(&service) {
            Some(p) => *p,
            None => self.params,
        }
    }
}

/// What a forwarded request disclosed: whether its context was
/// generalized at all, whether the generalization met full historical
/// k-anonymity, and the anonymity bookkeeping the audit trail needs
/// (requested k, achieved anonymity-set size, matched LBQID). Journaled
/// with the `ts.forwarded` event.
#[derive(Debug, Clone)]
pub struct Disclosure {
    /// Whether the context was generalized at all.
    pub generalized: bool,
    /// Whether full historical k-anonymity held.
    pub hk_ok: bool,
    /// The k requested at this step.
    pub k_req: usize,
    /// The anonymity-set size achieved.
    pub k_got: usize,
    /// The matched LBQID's name, if any.
    pub lbqid: Option<String>,
}

impl Disclosure {
    /// An exact, non-pattern forward: no generalization, no anonymity
    /// set, no LBQID.
    pub fn exact() -> Self {
        Disclosure {
            generalized: false,
            hk_ok: true,
            k_req: 0,
            k_got: 0,
            lbqid: None,
        }
    }
}

/// What [`ingest_on`] did with one observation.
pub struct Ingest {
    /// The observation, with its timestamp normalized (clamped forward
    /// onto the PHL's last timestamp if it arrived out of order).
    pub at: StPoint,
    /// Whether the point landed in the store and index (`false` = an
    /// injected PHL-write fault dropped it).
    pub recorded: bool,
    /// Whether the move crossed into a static mix-zone.
    pub entering: bool,
}

/// Everything the per-request strategy needs from its surroundings.
///
/// [`TrustedServer`](crate::TrustedServer) implements this over its own
/// store/index/mix-zone fields, building a missing index at the first
/// read. The implementation must preserve the documented semantics
/// exactly — the strategy's correctness depends on it.
pub trait RequestHost {
    /// The last recorded PHL point for `user`, if any.
    fn phl_last(&self, user: UserId) -> Option<StPoint>;
    /// Records one observation into the PHL store and the
    /// spatio-temporal index, clamping a timestamp that regresses behind
    /// the PHL's last point forward onto it (through
    /// [`TrajectoryStore::record_with_prev`](hka_trajectory::TrajectoryStore::record_with_prev),
    /// which counts the clamp). Returns the point as stored
    /// and the PHL's previous last point (`None` for the user's first
    /// point), read through the same lookup as the append: a location
    /// report pays for one PHL lookup, not one per question.
    fn record(&mut self, user: UserId, at: StPoint) -> (StPoint, Option<StPoint>);
    /// Consults the fault plan at `site`; a fired fault is counted
    /// (`faults.injected`, `faults.<site>`) and reported as `true`.
    fn check_fault(&mut self, site: &str) -> bool;
    /// Whether `pos` lies inside a static mix-zone.
    fn in_static_zone(&self, pos: &Point) -> bool;
    /// Whether requests at `at` are suppressed by a mix-zone (static,
    /// or an on-demand zone cooling down). May expire stale zones.
    fn suppressed_at(&mut self, at: &StPoint) -> bool;
    /// The service's tolerance constraints (or the default).
    fn tolerance_for(&self, service: ServiceId) -> Tolerance;
    /// The server's current operating mode.
    fn mode(&self) -> ServerMode;
    /// Algorithm 1, first-element branch: the k nearest users' PHL
    /// points around `at`, excluding `user`, bounded and
    /// tolerance-checked.
    fn algo1_first(
        &mut self,
        at: &StPoint,
        user: UserId,
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization;
    /// Algorithm 1, subsequent-element branch over the stored ids.
    fn algo1_subsequent(
        &mut self,
        at: &StPoint,
        stored: &[UserId],
        k: usize,
        tolerance: &Tolerance,
    ) -> Generalization;
    /// Attempts an on-demand mix-zone unlink around `at`.
    fn try_unlink(&mut self, user: UserId, at: &StPoint, k: usize) -> UnlinkDecision;
    /// Allocates a fresh pseudonym.
    fn fresh_pseudonym(&mut self) -> Pseudonym;
    /// Allocates the next message id.
    fn next_msg_id(&mut self) -> MsgId;
    /// Anti-inference randomization of a *generalized* context (called
    /// only for generalized forwards); hosts without a randomizer
    /// return the context unchanged.
    fn randomize(&mut self, context: StBox, at: &StPoint, msg_id: u64, service: ServiceId)
        -> StBox;
    /// Emits one decision event (ring buffer, stats, journal sink) and
    /// advances the host's clock to `at`.
    fn emit(&mut self, e: TsEvent, at: TimeSec);
    /// Hands a forwarded request to the provider-facing outbox and the
    /// msgid→user routing table.
    fn deliver(&mut self, user: UserId, req: SpRequest);
}

/// Normalizes an out-of-order observation timestamp against the user's
/// PHL without writing it: a regressed timestamp is clamped forward onto
/// the last recorded one (counted in `ts.reordered`, see
/// [`hka_trajectory::clamp_after`]) instead of panicking the
/// time-ordered store.
pub fn normalize_time_on<H: RequestHost>(host: &H, user: UserId, at: StPoint) -> StPoint {
    hka_trajectory::clamp_after(host.phl_last(user), at)
}

/// Records one observation: PHL-write fault check, store + index insert
/// with timestamp normalization, static-zone crossing detection.
///
/// Counted (`ts.ingested`, once written), not timed: a location report
/// costs a few hundred nanoseconds, less than a span around it would
/// (DESIGN.md §9.4). [`handle_request_on`] times a request's own ingest
/// step as `ts.stage.ingest`.
pub fn ingest_on<H: RequestHost>(host: &mut H, user: UserId, at: StPoint) -> Ingest {
    // A fault fires on the site's hit count alone, so checking before
    // the write drops the same observations as checking after it.
    if host.check_fault(sites::PHL_WRITE) {
        // The observation is lost before it reaches the store; the
        // forwarding boundary fails closed on the `recorded` flag.
        return Ingest {
            at: normalize_time_on(host, user, at),
            recorded: false,
            entering: false,
        };
    }
    let (stored, prev) = host.record(user, at);
    hka_obs::counter!("ts.ingested").incr();
    let entering = host.in_static_zone(&stored.pos)
        && prev.is_some_and(|prev| !host.in_static_zone(&prev.pos));
    Ingest {
        at: stored,
        recorded: true,
        entering,
    }
}

/// Ingests a location update against the owned per-user state:
/// crossing *into* a static mix-zone unlinks a protected user on the
/// spot (the Beresford–Stajano behaviour the paper imports).
pub fn location_update_on<H: RequestHost>(
    host: &mut H,
    user: UserId,
    state: &mut UserState,
    at: StPoint,
) {
    let ing = ingest_on(host, user, at);
    if ing.entering && state.params.is_some() {
        change_pseudonym_on(host, user, state, ing.at);
    }
}

/// Changes a user's pseudonym and resets all pattern state: "if
/// unlinking succeeds … all partially matched patterns based on old
/// pseudonym for that user are reset." Operates on the owned state
/// (fetch-once discipline — the state may be out of the map).
pub fn change_pseudonym_on<H: RequestHost>(
    host: &mut H,
    user: UserId,
    state: &mut UserState,
    at: StPoint,
) {
    hka_obs::counter!("ts.unlinks").incr();
    let new = host.fresh_pseudonym();
    let old = state.pseudonym;
    state.pseudonym = new;
    for m in &mut state.monitors {
        m.reset();
    }
    for p in &mut state.patterns {
        *p = PatternState::default();
    }
    state.at_risk = false;
    host.emit(
        TsEvent::PseudonymChanged {
            user,
            old,
            new,
            at: at.t,
        },
        at.t,
    );
}

/// The single fail-closed gate at the forwarding boundary.
///
/// Returns the suppression outcome when the request must not go out in
/// its current form:
///
/// * any injected fault on the request's path (`faulted`) denies in
///   every mode — a dropped PHL write, an unavailable index or mix-zone
///   all mean the protection cannot be established;
/// * [`ServerMode::Degraded`] additionally denies everything that is
///   not a generalized, HK-anonymity-preserving forward (exact contexts
///   and sub-k clamps included): without a trustworthy audit trail only
///   demonstrably protected requests flow;
/// * [`ServerMode::ReadOnly`] denies unconditionally.
pub fn fail_closed_on<H: RequestHost>(
    host: &mut H,
    user: UserId,
    at: StPoint,
    service: ServiceId,
    generalized: bool,
    hk_ok: bool,
    faulted: bool,
) -> Option<RequestOutcome> {
    let deny = match host.mode() {
        ServerMode::Normal => faulted,
        ServerMode::Degraded => faulted || !(generalized && hk_ok),
        ServerMode::ReadOnly => true,
    };
    if !deny {
        return None;
    }
    hka_obs::counter!("ts.suppressed").incr();
    hka_obs::counter!("ts.suppressed_degraded").incr();
    host.emit(
        TsEvent::Suppressed {
            user,
            at: at.t,
            reason: SuppressReason::Degraded,
            service,
        },
        at.t,
    );
    Some(RequestOutcome::Suppressed(SuppressReasonPub::Degraded))
}

/// The forwarding tail: message-id allocation, anti-inference
/// randomization of generalized contexts, delivery, counters, and the
/// `ts.forwarded` event.
pub fn forward_on<H: RequestHost>(
    host: &mut H,
    user: UserId,
    pseudonym: Pseudonym,
    at: StPoint,
    context: StBox,
    service: ServiceId,
    disclosure: Disclosure,
) -> RequestOutcome {
    let mut stage = hka_obs::span!(hka_obs::stage::FORWARD);
    let Disclosure {
        generalized,
        hk_ok,
        k_req,
        k_got,
        lbqid,
    } = disclosure;
    stage.attr("generalized", hka_obs::Json::Bool(generalized));
    stage.attr("service", hka_obs::Json::from(u64::from(service.0)));
    debug_assert!(context.contains(&at), "context must cover the true point");
    let msg_id = host.next_msg_id();
    // Anti-inference randomization (Conclusions: "randomization should
    // be used as part of the TS strategy"): only generalized contexts
    // are perturbed — exact contexts belong to users who opted out.
    let context = if generalized {
        host.randomize(context, &at, msg_id.0, service)
    } else {
        context
    };
    let req = SpRequest::new(msg_id, pseudonym, context, service);
    host.deliver(user, req.clone());
    hka_obs::counter!("ts.forwarded").incr();
    if generalized {
        hka_obs::counter!("ts.forwarded_generalized").incr();
    }
    host.emit(
        TsEvent::Forwarded {
            user,
            at: at.t,
            context,
            generalized,
            hk_ok,
            service,
            k_req,
            k_got,
            lbqid,
        },
        at.t,
    );
    RequestOutcome::Forwarded(req)
}

/// The Section-6.1 strategy over the owned per-user state — the full
/// decision procedure for one service request: ingest the request
/// point, match LBQID monitors, generalize with Algorithm 1, fall back
/// to mix-zone unlinking, then notify at-risk, with the fail-closed
/// gate in front of every forward.
pub fn handle_request_on<H: RequestHost>(
    host: &mut H,
    user: UserId,
    state: &mut UserState,
    at: StPoint,
    service: ServiceId,
) -> RequestOutcome {
    // The request instant is part of the PHL ("for each request r_i
    // there must be an element in the PHL of User(r_i)"). This is the
    // request's ingest stage, timed whether or not a location report
    // already wrote the point; the reports themselves are untimed.
    let stage = hka_obs::span!(hka_obs::stage::INGEST);
    let at = normalize_time_on(host, user, at);
    let already_recorded = host.phl_last(user).is_some_and(|p| p == at);
    let mut faulted = false;
    if !already_recorded {
        let ing = ingest_on(host, user, at);
        faulted = !ing.recorded;
        if ing.entering && state.params.is_some() {
            change_pseudonym_on(host, user, state, ing.at);
        }
    }
    drop(stage);

    let tolerance = host.tolerance_for(service);

    let Some(params) = state.params_for(service) else {
        // Privacy off (for this service): forward the exact context
        // — unless a fault or degraded mode forbids it.
        if let Some(denied) = fail_closed_on(host, user, at, service, false, true, faulted) {
            return denied;
        }
        return forward_on(
            host,
            user,
            state.pseudonym,
            at,
            StBox::point(at),
            service,
            Disclosure::exact(),
        );
    };

    // Mix-zone suppression (static zones and cooling on-demand zones).
    if host.suppressed_at(&at) {
        hka_obs::counter!("ts.suppressed").incr();
        host.emit(
            TsEvent::Suppressed {
                user,
                at: at.t,
                reason: SuppressReason::MixZone,
                service,
            },
            at.t,
        );
        return RequestOutcome::Suppressed(SuppressReasonPub::MixZone);
    }

    // LBQID monitoring: the first pattern that recognizes the request
    // claims it (the paper's simplifying assumption: "each request can
    // match an element in only one of the LBQIDs").
    let mut hit: Option<(usize, hka_lbqid::MatchEvent)> = None;
    {
        let _stage = hka_obs::span!(hka_obs::stage::LBQID_MATCH);
        for (mi, monitor) in state.monitors.iter_mut().enumerate() {
            if let Some(ev) = monitor.observe(at) {
                hit = Some((mi, ev));
                break;
            }
        }
    }

    let Some((mi, ev)) = hit else {
        // Not part of any quasi-identifier: forward exactly.
        if let Some(denied) = fail_closed_on(host, user, at, service, false, true, faulted) {
            return denied;
        }
        return forward_on(
            host,
            user,
            state.pseudonym,
            at,
            StBox::point(at),
            service,
            Disclosure::exact(),
        );
    };

    if ev.full_match {
        let name = state.monitors[mi].lbqid().name().to_owned();
        host.emit(
            TsEvent::LbqidMatched {
                user,
                at: at.t,
                lbqid: name,
            },
            at.t,
        );
    }

    // Algorithm 1 needs the spatio-temporal index to establish the
    // anonymity set; an unavailable index fails the request closed.
    if host.check_fault(sites::INDEX_QUERY) {
        return fail_closed_on(host, user, at, service, false, false, true)
            .expect("a faulted request always fails closed");
    }

    // Generalize with Algorithm 1.
    let (gen, step, k_req) = {
        let mut stage = hka_obs::span!(hka_obs::stage::ALGO1);
        let pattern = &state.patterns[mi];
        let (gen, step, k_req) = if pattern.selected.is_empty() {
            let k0 = params.k_at_step(0);
            (host.algo1_first(&at, user, k0, &tolerance), 0, k0)
        } else {
            let step = pattern.step;
            let k_eff = params.k_at_step(step);
            (
                host.algo1_subsequent(&at, &pattern.selected, k_eff, &tolerance),
                step,
                k_eff,
            )
        };
        stage.attr("k_req", hka_obs::Json::from(k_req as u64));
        stage.attr("k_got", hka_obs::Json::from(gen.selected.len() as u64));
        stage.attr("hk_ok", hka_obs::Json::Bool(gen.hk_anonymity));
        stage.attr("step", hka_obs::Json::from(step as u64));
        (gen, step, k_req)
    };

    if gen.hk_anonymity {
        // The fail-closed gate runs *before* the pattern state is
        // committed: a suppressed request must leave no trace in the
        // anonymity-set bookkeeping or the audit contexts.
        if let Some(denied) = fail_closed_on(host, user, at, service, true, true, faulted) {
            return denied;
        }
        let pattern = &mut state.patterns[mi];
        pattern.selected = gen.selected.clone();
        pattern.step = step + 1;
        pattern.contexts.push(gen.context);
        let disclosure = Disclosure {
            generalized: true,
            hk_ok: true,
            k_req,
            k_got: gen.selected.len(),
            lbqid: Some(state.monitors[mi].lbqid().name().to_owned()),
        };
        return forward_on(
            host,
            user,
            state.pseudonym,
            at,
            gen.context,
            service,
            disclosure,
        );
    }

    // Generalization failed: try to unlink (Section 6.1 step 2). An
    // unavailable mix-zone subsystem leaves no protection at all.
    if host.check_fault(sites::MIXZONE) {
        return fail_closed_on(host, user, at, service, false, false, true)
            .expect("a faulted request always fails closed");
    }
    let decision = {
        let mut stage = hka_obs::span!(hka_obs::stage::LINK_CHECK);
        let decision = host.try_unlink(user, &at, params.k);
        stage.attr(
            "unlinked",
            hka_obs::Json::Bool(matches!(decision, UnlinkDecision::Unlinked { .. })),
        );
        decision
    };
    match decision {
        UnlinkDecision::Unlinked { .. } => {
            change_pseudonym_on(host, user, state, at);
            // The request itself falls inside the just-activated zone:
            // service is interrupted while the crowd mixes.
            hka_obs::counter!("ts.suppressed").incr();
            host.emit(
                TsEvent::Suppressed {
                    user,
                    at: at.t,
                    reason: SuppressReason::MixZone,
                    service,
                },
                at.t,
            );
            RequestOutcome::Suppressed(SuppressReasonPub::MixZone)
        }
        UnlinkDecision::Infeasible { .. } => {
            // "The user is considered at risk of identification, and
            // notified about it."
            state.at_risk = true;
            let name = state.monitors[mi].lbqid().name().to_owned();
            hka_obs::counter!("ts.at_risk").incr();
            host.emit(
                TsEvent::AtRisk {
                    user,
                    at: at.t,
                    lbqid: name,
                },
                at.t,
            );
            match params.on_risk {
                RiskAction::Forward => {
                    // The clamped (sub-k) forward is exactly what
                    // degraded modes must not let through.
                    if let Some(denied) =
                        fail_closed_on(host, user, at, service, true, false, faulted)
                    {
                        return denied;
                    }
                    let pattern = &mut state.patterns[mi];
                    pattern.selected = gen.selected.clone();
                    pattern.step = step + 1;
                    pattern.contexts.push(gen.context);
                    let disclosure = Disclosure {
                        generalized: true,
                        hk_ok: false,
                        k_req,
                        k_got: gen.selected.len(),
                        lbqid: Some(state.monitors[mi].lbqid().name().to_owned()),
                    };
                    forward_on(
                        host,
                        user,
                        state.pseudonym,
                        at,
                        gen.context,
                        service,
                        disclosure,
                    )
                }
                RiskAction::Suppress => {
                    hka_obs::counter!("ts.suppressed").incr();
                    host.emit(
                        TsEvent::Suppressed {
                            user,
                            at: at.t,
                            reason: SuppressReason::RiskPolicy,
                            service,
                        },
                        at.t,
                    );
                    RequestOutcome::Suppressed(SuppressReasonPub::RiskPolicy)
                }
            }
        }
    }
}
