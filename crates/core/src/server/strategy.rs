//! The Section-6.1 per-request strategy, as private methods of
//! [`TrustedServer`]: the server decides each request against its own
//! store, index, mix-zones and bookkeeping, and nothing outside the
//! server can reach a step of the decision on its own.
//!
//! One gate, one forward, one suppression:
//!
//! * `clear` is the fail-closed gate (DESIGN.md §8.2). It judges the
//!   request's [`Disclosure`] against the server's mode and the faults
//!   on the request's path, and returns either the suppression or a
//!   `Cleared` — a value only the gate's rule can build.
//! * `forward` is the only producer of [`RequestOutcome::Forwarded`],
//!   and it takes a `Cleared`: the flags the gate judged are, by type,
//!   the flags that are journaled with `ts.forwarded` and returned with
//!   the outcome.
//! * `suppress` is every withheld request: the counters, the
//!   `ts.suppressed` event and the outcome.
//!
//! Every counter, span, event and ordering decision lives here once, on
//! either journal cadence; the group-vs-record differential tests pin
//! the two cadences to identical outcomes.

use super::{built, RequestOutcome, ServerMode, TrustedServer};
use crate::events::SuppressReason;
use crate::{
    algorithm1_first, algorithm1_subsequent, PrivacyParams, RiskAction, Tolerance, TsEvent,
    UnlinkDecision,
};
use gate::Cleared;
use hka_anonymity::{MsgId, Pseudonym, ServiceId, SpRequest};
use hka_faults::sites;
use hka_geo::{StBox, StPoint};
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
/// (requested k, achieved anonymity-set size). Journaled with the
/// `ts.forwarded` event and carried by [`RequestOutcome::Forwarded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disclosure {
    /// Whether the context was generalized at all.
    pub generalized: bool,
    /// Whether full historical k-anonymity held.
    pub hk_ok: bool,
    /// The k requested at this step.
    pub k_req: usize,
    /// The anonymity-set size achieved.
    pub k_got: usize,
}

impl Disclosure {
    /// An exact, non-pattern forward: no generalization, no anonymity
    /// set.
    pub fn exact() -> Self {
        Disclosure {
            generalized: false,
            hk_ok: true,
            k_req: 0,
            k_got: 0,
        }
    }
}

/// The gate's rule, kept apart so that nothing else can build a
/// [`Cleared`].
mod gate {
    use super::{Disclosure, ServerMode};

    /// A disclosure the fail-closed gate let through. Only
    /// [`Cleared::judge`] builds one, and `forward` takes nothing else.
    #[derive(Debug)]
    pub(super) struct Cleared(Disclosure);

    impl Cleared {
        /// The fail-closed rule at the forwarding boundary:
        ///
        /// * any injected fault on the request's path (`faulted`) denies
        ///   in every mode — a dropped PHL write means the protection
        ///   cannot be established;
        /// * [`ServerMode::Degraded`] additionally denies everything that
        ///   is not generalized and fully HK-anonymous (exact contexts
        ///   and sub-k clamps included): without a trustworthy audit
        ///   trail only demonstrably protected requests flow;
        /// * [`ServerMode::ReadOnly`] denies unconditionally.
        pub(super) fn judge(
            mode: ServerMode,
            disclosure: Disclosure,
            faulted: bool,
        ) -> Option<Cleared> {
            let deny = match mode {
                ServerMode::Normal => faulted,
                ServerMode::Degraded => faulted || !(disclosure.generalized && disclosure.hk_ok),
                ServerMode::ReadOnly => true,
            };
            (!deny).then_some(Cleared(disclosure))
        }

        /// The disclosure the gate judged.
        pub(super) fn disclosure(&self) -> Disclosure {
            self.0
        }
    }
}

/// What `ingest` did with one observation.
pub(super) struct Ingest {
    /// The observation, with its timestamp normalized (clamped forward
    /// onto the PHL's last timestamp if it arrived out of order).
    pub(super) at: StPoint,
    /// Whether the point landed in the store and index (`false` = an
    /// injected PHL-write fault dropped it).
    recorded: bool,
    /// Whether the move crossed into a static mix-zone.
    pub(super) entering: bool,
}

/// The request under decision: who issued it, where and when, and for
/// which service.
#[derive(Debug, Clone, Copy)]
struct Pending {
    user: UserId,
    at: StPoint,
    service: ServiceId,
}

impl TrustedServer {
    /// The last recorded PHL point for `user`, if any.
    fn phl_last(&self, user: UserId) -> Option<StPoint> {
        self.store.phl(user).and_then(|p| p.last()).copied()
    }

    /// Normalizes an out-of-order observation timestamp against the
    /// user's PHL without writing it: a regressed timestamp is clamped
    /// forward onto the last recorded one (counted in `ts.reordered`, see
    /// [`hka_trajectory::clamp_after`]) instead of panicking the
    /// time-ordered store.
    fn normalize_time(&self, user: UserId, at: StPoint) -> StPoint {
        hka_trajectory::clamp_after(self.phl_last(user), at)
    }

    /// Consults the fault plan at `site`; a fired fault is counted
    /// (`faults.injected`, `faults.<site>`) and reported as `true`.
    fn fault(&mut self, site: &str) -> bool {
        let fired = self.injector.check(site).is_some();
        if fired {
            hka_obs::counter!("faults.injected").incr();
            hka_obs::global().counter(&format!("faults.{site}")).incr();
        }
        fired
    }

    /// The service's tolerance constraints (or the default).
    fn tolerance_for(&self, service: ServiceId) -> Tolerance {
        *self
            .services
            .get(&service)
            .unwrap_or(&self.config.default_tolerance)
    }

    /// Records one observation: PHL-write fault check, store + index
    /// insert with timestamp normalization (through
    /// [`TrajectoryStore::record_with_prev`](hka_trajectory::TrajectoryStore::record_with_prev),
    /// which counts a clamp, one PHL lookup per report), static-zone
    /// crossing detection.
    ///
    /// Counted (`ts.ingested`, once written), not timed: a location
    /// report costs a few hundred nanoseconds, less than a span around
    /// it would (DESIGN.md §9.4). `decide` times a request's own ingest
    /// step as `ts.stage.ingest`.
    pub(super) fn ingest(&mut self, user: UserId, at: StPoint) -> Ingest {
        // A fault fires on the site's hit count alone, so checking before
        // the write drops the same observations as checking after it.
        if self.fault(sites::PHL_WRITE) {
            // The observation is lost before it reaches the store; the
            // forwarding boundary fails closed on the `recorded` flag.
            return Ingest {
                at: self.normalize_time(user, at),
                recorded: false,
                entering: false,
            };
        }
        let (stored, prev) = self.store.record_with_prev(user, at);
        if let Some(index) = &mut self.index {
            index.insert(user, stored);
            hka_obs::counter!("ts.index_inserts").incr();
        }
        hka_obs::counter!("ts.ingested").incr();
        let zones = &self.mixzones;
        let entering = zones.in_static_zone(&stored.pos)
            && prev.is_some_and(|prev| !zones.in_static_zone(&prev.pos));
        Ingest {
            at: stored,
            recorded: true,
            entering,
        }
    }

    /// Changes a user's pseudonym and resets all pattern state: "if
    /// unlinking succeeds … all partially matched patterns based on old
    /// pseudonym for that user are reset." Operates on the owned state
    /// (fetch-once discipline — the state may be out of the map).
    pub(super) fn change_pseudonym(&mut self, user: UserId, state: &mut UserState, at: StPoint) {
        hka_obs::counter!("ts.unlinks").incr();
        let new = self.fresh_pseudonym();
        let old = state.pseudonym;
        state.pseudonym = new;
        for m in &mut state.monitors {
            m.reset();
        }
        for p in &mut state.patterns {
            *p = PatternState::default();
        }
        state.at_risk = false;
        self.push_event(
            TsEvent::PseudonymChanged {
                user,
                old,
                new,
                at: at.t,
            },
            at.t,
        );
    }

    /// The fail-closed gate: the request goes out with `disclosure` only
    /// if [`Cleared::judge`] lets it; otherwise it is suppressed as
    /// [`SuppressReason::Degraded`].
    fn clear(
        &mut self,
        p: Pending,
        disclosure: Disclosure,
        faulted: bool,
    ) -> Result<Cleared, RequestOutcome> {
        Cleared::judge(self.mode, disclosure, faulted)
            .ok_or_else(|| self.suppress(p, SuppressReason::Degraded))
    }

    /// Withholds the request: counters, the `ts.suppressed` event, the
    /// outcome.
    fn suppress(&mut self, p: Pending, reason: SuppressReason) -> RequestOutcome {
        hka_obs::counter!("ts.suppressed").incr();
        if reason == SuppressReason::Degraded {
            hka_obs::counter!("ts.suppressed_degraded").incr();
        }
        self.push_event(
            TsEvent::Suppressed {
                user: p.user,
                at: p.at.t,
                reason,
                service: p.service,
            },
            p.at.t,
        );
        RequestOutcome::Suppressed(reason)
    }

    /// The forwarding tail: message-id allocation, anti-inference
    /// randomization of generalized contexts, counters, and the
    /// `ts.forwarded` event (naming the matched LBQID, if any). The
    /// request goes out in the outcome and nothing of it is kept.
    fn forward(
        &mut self,
        p: Pending,
        pseudonym: Pseudonym,
        context: StBox,
        lbqid: Option<&str>,
        cleared: Cleared,
    ) -> RequestOutcome {
        let mut stage = hka_obs::span!(hka_obs::stage::FORWARD);
        let disclosure = cleared.disclosure();
        let Pending { user, at, service } = p;
        stage.attr("generalized", hka_obs::Json::Bool(disclosure.generalized));
        stage.attr("service", hka_obs::Json::from(u64::from(service.0)));
        debug_assert!(context.contains(&at), "context must cover the true point");
        let msg_id = MsgId(self.next_msg);
        self.next_msg += 1;
        // Anti-inference randomization (Conclusions: "randomization should
        // be used as part of the TS strategy"): only generalized contexts
        // are perturbed — exact contexts belong to users who opted out.
        let context = match &self.randomizer {
            Some(rz) if disclosure.generalized => {
                rz.randomize(&context, &at, msg_id.0, &self.tolerance_for(service))
            }
            _ => context,
        };
        let req = SpRequest::new(msg_id, pseudonym, context, service);
        hka_obs::counter!("ts.forwarded").incr();
        if disclosure.generalized {
            hka_obs::counter!("ts.forwarded_generalized").incr();
        }
        self.push_event(
            TsEvent::Forwarded {
                user,
                at: at.t,
                context,
                generalized: disclosure.generalized,
                hk_ok: disclosure.hk_ok,
                service,
                k_req: disclosure.k_req,
                k_got: disclosure.k_got,
                lbqid: lbqid.map(str::to_owned),
            },
            at.t,
        );
        RequestOutcome::Forwarded(req, disclosure)
    }

    /// An exact forward through the gate.
    fn forward_exact(&mut self, p: Pending, pseudonym: Pseudonym, faulted: bool) -> RequestOutcome {
        match self.clear(p, Disclosure::exact(), faulted) {
            Ok(cleared) => self.forward(p, pseudonym, StBox::point(p.at), None, cleared),
            Err(denied) => denied,
        }
    }

    /// The Section-6.1 strategy over the owned per-user state — the full
    /// decision procedure for one service request: ingest the request
    /// point, match LBQID monitors, generalize with Algorithm 1, fall
    /// back to mix-zone unlinking, then notify at-risk, with the
    /// fail-closed gate in front of every forward.
    pub(super) fn decide(
        &mut self,
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
        let at = self.normalize_time(user, at);
        let already_recorded = self.phl_last(user).is_some_and(|p| p == at);
        let mut faulted = false;
        if !already_recorded {
            let ing = self.ingest(user, at);
            faulted = !ing.recorded;
            if ing.entering && state.params.is_some() {
                self.change_pseudonym(user, state, ing.at);
            }
        }
        drop(stage);
        let p = Pending { user, at, service };

        let Some(params) = state.params_for(service) else {
            // Privacy off (for this service): forward the exact context
            // — unless a fault or degraded mode forbids it.
            return self.forward_exact(p, state.pseudonym, faulted);
        };

        // Mix-zone suppression (static zones and cooling on-demand zones).
        if self.mixzones.suppressed_at(&at) {
            return self.suppress(p, SuppressReason::MixZone);
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
            return self.forward_exact(p, state.pseudonym, faulted);
        };

        if ev.full_match {
            let name = state.monitors[mi].lbqid().name().to_owned();
            self.push_event(
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
        if self.fault(sites::INDEX_QUERY) {
            return self.suppress(p, SuppressReason::Degraded);
        }

        // Generalize with Algorithm 1.
        let tolerance = self.tolerance_for(service);
        let (gen, step, k_req) = {
            let mut stage = hka_obs::span!(hka_obs::stage::ALGO1);
            let pattern = &state.patterns[mi];
            let (gen, step, k_req) = if pattern.selected.is_empty() {
                let k0 = params.k_at_step(0);
                let index = built(&mut self.index, &self.store, &self.config);
                (algorithm1_first(index, &at, user, k0, &tolerance), 0, k0)
            } else {
                let step = pattern.step;
                let k_eff = params.k_at_step(step);
                let scale = &self.config.index.scale;
                let gen = algorithm1_subsequent(
                    &self.store,
                    &at,
                    &pattern.selected,
                    k_eff,
                    &tolerance,
                    scale,
                );
                (gen, step, k_eff)
            };
            stage.attr("k_req", hka_obs::Json::from(k_req as u64));
            stage.attr("k_got", hka_obs::Json::from(gen.selected.len() as u64));
            stage.attr("hk_ok", hka_obs::Json::Bool(gen.hk_anonymity));
            stage.attr("step", hka_obs::Json::from(step as u64));
            (gen, step, k_req)
        };

        if !gen.hk_anonymity {
            // Generalization failed: try to unlink (Section 6.1 step 2).
            // An unavailable mix-zone subsystem leaves no protection at all.
            if self.fault(sites::MIXZONE) {
                return self.suppress(p, SuppressReason::Degraded);
            }
            let unlinked = {
                let mut stage = hka_obs::span!(hka_obs::stage::LINK_CHECK);
                let index = built(&mut self.index, &self.store, &self.config);
                let store = &self.store;
                let decision = self.mixzones.try_unlink(
                    |b, f| index.scan_in(b, f),
                    |u| store.phl(u),
                    user,
                    &at,
                    params.k,
                );
                let unlinked = matches!(decision, UnlinkDecision::Unlinked { .. });
                stage.attr("unlinked", hka_obs::Json::Bool(unlinked));
                unlinked
            };
            if unlinked {
                self.change_pseudonym(user, state, at);
                // The request itself falls inside the just-activated zone:
                // service is interrupted while the crowd mixes.
                return self.suppress(p, SuppressReason::MixZone);
            }
            // "The user is considered at risk of identification, and
            // notified about it."
            state.at_risk = true;
            let name = state.monitors[mi].lbqid().name().to_owned();
            hka_obs::counter!("ts.at_risk").incr();
            self.push_event(
                TsEvent::AtRisk {
                    user,
                    at: at.t,
                    lbqid: name,
                },
                at.t,
            );
            if params.on_risk == RiskAction::Suppress {
                return self.suppress(p, SuppressReason::RiskPolicy);
            }
            // `RiskAction::Forward`: the clamped (sub-k) forward goes to
            // the gate like any other, and degraded modes deny exactly it.
        }

        // The gate runs *before* the pattern state is committed: a
        // suppressed request must leave no trace in the anonymity-set
        // bookkeeping.
        let disclosure = Disclosure {
            generalized: true,
            hk_ok: gen.hk_anonymity,
            k_req,
            k_got: gen.selected.len(),
        };
        let cleared = match self.clear(p, disclosure, faulted) {
            Ok(cleared) => cleared,
            Err(denied) => return denied,
        };
        let pattern = &mut state.patterns[mi];
        pattern.selected = gen.selected;
        pattern.step = step + 1;
        let lbqid = state.monitors[mi].lbqid().name();
        self.forward(p, state.pseudonym, gen.context, Some(lbqid), cleared)
    }
}

#[cfg(test)]
mod tests {
    use super::gate::Cleared;
    use super::{Disclosure, ServerMode};

    /// DESIGN.md §8.2's rule as data: every (mode, generalized,
    /// hk_ok, faulted) and whether a forward may pass.
    #[rustfmt::skip]
    const RULE: [(ServerMode, bool, bool, bool, bool); 24] = {
        use ServerMode::{Degraded as D, Normal as N, ReadOnly as R};
        [
            // mode, generalized, hk_ok, faulted => cleared
            (N, false, false, false, true),  (N, false, false, true, false),
            (N, false, true,  false, true),  (N, false, true,  true, false),
            (N, true,  false, false, true),  (N, true,  false, true, false),
            (N, true,  true,  false, true),  (N, true,  true,  true, false),
            (D, false, false, false, false), (D, false, false, true, false),
            (D, false, true,  false, false), (D, false, true,  true, false),
            (D, true,  false, false, false), (D, true,  false, true, false),
            (D, true,  true,  false, true),  (D, true,  true,  true, false),
            (R, false, false, false, false), (R, false, false, true, false),
            (R, false, true,  false, false), (R, false, true,  true, false),
            (R, true,  false, false, false), (R, true,  false, true, false),
            (R, true,  true,  false, false), (R, true,  true,  true, false),
        ]
    };

    #[test]
    fn judge_is_the_fail_closed_table() {
        for (mode, generalized, hk_ok, faulted, cleared) in RULE {
            let disclosure = Disclosure {
                generalized,
                hk_ok,
                k_req: 5,
                k_got: 3,
            };
            let got = Cleared::judge(mode, disclosure, faulted);
            assert_eq!(
                got.is_some(),
                cleared,
                "{mode:?} generalized={generalized} hk_ok={hk_ok} faulted={faulted}"
            );
            // What passes is the disclosure judged, unchanged.
            if let Some(got) = got {
                assert_eq!(got.disclosure(), disclosure);
            }
        }
    }
}
