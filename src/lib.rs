//! # hka — Historical k-Anonymity for Location-Based Services
//!
//! A full reproduction of *Protecting Privacy Against Location-based
//! Personal Identification* (Bettini, Wang, Jajodia — VLDB SDM workshop,
//! 2005): the trusted-server architecture, location-based
//! quasi-identifiers with time-granularity recurrence formulas,
//! service-request linkability, historical k-anonymity, the
//! spatio-temporal generalization algorithm, mix-zone unlinking, the
//! provider-side adversary, the baselines the paper positions itself
//! against, and a synthetic-city workload generator to drive it all.
//!
//! ## Quick start
//!
//! ```
//! use hka::prelude::*;
//!
//! // A small world: commuters plus background crowd, one week.
//! let world = World::generate(&WorldConfig {
//!     seed: 1,
//!     days: 5,
//!     n_commuters: 5,
//!     n_roamers: 10,
//!     n_poi_regulars: 0,
//!     ..WorldConfig::default()
//! });
//!
//! // A trusted server; one commuter opts into Medium privacy with the
//! // paper's commute LBQID.
//! let mut ts = TrustedServer::new(TsConfig::default());
//! let alice = world.commuters().next().unwrap();
//! for agent in &world.agents {
//!     if agent.user == alice {
//!         ts.register_user(agent.user, PrivacyLevel::Medium);
//!     } else {
//!         ts.register_user(agent.user, PrivacyLevel::Off);
//!     }
//! }
//! ts.add_lbqid(
//!     alice,
//!     Lbqid::example_commute(
//!         world.home_of(alice).unwrap(),
//!         world.office_of(alice).unwrap(),
//!     ),
//! );
//!
//! // Drive the event stream through the server, keeping what the
//! // provider received beside each request's true issuer.
//! let forwards = hka::collect_forwards(&mut ts, &world.events);
//!
//! // Audit Theorem 1 from the provider's view: under each of Alice's
//! // pseudonyms, her generalized requests satisfy historical
//! // k-anonymity against the true trajectories, at least until the
//! // server could not protect one of them and notified her at risk.
//! for set in hk_audit(&forwards, &world.store(), 5) {
//!     assert!(set.theorem1_holds(), "{set:?}");
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geo`] | planar/space–time geometry (`Point`, `Rect`, `StBox`, …) |
//! | [`granules`] | time granularities, civil calendar, recurrence formulas |
//! | [`trajectory`] | PHLs, trajectory store, spatio-temporal grid index |
//! | [`mobility`] | the synthetic city and workload generator |
//! | [`lbqid`] | LBQID patterns, DSL, offline + online matchers |
//! | [`anonymity`] | linkability, LT-consistency, historical k-anonymity |
//! | [`core`] | the trusted server, Algorithm 1, mix-zones, adversary |
//! | [`baselines`] | Gruteser–Grunwald cloaking, actual-senders, uniform |
//! | [`obs`] | metrics, span timers, hash-chained JSONL event journal |
//! | [`faults`] | deterministic fault injection and chaos schedules |
//! | [`audit`] | offline journal replay, anonymity timelines, trade-off tables |
//! | [`gateway`] | TCP frontend serving any [`core::RequestService`] backend |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hka_anonymity as anonymity;
pub use hka_audit as audit;
pub use hka_baselines as baselines;
pub use hka_core as core;
pub use hka_faults as faults;
pub use hka_gateway as gateway;
pub use hka_geo as geo;
pub use hka_granules as granules;
pub use hka_lbqid as lbqid;
pub use hka_mobility as mobility;
pub use hka_obs as obs;
pub use hka_trajectory as trajectory;

/// Delivers `events` to `ts` in order and returns every forward, in
/// forwarding order: the request the provider received, beside its true
/// issuer and what it disclosed. The server keeps no copy of what it
/// forwarded; this is where an evaluation collects the provider's view
/// with the ground truth only the evaluation holds. Pass a world's
/// `events` whole, or a slice at a time to act between slices (as
/// [`collect_forwards_daily`] does).
pub fn collect_forwards(
    ts: &mut core::TrustedServer,
    events: &[mobility::Event],
) -> Vec<(trajectory::UserId, anonymity::SpRequest, core::Disclosure)> {
    let mut forwards = Vec::new();
    for e in events {
        match e.kind {
            mobility::EventKind::Location => ts.location_update(e.user, e.at),
            mobility::EventKind::Request { service } => {
                if let core::RequestOutcome::Forwarded(req, disclosure) =
                    ts.handle_request(e.user, e.at, anonymity::ServiceId(service))
                {
                    forwards.push((e.user, req, disclosure));
                }
            }
        }
    }
    forwards
}

/// [`collect_forwards`] a day at a time: with a policy, the server
/// compacts its history at the end of every day (each midnight after the
/// day's last event), the one place an evaluation sets that boundary.
/// Without one, it is [`collect_forwards`].
pub fn collect_forwards_daily(
    ts: &mut core::TrustedServer,
    events: &[mobility::Event],
    compact: Option<&trajectory::CompactionPolicy>,
) -> Vec<(trajectory::UserId, anonymity::SpRequest, core::Disclosure)> {
    let Some(policy) = compact else {
        return collect_forwards(ts, events);
    };
    let day_of = |e: &mobility::Event| e.at.t.0.div_euclid(geo::DAY);
    let mut forwards = Vec::new();
    for day in events.chunk_by(|a, b| day_of(a) == day_of(b)) {
        forwards.extend(collect_forwards(ts, day));
        ts.compact_history(geo::TimeSec((day_of(&day[0]) + 1) * geo::DAY), policy);
    }
    forwards
}

/// A server with the protected world registered: both services
/// (navigation, and 9e6 m² / 10 min for the anchor service), every
/// agent (commuters at `level`, everyone else off), and each
/// commuter's commute LBQID.
pub fn commuter_server(
    config: core::TsConfig,
    world: &mobility::World,
    level: core::PrivacyLevel,
) -> core::TrustedServer {
    let mut ts = core::TrustedServer::new(config);
    ts.register_service(
        anonymity::ServiceId(mobility::BACKGROUND_SERVICE),
        core::Tolerance::navigation(),
    );
    ts.register_service(
        anonymity::ServiceId(mobility::ANCHOR_SERVICE),
        core::Tolerance::new(9e6, 10 * geo::MINUTE),
    );
    let commuters: Vec<trajectory::UserId> = world.commuters().collect();
    for agent in &world.agents {
        let protected = commuters.contains(&agent.user);
        let level = if protected {
            level
        } else {
            core::PrivacyLevel::Off
        };
        ts.register_user(agent.user, level);
    }
    for &u in &commuters {
        let home = world.home_of(u).expect("a commuter has a home");
        let office = world.office_of(u).expect("a commuter has an office");
        ts.add_lbqid(u, lbqid::Lbqid::example_commute(home, office));
    }
    ts
}

/// Arrival perturbation under a fault plan: a request is dropped,
/// duplicated, or re-delivered with a stale (reordered) timestamp. With
/// no plan, or no fault fired, it arrives once as sent.
pub fn arrivals(injector: Option<&faults::FaultInjector>, at: geo::StPoint) -> Vec<geo::StPoint> {
    match injector.and_then(|inj| inj.check(faults::sites::ARRIVAL)) {
        Some(faults::FaultKind::Drop) => Vec::new(),
        Some(faults::FaultKind::Duplicate) => vec![at, at],
        Some(faults::FaultKind::Reorder) => {
            let mut late = at;
            late.t = geo::TimeSec(late.t.0.saturating_sub(300));
            vec![late]
        }
        _ => vec![at],
    }
}

/// What [`drive_chaos`] saw: every delivered request, how it ended, and
/// how many forwards broke the fail-closed invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTally {
    /// Requests delivered, duplicates included, dropped ones not.
    pub requests: u64,
    /// Requests forwarded to the provider.
    pub forwarded: u64,
    /// Requests suppressed or refused.
    pub suppressed: u64,
    /// Faults the injector fired over the run, at every site.
    pub faults_fired: u64,
    /// Forwards that broke the fail-closed invariant.
    pub violations: u64,
    /// Requests decided in Degraded mode that put their user at risk:
    /// each one a clamped, sub-k forward the gate must deny. Counted
    /// only where the gate's mode is known.
    pub degraded_at_risk: u64,
    /// The server's mode after the last event.
    pub final_mode: core::ServerMode,
}

/// Delivers `events` to `ts` under `injector`'s arrival perturbation
/// ([`arrivals`]) and judges every delivered request by the fail-closed
/// invariant (DESIGN.md §8.2): a request an injected fault touched is
/// never forwarded; Degraded mode forwards only what is generalized
/// and fully HK-anonymous; ReadOnly forwards nothing. A refused request
/// (`try_handle_request` returning `Err`) is counted as suppressed. On
/// a group journal every event ends with a commit, as after a client's
/// barrier; a commit that fails reports through the mode ladder.
pub fn drive_chaos(
    ts: &mut core::TrustedServer,
    events: &[mobility::Event],
    injector: &faults::FaultInjector,
) -> ChaosTally {
    use faults::sites;
    // Sites whose faults must fail the in-flight request closed.
    // journal.io is excluded: its effect is the mode ladder, which
    // `gate_mode` reads.
    let request_sites = [sites::PHL_WRITE, sites::INDEX_QUERY, sites::MIXZONE];
    let fired_now = || -> u64 { request_sites.iter().map(|s| injector.fired(s)).sum() };
    let group = ts.log().group_commit();
    let settle = |ts: &mut core::TrustedServer| {
        if group {
            let _ = ts.flush_journal();
        }
    };

    let mut tally = ChaosTally {
        requests: 0,
        forwarded: 0,
        suppressed: 0,
        faults_fired: 0,
        violations: 0,
        degraded_at_risk: 0,
        final_mode: core::ServerMode::Normal,
    };
    for e in events {
        let mobility::EventKind::Request { service } = e.kind else {
            ts.location_update(e.user, e.at);
            settle(ts);
            continue;
        };
        for at in arrivals(Some(injector), e.at) {
            let mode_before = ts.mode();
            let stats_before = ts.log().stats();
            let before = fired_now();
            let result = ts.try_handle_request(e.user, at, anonymity::ServiceId(service));
            let gate_mode = gate_mode(ts, mode_before, &stats_before);
            if gate_mode == Some(core::ServerMode::Degraded)
                && ts.log().stats().at_risk > stats_before.at_risk
            {
                tally.degraded_at_risk += 1;
            }
            settle(ts);
            tally.requests += 1;
            match result {
                Ok(core::RequestOutcome::Forwarded(_, disclosure)) => {
                    tally.forwarded += 1;
                    let faulted = fired_now() > before;
                    if !forward_fails_closed(gate_mode, faulted, &disclosure) {
                        tally.violations += 1;
                    }
                }
                // A refused request (the read-only ladder) is fail-closed
                // by definition.
                Ok(core::RequestOutcome::Suppressed(_)) | Err(_) => tally.suppressed += 1,
            }
        }
    }
    tally.faults_fired = injector.total_fired();
    tally.final_mode = ts.mode();
    tally
}

/// The mode a request's fail-closed gate judged it in, as far as a
/// chaos judge outside the server can tell: `before` and `stats` are
/// the server's mode and statistics read just before the request, `ts`
/// the server just after it (before anything else commits its
/// journal). `None` when it cannot tell.
///
/// The gate reads the mode that the last journal write or commit before
/// it left. A group journal's health moves only at commits, and a
/// request commits only before its gate, so there the mode after the
/// request is the gate's. On a per-record journal every record is a
/// write. A record journaled before the gate (a pseudonym change, an
/// LBQID match, an at-risk notice) can move the mode the gate reads,
/// and the request's `ts.forwarded`/`ts.suppressed` record can move it
/// again after the gate. So if the mode moved and such a record was
/// journaled, the gate's mode is unknown; if none was, every move came
/// after the gate, which read `before`.
fn gate_mode(
    ts: &core::TrustedServer,
    before: core::ServerMode,
    stats: &core::TsStats,
) -> Option<core::ServerMode> {
    let now = ts.log().stats();
    if now.mode_changes == stats.mode_changes {
        return Some(before);
    }
    if ts.log().group_commit() {
        return Some(ts.mode());
    }
    let journaled_before_gate = now.pseudonym_changes != stats.pseudonym_changes
        || now.lbqid_matches != stats.lbqid_matches
        || now.at_risk != stats.at_risk;
    (!journaled_before_gate).then_some(before)
}

/// Whether a forward kept the fail-closed invariant, judged on what it
/// disclosed. Where the gate's mode is unknown (see [`gate_mode`]) only
/// the rule on faulted requests applies.
fn forward_fails_closed(
    gate_mode: Option<core::ServerMode>,
    faulted: bool,
    disclosure: &core::Disclosure,
) -> bool {
    !faulted
        && match gate_mode {
            None | Some(core::ServerMode::Normal) => true,
            Some(core::ServerMode::Degraded) => disclosure.generalized && disclosure.hk_ok,
            Some(core::ServerMode::ReadOnly) => false,
        }
}

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use hka_anonymity::{
        anonymity_set, historical_k_anonymity, is_link_connected, link_components, lt_consistent,
        CompositeLinker, HkOutcome, Linker, MsgId, Pseudonym, PseudonymLinker, ServiceId,
        SpRequest, TrackerLinker,
    };
    pub use hka_core::adversary::{
        hk_audit, pair_attack, unlink_audit, Adversary, AttackReport, GradedSet, HomeRegistry,
        PairRegistry,
    };
    pub use hka_core::derivation::{derive_lbqids, DerivationConfig, DerivedPattern};
    pub use hka_core::planning::{evaluate_deployment, DeploymentReport, PlanningConfig};
    pub use hka_core::{
        algorithm1_first, algorithm1_first_brute, algorithm1_subsequent, parse_wire_msg,
        parse_wire_reply, CheckpointReceipt, Checkpointer, EnvelopeBody, Generalization,
        JournalHealth, MixZoneConfig, MixZoneManager, PrivacyIndicator, PrivacyLevel,
        PrivacyParams, RandomizeConfig, Randomizer, RecoveredCheckpoint, RequestEnvelope,
        RequestOutcome, RequestService, ResponseEnvelope, RetryPolicy, RiskAction, ServerMeta,
        ServerMode, Tolerance, TrustedServer, TsConfig, TsError, TsEvent, TsStats, UnlinkDecision,
        WireError, WireMsg, WireOutcome, WireReply,
    };
    pub use hka_faults::{
        checkpoint_chaos_plan, gateway_chaos_plan, randomized_plan, tail_chaos_plan, FaultInjector,
        FaultKind, FaultPlan, FaultRule, FaultyWriter, Trigger,
    };
    pub use hka_gateway::{Gateway, GatewayClient, GatewayConfig};
    pub use hka_geo::{
        DayWindow, Point, Rect, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec, DAY, HOUR,
        MINUTE, WEEK,
    };
    pub use hka_granules::{calendar::Weekday, Granularity, Recurrence};
    pub use hka_lbqid::{offline, parse_lbqid, Element, Lbqid, Monitor};
    pub use hka_mobility::{
        Agent, City, CityConfig, Event, EventKind, Role, World, WorldConfig, ANCHOR_SERVICE,
        BACKGROUND_SERVICE,
    };
    pub use hka_trajectory::io::{read_store, write_store};
    pub use hka_trajectory::{
        brute, BruteIndex, CompactionPolicy, CompactionStats, GridIndex, GridIndexConfig,
        IndexBackend, Phl, SpatialIndex, TrajectoryStore, UserId,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{Disclosure, ServerMode};

    /// The judge's table, on the disclosures the gate must tell apart:
    /// an exact forward, a clamped sub-k one, and a fully anonymous one.
    #[test]
    fn the_judge_applies_each_modes_rule() {
        let disclosure = |generalized, hk_ok| Disclosure {
            generalized,
            hk_ok,
            k_req: 4,
            k_got: if hk_ok { 4 } else { 2 },
        };
        let (exact, clamped, anonymous) = (
            Disclosure::exact(),
            disclosure(true, false),
            disclosure(true, true),
        );
        for d in [&exact, &clamped, &anonymous] {
            for mode in [None, Some(ServerMode::Normal)] {
                assert!(forward_fails_closed(mode, false, d));
            }
            for mode in [None, Some(ServerMode::Normal), Some(ServerMode::Degraded)] {
                assert!(!forward_fails_closed(mode, true, d), "faulted");
            }
            assert!(!forward_fails_closed(Some(ServerMode::ReadOnly), false, d));
        }
        let degraded = |d| forward_fails_closed(Some(ServerMode::Degraded), false, d);
        assert!(!degraded(&exact) && !degraded(&clamped) && degraded(&anonymous));
    }
}
