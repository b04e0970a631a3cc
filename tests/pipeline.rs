//! Cross-crate integration tests: the full workload → trusted server →
//! provider pipeline, including the Theorem-1 guarantee.

mod common;

use common::SharedBuf;
use hka::obs::{Journal, JournalRecord};
use hka::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One forwarded request: its true issuer (the ground truth only the
/// evaluation holds), what the provider received, and what it disclosed.
type Forward = (UserId, SpRequest, hka::core::Disclosure);

/// A standard protected-city scenario, before any event: every commuter
/// protected with a commute LBQID at the given parameters.
fn city(seed: u64, days: i64, params: PrivacyParams) -> (World, TrustedServer) {
    let world = World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: 8,
        n_roamers: 50,
        n_poi_regulars: 5,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });
    let ts = hka::commuter_server(TsConfig::default(), &world, PrivacyLevel::Custom(params));
    (world, ts)
}

/// Runs the standard scenario.
fn run_city(seed: u64, days: i64, params: PrivacyParams) -> (World, TrustedServer, Vec<Forward>) {
    let (world, mut ts) = city(seed, days, params);
    let forwards = hka::collect_forwards(&mut ts, &world.events);
    (world, ts, forwards)
}

/// The standard scenario, run on a server journaling to memory.
struct Journaled {
    world: World,
    forwards: Vec<Forward>,
    /// The journal, parsed.
    records: Vec<JournalRecord>,
    /// Each (user, pseudonym) under which the server turned the user's
    /// at-risk flag on.
    flagged: BTreeSet<(UserId, Pseudonym)>,
}

/// Runs the standard scenario journaled; with a policy, the server
/// compacts its history at the end of every day.
fn run_journaled(
    seed: u64,
    days: i64,
    params: PrivacyParams,
    compact: Option<&CompactionPolicy>,
) -> Journaled {
    let (world, mut ts) = city(seed, days, params);
    let journal = SharedBuf::default();
    ts.attach_journal(Journal::new(Box::new(journal.clone())));
    let mut current: BTreeMap<UserId, Pseudonym> = world
        .agents
        .iter()
        .map(|a| (a.user, ts.pseudonym_of(a.user).unwrap()))
        .collect();
    let forwards = hka::collect_forwards_daily(&mut ts, &world.events, compact);
    ts.flush_journal().unwrap();
    let records: Vec<JournalRecord> = String::from_utf8(journal.bytes())
        .unwrap()
        .lines()
        .map(|line| JournalRecord::parse_line(line).unwrap())
        .collect();
    let field = |r: &JournalRecord, name| r.payload.get(name).and_then(|j| j.as_int()).unwrap();
    let mut flagged = BTreeSet::new();
    for r in &records {
        let user = || UserId(field(r, "user") as u64);
        match r.kind.as_str() {
            "ts.pseudonym_changed" => {
                current.insert(user(), Pseudonym(field(r, "new") as u64));
            }
            "ts.at_risk" => {
                flagged.insert((user(), current[&user()]));
            }
            _ => {}
        }
    }
    Journaled {
        world,
        forwards,
        records,
        flagged,
    }
}

fn medium() -> PrivacyParams {
    PrivacyParams {
        k: 4,
        theta: 0.5,
        k_init: 8,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    }
}

#[test]
fn pipeline_is_deterministic() {
    let (_, a, a_out) = run_city(5, 7, medium());
    let (_, b, b_out) = run_city(5, 7, medium());
    assert_eq!(a_out, b_out);
    assert_eq!(a.log().stats(), b.log().stats());
}

#[test]
fn different_seeds_give_different_traffic() {
    let (_, _, a) = run_city(5, 3, medium());
    let (_, _, b) = run_city(6, 3, medium());
    assert_ne!(a, b);
}

/// Theorem 1, empirically, from the provider's view: every pseudonym's
/// set of generalized requests, up to its first at-risk request (the
/// theorem's "we can always perform Unlinking" hypothesis failed there),
/// satisfies historical k-anonymity against the true trajectories,
/// and the sets holding an at-risk forward are exactly those under which
/// the server turned the user's at-risk flag on. A server compacting its
/// history every midnight decides the same.
#[test]
fn theorem1_violations_only_after_at_risk() {
    let daily = CompactionPolicy::new(DAY, Granularity::Days);
    let (mut sets, mut risky) = (0, 0);
    for seed in [1u64, 2, 3, 4, 5] {
        let run = run_journaled(seed, 14, medium(), None);
        let compacted = run_journaled(seed, 14, medium(), Some(&daily));
        assert!(
            run.forwards == compacted.forwards && run.records == compacted.records,
            "seed {seed}: compaction moved an outcome"
        );
        let graded = hk_audit(&run.forwards, &run.world.store(), 4);
        for set in &graded {
            assert!(
                set.theorem1_holds(),
                "seed {seed}: {set:?} violated HK before any at-risk forward"
            );
        }
        let at_risk: BTreeSet<(UserId, Pseudonym)> = graded
            .iter()
            .filter(|set| set.risk)
            .map(|set| (set.user, set.pseudonym))
            .collect();
        assert_eq!(at_risk, run.flagged, "seed {seed}");
        sets += graded.len();
        risky += at_risk.len();
    }
    // The population exercises both sides of the theorem's hypothesis.
    assert!(risky > 0 && sets > risky, "{risky} of {sets} sets at risk");
}

/// Every forwarded context must contain the true request point — the
/// cloaking correctness invariant, checked across the whole stream.
#[test]
fn forwarded_contexts_cover_true_points() {
    let (world, _, forwards) = run_city(9, 7, medium());
    // Every context must cover some exact PHL point of its issuer.
    let store = world.store();
    for (user, req, _) in &forwards {
        let phl = store.phl(*user).expect("issuer has a PHL");
        assert!(
            phl.crosses(&req.context),
            "request {req} does not cover any point of {user}"
        );
    }
}

/// Generalized pattern requests keep the anonymity promise at the level
/// of each individual request: at least k other users cross the context.
#[test]
fn hk_ok_contexts_hold_k_witnesses() {
    let (_, ts, forwards) = run_city(10, 7, medium());
    let store = ts.store();
    let mut checked = 0;
    for (user, req, disclosure) in &forwards {
        if disclosure.generalized && disclosure.hk_ok {
            let others = store
                .users_crossing(&req.context)
                .into_iter()
                .filter(|u| u != user)
                .count();
            assert!(others >= 4, "only {others} witnesses for {user}");
            checked += 1;
        }
    }
    assert!(
        checked > 10,
        "expected a meaningful number of HK-ok requests"
    );
}

/// Tolerance constraints are honored by every generalized context.
#[test]
fn tolerances_are_hard_caps() {
    let (_, _, forwards) = run_city(11, 7, medium());
    let anchor_tol = Tolerance::new(9e6, 10 * MINUTE);
    for (_, req, _) in &forwards {
        if req.service == ServiceId(ANCHOR_SERVICE) {
            assert!(
                anchor_tol.accepts(&req.context),
                "context {} exceeds tolerance",
                req.context
            );
        }
    }
}

/// Pseudonym changes really unlink: no pseudonym is ever reused after
/// retirement, and each pseudonym maps to exactly one true user.
#[test]
fn pseudonyms_are_unique_and_single_user() {
    let (_, ts, forwards) = run_city(12, 14, medium());
    let mut owner: std::collections::HashMap<Pseudonym, UserId> = Default::default();
    for (user, req, _) in &forwards {
        let prev = owner.insert(req.pseudonym, *user);
        if let Some(prev) = prev {
            assert_eq!(prev, *user, "pseudonym {} shared", req.pseudonym);
        }
    }
    // With unlinking happening, protected users accumulate > 1 pseudonym.
    let changes = ts.log().stats().pseudonym_changes;
    if changes > 0 {
        let distinct: std::collections::BTreeSet<Pseudonym> = owner.keys().copied().collect();
        assert!(distinct.len() > ts.store().user_count() - changes);
    }
}

/// The online monitors agree with the exhaustive Definition-3 checker:
/// for each full match the journal records, the user's exact
/// (pre-generalization) requests since their last pseudonym change (a
/// change resets the monitors) match the LBQID offline.
#[test]
fn full_matches_are_sound_wrt_definition3() {
    // At k = 10 this crowd rarely unlinks, so patterns run to completion.
    let high = PrivacyParams {
        k: 10,
        k_init: 20,
        ..medium()
    };
    let run = run_journaled(13, 14, high, None);
    let world = &run.world;
    let field = |r: &JournalRecord, name| r.payload.get(name).and_then(|j| j.as_int()).unwrap();
    let mut since: BTreeMap<UserId, i64> = BTreeMap::new();
    let mut checked = 0;
    for r in &run.records {
        // Only these two kinds carry a user and an instant.
        let user = || UserId(field(r, "user") as u64);
        match r.kind.as_str() {
            "ts.pseudonym_changed" => {
                since.insert(user(), field(r, "at"));
            }
            "ts.lbqid_matched" => {
                let (user, at) = (user(), field(r, "at"));
                let from = since.get(&user).copied().unwrap_or(i64::MIN);
                let points: Vec<StPoint> = world
                    .events
                    .iter()
                    .filter(|e| e.user == user && matches!(e.kind, EventKind::Request { .. }))
                    .map(|e| e.at)
                    .filter(|p| (from..=at).contains(&p.t.0))
                    .collect();
                let lbqid = Lbqid::example_commute(
                    world.home_of(user).unwrap(),
                    world.office_of(user).unwrap(),
                );
                assert!(
                    offline::matches(&lbqid, &points),
                    "user {user}: online matched at {at} but offline says no"
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked > 0, "no full match to check");
}

/// With cloak randomization enabled, the pipeline keeps all its
/// guarantees: contexts still cover the true points, tolerances still
/// hold, and (because randomized boxes only grow before the clamp) the
/// Theorem-1 property is unaffected.
#[test]
fn randomization_preserves_guarantees() {
    let world = World::generate(&WorldConfig {
        seed: 77,
        days: 7,
        n_commuters: 6,
        n_roamers: 40,
        n_poi_regulars: 4,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });
    let mut ts = TrustedServer::new(TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    });
    let anchor_tol = Tolerance::new(9e6, 10 * MINUTE);
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), anchor_tol);
    let commuters: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        if commuters.contains(&agent.user) {
            ts.register_user(agent.user, PrivacyLevel::Custom(medium()));
        } else {
            ts.register_user(agent.user, PrivacyLevel::Off);
        }
    }
    for &u in &commuters {
        ts.add_lbqid(
            u,
            Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
        );
    }
    let forwards = hka::collect_forwards(&mut ts, &world.events);
    let store = world.store();
    let mut randomized = 0;
    for (user, req, _) in &forwards {
        assert!(store.phl(*user).unwrap().crosses(&req.context));
        if req.service == ServiceId(ANCHOR_SERVICE) && req.context.area() > 0.0 {
            assert!(anchor_tol.accepts(&req.context));
            randomized += 1;
        }
    }
    assert!(randomized > 20, "expected randomized pattern requests");
    for set in hk_audit(&forwards, &store, 4) {
        assert!(set.theorem1_holds(), "{set:?} violated under randomization");
    }
}

/// Unprotected users leak exact contexts; protected users' pattern
/// requests never do (their contexts have positive area) unless clamping
/// collapsed them (at-risk case).
#[test]
fn protection_changes_what_the_provider_sees() {
    let (world, _, forwards) = run_city(14, 7, medium());
    let commuters: Vec<UserId> = world.commuters().collect();
    let mut exact_by_unprotected = 0usize;
    let mut generalized_by_protected = 0usize;
    for (user, _, disclosure) in &forwards {
        if commuters.contains(user) {
            if disclosure.generalized {
                generalized_by_protected += 1;
            }
        } else {
            assert!(
                !disclosure.generalized,
                "unprotected users are never generalized"
            );
            exact_by_unprotected += 1;
        }
    }
    assert!(exact_by_unprotected > 100);
    assert!(generalized_by_protected > 20);
}
