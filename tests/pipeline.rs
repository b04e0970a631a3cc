//! Cross-crate integration tests: the full workload → trusted server →
//! provider pipeline, including the Theorem-1 guarantee.

use hka::prelude::*;

/// One forwarded request: its true issuer (the ground truth only the
/// evaluation holds), what the provider received, and what it disclosed.
type Forward = (UserId, SpRequest, hka::core::Disclosure);

/// Runs a standard protected-city scenario: every commuter protected with
/// a commute LBQID at the given parameters.
fn run_city(seed: u64, days: i64, params: PrivacyParams) -> (World, TrustedServer, Vec<Forward>) {
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
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    let commuters: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        if commuters.contains(&agent.user) {
            ts.register_user(agent.user, PrivacyLevel::Custom(params));
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
    let forwards = hka::collect_forwards(&mut ts, &world);
    (world, ts, forwards)
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

/// Theorem 1, empirically: for every protected user, either the audited
/// request set of each pattern satisfies historical k-anonymity, or the
/// server notified the user of the risk (the theorem's "we can always
/// perform Unlinking" hypothesis failed).
#[test]
fn theorem1_violations_only_after_at_risk() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (world, ts, _) = run_city(seed, 14, medium());
        for u in world.commuters() {
            for (name, _matched, hk) in ts.audit_patterns(u, 4) {
                if !hk.satisfied {
                    assert!(
                        ts.is_at_risk(u),
                        "seed {seed}: user {u} pattern {name} violated HK without at-risk"
                    );
                }
            }
        }
    }
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

/// The online monitors agree with the exhaustive Definition-3 checker on
/// the *exact* (pre-generalization) request streams of protected users.
#[test]
fn full_matches_are_sound_wrt_definition3() {
    let (world, ts, _) = run_city(13, 14, medium());
    for u in world.commuters() {
        let lbqid = Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap());
        // Exact anchor request points of this user, from the workload.
        let points: Vec<StPoint> = world
            .events
            .iter()
            .filter(|e| {
                e.user == u
                    && matches!(e.kind, EventKind::Request { service } if service == ANCHOR_SERVICE)
            })
            .map(|e| e.at)
            .collect();
        let audits = ts.audit_patterns(u, 4);
        let (_, matched_online, _) = &audits[0];
        if *matched_online && ts.log().stats().pseudonym_changes == 0 {
            // Only when no reset interfered is the full stream comparable.
            assert!(
                offline::matches(&lbqid, &points),
                "user {u}: online matched but offline says no"
            );
        }
    }
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
    let forwards = hka::collect_forwards(&mut ts, &world);
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
    for u in world.commuters() {
        for (name, _m, hk) in ts.audit_patterns(u, 4) {
            assert!(
                hk.satisfied || ts.is_at_risk(u),
                "{name} violated under randomization"
            );
        }
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
