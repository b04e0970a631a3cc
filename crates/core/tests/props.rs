//! Property tests for the trusted-server machinery: Algorithm-1
//! postconditions, randomization invariants, policy schedules and
//! mix-zone bookkeeping.

use hka_core::{
    algorithm1_first, algorithm1_first_brute, algorithm1_subsequent, PrivacyParams,
    RandomizeConfig, Randomizer, RiskAction, Tolerance,
};
use hka_geo::{SpaceTimeScale, StBox, StPoint, TimeSec};
use hka_trajectory::{GridIndex, GridIndexConfig, IndexBackend, Phl, TrajectoryStore, UserId};
use proptest::prelude::*;

fn arb_stpoint() -> impl Strategy<Value = StPoint> {
    (0.0f64..2_000.0, 0.0f64..2_000.0, 0i64..7_200)
        .prop_map(|(x, y, t)| StPoint::xyt(x, y, TimeSec(t)))
}

fn arb_store(max_users: u64) -> impl Strategy<Value = TrajectoryStore> {
    prop::collection::btree_map(
        0..max_users,
        prop::collection::vec(arb_stpoint(), 1..12),
        1..max_users as usize,
    )
    .prop_map(|m| {
        let mut store = TrajectoryStore::new();
        for (u, pts) in m {
            let phl = Phl::from_points(pts);
            for p in phl.points() {
                store.record(UserId(u), *p);
            }
        }
        store
    })
}

fn arb_tolerance() -> impl Strategy<Value = Tolerance> {
    (0.0f64..5e6, 0i64..3_600).prop_map(|(a, d)| Tolerance::new(a, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 postconditions, first branch: the emitted context
    /// always covers the true request point and always satisfies the
    /// tolerance; on success it covers the selected users' PHL points.
    #[test]
    fn algorithm1_first_postconditions(
        store in arb_store(10),
        seed in arb_stpoint(),
        k in 0usize..8,
        tolerance in arb_tolerance(),
    ) {
        let index = GridIndex::build(&store, GridIndexConfig {
            cell_size: 200.0,
            cell_duration: 600,
            scale: SpaceTimeScale::new(1.0),
        });
        let g = algorithm1_first(&index, &seed, UserId(0), k, &tolerance);
        prop_assert!(g.context.contains(&seed));
        prop_assert!(tolerance.accepts(&g.context) || g.hk_anonymity,
            "a context violating tolerance must be reported as failure");
        prop_assert!(tolerance.accepts(&g.context),
            "emitted context must respect tolerance after clamping");
        prop_assert!(g.selected.len() <= k);
        if g.hk_anonymity {
            prop_assert_eq!(g.selected.len(), k.min(g.selected.len()).max(if k == 0 {0} else {k}));
            // Every selected user's PHL crosses the context.
            for u in &g.selected {
                prop_assert!(store.phl(*u).unwrap().crosses(&g.context),
                    "selected {} must cross the context", u);
            }
        }
        prop_assert!(!g.selected.contains(&UserId(0)), "requester excluded");
    }

    /// Index-backed and brute-force first branches agree on distances
    /// (hence on HK-anonymity and box size).
    #[test]
    fn algorithm1_first_matches_brute(
        store in arb_store(10),
        seed in arb_stpoint(),
        k in 1usize..6,
    ) {
        let scale = SpaceTimeScale::new(1.0);
        let index = GridIndex::build(&store, GridIndexConfig {
            cell_size: 150.0,
            cell_duration: 300,
            scale,
        });
        let loose = Tolerance::new(f64::MAX, i64::MAX);
        let a = algorithm1_first(&index, &seed, UserId(0), k, &loose);
        let b = algorithm1_first_brute(&store, &seed, UserId(0), k, &loose, &scale);
        prop_assert_eq!(a.hk_anonymity, b.hk_anonymity);
        prop_assert_eq!(a.selected.len(), b.selected.len());
        // Equal k-th distances imply equal bounding volumes up to ties;
        // compare the distance multisets.
        let da: Vec<f64> = a.selected.iter().map(|u| {
            scale.dist_sq(&seed, &store.phl(*u).unwrap().nearest_point(&seed, &scale).unwrap())
        }).collect();
        let db: Vec<f64> = b.selected.iter().map(|u| {
            scale.dist_sq(&seed, &store.phl(*u).unwrap().nearest_point(&seed, &scale).unwrap())
        }).collect();
        for (x, y) in da.iter().zip(db.iter()) {
            prop_assert!((x - y).abs() <= 1e-6 * y.max(1.0), "{} vs {}", x, y);
        }
    }

    /// The grid index and the brute-force specification, driven through
    /// the `SpatialIndex` trait by the *same* `algorithm1_first` code,
    /// produce the identical generalization: same anonymity set, same
    /// HK-anonymity verdict, same `⟨Area, TimeInterval⟩` — under loose
    /// and tight tolerances alike. This is the server-level face of the
    /// differential equivalence suite.
    #[test]
    fn algorithm1_first_equivalent_across_backends(
        store in arb_store(10),
        seed in arb_stpoint(),
        k in 0usize..7,
        tolerance in arb_tolerance(),
    ) {
        let cfg = GridIndexConfig {
            cell_size: 150.0,
            cell_duration: 300,
            scale: SpaceTimeScale::new(1.0),
        };
        let oracle = IndexBackend::Brute.build(&store, cfg);
        let want = algorithm1_first(oracle.as_ref(), &seed, UserId(0), k, &tolerance);
        let grid = IndexBackend::Grid.build(&store, cfg);
        let got = algorithm1_first(grid.as_ref(), &seed, UserId(0), k, &tolerance);
        prop_assert_eq!(&got, &want, "grid vs brute oracle");
    }

    /// Subsequent branch: selection is always a subset of the stored
    /// users, at most k of them, and the context covers the survivors.
    #[test]
    fn algorithm1_subsequent_shrinks_monotonically(
        store in arb_store(10),
        seed in arb_stpoint(),
        k in 1usize..6,
    ) {
        let scale = SpaceTimeScale::new(1.0);
        let stored: Vec<UserId> = store.users().collect();
        let loose = Tolerance::new(f64::MAX, i64::MAX);
        let g = algorithm1_subsequent(&store, &seed, &stored, k, &loose, &scale);
        prop_assert!(g.selected.len() <= k);
        prop_assert!(g.selected.iter().all(|u| stored.contains(u)));
        for u in &g.selected {
            prop_assert!(store.phl(*u).unwrap().crosses(&g.context));
        }
        prop_assert!(g.context.contains(&seed));
    }

    /// The k′ schedule is monotone non-increasing and floors at k.
    #[test]
    fn k_schedule_monotone(k in 1usize..20, extra in 0usize..30, dec in 0usize..6, step in 0usize..50) {
        let p = PrivacyParams {
            k,
            theta: 0.5,
            k_init: k + extra,
            k_decrement: dec,
            on_risk: RiskAction::Forward,
        };
        prop_assert!(p.k_at_step(step) >= p.k_at_step(step + 1));
        prop_assert!(p.k_at_step(step) >= k);
        prop_assert!(p.k_at_step(0) == k + extra);
        if dec > 0 {
            prop_assert!(p.k_at_step(1_000) == k, "a positive decrement reaches the floor");
        } else {
            prop_assert!(p.k_at_step(1_000) == k + extra, "no decrement, no decay");
        }
    }

    /// Randomization never loses the true point, never shrinks below the
    /// input box pre-clamp (with shift disabled), respects tolerance, and
    /// is deterministic per (secret, nonce).
    #[test]
    fn randomizer_invariants(
        seed in arb_stpoint(),
        w in 0.0f64..500.0,
        h in 0.0f64..500.0,
        d in 0i64..1_200,
        fx in 0.0f64..=1.0,
        fy in 0.0f64..=1.0,
        ft in 0.0f64..=1.0,
        nonce in 0u64..1_000,
        secret in 0u64..1_000,
    ) {
        // A box positioned so that `seed` is inside at fractions (fx,fy,ft).
        let rect = hka_geo::Rect::from_bounds(
            seed.pos.x - fx * w,
            seed.pos.y - fy * h,
            seed.pos.x + (1.0 - fx) * w,
            seed.pos.y + (1.0 - fy) * h,
        );
        let span = hka_geo::TimeInterval::new(
            seed.t - (ft * d as f64) as i64,
            seed.t + ((1.0 - ft) * d as f64) as i64,
        );
        let b = StBox::new(rect, span);
        prop_assume!(b.contains(&seed));
        let tolerance = Tolerance::new(1e9, 100_000);
        let rz = Randomizer::new(RandomizeConfig { secret, ..RandomizeConfig::default() });
        let out = rz.randomize(&b, &seed, nonce, &tolerance);
        prop_assert!(out.contains(&seed));
        prop_assert!(tolerance.accepts(&out));
        prop_assert_eq!(out, rz.randomize(&b, &seed, nonce, &tolerance));
        // Growth only: the jitter never slides the box off a witness
        // (`b` is always within this tolerance).
        prop_assert!(out.contains_box(&b));
    }
}
