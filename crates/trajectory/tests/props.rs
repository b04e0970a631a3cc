//! Differential and property tests: the grid index must agree with the
//! brute-force reference on every query.

use hka_geo::{Rect, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec};
use hka_granules::Granularity;
use hka_trajectory::{
    brute, BruteIndex, CompactionPolicy, GridIndex, GridIndexConfig, IndexBackend, Phl,
    SpatialIndex, TrajectoryStore, UnionIndex, UserId,
};
use proptest::prelude::*;

/// A compact world so that collisions and ties are common.
fn arb_stpoint() -> impl Strategy<Value = StPoint> {
    (0.0f64..1000.0, 0.0f64..1000.0, 0i64..3600)
        .prop_map(|(x, y, t)| StPoint::xyt(x, y, TimeSec(t)))
}

fn arb_store(max_users: usize, max_pts: usize) -> impl Strategy<Value = TrajectoryStore> {
    prop::collection::vec(
        (
            0u64..max_users as u64,
            prop::collection::vec(arb_stpoint(), 1..max_pts),
        ),
        1..max_users,
    )
    .prop_map(|users| {
        // Duplicate user ids are possible: merge their points first so
        // that the store's time-ordering invariant holds.
        let mut merged: std::collections::BTreeMap<u64, Vec<StPoint>> =
            std::collections::BTreeMap::new();
        for (uid, pts) in users {
            merged.entry(uid).or_default().extend(pts);
        }
        let mut store = TrajectoryStore::new();
        for (uid, pts) in merged {
            let phl = Phl::from_points(pts);
            for p in phl.points() {
                store.record(UserId(uid), *p);
            }
        }
        store
    })
}

fn configs() -> impl Strategy<Value = GridIndexConfig> {
    (10.0f64..400.0, 10i64..1200, 0.1f64..20.0).prop_map(|(cs, cd, v)| GridIndexConfig {
        cell_size: cs,
        cell_duration: cd,
        scale: SpaceTimeScale::new(v),
    })
}

fn arb_box() -> impl Strategy<Value = StBox> {
    (arb_stpoint(), arb_stpoint())
        .prop_map(|(a, b)| StBox::new(Rect::new(a.pos, b.pos), TimeInterval::new(a.t, b.t)))
}

/// The specification the union index is held to: an exhaustive scan
/// over the merged (user-disjoint) shard stores.
fn brute_over(stores: &[TrajectoryStore], cfg: &GridIndexConfig) -> BruteIndex {
    let mut merged = TrajectoryStore::new();
    for (u, phl) in stores.iter().flat_map(|s| s.iter()) {
        for p in phl.points() {
            merged.record(u, *p);
        }
    }
    BruteIndex::build(&merged, cfg.scale)
}

/// One step of the sharded ingest lifecycle, as seen by the union index.
#[derive(Debug, Clone)]
enum UnionOp {
    /// An in-order location update on the owning shard.
    Record { u: u64, x: f64, y: f64, dt: i64 },
    /// An out-of-order update whose timestamp the ingest path clamps
    /// forward onto the user's latest observation (`record_clamped`).
    Regress { u: u64, x: f64, y: f64, back: i64 },
    /// A protected request reads the union (rebuilding it if dead).
    Query,
    /// History compaction: per-shard compact and union invalidation —
    /// exactly the sharded `compact_history` order.
    Compact { keep: i64 },
}

fn arb_union_op() -> impl Strategy<Value = UnionOp> {
    // Weighted mix: mostly records, a sprinkle of clamped regressions
    // and reads, occasional compaction.
    (0u32..11, 0u64..8, 0.0f64..1000.0, 0.0f64..1000.0, 1i64..600).prop_map(|(kind, u, x, y, a)| {
        match kind {
            0..=4 => UnionOp::Record {
                u,
                x,
                y,
                dt: a % 120,
            },
            5 | 6 => UnionOp::Regress { u, x, y, back: a },
            7..=9 => UnionOp::Query,
            _ => UnionOp::Compact { keep: 60 + a % 540 },
        }
    })
}

/// A lattice world for the regimes the top-k selection and the ring walk
/// have to get exactly right: coordinates on a 5 m grid around the origin
/// (negative ones included) and three bursts of timestamps with empty
/// slabs between them, so exact distance ties — between users, and
/// between one user's observations — are the rule, not the exception.
fn arb_lattice_point() -> impl Strategy<Value = StPoint> {
    (-6i64..=6, -6i64..=6, 0usize..3, 0i64..=4).prop_map(|(x, y, burst, t)| {
        StPoint::xyt(
            5.0 * x as f64,
            5.0 * y as f64,
            TimeSec([0, 2_000, 9_000][burst] + 5 * t),
        )
    })
}

/// Up to ten users, from a single observation to hundreds each.
fn arb_lattice_store() -> impl Strategy<Value = TrajectoryStore> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(arb_lattice_point(), 1..3),
            prop::collection::vec(arb_lattice_point(), 1..8),
            prop::collection::vec(arb_lattice_point(), 100..300),
        ],
        1..10,
    )
    .prop_map(|users| {
        let mut store = TrajectoryStore::new();
        for (uid, pts) in users.into_iter().enumerate() {
            for p in Phl::from_points(pts).points() {
                store.record(UserId(uid as u64), *p);
            }
        }
        store
    })
}

fn lattice_configs() -> impl Strategy<Value = GridIndexConfig> {
    (0usize..3, 0usize..2, 0usize..3).prop_map(|(cs, cd, v)| GridIndexConfig {
        cell_size: [5.0, 10.0, 35.0][cs],
        cell_duration: [5, 60][cd],
        scale: SpaceTimeScale::new([0.0, 0.5, 1.0][v]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Grid ≡ brute — users, order and representative points — where
    /// ties at the k-th distance, improve-in-place, eviction and return,
    /// scarce crowds (`k` up to well past the population), time that
    /// costs nothing (`meters_per_second = 0`) and empty slabs all occur.
    #[test]
    fn k_nearest_agrees_exactly_on_a_lattice_of_ties(
        store in arb_lattice_store(),
        cfg in lattice_configs(),
        seed in arb_lattice_point(),
        k in 1usize..12,
        excl in 0u64..10,
    ) {
        // Larger ids first, so that inside a cell the smaller id of a tie
        // is the one that arrives late.
        let mut grid = GridIndex::new(cfg);
        for (user, phl) in store.iter().collect::<Vec<_>>().into_iter().rev() {
            for p in phl.points() {
                grid.insert(user, *p);
            }
        }
        for exclude in [None, Some(UserId(excl))] {
            prop_assert_eq!(
                grid.k_nearest_users(&seed, k, exclude),
                brute::k_nearest_users(&store, &seed, k, exclude, &cfg.scale),
                "k={} exclude={:?}", k, exclude
            );
        }
    }

}

/// Every observation of `store`, in the four insertion orders the grid's
/// two tiers must be indifferent to: time order (live ingestion), user
/// order (bulk build and restore), reverse time order, and oldest and
/// newest alternating (every old point lands in an already-sealed slab).
fn insertion_orders(store: &TrajectoryStore) -> [(&'static str, Vec<(UserId, StPoint)>); 4] {
    let by_user: Vec<(UserId, StPoint)> = store
        .iter()
        .flat_map(|(u, phl)| phl.points().iter().map(move |p| (u, *p)))
        .collect();
    let mut by_time = by_user.clone();
    by_time.sort_by_key(|(_, p)| p.t);
    let reverse: Vec<_> = by_time.iter().rev().copied().collect();
    let n = by_time.len();
    let alternating = (0..n)
        .map(|i| by_time[if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 }])
        .collect();
    [
        ("time", by_time),
        ("user", by_user),
        ("reverse time", reverse),
        ("alternating", alternating),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sealing and merging move observations between tiers, never change
    /// an answer: grid ≡ brute on all three queries whatever the order
    /// the observations arrived in, and for the bulk build, which lays
    /// the sealed slabs out directly.
    #[test]
    fn insertion_order_never_changes_an_answer(
        store in prop_oneof![arb_lattice_store(), arb_store(12, 40)],
        cfg in prop_oneof![lattice_configs(), configs()],
        seed in prop_oneof![arb_lattice_point(), arb_stpoint()],
        b in arb_box(),
        k in 1usize..12,
    ) {
        let oracle = BruteIndex::build(&store, cfg.scale);
        let inserted = insertion_orders(&store).map(|(order, points)| {
            let mut grid = GridIndex::new(cfg);
            for (u, p) in &points {
                grid.insert(*u, *p);
            }
            (order, grid)
        });
        for (order, grid) in inserted.into_iter().chain([("bulk build", GridIndex::build(&store, cfg))]) {
            prop_assert_eq!(grid.len(), oracle.len(), "{}", order);
            for exclude in [None, Some(UserId(0))] {
                prop_assert_eq!(
                    grid.k_nearest_users(&seed, k, exclude),
                    oracle.k_nearest_users(&seed, k, exclude),
                    "{} k={} exclude={:?}", order, k, exclude
                );
            }
            prop_assert_eq!(grid.users_crossing(&b), oracle.users_crossing(&b), "{}", order);
            for limit in [1usize, 3, usize::MAX] {
                prop_assert_eq!(
                    grid.count_users_crossing(&b, limit),
                    oracle.count_users_crossing(&b, limit),
                    "{} limit={}", order, limit
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn users_crossing_matches_brute(store in arb_store(12, 15), cfg in configs(), b in arb_box()) {
        let idx = GridIndex::build(&store, cfg);
        let fast = idx.users_crossing(&b);
        let slow = brute::users_crossing(&store, &b);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn count_users_matches_cardinality(store in arb_store(12, 15), cfg in configs(), b in arb_box()) {
        let idx = GridIndex::build(&store, cfg);
        let n = idx.users_crossing(&b).len();
        prop_assert_eq!(idx.count_users_crossing(&b, usize::MAX), n);
        // The limited variant saturates at the limit.
        if n >= 2 {
            prop_assert_eq!(idx.count_users_crossing(&b, 2), 2);
        }
    }

    #[test]
    fn k_nearest_matches_brute_distances(
        store in arb_store(12, 15),
        cfg in configs(),
        seed in arb_stpoint(),
        k in 1usize..8,
    ) {
        let idx = GridIndex::build(&store, cfg);
        let fast = idx.k_nearest_users(&seed, k, None);
        let slow = brute::k_nearest_users(&store, &seed, k, None, &cfg.scale);
        prop_assert_eq!(fast.len(), slow.len());
        // Distances must agree (the identity of equidistant users may not).
        for (f, s) in fast.iter().zip(slow.iter()) {
            let df = cfg.scale.dist_sq(&seed, &f.1);
            let ds = cfg.scale.dist_sq(&seed, &s.1);
            prop_assert!((df - ds).abs() <= 1e-6 * ds.max(1.0),
                "index dist {} vs brute dist {}", df, ds);
        }
        // Distinct users only.
        let mut ids: Vec<UserId> = fast.iter().map(|(u, _)| *u).collect();
        ids.dedup();
        prop_assert_eq!(ids.len(), fast.len());
    }

    #[test]
    fn k_nearest_respects_exclusion(
        store in arb_store(8, 10),
        cfg in configs(),
        seed in arb_stpoint(),
        k in 1usize..6,
        excl in 0u64..8,
    ) {
        let idx = GridIndex::build(&store, cfg);
        let got = idx.k_nearest_users(&seed, k, Some(UserId(excl)));
        prop_assert!(got.iter().all(|(u, _)| *u != UserId(excl)));
    }

    /// The index contract: the grid, driven purely through the
    /// `SpatialIndex` trait, returns the brute oracle's anonymity sets
    /// (`users_crossing`), co-location counts (including the early-exit
    /// variant), and k-nearest rankings. Answers must match
    /// **exactly** — users, and the representative points themselves:
    /// the canonical equal-distance tie rule (smallest `(t, x, y)`
    /// among a user's exactly equidistant observations) makes the
    /// representative point scan-order-independent, so byte equality
    /// holds across backends, insertion orders, and partition layouts.
    #[test]
    fn backends_agree_through_the_trait(
        store in arb_store(12, 15),
        cfg in configs(),
        b in arb_box(),
        seed in arb_stpoint(),
        k in 1usize..8,
    ) {
        let oracle = IndexBackend::Brute.build(&store, cfg);
        let want_set = oracle.users_crossing(&b);
        let want_knn = oracle.k_nearest_users(&seed, k, None);
        let idx = IndexBackend::Grid.build(&store, cfg);
        prop_assert_eq!(idx.backend(), IndexBackend::Grid);
        prop_assert_eq!(idx.len(), store.total_points());
        prop_assert_eq!(idx.users_crossing(&b), want_set, "anonymity set");
        for limit in [0usize, 1, 3, usize::MAX] {
            prop_assert_eq!(
                idx.count_users_crossing(&b, limit),
                oracle.count_users_crossing(&b, limit),
                "co-location count at limit {}", limit
            );
        }
        prop_assert_eq!(idx.k_nearest_users(&seed, k, None), want_knn, "kNN answer");
        // Exclusion is part of the contract too (Algorithm 1 always
        // excludes the requester).
        prop_assert_eq!(
            idx.k_nearest_users(&seed, k, Some(UserId(0))),
            oracle.k_nearest_users(&seed, k, Some(UserId(0))),
            "excluding kNN answer"
        );
    }

    /// Bulk build and incremental insert are interchangeable for both
    /// backends — the TS ingests online, benches bulk-load.
    #[test]
    fn incremental_insert_matches_bulk_build(
        store in arb_store(10, 12),
        cfg in configs(),
        seed in arb_stpoint(),
        k in 1usize..6,
    ) {
        for backend in IndexBackend::ALL {
            let built = backend.build(&store, cfg);
            let mut incr = backend.make(cfg);
            for (u, phl) in store.iter() {
                for p in phl.points() {
                    incr.insert(u, *p);
                }
            }
            prop_assert_eq!(built.len(), incr.len(), "{}", backend);
            let a = built.k_nearest_users(&seed, k, None);
            let b = incr.k_nearest_users(&seed, k, None);
            prop_assert_eq!(a.len(), b.len(), "{}", backend);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.0, y.0, "{}", backend);
                prop_assert_eq!(
                    cfg.scale.dist_sq(&seed, &x.1).to_bits(),
                    cfg.scale.dist_sq(&seed, &y.1).to_bits(),
                    "{}", backend
                );
            }
        }
    }

    /// The incremental union survives any interleaving of in-order
    /// inserts, clamped re-timestamps, reads, and history compaction:
    /// at every read its answers are byte-identical to the brute
    /// oracle's over the merged shard stores.
    #[test]
    fn incremental_union_equals_fresh_union_under_interleaving(
        ops in prop::collection::vec(arb_union_op(), 1..60),
        cfg in configs(),
        shards in 1usize..5,
        seed in arb_stpoint(),
        k in 1usize..8,
    ) {
        let mut stores: Vec<TrajectoryStore> =
            (0..shards).map(|_| TrajectoryStore::new()).collect();
        let mut union = UnionIndex::new(IndexBackend::Grid, cfg);
        let mut clock = 0i64;
        let mut last: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();

        // Re-derive per-user clamp floors from the stores (needed after
        // compaction rewrites old observations into granule medoids).
        fn reset_floors(
            stores: &[TrajectoryStore],
            last: &mut std::collections::HashMap<u64, i64>,
        ) {
            last.clear();
            for s in stores {
                for (u, phl) in s.iter() {
                    if let Some(p) = phl.last() {
                        last.insert(u.raw(), p.t.0);
                    }
                }
            }
        }

        for op in &ops {
            match op {
                UnionOp::Record { u, x, y, dt } => {
                    clock += dt;
                    let t = clock.max(last.get(u).copied().unwrap_or(i64::MIN));
                    let p = StPoint::xyt(*x, *y, TimeSec(t));
                    stores[(*u as usize) % shards].record(UserId(*u), p);
                    union.insert(UserId(*u), p);
                    last.insert(*u, t);
                }
                UnionOp::Regress { u, x, y, back } => {
                    let raw = clock - back;
                    let floor = last.get(u).copied().unwrap_or(i64::MIN);
                    let eff = raw.max(floor);
                    let clamped = stores[(*u as usize) % shards]
                        .record_clamped(UserId(*u), StPoint::xyt(*x, *y, TimeSec(raw)));
                    prop_assert_eq!(clamped, raw < floor, "clamp detection");
                    // The insert carries the post-clamp timestamp, just as
                    // the ingest path normalizes before recording.
                    union.insert(UserId(*u), StPoint::xyt(*x, *y, TimeSec(eff)));
                    last.insert(*u, eff);
                }
                UnionOp::Query => {
                    if !union.is_live() {
                        union.rebuild(stores.iter());
                    }
                    let oracle = brute_over(&stores, &cfg);
                    prop_assert_eq!(
                        union.k_nearest_users(&seed, k, None),
                        oracle.k_nearest_users(&seed, k, None),
                        "kNN at a read"
                    );
                    prop_assert_eq!(
                        union.k_nearest_users(&seed, k, Some(UserId(0))),
                        oracle.k_nearest_users(&seed, k, Some(UserId(0))),
                        "excluding kNN at a read"
                    );
                    prop_assert_eq!(union.len(), oracle.len());
                }
                UnionOp::Compact { keep } => {
                    // Sharded compact_history order: compact every
                    // shard, invalidate the union.
                    let policy = CompactionPolicy::new(*keep, Granularity::Minutes);
                    for s in stores.iter_mut() {
                        s.compact(TimeSec(clock), &policy);
                    }
                    union.invalidate();
                    prop_assert!(!union.is_live());
                    reset_floors(&stores, &mut last);
                }
            }
        }

        // A final read: whatever state the schedule left behind must
        // still converge to the fresh union.
        if !union.is_live() {
            union.rebuild(stores.iter());
        }
        let oracle = brute_over(&stores, &cfg);
        prop_assert_eq!(
            union.k_nearest_users(&seed, k, None),
            oracle.k_nearest_users(&seed, k, None),
            "kNN at the final read"
        );
        prop_assert_eq!(
            union.k_nearest_users(&seed, k, Some(UserId(0))),
            oracle.k_nearest_users(&seed, k, Some(UserId(0))),
            "excluding kNN at the final read"
        );
        prop_assert_eq!(union.len(), oracle.len());
    }

    #[test]
    fn trace_io_round_trips(store in arb_store(10, 12)) {
        let mut buf = Vec::new();
        hka_trajectory::io::write_store(&store, &mut buf).unwrap();
        let back = hka_trajectory::io::read_store(buf.as_slice()).unwrap();
        prop_assert_eq!(back.user_count(), store.user_count());
        prop_assert_eq!(back.total_points(), store.total_points());
        for (u, phl) in store.iter() {
            prop_assert_eq!(back.phl(u).unwrap().points(), phl.points());
        }
    }

    #[test]
    fn phl_nearest_matches_scan(pts in prop::collection::vec(arb_stpoint(), 1..40), q in arb_stpoint(), v in 0.0f64..20.0) {
        let phl = Phl::from_points(pts);
        let scale = SpaceTimeScale::new(v);
        let fast = phl.nearest_point(&q, &scale).unwrap();
        let best = phl
            .points()
            .iter()
            .map(|p| scale.dist_sq(&q, p))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((scale.dist_sq(&q, &fast) - best).abs() <= 1e-9 * best.max(1.0));
    }

    #[test]
    fn phl_crosses_iff_some_point_inside(pts in prop::collection::vec(arb_stpoint(), 1..40), b in arb_box()) {
        let phl = Phl::from_points(pts);
        let expected = phl.points().iter().any(|p| b.contains(p));
        prop_assert_eq!(phl.crosses(&b), expected);
    }

    #[test]
    fn position_at_stays_in_mbr(pts in prop::collection::vec(arb_stpoint(), 2..20), f in 0.0f64..1.0) {
        let phl = Phl::from_points(pts);
        let t0 = phl.first().unwrap().t;
        let t1 = phl.last().unwrap().t;
        let t = t0 + ((t1 - t0) as f64 * f) as i64;
        let pos = phl.position_at(t).unwrap();
        let mbr = Rect::mbr(phl.points().iter().map(|p| &p.pos)).unwrap().buffer(1e-9);
        prop_assert!(mbr.contains(&pos));
    }
}
