//! **T3 — Algorithm 1's expensive step: O(k·n) brute force vs the index.**
//!
//! Section 6.2: "The most time consuming step is the one at line 5. This
//! can be performed using a brute-force algorithm by simply considering
//! the nearest neighbor in the PHL of each user and then taking the
//! closest k points. In this case, the worst case complexity of this step
//! is O(k·n) where n is the number of location points in the TS.
//! Optimizations may be inspired by the work on indexing moving objects."
//!
//! We grow n (total location points) by lengthening the simulation and
//! population, and time the first-element branch under the grid index
//! and under the brute-force scan over the same query sample — both run
//! the *same* `algorithm1_first` code through the
//! [`SpatialIndex`](hka_trajectory::SpatialIndex) trait, so the timing
//! difference is purely the index structure. The
//! scaling exponent is estimated from successive size doublings. Each
//! row also reports what each index holds resident, in heap bytes per
//! point (`SpatialIndex::heap_bytes`, from capacities).
//!
//! Two gates make the table a regression check as well: before timing,
//! every sampled query's grid result is checked against the brute
//! oracle's, and at the largest rung (~4M points) the grid's median may
//! not be slower than brute's. Either failure exits 1.
//!
//! ```text
//! cargo run --release -p hka-bench --bin table3_index_scaling
//! ```

use hka_bench::{median, time_ns, Cell, Report};
use hka_core::{algorithm1_first, Tolerance};
use hka_geo::StPoint;
use hka_mobility::{CityConfig, EventKind, World, WorldConfig};
use hka_trajectory::{GridIndexConfig, IndexBackend, UserId};

fn main() {
    let backends = IndexBackend::ALL;
    let k = 5usize;
    let tolerance = Tolerance::new(f64::MAX, i64::MAX);
    let mut columns = vec!["n points".to_string(), "users".to_string()];
    for b in &backends {
        columns.push(format!("{b} µs"));
    }
    for b in &backends {
        columns.push(format!("{b}×"));
    }
    for b in &backends {
        columns.push(format!("{b} B/pt"));
    }
    let column_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "T3",
        "Algorithm 1 line 5 — O(k·n) brute force vs the grid index",
    )
    .columns(&column_refs);

    let sizes = [(20usize, 1i64), (40, 2), (80, 4), (160, 8), (540, 8)];
    let mut prev: Option<[f64; 2]> = None;
    for (users, days) in sizes {
        let world = World::generate(&WorldConfig {
            seed: 77,
            days,
            sample_interval: 60,
            n_commuters: users / 4,
            n_roamers: users / 2,
            n_poi_regulars: users / 4,
            city: CityConfig {
                width: 2_000.0,
                height: 2_000.0,
                ..CityConfig::default()
            },
            background_request_rate: 0.0,
            ..WorldConfig::default()
        });
        let store = world.store();
        let indices = backends.map(|b| b.build(&store, GridIndexConfig::default()));
        let n = store.total_points();

        // A fixed sample of query situations.
        let queries: Vec<(UserId, StPoint)> = world
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Location)
            .step_by((world.events.len() / 50).max(1))
            .map(|e| (e.user, e.at))
            .take(40)
            .collect();

        // A wrong-but-fast index fails the table, not the chart.
        let [grid, oracle] = &indices;
        for (u, q) in &queries {
            let got = algorithm1_first(grid.as_ref(), q, *u, k, &tolerance);
            if got != algorithm1_first(oracle.as_ref(), q, *u, k, &tolerance) {
                eprintln!("FAIL: grid diverged from brute oracle at n={n} user={u:?} query={q:?}");
                std::process::exit(1);
            }
        }

        let micros = indices.each_ref().map(|index| {
            let samples: Vec<f64> = queries
                .iter()
                .map(|(u, q)| {
                    time_ns(3, || {
                        std::hint::black_box(algorithm1_first(
                            index.as_ref(),
                            q,
                            *u,
                            k,
                            &tolerance,
                        ));
                    })
                })
                .collect();
            median(&samples) / 1_000.0
        });

        let growth = match prev {
            Some(p) => [micros[0] / p[0], micros[1] / p[1]],
            None => [1.0; 2],
        };
        let mut row = vec![Cell::int(n as i64), Cell::int(store.user_count() as i64)];
        row.extend(micros.iter().map(|m| Cell::num(*m, 1)));
        row.extend(growth.iter().map(|g| Cell::num(*g, 2)));
        row.extend(
            indices
                .iter()
                .map(|index| Cell::num(index.heap_bytes() as f64 / n as f64, 1)),
        );
        report.row(row);
        prev = Some(micros);
    }
    report.note("Reading: brute-force latency grows linearly with n (each doubling of");
    report.note("the database roughly doubles its µs column: brute× ≈ 2), while the grid");
    report.note("index visits only the cells near the query and does not grow with n at");
    report.note("all (grid× ≤ 1: a denser city fills the k places sooner) — the 'indexing");
    report.note("moving objects' optimization the paper calls for. The crossover sits");
    report.note("below a hundred thousand points: under it the crowd is so scarce that k");
    report.note("users are most of the city, and a per-PHL scan with temporal pruning wins.");
    report.note("B/pt: the grid's sealed slabs hold each observation once, 32 B, plus");
    report.note("20 B per occupied cell; only the newest two slabs keep per-cell vectors.");
    report.note("The brute scan holds its own exact-size copy of the PHLs, 24 B per point.");
    report.note("Correctness note: both run the identical algorithm1_first code through");
    report.note("the SpatialIndex trait; every sampled query is checked against the brute");
    report.note("oracle before timing, and crates/trajectory/tests/props.rs and");
    report.note("crates/core/tests/props.rs test them for equal results.");
    report.emit();

    // Structural gate: at ~4M points an index slower than the O(k·n)
    // scan has regressed. "Slower", not "less than 2x faster", so that
    // shared-host noise cannot flake it (the grid measures ~100x faster
    // there); the table keeps the real ratio.
    let [grid_us, brute_us] = prev.expect("at least one rung");
    if grid_us > brute_us {
        eprintln!("FAIL: the grid ({grid_us:.1} µs) is slower than the brute scan ({brute_us:.1} µs) at the largest rung");
        std::process::exit(1);
    }
}
