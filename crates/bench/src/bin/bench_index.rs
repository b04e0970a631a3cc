//! **Continuous benchmark: the grid index against the brute-force scan
//! on the Algorithm-1 query path.**
//!
//! Runs the first-element branch of Algorithm 1 (`algorithm1_first`,
//! the k-nearest-users query that dominates the preservation
//! strategy's cost) through [`GridIndex`](hka_trajectory::GridIndex)
//! and through the exhaustive scan it is specified against, over the
//! identical seeded query sample at four store sizes (the largest ~4M
//! points), and writes a one-line `BENCH_index.json` so future perf PRs
//! have a tracked baseline.
//!
//! Two gates make this a regression check rather than a scoreboard:
//!
//! * the grid's Algorithm-1 result is compared against the brute
//!   oracle's on every sampled query (exit non-zero on any divergence);
//! * at the largest size the grid must beat the O(k·n) brute scan (exit
//!   non-zero otherwise — an index slower than the exhaustive scan at
//!   ~4M points is a structural regression, with generous slack for
//!   shared-host noise).
//!
//! ```text
//! cargo run --release -p hka-bench --bin bench_index -- [--out DIR]
//! ```

use hka_bench::{median, time_ns, Cell, Report};
use hka_core::{algorithm1_first, Tolerance};
use hka_geo::StPoint;
use hka_mobility::{CityConfig, EventKind, World, WorldConfig};
use hka_obs::Json;
use hka_trajectory::{GridIndexConfig, IndexBackend, UserId};

const SEED: u64 = 77;
const K: usize = 5;
const QUERIES: usize = 40;
const SIZES: [(usize, i64); 4] = [(20, 1), (80, 4), (160, 8), (540, 8)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("usage: bench_index [--out DIR] (got '{other}')");
                std::process::exit(2);
            }
        }
    }
    let backends = IndexBackend::ALL;
    let tolerance = Tolerance::new(f64::MAX, i64::MAX);

    let mut columns = vec!["n points".to_string(), "users".to_string()];
    for b in &backends {
        columns.push(format!("{b} µs"));
    }
    let column_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "bench_index",
        "Algorithm-1 k-nearest-users queries, grid index vs brute scan (median µs)",
    )
    .columns(&column_refs);

    let mut sizes_json = Vec::new();
    let mut speedup_largest = 0.0;
    for (users, days) in SIZES {
        let world = World::generate(&WorldConfig {
            seed: SEED,
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
        let n = store.total_points();
        let queries: Vec<(UserId, StPoint)> = world
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Location)
            .step_by((world.events.len() / 50).max(1))
            .map(|e| (e.user, e.at))
            .take(QUERIES)
            .collect();

        let indices = backends.map(|b| b.build(&store, GridIndexConfig::default()));
        let [grid, oracle] = &indices;
        for (u, q) in &queries {
            let got = algorithm1_first(grid.as_ref(), q, *u, K, &tolerance);
            if got != algorithm1_first(oracle.as_ref(), q, *u, K, &tolerance) {
                eprintln!("FAIL: grid diverged from brute oracle at n={n} user={u:?} seed={q:?}");
                std::process::exit(1);
            }
        }
        let per_backend = indices.each_ref().map(|index| {
            let samples: Vec<f64> = queries
                .iter()
                .map(|(u, q)| {
                    time_ns(3, || {
                        std::hint::black_box(algorithm1_first(
                            index.as_ref(),
                            q,
                            *u,
                            K,
                            &tolerance,
                        ));
                    })
                })
                .collect();
            median(&samples) / 1_000.0
        });

        let mut row = vec![Cell::int(n as i64), Cell::int(store.user_count() as i64)];
        row.extend(per_backend.iter().map(|us| Cell::num(*us, 1)));
        report.row(row);
        // Overwritten per size: the last (largest) one is what the gate reads.
        let [grid_us, brute_us] = per_backend;
        speedup_largest = brute_us / grid_us;
        sizes_json.push(Json::obj([
            ("points", Json::from(n as u64)),
            ("users", Json::from(store.user_count() as u64)),
            (
                "median_us",
                Json::Obj(
                    backends
                        .iter()
                        .zip(per_backend)
                        .map(|(b, us)| (b.name().to_string(), Json::Num(us)))
                        .collect(),
                ),
            ),
        ]));
    }

    report.note("Both answer the identical algorithm1_first call through the SpatialIndex");
    report.note("trait; each sampled query is checked against the brute oracle before");
    report.note("timing, so a wrong-but-fast index fails the bench, not the chart.");
    report.emit();

    let json = Json::obj([
        ("bench", Json::from("index")),
        (
            "scenario",
            Json::obj([
                ("seed", Json::from(SEED)),
                ("k", Json::from(K as u64)),
                ("queries", Json::from(QUERIES as u64)),
            ]),
        ),
        (
            "backends",
            Json::Arr(backends.iter().map(|b| Json::from(b.name())).collect()),
        ),
        ("sizes", Json::Arr(sizes_json)),
        ("speedup_largest", Json::Num(speedup_largest)),
        (
            "speedup_definition",
            Json::from(
                "speedup_largest = brute median / grid median on Algorithm-1 \
                 k-nearest-users queries at the largest store size. Each per-query \
                 sample is the median of 3 timed calls after one untimed warmup call.",
            ),
        ),
    ]);
    let path = format!("{out_dir}/BENCH_index.json");
    std::fs::write(&path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");

    // Structural gate: at ~4M points an index slower than the O(k·n)
    // scan has regressed. 1.0 (not, say, 2.0) keeps shared-CI noise from
    // flaking the job; the JSON keeps the real ratio for trend-watching.
    if speedup_largest < 1.0 {
        eprintln!(
            "FAIL: the grid is only {speedup_largest:.2}x the brute scan at the largest size"
        );
        std::process::exit(1);
    }
}
