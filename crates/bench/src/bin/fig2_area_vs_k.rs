//! **F2 — cloaked area vs. k: Algorithm 1 against the baselines.**
//!
//! Section 2 positions the paper against Gruteser–Grunwald's interval
//! cloaking \[11\] (population-aware, per-request) and against the naive
//! "make all requests very coarse" approach. This figure plots, per k,
//! the mean cloaked area produced by:
//!
//! * `algo1`   — Algorithm 1's first-element branch (k nearest PHLs);
//! * `quadtree` — Gruteser–Grunwald spatial cloaking (quadtree descent);
//! * `uniform` — fixed-grid coarsening, sized so its *median* cell holds
//!   k users (the best a population-blind scheme can do), with the
//!   fraction of requests whose cell still holds < k users.
//!
//! ```text
//! cargo run --release -p hka-bench --bin fig2_area_vs_k
//! ```

use hka_baselines::{interval_cloaking, UniformCloak};
use hka_bench::{build, mean, Cell, Report, ScenarioConfig};
use hka_core::{algorithm1_first, Tolerance};
use hka_geo::{StPoint, TimeInterval};
use hka_mobility::EventKind;
use hka_trajectory::{GridIndex, GridIndexConfig, SpatialIndex, UserId};

fn main() {
    let s = build(&ScenarioConfig {
        seed: 8,
        days: 5,
        n_commuters: 10,
        n_roamers: 70,
        ..ScenarioConfig::default()
    });
    let store = s.world.store();
    let index = GridIndex::build(&store, GridIndexConfig::default());
    let domain = s.world.city.bounds;

    // Sample request situations (user, exact point) from the workload.
    let samples: Vec<(UserId, StPoint)> = s
        .world
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Request { .. }))
        .map(|e| (e.user, e.at))
        .take(600)
        .collect();

    let mut report = Report::new(
        "F2",
        &format!(
            "mean cloaked area (m²) vs k — {} request samples",
            samples.len()
        ),
    )
    .columns(&[
        "k",
        "algo1",
        "quadtree",
        "uniform",
        "algo1 ok%",
        "uniform<k%",
    ]);
    let loose = Tolerance::new(f64::MAX, i64::MAX);
    for k in [2usize, 3, 5, 8, 12, 20] {
        let mut a1_areas = vec![];
        let mut a1_ok = 0usize;
        let mut qt_areas = vec![];
        // Size the uniform grid so the average cell population ≈ k:
        // city area / (users / k).
        let users = store.user_count() as f64;
        let cell_side = (domain.area() * k as f64 / users).sqrt();
        let uniform = UniformCloak::new(cell_side, 300);
        let mut uni_small = 0usize;

        for (u, at) in &samples {
            let g = algorithm1_first(&index, at, *u, k, &loose);
            if g.hk_anonymity {
                a1_ok += 1;
                a1_areas.push(g.context.area());
            }
            if let Some(r) = interval_cloaking::spatial_cloak(&index, domain, at, k, 300, 12) {
                qt_areas.push(r.area());
            }
            let b = uniform.cloak(at);
            let window = TimeInterval::new(at.t - 300, at.t);
            let pop = index.count_users_crossing(&hka_geo::StBox::new(b.rect, window), k);
            if pop < k {
                uni_small += 1;
            }
        }
        report.row(vec![
            Cell::int(k as i64),
            Cell::num(mean(&a1_areas), 0),
            Cell::num(mean(&qt_areas), 0),
            Cell::num(cell_side * cell_side, 0),
            Cell::pct(a1_ok as f64 / samples.len() as f64, 1),
            Cell::pct(uni_small as f64 / samples.len() as f64, 1),
        ]);
    }
    report.note("Reading: Algorithm 1's per-user-nearest boxes stay well below the");
    report.note("quadtree cloaks (which can only halve the domain per step), and the");
    report.note("population-blind uniform grid leaves a large fraction of requests");
    report.note("under-anonymized no matter how its cell is sized.");
    report.emit();
}
