//! **T6 — mix-zone ablation: none vs. on-demand vs. static + on-demand.**
//!
//! Section 6.3 proposes on-demand zones on top of the static mix-zones
//! of Beresford–Stajano; DESIGN.md flags the choice as an ablation. The
//! three configurations answer: how much unlinking does each mechanism
//! deliver, what does it cost in service interruptions, and how much
//! less of the quasi-identifier reaches any single pseudonym?
//!
//! * `none`        — unlinking disabled (divergence threshold impossible);
//! * `on-demand`   — the paper's k-diverging-trajectories zones;
//! * `static+od`   — on-demand plus a static mix-zone over the central
//!   corridor every commute crosses (pseudonym changes on entry, service
//!   blackout inside).
//!
//! ```text
//! cargo run --release -p hka-bench --bin table6_mixzones
//! ```

use hka_bench::{build, collect_forwards, mean, Cell, Report, ScenarioConfig};
use hka_core::adversary::hk_audit;
use hka_core::TsConfig;
use hka_geo::Rect;

fn main() {
    let mut report = Report::new("T6", "mix-zone ablation (k = 5, 4 seeds × 14 days)").columns(&[
        "config",
        "HK ok %",
        "unlinks",
        "suppressed",
        "at-risk",
        "matches",
        "max trace",
    ]);

    for &(label, on_demand, with_static) in &[
        ("none", false, false),
        ("on-demand", true, false),
        ("static+od", true, true),
    ] {
        let mut hk = vec![];
        let mut unlinks = vec![];
        let mut suppressed = vec![];
        let mut risk = vec![];
        let mut matches = vec![];
        let mut max_contexts = vec![];
        for seed in 1u64..=4 {
            // The default scenario is the table's: k = 5, k' = 10
            // decreasing, 10 commuters among 60 roamers, 14 days.
            let mut ts = TsConfig::default();
            if !on_demand {
                // Unlinking disabled: a divergence over π is never met.
                ts.mixzone.min_divergence = 7.0;
            }
            let mut s = build(&ScenarioConfig {
                seed,
                ts,
                ..ScenarioConfig::default()
            });
            if with_static {
                // A corridor between the residential west and the
                // commercial east: every commute crosses it.
                s.ts.add_static_mixzone(Rect::from_bounds(950.0, 0.0, 1_050.0, 2_000.0));
            }
            let forwards = collect_forwards(&mut s.ts, &s.world.events);
            let st = s.ts.log().stats();
            hk.push(st.hk_success_rate());
            unlinks.push(st.pseudonym_changes as f64);
            suppressed.push((st.suppressed_mixzone + st.suppressed_risk) as f64);
            risk.push(st.at_risk as f64);
            matches.push(st.lbqid_matches as f64);
            // Longest pattern-context trail released under one pseudonym,
            // retired pseudonyms included.
            let longest = hk_audit(&forwards, &s.world.store(), 5)
                .iter()
                .map(|set| set.requests)
                .max()
                .unwrap_or(0);
            max_contexts.push(longest as f64);
        }
        report.row(vec![
            Cell::text(label),
            Cell::pct(mean(&hk), 1),
            Cell::num(mean(&unlinks), 1),
            Cell::num(mean(&suppressed), 1),
            Cell::num(mean(&risk), 1),
            Cell::num(mean(&matches), 1),
            Cell::num(mean(&max_contexts), 1),
        ]);
    }
    report.note("Reading: with no unlinking, every generalization failure becomes an");
    report.note("at-risk notification and full LBQID matches accumulate under one");
    report.note("pseudonym. On-demand zones convert part of that risk into short,");
    report.note("targeted interruptions. The static corridor unlinks every commute");
    report.note("crossing for free — full matches under a single pseudonym collapse —");
    report.note("at the price of a permanent service blackout strip.");
    report.emit();
}
