//! **T2 — the QoS / anonymity / unlinking trade-off triangle.**
//!
//! Section 6.2: "the most relevant \[issue\] is the trade-off between
//! quality of service (i.e., how strict tolerance constraints should be),
//! degree of anonymity (i.e., choice of k), and frequency of unlinking
//! (i.e., number of possible interruptions of the service)."
//!
//! One row per (k, tolerance) cell, averaged over seeds: generalization
//! success rate, mean forwarded context size (QoS), unlink events and
//! at-risk notifications per 1 000 pattern requests (service disruption).
//!
//! ```text
//! cargo run --release -p hka-bench --bin table2_tradeoff
//! ```

use hka_bench::{build, collect_forwards, mean, Cell, Report, ScenarioConfig};
use hka_core::{PrivacyParams, RiskAction, Tolerance};
use hka_geo::MINUTE;

fn main() {
    let mut report = Report::new(
        "T2",
        "QoS × anonymity × unlinking trade-off (4 seeds × 14 days each)",
    )
    .columns(&[
        "tolerance",
        "k",
        "HK ok %",
        "mean m²",
        "mean s",
        "unlink/1k",
        "at-risk/1k",
    ]);
    let tolerances = [
        (
            "strict (0.25 km², 2 min)",
            Tolerance::new(2.5e5, 2 * MINUTE),
        ),
        ("medium (4 km², 10 min)", Tolerance::new(4e6, 10 * MINUTE)),
        ("loose (25 km², 60 min)", Tolerance::new(2.5e7, 60 * MINUTE)),
    ];
    for (ti, (label, tolerance)) in tolerances.into_iter().enumerate() {
        if ti > 0 {
            report.gap();
        }
        for k in [2usize, 5, 10, 20] {
            let mut rates = vec![];
            let mut areas = vec![];
            let mut durs = vec![];
            let mut unlinks = vec![];
            let mut risks = vec![];
            for seed in 1u64..=4 {
                let mut s = build(&ScenarioConfig {
                    seed,
                    days: 14,
                    n_commuters: 10,
                    n_roamers: 60,
                    params: PrivacyParams {
                        k,
                        theta: 0.5,
                        k_init: 2 * k,
                        k_decrement: 1,
                        on_risk: RiskAction::Forward,
                    },
                    anchor_tolerance: tolerance,
                    background_tolerance: tolerance,
                    ..ScenarioConfig::default()
                });
                collect_forwards(&mut s.ts, &s.world.events);
                let st = s.ts.log().stats();
                let pattern_reqs =
                    (st.generalized() + st.suppressed_mixzone + st.suppressed_risk).max(1) as f64;
                rates.push(st.hk_success_rate());
                areas.push(st.mean_generalized_area());
                durs.push(st.mean_generalized_duration());
                unlinks.push(1_000.0 * st.pseudonym_changes as f64 / pattern_reqs);
                risks.push(1_000.0 * st.at_risk as f64 / pattern_reqs);
            }
            report.row(vec![
                Cell::text(label),
                Cell::int(k as i64),
                Cell::pct(mean(&rates), 1),
                Cell::num(mean(&areas), 0),
                Cell::num(mean(&durs), 0),
                Cell::num(mean(&unlinks), 1),
                Cell::num(mean(&risks), 1),
            ]);
        }
    }
    report.note("Reading: stricter tolerance and larger k both depress the HK success rate;");
    report.note("failures surface either as unlinking (service interruptions) or at-risk");
    report.note("notifications — the paper's triangle, quantified.");
    report.emit();
}
