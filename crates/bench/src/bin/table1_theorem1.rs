//! **T1 — Theorem 1, verified empirically.**
//!
//! > *Theorem 1.* If we apply our strategy with Algorithm 1, and we assume
//! > we can always perform Unlinking for a certain likelihood parameter
//! > Θ, then, given an anonymity value k, any set of requests issued to
//! > an SP by a certain user that matches one of his/her LBQIDs and is
//! > link connected with likelihood Θ, will satisfy Historical
//! > k-anonymity.
//!
//! For each (seed, k, density) cell we run the full strategy over two
//! simulated weeks, collect every forward the provider received beside
//! its true issuer, and grade every (user, pseudonym) set of generalized
//! requests — link-connected at any Θ, since its requests share a
//! pseudonym — against Definition 8 over the true trajectories
//! (`hk_audit`). Retired pseudonyms are graded like the current one.
//! The column that must be **zero** is `viol(clean)`: sets whose
//! forwards before the first one the server flagged at risk (all of
//! them, if none was) already violate historical k-anonymity —
//! violations within the theorem's hypotheses (whenever unlinking was
//! needed it succeeded). `viol(risk)` counts sets that violate only once
//! an at-risk forward joins them, where the unlinking hypothesis failed
//! and the TS notified the user (outside the theorem's scope, reported
//! for context). The `max link` columns replay two attackers' linkers over
//! requests issued under different pseudonyms of one user
//! (`unlink_audit`); below Θ = 0.5 the unlinkings hold. The
//! `unprotected` column replays the same workload with privacy off and
//! counts users whose raw request streams match their LBQID with fewer
//! than k consistent histories — what Theorem 1 is protecting against.
//!
//! The second block runs the same cells on a server that compacts its
//! history at the end of every day: the outcomes, and so the grades,
//! must not move.
//!
//! ```text
//! cargo run --release -p hka-bench --bin table1_theorem1
//! ```

use hka_anonymity::{historical_k_anonymity, CompositeLinker, Linker, TrackerLinker};
use hka_bench::{build, collect_forwards_daily, Cell, Report, ScenarioConfig};
use hka_core::adversary::{hk_audit, unlink_audit, GradedSet};
use hka_core::{PrivacyParams, RiskAction};
use hka_geo::{StBox, DAY};
use hka_granules::Granularity;
use hka_lbqid::{offline, Lbqid};
use hka_mobility::{EventKind, ANCHOR_SERVICE};
use hka_trajectory::CompactionPolicy;

fn main() {
    let mut report = Report::new(
        "T1",
        "Theorem 1 — historical k-anonymity of every pseudonym's LBQID-matched request set",
    )
    .columns(&[
        "history",
        "seed",
        "density",
        "k",
        "users",
        "matched",
        "sets",
        "retired",
        "HK ok",
        "viol(clean)",
        "viol(risk)",
        "unlinks",
        "max link(tracker)",
        "max link(composite)",
        "unprotected",
    ]);

    let daily = CompactionPolicy::new(DAY, Granularity::Days);
    let blocks = [("full", None), ("daily", Some(&daily))];
    let mut rows: [Vec<Vec<Cell>>; 2] = Default::default();
    // Per block: sets, retired, viol(clean), viol(risk).
    let mut totals = [[0usize; 4]; 2];
    let mut diverged = Vec::new();
    for &(density_label, n_roamers) in &[("dense", 80usize), ("sparse", 25usize)] {
        for &k in &[2usize, 5, 10] {
            for seed in 1u64..=4 {
                let cfg = ScenarioConfig {
                    seed,
                    days: 14,
                    n_commuters: 8,
                    n_roamers,
                    params: PrivacyParams {
                        k,
                        theta: 0.5,
                        k_init: 2 * k,
                        k_decrement: 1,
                        on_risk: RiskAction::Forward,
                    },
                    ..ScenarioConfig::default()
                };
                let mut outcomes = Vec::new();
                for (b, &(history, policy)) in blocks.iter().enumerate() {
                    let mut s = build(&cfg);
                    let forwards = collect_forwards_daily(&mut s.ts, &s.world.events, policy);
                    let truth = s.world.store();
                    let st = s.ts.log().stats();

                    let graded = hk_audit(&forwards, &truth, k);
                    let retired = graded
                        .iter()
                        .filter(|g| s.ts.pseudonym_of(g.user) != Some(g.pseudonym))
                        .count();
                    let count = |f: fn(&GradedSet) -> bool| graded.iter().filter(|g| f(g)).count();
                    let viol_clean = count(|g| !g.theorem1_holds());
                    let viol_risk = count(|g| g.theorem1_holds() && !g.outcome.satisfied);
                    let issued: Vec<_> = forwards.iter().map(|(u, r, _)| (*u, r.clone())).collect();
                    let max_link = |linker: &dyn Linker| {
                        let worst = unlink_audit(&issued, linker).into_iter().map(|(_, w)| w);
                        Cell::num(worst.fold(0.0, f64::max), 3)
                    };
                    for (total, n) in
                        totals[b]
                            .iter_mut()
                            .zip([graded.len(), retired, viol_clean, viol_risk])
                    {
                        *total += n;
                    }
                    rows[b].push(vec![
                        Cell::text(history),
                        Cell::int(seed as i64),
                        Cell::text(density_label),
                        Cell::int(k as i64),
                        Cell::int(s.protected.len() as i64),
                        Cell::int(st.lbqid_matches as i64),
                        Cell::int(graded.len() as i64),
                        Cell::int(retired as i64),
                        Cell::int(count(|g| g.outcome.satisfied) as i64),
                        Cell::int(viol_clean as i64),
                        Cell::int(viol_risk as i64),
                        Cell::int(st.pseudonym_changes as i64),
                        max_link(&TrackerLinker::default()),
                        max_link(&CompositeLinker::standard()),
                        Cell::int(unprotected(&s, &truth, k) as i64),
                    ]);
                    outcomes.push((forwards, st));
                }
                if outcomes[0] != outcomes[1] {
                    diverged.push(format!("{density_label}/k={k}/seed={seed}"));
                }
            }
        }
    }
    for (b, block) in rows.into_iter().enumerate() {
        if b > 0 {
            report.gap();
        }
        block.into_iter().for_each(|row| report.row(row));
    }
    for ((history, _), [sets, retired, clean, risk]) in blocks.iter().zip(totals) {
        report.note(&format!(
            "{history}: {sets} sets, {retired} retired, viol(clean) {clean}, viol(risk) {risk}"
        ));
    }
    report.note(&format!(
        "Theorem 1 holds iff every viol(clean) cell is 0; compaction moved the outcomes of {} of 24 cells",
        diverged.len()
    ));
    report.emit();
    assert!(
        totals.iter().all(|t| t[2] == 0),
        "THEOREM 1 VIOLATED — see rows above"
    );
    assert!(
        diverged.is_empty(),
        "compaction moved the outcomes of {diverged:?}"
    );
    println!("✓ no clean violations: within its hypotheses, the strategy preserves historical k-anonymity.");
}

/// Unprotected baseline: raw anchor streams vs Definition 3 + Definition
/// 8 on the degenerate (exact) contexts.
fn unprotected(
    s: &hka_bench::Scenario,
    truth: &hka_trajectory::TrajectoryStore,
    k: usize,
) -> usize {
    s.protected
        .iter()
        .filter(|&&u| {
            let lbqid =
                Lbqid::example_commute(s.world.home_of(u).unwrap(), s.world.office_of(u).unwrap());
            let pts: Vec<_> = s
                .world
                .events
                .iter()
                .filter(|e| {
                    e.user == u
                        && matches!(e.kind, EventKind::Request { service } if service == ANCHOR_SERVICE)
                })
                .map(|e| e.at)
                .collect();
            let contexts: Vec<StBox> = pts.iter().map(|p| StBox::point(*p)).collect();
            offline::matches(&lbqid, &pts) && !historical_k_anonymity(truth, u, &contexts, k).satisfied
        })
        .count()
}
