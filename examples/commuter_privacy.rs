//! The paper's Examples 1–2 end to end, week by week.
//!
//! ```text
//! cargo run --release --example commuter_privacy
//! ```
//!
//! Every commuter in the city opts into protection, each with their own
//! commute LBQID (`3.Weekdays * 2.Weeks`). The example reports, per user
//! and pseudonym: how many generalized pattern requests the provider
//! received under it, whether one went out at risk, and its historical
//! k-anonymity graded against the true trajectories — the per-user view
//! of the paper's protection promise.

use hka::prelude::*;

fn main() {
    let k = 5usize;
    let world = World::generate(&WorldConfig {
        seed: 7,
        days: 21,
        n_commuters: 12,
        n_roamers: 70,
        n_poi_regulars: 8,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });

    let level = PrivacyLevel::Custom(PrivacyParams {
        k,
        theta: 0.5,
        k_init: 2 * k,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    });
    let mut ts = hka::commuter_server(TsConfig::default(), &world, level);
    let commuters: Vec<UserId> = world.commuters().collect();

    println!(
        "{} commuters protected (k = {k}, k' = {} decreasing), {} users total\n",
        commuters.len(),
        2 * k,
        world.agents.len()
    );

    let forwards = hka::collect_forwards(&mut ts, &world.events);
    let graded = hk_audit(&forwards, &world.store(), k);

    // Per-pseudonym report.
    println!(
        "{:>6} {:>10} {:>9} {:>8} {:>12} {:>8}",
        "user", "pseudonym", "requests", "at-risk", "HK(k) holds", "eff. k"
    );
    for set in &graded {
        println!(
            "{:>6} {:>10} {:>9} {:>8} {:>12} {:>8}",
            set.user.to_string(),
            set.pseudonym.to_string(),
            set.requests,
            set.risk,
            set.outcome.satisfied,
            set.outcome.effective_k()
        );
        // Theorem 1: the forwards before the first one flagged at risk
        // hold k; a violation needs an at-risk forward.
        assert!(set.theorem1_holds(), "{set:?}");
    }
    let satisfied = graded.iter().filter(|s| s.outcome.satisfied).count();
    let at_risk = graded.iter().filter(|s| s.risk).count();

    let stats = ts.log().stats();
    println!("\n=== totals ===");
    println!(
        "forwarded {} (exact {}, generalized {}), HK success rate {:.1}%",
        stats.forwarded(),
        stats.forwarded_exact,
        stats.generalized(),
        100.0 * stats.hk_success_rate()
    );
    println!(
        "mean generalized context: {:.0} m² × {:.0} s",
        stats.mean_generalized_area(),
        stats.mean_generalized_duration()
    );
    println!(
        "pseudonym changes {}, at-risk notifications {}, mix-zone suppressions {}",
        stats.pseudonym_changes, stats.at_risk, stats.suppressed_mixzone
    );
    println!(
        "\n{satisfied} / {} pseudonym sets of {} commuters hold historical {k}-anonymity;",
        graded.len(),
        commuters.len()
    );
    println!("{at_risk} hold a request the server flagged at risk.");
}
