//! **F4 — adversarial re-identification vs k, with and without
//! unlinking.**
//!
//! The Section-1 motivating attack (phone-book lookup of home
//! coordinates) combined with the Section-5.2 linkability machinery: the
//! provider clusters requests — by pseudonym, and optionally chaining
//! across pseudonym changes with the Gruteser–Hoh tracker at a threshold
//! Θ — and claims identities from unambiguous home evidence.
//!
//! Series: fraction of protected users re-identified, as a function of
//! the anonymity level k, for (a) no protection, (b) generalization only
//! (mix-zones disabled, so no pseudonym changes), (c) the full strategy;
//! each attacked with the plain phone-book lookup, the stronger
//! home/work *pair* attack (Golle–Partridge-style), and tracker chaining
//! at Θ ∈ {0.8, 0.5}.
//!
//! ```text
//! cargo run --release -p hka-bench --bin fig4_attack
//! ```

use hka_anonymity::{CompositeLinker, PseudonymLinker, ServiceId, SpRequest};
use hka_bench::{collect_forwards, Cell, Report};
use hka_core::adversary::{pair_attack, Adversary, HomeRegistry, PairRegistry};
use hka_core::{
    MixZoneConfig, PrivacyLevel, PrivacyParams, RiskAction, Tolerance, TrustedServer, TsConfig,
};
use hka_geo::MINUTE;
use hka_lbqid::{parse_lbqid, Lbqid};
use hka_mobility::{CityConfig, World, WorldConfig, ANCHOR_SERVICE, BACKGROUND_SERVICE};
use hka_trajectory::UserId;

struct RunOutput {
    requests: Vec<SpRequest>,
    truth: Vec<UserId>,
    registry: HomeRegistry,
    pairs: PairRegistry,
    targets: usize,
}

fn run(world: &World, level: Option<PrivacyParams>, mixzones: bool) -> RunOutput {
    let mut config = TsConfig::default();
    if !mixzones {
        // Setting an impossible divergence requirement disables on-demand
        // zones: unlinking is never feasible.
        config.mixzone = MixZoneConfig {
            min_divergence: 7.0,
            ..MixZoneConfig::default()
        };
    }
    let mut ts = TrustedServer::new(config);
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));

    let mut registry = HomeRegistry::new();
    let mut pairs = PairRegistry::new();
    let mut targets = 0usize;
    for agent in &world.agents {
        let home = world.home_of(agent.user);
        let protected = home.is_some() && level.is_some();
        ts.register_user(
            agent.user,
            match (protected, level) {
                (true, Some(p)) => PrivacyLevel::Custom(p),
                _ => PrivacyLevel::Off,
            },
        );
        if let Some(home) = home {
            registry.add(home, agent.user);
            if let Some(office) = world.office_of(agent.user) {
                pairs.add(home, office, agent.user);
            }
            targets += 1;
            if protected {
                let dsl = format!(
                    "lbqid at_home {{ element area({}, {}, {}, {}) window(00:00, 23:59); recur 2.Days; }}",
                    home.min().x, home.min().y, home.max().x, home.max().y
                );
                ts.add_lbqid(agent.user, parse_lbqid(&dsl).unwrap());
                if let Some(office) = world.office_of(agent.user) {
                    ts.add_lbqid(agent.user, Lbqid::example_commute(home, office));
                }
            }
        }
    }
    let (truth, requests) = collect_forwards(&mut ts, &world.events)
        .into_iter()
        .map(|(user, req, _)| (user, req))
        .unzip();
    RunOutput {
        requests,
        truth,
        registry,
        pairs,
        targets,
    }
}

/// Correctly-identified distinct users under the home/work pair attack.
fn attack_pairs(out: &RunOutput) -> f64 {
    let linker = PseudonymLinker;
    let claims = pair_attack(&linker, 0.9, &out.pairs, &out.requests);
    // Score claims against ground truth: a claim is right when the
    // cluster-anchor request really belongs to the claimed user.
    let correct: std::collections::BTreeSet<UserId> = claims
        .iter()
        .filter(|(anchor, claimed)| out.truth[*anchor] == *claimed)
        .map(|(_, claimed)| *claimed)
        .collect();
    correct.len() as f64 / out.targets as f64
}

fn attack(out: &RunOutput, theta: f64, tracker: bool) -> f64 {
    let report = if tracker {
        let linker = CompositeLinker::standard();
        Adversary::new(&linker, theta, &out.registry).attack(&out.requests, &out.truth)
    } else {
        let linker = PseudonymLinker;
        Adversary::new(&linker, theta, &out.registry).attack(&out.requests, &out.truth)
    };
    report.users_identified as f64 / out.targets as f64
}

fn main() {
    let world = World::generate(&WorldConfig {
        seed: 55,
        days: 8,
        n_commuters: 12,
        n_roamers: 60,
        n_poi_regulars: 8,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        background_request_rate: 0.3,
        ..WorldConfig::default()
    });

    let mut report = Report::new(
        "F4",
        "fraction of home-owning users re-identified by the provider",
    )
    .columns(&[
        "defence",
        "k",
        "phone-book",
        "home+work",
        "tracker Θ=0.8",
        "tracker Θ=0.5",
    ]);
    let attack_row = |report: &mut Report, label: &str, k: &str, out: &RunOutput| {
        report.row(vec![
            Cell::text(label),
            Cell::text(k),
            Cell::pct(attack(out, 0.9, false), 0),
            Cell::pct(attack_pairs(out), 0),
            Cell::pct(attack(out, 0.8, true), 0),
            Cell::pct(attack(out, 0.5, true), 0),
        ]);
    };

    // No protection at all.
    let off = run(&world, None, true);
    attack_row(&mut report, "none (exact contexts)", "-", &off);

    for k in [2usize, 5, 10] {
        let params = PrivacyParams {
            k,
            theta: 0.5,
            k_init: 2 * k,
            k_decrement: 1,
            on_risk: RiskAction::Forward,
        };
        let gen_only = run(&world, Some(params), false);
        attack_row(
            &mut report,
            "generalization only",
            &k.to_string(),
            &gen_only,
        );
        let full = run(&world, Some(params), true);
        attack_row(
            &mut report,
            "full strategy (+unlink)",
            &k.to_string(),
            &full,
        );
    }
    report.note("Reading: without protection the phone-book attack identifies many");
    report.note("home-owners and the home/work pair attack even more. Generalization");
    report.note("makes the evidence ambiguous (cloaks cover several homes/offices) and");
    report.note("kills both attacks by k = 10. Two second-order observations: (1)");
    report.note("aggressive tracker chaining (low Θ) merges too much and self-destructs;");
    report.note("(2) against the *pair* attack, unlinking can backfire at moderate k —");
    report.note("splitting a user's stream into small per-day clusters makes each");
    report.note("cluster's home+work evidence crisper than one big ambiguous cluster.");
    report.note("Protection against pair-style attackers must come from generalization");
    report.note("strength (k), not from pseudonym rotation alone.");
    report.emit();
}
