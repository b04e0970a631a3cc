//! Quickstart: protect one commuter's home↔office routine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a small synthetic city, registers one privacy-conscious
//! commuter (with the paper's Example-2 LBQID, written in the DSL) and a
//! background crowd, runs two simulated weeks through the trusted
//! server, and prints what the server did and what the provider saw.

use hka::prelude::*;

fn main() {
    // 1. A synthetic city with commuters and a background crowd.
    let world = World::generate(&WorldConfig {
        seed: 2024,
        days: 14,
        n_commuters: 15,
        n_roamers: 60,
        n_poi_regulars: 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });
    let alice = world.commuters().next().expect("a commuter exists");
    let home = world.home_of(alice).unwrap();
    let office = world.office_of(alice).unwrap();

    // 2. Alice's commute is a quasi-identifier: state it in the DSL,
    //    exactly as the paper's Example 2 does.
    let dsl = format!(
        "lbqid commute {{
            element AreaCondominium area({}, {}, {}, {}) window(07:00, 08:00);
            element AreaOfficeBldg  area({}, {}, {}, {}) window(08:00, 09:00);
            element AreaOfficeBldg  area({}, {}, {}, {}) window(16:00, 18:00);
            element AreaCondominium area({}, {}, {}, {}) window(17:00, 19:00);
            recur 3.Weekdays * 2.Weeks;
        }}",
        home.min().x,
        home.min().y,
        home.max().x,
        home.max().y,
        office.min().x,
        office.min().y,
        office.max().x,
        office.max().y,
        office.min().x,
        office.min().y,
        office.max().x,
        office.max().y,
        home.min().x,
        home.min().y,
        home.max().x,
        home.max().y,
    );
    let commute = parse_lbqid(&dsl).expect("valid DSL");
    println!("LBQID under protection:\n  {commute}\n");

    // 3. A trusted server: Alice at Medium privacy, everyone else Off.
    let mut ts = TrustedServer::new(TsConfig::default());
    // Per-service tolerance constraints (Section 6.1): the background
    // navigation service needs tight contexts; the routine requests are
    // news-like and tolerate city-scale cloaks.
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    for agent in &world.agents {
        let level = if agent.user == alice {
            PrivacyLevel::Medium
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(agent.user, level);
    }
    ts.add_lbqid(alice, commute);

    // 4. Run the event stream, keeping what the provider received.
    let forwards = hka::collect_forwards(&mut ts, &world.events);
    let mut alice_forwards = 0u32;
    for (user, req, disclosure) in &forwards {
        if *user == alice {
            alice_forwards += 1;
            if disclosure.generalized {
                println!(
                    "generalized: {} → area {:>10.0} m², interval {:>5} s",
                    req.context.span.start(),
                    req.context.area(),
                    req.context.duration()
                );
            }
        }
    }

    // 5. What happened?
    let stats = ts.log().stats();
    println!("\n=== server totals over {} days ===", 14);
    println!("forwarded requests:        {}", stats.forwarded());
    println!("  … of Alice's:            {alice_forwards}");
    println!("generalized (pattern):     {}", stats.generalized());
    println!("  HK-anonymity preserved:  {}", stats.forwarded_hk_ok);
    println!("  clamped by tolerance:    {}", stats.forwarded_hk_failed);
    println!("pseudonym changes:         {}", stats.pseudonym_changes);
    println!("at-risk notifications:     {}", stats.at_risk);

    // 6. Audit Alice's generalized requests against Definition 8, one
    //    set per pseudonym, over the true trajectories.
    for set in hk_audit(&forwards, &world.store(), 5) {
        if set.user != alice {
            continue;
        }
        let hk = &set.outcome;
        println!(
            "\naudit {}: {} generalized requests",
            set.pseudonym, set.requests
        );
        println!(
            "historical {}-anonymity: {} (effective k = {}, witnesses: {:?})",
            hk.k,
            if hk.satisfied {
                "SATISFIED"
            } else {
                "VIOLATED"
            },
            hk.effective_k(),
            hk.witnesses.iter().take(8).collect::<Vec<_>>()
        );
        if !hk.satisfied {
            assert!(
                set.theorem1_holds(),
                "per Theorem 1, a violation can only follow at-risk requests"
            );
            println!(
                "  (expected: Alice ignored her at-risk notifications and kept\n   \
                 using the service — Theorem 1 assumes unlinking is always\n   \
                 available, which this crowd could not provide every time)"
            );
        }
    }
}
