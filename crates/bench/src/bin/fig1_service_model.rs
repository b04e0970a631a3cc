//! **F1 — Fig. 1, the service provisioning model**, as a runnable trace.
//!
//! The paper's only figure shows users talking to service providers
//! through a Trusted Server. This binary renders the figure as an actual
//! message trace: one morning of one user, showing (a) what the user
//! sends (exact positions), (b) what the provider receives
//! (msgid, pseudonym, generalized Area × TimeInterval), and (c) that the
//! provider never sees identity or exact coordinates.
//!
//! ```text
//! cargo run --release -p hka-bench --bin fig1_service_model
//! ```

use hka_anonymity::ServiceId;
use hka_bench::{build, Cell, Report, ScenarioConfig};
use hka_core::RequestOutcome;
use hka_mobility::EventKind;

fn main() {
    let mut s = build(&ScenarioConfig {
        seed: 3,
        days: 1,
        n_commuters: 5,
        n_roamers: 40,
        ..ScenarioConfig::default()
    });
    let alice = s.protected[0];
    println!("=== F1: the Fig. 1 service model, live ===\n");
    println!("          Users ──(exact x,y,t)──▶ Trusted Server ──(msgid, pseudonym, Area, TimeInterval)──▶ SP\n");

    let mut shown = 0;
    let events = s.world.events.clone();
    for e in &events {
        match e.kind {
            EventKind::Location => s.ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let outcome = s.ts.handle_request(e.user, e.at, ServiceId(service));
                if e.user == alice && shown < 8 {
                    shown += 1;
                    println!(
                        "user {:>4} ──▶ TS   exact ⟨{:.0}, {:.0}⟩ @ {}",
                        e.user, e.at.pos.x, e.at.pos.y, e.at.t
                    );
                    match outcome {
                        RequestOutcome::Forwarded(req, _) => {
                            println!(
                                "        TS ──▶ {}   ({}, {}, {})",
                                req.service, req.msg_id, req.pseudonym, req.context
                            );
                            println!(
                                "                    identity hidden: pseudonym only; context area {:.0} m², interval {} s\n",
                                req.context.area(),
                                req.context.duration()
                            );
                        }
                        RequestOutcome::Suppressed(reason) => {
                            println!("        TS ∅ suppressed ({reason:?})\n");
                        }
                    }
                }
            }
        }
    }

    let stats = s.ts.log().stats();
    let mut report = Report::new(
        "F1",
        &format!("one-day totals across all {} users", s.world.agents.len()),
    )
    .columns(&[
        "forwarded",
        "exact",
        "generalized",
        "suppressed (mix-zone)",
        "suppressed (risk)",
    ]);
    report.row(vec![
        Cell::int(stats.forwarded() as i64),
        Cell::int(stats.forwarded_exact as i64),
        Cell::int(stats.generalized() as i64),
        Cell::int(stats.suppressed_mixzone as i64),
        Cell::int(stats.suppressed_risk as i64),
    ]);
    report.note("No SpRequest carries a UserId: the type system separates the TS-side");
    report.note("identity (UserId) from the provider-visible Pseudonym (see hka-anonymity).");
    report.emit();
}
