//! Chaos acceptance suite for the robustness layer: randomized fault
//! schedules must never make the trusted server fail open (forward a
//! request it should have suppressed), journal outages must walk the
//! documented Normal → Degraded → ReadOnly mode ladder and recover when
//! a healthy journal is attached, and a journal file crashed mid-append
//! must recover to a verifiable chain that new records extend.

use hka::audit::{self, AuditConfig};
use hka::faults::sites;
use hka::obs;
use hka::prelude::*;
use std::io::Write;

mod common;
use common::{protected, small_world, SharedBuf};

/// Drives one seeded world under one randomized fault schedule and
/// judges every delivered request.
fn chaos_run(seed: u64) -> hka::ChaosTally {
    let world = small_world(seed, 1);
    let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(4));
    let injector = FaultInjector::new(randomized_plan(seed));
    ts.attach_faults(injector.clone());
    ts.attach_journal(obs::Journal::new(Box::new(FaultyWriter::new(
        std::io::sink(),
        injector.clone(),
    )) as Box<dyn Write + Send + Sync>));
    hka::drive_chaos(&mut ts, &world.events, &injector)
}

#[test]
fn thirty_two_seeded_schedules_never_fail_open() {
    let mut total_faults = 0u64;
    let mut total_requests = 0u64;
    let mut degraded_at_risk = 0u64;
    for seed in 1..=32u64 {
        let r = chaos_run(seed);
        assert_eq!(
            r.violations, 0,
            "seed {seed}: a faulted or degraded request was forwarded"
        );
        total_faults += r.faults_fired;
        total_requests += r.requests;
        degraded_at_risk += r.degraded_at_risk;
    }
    assert!(
        total_faults > 100,
        "schedules injected too few faults ({total_faults}) to exercise anything"
    );
    assert!(total_requests > 1_000, "worlds produced too few requests");
    // A flapping journal holds the server in Degraded while users go at
    // risk, so the gate's Degraded `hk_ok` rule is exercised here too.
    assert!(
        degraded_at_risk > 0,
        "no schedule put a user at risk in Degraded mode"
    );
}

/// The flapping journals of the randomized schedules meet a handful of
/// at-risk requests in Degraded mode. This one meets every one of the
/// seeded day's: every journal write fails,
/// but the retry budget never runs out, so the server stays Degraded
/// for the whole seeded day, and every at-risk request ends in a
/// clamped, sub-k forward attempt (`RiskAction::Forward`) that the gate
/// must deny.
#[test]
fn a_degraded_server_never_forwards_an_at_risk_clamp() {
    let seed = 3;
    let world = small_world(seed, 1);
    let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(4));
    let injector = FaultInjector::new(FaultPlan::new(seed).with_rule(
        sites::JOURNAL_IO,
        Trigger::Always,
        FaultKind::Io,
    ));
    ts.attach_journal_with(
        obs::Journal::new(
            Box::new(FaultyWriter::new(std::io::sink(), injector.clone()))
                as Box<dyn Write + Send + Sync>,
        ),
        RetryPolicy {
            attempts: 1,
            max_failures: u32::MAX,
            backoff_base: 0,
        },
    );
    let r = hka::drive_chaos(&mut ts, &world.events, &injector);
    assert_eq!(ts.mode(), ServerMode::Degraded);
    assert!(
        r.degraded_at_risk > 0,
        "the schedule put no user at risk in Degraded mode"
    );
    assert_eq!(r.violations, 0, "a Degraded at-risk clamp was forwarded");
}

#[test]
fn journal_outage_walks_the_mode_ladder_and_recovers() {
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(1), Tolerance::navigation());
    ts.register_user(UserId(1), PrivacyLevel::Off);

    // Every journal write fails: the first event degrades the server and
    // the escalation (each event is itself a write attempt) takes it down.
    let broken = FaultInjector::new(FaultPlan::new(5).with_rule(
        sites::JOURNAL_IO,
        Trigger::Always,
        FaultKind::Io,
    ));
    ts.attach_journal_with(
        obs::Journal::new(
            Box::new(FaultyWriter::new(std::io::sink(), broken)) as Box<dyn Write + Send + Sync>
        ),
        RetryPolicy {
            attempts: 1,
            max_failures: 2,
            backoff_base: 0,
        },
    );
    assert_eq!(ts.mode(), ServerMode::Normal);

    // The modes the server passed through, as each request left it.
    let mut ladder = vec![ts.mode()];
    for t in 1..=6i64 {
        let at = StPoint::xyt(100.0, 100.0, TimeSec(600 * t));
        ts.location_update(UserId(1), at);
        let _ = ts.handle_request(UserId(1), at, ServiceId(1));
        if ladder.last() != Some(&ts.mode()) {
            ladder.push(ts.mode());
        }
    }
    assert_eq!(ts.mode(), ServerMode::ReadOnly);
    assert_eq!(ts.journal_health(), JournalHealth::Down);

    // Read-only means mutations are refused and requests are suppressed.
    assert!(matches!(
        ts.try_register_user(UserId(9), PrivacyLevel::Off),
        Err(TsError::Degraded)
    ));
    let at = StPoint::xyt(100.0, 100.0, TimeSec(4_200));
    assert!(matches!(
        ts.handle_request(UserId(1), at, ServiceId(1)),
        RequestOutcome::Suppressed(_)
    ));

    // A fresh healthy journal restores normal operation immediately.
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    assert_eq!(ts.mode(), ServerMode::Normal);
    ladder.push(ts.mode());
    let at = StPoint::xyt(100.0, 100.0, TimeSec(4_800));
    assert!(matches!(
        ts.handle_request(UserId(1), at, ServiceId(1)),
        RequestOutcome::Forwarded(..)
    ));

    // The ladder was walked in order: Normal → Degraded → ReadOnly →
    // Normal again, one counted transition per step. The broken sink
    // took none of its records; the fresh journal opens with the last.
    assert_eq!(
        ladder,
        vec![
            ServerMode::Normal,
            ServerMode::Degraded,
            ServerMode::ReadOnly,
            ServerMode::Normal,
        ]
    );
    assert_eq!(ts.log().stats().mode_changes, 3);
    ts.flush_journal().unwrap();
    let bytes = sink.bytes();
    let out = audit::replay(&bytes[..], AuditConfig::default());
    assert!(out.chain.verified(), "{:?}", out.chain.error);
    let journaled: Vec<(audit::Mode, audit::Mode)> = out
        .mode_transitions
        .iter()
        .map(|m| (m.from, m.to))
        .collect();
    assert_eq!(
        journaled,
        vec![(audit::Mode::ReadOnly, audit::Mode::Normal)]
    );
}

#[test]
fn crashed_file_journal_recovers_and_extends_a_verified_chain() {
    let dir = std::env::temp_dir().join(format!("hka-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");

    // Run a real pipeline into a file journal whose sink tears one write
    // mid-append (models a crash), then keeps going: everything after
    // the tear is unrecoverable garbage from the chain's point of view.
    {
        let world = small_world(11, 1);
        let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(3));
        let file = std::fs::File::create(&path).unwrap();
        let crashy = FaultInjector::new(FaultPlan::new(11).with_rule(
            sites::JOURNAL_IO,
            Trigger::Once(12),
            FaultKind::Torn,
        ));
        ts.attach_journal_with(
            obs::Journal::new(
                Box::new(FaultyWriter::new(file, crashy)) as Box<dyn Write + Send + Sync>
            ),
            RetryPolicy {
                attempts: 1,
                max_failures: 64,
                backoff_base: 1,
            },
        );
        for e in &world.events {
            match e.kind {
                EventKind::Location => ts.location_update(e.user, e.at),
                EventKind::Request { service } => {
                    let _ = ts.handle_request(e.user, e.at, ServiceId(service));
                }
            }
        }
        ts.flush_journal().unwrap();
    }

    // Recovery truncates the torn tail and resumes the hash chain.
    let (mut journal, report) = obs::recover(&path).unwrap();
    assert!(report.valid_records > 0, "no intact prefix survived");
    assert!(report.truncated_bytes > 0, "the tear left nothing to drop");
    journal
        .append(
            "chaos.recovered",
            obs::Json::obj([("ok", obs::Json::Bool(true))]),
        )
        .unwrap();
    journal.flush().unwrap();
    drop(journal);

    let file = std::fs::File::open(&path).unwrap();
    let chain = obs::verify_chain(std::io::BufReader::new(file)).expect("recovered chain verifies");
    // Recovery appended its own `journal.recovered` marker before ours.
    assert_eq!(chain.records.len() as u64, report.valid_records + 2);
    assert_eq!(
        chain.records[report.valid_records as usize].kind,
        "journal.recovered"
    );
    assert_eq!(chain.records.last().unwrap().kind, "chaos.recovered");
    std::fs::remove_file(&path).ok();
}

/// The chaos suite's live invariant checks, confirmed offline: a run
/// with request-path faults (dropped PHL writes, unavailable index and
/// mix-zones) but a healthy journal replays through `hka::audit` with a
/// verified chain, zero fail-open forwards, and an empty mode ladder.
/// What the inline assertions saw request-by-request, the auditor must
/// reconstruct from the durable record alone.
#[test]
fn audited_chaos_journal_replays_clean() {
    let world = small_world(21, 1);
    let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(4));
    let plan = FaultPlan::new(21)
        .with_rule(sites::PHL_WRITE, Trigger::EveryNth(5), FaultKind::Drop)
        .with_rule(
            sites::INDEX_QUERY,
            Trigger::EveryNth(7),
            FaultKind::Unavailable,
        )
        .with_rule(sites::MIXZONE, Trigger::EveryNth(3), FaultKind::Unavailable);
    let injector = FaultInjector::new(plan);
    ts.attach_faults(injector.clone());
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    for e in &world.events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let _ = ts.handle_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.flush_journal().unwrap();
    assert!(injector.total_fired() > 0, "the plan never fired");

    let bytes = sink.bytes();
    let out = audit::replay(&bytes[..], AuditConfig::default());
    assert!(out.chain.verified(), "{:?}", out.chain.error);
    assert!(out.ok(), "violations: {:?}", out.violations);
    assert!(
        out.violations.is_empty(),
        "faulted requests must fail closed"
    );
    assert!(out.mode_consistent);
    assert!(
        out.mode_transitions.is_empty(),
        "a healthy journal must keep the server in Normal"
    );
    assert!(out.totals.forwarded() > 0, "the run produced no traffic");
    assert_eq!(out.totals.forwarded(), ts.log().stats().forwarded() as u64);
}

/// The mode-ladder timeline survives the outage-and-recovery cycle: the
/// replacement journal attached after a total outage opens with the
/// ReadOnly → Normal transition, and the auditor finds the post-recovery
/// record consistent and violation-free.
#[test]
fn audited_recovery_journal_opens_with_the_ladder_transition() {
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(1), Tolerance::navigation());
    ts.register_user(UserId(1), PrivacyLevel::Off);

    let broken = FaultInjector::new(FaultPlan::new(5).with_rule(
        sites::JOURNAL_IO,
        Trigger::Always,
        FaultKind::Io,
    ));
    ts.attach_journal_with(
        obs::Journal::new(
            Box::new(FaultyWriter::new(std::io::sink(), broken)) as Box<dyn Write + Send + Sync>
        ),
        RetryPolicy {
            attempts: 1,
            max_failures: 2,
            backoff_base: 0,
        },
    );
    for t in 1..=6i64 {
        let at = StPoint::xyt(100.0, 100.0, TimeSec(600 * t));
        ts.location_update(UserId(1), at);
        let _ = ts.handle_request(UserId(1), at, ServiceId(1));
    }
    assert_eq!(ts.mode(), ServerMode::ReadOnly);

    // Recovery: the fresh journal records the ladder exit and the
    // traffic that resumed under it.
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    assert_eq!(ts.mode(), ServerMode::Normal);
    for t in 7..=9i64 {
        let at = StPoint::xyt(100.0, 100.0, TimeSec(600 * t));
        ts.location_update(UserId(1), at);
        let _ = ts.handle_request(UserId(1), at, ServiceId(1));
    }
    ts.flush_journal().unwrap();

    let bytes = sink.bytes();
    let out = audit::replay(&bytes[..], AuditConfig::default());
    assert!(out.chain.verified(), "{:?}", out.chain.error);
    assert!(out.ok(), "violations: {:?}", out.violations);
    assert_eq!(out.mode_transitions.len(), 1);
    assert_eq!(out.mode_transitions[0].from, audit::Mode::ReadOnly);
    assert_eq!(out.mode_transitions[0].to, audit::Mode::Normal);
    assert!(out.mode_consistent);
    assert!(out.totals.forwarded() > 0, "recovered traffic missing");
}
