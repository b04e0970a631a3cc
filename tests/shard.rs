//! Differential equivalence: a [`TrustedServer`] on a group-commit
//! journal vs one on a per-record journal, on identical seeded
//! workloads.
//!
//! The contract under test (see the `hka_core::server` module docs):
//! per-request outcomes match exactly — outcome kind, forwarded context
//! box, service, suppression reason, message id and pseudonym — the
//! statistics agree, and a healthy journal holds the same bytes.

use hka::obs;
use hka::prelude::*;
// For the shared tree oracle (`super::` there).
use hka::obs::sha256::sha256_hex;
use hka::obs::{ChainCursor, ChainError, JournalRecord, Json, JOURNAL_VERSION};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::SharedBuf;

#[allow(dead_code)]
#[path = "../crates/obs/src/journal/oracle.rs"]
mod oracle;

fn build_world(seed: u64, days: i64) -> World {
    World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: 6,
        n_roamers: 40,
        n_poi_regulars: 4,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn medium() -> PrivacyParams {
    PrivacyParams {
        k: 4,
        theta: 0.5,
        k_init: 8,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    }
}

/// The identical setup script, applied to either cadence.
struct Script {
    services: Vec<(ServiceId, Tolerance)>,
    users: Vec<(UserId, PrivacyLevel)>,
    lbqids: Vec<(UserId, Lbqid)>,
    overrides: Vec<(UserId, ServiceId, PrivacyLevel)>,
}

fn script(world: &World, params: PrivacyParams) -> Script {
    let commuters: Vec<UserId> = world.commuters().collect();
    Script {
        services: vec![
            (ServiceId(BACKGROUND_SERVICE), Tolerance::navigation()),
            (ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE)),
        ],
        users: world
            .agents
            .iter()
            .map(|a| {
                let level = if commuters.contains(&a.user) {
                    PrivacyLevel::Custom(params)
                } else {
                    PrivacyLevel::Off
                };
                (a.user, level)
            })
            .collect(),
        lbqids: commuters
            .iter()
            .map(|&u| {
                (
                    u,
                    Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
                )
            })
            .collect(),
        // Protected users still use the background service with privacy
        // off — the exact-forward path, which does not commit the group
        // journal before it runs.
        overrides: commuters
            .iter()
            .map(|&u| (u, ServiceId(BACKGROUND_SERVICE), PrivacyLevel::Off))
            .collect(),
    }
}

fn setup_seq(world: &World, config: TsConfig) -> TrustedServer {
    setup_with(world, config, medium())
}

/// [`setup_seq`] with `params` for the protected users.
fn setup_with(world: &World, config: TsConfig, params: PrivacyParams) -> TrustedServer {
    let s = script(world, params);
    let mut ts = TrustedServer::new(config);
    for (svc, tol) in s.services {
        ts.register_service(svc, tol);
    }
    for (u, level) in s.users {
        ts.register_user(u, level);
    }
    for (u, q) in s.lbqids {
        ts.add_lbqid(u, q);
    }
    for (u, svc, level) in s.overrides {
        ts.set_service_privacy(u, svc, level).unwrap();
    }
    ts
}

/// [`setup_seq`] on a group journal over `sink`.
fn setup_group(
    world: &World,
    config: TsConfig,
    sink: impl obs::DurableSink + 'static,
) -> TrustedServer {
    let mut ts = setup_seq(world, config);
    ts.attach_group_journal(obs::Journal::new(
        Box::new(sink) as Box<dyn obs::DurableSink>
    ));
    ts
}

type Outcomes = Vec<(UserId, Result<RequestOutcome, TsError>)>;

fn drive_seq(ts: &mut TrustedServer, events: &[Event]) -> Outcomes {
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                out.push((
                    e.user,
                    ts.try_handle_request(e.user, e.at, ServiceId(service)),
                ));
            }
        }
    }
    out
}

/// Drives the group server event by event, draining (and so committing)
/// every 50 events the way a served client's barriers would.
fn drive_group(ts: &mut TrustedServer, events: &[Event]) -> Outcomes {
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                out.push((
                    e.user,
                    ts.try_handle_request(e.user, e.at, ServiceId(service)),
                ));
            }
        }
        if i % 50 == 49 {
            RequestService::drain(ts);
        }
    }
    out
}

fn record_journal(path: &std::path::Path) -> obs::BoxedJournal {
    obs::Journal::new(
        Box::new(std::fs::File::create(path).unwrap()) as Box<dyn std::io::Write + Send + Sync>
    )
}

fn group_file(path: &std::path::Path) -> std::fs::File {
    std::fs::File::create(path).unwrap()
}

/// The outcomes forwarded something: an equality of two outcome lists
/// is an equality of what the provider saw, ids included.
fn assert_forwarded(outcomes: &Outcomes) {
    assert!(
        outcomes
            .iter()
            .any(|(_, o)| matches!(o, Ok(RequestOutcome::Forwarded(..)))),
        "nothing forwarded"
    );
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hka-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sharded_outcomes_match_sequential() {
    let world = build_world(42, 5);
    let (seq_log, grp_log) = (SharedBuf::default(), SharedBuf::default());
    let mut seq = setup_seq(&world, TsConfig::default());
    seq.attach_journal(obs::Journal::new(
        Box::new(seq_log.clone()) as Box<dyn std::io::Write + Send + Sync>
    ));
    let seq_out = drive_seq(&mut seq, &world.events);
    let mut grp = setup_group(&world, TsConfig::default(), grp_log.clone());
    let grp_out = drive_group(&mut grp, &world.events);
    assert_eq!(seq_out, grp_out, "outcomes, ids included");
    assert_forwarded(&grp_out);
    assert_eq!(seq.log().stats(), grp.log().stats(), "decision statistics");
    seq.flush_journal().unwrap();
    grp.flush_journal().unwrap();
    assert!(!seq_log.bytes().is_empty());
    assert!(seq_log.bytes() == grp_log.bytes(), "decision log");
    for agent in &world.agents {
        let u = agent.user;
        assert_eq!(seq.pseudonym_of(u), grp.pseudonym_of(u), "{u}");
        assert_eq!(seq.privacy_indicator(u), grp.privacy_indicator(u), "{u}");
    }
}

#[test]
fn sharded_audits_match_sequential() {
    let world = build_world(7, 7);
    let mut seq = setup_seq(&world, TsConfig::default());
    drive_seq(&mut seq, &world.events);
    let mut grp = setup_group(&world, TsConfig::default(), std::io::sink());
    drive_group(&mut grp, &world.events);
    for u in world.commuters() {
        let a = seq.audit_patterns(u, 4);
        let b = grp.audit_patterns(u, 4);
        assert_eq!(a.len(), b.len());
        for ((an, am, ah), (bn, bm, bh)) in a.iter().zip(&b) {
            assert_eq!(an, bn);
            assert_eq!(am, bm);
            assert_eq!(ah.satisfied, bh.satisfied, "user {u} pattern {an}");
        }
        assert_eq!(seq.pattern_contexts(u), grp.pattern_contexts(u), "user {u}");
    }
    for (user, phl) in seq.store().iter() {
        assert_eq!(Some(phl), grp.store().phl(user), "PHL of {user}");
    }
}

#[test]
fn unknown_user_requests_report_errors_without_aborting() {
    let world = build_world(3, 2);
    let mut grp = setup_group(&world, TsConfig::default(), std::io::sink());
    let ghost = UserId(9_999_999);
    let at = world.events[0].at;
    assert_eq!(
        grp.try_handle_request(ghost, at, ServiceId(BACKGROUND_SERVICE)),
        Err(TsError::UnknownUser(ghost))
    );
    // And the same through the seam: it surfaces as a rejection.
    let svc: &mut dyn RequestService = &mut grp;
    svc.submit(&RequestEnvelope::location(1, ghost, at)); // unregistered ingest is fine
    svc.submit(&RequestEnvelope::request(
        2,
        ghost,
        at,
        ServiceId(ANCHOR_SERVICE),
    ));
    let responses = svc.drain();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].req_id, 2);
    assert_eq!(responses[0].outcome, WireOutcome::Rejected);
    assert_eq!(responses[0].detail, "unknown_user");
}

/// With a randomizer configured the group server replays the per-record
/// execution *exactly*: message ids, pseudonyms, randomized boxes — and
/// the journal bytes.
#[test]
fn serialized_mode_is_byte_identical_including_journals() {
    let dir = scratch("bytes");
    let (seq_path, grp_path) = (dir.join("seq.jsonl"), dir.join("grp.jsonl"));
    let config = TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    };
    let world = build_world(11, 4);

    let mut seq = setup_seq(&world, config);
    seq.attach_journal(record_journal(&seq_path));
    let seq_out = drive_seq(&mut seq, &world.events);
    seq.flush_journal().unwrap();

    let mut grp = setup_group(&world, config, group_file(&grp_path));
    let grp_out = drive_group(&mut grp, &world.events);
    grp.flush_journal().unwrap();

    assert_eq!(seq_out, grp_out);
    assert_forwarded(&grp_out);
    drop((seq, grp));
    // Group commit batches the appends but chains the same bytes.
    let a = std::fs::read(&seq_path).unwrap();
    assert!(!a.is_empty());
    assert!(
        a == std::fs::read(&grp_path).unwrap(),
        "journal bytes diverge"
    );
}

/// The same fault plan drives identical outcomes through both servers —
/// chaos testing can run through the group-commit server.
#[test]
fn fault_plans_replay_identically() {
    for seed in [1u64, 5, 9] {
        let world = build_world(seed, 3);

        let mut seq = setup_seq(&world, TsConfig::default());
        seq.attach_faults(FaultInjector::new(randomized_plan(seed)));
        let seq_out = drive_seq(&mut seq, &world.events);

        let mut grp = setup_group(&world, TsConfig::default(), std::io::sink());
        grp.attach_faults(FaultInjector::new(randomized_plan(seed)));
        let grp_out = drive_group(&mut grp, &world.events);

        // Exact equality, ids included.
        assert_eq!(seq_out, grp_out, "seed {seed}");
        assert_forwarded(&grp_out);
        assert_eq!(seq.log().stats(), grp.log().stats(), "seed {seed}");
    }
}

/// A city crowded enough that some unlink attempts find their k
/// diverging trajectories and some do not.
fn build_crowded_world(seed: u64) -> World {
    World::generate(&WorldConfig {
        seed,
        days: 2,
        n_commuters: 4,
        n_roamers: 60,
        n_poi_regulars: 6,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn count_kind(journal: &[u8], kind: &str) -> usize {
    let needle = format!("\"kind\":\"{kind}\"");
    std::str::from_utf8(journal)
        .unwrap()
        .lines()
        .filter(|l| l.contains(&needle))
        .count()
}

/// The unlink path end to end: a run in which on-demand mix-zones are
/// both found (`ts.pseudonym_changed`) and not found (`ts.at_risk`)
/// writes the same journal bytes whether the crowd is searched through
/// the per-record server's eager index or the group server's lazy one, over
/// the grid or its brute-force specification — with the default config
/// and with the randomizer on.
#[test]
fn an_unlinking_run_is_byte_identical_under_group_commit() {
    let dir = scratch("unlink");
    let world = build_crowded_world(1);
    let randomized = TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    };

    for (name, config) in [("default", TsConfig::default()), ("randomized", randomized)] {
        let seq_path = dir.join(format!("{name}-seq.jsonl"));
        let mut seq = setup_seq(&world, config);
        seq.attach_journal(record_journal(&seq_path));
        let seq_out = drive_seq(&mut seq, &world.events);
        seq.flush_journal().unwrap();
        let want = std::fs::read(&seq_path).unwrap();
        let unlinked = count_kind(&want, "ts.pseudonym_changed");
        let at_risk = count_kind(&want, "ts.at_risk");
        assert!(
            unlinked >= 1 && at_risk >= 1,
            "{name}: the scenario must unlink and fail to: {unlinked} ts.pseudonym_changed, {at_risk} ts.at_risk"
        );

        for backend in IndexBackend::ALL {
            let path = dir.join(format!("{name}-{backend}.jsonl"));
            let mut grp = setup_group(&world, TsConfig { backend, ..config }, group_file(&path));
            let out = drive_group(&mut grp, &world.events);
            grp.flush_journal().unwrap();
            assert_eq!(out, seq_out, "{name}, {backend}: outcomes");
            assert_forwarded(&out);
            assert!(
                std::fs::read(&path).unwrap() == want,
                "{name}, {backend}: journal bytes"
            );
        }
    }
}

/// Compaction writes no journal record on either server (DESIGN §13.4):
/// a compacting group server journals exactly the bytes of an
/// uncompacted per-record twin, and still answers like a per-record
/// server compacted the same way. Compaction drops the lazy index; the
/// first protected request after it rebuilds from the folded store.
#[test]
fn group_compaction_journals_the_same_bytes_as_an_uncompacted_record_twin() {
    let dir = scratch("compact");
    let world = build_world(29, 6);
    let split = world.events.len() / 2;
    let policy = CompactionPolicy::new(12 * HOUR, Granularity::Hours);

    // Every pattern of the first half has its anonymity set by the time
    // of the compaction, and later elements reuse it without touching
    // the index. So a user signs up right after the compaction and
    // shadows one commuter: their first matching request is the first
    // index query the compacted server has to answer.
    let shadowed = world.commuters().next().unwrap();
    let late = UserId(7_000_000);
    let late_lbqid = || {
        Lbqid::example_commute(
            world.home_of(shadowed).unwrap(),
            world.office_of(shadowed).unwrap(),
        )
    };
    let tail: Vec<Event> = world.events[split..]
        .iter()
        .flat_map(|e| {
            let shadow = (e.user == shadowed).then_some(Event { user: late, ..*e });
            std::iter::once(*e).chain(shadow)
        })
        .collect();
    let now = world.events[split].at.t;

    // The uncompacted per-record twin.
    let twin_path = dir.join("twin.jsonl");
    let mut twin = setup_seq(&world, TsConfig::default());
    twin.attach_journal(record_journal(&twin_path));
    let mut twin_out = drive_seq(&mut twin, &world.events[..split]);
    twin.register_user(late, PrivacyLevel::Custom(medium()));
    twin.add_lbqid(late, late_lbqid());
    twin_out.extend(drive_seq(&mut twin, &tail));
    twin.flush_journal().unwrap();

    // A per-record server compacted at `now`.
    let mut seq = setup_seq(&world, TsConfig::default());
    let mut seq_out = drive_seq(&mut seq, &world.events[..split]);
    let seq_stats = seq.compact_history(now, &policy);
    seq.register_user(late, PrivacyLevel::Custom(medium()));
    seq.add_lbqid(late, late_lbqid());
    seq_out.extend(drive_seq(&mut seq, &tail));

    let path = dir.join("group.jsonl");
    let mut grp = setup_group(&world, TsConfig::default(), group_file(&path));
    let mut grp_out = drive_group(&mut grp, &world.events[..split]);
    assert!(format!("{grp:?}").contains("indexed: true"), "{grp:?}");
    let grp_stats = grp.compact_history(now, &policy);
    assert_eq!(
        grp_stats.points_dropped(),
        seq_stats.points_dropped(),
        "same points folded as the per-record server"
    );
    assert!(
        format!("{grp:?}").contains("indexed: false"),
        "compaction drops the index: {grp:?}"
    );
    grp.register_user(late, PrivacyLevel::Custom(medium()));
    grp.add_lbqid(late, late_lbqid());
    grp_out.extend(drive_group(&mut grp, &tail));
    assert!(
        format!("{grp:?}").contains("indexed: true"),
        "rebuilt from the folded store: {grp:?}"
    );
    assert_eq!(seq_out, grp_out, "outcomes");
    assert_forwarded(&grp_out);
    assert_eq!(twin_out, grp_out, "compaction changes no decision");
    for (user, phl) in seq.store().iter() {
        assert_eq!(Some(phl), grp.store().phl(user), "PHL of {user}");
    }

    grp.flush_journal().unwrap();
    drop(grp);
    // `assert!`, not `assert_eq!`: a diff of two journals' bytes is
    // megabytes of numbers.
    assert!(
        std::fs::read(&path).unwrap() == std::fs::read(&twin_path).unwrap(),
        "a compacting group server journals its uncompacted twin's bytes"
    );
}

/// The group journal is a well-formed hash chain and a clean audit:
/// `verify_chain` accepts it and `hka-audit` replays it with zero
/// violations, exactly as for the per-record server.
#[test]
fn sharded_journal_verifies_and_audits_clean() {
    let path = scratch("audit").join("journal.jsonl");
    let world = build_world(21, 6);
    let mut grp = setup_group(&world, TsConfig::default(), group_file(&path));
    drive_group(&mut grp, &world.events);
    grp.flush_journal().unwrap();
    drop(grp);

    let file = std::fs::File::open(&path).unwrap();
    let report = obs::verify_chain(std::io::BufReader::new(file)).expect("chain intact");
    assert!(!report.records.is_empty());

    let outcome = hka::audit::replay_file(&path, hka::audit::AuditConfig::default()).unwrap();
    assert!(outcome.chain.error.is_none(), "{:?}", outcome.chain.error);
    assert!(outcome.mode_consistent);
    assert!(
        outcome.violations.is_empty(),
        "audit violations: {:?}",
        outcome.violations
    );
    assert!(
        outcome.schema_issues.is_empty(),
        "{:?}",
        outcome.schema_issues
    );
}

/// Both cadences' journals, line by line, get the verdict of the tree
/// verifier the line verifier replaced: every line admitted, each as
/// the record the tree parses.
#[test]
fn both_cadences_journals_get_the_tree_verifiers_verdict() {
    let dir = scratch("oracle");
    let world = build_world(17, 3);
    let record_path = dir.join("record.jsonl");
    let mut seq = setup_seq(&world, TsConfig::default());
    seq.attach_journal(record_journal(&record_path));
    drive_seq(&mut seq, &world.events);
    seq.flush_journal().unwrap();
    drop(seq);
    let group_path = dir.join("group.jsonl");
    let mut grp = setup_group(&world, TsConfig::default(), group_file(&group_path));
    drive_group(&mut grp, &world.events);
    grp.flush_journal().unwrap();
    drop(grp);

    for path in [&record_path, &group_path] {
        let text = std::fs::read_to_string(path).unwrap();
        let mut cursor = ChainCursor::new();
        for (i, line) in text.split_inclusive('\n').enumerate() {
            assert!(oracle::assert_agree(&mut cursor, i + 1, line), "{line:?}");
        }
        assert!(
            cursor.records() > 100,
            "{}: {} records",
            path.display(),
            cursor.records()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts the records a journal writes (one line each) and the syncs it
/// asks its sink for.
#[derive(Clone, Default)]
struct CountingSink {
    records: Arc<AtomicU64>,
    syncs: Arc<AtomicU64>,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.records.fetch_add(lines, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl obs::DurableSink for CountingSink {
    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Group commit's win over a journal that syncs every record is fsync
/// batching, so it is pinned as a count, not a wall clock: on a seeded
/// protected city (8 commuters behind LBQIDs at k = 5, their background
/// service privacy-off, 40 roamers, 3 days), driven through the seam
/// and drained once, the group journal writes at least `PIN` records
/// per sync (it measured 1,332 records in 97 syncs, 13.7 each). A
/// per-record journal on a durable sink writes one.
#[test]
fn group_commit_journals_many_records_per_sync() {
    const PIN: u64 = 13;
    let world = World::generate(&WorldConfig {
        seed: 1,
        days: 3,
        n_commuters: 8,
        n_roamers: 40,
        n_poi_regulars: 4,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });
    let params = PrivacyParams {
        k: 5,
        theta: 0.5,
        k_init: 10,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    };
    let sink = CountingSink::default();
    let mut ts = setup_with(&world, TsConfig::default(), params);
    ts.attach_group_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn obs::DurableSink>
    ));
    let svc: &mut dyn RequestService = &mut ts;
    for (i, e) in world.events.iter().enumerate() {
        svc.submit(&match e.kind {
            EventKind::Location => RequestEnvelope::location(i as u64, e.user, e.at),
            EventKind::Request { service } => {
                RequestEnvelope::request(i as u64, e.user, e.at, ServiceId(service))
            }
        });
    }
    svc.drain();
    ts.flush_journal().unwrap();
    let records = sink.records.load(Ordering::Relaxed);
    let syncs = sink.syncs.load(Ordering::Relaxed);
    println!("{records} records in {syncs} syncs");
    assert!(syncs > 0, "the group journal never synced");
    assert!(
        records >= PIN * syncs,
        "{records} records in {syncs} syncs: fewer than {PIN} per sync"
    );
}
