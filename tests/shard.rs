//! Differential equivalence: the sharded frontend ([`ShardedTs`]) vs
//! the sequential [`TrustedServer`], on identical seeded workloads.
//!
//! The contract under test (see `crates/shard`): for every shard count,
//! per-request outcomes match the sequential server exactly — outcome
//! kind, forwarded context box, service, suppression reason, message id
//! and pseudonym — the decision log and statistics agree, and a healthy
//! journal holds the same bytes.

use hka::obs;
use hka::prelude::*;

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

/// The identical setup script, applied to either server type.
struct Script {
    services: Vec<(ServiceId, Tolerance)>,
    users: Vec<(UserId, PrivacyLevel)>,
    lbqids: Vec<(UserId, Lbqid)>,
    overrides: Vec<(UserId, ServiceId, PrivacyLevel)>,
}

fn script(world: &World) -> Script {
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
                    PrivacyLevel::Custom(medium())
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
        // off — the exact-forward path, which commits no journal batch
        // before it runs.
        overrides: commuters
            .iter()
            .map(|&u| (u, ServiceId(BACKGROUND_SERVICE), PrivacyLevel::Off))
            .collect(),
    }
}

fn setup_seq(world: &World, config: TsConfig) -> TrustedServer {
    let s = script(world);
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

fn setup_sharded(world: &World, config: TsConfig, shards: usize) -> ShardedTs {
    let s = script(world);
    let mut ts = ShardedTs::new(config, shards);
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

type Outcomes = Vec<(UserId, Result<RequestOutcome, TsError>)>;

fn drive_seq(ts: &mut TrustedServer, world: &World) -> Outcomes {
    let mut out = Vec::new();
    for e in &world.events {
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

fn drive_sharded(ts: &mut ShardedTs, world: &World) -> Outcomes {
    for e in &world.events {
        match e.kind {
            EventKind::Location => {
                ts.submit_location(e.user, e.at);
            }
            EventKind::Request { service } => {
                ts.submit_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.take_outcomes()
        .into_iter()
        .map(|(_, user, outcome)| (user, outcome))
        .collect()
}

/// No id the provider sees may carry anything about its issuer — in
/// particular not the issuer's shard in its high bits.
fn assert_ids_below_2_48(shards: usize, view: &[SpRequest]) {
    for r in view {
        assert_eq!(
            r.msg_id.0 >> 48,
            0,
            "{shards} shards: msg id {:?}",
            r.msg_id
        );
        assert_eq!(
            r.pseudonym.0 >> 48,
            0,
            "{shards} shards: pseudonym {:?}",
            r.pseudonym
        );
    }
}

#[test]
fn sharded_outcomes_match_sequential_for_every_shard_count() {
    let world = build_world(42, 5);
    let mut seq = setup_seq(&world, TsConfig::default());
    let seq_out = drive_seq(&mut seq, &world);
    let seq_events: Vec<&TsEvent> = seq.log().events().collect();
    for shards in [1usize, 2, 4, 8] {
        let mut shd = setup_sharded(&world, TsConfig::default(), shards);
        let shd_out = drive_sharded(&mut shd, &world);
        assert_eq!(seq_out, shd_out, "{shards} shards: outcomes, ids included");
        assert_eq!(
            seq.provider_view(),
            shd.provider_view(),
            "{shards} shards: provider view"
        );
        assert_ids_below_2_48(shards, &shd.provider_view());
        assert_eq!(
            seq.log().stats(),
            shd.stats(),
            "{shards} shards: decision statistics"
        );
        let shd_events: Vec<&TsEvent> = shd.log().events().collect();
        assert_eq!(seq_events, shd_events, "{shards} shards: decision log");
        for agent in &world.agents {
            let u = agent.user;
            assert_eq!(seq.pseudonym_of(u), shd.pseudonym_of(u), "{shards}: {u}");
            assert_eq!(seq.is_at_risk(u), shd.is_at_risk(u), "{shards}: {u}");
            assert_eq!(
                seq.privacy_indicator(u),
                shd.privacy_indicator(u),
                "{shards}: {u}"
            );
        }
    }
}

#[test]
fn sharded_audits_match_sequential() {
    let world = build_world(7, 7);
    let mut seq = setup_seq(&world, TsConfig::default());
    drive_seq(&mut seq, &world);
    let mut shd = setup_sharded(&world, TsConfig::default(), 4);
    drive_sharded(&mut shd, &world);
    for u in world.commuters() {
        let a = seq.audit_patterns(u, 4);
        let b = shd.audit_patterns(u, 4);
        assert_eq!(a.len(), b.len());
        for ((an, am, ah), (bn, bm, bh)) in a.iter().zip(&b) {
            assert_eq!(an, bn);
            assert_eq!(am, bm);
            assert_eq!(ah.satisfied, bh.satisfied, "user {u} pattern {an}");
        }
        assert_eq!(seq.pattern_contexts(u), shd.pattern_contexts(u), "user {u}");
    }
    // The merged store is the sequential store.
    let merged = shd.merged_store();
    for (user, phl) in seq.store().iter() {
        assert_eq!(Some(phl), merged.phl(user), "PHL of {user}");
    }
}

#[test]
fn unknown_user_requests_report_errors_without_aborting() {
    let world = build_world(3, 2);
    let mut shd = setup_sharded(&world, TsConfig::default(), 2);
    let ghost = UserId(9_999_999);
    let at = world.events[0].at;
    assert_eq!(
        shd.request_now(ghost, at, ServiceId(BACKGROUND_SERVICE)),
        Err(TsError::UnknownUser(ghost))
    );
    // And the same submitted mid-stream: it surfaces in the outcomes.
    shd.submit_location(ghost, at); // unregistered ingest is fine
    let pos = shd.submit_request(ghost, at, ServiceId(ANCHOR_SERVICE));
    let outcomes = shd.take_outcomes();
    let (_, user, res) = outcomes.iter().find(|(p, _, _)| *p == pos).unwrap();
    assert_eq!(*user, ghost);
    assert_eq!(*res, Err(TsError::UnknownUser(ghost)));
}

/// With a randomizer configured the sharded server replays the
/// sequential execution *exactly*: message ids, pseudonyms, randomized
/// boxes — and the journal bytes.
#[test]
fn serialized_mode_is_byte_identical_including_journals() {
    let dir = std::env::temp_dir().join(format!("hka-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seq_path = dir.join("seq.jsonl");
    let shd_path = dir.join("shd.jsonl");

    let config = TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    };
    let world = build_world(11, 4);

    let mut seq = setup_seq(&world, config);
    seq.attach_journal(obs::Journal::new(
        Box::new(std::fs::File::create(&seq_path).unwrap())
            as Box<dyn std::io::Write + Send + Sync>,
    ));
    let seq_out = drive_seq(&mut seq, &world);
    seq.flush_journal().unwrap();
    drop(seq);

    let mut shd = setup_sharded(&world, config, 4);
    shd.attach_journal(obs::Journal::new(
        Box::new(std::fs::File::create(&shd_path).unwrap()) as Box<dyn obs::DurableSink>,
    ));
    let shd_out = drive_sharded(&mut shd, &world);
    shd.flush_journal().unwrap();
    drop(shd);

    // Full equality: same Forwarded payloads (msg ids, pseudonyms,
    // randomized contexts), same suppressions.
    assert_eq!(seq_out, shd_out);

    // The two journals are byte-identical: group commit batches the
    // appends but chains the same bytes.
    let a = std::fs::read(&seq_path).unwrap();
    let b = std::fs::read(&shd_path).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "journal bytes diverge");
}

/// The same fault plan drives identical outcomes through both servers —
/// chaos testing can run through the sharded frontend.
#[test]
fn fault_plans_replay_identically() {
    for seed in [1u64, 5, 9] {
        let world = build_world(seed, 3);

        let mut seq = setup_seq(&world, TsConfig::default());
        seq.attach_faults(FaultInjector::new(randomized_plan(seed)));
        let seq_out = drive_seq(&mut seq, &world);

        let mut shd = setup_sharded(&world, TsConfig::default(), 4);
        shd.attach_faults(FaultInjector::new(randomized_plan(seed)));
        let shd_out = drive_sharded(&mut shd, &world);

        // Exact equality, ids included.
        assert_eq!(seq_out, shd_out, "seed {seed}");
        assert_eq!(seq.log().stats(), shd.stats(), "seed {seed}");
    }
}

/// The sharded read path's safety gate: the same 4-shard workload run
/// over the grid index and over the brute-force specification produces
/// identical outcomes and **byte-identical journals** — the
/// incrementally maintained union is pinned to the exhaustive scan end
/// to end, not just at the query seam.
#[test]
fn grid_union_matches_the_brute_union_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("hka-shard-union-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world = build_world(17, 5);

    let mut journals = Vec::new();
    for backend in IndexBackend::ALL {
        let path = dir.join(format!("union-{backend}.jsonl"));
        let config = TsConfig {
            backend,
            ..TsConfig::default()
        };
        let mut shd = setup_sharded(&world, config, 4);
        shd.attach_journal(obs::Journal::new(
            Box::new(std::fs::File::create(&path).unwrap()) as Box<dyn obs::DurableSink>,
        ));
        let out = drive_sharded(&mut shd, &world);
        shd.flush_journal().unwrap();
        assert!(
            shd.union_generation() > 0,
            "{backend}: the union actually ran (generation stamped)"
        );
        journals.push((std::fs::read(&path).unwrap(), out));
    }
    let (a_bytes, a_out) = &journals[0];
    let (b_bytes, b_out) = &journals[1];
    assert_eq!(a_out, b_out, "outcomes diverge between grid and brute");
    assert!(!a_bytes.is_empty());
    assert_eq!(
        a_bytes, b_bytes,
        "journal bytes diverge between grid and brute"
    );
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

fn journal_to(path: &std::path::Path) -> obs::Journal<Box<dyn obs::DurableSink>> {
    obs::Journal::new(Box::new(std::fs::File::create(path).unwrap()) as Box<dyn obs::DurableSink>)
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
/// the sequential server's index or through the union over 1, 2, 4 or 8
/// shards — with the default config and with the randomizer on.
#[test]
fn an_unlinking_run_is_byte_identical_at_every_shard_count() {
    let dir = std::env::temp_dir().join(format!("hka-shard-unlink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world = build_crowded_world(1);
    let randomized = TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    };

    for (name, config) in [("default", TsConfig::default()), ("randomized", randomized)] {
        let seq_path = dir.join(format!("{name}-seq.jsonl"));
        let mut seq = setup_seq(&world, config);
        seq.attach_journal(obs::Journal::new(
            Box::new(std::fs::File::create(&seq_path).unwrap())
                as Box<dyn std::io::Write + Send + Sync>,
        ));
        let seq_out = drive_seq(&mut seq, &world);
        seq.flush_journal().unwrap();
        let want = std::fs::read(&seq_path).unwrap();
        let unlinked = count_kind(&want, "ts.pseudonym_changed");
        let at_risk = count_kind(&want, "ts.at_risk");
        assert!(
            unlinked >= 1 && at_risk >= 1,
            "{name}: the scenario must unlink and fail to: {unlinked} ts.pseudonym_changed, {at_risk} ts.at_risk"
        );

        for shards in [1usize, 2, 4, 8] {
            let path = dir.join(format!("{name}-{shards}.jsonl"));
            let mut shd = setup_sharded(&world, config, shards);
            shd.attach_journal(journal_to(&path));
            let out = drive_sharded(&mut shd, &world);
            shd.flush_journal().unwrap();
            assert_eq!(out, seq_out, "{name}, {shards} shards: outcomes");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                want,
                "{name}, {shards} shards: journal bytes"
            );
        }
    }
}

/// Sharded compaction: folds every shard's partition, **invalidates
/// the union** (a removal is what an insert cannot express), journals
/// one deterministic `ts.compaction` chain record — and afterwards the
/// first protected request rebuilds the union from the folded stores
/// and the server still answers exactly like a sequential server
/// compacted the same way.
#[test]
fn sharded_compaction_matches_sequential_and_rebuilds_the_union() {
    let dir = std::env::temp_dir().join(format!("hka-shard-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world = build_world(29, 6);
    let split = world.events.len() / 2;
    let policy = CompactionPolicy::new(12 * HOUR, Granularity::Hours);

    let drive_slice = |seq: &mut TrustedServer, events: &[Event]| {
        let mut out = Vec::new();
        for e in events {
            match e.kind {
                EventKind::Location => seq.location_update(e.user, e.at),
                EventKind::Request { service } => {
                    out.push((
                        e.user,
                        seq.try_handle_request(e.user, e.at, ServiceId(service)),
                    ));
                }
            }
        }
        out
    };
    let drive_slice_shd = |shd: &mut ShardedTs, events: &[Event]| {
        for e in events {
            match e.kind {
                EventKind::Location => {
                    shd.submit_location(e.user, e.at);
                }
                EventKind::Request { service } => {
                    shd.submit_request(e.user, e.at, ServiceId(service));
                }
            }
        }
        shd.take_outcomes()
            .into_iter()
            .map(|(_, user, outcome)| (user, outcome))
            .collect::<Outcomes>()
    };

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

    let mut seq = setup_seq(&world, TsConfig::default());
    let mut seq_out = drive_slice(&mut seq, &world.events[..split]);
    let now = world.events[split].at.t;
    let seq_stats = seq.compact_history(now, &policy);
    seq.register_user(late, PrivacyLevel::Custom(medium()));
    seq.add_lbqid(late, late_lbqid());
    seq_out.extend(drive_slice(&mut seq, &tail));

    let mut chain_bytes = Vec::new();
    for shards in [2usize, 4] {
        let path = dir.join(format!("compact-{shards}.jsonl"));
        let mut shd = setup_sharded(&world, TsConfig::default(), shards);
        shd.attach_journal(obs::Journal::new(
            Box::new(std::fs::File::create(&path).unwrap()) as Box<dyn obs::DurableSink>,
        ));
        let mut shd_out = drive_slice_shd(&mut shd, &world.events[..split]);

        let gen_before = shd.union_generation();
        let shd_stats = shd.compact_history(now, &policy);
        assert_eq!(
            shd_stats.points_dropped(),
            seq_stats.points_dropped(),
            "{shards} shards: same points folded as the sequential server"
        );
        let gen_compacted = shd.union_generation();
        assert!(
            gen_compacted > gen_before,
            "{shards} shards: an index generation spanning the compaction is discarded"
        );

        shd.register_user(late, PrivacyLevel::Custom(medium()));
        shd.add_lbqid(late, late_lbqid());
        shd_out.extend(drive_slice_shd(&mut shd, &tail));
        // An invalidated union ignores inserts, so only a rebuild moves
        // its generation.
        assert!(
            shd.union_generation() > gen_compacted,
            "{shards} shards: the union was rebuilt from the folded stores"
        );
        assert_eq!(seq_out, shd_out, "{shards} shards: outcomes");

        // The folded global store is the sequential folded store.
        let merged = shd.merged_store();
        for (user, phl) in seq.store().iter() {
            assert_eq!(
                Some(phl),
                merged.phl(user),
                "{shards} shards: PHL of {user}"
            );
        }

        shd.flush_journal().unwrap();
        drop(shd);
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert!(
            text.contains("ts.compaction"),
            "{shards} shards: compaction anchored in the chain"
        );
        chain_bytes.push(bytes);
    }
    assert_eq!(
        chain_bytes[0], chain_bytes[1],
        "compaction journals diverge across shard counts"
    );
}

/// Co-arriving protected requests run as a batch; the batch counters
/// move, and outcomes equal driving the same requests one flush at a
/// time. The sequential bulk API rides the same
/// seam: [`TrustedServer::handle_requests`] must equal one-by-one
/// [`TrustedServer::try_handle_request`] calls.
#[test]
fn co_arriving_protected_requests_batch_without_changing_results() {
    let world = build_world(33, 4);

    // One flush for the whole world (maximal batching) ...
    let mut batched = setup_sharded(&world, TsConfig::default(), 4);
    let snap_before = hka::obs::global().snapshot();
    let batched_out = drive_sharded(&mut batched, &world);
    let snap_after = hka::obs::global().snapshot();
    let batches =
        |s: &hka::obs::MetricsSnapshot| s.counters.get("ts.request_batches").copied().unwrap_or(0);
    assert!(
        batches(&snap_after) > batches(&snap_before),
        "protected runs went through the batched path"
    );

    // ... versus one flush per event (no co-arrival, no batching).
    let mut single = setup_sharded(&world, TsConfig::default(), 4);
    let mut single_out: Outcomes = Vec::new();
    for e in &world.events {
        match e.kind {
            EventKind::Location => single.location_update(e.user, e.at),
            EventKind::Request { service } => {
                single_out.push((e.user, single.request_now(e.user, e.at, ServiceId(service))));
            }
        }
    }
    assert_eq!(single_out, batched_out);

    // Sequential bulk API: same contract at the strategy seam.
    let mut seq_bulk = setup_seq(&world, TsConfig::default());
    let mut seq_one = setup_seq(&world, TsConfig::default());
    let mut requests = Vec::new();
    for e in &world.events {
        match e.kind {
            EventKind::Location => {
                // Keep both PHLs identical between request batches.
                seq_bulk.location_update(e.user, e.at);
                seq_one.location_update(e.user, e.at);
            }
            EventKind::Request { service } => requests.push((e.user, e.at, ServiceId(service))),
        }
    }
    let bulk_out = seq_bulk.handle_requests(&requests);
    let one_out: Vec<_> = requests
        .iter()
        .map(|(u, at, svc)| seq_one.try_handle_request(*u, *at, *svc))
        .collect();
    assert_eq!(bulk_out, one_out);
}

/// The sharded journal is a well-formed hash chain and a clean audit:
/// `verify_chain` accepts it and `hka-audit` replays it with zero
/// violations, exactly as for the sequential server.
#[test]
fn sharded_journal_verifies_and_audits_clean() {
    let dir = std::env::temp_dir().join(format!("hka-shard-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");

    let world = build_world(21, 6);
    let mut shd = setup_sharded(&world, TsConfig::default(), 4);
    shd.attach_journal(obs::Journal::new(
        Box::new(std::fs::File::create(&path).unwrap()) as Box<dyn obs::DurableSink>,
    ));
    drive_sharded(&mut shd, &world);
    shd.flush_journal().unwrap();
    let journal = shd.take_journal().expect("journal attached");
    assert!(journal.next_seq() > 0, "journal recorded events");
    drop(journal);

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
