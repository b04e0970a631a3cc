//! **Continuous benchmark: sharded request pipeline + group-commit
//! journaling.**
//!
//! Drives one seeded protected-city workload through:
//!
//! 1. the **baseline**: the sequential `TrustedServer` with a per-event
//!    *durable* journal — every appended record is individually fsynced,
//!    the durability contract a single-node deployment would run with;
//! 2. the **ladder**: `ShardedTs` with 1 / 2 / 4 / 8 shards, journaling
//!    through the group-commit writer (one batched append + one fsync
//!    before each protected request and at the end of each flush).
//!
//! Writes `BENCH_shard.json` with the throughput of every run, the
//! headline `speedup_4x` (4-shard sharded vs the durability-equivalent
//! sequential baseline — fsync batching is the whole win), and the
//! raw shard-vs-shard ladder, which measures what partitioning costs. Every journal written is chain-verified and
//! replayed through `hka-audit`; the bench exits non-zero on a chain
//! failure, an audit violation, or a per-shard-count outcome mismatch
//! against the baseline — a correctness regression fails the bench job,
//! not just a slow run.
//!
//! ```text
//! cargo run --release -p hka-bench --bin bench_shard -- [--out DIR] [--index grid|brute]
//! ```
//!
//! `--index` selects the [`SpatialIndex`] backend behind Algorithm 1 on
//! both the baseline and the ladder (the differential outcome check
//! then also validates that backend end-to-end under sharding).

use std::io::Write;
use std::time::Instant;

use hka_anonymity::ServiceId;
use hka_audit::AuditConfig;
use hka_core::{
    PrivacyLevel, PrivacyParams, RequestEnvelope, RequestService, ResponseEnvelope, RiskAction,
    Tolerance, TrustedServer, TsConfig,
};
use hka_geo::MINUTE;
use hka_lbqid::Lbqid;
use hka_mobility::{CityConfig, EventKind, World, WorldConfig, ANCHOR_SERVICE, BACKGROUND_SERVICE};
use hka_obs::Json;
use hka_shard::ShardedTs;
use hka_trajectory::{IndexBackend, UserId};

const SEED: u64 = 1;
const DAYS: i64 = 3;
const COMMUTERS: usize = 8;
const ROAMERS: usize = 40;
const K: usize = 5;

/// A file sink that fsyncs every write: with one `write_all` per journal
/// record, this is exactly "durable after every event" — the baseline
/// durability contract group commit amortizes.
struct FsyncEachWrite(std::fs::File);

impl Write for FsyncEachWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write_all(buf)?;
        self.0.sync_data()?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

fn build_world() -> World {
    World::generate(&WorldConfig {
        seed: SEED,
        days: DAYS,
        n_commuters: COMMUTERS,
        n_roamers: ROAMERS,
        n_poi_regulars: ROAMERS / 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn params() -> PrivacyParams {
    PrivacyParams {
        k: K,
        theta: 0.5,
        k_init: 2 * K,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    }
}

/// The identical setup script, applied to either server type.
struct Script {
    users: Vec<(UserId, PrivacyLevel)>,
    lbqids: Vec<(UserId, Lbqid)>,
    overrides: Vec<(UserId, ServiceId, PrivacyLevel)>,
}

fn script(world: &World) -> Script {
    let commuters: Vec<UserId> = world.commuters().collect();
    Script {
        users: world
            .agents
            .iter()
            .map(|a| {
                let level = if commuters.contains(&a.user) {
                    PrivacyLevel::Custom(params())
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
        // The background service is exact-forward for everyone; making
        // that explicit per user keeps those requests off the
        // commit-before-run path (the sequential server resolves the
        // same override to the same decision).
        overrides: commuters
            .iter()
            .map(|&u| (u, ServiceId(BACKGROUND_SERVICE), PrivacyLevel::Off))
            .collect(),
    }
}

fn setup_seq(world: &World, backend: IndexBackend) -> TrustedServer {
    let s = script(world);
    let mut ts = TrustedServer::new(TsConfig {
        backend,
        ..TsConfig::default()
    });
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    for (u, level) in s.users {
        ts.register_user(u, level);
    }
    for (u, q) in s.lbqids {
        ts.add_lbqid(u, q);
    }
    for (u, svc, level) in s.overrides {
        ts.set_service_privacy(u, svc, level).expect("registered");
    }
    ts
}

fn setup_sharded(world: &World, shards: usize, backend: IndexBackend) -> ShardedTs {
    let s = script(world);
    let mut ts = ShardedTs::new(
        TsConfig {
            backend,
            ..TsConfig::default()
        },
        shards,
    );
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    for (u, level) in s.users {
        ts.register_user(u, level);
    }
    for (u, q) in s.lbqids {
        ts.add_lbqid(u, q);
    }
    for (u, svc, level) in s.overrides {
        ts.set_service_privacy(u, svc, level).expect("registered");
    }
    ts
}

/// The workload as wire envelopes — what every backend is driven with
/// through the [`RequestService`] seam.
fn envelopes(world: &World) -> Vec<RequestEnvelope> {
    world
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| match e.kind {
            EventKind::Location => RequestEnvelope::location(i as u64, e.user, e.at),
            EventKind::Request { service } => {
                RequestEnvelope::request(i as u64, e.user, e.at, ServiceId(service))
            }
        })
        .collect()
}

/// Submits the whole stream through the seam and drains at the final
/// barrier — identical driving code for the sequential baseline and
/// every ladder rung.
fn drive(svc: &mut dyn RequestService, envs: &[RequestEnvelope]) -> Vec<ResponseEnvelope> {
    for env in envs {
        svc.submit(env);
    }
    svc.drain()
}

/// An id-space-independent fingerprint of a wire response, for the
/// cross-run equivalence check (pseudonyms and best-effort `k_got`
/// enrichment are excluded — decision class, reason, and generalized
/// area must match exactly; the byte-compare below covers the rest).
fn fingerprint(resp: &ResponseEnvelope) -> String {
    format!("{} {} {}", resp.outcome.as_str(), resp.detail, resp.area)
}

/// Chain-verifies and audit-replays one journal file; exits non-zero on
/// any failure.
fn check_journal(path: &std::path::Path, label: &str) -> u64 {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("FAIL: cannot reopen {label} journal: {e}");
        std::process::exit(1);
    });
    let report = match hka_obs::verify_chain(std::io::BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: {label} journal chain broken: {e:?}");
            std::process::exit(1);
        }
    };
    let outcome = hka_audit::replay_file(path, AuditConfig::default()).unwrap_or_else(|e| {
        eprintln!("FAIL: cannot replay {label} journal: {e}");
        std::process::exit(1);
    });
    if !outcome.chain.verified() || !outcome.ok() {
        eprintln!(
            "FAIL: {label} audit: chain error {:?}, {} violations, {} schema issues",
            outcome.chain.error,
            outcome.violations.len(),
            outcome.schema_issues.len()
        );
        std::process::exit(1);
    }
    report.records.len() as u64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut backend = IndexBackend::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = args[i + 1].clone();
                i += 2;
            }
            "--index" if i + 1 < args.len() => {
                backend = IndexBackend::parse(&args[i + 1]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown backend '{}' (use {})",
                        args[i + 1],
                        IndexBackend::usage()
                    );
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!(
                    "usage: bench_shard [--out DIR] [--index {}] (got '{other}')",
                    IndexBackend::usage()
                );
                std::process::exit(2);
            }
        }
    }
    let scratch = std::env::temp_dir().join(format!("hka-bench-shard-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let world = build_world();
    let envs = envelopes(&world);
    let events = world.events.len();
    let requests = world
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Request { .. }))
        .count();

    // Wall-clock gates on shared hosts are noisy; each configuration runs
    // TRIALS times and scores its best wall (the workload is
    // deterministic, so every trial produces identical outcomes).
    const TRIALS: usize = 3;

    // --- Baseline: sequential server, fsync per journal record. --------
    let seq_path = scratch.join("seq.jsonl");
    let mut seq_ns = u64::MAX;
    let mut seq_outcomes: Vec<String> = Vec::new();
    for _ in 0..TRIALS {
        hka_obs::global().reset();
        let mut seq = setup_seq(&world, backend);
        seq.attach_journal(hka_obs::Journal::new(Box::new(FsyncEachWrite(
            std::fs::File::create(&seq_path).expect("create baseline journal"),
        ))
            as Box<dyn Write + Send + Sync>));
        let t0 = Instant::now();
        let responses = drive(&mut seq, &envs);
        seq.flush_journal().expect("baseline flush");
        seq_ns = seq_ns.min(t0.elapsed().as_nanos() as u64);
        drop(seq);
        seq_outcomes = responses.iter().map(fingerprint).collect();
    }
    let seq_records = check_journal(&seq_path, "baseline");
    let seq_bytes = std::fs::read(&seq_path).expect("baseline journal bytes");

    // --- Ladder: ShardedTs, group-commit journal, 1/2/4/8 shards. ------
    let mut ladder = Vec::new();
    let mut wall_by_shards = std::collections::BTreeMap::new();
    for shards in [1usize, 2, 4, 8] {
        let path = scratch.join(format!("shard{shards}.jsonl"));
        let mut ns = u64::MAX;
        let mut outcomes = Vec::new();
        let mut epochs = 0;
        for _ in 0..TRIALS {
            hka_obs::global().reset();
            let mut ts = setup_sharded(&world, shards, backend);
            ts.attach_journal(hka_obs::Journal::new(Box::new(
                std::fs::File::create(&path).expect("create shard journal"),
            )
                as Box<dyn hka_obs::DurableSink>));
            let t = Instant::now();
            outcomes = drive(&mut ts, &envs);
            ts.flush_journal().expect("shard flush");
            ns = ns.min(t.elapsed().as_nanos() as u64);
            epochs = ts.epoch();
            drop(ts);
        }

        // Differential check: identical per-request outcomes.
        if outcomes.len() != seq_outcomes.len() {
            eprintln!(
                "FAIL: {shards} shards produced {} outcomes, baseline {}",
                outcomes.len(),
                seq_outcomes.len()
            );
            std::process::exit(1);
        }
        for (i, resp) in outcomes.iter().enumerate() {
            let got = fingerprint(resp);
            if got != seq_outcomes[i] {
                eprintln!(
                    "FAIL: {shards} shards diverged from baseline at request {i}: {got} vs {}",
                    seq_outcomes[i]
                );
                std::process::exit(1);
            }
        }
        let records = check_journal(&path, &format!("{shards}-shard"));
        if records != seq_records {
            eprintln!("FAIL: {shards} shards journaled {records} records, baseline {seq_records}");
            std::process::exit(1);
        }
        // Group commit batches appends but chains the same bytes: every
        // rung's journal is byte-identical to the durable baseline's.
        if std::fs::read(&path).expect("shard journal bytes") != seq_bytes {
            eprintln!("FAIL: {shards}-shard journal bytes diverge from the baseline");
            std::process::exit(1);
        }

        wall_by_shards.insert(shards, ns);
        ladder.push(Json::obj([
            ("shards", Json::from(shards as u64)),
            ("wall_ns", Json::from(ns)),
            (
                "events_per_sec",
                Json::Num(events as f64 / (ns as f64 / 1e9)),
            ),
            (
                "requests_per_sec",
                Json::Num(requests as f64 / (ns as f64 / 1e9)),
            ),
            ("epochs", Json::from(epochs)),
            (
                "speedup_vs_durable_baseline",
                Json::Num(seq_ns as f64 / ns as f64),
            ),
        ]));
    }

    let speedup_4x = seq_ns as f64 / wall_by_shards[&4] as f64;
    let ladder_4v1 = wall_by_shards[&1] as f64 / wall_by_shards[&4] as f64;
    let json = Json::obj([
        ("bench", Json::from("shard")),
        ("index_backend", Json::from(backend.name())),
        (
            "scenario",
            Json::obj([
                ("seed", Json::from(SEED)),
                ("days", Json::Int(DAYS)),
                ("commuters", Json::from(COMMUTERS as u64)),
                ("roamers", Json::from(ROAMERS as u64)),
                ("k", Json::from(K as u64)),
            ]),
        ),
        ("events", Json::from(events as u64)),
        ("requests", Json::from(requests as u64)),
        ("trials", Json::from(TRIALS as u64)),
        ("journal_records", Json::from(seq_records)),
        (
            "baseline",
            Json::obj([
                ("mode", Json::from("sequential, fsync per record")),
                ("wall_ns", Json::from(seq_ns)),
                (
                    "events_per_sec",
                    Json::Num(events as f64 / (seq_ns as f64 / 1e9)),
                ),
                (
                    "requests_per_sec",
                    Json::Num(requests as f64 / (seq_ns as f64 / 1e9)),
                ),
            ]),
        ),
        ("ladder", Json::Arr(ladder)),
        ("speedup_4x", Json::Num(speedup_4x)),
        ("shard_ladder_speedup_4v1", Json::Num(ladder_4v1)),
        (
            "speedup_definition",
            Json::from(
                "speedup_4x = durable sequential baseline wall / 4-shard ShardedTs wall, at equal \
                 durability (every record on stable storage at the commit boundary). The win comes \
                 from group commit batching fsyncs between protected requests; every event runs \
                 in submission order on one thread, so shard_ladder_speedup_4v1 reports what \
                 partitioning costs. Walls are best-of-trials to damp shared-host noise.",
            ),
        ),
    ]);

    let path = format!("{out_dir}/BENCH_shard.json");
    std::fs::write(&path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");
    println!(
        "baseline {:.1} ms | 1 shard {:.1} ms | 4 shards {:.1} ms | speedup_4x {speedup_4x:.2} | ladder 4v1 {ladder_4v1:.2}",
        seq_ns as f64 / 1e6,
        wall_by_shards[&1] as f64 / 1e6,
        wall_by_shards[&4] as f64 / 1e6,
    );
    let _ = std::fs::remove_dir_all(&scratch);

    if speedup_4x < 2.0 {
        eprintln!("FAIL: 4-shard speedup over the durable baseline is {speedup_4x:.2} (< 2.0)");
        std::process::exit(1);
    }
}
