//! `hka-sim` — a small command-line front end to the library.
//!
//! ```text
//! hka-sim simulate [--seed N] [--days N] [--commuters N] [--roamers N] [--k N]
//!                  [--trace-out FILE] [--metrics] [--commit record|group]
//!                  [--index grid|brute] [--trace-export FILE]
//!                  [--trace-clock logical|wall] [--trace-capacity N] [--slo]
//! hka-sim plan     [--seed N] [--population N] [--k N] [--samples N]
//!                  [--index grid|brute]
//! hka-sim derive   [--seed N] [--user N] [--days N]
//! hka-sim attack   [--seed N] [--level off|low|medium|high]
//! hka-sim export   [--seed N] [--days N] --out FILE     # write a trace file
//! hka-sim chaos    [--seeds N] [--seed N] [--days N] [--commuters N]
//!                  [--roamers N] [--k N] [--commit record|group] [--index grid|brute]
//! hka-sim audit    --journal FILE [--snapshot FILE] [--json FILE] [--quiet]
//!                  [--space-tol M2] [--time-tol SECS]
//! hka-sim trace    --validate FILE
//! hka-sim watch    JOURNAL [--snapshot FILE] [--interval-ms N]
//!                  [--idle-exit N] [--json] [--report FILE]
//!                  [--space-tol M2] [--time-tol SECS] [--sample-cap N]
//! hka-sim serve    [--addr HOST:PORT] [--seed N] [--days N] [--commuters N]
//!                  [--roamers N] [--k N] [--commit record|group] [--index grid|brute]
//!                  [--journal FILE] [--inflight N] [--slo] [--gw-stats]
//! hka-sim serve-drill [--journal FILE] [--audit-tail] [--chaos SEED]
//!                  [--checkpoint-every N] [--truncate]
//!                  [--checkpoint-chaos SEED]
//!                  [--segments N] [--seed N] [--days N] [--commuters N]
//!                  [--roamers N] [--k N] [--interval-ms N] [--pace-us N]
//!                  [--report FILE] [--index grid|brute]
//! ```
//!
//! `chaos` drives the simulation under `--seeds` randomized fault
//! schedules (deterministic per seed: dropped PHL writes, journal I/O
//! errors and torn writes, unavailable index/mix-zone, perturbed request
//! arrival) and checks the fail-closed invariant on every request: a
//! faulted or degraded request is suppressed, never forwarded exact or
//! under-generalized. Exits non-zero on any violation. `--commit group`
//! (also accepted by `simulate` and `serve`) attaches the server's
//! journal by group commit (one fsync per commit, an index built at the
//! first read; with no journal file it commits to a sink that discards)
//! instead of per record (`--commit record`, the default); decisions
//! and journal bytes are identical either way. The retired `--shards N`
//! is a usage error.
//! `--index grid|brute` (accepted by `simulate`, `plan`, `chaos`,
//! `serve`, and `serve-drill`) selects what answers Algorithm 1's
//! k-nearest-users query: the grid index (the default), or the
//! exhaustive scan it is specified against — decisions and journal
//! bytes are identical either way (differentially tested), which is the
//! point of the flag.
//!
//! `audit` replays a journal written with `--trace-out` (see
//! `hka::audit`): it verifies the hash chain, reconstructs per-user
//! anonymity timelines and the QoS/k/unlink trade-off tables, and exits
//! non-zero on chain failures or Theorem-1 / fail-closed violations.
//! `--json FILE` additionally writes the canonical JSON report.
//! `--snapshot FILE` resumes the replay from a checkpoint snapshot
//! (see `hka::core::checkpoint`) instead of genesis — the report is
//! byte-identical either way, just cheaper; `watch` accepts the same
//! flag to start its tail at the anchor.
//!
//! `watch` is the live audit: it tails a journal that another process
//! is still appending to, verifying the hash chain record by record and
//! feeding an incremental auditor. It prints a status frame whenever
//! the journal grows (`--json` for JSON frames), reports violations
//! with their byte offsets the moment they appear, tolerates torn tails
//! (an incomplete final record is re-polled, never a chain failure),
//! and exits 2 on the first violation, 1 on a chain failure, or 0 after
//! `--idle-exit N` consecutive quiet polls. `--report FILE` writes the
//! canonical JSON report on exit — for a completed journal it is
//! byte-identical to `audit --json` on the same file.
//!
//! `serve` exposes a protected world over TCP through the
//! `hka-gateway` frontend (line-delimited JSON envelopes; see
//! DESIGN.md §15 for the wire format). `--addr 127.0.0.1:0` (the
//! default) binds an ephemeral port and prints the bound address.
//! The process serves until a client sends the wire `shutdown` op,
//! then drains gracefully, flushes the journal, and exits 0; exit 1
//! is a bind/journal/flush failure and exit 2 a usage error. With
//! neither `--gw-stats` (per-drain `gw.stats` liveness records) nor
//! `--slo` (gateway p999-latency + queue-depth watchdog) the journal
//! written by `--journal FILE` is *byte-identical* to an in-process
//! `simulate --trace-out` run of the same traffic — the differential
//! suite pins this.
//!
//! `serve-drill` runs a simulation and a tailing auditor *at the same
//! time* (`--audit-tail`), in separate threads over one journal file —
//! the always-on verification drill. `--segments N` splits the workload
//! into N segments with a simulated crash between them (a torn
//! half-record is left behind, `Journal::recover` truncates it, and the
//! writer re-chains) and `--chaos SEED` injects a request-path fault
//! schedule (`tail_chaos_plan`; journal I/O faults are excluded so a
//! live tail must report zero violations). On exit the tail's final
//! report is compared byte-for-byte against the offline audit of the
//! same journal; any mismatch, chain error, or violation is a non-zero
//! exit.
//!
//! `--checkpoint-every N` additionally writes a crash-safe checkpoint
//! whenever the journal has grown by at least N records since the last
//! one (snapshots under `JOURNAL.ckpt/`), verifying after
//! each one that a server restored from the snapshot is identical to
//! the live one, and on exit that the audit resumed from the last
//! snapshot is byte-identical to the genesis replay. `--truncate`
//! archives the journal prefix behind each checkpoint (incompatible
//! with `--audit-tail`: truncation swaps the journal inode, which a
//! live byte-offset tail cannot follow). `--checkpoint-chaos SEED`
//! faults the checkpoint path itself (`checkpoint_chaos_plan`:
//! snapshot write/rename tears, anchor-append and truncation failures)
//! — failed checkpoints are counted and recovery falls back to the
//! previous valid one, never a half-written snapshot.
//!
//! `simulate` is the default subcommand: `hka-sim --trace-out t.jsonl
//! --metrics` simulates with defaults. `--trace-out FILE` streams every
//! server decision into a hash-chained JSONL journal (verifiable with
//! `hka::obs::verify_chain`); `--metrics` prints the metrics snapshot —
//! counters and per-stage latency histograms — after the run.
//!
//! `--trace-export FILE` turns on causal request tracing
//! (`hka::obs::trace`) for the run and writes the collected spans as
//! Chrome trace-event JSON, loadable in Perfetto or `chrome://tracing`.
//! `--trace-clock logical` (the default) stamps the ring's deterministic
//! ticks — the artifact is byte-stable for a fixed seed — while `wall`
//! stamps real microseconds. `--trace-capacity N` bounds the ring (span
//! records, drop-oldest; counted in `obs.trace_dropped`). `--slo`
//! arms the continuous SLO watchdog: rolling-window latency
//! p99 / suppression-rate / mode-residency / flush-lag objectives whose
//! breach/recovery transitions land in the journal as `ts.slo_breach` /
//! `ts.slo_recovered` and light up `watch` frames. Tracing never writes
//! to the journal: bytes are identical with tracing on and off.
//!
//! `trace --validate FILE` schema-checks any trace artifact (required
//! fields, unique span ids, acyclic parent linkage) and exits non-zero on
//! the first defect; CI runs it on the exported artifact. The journal
//! records decisions and the trace records timing: neither is rebuilt
//! from the other.
//!
//! `plan` accepts `--trace FILE` to analyze an imported trace (the
//! `hka-trace v1` text format, see `hka::trajectory::io`) instead of a
//! generated world.
//!
//! Everything is seeded and deterministic; run with `--release` for
//! realistic timings. Argument parsing is deliberately dependency-free.

use hka::prelude::*;
use std::collections::HashMap;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                out.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                out.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            eprintln!("unexpected argument '{}'", args[i]);
            std::process::exit(2);
        }
    }
    out
}

/// Parses `--index` (brute is the testing oracle and crawls on real
/// workloads).
fn get_backend(flags: &HashMap<String, String>) -> IndexBackend {
    match flags.get("index") {
        None => IndexBackend::default(),
        Some(v) => IndexBackend::parse(v).unwrap_or_else(|| {
            eprintln!(
                "unknown index backend '{v}' for --index (use {})",
                IndexBackend::usage()
            );
            std::process::exit(2);
        }),
    }
}

/// The journal cadence `--commit` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Every event appended as it happens.
    Record,
    /// Events committed in groups, one fsync each.
    Group,
}

/// Attaches `sink` as the journal `commit` selects. A group-commit
/// server with no journal file still keeps its cadence: it commits to a
/// sink that discards.
fn attach_journal(
    ts: &mut TrustedServer,
    commit: Commit,
    sink: Option<impl hka::obs::DurableSink + 'static>,
) {
    match (commit, sink) {
        (Commit::Record, Some(sink)) => {
            ts.attach_journal(hka::obs::Journal::new(
                Box::new(sink) as Box<dyn std::io::Write + Send + Sync>
            ));
        }
        (Commit::Record, None) => {}
        (Commit::Group, sink) => {
            let sink: Box<dyn hka::obs::DurableSink> = match sink {
                Some(sink) => Box::new(sink),
                None => Box::new(std::io::sink()),
            };
            ts.attach_group_journal(hka::obs::Journal::new(sink));
        }
    }
}

/// Parses `--commit record|group` (default `record`); the retired
/// `--shards N` is a usage error.
fn get_commit(flags: &HashMap<String, String>) -> Commit {
    if flags.contains_key("shards") {
        eprintln!("usage: --shards is gone; pick the journal cadence with --commit record|group");
        std::process::exit(2);
    }
    match flags.get("commit").map(String::as_str) {
        None | Some("record") => Commit::Record,
        Some("group") => Commit::Group,
        Some(v) => {
            eprintln!("unknown commit cadence '{v}' for --commit (use record|group)");
            std::process::exit(2);
        }
    }
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: '{v}'");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn build_world(seed: u64, days: i64, commuters: usize, roamers: usize) -> World {
    World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: commuters,
        n_roamers: roamers,
        n_poi_regulars: roamers / 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

/// A server with the protected world registered: both services, every
/// agent (commuters protected at `k`, everyone else off), and the
/// commuters' LBQIDs.
fn protected_server(world: &World, k: usize, backend: IndexBackend) -> TrustedServer {
    let mut ts = TrustedServer::new(TsConfig {
        backend,
        ..TsConfig::default()
    });
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    let commuters: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        let level = if commuters.contains(&agent.user) {
            PrivacyLevel::Custom(PrivacyParams {
                k,
                theta: 0.5,
                k_init: 2 * k,
                k_decrement: 1,
                on_risk: RiskAction::Forward,
            })
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(agent.user, level);
    }
    for &u in &commuters {
        ts.add_lbqid(
            u,
            Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
        );
    }
    ts
}

/// The workload event stream as wire envelopes, in submission order —
/// the exact frames a remote client would send the TCP gateway.
fn world_envelopes(world: &World) -> Vec<RequestEnvelope> {
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

/// Drives every workload event through the transport-agnostic
/// [`RequestService`] seam — the same interface the TCP gateway
/// serves, so an in-process run and a served run differ only in
/// transport. The server decides each submission immediately; on a
/// group journal it also commits at the drain. Either way a rejected
/// request (unknown user, read-only refusal) is reported and counted
/// instead of aborting the whole simulation.
fn run_events(svc: &mut dyn RequestService, world: &World) -> u64 {
    for env in &world_envelopes(world) {
        svc.submit(env);
    }
    let mut errors = 0;
    for resp in svc.drain() {
        if resp.outcome == WireOutcome::Rejected {
            if errors == 0 {
                eprintln!("request rejected: {}", resp.detail);
            }
            errors += 1;
        }
    }
    errors
}

fn open_trace_out(flags: &HashMap<String, String>) -> Option<std::fs::File> {
    let path = flags.get("trace-out")?;
    // parse_flags maps a valueless flag to "true"; a journal named
    // `true` is never what anyone meant (use `./true` to insist).
    if path == "true" {
        eprintln!("--trace-out requires a file path");
        std::process::exit(2);
    }
    Some(std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    }))
}

fn cmd_simulate(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let days = get(&flags, "days", 14i64);
    let commuters = get(&flags, "commuters", 10usize);
    let roamers = get(&flags, "roamers", 60usize);
    let k = get(&flags, "k", 5usize);
    let commit = get_commit(&flags);
    let backend = get_backend(&flags);
    let trace_export = flags
        .get("trace-export")
        .filter(|p| p.as_str() != "true")
        .cloned();
    let trace_clock = match flags.get("trace-clock") {
        None => hka::obs::TraceClock::Logical,
        Some(v) => hka::obs::TraceClock::parse(v).unwrap_or_else(|| {
            eprintln!("unknown clock '{v}' for --trace-clock (use logical|wall)");
            std::process::exit(2);
        }),
    };
    let slo = flags.contains_key("slo");
    if trace_export.is_some() {
        hka::obs::trace::enable(get(&flags, "trace-capacity", 1 << 16));
    }
    let world = build_world(seed, days, commuters, roamers);

    let mut ts = protected_server(&world, k, backend);
    if slo {
        ts.enable_slo(hka::obs::SloConfig::default());
    }
    attach_journal(
        &mut ts,
        commit,
        open_trace_out(&flags).map(std::io::BufWriter::new),
    );
    let errors = run_events(&mut ts, &world);
    ts.flush_journal().unwrap_or_else(|e| {
        eprintln!("journal flush failed: {e}");
        std::process::exit(1);
    });
    if commit == Commit::Group {
        println!("(group commit, {} epochs)", ts.epoch());
    }
    let audit_rows = collect_audit_rows(
        &world,
        k,
        |u| ts.audit_patterns(u, k),
        |u| ts.privacy_indicator(u),
    );
    let log = ts.log();
    let (st, log_len, log_dropped) = (log.stats(), log.events().len() as u64, log.dropped());
    let slo_worst = ts.slo_worst();
    let journal_info = flags.get("trace-out").cloned();

    println!(
        "simulated {days} days, {} users, k = {k}",
        world.agents.len()
    );
    println!(
        "forwarded:        {} ({} exact, {} generalized)",
        st.forwarded(),
        st.forwarded_exact,
        st.generalized()
    );
    println!("HK success rate:  {:.1}%", 100.0 * st.hk_success_rate());
    println!(
        "mean cloak:       {:.0} m² × {:.0} s",
        st.mean_generalized_area(),
        st.mean_generalized_duration()
    );
    println!("pseudonym changes:{}", st.pseudonym_changes);
    println!("at-risk notices:  {}", st.at_risk);
    println!("full matches:     {}", st.lbqid_matches);
    if errors > 0 {
        println!("request errors:   {errors}");
    }
    for (u, name, matched, hk_sat, eff_k, lock) in audit_rows {
        println!("  {u} {name}: matched={matched} hk={hk_sat} (eff. k {eff_k}) lock={lock:?}");
    }
    if let Some(path) = journal_info {
        println!(
            "journal:          {path} ({} events, {} dropped from ring)",
            log_len + log_dropped,
            log_dropped
        );
    }
    if slo {
        match slo_worst {
            Some((trace, us)) => println!("slo worst:        t{trace:08x} ({us} µs)"),
            None => println!("slo worst:        - (window empty)"),
        }
    }
    if let Some(path) = trace_export {
        hka::obs::trace::disable();
        let records = hka::obs::trace::drain();
        let doc = hka::obs::chrome_trace(&records, trace_clock);
        let check = hka::obs::validate_chrome_trace(&doc).unwrap_or_else(|e| {
            eprintln!("exported trace failed validation: {e}");
            std::process::exit(1);
        });
        std::fs::write(&path, doc.to_string() + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "trace:            {path} ({} spans, {} roots, {} tracks, {} dropped)",
            check.spans,
            check.roots,
            check.tracks,
            hka::obs::global().snapshot().counter("obs.trace_dropped")
        );
    }
    if flags.contains_key("metrics") {
        println!();
        print!("{}", hka::obs::global().snapshot().render());
    }
}

type AuditRow = (UserId, String, bool, bool, usize, PrivacyIndicator);

fn collect_audit_rows(
    world: &World,
    _k: usize,
    mut audit: impl FnMut(UserId) -> Vec<(String, bool, HkOutcome)>,
    mut indicator: impl FnMut(UserId) -> Option<PrivacyIndicator>,
) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    for u in world.commuters() {
        let lock = indicator(u).expect("registered");
        for (name, matched, hk) in audit(u) {
            rows.push((u, name, matched, hk.satisfied, hk.effective_k(), lock));
        }
    }
    rows
}

fn cmd_plan(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let population = get(&flags, "population", 80usize);
    let k = get(&flags, "k", 5usize);
    let samples = get(&flags, "samples", 300usize);
    let store = match flags.get("trace") {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
            read_store(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            })
        }
        None => build_world(seed, 3, population / 5, population * 4 / 5).store(),
    };
    let index = get_backend(&flags).build(&store, GridIndexConfig::default());
    let mz = MixZoneManager::new(MixZoneConfig::default());
    for (label, tol) in [
        ("hospital-finder", Tolerance::navigation()),
        ("localized-news", Tolerance::news()),
    ] {
        let r = evaluate_deployment(
            &store,
            index.as_ref(),
            &mz,
            &PlanningConfig {
                k,
                tolerance: tol,
                samples,
                seed,
            },
        );
        println!(
            "{label:<16} HK {:.1}%  mean {:.0} m² × {:.0} s  unlink-fallback {:.1}%  risk {:.1}%  → {}",
            100.0 * r.hk_success_rate,
            r.mean_area,
            r.mean_duration,
            100.0 * r.unlink_fallback_rate,
            100.0 * r.at_risk_rate,
            if r.deployable(0.05) { "deploy" } else { "DO NOT DEPLOY" }
        );
    }
}

fn cmd_derive(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let user = UserId(get(&flags, "user", 0u64));
    let days = get(&flags, "days", 14i64);
    let world = build_world(seed, days, 10, 40);
    let store = world.store();
    let derived = derive_lbqids(&store, user, &DerivationConfig::default());
    if derived.is_empty() {
        println!("{user}: no identifying recurring pattern found");
        return;
    }
    for d in derived {
        println!(
            "population {} | support {} days | {}",
            d.matching_population, d.support_days, d.lbqid
        );
    }
}

fn cmd_attack(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let level = match flags.get("level").map(|s| s.as_str()).unwrap_or("off") {
        "off" => PrivacyLevel::Off,
        "low" => PrivacyLevel::Low,
        "medium" => PrivacyLevel::Medium,
        "high" => PrivacyLevel::High,
        other => {
            eprintln!("unknown level '{other}' (use off|low|medium|high)");
            std::process::exit(2);
        }
    };
    let world = build_world(seed, 8, 12, 50);
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    let mut registry = HomeRegistry::new();
    let mut targets = 0;
    for agent in &world.agents {
        let home = world.home_of(agent.user);
        ts.register_user(
            agent.user,
            if home.is_some() {
                level
            } else {
                PrivacyLevel::Off
            },
        );
        if let Some(home) = home {
            registry.add(home, agent.user);
            targets += 1;
            let dsl = format!(
                "lbqid at_home {{ element area({}, {}, {}, {}) window(00:00, 23:59); recur 2.Days; }}",
                home.min().x, home.min().y, home.max().x, home.max().y
            );
            ts.add_lbqid(agent.user, parse_lbqid(&dsl).expect("valid"));
        }
    }
    run_events(&mut ts, &world);
    let (truth, requests): (Vec<UserId>, Vec<SpRequest>) = ts.outbox().iter().cloned().unzip();
    let linker = PseudonymLinker;
    let report = Adversary::new(&linker, 0.9, &registry).attack(&requests, &truth);
    println!(
        "level {:?}: {} requests, {} clusters, {} claims, {} / {targets} targets identified",
        level,
        requests.len(),
        report.clusters,
        report.claims.len(),
        report.users_identified
    );
}

fn cmd_export(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let days = get(&flags, "days", 3i64);
    let Some(out) = flags.get("out") else {
        eprintln!("export requires --out FILE");
        std::process::exit(2);
    };
    let world = build_world(seed, days, 10, 50);
    let store = world.store();
    let file = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    write_store(&store, std::io::BufWriter::new(file)).expect("write trace");
    println!(
        "wrote {} points for {} users to {out}",
        store.total_points(),
        store.user_count()
    );
}

/// One chaos run: drive a seeded world through a server with a
/// randomized fault schedule and count fail-open violations.
struct ChaosReport {
    requests: u64,
    forwarded: u64,
    suppressed: u64,
    faults_fired: u64,
    violations: u64,
    final_mode: ServerMode,
}

fn chaos_run(
    seed: u64,
    days: i64,
    commuters: usize,
    roamers: usize,
    k: usize,
    backend: IndexBackend,
    commit: Commit,
) -> ChaosReport {
    let world = build_world(seed, days, commuters, roamers);
    let injector = FaultInjector::new(randomized_plan(seed));
    // The journal shares the schedule: journal.io faults surface as real
    // sink errors (including torn writes) and drive the mode machine.
    // A fault plan makes every request commit first, so a group journal
    // walks the mode ladder under the same schedule.
    let faulty = FaultyWriter::new(std::io::sink(), injector.clone());
    let mut ts = protected_server(&world, k, backend);
    ts.attach_faults(injector.clone());
    attach_journal(&mut ts, commit, Some(hka::obs::Unsynced(faulty)));
    chaos_events(&mut ts, &world, &injector)
}

/// Drives the world through `ts` under arrival perturbation and checks
/// the fail-closed invariant on every request. On a group journal each
/// event ends with a commit, as after a client's barrier, so the mode
/// read before the next request is the one its fail-closed gate sees.
fn chaos_events(ts: &mut TrustedServer, world: &World, injector: &FaultInjector) -> ChaosReport {
    use hka::faults::sites;
    // Sites whose faults must fail the in-flight request closed.
    // journal.io is excluded: the sink is consulted when events are
    // *logged*, after the forwarding decision; its effect is the mode
    // machine, which the next request's gate sees.
    let request_sites = [sites::PHL_WRITE, sites::INDEX_QUERY, sites::MIXZONE];
    let fired_now =
        |inj: &FaultInjector| -> u64 { request_sites.iter().map(|s| inj.fired(s)).sum() };
    let group = ts.log().group_commit();
    let settle = |ts: &mut TrustedServer| {
        if group {
            // Group commit reports failures through the mode ladder.
            let _ = ts.flush_journal();
        }
    };

    let mut report = ChaosReport {
        requests: 0,
        forwarded: 0,
        suppressed: 0,
        faults_fired: 0,
        violations: 0,
        final_mode: ServerMode::Normal,
    };
    for e in &world.events {
        match e.kind {
            EventKind::Location => {
                ts.location_update(e.user, e.at);
                settle(ts);
            }
            EventKind::Request { service } => {
                // Arrival perturbation: drop, duplicate, or deliver the
                // request with a stale (reordered) timestamp.
                let mut deliveries: Vec<StPoint> = Vec::with_capacity(2);
                match injector.check(sites::ARRIVAL) {
                    Some(FaultKind::Drop) => {}
                    Some(FaultKind::Duplicate) => {
                        deliveries.push(e.at);
                        deliveries.push(e.at);
                    }
                    Some(FaultKind::Reorder) => {
                        let mut late = e.at;
                        late.t = TimeSec(late.t.0.saturating_sub(300));
                        deliveries.push(late);
                    }
                    _ => deliveries.push(e.at),
                }
                for at in deliveries {
                    let mode_before = ts.mode();
                    let before = fired_now(injector);
                    let result = ts.try_handle_request(e.user, at, ServiceId(service));
                    settle(ts);
                    let out = match result {
                        Ok(out) => out,
                        Err(err) => {
                            // A refused request (read-only ladder) is
                            // fail-closed by definition; anything else
                            // would be a workload bug worth surfacing.
                            if !matches!(err, TsError::Degraded) {
                                eprintln!("request rejected: {err}");
                            }
                            report.requests += 1;
                            report.suppressed += 1;
                            continue;
                        }
                    };
                    let faulted = fired_now(injector) > before;
                    report.requests += 1;
                    let fail_closed = match &out {
                        RequestOutcome::Suppressed(_) => {
                            report.suppressed += 1;
                            true
                        }
                        RequestOutcome::Forwarded(req) => {
                            report.forwarded += 1;
                            !faulted
                                && match mode_before {
                                    ServerMode::Normal => true,
                                    ServerMode::Degraded => req.context.area() > 0.0,
                                    ServerMode::ReadOnly => false,
                                }
                        }
                    };
                    if !fail_closed {
                        report.violations += 1;
                    }
                }
            }
        }
    }
    report.faults_fired = injector.total_fired();
    report.final_mode = ts.mode();
    report
}

fn cmd_chaos(flags: HashMap<String, String>) {
    let seeds = get(&flags, "seeds", 16u64);
    let base = get(&flags, "seed", 1u64);
    let days = get(&flags, "days", 2i64);
    let commuters = get(&flags, "commuters", 6usize);
    let roamers = get(&flags, "roamers", 30usize);
    let k = get(&flags, "k", 4usize);
    let commit = get_commit(&flags);
    let backend = get_backend(&flags);
    let mut total_faults = 0u64;
    let mut total_violations = 0u64;
    for i in 0..seeds {
        let seed = base.wrapping_add(i);
        let r = chaos_run(seed, days, commuters, roamers, k, backend, commit);
        total_faults += r.faults_fired;
        total_violations += r.violations;
        println!(
            "seed {seed:>5}: {:>5} requests, {:>5} forwarded, {:>5} suppressed, {:>4} faults, mode {:<9} violations {}",
            r.requests, r.forwarded, r.suppressed, r.faults_fired, r.final_mode, r.violations
        );
    }
    println!("{seeds} schedules, {total_faults} injected faults, {total_violations} fail-open violations");
    if total_violations > 0 {
        eprintln!("FAIL: a faulted or degraded request was forwarded");
        std::process::exit(1);
    }
}

fn cmd_audit(flags: HashMap<String, String>) {
    let Some(journal) = flags.get("journal").filter(|p| p.as_str() != "true") else {
        eprintln!("audit requires --journal FILE");
        std::process::exit(2);
    };
    let cfg = audit_config(&flags);
    // With --snapshot the replay resumes from the checkpoint anchor
    // (the snapshot's embedded audit config wins over the flags); the
    // outcome is byte-identical to the genesis replay, just cheaper.
    let outcome = match flags.get("snapshot").filter(|p| p.as_str() != "true") {
        Some(snap) => hka::audit::resume_from_snapshot(
            std::path::Path::new(journal),
            std::path::Path::new(snap),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot resume {journal} from {snap}: {e}");
            std::process::exit(2);
        }),
        None => hka::audit::replay_file(std::path::Path::new(journal), cfg).unwrap_or_else(|e| {
            eprintln!("cannot read {journal}: {e}");
            std::process::exit(2);
        }),
    };
    if let Some(path) = flags.get("json").filter(|p| p.as_str() != "true") {
        std::fs::write(path, outcome.to_json().to_string() + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    if !flags.contains_key("quiet") {
        print!("{}", outcome.render());
    }
    if !outcome.chain.verified() {
        std::process::exit(1);
    }
    if !outcome.ok() {
        std::process::exit(2);
    }
}

/// `trace --validate FILE`: schema-checks a Chrome trace artifact with
/// `hka::obs::validate_chrome_trace`, the rules `--trace-export` applies
/// before it writes one.
fn cmd_trace(args: &[String]) {
    let path = match args {
        [flag, path] if flag == "--validate" => path,
        _ => {
            eprintln!("usage: hka-sim trace --validate FILE");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = hka::obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid JSON: {e:?}");
        std::process::exit(1);
    });
    match hka::obs::validate_chrome_trace(&doc) {
        Ok(check) => {
            println!(
                "{path}: OK ({} events, {} spans, {} roots, {} tracks)",
                check.events, check.spans, check.roots, check.tracks
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses the audit tolerances shared by `audit` and `watch`.
fn audit_config(flags: &HashMap<String, String>) -> hka::audit::AuditConfig {
    let mut cfg = hka::audit::AuditConfig::default();
    if flags.contains_key("space-tol") {
        cfg.space_tol = Some(get(flags, "space-tol", 0.0f64));
    }
    if flags.contains_key("time-tol") {
        cfg.time_tol = Some(get(flags, "time-tol", 0i64));
    }
    if flags.contains_key("sample-cap") {
        cfg.sample_cap = Some(get(flags, "sample-cap", 0usize));
    }
    cfg
}

fn cmd_watch(args: &[String]) {
    // `watch JOURNAL [--flags]`: the journal path may be positional.
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
        _ => (None, args),
    };
    let flags = parse_flags(rest);
    let journal = positional
        .or_else(|| {
            flags
                .get("journal")
                .filter(|p| p.as_str() != "true")
                .cloned()
        })
        .unwrap_or_else(|| {
            eprintln!("watch requires a journal path: hka-sim watch FILE [--flags]");
            std::process::exit(2);
        });
    let interval = get(&flags, "interval-ms", 200u64);
    let idle_exit = get(&flags, "idle-exit", 0u64);
    let json = flags.contains_key("json");
    let cfg = audit_config(&flags);
    let report_path = flags
        .get("report")
        .filter(|p| p.as_str() != "true")
        .cloned();

    let emit = |frame: &hka::audit::WatchFrame| {
        if json {
            println!("{}", frame.to_json());
        } else {
            println!("{}", frame.render());
        }
    };

    // --snapshot starts the tail at the checkpoint anchor instead of
    // genesis; once caught up, frames and the final report are
    // byte-identical to a genesis tail of the same journal.
    let mut tail = match flags.get("snapshot").filter(|p| p.as_str() != "true") {
        Some(snap) => hka::audit::TailAuditor::resume_from_snapshot(
            std::path::Path::new(&journal),
            std::path::Path::new(snap),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot resume {journal} from {snap}: {e}");
            std::process::exit(2);
        }),
        None => hka::audit::TailAuditor::open(std::path::Path::new(&journal), cfg),
    };
    let mut idle = 0u64;
    let code = loop {
        let poll = tail.poll();
        for (offset, v) in &poll.new_violations {
            eprintln!(
                "violation at offset {offset} (seq {}): {} — {}",
                v.seq,
                v.kind.as_str(),
                v.detail
            );
        }
        if poll.new_records > 0 {
            idle = 0;
            emit(&tail.frame());
        } else {
            idle += 1;
        }
        if !poll.new_violations.is_empty() {
            break 2;
        }
        if let Some(e) = poll.chain_error {
            emit(&tail.frame());
            eprintln!("chain failed: {e}");
            break 1;
        }
        if idle_exit > 0 && idle >= idle_exit {
            emit(&tail.frame());
            break 0;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval));
    };
    if let Some(path) = report_path {
        std::fs::write(&path, tail.snapshot().to_json().to_string() + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    std::process::exit(code);
}

fn cmd_serve_drill(flags: HashMap<String, String>) {
    use hka::faults::sites;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let seed = get(&flags, "seed", 1u64);
    let days = get(&flags, "days", 2i64);
    let commuters = get(&flags, "commuters", 6usize);
    let roamers = get(&flags, "roamers", 30usize);
    let k = get(&flags, "k", 4usize);
    let segments = get(&flags, "segments", 1usize).max(1);
    let interval = get(&flags, "interval-ms", 10u64);
    let pace_us = get(&flags, "pace-us", 0u64);
    let backend = get_backend(&flags);
    let audit_tail = flags.contains_key("audit-tail");
    let cfg = audit_config(&flags);
    let checkpoint_every = get(&flags, "checkpoint-every", 0u64);
    let truncate = flags.contains_key("truncate");
    if truncate && checkpoint_every == 0 {
        eprintln!("--truncate requires --checkpoint-every N");
        std::process::exit(2);
    }
    if truncate && audit_tail {
        eprintln!(
            "--truncate archives the journal prefix by swapping a new inode into place, \
             which a live byte-offset tail cannot follow; drop --audit-tail or --truncate"
        );
        std::process::exit(2);
    }
    if flags.contains_key("checkpoint-chaos") && checkpoint_every == 0 {
        eprintln!("--checkpoint-chaos requires --checkpoint-every N");
        std::process::exit(2);
    }
    let journal_path = flags
        .get("journal")
        .filter(|p| p.as_str() != "true")
        .cloned()
        .unwrap_or_else(|| {
            std::env::temp_dir()
                .join(format!("hka-serve-drill-{}.journal", std::process::id()))
                .to_string_lossy()
                .into_owned()
        });
    let path = std::path::PathBuf::from(&journal_path);
    let _ = std::fs::remove_file(&path);

    let world = build_world(seed, days, commuters, roamers);
    let mut ts = protected_server(&world, k, backend);
    // Chaos is restricted to request-path sites (`tail_chaos_plan`):
    // with the journal write path fault-free, a live tail must report
    // zero violations — anything else is a false positive.
    let injector = flags.contains_key("chaos").then(|| {
        let inj = FaultInjector::new(tail_chaos_plan(get(&flags, "chaos", seed)));
        ts.attach_faults(inj.clone());
        inj
    });

    let file = std::fs::File::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot create {journal_path}: {e}");
        std::process::exit(1);
    });
    ts.attach_journal(hka::obs::Journal::new(
        Box::new(std::io::BufWriter::new(file)) as Box<dyn std::io::Write + Send + Sync>,
    ));

    // The checkpointer for the drill: snapshots live next to the
    // journal, and --checkpoint-chaos faults the checkpoint path itself
    // (a failed checkpoint leaves the previous one authoritative — the
    // exit-time equivalence check proves it).
    let mut cp = (checkpoint_every > 0).then(|| {
        let dir = format!("{journal_path}.ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cp = Checkpointer::new(&path, &dir).with_audit_config(cfg);
        if flags.contains_key("checkpoint-chaos") {
            cp.attach_faults(FaultInjector::new(checkpoint_chaos_plan(get(
                &flags,
                "checkpoint-chaos",
                seed,
            ))));
        }
        cp
    });
    let mut last_ckpt_seq: Option<u64> = None;
    let mut ckpt_ok = 0u64;
    let mut ckpt_failed = 0u64;
    let mut ckpt_archived = 0u64;

    // The tailing auditor runs in its own thread, polling the same file
    // the server appends to. It stops once the writer is done AND a
    // final poll finds nothing new (fully caught up, no torn tail).
    let stop = Arc::new(AtomicBool::new(false));
    let tailer = audit_tail.then(|| {
        let stop = Arc::clone(&stop);
        let path = path.clone();
        std::thread::spawn(move || {
            let mut tail = hka::audit::TailAuditor::open(&path, cfg);
            let mut polls = 0u64;
            loop {
                let done = stop.load(Ordering::SeqCst);
                let poll = tail.poll();
                polls += 1;
                for (offset, v) in &poll.new_violations {
                    eprintln!(
                        "violation at offset {offset} (seq {}): {} — {}",
                        v.seq,
                        v.kind.as_str(),
                        v.detail
                    );
                }
                if poll.chain_error.is_some() {
                    break;
                }
                if done && poll.new_records == 0 && poll.torn_bytes == 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval));
            }
            (tail, polls)
        })
    });

    // Drive the workload in `segments` slices with a simulated crash
    // between consecutive slices: the sink is dropped, a torn
    // half-record (no trailing newline — the only shape a single-write
    // append can tear into) is left at the tail, `recover` truncates
    // it, and the writer re-chains from the recovered head. The live
    // tailer must ride through every cycle without a false alarm.
    let chunk = world.events.len().div_ceil(segments).max(1);
    let mut recoveries = 0u64;
    let mut errors = 0u64;
    let mut req_id = 0u64;
    for (i, slice) in world.events.chunks(chunk).enumerate() {
        if i > 0 {
            drop(ts.take_journal()); // flushes buffered records on drop
            {
                use std::io::Write as _;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .expect("journal exists");
                f.write_all(br#"{"hash":"torn-mid-append"#).expect("append");
            }
            let (journal, report) = hka::obs::recover(&path).unwrap_or_else(|e| {
                eprintln!("recovery failed: {e}");
                std::process::exit(1);
            });
            assert!(report.truncated_bytes > 0, "the torn bytes were truncated");
            recoveries += 1;
            let next_seq = journal.next_seq();
            let head = journal.head().to_string();
            ts.attach_journal(hka::obs::Journal::resume(
                Box::new(std::io::BufWriter::new(journal.into_inner()))
                    as Box<dyn std::io::Write + Send + Sync>,
                next_seq,
                head,
            ));
        }
        for e in slice {
            // Delivery goes through the transport-agnostic seam — the
            // same interface the TCP gateway serves — so the drill
            // rehearses exactly the path a served deployment exercises.
            match e.kind {
                EventKind::Location => {
                    RequestService::submit(
                        &mut ts,
                        &RequestEnvelope::location(req_id, e.user, e.at),
                    );
                    req_id += 1;
                }
                EventKind::Request { service } => {
                    // Arrival perturbation mirrors `chaos`: drop,
                    // duplicate, or re-deliver with a stale timestamp.
                    let mut deliveries: Vec<StPoint> = Vec::with_capacity(2);
                    match injector.as_ref().and_then(|inj| inj.check(sites::ARRIVAL)) {
                        Some(FaultKind::Drop) => {}
                        Some(FaultKind::Duplicate) => {
                            deliveries.push(e.at);
                            deliveries.push(e.at);
                        }
                        Some(FaultKind::Reorder) => {
                            let mut late = e.at;
                            late.t = TimeSec(late.t.0.saturating_sub(300));
                            deliveries.push(late);
                        }
                        _ => deliveries.push(e.at),
                    }
                    for at in deliveries {
                        RequestService::submit(
                            &mut ts,
                            &RequestEnvelope::request(req_id, e.user, at, ServiceId(service)),
                        );
                        req_id += 1;
                    }
                    errors += RequestService::drain(&mut ts)
                        .iter()
                        .filter(|r| r.outcome == WireOutcome::Rejected)
                        .count() as u64;
                }
            }
            if let Some(cp) = cp.as_mut() {
                // A checkpoint covers a chain position, so the cadence
                // is journal growth, not event count — most workload
                // events journal nothing, and re-snapshotting an
                // unchanged chain would buy two fsyncs for no new
                // state. `seq + 1` because the previous anchor record
                // itself sits at `last_ckpt_seq`.
                let due = match (ts.journal_position(), last_ckpt_seq) {
                    (Some((records, _)), Some(seq)) => {
                        records.saturating_sub(seq + 1) >= checkpoint_every
                    }
                    (Some((records, _)), None) => records >= checkpoint_every,
                    (None, _) => false,
                };
                if due {
                    match cp.checkpoint(&mut ts, truncate) {
                        Ok(receipt) => {
                            ckpt_ok += 1;
                            ckpt_archived += receipt.truncated_bytes;
                            last_ckpt_seq = Some(receipt.seq);
                            // Restore fidelity: a server rebuilt from the
                            // just-written snapshot must be identical to
                            // the live one at this instant.
                            let (restored, _, _) = cp
                                .restore_server(TsConfig {
                                    backend,
                                    ..TsConfig::default()
                                })
                                .unwrap_or_else(|e| {
                                    eprintln!("recovery scan failed: {e}");
                                    std::process::exit(1);
                                });
                            let same = restored.server_meta() == ts.server_meta()
                                && restored.log().stats() == ts.log().stats()
                                && hka::trajectory::state::store_to_json(restored.store())
                                    .to_string()
                                    == hka::trajectory::state::store_to_json(ts.store())
                                        .to_string();
                            if !same {
                                eprintln!(
                                    "restore fidelity: MISMATCH at checkpoint seq {}",
                                    receipt.seq
                                );
                                std::process::exit(1);
                            }
                        }
                        Err(_) => ckpt_failed += 1,
                    }
                }
            }
            if pace_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(pace_us));
            }
        }
    }
    drop(ts.take_journal()); // final flush: the journal is complete
    stop.store(true, Ordering::SeqCst);

    println!(
        "serve-drill: {} events over {segments} segment(s), {recoveries} recoveries, \
         {errors} rejected requests",
        world.events.len()
    );
    if checkpoint_every > 0 {
        println!(
            "checkpoints: {ckpt_ok} written, {ckpt_failed} failed, \
             {ckpt_archived} prefix bytes archived"
        );
    }
    let offline = hka::audit::replay_file(&path, cfg).unwrap_or_else(|e| {
        eprintln!("cannot read {journal_path}: {e}");
        std::process::exit(1);
    });

    let mut code = 0;
    if let Some(handle) = tailer {
        let (tail, polls) = handle.join().expect("tailer thread");
        let snapshot = tail.snapshot();
        println!(
            "tail: {} records in {polls} polls, {} violations, head {}",
            tail.records(),
            tail.auditor().violations().len(),
            &tail.head()[..12.min(tail.head().len())]
        );
        let tail_json = snapshot.to_json().to_string();
        let offline_json = offline.to_json().to_string();
        if tail_json == offline_json {
            println!(
                "equivalence: OK (tail report == offline audit, {} bytes)",
                tail_json.len()
            );
        } else {
            eprintln!("equivalence: MISMATCH between live tail and offline audit");
            code = 1;
        }
        if let Some(out) = flags.get("report").filter(|p| p.as_str() != "true") {
            std::fs::write(out, tail_json + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(2);
            });
        }
        if tail.chain_error().is_some() {
            eprintln!("chain failed: {}", tail.chain_error().unwrap());
            code = 1;
        }
        if !tail.auditor().violations().is_empty() {
            code = 2;
        }
    } else {
        print!("{}", offline.render());
        if !offline.chain.verified() {
            code = 1;
        } else if !offline.ok() {
            code = 2;
        }
    }
    if let Some(last) = cp.as_ref().and_then(|c| c.last_snapshot()) {
        match hka::audit::resume_from_snapshot(&path, last) {
            Ok(resumed) => {
                if truncate {
                    // The genesis prefix was archived at the anchor; the
                    // resumed report is the authoritative full-history
                    // view, so there is no genesis replay to compare to.
                    println!("checkpoint resume: OK (snapshot+suffix report over archived prefix)");
                } else if resumed.to_json().to_string() == offline.to_json().to_string() {
                    println!("checkpoint equivalence: OK (snapshot+suffix == genesis replay)");
                } else {
                    eprintln!(
                        "checkpoint equivalence: MISMATCH (snapshot+suffix != genesis replay)"
                    );
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("checkpoint resume failed: {e}");
                code = 1;
            }
        }
    } else if checkpoint_every > 0 {
        println!("checkpoint equivalence: skipped (no checkpoint survived the run)");
    }
    println!("journal: {journal_path}");
    std::process::exit(code);
}

/// `hka-sim serve`: expose a protected world over TCP via the
/// `hka-gateway` frontend and serve until a client sends the wire
/// `shutdown` op.
///
/// Exit codes: `0` — clean drain after a wire shutdown; `1` — bind,
/// journal, or flush failure; `2` — usage error.
fn cmd_serve(flags: HashMap<String, String>) {
    let seed = get(&flags, "seed", 1u64);
    let days = get(&flags, "days", 2i64);
    let commuters = get(&flags, "commuters", 6usize);
    let roamers = get(&flags, "roamers", 30usize);
    let k = get(&flags, "k", 4usize);
    let commit = get_commit(&flags);
    let backend = get_backend(&flags);
    let inflight = get(&flags, "inflight", 256usize).max(1);
    let addr = flags
        .get("addr")
        .filter(|a| a.as_str() != "true")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let journal_path = flags.get("journal").filter(|p| p.as_str() != "true");

    let open_sink = |path: &String| -> std::fs::File {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        })
    };

    let world = build_world(seed, days, commuters, roamers);
    let mut ts = protected_server(&world, k, backend);
    attach_journal(
        &mut ts,
        commit,
        journal_path.map(|path| std::io::BufWriter::new(open_sink(path))),
    );
    let service: Box<dyn RequestService + Send> = Box::new(ts);

    let config = hka::gateway::GatewayConfig {
        inflight,
        // `gw.stats` records and the gateway SLO watchdog both write
        // journal records, so both are opt-in: with neither flag the
        // journal is byte-identical to an in-process run.
        emit_stats: flags.contains_key("gw-stats"),
        slo: flags.contains_key("slo").then(|| hka::obs::SloConfig {
            latency_p999_ns: 250_000_000,
            max_queue_depth: inflight,
            ..hka::obs::SloConfig::default()
        }),
        ..hka::gateway::GatewayConfig::default()
    };
    let gw = Gateway::spawn(&addr, service, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "serving on {} ({} users, k = {k})",
        gw.addr(),
        world.agents.len()
    );

    // Serve until a peer sends the wire `shutdown` op.
    while !gw.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let stats = gw.stats().snapshot();
    let mut service = gw.shutdown();
    service.flush_journal().unwrap_or_else(|e| {
        eprintln!("journal flush failed: {e}");
        std::process::exit(1);
    });
    println!(
        "served {} connection(s): {} responses ({} forwarded), \
         {} overload refusals, {} bad frames",
        stats.conns_total, stats.responses, stats.forwarded, stats.overloads, stats.bad_frames
    );
    if let Some(path) = journal_path {
        println!("journal: {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!(
            "usage: hka-sim <simulate|plan|derive|attack|export|chaos|audit|watch|trace|serve|serve-drill> [--flags]"
        );
        std::process::exit(2);
    };
    // A leading flag means the subcommand was omitted: default to `simulate`.
    let (cmd, rest) = if first.starts_with("--") {
        ("simulate", &args[..])
    } else {
        (first.as_str(), &args[1..])
    };
    // `watch` accepts a positional journal path and `trace` takes its one
    // form whole; everything else is flags-only.
    if cmd == "watch" {
        cmd_watch(rest);
        return;
    }
    if cmd == "trace" {
        cmd_trace(rest);
        return;
    }
    let flags = parse_flags(rest);
    match cmd {
        "simulate" => cmd_simulate(flags),
        "plan" => cmd_plan(flags),
        "derive" => cmd_derive(flags),
        "attack" => cmd_attack(flags),
        "export" => cmd_export(flags),
        "chaos" => cmd_chaos(flags),
        "audit" => cmd_audit(flags),
        "serve" => cmd_serve(flags),
        "serve-drill" => cmd_serve_drill(flags),
        other => {
            eprintln!(
                "unknown command '{other}' (use simulate|plan|derive|attack|export|chaos|audit|watch|trace|serve|serve-drill)"
            );
            std::process::exit(2);
        }
    }
}
