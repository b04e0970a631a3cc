//! Acceptance suite for live audit tailing: the streaming follow-mode
//! auditor must agree with the offline `hka-audit` replay **byte for
//! byte** on every journal it watches — while the journal is still
//! being written, across crash/recover cycles, and under seeded fault
//! schedules — and the `hka-sim watch` / `serve-drill --audit-tail`
//! surfaces must expose exactly that machinery.
//!
//! The equivalence bar is deliberately strict: the tailer and the
//! offline reader share one `ChainCursor`, so any divergence in what
//! they verify, count, or report is a regression in the follow mode's
//! torn-tail handling, not an acceptable approximation.

use hka::audit::{self, AuditConfig, TailAuditor};
use hka::faults::sites;
use hka::obs;
use hka::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The lag test times a tailer against a paced writer, so it takes this
/// lock to write and runs alone; every other test here, each driving a
/// server or a subprocess that would compete for the same cores, reads
/// it.
static CORES: RwLock<()> = RwLock::new(());

fn hka_sim(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hka-tail-{}-{name}", std::process::id()))
}

/// A schema-valid `ts.forwarded` payload.
fn forwarded(user: i64, at: i64, generalized: bool, hk_ok: bool) -> obs::Json {
    use obs::Json;
    let side = if generalized { 100.0 } else { 0.0 };
    Json::obj([
        ("user", Json::Int(user)),
        ("at", Json::Int(at)),
        ("x_min", Json::Num(10.0)),
        ("y_min", Json::Num(10.0)),
        ("x_max", Json::Num(10.0 + side)),
        ("y_max", Json::Num(10.0 + side)),
        ("t_start", Json::Int(at - 5)),
        ("t_end", Json::Int(at + 5)),
        ("generalized", Json::Bool(generalized)),
        ("hk_ok", Json::Bool(hk_ok)),
    ])
}

// --- Lag ---------------------------------------------------------------

/// A watcher keeps up with production journal rates: one thread appends
/// schema-valid forwards to a journal file at 16,000 records/s for 2 s
/// (above the ~13k records/s a group-commit drill journals at) while a
/// `TailAuditor` polls the same file every 5 ms. A record's lag runs
/// from the writer starting its append to the tailer having verified
/// and ingested it; the p99 must stay under 1 s, with the chain intact
/// and no violation. Run with `--nocapture` to see the lag.
#[test]
fn a_paced_writer_is_tailed_within_a_second() {
    let _alone = CORES.write().unwrap_or_else(|e| e.into_inner());
    const RATE: u64 = 16_000;
    const SECONDS: u64 = 2;
    const TOTAL: u64 = RATE * SECONDS;
    const POLL: Duration = Duration::from_millis(5);
    let path = tmp("lag.jsonl");
    let mut journal = obs::Journal::new(std::fs::File::create(&path).unwrap());
    // Append-start instants in record order, stamped before the append
    // so that no lag comes out negative.
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(TOTAL as usize)));
    let writer = {
        let stamps = Arc::clone(&stamps);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            for i in 0..TOTAL {
                // Paced against the ideal schedule: a slow append is
                // absorbed, not compounded.
                let due = t0 + Duration::from_nanos(i * 1_000_000_000 / RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                stamps.lock().unwrap().push(Instant::now());
                let payload = forwarded((i % 64) as i64, i as i64, false, true);
                journal.append("ts.forwarded", payload).unwrap();
            }
            journal.flush().unwrap();
        })
    };

    let mut tail = TailAuditor::open(&path, AuditConfig::default());
    let mut lags = Vec::with_capacity(TOTAL as usize);
    let deadline = Instant::now() + Duration::from_secs(SECONDS + 10);
    while tail.records() < TOTAL && tail.chain_error().is_none() && Instant::now() < deadline {
        let before = tail.records() as usize;
        tail.poll();
        let now = Instant::now();
        let tailed = before..tail.records() as usize;
        lags.extend(stamps.lock().unwrap()[tailed].iter().map(|&s| now - s));
        std::thread::sleep(POLL);
    }
    writer.join().unwrap();
    let _ = std::fs::remove_file(&path);

    assert!(tail.chain_error().is_none(), "{:?}", tail.chain_error());
    assert_eq!(tail.records(), TOTAL, "the tailer fell behind the writer");
    assert!(tail.snapshot().violations.is_empty());
    lags.sort_unstable();
    let at = |q: usize| lags[(lags.len() - 1) * q / 100];
    let (p50, p99, max) = (at(50), at(99), at(100));
    println!("{TOTAL} records tailed: lag p50 {p50:?}, p99 {p99:?}, max {max:?}");
    assert!(p99 < Duration::from_secs(1), "lag p99 {p99:?}");
}

// --- CLI surface ------------------------------------------------------

#[test]
fn serve_drill_with_live_tail_is_clean_and_watchable() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    let path = tmp("drill.journal");
    let path_s = path.to_str().unwrap();
    let (code, stdout, stderr) = hka_sim(&[
        "serve-drill",
        "--audit-tail",
        "--journal",
        path_s,
        "--days",
        "1",
        "--commuters",
        "4",
        "--roamers",
        "16",
        "--segments",
        "2",
        "--interval-ms",
        "5",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("equivalence: OK"), "{stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");

    // The journal the drill leaves behind is watchable after the fact,
    // and the watch report is byte-identical to the offline audit.
    let watch = tmp("drill-watch.json");
    let offline = tmp("drill-offline.json");
    let (code, stdout, _) = hka_sim(&[
        "watch",
        path_s,
        "--idle-exit",
        "2",
        "--interval-ms",
        "20",
        "--report",
        watch.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    let (code, _, _) = hka_sim(&[
        "audit",
        "--journal",
        path_s,
        "--json",
        offline.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(code, 0);
    assert_eq!(
        std::fs::read(&watch).unwrap(),
        std::fs::read(&offline).unwrap(),
        "watch report and offline audit report must be byte-identical"
    );
    for p in [path, watch, offline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn chaos_under_tail_never_reports_a_false_violation() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    // Request-path chaos (tail_chaos_plan: journal I/O excluded) plus
    // crash/recover cycles at every segment boundary: the tailing
    // auditor must ride through all of it with zero violations and a
    // final report byte-identical to the offline replay.
    for seed in [3u64, 7, 42] {
        let path = tmp(&format!("chaos-{seed}.journal"));
        let path_s = path.to_str().unwrap();
        let (code, stdout, stderr) = hka_sim(&[
            "serve-drill",
            "--audit-tail",
            "--journal",
            path_s,
            "--days",
            "1",
            "--commuters",
            "4",
            "--roamers",
            "16",
            "--segments",
            "3",
            "--interval-ms",
            "5",
            "--chaos",
            &seed.to_string(),
        ]);
        assert_eq!(code, 0, "seed {seed}: stdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(stdout.contains("equivalence: OK"), "seed {seed}: {stdout}");
        assert!(stdout.contains("0 violations"), "seed {seed}: {stdout}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn watch_flags_a_violation_with_its_journal_offset() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    let path = tmp("violation.journal");
    let mut journal = obs::Journal::new(std::fs::File::create(&path).unwrap());
    journal
        .append("ts.forwarded", forwarded(1, 100, false, true))
        .unwrap();
    journal.flush().unwrap();
    let offset = std::fs::metadata(&path).unwrap().len();
    // A sub-k (clamped) generalized forward with no preceding at-risk
    // notification: an UnexplainedClamp the watcher must flag.
    journal
        .append("ts.forwarded", forwarded(1, 200, true, false))
        .unwrap();
    journal.flush().unwrap();
    drop(journal);

    let (code, stdout, stderr) = hka_sim(&[
        "watch",
        path.to_str().unwrap(),
        "--idle-exit",
        "2",
        "--interval-ms",
        "20",
    ]);
    assert_eq!(
        code, 2,
        "watch exits 2 on violations\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("unexplained_clamp"), "{stderr}");
    assert!(
        stderr.contains(&format!("offset {offset}")),
        "violation must carry the journal offset {offset}: {stderr}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn watch_and_audit_agree_on_an_empty_journal() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    // Regression: a zero-length journal is a clean (empty) audit, not
    // an error — for the offline reader and the watcher alike.
    let path = tmp("empty.journal");
    std::fs::write(&path, b"").unwrap();
    let watch = tmp("empty-watch.json");
    let offline = tmp("empty-offline.json");
    let (code, stdout, stderr) = hka_sim(&[
        "watch",
        path.to_str().unwrap(),
        "--idle-exit",
        "1",
        "--report",
        watch.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    let (code, stdout, _) = hka_sim(&[
        "audit",
        "--journal",
        path.to_str().unwrap(),
        "--json",
        offline.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(
        std::fs::read(&watch).unwrap(),
        std::fs::read(&offline).unwrap()
    );
    for p in [path, watch, offline] {
        let _ = std::fs::remove_file(p);
    }
}

// --- Library surface --------------------------------------------------

#[test]
fn tail_survives_recovery_truncation_and_rechain() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    // A tailer positioned exactly past a torn tail must be oblivious to
    // `Journal::recover` truncating it, and must pick up the recovery
    // marker and every re-chained record that follows.
    let path = tmp("recover.journal");
    let mut journal = obs::Journal::new(std::fs::File::create(&path).unwrap());
    for at in [10i64, 20, 30] {
        journal
            .append(
                "ts.pseudonym_changed",
                obs::Json::obj([("user", obs::Json::Int(1)), ("at", obs::Json::Int(at))]),
            )
            .unwrap();
    }
    journal.flush().unwrap();
    drop(journal);
    // Crash mid-append: a newline-less torn tail.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(br#"{"hash":"torn-mid-append"#).unwrap();
    drop(f);

    let mut tail = TailAuditor::open(&path, AuditConfig::default());
    let poll = tail.poll();
    assert_eq!(poll.new_records, 3);
    assert!(
        poll.torn_bytes > 0,
        "the torn tail is visible but not consumed"
    );
    assert!(poll.chain_error.is_none());

    // Recovery truncates exactly the bytes the tailer never consumed,
    // appends its marker, and the writer re-chains from the new head.
    let (mut journal, report) = obs::recover(&path).unwrap();
    assert_eq!(report.valid_records, 3);
    assert!(report.truncated_bytes > 0);
    journal
        .append(
            "ts.pseudonym_changed",
            obs::Json::obj([("user", obs::Json::Int(1)), ("at", obs::Json::Int(40))]),
        )
        .unwrap();
    journal.flush().unwrap();
    drop(journal);

    let poll = tail.poll();
    assert!(
        poll.chain_error.is_none(),
        "recovery must be invisible: {:?}",
        poll.chain_error
    );
    assert_eq!(
        poll.new_records, 2,
        "the journal.recovered marker plus the new record"
    );
    assert_eq!(poll.torn_bytes, 0);

    let tailed = tail.snapshot().to_json().to_string();
    let offline = audit::replay_file(&path, AuditConfig::default())
        .unwrap()
        .to_json()
        .to_string();
    assert_eq!(
        tailed, offline,
        "tail and offline reports must be byte-identical"
    );
    let _ = std::fs::remove_file(path);
}

fn small_world(seed: u64) -> World {
    World::generate(&WorldConfig {
        seed,
        days: 1,
        n_commuters: 4,
        n_roamers: 16,
        n_poi_regulars: 2,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn protected_server(world: &World, k: usize) -> TrustedServer {
    let mut ts = TrustedServer::new(TsConfig::default());
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

#[test]
fn journal_fault_chaos_tail_matches_offline_audit_byte_for_byte() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    // The strongest equivalence claim: full randomized fault schedules
    // — journal I/O faults *included*, so torn writes, clean I/O errors
    // and the whole mode ladder fire — with a live tailer following the
    // file while the server writes it. Whatever ends up on disk (clean
    // chain, mid-file corruption, dropped mode records), the tailer's
    // final report must be byte-identical to the offline replay of the
    // same file. No zero-violation assertion here: journal faults can
    // produce *genuine* ModeLadderGap violations, and both readers must
    // agree on those too.
    for seed in 0..6u64 {
        let path = tmp(&format!("jfault-{seed}.journal"));
        let _ = std::fs::remove_file(&path);
        let world = small_world(seed);
        let mut ts = protected_server(&world, 3);
        let injector = FaultInjector::new(randomized_plan(seed));
        ts.attach_faults(injector.clone());
        let file = std::fs::File::create(&path).unwrap();
        ts.attach_journal(obs::Journal::new(
            Box::new(FaultyWriter::new(file, injector.clone())) as Box<dyn Write + Send + Sync>,
        ));

        let done = Arc::new(AtomicBool::new(false));
        let tailer = {
            let done = Arc::clone(&done);
            let path = path.clone();
            std::thread::spawn(move || {
                let mut tail = TailAuditor::open(&path, AuditConfig::default());
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let poll = tail.poll();
                    if poll.chain_error.is_some() || (finished && poll.new_records == 0) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                tail
            })
        };

        for e in &world.events {
            match e.kind {
                EventKind::Location => ts.location_update(e.user, e.at),
                EventKind::Request { service } => {
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
                        let _ = ts.handle_request(e.user, at, ServiceId(service));
                    }
                }
            }
        }
        drop(ts.take_journal());
        done.store(true, Ordering::SeqCst);
        let mut tail = tailer.join().expect("tailer thread");

        // A torn fault on the final append leaves a newline-less tail
        // that no later write completes: with the writer gone for good,
        // that is a crash, and the on-call path is recovery. Run it —
        // the truncation lands entirely past the tailer's verified
        // offset, and the recovery marker re-chains the file — unless
        // the tailer already latched a mid-file corruption, in which
        // case the file is left as-is so both readers see the same
        // break.
        let trailing_torn = std::fs::read(&path)
            .map(|b| !b.is_empty() && b[b.len() - 1] != b'\n')
            .unwrap_or(false);
        if trailing_torn && tail.chain_error().is_none() {
            let (mut journal, _) = obs::recover(&path).unwrap();
            journal.flush().unwrap();
            drop(journal);
            let _ = tail.poll();
        }

        let tailed = tail.snapshot().to_json().to_string();
        let offline = audit::replay_file(&path, AuditConfig::default())
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(
            tailed,
            offline,
            "seed {seed}: tail and offline reports diverged on {}",
            path.display()
        );
        let _ = std::fs::remove_file(path);
    }
}
