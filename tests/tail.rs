//! Acceptance suite for live audit tailing: the streaming follow-mode
//! auditor must agree with the offline `hka-audit` replay **byte for
//! byte** on every journal it watches — while the journal is still
//! being written, across crash/recover cycles, and under seeded fault
//! schedules — and `hka-sim watch` must expose exactly that machinery.
//!
//! The equivalence bar is deliberately strict: the tailer and the
//! offline reader share one `ChainCursor`, so any divergence in what
//! they verify, count, or report is a regression in the follow mode's
//! torn-tail handling, not an acceptable approximation.

use hka::audit::{self, AuditConfig, TailAuditor};
use hka::obs;
use hka::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

mod common;
use common::{crash_and_recover, file_journal, protected, serve_event, small_world, torn_record};

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

// --- The live-tail drill ----------------------------------------------

/// Follows the journal at `path` on a thread of its own, polling every
/// 2 ms, until the chain fails or a poll after the writer set `done`
/// finds nothing new.
fn follow(path: &Path, done: &Arc<AtomicBool>) -> std::thread::JoinHandle<TailAuditor> {
    let (path, done) = (path.to_path_buf(), Arc::clone(done));
    std::thread::spawn(move || {
        let mut tail = TailAuditor::open(&path, AuditConfig::default());
        loop {
            let finished = done.load(Ordering::SeqCst);
            let poll = tail.poll();
            if poll.chain_error.is_some() || (finished && poll.new_records == 0) {
                return tail;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// A serving process with a live auditor beside it: a `TailAuditor`
/// thread follows the file journal at `path` while a seeded world is
/// delivered through `RequestService` in three segments. Between
/// segments the writer crashes: it leaves a torn half-record, which
/// `obs::recover` truncates, and resumes the chain. With `chaos`, a
/// request-path schedule (`tail_chaos_plan`: journal I/O excluded, so a
/// violation the tail reports is a false one) faults the server and
/// perturbs arrivals. The tail must end with no chain error and no
/// violation, its report byte-identical to the offline replay.
fn live_tail_drill(path: &Path, chaos: Option<u64>) {
    let _ = std::fs::remove_file(path);
    let world = small_world(1, 1);
    let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(4));
    let injector = chaos.map(|seed| FaultInjector::new(tail_chaos_plan(seed)));
    if let Some(injector) = &injector {
        ts.attach_faults(injector.clone());
    }
    ts.attach_journal(file_journal(path));
    let done = Arc::new(AtomicBool::new(false));
    let tailer = follow(path, &done);

    let chunk = world.events.len().div_ceil(3);
    let mut rejected = 0;
    for (i, segment) in world.events.chunks(chunk).enumerate() {
        if i > 0 {
            let report = crash_and_recover(&mut ts, path, &torn_record());
            assert!(report.truncated_bytes > 0, "{chaos:?}: the torn bytes stay");
        }
        for (id, e) in segment.iter().enumerate() {
            rejected += serve_event(&mut ts, id as u64, e, injector.as_ref());
        }
    }
    assert_eq!(rejected, 0, "{chaos:?}: a healthy journal refuses nothing");
    if let Some(injector) = &injector {
        assert!(
            injector.total_fired() > 0,
            "{chaos:?}: the plan never fired"
        );
    }
    drop(ts.take_journal());
    done.store(true, Ordering::SeqCst);
    let tail = tailer.join().expect("tailer thread");

    assert!(
        tail.chain_error().is_none(),
        "{chaos:?}: {:?}",
        tail.chain_error()
    );
    let violations = tail.auditor().violations();
    assert!(violations.is_empty(), "{chaos:?}: {violations:?}");
    let offline = audit::replay_file(path, AuditConfig::default()).unwrap();
    assert!(offline.chain.verified() && offline.ok(), "{chaos:?}");
    assert_eq!(
        tail.snapshot().to_json().to_string(),
        offline.to_json().to_string(),
        "{chaos:?}: tail and offline reports diverged"
    );
}

/// The drill with no faults; the journal it leaves is then watchable
/// after the fact, and the watch report is byte-identical to the
/// offline audit's.
#[test]
fn a_live_tail_follows_a_crashing_writer_and_watch_matches_audit() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    let path = tmp("drill.journal");
    live_tail_drill(&path, None);

    let path_s = path.to_str().unwrap();
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

/// The drill under three request-path fault schedules.
#[test]
fn a_live_tail_under_request_chaos_reports_no_false_violation() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    for seed in [3u64, 7, 42] {
        let path = tmp(&format!("chaos-{seed}.journal"));
        live_tail_drill(&path, Some(seed));
        let _ = std::fs::remove_file(path);
    }
}

// --- CLI surface ------------------------------------------------------

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

/// A line that is not UTF-8 is one verdict for both readers: `watch
/// --report` and `audit --json` on the same journal write the same
/// bytes, naming the line as malformed.
#[test]
fn watch_and_audit_agree_on_a_line_that_is_not_utf8() {
    let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
    let path = tmp("not-utf8.journal");
    let mut journal = obs::Journal::new(Vec::new());
    for at in 0..8 {
        journal
            .append("ts.forwarded", forwarded(1, 100 * at, false, true))
            .unwrap();
    }
    let mut bytes = journal.into_inner();
    let line6 = bytes
        .split_inclusive(|&b| b == b'\n')
        .take(5)
        .map(<[u8]>::len)
        .sum::<usize>();
    bytes[line6 + 1] = 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let watch = tmp("not-utf8-watch.json");
    let offline = tmp("not-utf8-offline.json");
    let (code, _, stderr) = hka_sim(&[
        "watch",
        path.to_str().unwrap(),
        "--idle-exit",
        "1",
        "--report",
        watch.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("line 6: malformed record: record is not valid UTF-8"),
        "{stderr}"
    );
    let (code, _, _) = hka_sim(&[
        "audit",
        "--journal",
        path.to_str().unwrap(),
        "--json",
        offline.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(code, 1);
    assert_eq!(
        std::fs::read_to_string(&watch).unwrap(),
        std::fs::read_to_string(&offline).unwrap()
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
        let world = small_world(seed, 1);
        let mut ts = hka::commuter_server(TsConfig::default(), &world, protected(3));
        let injector = FaultInjector::new(randomized_plan(seed));
        ts.attach_faults(injector.clone());
        let file = std::fs::File::create(&path).unwrap();
        ts.attach_journal(obs::Journal::new(
            Box::new(FaultyWriter::new(file, injector.clone())) as Box<dyn Write + Send + Sync>,
        ));

        let done = Arc::new(AtomicBool::new(false));
        let tailer = follow(&path, &done);

        hka::drive_chaos(&mut ts, &world.events, &injector);
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
