//! **Continuous benchmark: live audit-tail lag under paced journal load.**
//!
//! A writer thread appends schema-valid `ts.forwarded` records to an
//! on-disk journal at a fixed offered rate; a concurrent tailer thread
//! follows the same file through [`hka_audit::TailAuditor`] (the same
//! machinery behind `hka-sim watch` and `serve-drill --audit-tail`),
//! polling every few milliseconds. For every record the bench measures
//! *tail lag* — the wall-clock between the writer starting the append
//! and the tailer having verified and ingested it.
//!
//! The offered-rate ladder brackets the journal rates the group-commit
//! server actually produces (a seeded protected-city drill journaled
//! at roughly 13k requests/s), so the gate below is the acceptance
//! criterion from the live-tailing design: at production journal
//! rates, a watcher stays under one second behind the writer.
//!
//! Writes `BENCH_tail.json` and exits non-zero if any rung breaks the
//! chain, reports a violation, or shows steady-state lag p99 ≥ 1 s.
//!
//! ```text
//! cargo run --release -p hka-bench --bin bench_tail -- [--out DIR]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hka_audit::{AuditConfig, TailAuditor};
use hka_obs::{Journal, Json};

/// How often the tailer polls the journal file.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Offered journal rates, records/s. The top rung sits above the
/// ~13k records/s a group-commit drill journals at.
const RATES: [u64; 3] = [2_000, 8_000, 16_000];

/// Seconds of paced writing per rung.
const SECONDS_PER_RATE: u64 = 2;

/// The lag gate, milliseconds: steady-state p99 must stay below this.
const GATE_P99_MS: f64 = 1_000.0;

/// A schema-valid exact-point forward, so the tailing auditor decodes
/// every record cleanly (no schema issues, no violations).
fn forwarded_payload(i: u64) -> Json {
    let at = i as i64;
    let x = (i % 97) as f64;
    let y = (i % 89) as f64;
    Json::obj([
        ("user", Json::Int((i % 64) as i64)),
        ("at", Json::Int(at)),
        ("x_min", Json::Num(x)),
        ("y_min", Json::Num(y)),
        ("x_max", Json::Num(x)),
        ("y_max", Json::Num(y)),
        ("t_start", Json::Int(at)),
        ("t_end", Json::Int(at)),
        ("generalized", Json::Bool(false)),
        ("hk_ok", Json::Bool(true)),
    ])
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

struct RungResult {
    offered: u64,
    records: u64,
    write_secs: f64,
    achieved_per_sec: f64,
    lag_p50_ms: f64,
    lag_p99_ms: f64,
    lag_max_ms: f64,
    polls: u64,
    violations: u64,
    chain_error: Option<String>,
}

fn run_rung(offered: u64, path: &std::path::Path) -> RungResult {
    let total = offered * SECONDS_PER_RATE;
    // Append-start instants, indexed by record order. The writer stamps
    // *before* appending so a lag can never come out negative; the
    // tailer only reads entries for records it has already verified,
    // which the writer necessarily stamped first.
    let stamps: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::with_capacity(total as usize)));
    let done = Arc::new(AtomicBool::new(false));

    let file = std::fs::File::create(path).expect("create bench journal");
    let mut journal = Journal::new(file);
    let writer = {
        let stamps = Arc::clone(&stamps);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            for i in 0..total {
                // Pace against the ideal schedule, not the previous
                // append: a slow write is absorbed, not compounded.
                let due = t0 + Duration::from_nanos(i * 1_000_000_000 / offered);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                stamps.lock().unwrap().push(Instant::now());
                journal
                    .append("ts.forwarded", forwarded_payload(i))
                    .expect("append to bench journal");
            }
            journal.flush().expect("flush bench journal");
            let secs = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            secs
        })
    };

    let tailer = {
        let stamps = Arc::clone(&stamps);
        let done = Arc::clone(&done);
        let path = path.to_path_buf();
        std::thread::spawn(move || {
            let mut tail = TailAuditor::open(&path, AuditConfig::default());
            let mut lags_ms: Vec<f64> = Vec::with_capacity(total as usize);
            let mut polls = 0u64;
            let deadline = Instant::now() + Duration::from_secs(SECONDS_PER_RATE + 30);
            loop {
                let finished = done.load(Ordering::SeqCst);
                let before = tail.records();
                let poll = tail.poll();
                polls += 1;
                let now = Instant::now();
                if poll.new_records > 0 {
                    let stamps = stamps.lock().unwrap();
                    for i in before..before + poll.new_records {
                        lags_ms.push((now - stamps[i as usize]).as_secs_f64() * 1e3);
                    }
                }
                if poll.chain_error.is_some()
                    || (finished && tail.records() >= total)
                    || now > deadline
                {
                    break;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            (tail, lags_ms, polls)
        })
    };

    let write_secs = writer.join().expect("writer thread");
    let (tail, mut lags_ms, polls) = tailer.join().expect("tailer thread");

    lags_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let snapshot = tail.snapshot();
    RungResult {
        offered,
        records: tail.records(),
        write_secs,
        achieved_per_sec: total as f64 / write_secs,
        lag_p50_ms: percentile(&lags_ms, 0.50),
        lag_p99_ms: percentile(&lags_ms, 0.99),
        lag_max_ms: percentile(&lags_ms, 1.0),
        polls,
        violations: snapshot.violations.len() as u64,
        chain_error: tail.chain_error().map(|e| e.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("usage: bench_tail [--out DIR] (got '{other}')");
                std::process::exit(2);
            }
        }
    }

    let tmp = std::env::temp_dir();
    let mut rows = Vec::new();
    let mut failed = false;
    for rate in RATES {
        let path = tmp.join(format!("bench-tail-{}-{rate}.journal", std::process::id()));
        let r = run_rung(rate, &path);
        let _ = std::fs::remove_file(&path);
        println!(
            "rate {:>6}/s: {} records in {:.2}s ({:.0}/s) | lag ms p50 {:.2} p99 {:.2} max {:.2} | {} polls{}{}",
            r.offered,
            r.records,
            r.write_secs,
            r.achieved_per_sec,
            r.lag_p50_ms,
            r.lag_p99_ms,
            r.lag_max_ms,
            r.polls,
            if r.violations > 0 { " VIOLATIONS" } else { "" },
            if r.chain_error.is_some() { " CHAIN-ERROR" } else { "" },
        );
        let expected = rate * SECONDS_PER_RATE;
        if r.chain_error.is_some()
            || r.violations > 0
            || r.records != expected
            || r.lag_p99_ms >= GATE_P99_MS
        {
            failed = true;
        }
        rows.push(Json::obj([
            ("offered_per_sec", Json::from(r.offered)),
            ("records", Json::from(r.records)),
            ("write_secs", Json::Num(r.write_secs)),
            ("achieved_per_sec", Json::Num(r.achieved_per_sec)),
            (
                "lag_ms",
                Json::obj([
                    ("p50", Json::Num(r.lag_p50_ms)),
                    ("p99", Json::Num(r.lag_p99_ms)),
                    ("max", Json::Num(r.lag_max_ms)),
                ]),
            ),
            ("polls", Json::from(r.polls)),
            ("violations", Json::from(r.violations)),
            (
                "chain_error",
                r.chain_error.clone().map_or(Json::Null, Json::from),
            ),
        ]));
    }

    let json = Json::obj([
        ("bench", Json::from("tail")),
        (
            "definition",
            Json::from(
                "lag = wall-clock from the writer starting an append to the tailing \
                 auditor having hash-verified and ingested that record; one writer \
                 thread paced at the offered rate, one TailAuditor polling every 5 ms",
            ),
        ),
        (
            "poll_interval_ms",
            Json::from(POLL_INTERVAL.as_millis() as u64),
        ),
        ("seconds_per_rate", Json::from(SECONDS_PER_RATE)),
        ("rates", Json::Arr(rows)),
        (
            "gate",
            Json::obj([
                ("lag_p99_ms_below", Json::Num(GATE_P99_MS)),
                ("pass", Json::Bool(!failed)),
            ]),
        ),
    ]);

    let path = format!("{out_dir}/BENCH_tail.json");
    std::fs::write(&path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");

    if failed {
        eprintln!("FAIL: a rung broke the chain, reported violations, or exceeded the lag gate");
        std::process::exit(1);
    }
}
