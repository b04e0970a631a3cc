//! Acceptance suite for crash-safe checkpoints: snapshot + suffix
//! recovery must agree **byte for byte** with a genesis replay of the
//! same chain — across crash/recover cycles, with the checkpoint
//! anchor sitting inside a torn tail region, under seeded chaos on the
//! checkpoint path, and after the journal prefix has been archived.
//! PHL compaction rides the same bar: a server that compacts its
//! history nightly must journal the exact bytes an uncompacted twin
//! does.

use hka::audit::{self, AuditConfig, TailAuditor};
use hka::obs;
use hka::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

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

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("hka-ckpt-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sp(x: f64, y: f64, t: i64) -> StPoint {
    StPoint::xyt(x, y, TimeSec(t))
}

fn file_journal(path: &Path) -> obs::BoxedJournal {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    obs::Journal::new(Box::new(std::io::BufWriter::new(file)) as Box<dyn Write + Send + Sync>)
}

/// A server journaling to `dir/journal.jsonl`: one service, a static
/// mix-zone, six users (half protected), a little location traffic.
fn busy_server(dir: &Path) -> (TrustedServer, PathBuf) {
    let journal = dir.join("journal.jsonl");
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.attach_journal(file_journal(&journal));
    ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
    ts.add_static_mixzone(Rect::new(
        Point::new(500.0, 500.0),
        Point::new(600.0, 600.0),
    ));
    for u in 0..6u64 {
        let level = if u % 2 == 0 {
            PrivacyLevel::Medium
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(UserId(u), level);
        for t in 0..5 {
            ts.location_update(UserId(u), sp(10.0 * u as f64, 3.0 * t as f64, 60 * t));
        }
        ts.handle_request(UserId(u), sp(10.0 * u as f64, 20.0, 400), ServiceId(1));
    }
    (ts, journal)
}

/// Crash the sink, leave `torn` bytes at the tail, recover (truncating
/// them), and re-attach a resumed sink.
fn crash_and_recover(ts: &mut TrustedServer, journal: &Path, torn: &[u8]) -> obs::RecoveryReport {
    drop(ts.take_journal());
    if !torn.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(journal)
            .unwrap();
        f.write_all(torn).unwrap();
    }
    let (recovered, report) = obs::recover(journal).unwrap();
    let next_seq = recovered.next_seq();
    let head = recovered.head().to_string();
    ts.attach_journal(obs::Journal::resume(
        Box::new(std::io::BufWriter::new(recovered.into_inner())) as Box<dyn Write + Send + Sync>,
        next_seq,
        head,
    ));
    report
}

// --- recover → tail → recover with the anchor in the torn region -----

#[test]
fn tail_rides_through_a_torn_tail_that_contains_the_checkpoint_anchor() {
    let dir = TempDir::new("tail-anchor");
    let (mut ts, journal) = busy_server(&dir.0);
    ts.flush_journal().unwrap();

    // The tailer catches up on the pre-checkpoint traffic first, so the
    // checkpoint anchor genuinely arrives in a *later* poll.
    let mut tail = TailAuditor::open(&journal, AuditConfig::default());
    tail.poll();
    let before_anchor = tail.records();
    assert!(before_anchor > 0, "tailer saw the prefix");

    // Checkpoint, then crash with a torn half-record: the tail region
    // now holds [anchor record][torn bytes] — the poll must ingest the
    // anchor and hold the torn bytes back.
    let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
    let receipt = cp.checkpoint(&mut ts, false).unwrap();
    drop(ts.take_journal());
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(br#"{"hash":"torn-mid-append"#).unwrap();
    }
    let poll = tail.poll();
    assert!(poll.new_records > 0, "the anchor was ingested");
    assert!(poll.torn_bytes > 0, "the torn bytes were held back");
    assert_eq!(
        tail.records(),
        receipt.seq + 1,
        "caught up through the anchor"
    );

    // First recovery truncates the torn bytes; the writer re-chains and
    // appends suffix traffic.
    let (recovered, report) = obs::recover(&journal).unwrap();
    assert!(report.truncated_bytes > 0);
    let next_seq = recovered.next_seq();
    let head = recovered.head().to_string();
    ts.attach_journal(obs::Journal::resume(
        Box::new(std::io::BufWriter::new(recovered.into_inner())) as Box<dyn Write + Send + Sync>,
        next_seq,
        head,
    ));
    for u in 0..6u64 {
        ts.handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
    }
    ts.flush_journal().unwrap();
    tail.poll();

    // Second crash/recover cycle, then more traffic.
    let report = crash_and_recover(&mut ts, &journal, br#"{"hash":"torn-again"#);
    assert!(report.truncated_bytes > 0);
    for u in 0..6u64 {
        ts.handle_request(UserId(u), sp(10.0 * u as f64, 30.0, 900), ServiceId(1));
    }
    drop(ts.take_journal());
    tail.poll();

    // The tail, the genesis replay, and the snapshot+suffix resume all
    // describe the same history, byte for byte.
    let offline = audit::replay_file(&journal, AuditConfig::default()).unwrap();
    assert!(offline.chain.verified());
    assert_eq!(
        tail.snapshot().to_json().to_string(),
        offline.to_json().to_string(),
        "tail == offline after two recoveries around the anchor"
    );
    let resumed = audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
    assert_eq!(
        resumed.to_json().to_string(),
        offline.to_json().to_string(),
        "snapshot+suffix == genesis"
    );
}

#[test]
fn a_torn_anchor_is_truncated_and_recovery_falls_back_to_the_previous_checkpoint() {
    let dir = TempDir::new("torn-anchor");
    let (mut ts, journal) = busy_server(&dir.0);
    let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
    let first = cp.checkpoint(&mut ts, false).unwrap();

    for u in 0..6u64 {
        ts.handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
    }

    // A second checkpoint whose anchor append tears mid-line: the
    // snapshot file exists, but the chain never admitted it.
    let torn_anchor = br#"{"hash":"dead","kind":"checkpoint","payload":{"fi"#;
    let report = crash_and_recover(&mut ts, &journal, torn_anchor);
    assert!(report.truncated_bytes > 0, "the half anchor was truncated");

    // The scan skips nothing (the torn anchor is not in the chain at
    // all) and lands on the first checkpoint.
    let (found, skipped) = cp.latest_valid().unwrap();
    assert!(skipped.is_empty());
    assert_eq!(
        found.expect("first checkpoint survives").anchor.records,
        first.seq
    );

    // Resuming from it still reproduces the genesis replay exactly.
    drop(ts.take_journal());
    let offline = audit::replay_file(&journal, AuditConfig::default()).unwrap();
    assert!(offline.chain.verified());
    let resumed = audit::resume_from_snapshot(&journal, &first.path).unwrap();
    assert_eq!(resumed.to_json().to_string(), offline.to_json().to_string());
}

// --- chaos on the checkpoint path ------------------------------------

#[test]
fn checkpoint_chaos_never_poisons_recovery_or_the_audit() {
    for seed in 1..=5u64 {
        let dir = TempDir::new(&format!("chaos-{seed}"));
        let (mut ts, journal) = busy_server(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        cp.attach_faults(FaultInjector::new(checkpoint_chaos_plan(seed)));

        let mut ok = 0u64;
        let mut failed = 0u64;
        for round in 0..4u64 {
            for u in 0..6u64 {
                let at = sp(10.0 * u as f64, 25.0, 700 + 200 * round as i64);
                ts.handle_request(UserId(u), at, ServiceId(1));
            }
            match cp.checkpoint(&mut ts, false) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        assert_eq!(ok + failed, 4);
        drop(ts.take_journal());

        // Whatever chaos did, the chain verifies and recovery is never
        // half-trusted: a valid checkpoint resumes byte-identically, no
        // valid checkpoint means clean genesis replay.
        let offline = audit::replay_file(&journal, AuditConfig::default()).unwrap();
        assert!(offline.chain.verified(), "seed {seed}");
        let (found, _skipped) = cp.latest_valid().unwrap();
        match found {
            Some(rec) => {
                let resumed = audit::resume_from_snapshot(&journal, &rec.path).unwrap();
                assert_eq!(
                    resumed.to_json().to_string(),
                    offline.to_json().to_string(),
                    "seed {seed}: fallback checkpoint resumes byte-identically"
                );
            }
            None => assert_eq!(
                ok, 0,
                "seed {seed}: only an all-failed run may lack checkpoints"
            ),
        }

        // And a server restored from the wreckage replays into a
        // working state (fail-closed, never fails open with a
        // half-written snapshot).
        let (restored, rec, _) = cp.restore_server(TsConfig::default()).unwrap();
        if let Some(rec) = rec {
            assert_eq!(restored.store().user_count(), 6, "seed {seed}");
            assert!(rec.path.exists());
        }
    }
}

// --- archived prefix --------------------------------------------------

#[test]
fn a_truncated_journal_still_verifies_and_resumes_the_full_history() {
    let dir = TempDir::new("archive");
    let (mut ts, journal) = busy_server(&dir.0);
    let full_len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
    let receipt = cp.checkpoint(&mut ts, true).unwrap();
    assert!(receipt.truncated_bytes > 0, "the prefix was archived");
    assert!(std::fs::metadata(&journal).unwrap().len() < full_len);

    for u in 0..6u64 {
        ts.handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
    }
    drop(ts.take_journal());

    // A genesis replay of the truncated file seeds its cursor from the
    // leading anchor: the chain verifies even though the prefix bytes
    // are gone.
    let offline = audit::replay_file(&journal, AuditConfig::default()).unwrap();
    assert!(offline.chain.verified(), "anchor-seeded verification");

    // Resuming from the snapshot restores the full-history audit state
    // the archived prefix produced: every pre-checkpoint forward is
    // still accounted for.
    let resumed = audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
    assert!(resumed.chain.verified());
    let genesis_total = offline.totals.forwarded();
    let resumed_total = resumed.totals.forwarded();
    assert!(
        resumed_total > genesis_total,
        "resume covers the archived prefix ({resumed_total} > {genesis_total})"
    );
}

// --- compaction differential ------------------------------------------

#[test]
fn a_compacting_server_journals_the_same_bytes_as_an_uncompacted_twin() {
    let dir = TempDir::new("compact-diff");
    let plain_path = dir.0.join("plain.jsonl");
    let compact_path = dir.0.join("compact.jsonl");

    let mut plain = TrustedServer::new(TsConfig::default());
    let mut compacting = TrustedServer::new(TsConfig::default());
    plain.attach_journal(file_journal(&plain_path));
    compacting.attach_journal(file_journal(&compact_path));
    let policy = CompactionPolicy::new(DAY, Granularity::Days);

    for ts in [&mut plain, &mut compacting] {
        ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        for u in 0..8u64 {
            let level = if u % 2 == 0 {
                PrivacyLevel::Medium
            } else {
                PrivacyLevel::Off
            };
            ts.register_user(UserId(u), level);
        }
    }

    // Five days of dense location traffic and a request per user per
    // day; the twin compacts at every midnight.
    let mut dropped = 0u64;
    for day in 0..5i64 {
        for u in 0..8u64 {
            for f in 0..30i64 {
                let t = day * DAY + f * 2_000;
                let p = sp(10.0 * u as f64 + (f % 7) as f64, (f % 5) as f64, t);
                plain.location_update(UserId(u), p);
                compacting.location_update(UserId(u), p);
            }
            let at = sp(10.0 * u as f64, 20.0, day * DAY + 70_000);
            let a = plain.handle_request(UserId(u), at, ServiceId(1));
            let b = compacting.handle_request(UserId(u), at, ServiceId(1));
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "day {day} user {u}: outcomes diverge under compaction"
            );
        }
        let stats = compacting.compact_history(TimeSec((day + 1) * DAY), &policy);
        dropped += stats.points_dropped();
    }
    assert!(dropped > 0, "compaction actually folded something");
    assert!(
        compacting.store().total_points() < plain.store().total_points(),
        "the compacted store is smaller"
    );

    drop(plain.take_journal());
    drop(compacting.take_journal());
    let a = std::fs::read(&plain_path).unwrap();
    let b = std::fs::read(&compact_path).unwrap();
    assert_eq!(a, b, "the journals are byte-identical under compaction");

    let ra = audit::replay_file(&plain_path, AuditConfig::default()).unwrap();
    let rb = audit::replay_file(&compact_path, AuditConfig::default()).unwrap();
    assert_eq!(ra.to_json().to_string(), rb.to_json().to_string());
}

/// After [`TrustedServer::compact_history`], the server's rebuilt index
/// must be indistinguishable from an index built from scratch over the
/// compacted store — same scale, same size, and the same answers to
/// every query class — for the grid and its brute-force specification
/// alike. A rebuild that leaked stale cells or forgot by-time
/// bookkeeping would diverge here.
#[test]
fn compact_history_rebuild_matches_a_from_scratch_build() {
    for backend in IndexBackend::ALL {
        let config = TsConfig {
            backend,
            ..TsConfig::default()
        };
        let mut ts = TrustedServer::new(config);
        ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        for u in 0..10u64 {
            ts.register_user(UserId(u), PrivacyLevel::Off);
        }
        for day in 0..4i64 {
            for u in 0..10u64 {
                for f in 0..25i64 {
                    let t = day * DAY + f * 2_500;
                    ts.location_update(
                        UserId(u),
                        sp(15.0 * u as f64 + (f % 9) as f64, 3.0 * (f % 6) as f64, t),
                    );
                }
            }
        }
        let now = TimeSec(4 * DAY);
        let stats = ts.compact_history(now, &CompactionPolicy::new(DAY, Granularity::Days));
        assert!(stats.points_dropped() > 0, "{backend:?}: compaction folded");

        let fresh = backend.build(ts.store(), config.index);
        let rebuilt = ts.index();
        assert_eq!(rebuilt.backend(), backend);
        assert_eq!(rebuilt.scale(), fresh.scale(), "{backend:?}: scale");
        assert_eq!(rebuilt.len(), fresh.len(), "{backend:?}: indexed points");
        assert_eq!(
            rebuilt.len(),
            ts.store().total_points(),
            "{backend:?}: store"
        );

        let probes = [
            sp(0.0, 0.0, 0),
            sp(75.0, 9.0, 2 * DAY),
            sp(150.0, 15.0, 4 * DAY - 1),
        ];
        for seed in &probes {
            for k in [1usize, 4, 10, 25] {
                for excl in [None, Some(UserId(3))] {
                    assert_eq!(
                        rebuilt.k_nearest_users(seed, k, excl),
                        fresh.k_nearest_users(seed, k, excl),
                        "{backend:?}: k_nearest k={k}"
                    );
                }
            }
        }
        let b = StBox::new(
            Rect::from_bounds(0.0, 0.0, 160.0, 20.0),
            TimeInterval::new(TimeSec(DAY), TimeSec(3 * DAY)),
        );
        assert_eq!(
            rebuilt.users_crossing(&b),
            fresh.users_crossing(&b),
            "{backend:?}: users_crossing"
        );
        for limit in [0usize, 1, 5, 10, 99] {
            assert_eq!(
                rebuilt.count_users_crossing(&b, limit),
                fresh.count_users_crossing(&b, limit),
                "{backend:?}: count limit={limit}"
            );
        }
    }
}

// --- CLI surface ------------------------------------------------------

#[test]
fn serve_drill_checkpoints_verify_restore_and_resume() {
    let dir = TempDir::new("cli-drill");
    let journal = dir.0.join("drill.jsonl");
    let journal_s = journal.to_str().unwrap();
    let (code, stdout, stderr) = hka_sim(&[
        "serve-drill",
        "--journal",
        journal_s,
        "--days",
        "1",
        "--commuters",
        "4",
        "--roamers",
        "16",
        "--segments",
        "2",
        "--checkpoint-every",
        "100",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("checkpoint equivalence: OK"), "{stdout}");

    // The snapshots the drill left behind resume both offline surfaces.
    let ckpt_dir = PathBuf::from(format!("{journal_s}.ckpt"));
    let mut snaps: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    snaps.sort();
    let last = snaps.last().expect("the drill wrote a snapshot");
    let last_s = last.to_str().unwrap();

    let resume_json = dir.0.join("resume.json");
    let genesis_json = dir.0.join("genesis.json");
    let (code, _, stderr) = hka_sim(&[
        "audit",
        "--journal",
        journal_s,
        "--snapshot",
        last_s,
        "--json",
        resume_json.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = hka_sim(&[
        "audit",
        "--journal",
        journal_s,
        "--json",
        genesis_json.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(
        std::fs::read(&resume_json).unwrap(),
        std::fs::read(&genesis_json).unwrap(),
        "audit --snapshot == genesis audit"
    );

    let (code, stdout, stderr) = hka_sim(&[
        "watch",
        journal_s,
        "--snapshot",
        last_s,
        "--idle-exit",
        "2",
        "--interval-ms",
        "20",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("checkpoints="), "{stdout}");
}

#[test]
fn serve_drill_checkpoint_chaos_and_truncation_still_exit_clean() {
    let dir = TempDir::new("cli-chaos");
    let journal = dir.0.join("chaos.jsonl");
    let journal_s = journal.to_str().unwrap();
    let (code, stdout, stderr) = hka_sim(&[
        "serve-drill",
        "--journal",
        journal_s,
        "--days",
        "1",
        "--commuters",
        "4",
        "--roamers",
        "16",
        "--segments",
        "2",
        "--checkpoint-every",
        "100",
        "--checkpoint-chaos",
        "3",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");

    let dir2 = TempDir::new("cli-trunc");
    let journal = dir2.0.join("trunc.jsonl");
    let journal_s = journal.to_str().unwrap();
    let (code, stdout, stderr) = hka_sim(&[
        "serve-drill",
        "--journal",
        journal_s,
        "--days",
        "1",
        "--commuters",
        "4",
        "--roamers",
        "16",
        "--segments",
        "2",
        "--checkpoint-every",
        "100",
        "--truncate",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("checkpoint resume: OK"), "{stdout}");
    assert!(stdout.contains("prefix bytes archived"), "{stdout}");

    // Flag misuse is a usage error, not a silent degradation.
    let (code, _, stderr) = hka_sim(&["serve-drill", "--truncate"]);
    assert_eq!(code, 2, "{stderr}");
    let (code, _, stderr) = hka_sim(&[
        "serve-drill",
        "--checkpoint-every",
        "10",
        "--truncate",
        "--audit-tail",
    ]);
    assert_eq!(code, 2, "{stderr}");
}
