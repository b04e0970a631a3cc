//! End-to-end tests of the `hka-sim` command-line front end: each
//! subcommand is executed as a real process against the built binary.

use std::process::Command;

fn hka_sim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A per-process scratch directory: two checkouts tested at once on one
/// host must not overwrite each other's files mid-compare.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hka-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn simulate_prints_summary_and_audits() {
    let (ok, stdout, _) = hka_sim(&[
        "simulate",
        "--days",
        "3",
        "--commuters",
        "3",
        "--roamers",
        "20",
        "--k",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("simulated 3 days"));
    assert!(stdout.contains("HK success rate"));
    assert!(stdout.contains("commute: matched="));
}

#[test]
fn plan_reports_verdicts() {
    let (ok, stdout, _) = hka_sim(&["plan", "--population", "60", "--samples", "50"]);
    assert!(ok);
    assert!(stdout.contains("hospital-finder"));
    assert!(stdout.contains("localized-news"));
    assert!(stdout.contains("deploy") || stdout.contains("DO NOT DEPLOY"));
}

#[test]
fn export_then_plan_round_trips() {
    let dir = scratch("export");
    let trace = dir.join("trace.csv");
    let trace_s = trace.to_str().unwrap();
    let (ok, stdout, _) = hka_sim(&["export", "--days", "1", "--out", trace_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"));
    let header = std::fs::read_to_string(&trace).unwrap();
    assert!(header.starts_with("# hka-trace v1"));
    let (ok, stdout, _) = hka_sim(&["plan", "--trace", trace_s, "--samples", "50"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("hospital-finder"));
}

#[test]
fn attack_accepts_levels_and_rejects_garbage() {
    let (ok, stdout, _) = hka_sim(&["attack", "--level", "off", "--seed", "2"]);
    assert!(ok);
    assert!(stdout.contains("targets identified"));
    let (ok, _, stderr) = hka_sim(&["attack", "--level", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown level"));
}

#[test]
fn usage_errors_are_reported() {
    let (ok, _, stderr) = hka_sim(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = hka_sim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = hka_sim(&["simulate", "--days", "three"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value"));
    let (ok, _, stderr) = hka_sim(&["export"]);
    assert!(!ok);
    assert!(stderr.contains("--out"));
}

#[test]
fn derive_runs_for_commuter_and_roamer() {
    let (ok, stdout, _) = hka_sim(&["derive", "--user", "0", "--days", "5"]);
    assert!(ok);
    // Either outcome is legitimate; the line shapes are fixed.
    assert!(stdout.contains("population") || stdout.contains("no identifying"));
}

#[test]
fn index_backend_is_observationally_invariant() {
    let dir = scratch("index");
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains(".journal"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for shards in ["1", "4"] {
        let run = |index: &str| {
            let journal = dir.join(format!("{index}-{shards}.journal"));
            let (ok, stdout, stderr) = hka_sim(&[
                "simulate",
                "--days",
                "2",
                "--commuters",
                "4",
                "--roamers",
                "60",
                "--shards",
                shards,
                "--index",
                index,
                "--trace-out",
                journal.to_str().unwrap(),
            ]);
            assert!(ok, "{stderr}");
            (journal, stdout)
        };
        let (grid, grid_stdout) = run("grid");
        let (brute, brute_stdout) = run("brute");

        // The grid is a pure query accelerator over the brute-force
        // specification: switching between them must not move a single
        // request between Forwarded and Suppressed, so the journals —
        // which record every per-request decision — match byte for
        // byte, and the summary lines agree (modulo the line naming the
        // output path).
        assert_eq!(
            std::fs::read(&grid).unwrap(),
            std::fs::read(&brute).unwrap(),
            "{shards} shard(s): grid and brute journals must be byte-identical"
        );
        assert_eq!(strip(&grid_stdout), strip(&brute_stdout));

        // …on a run crowded enough that both backends also answered the
        // unlink search, with and without success.
        let journal = std::fs::read_to_string(&grid).unwrap();
        for kind in ["ts.pseudonym_changed", "ts.at_risk"] {
            let needle = format!("\"kind\":\"{kind}\"");
            assert!(
                journal.lines().any(|l| l.contains(&needle)),
                "{shards} shard(s): the scenario must produce a {kind} record"
            );
        }

        // The grid-backed run passes the full audit on its own merits.
        let (ok, stdout, stderr) = hka_sim(&["audit", "--journal", grid.to_str().unwrap()]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("chain: VERIFIED"));
        assert!(stdout.contains("violations: none"));
    }

    // Unknown (and retired) backends are a usage error, not a silent
    // fallback.
    for gone in ["rtree", "quadtree"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
            .args(["simulate", "--days", "1", "--index", gone])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--index {gone}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown index backend"), "{stderr}");
        assert!(stderr.contains("grid|brute"), "{stderr}");
    }
}

/// A sharded server that never sees a protected request builds no index
/// at all (each `hka-sim` run is its own process, so the metrics
/// registry it prints is that run's alone); the first protected request
/// builds the one union index, once.
#[test]
fn sharded_server_builds_its_index_only_for_protected_requests() {
    let run = |commuters: &str| {
        let (ok, stdout, stderr) = hka_sim(&[
            "simulate",
            "--days",
            "1",
            "--commuters",
            commuters,
            "--roamers",
            "12",
            "--shards",
            "4",
            "--metrics",
        ]);
        assert!(ok, "{stderr}");
        stdout
    };
    let counter = |stdout: &str, name: &str| -> Option<u64> {
        let line = stdout.lines().find(|l| l.trim_start().starts_with(name))?;
        line.split_whitespace().last()?.parse().ok()
    };

    // No commuters: every user has privacy off.
    let off = run("0");
    assert!(counter(&off, "ts.requests").unwrap() > 0, "{off}");
    assert_eq!(counter(&off, "union.rebuilds"), None, "{off}");
    assert_eq!(counter(&off, "union.deltas_applied"), None, "{off}");

    let protected = run("3");
    assert_eq!(
        counter(&protected, "union.rebuilds"),
        Some(1),
        "{protected}"
    );
    assert!(counter(&protected, "union.deltas_applied").unwrap() > 0);
}

#[test]
fn simulate_then_audit_round_trips() {
    let dir = scratch("audit");
    let journal = dir.join("ts.journal");
    let journal_s = journal.to_str().unwrap();
    let report = dir.join("audit.json");
    let report_s = report.to_str().unwrap();

    let (ok, _, stderr) = hka_sim(&[
        "simulate",
        "--days",
        "2",
        "--commuters",
        "3",
        "--roamers",
        "20",
        "--trace-out",
        journal_s,
    ]);
    assert!(ok, "{stderr}");

    // A clean run audits clean, writes the canonical JSON report, and
    // exits 0.
    let (ok, stdout, stderr) = hka_sim(&["audit", "--journal", journal_s, "--json", report_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("chain: VERIFIED"));
    assert!(stdout.contains("violations: none"));
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"trade_off\""));
    assert!(json.contains("\"k_timeline\""));

    // Tampering with the journal fails the audit.
    let text = std::fs::read_to_string(&journal).unwrap();
    let tampered_path = dir.join("tampered.journal");
    std::fs::write(&tampered_path, text.replacen("\"user\":", "\"USER\":", 1)).unwrap();
    let (ok, stdout, _) = hka_sim(&["audit", "--journal", tampered_path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("chain: FAILED"));

    // Missing flag is a usage error.
    let (ok, _, stderr) = hka_sim(&["audit"]);
    assert!(!ok);
    assert!(stderr.contains("--journal"));
}
