//! Acceptance tests for end-to-end request tracing and the SLO
//! watchdog: Perfetto-loadable export with every group-commit request's
//! span nested under its root, byte-stable artifacts for a fixed
//! seed, journals unchanged by collection state, and SLO breaches that
//! land in the journal without disturbing the audit.

use hka::obs;
use hka::prelude::*;
use std::process::Command;
use std::sync::Mutex;

/// The trace collector is process-global; library-driven tests serialize
/// here — those that enable it, and those that serve requests in-process,
/// whose spans would otherwise land in another test's collection
/// (CLI-driven tests run their own processes and need no lock).
static COLLECTOR: Mutex<()> = Mutex::new(());

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

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hka-trace-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_world(days: i64) -> World {
    World::generate(&WorldConfig {
        seed: 11,
        days,
        n_commuters: 4,
        n_roamers: 16,
        n_poi_regulars: 2,
        ..WorldConfig::default()
    })
}

/// A server on a group journal over `sink`.
fn setup_group(world: &World, sink: impl obs::DurableSink + 'static) -> TrustedServer {
    let mut ts = hka::commuter_server(TsConfig::default(), world, PrivacyLevel::Medium);
    ts.attach_group_journal(obs::Journal::new(
        Box::new(sink) as Box<dyn obs::DurableSink>
    ));
    // Explicit privacy-off overrides: the background traffic takes the
    // exact-forward path, which does not commit the journal before it runs.
    for u in world.commuters() {
        ts.set_service_privacy(u, ServiceId(BACKGROUND_SERVICE), PrivacyLevel::Off)
            .expect("registered");
    }
    ts
}

fn drive(ts: &mut TrustedServer, world: &World) {
    for e in &world.events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let _ = ts.try_handle_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.flush_journal().expect("flush");
}

/// Every `ts.handle_request` span of a group-commit run — protected and
/// exact-forward alike — parents under its request's `ts.request` root,
/// within the same trace, and the whole document
/// passes the Chrome-trace validator.
#[test]
fn export_parents_every_sharded_request_span_under_its_root() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    obs::trace::enable(1 << 16);
    let world = build_world(2);
    let mut ts = setup_group(&world, std::io::sink());
    drive(&mut ts, &world);
    obs::trace::disable();
    let records = obs::trace::drain();

    let doc = obs::chrome_trace(&records, obs::TraceClock::Logical);
    let check = obs::validate_chrome_trace(&doc).expect("exported trace is schema-valid");
    assert_eq!(check.spans, records.len());

    let roots: std::collections::BTreeMap<_, _> = records
        .iter()
        .filter(|r| r.name == "ts.request")
        .map(|r| (r.id, r))
        .collect();
    let handled: Vec<_> = records
        .iter()
        .filter(|r| r.name == "ts.handle_request")
        .collect();
    let requests = world
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Request { .. }))
        .count();
    assert_eq!(roots.len(), requests, "one root per request");
    assert_eq!(handled.len(), requests, "one handling span per request");
    for span in handled {
        let parent = span.parent.expect("request span has a parent");
        let root = roots
            .get(&parent)
            .expect("request span parents under a request root");
        assert_eq!(root.trace, span.trace, "parent and child share the trace");
    }

    // The export leaves the box: besides the ids the exporter adds, a
    // span carries only these attributes, and never a pseudonym (`uid`).
    const ATTRS: [&str; 13] = [
        "outcome",
        "generalized",
        "service",
        "k_req",
        "k_got",
        "hk_ok",
        "step",
        "unlinked",
        "batch",
        "k",
        "observations",
        "candidates",
        "crowd",
    ];
    let Some(obs::Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let mut seen = std::collections::BTreeSet::new();
    let spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"));
    for event in spans {
        let Some(obs::Json::Obj(args)) = event.get("args") else {
            panic!("span without args: {event}");
        };
        for key in args.keys().map(String::as_str) {
            assert_ne!(key, "uid", "an exported span carries a pseudonym: {event}");
            if !["trace", "span", "parent"].contains(&key) {
                assert!(
                    ATTRS.contains(&key),
                    "unexpected span attribute {key:?}: {event}"
                );
                seen.insert(key);
            }
        }
    }
    assert!(
        seen.contains("outcome"),
        "request roots record their outcome"
    );
}

/// Same seed, two fresh processes: the exported artifact (logical
/// clock, the default) is byte-identical.
#[test]
fn trace_export_is_byte_stable_for_a_fixed_seed() {
    let dir = tmp_dir("stable");
    let run = |tag: &str| {
        let out = dir.join(format!("{tag}.json"));
        let (ok, stdout, stderr) = hka_sim(&[
            "simulate",
            "--days",
            "1",
            "--commuters",
            "3",
            "--roamers",
            "12",
            "--seed",
            "5",
            "--commit",
            "group",
            "--trace-export",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}{stderr}");
        std::fs::read(&out).unwrap()
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "trace export must be byte-stable for a fixed seed");

    let path = dir.join("a.json");
    let (ok, stdout, stderr) = hka_sim(&["trace", "--validate", path.to_str().unwrap()]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("OK"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Collection state must never leak into the decision record: the
/// journal written with `--trace-export` is byte-identical to the one
/// written without, and the export dropped no span.
#[test]
fn journals_are_byte_identical_with_tracing_on_and_off() {
    let dir = tmp_dir("onoff");
    let run = |tag: &str, traced: bool| {
        let journal = dir.join(format!("{tag}.jsonl"));
        let mut args = vec![
            "simulate".to_string(),
            "--days".into(),
            "1".into(),
            "--commuters".into(),
            "3".into(),
            "--roamers".into(),
            "12".into(),
            "--seed".into(),
            "5".into(),
            "--commit".into(),
            "group".into(),
            "--trace-out".into(),
            journal.to_str().unwrap().to_string(),
        ];
        if traced {
            args.push("--trace-export".into());
            args.push(
                dir.join(format!("{tag}.json"))
                    .to_str()
                    .unwrap()
                    .to_string(),
            );
        }
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let (ok, stdout, stderr) = hka_sim(&argv);
        assert!(ok, "{stdout}{stderr}");
        if traced {
            // The default ring capacity holds the whole run.
            assert!(stdout.contains(", 0 dropped)"), "{stdout}");
        }
        std::fs::read(&journal).unwrap()
    };
    let with = run("traced", true);
    let without = run("plain", false);
    assert!(!with.is_empty());
    assert_eq!(
        with, without,
        "journal bytes must not depend on trace collection"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ring too small for the run evicts whole early traces, so what
/// survives still validates; the drop count is the only sign the export
/// is partial, and `simulate` fails on it: the file is written, the
/// exit is non-zero, and the message names the count and the flag.
#[test]
fn an_export_that_dropped_spans_fails() {
    let dir = tmp_dir("dropped");
    let out = dir.join("t.json");
    let (ok, stdout, stderr) = hka_sim(&[
        "simulate",
        "--days",
        "1",
        "--commuters",
        "3",
        "--roamers",
        "12",
        "--seed",
        "5",
        "--commit",
        "group",
        "--trace-capacity",
        "256",
        "--trace-export",
        out.to_str().unwrap(),
    ]);
    assert!(!ok, "a dropping ring must fail the run: {stdout}");
    assert!(stdout.contains("(256 spans,"), "{stdout}");
    assert!(
        stderr.contains("dropped") && stderr.contains("--trace-capacity"),
        "{stderr}"
    );
    let (ok, stdout, stderr) = hka_sim(&["trace", "--validate", out.to_str().unwrap()]);
    assert!(
        ok,
        "the partial file is written and validates: {stdout}{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ring-only configuration — collection on, nothing exported — and
/// the exporting one journal the same bytes as collection off, in
/// process on a group journal. At `hka-sim`'s default capacity (2¹⁶
/// spans) the ring drops nothing, and the export validates.
#[test]
fn journals_are_byte_identical_with_the_ring_on_exported_or_not() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("ring");
    let world = build_world(2);
    let dropped = || obs::global().snapshot().counter("obs.trace_dropped");
    let run = |tag: &str| {
        let path = dir.join(format!("{tag}.jsonl"));
        let mut ts = setup_group(&world, std::fs::File::create(&path).unwrap());
        drive(&mut ts, &world);
        drop(ts);
        std::fs::read(&path).unwrap()
    };
    let off = run("off");

    for export in [false, true] {
        let before = dropped();
        obs::trace::enable(1 << 16);
        let ring = run(if export { "export" } else { "ring" });
        obs::trace::disable();
        let records = obs::trace::drain();
        assert_eq!(dropped(), before, "the ring dropped spans");
        // Far more spans than a ring of a few hundred slots would hold,
        // so the drop check bites.
        assert!(records.len() > 1 << 8, "{} spans", records.len());
        if export {
            let doc = obs::chrome_trace(&records, obs::TraceClock::Logical);
            let check = obs::validate_chrome_trace(&doc).expect("the export validates");
            assert_eq!(check.spans, records.len());
        }
        assert_eq!(
            ring, off,
            "export {export}: journal bytes depend on collection"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal records decisions and the trace records timing; no
/// subcommand rebuilds one from the other. The retired
/// `trace JOURNAL --out FILE` form is a usage error naming the one
/// form `trace` keeps.
#[test]
fn trace_rejects_the_retired_journal_reconstruction_form() {
    let dir = tmp_dir("retired");
    let journal = dir.join("run.jsonl");
    std::fs::write(&journal, "").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args([
            "trace",
            journal.to_str().unwrap(),
            "--out",
            dir.join("coarse.json").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--validate"), "{stderr}");
    assert!(!dir.join("coarse.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An impossible latency objective forces `ts.slo_breach` into the
/// journal; the chain still verifies, the auditor stays clean (unknown
/// kinds are tolerated, not violations), and the breach payload carries
/// the worst request's trace id.
#[test]
fn slo_breach_lands_in_the_journal_and_audit_stays_clean() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("slo");
    let path = dir.join("slo.jsonl");
    let world = build_world(1);
    let mut ts = setup_group(&world, std::fs::File::create(&path).unwrap());
    ts.enable_slo(obs::SloConfig {
        window: 16,
        min_samples: 1,
        latency_p99_ns: 1, // any real request breaches immediately
        ..obs::SloConfig::default()
    });
    drive(&mut ts, &world);
    assert!(
        ts.slo_worst().is_some(),
        "the window saw requests, so a worst trace exists"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    let breach = text
        .lines()
        .find(|l| l.contains("\"ts.slo_breach\""))
        .expect("a breach event reached the journal");
    let rec = obs::json::parse(breach).unwrap();
    let payload = rec.get("payload").unwrap();
    assert_eq!(
        payload.get("slo").and_then(|j| j.as_str()),
        Some("latency_p99")
    );
    assert!(payload
        .get("worst_trace")
        .and_then(|j| j.as_int())
        .is_some());

    let outcome = hka::audit::replay_file(&path, hka::audit::AuditConfig::default()).unwrap();
    assert!(outcome.chain.verified(), "chain verifies with SLO events");
    assert!(outcome.ok(), "SLO events are not audit violations");
    assert!(
        outcome.totals.unknown_kinds > 0,
        "breach counted as unknown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
