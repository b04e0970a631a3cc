//! Acceptance tests for the observability layer: a simulated pipeline
//! must produce (a) a hash-chain-verifiable JSONL journal and (b) a
//! metrics snapshot with nonzero counters and latency histograms for the
//! handle-request, generalization, linker, and index-query stages —
//! both through the library API and through the `hka-sim` binary.

use hka::obs;
use hka::prelude::*;
use std::io::Write;
use std::process::Command;

mod common;
use common::SharedBuf;

/// A seeded protected city on a journal into memory: the server, the
/// journal's bytes, and how many requests it handled.
fn run_pipeline() -> (TrustedServer, SharedBuf, u64) {
    let world = World::generate(&WorldConfig {
        seed: 7,
        days: 3,
        n_commuters: 4,
        n_roamers: 20,
        n_poi_regulars: 2,
        ..WorldConfig::default()
    });
    let mut ts = hka::commuter_server(TsConfig::default(), &world, PrivacyLevel::Medium);
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    let forwards: Vec<(UserId, SpRequest)> = hka::collect_forwards(&mut ts, &world.events)
        .into_iter()
        .map(|(user, req, _)| (user, req))
        .collect();
    let requests = world
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Request { .. }))
        .count() as u64;
    ts.flush_journal().expect("in-memory sink cannot fail");
    // Drive the linker stage the way a provider-side analysis would.
    let view: Vec<SpRequest> = forwards.iter().take(40).map(|(_, r)| r.clone()).collect();
    let _ = link_components(&view, &PseudonymLinker, 0.5);
    let _ = unlink_audit(&forwards, &TrackerLinker::default());
    (ts, sink, requests)
}

#[test]
fn pipeline_journal_verifies_and_covers_every_event() {
    let (ts, sink, requests) = run_pipeline();
    let bytes = sink.bytes();
    let report = obs::verify_chain(&bytes[..]).expect("chain intact");
    // One record per request, one per unlink, at-risk notice and full
    // match: every event the run made (its journal never failed, and
    // it ran no SLO watchdog).
    let st = ts.log().stats();
    let events = requests + (st.pseudonym_changes + st.at_risk + st.lbqid_matches) as u64;
    assert_eq!(st.mode_changes, 0);
    assert_eq!(
        report.records.len() as u64,
        events,
        "journal covers every event"
    );
    assert_eq!(ts.journal_position().map(|(seq, _)| seq), Some(events));
    assert!(!report.records.is_empty(), "simulation produced events");
    // Tampering with any byte of a payload must break verification.
    let mut tampered = bytes.clone();
    let pos = tampered
        .iter()
        .position(|&b| b == b':')
        .expect("json bytes present");
    tampered[pos + 1] ^= 1;
    assert!(obs::verify_chain(&tampered[..]).is_err());
}

#[test]
fn pipeline_metrics_cover_all_hot_paths() {
    let (ts, _, _) = run_pipeline();
    let snap = ts.metrics_snapshot();
    for counter in [
        "ts.requests",
        "ts.forwarded",
        "algo1.iterations",
        "index.probes",
    ] {
        assert!(snap.counter(counter) > 0, "counter {counter} is zero");
    }
    for stage in [
        "ts.handle_request",
        "algo1.generalize",
        "linker.link",
        "index.query",
    ] {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("histogram {stage} missing"));
        assert!(h.count > 0, "histogram {stage} recorded nothing");
        assert!(h.p50 > 0, "histogram {stage} has empty quantiles");
    }
    // The machine-readable snapshot parses back as JSON.
    let parsed = obs::json::parse(&snap.to_json().to_string()).expect("snapshot JSON");
    assert!(parsed.get("counters").is_some());
    assert!(parsed.get("histograms").is_some());
}

#[test]
fn thousand_event_chain_verifies_and_detects_reorder() {
    let mut journal = obs::Journal::new(Vec::new());
    for i in 0u64..1_000 {
        journal
            .append(
                "test.tick",
                obs::Json::obj([("i", obs::Json::from(i)), ("sq", obs::Json::from(i * i))]),
            )
            .unwrap();
    }
    let bytes = journal.into_inner();
    let report = obs::verify_chain(&bytes[..]).expect("1k-event chain intact");
    assert_eq!(report.records.len(), 1_000);
    // Swapping two adjacent records breaks the chain.
    let mut lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    lines.swap(500, 501);
    let reordered = lines.join(&b'\n');
    assert!(obs::verify_chain(&reordered[..]).is_err());
}

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

#[test]
fn cli_trace_out_and_metrics_default_to_simulate() {
    let dir = std::env::temp_dir().join(format!("hka-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    let (ok, stdout, stderr) = hka_sim(&[
        "--trace-out",
        trace_s,
        "--metrics",
        "--days",
        "2",
        "--commuters",
        "3",
        "--roamers",
        "15",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    // The subcommand defaulted to `simulate`.
    assert!(stdout.contains("simulated 2 days"), "{stdout}");
    // Metrics snapshot with the instrumented stages.
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("ts.requests"), "{stdout}");
    assert!(stdout.contains("histograms"), "{stdout}");
    assert!(stdout.contains("ts.handle_request"), "{stdout}");
    assert!(stdout.contains("algo1.generalize"), "{stdout}");
    // The journal on disk verifies end to end.
    let file = std::fs::File::open(&trace).unwrap();
    let report = obs::verify_chain(std::io::BufReader::new(file)).expect("chain intact");
    assert!(!report.records.is_empty());
    assert!(stdout.contains("journal:"), "{stdout}");
}

/// An operator can read off `--metrics` that the unlink search is
/// neighbourhood-sized: `mixzone.candidates` (crowd members examined for
/// a heading) per attempt stays far below the population a full scan
/// would examine.
#[test]
fn cli_metrics_show_how_big_the_unlink_crowd_examined_was() {
    let (ok, stdout, stderr) = hka_sim(&[
        "simulate",
        "--days",
        "2",
        "--commuters",
        "4",
        "--roamers",
        "60",
        "--metrics",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let counter = |name: &str| -> u64 {
        stdout
            .lines()
            .filter_map(|l| l.trim().strip_prefix(name))
            .find_map(|rest| rest.trim().parse().ok())
            .unwrap_or_else(|| panic!("counter {name} missing from:\n{stdout}"))
    };
    let attempts = counter("mixzone.unlinked") + counter("mixzone.infeasible");
    let candidates = counter("mixzone.candidates");
    assert!(counter("mixzone.unlinked") >= 1, "the scenario must unlink");
    assert!(
        candidates >= attempts,
        "{candidates} crowd members over {attempts} attempts"
    );
    // 70 users: the exhaustive scan examined 69 PHLs per attempt.
    assert!(
        candidates < 20 * attempts,
        "{candidates} crowd members over {attempts} attempts is not neighbourhood-sized"
    );
}

/// Location reports are counted, not timed: `ts.ingested` counts every
/// observation written, while the `ts.stage.ingest` histogram holds only
/// requests' own ingests.
#[test]
fn cli_metrics_count_location_reports_and_time_only_request_ingests() {
    let (ok, stdout, stderr) = hka_sim(&[
        "simulate",
        "--days",
        "2",
        "--commuters",
        "4",
        "--roamers",
        "20",
        "--metrics",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    // The first number after a metric's name: a counter's value, a
    // histogram's count.
    let first = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next() == Some(name)).then(|| cols.next()?.parse().ok())?
            })
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{stdout}"))
    };
    let (ingested, requests) = (first("ts.ingested"), first("ts.requests"));
    let timed = first(obs::stage::INGEST);
    assert!(
        ingested > requests,
        "{ingested} ingests, {requests} requests"
    );
    assert!(
        timed > 0 && timed <= requests,
        "{timed} timed ingests over {requests} requests"
    );
}
