//! Acceptance tests for the observability layer: a simulated pipeline
//! must produce (a) a hash-chain-verifiable JSONL journal and (b) a
//! metrics snapshot with nonzero counters and latency histograms for the
//! handle-request, generalization, linker, and index-query stages —
//! both through the library API and through the `hka-sim` binary.

use hka::obs;
use hka::prelude::*;
use std::io::Write;
use std::process::Command;
use std::sync::{Arc, Mutex};

/// An in-memory journal sink the test can read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_pipeline() -> (TrustedServer, SharedBuf) {
    let world = World::generate(&WorldConfig {
        seed: 7,
        days: 3,
        n_commuters: 4,
        n_roamers: 20,
        n_poi_regulars: 2,
        ..WorldConfig::default()
    });
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 600));
    let commuters: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        let level = if commuters.contains(&agent.user) {
            PrivacyLevel::Medium
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
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    for e in &world.events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let _ = ts.handle_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.flush_journal().expect("in-memory sink cannot fail");
    // Drive the linker stage the way a provider-side analysis would.
    let requests: Vec<SpRequest> = ts.provider_view().into_iter().take(40).collect();
    let _ = link_components(&requests, &PseudonymLinker, 0.5);
    let _ = ts.unlink_audit(&TrackerLinker::default());
    (ts, sink)
}

#[test]
fn pipeline_journal_verifies_and_covers_every_event() {
    let (ts, sink) = run_pipeline();
    let bytes = sink.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let report = obs::verify_chain(&bytes[..]).expect("chain intact");
    let journaled = ts.log().events().len() as u64 + ts.log().dropped();
    assert_eq!(
        report.records.len() as u64,
        journaled,
        "journal covers every event"
    );
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
    let (ts, _) = run_pipeline();
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
/// neighbourhood-sized: `mixzone.candidates` (PHLs read for a heading)
/// per attempt stays far below the population a full scan would read.
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
        "{candidates} PHLs over {attempts} attempts"
    );
    // 70 users: the exhaustive scan read 69 PHLs per attempt.
    assert!(
        candidates < 20 * attempts,
        "{candidates} PHLs over {attempts} attempts is not neighbourhood-sized"
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
