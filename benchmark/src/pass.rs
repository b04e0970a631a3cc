//! One pass: *set-up → serve → stop + flush → audit the journal file*,
//! on a fresh server with the run's fixed input, with every output
//! checked before the pass counts.

use crate::drive::{self, Answers};
use crate::engine::Engine;
use crate::inputs::{Inputs, Workload};
use crate::spans::{Tracer, NO_REQ};
use crate::stats;
use crate::wire::{self, Conn, Frames};
use hka_gateway::{Gateway, GatewayConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The audit phase replays the pass's journal until it has read at least
/// this many records, so a small journal is not a 20 ms measurement.
pub const AUDIT_MIN_RECORDS: u64 = 25_000;

/// Idle `drain` round trips timed by a traced gateway pass.
const RTT_PROBES: usize = 200;

/// Everything a pass needs that does not change between passes.
pub struct Plan<'a> {
    /// Which workload.
    pub workload: Workload,
    /// The generated inputs.
    pub inputs: &'a Inputs,
    /// The serve stream as wire lines (`gateway_paced` only).
    pub frames: Option<&'a Frames>,
    /// Where the journal file goes.
    pub journal: PathBuf,
}

impl Plan<'_> {
    /// The frames of the serve stream offered open loop (`gateway_paced`).
    pub fn paced_range(&self) -> std::ops::Range<usize> {
        let n = self.frames.map_or(0, Frames::len) as f64;
        let (from, to) = self.inputs.spec.paced_window;
        (n * from) as usize..(n * to) as usize
    }
}

/// The decisions and bytes a pass produced. Two passes of one run must
/// be equal here, or the run fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    /// Envelopes offered in the serve phase.
    pub envelopes: u64,
    /// Requests among them.
    pub requests: u64,
    /// The responses, counted.
    pub answers: Answers,
    /// Requests that never got a response.
    pub missing: u64,
    /// Location reports the gateway shed.
    pub shed_locations: u64,
    /// Records in the journal file.
    pub journal_records: u64,
    /// Bytes in the journal file.
    pub journal_bytes: u64,
    /// SHA-256 of the journal file.
    pub journal_sha: String,
}

impl Tally {
    /// Operations that did not succeed: `err` and `overload` answers,
    /// missing responses, shed locations.
    pub fn failed(&self) -> u64 {
        self.answers.rejected + self.answers.overload + self.missing + self.shed_locations
    }

    /// Share of everything attempted that was served: requests answered
    /// `forwarded` or policy-`suppressed`, locations ingested.
    pub fn ok_share(&self) -> f64 {
        (self.envelopes - self.failed()) as f64 / self.envelopes as f64
    }

    /// Suppressed over requests: the QoS price of the guarantee.
    pub fn suppressed_share(&self) -> f64 {
        self.answers.suppressed as f64 / self.requests as f64
    }

    /// Median area of the generalized forwards, m².
    pub fn area_p50_m2(&self) -> f64 {
        let mut areas = self.answers.areas.clone();
        areas.sort_by(|a, b| a.total_cmp(b));
        stats::percentile_f64(&areas, 50.0)
    }

    /// Journal bytes per request.
    pub fn journal_bytes_per_req(&self) -> f64 {
        self.journal_bytes as f64 / self.requests as f64
    }
}

/// What only a gateway pass has.
#[derive(Debug, Clone, Default)]
pub struct GatewayPass {
    /// `Gateway::spawn` + connect, seconds.
    pub spawn_s: f64,
    /// `Gateway::shutdown`, seconds.
    pub shutdown_s: f64,
    /// Frames offered open loop (phase A).
    pub paced_frames: u64,
    /// Wall of phase A, seconds.
    pub paced_s: f64,
    /// How late each phase-A request was written, ns, ascending.
    pub lateness_ns: Vec<u64>,
    /// Times the in-flight cap held the open-loop sender back.
    pub cap_waits: u64,
    /// Service-thread drain cycles.
    pub drains: u64,
    /// Requests refused `overload`.
    pub overloads: u64,
    /// Idle `drain` round trips, ns, ascending (traced passes only).
    pub rtt_ns: Vec<u64>,
}

/// One finished pass.
pub struct Pass {
    /// Set-up wall, seconds.
    pub setup_s: f64,
    /// Wall behind `events_per_s`, seconds.
    pub serve_s: f64,
    /// Envelopes behind `events_per_s`.
    pub serve_events: u64,
    /// Audit wall over `audit_records`, seconds.
    pub audit_s: f64,
    /// Records the audit phase read (journal records × replays).
    pub audit_records: u64,
    /// Users the audit reported on.
    pub users_audited: u64,
    /// Median request latency, µs.
    pub p50_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Requests the two percentiles were taken over.
    pub latency_samples: usize,
    /// Decisions and bytes.
    pub tally: Tally,
    /// Gateway-only numbers.
    pub gateway: Option<GatewayPass>,
    /// Output checks that failed (empty = the pass is correct).
    pub problems: Vec<String>,
}

impl Pass {
    /// Envelopes accepted per second of serve wall.
    pub fn events_per_s(&self) -> f64 {
        self.serve_events as f64 / self.serve_s
    }

    /// Journal records audited per second.
    pub fn audit_records_per_s(&self) -> f64 {
        self.audit_records as f64 / self.audit_s
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// What the serve part of a pass hands the checks.
struct Served<R> {
    setup_s: f64,
    /// Wall behind `events_per_s`, seconds.
    serve_s: f64,
    /// Envelopes behind `events_per_s`.
    serve_events: u64,
    /// The timed requests' latencies, ns.
    lat_ns: Vec<u64>,
    answers: Answers,
    shed_locations: u64,
    gateway: Option<GatewayPass>,
    /// The in-process engine, when the caller asked to keep it.
    kept: Option<Engine>,
    receiver_tracer: R,
    problems: Vec<String>,
}

/// Set-up (shared by both paths): construct, register, open the journal,
/// preload the warm history.
fn set_up<S: Tracer>(plan: &Plan<'_>, tr: &mut S) -> std::io::Result<Engine> {
    let span = tr.open("setup.register", NO_REQ);
    let mut engine = Engine::build(plan.inputs, &plan.journal)?;
    tr.close(span, plan.inputs.users.len() as u32);
    drive::preload(engine.svc(), &plan.inputs.warm, tr);
    Ok(engine)
}

/// In-process: serve through the seam, flush, stop.
fn serve_in_process<S: Tracer, R>(
    plan: &Plan<'_>,
    tr: &mut S,
    receiver_tracer: R,
    keep_engine: bool,
) -> std::io::Result<Served<R>> {
    let inputs = plan.inputs;
    let setup_span = tr.open("setup", NO_REQ);
    let t_setup = Instant::now();
    let mut engine = set_up(plan, tr)?;
    let setup_s = secs(t_setup);
    tr.close(setup_span, 1);

    let mut answers = Answers::default();
    let mut lat_ns = Vec::with_capacity(inputs.requests);
    let serve_span = tr.open("serve", NO_REQ);
    let t_serve = Instant::now();
    let serve = match plan.workload {
        Workload::CommitSharded => drive::serve_ticks,
        _ => drive::serve_per_request,
    };
    serve(engine.svc(), &inputs.serve, tr, &mut answers, &mut lat_ns);
    // The journal is on its file before the clock stops.
    let flush_span = tr.open("flush_journal", NO_REQ);
    engine.svc().flush_journal()?;
    tr.close(flush_span, 1);
    let serve_s = secs(t_serve);
    tr.close(serve_span, inputs.serve.len() as u32);

    let stop_span = tr.open("stop", NO_REQ);
    let kept = keep_engine.then_some(engine);
    tr.close(stop_span, 1);
    Ok(Served {
        setup_s,
        serve_s,
        serve_events: inputs.serve.len() as u64,
        lat_ns,
        answers,
        shed_locations: 0,
        gateway: None,
        kept,
        receiver_tracer,
        problems: Vec::new(),
    })
}

/// Over TCP: spawn and connect (set-up), closed loop up to the paced
/// window, open loop through it, closed loop to the end, shut down.
/// `probe_rtt` times idle `drain` round trips before any load.
fn serve_over_tcp<S: Tracer, R: Tracer + Send + 'static>(
    plan: &Plan<'_>,
    frames: &Frames,
    tr: &mut S,
    receiver_tracer: R,
    probe_rtt: bool,
) -> std::io::Result<Served<R>> {
    let setup_span = tr.open("setup", NO_REQ);
    let t_setup = Instant::now();
    let engine = set_up(plan, tr)?;
    let spawn_span = tr.open("gateway.spawn", NO_REQ);
    let t_spawn = Instant::now();
    let gw = Gateway::spawn(
        "127.0.0.1:0",
        engine.into_service(),
        GatewayConfig::default(),
    )?;
    let mut conn = Conn::connect(gw.addr(), receiver_tracer)?;
    let mut g = GatewayPass {
        spawn_s: secs(t_spawn),
        ..GatewayPass::default()
    };
    tr.close(spawn_span, 1);
    let setup_s = secs(t_setup);
    tr.close(setup_span, 1);

    if probe_rtt {
        for _ in 0..RTT_PROBES {
            g.rtt_ns.push(conn.fence(0, tr)?.as_nanos() as u64);
        }
        g.rtt_ns.sort_unstable();
    }

    let paced = plan.paced_range();
    let schedule = wire::Schedule::even_requests(
        frames,
        paced.clone(),
        (1e9 / plan.inputs.spec.paced_requests_per_s) as u64,
    );
    let serve_span = tr.open("serve", NO_REQ);
    let b_span = tr.open("serve.fenced", NO_REQ);
    let mut fenced = wire::fenced_windows(&mut conn, frames, 0..paced.start, tr)?;
    tr.close(b_span, paced.start as u32);

    let a_span = tr.open("serve.paced", NO_REQ);
    let t_paced = Instant::now();
    let run = wire::open_loop(&mut conn, frames, paced.clone(), &schedule, tr)?;
    conn.fence(paced.end, tr)?;
    g.paced_s = secs(t_paced);
    g.paced_frames = paced.len() as u64;
    tr.close(a_span, paced.len() as u32);

    let b_span = tr.open("serve.fenced", NO_REQ);
    fenced += wire::fenced_windows(&mut conn, frames, paced.end..frames.len(), tr)?;
    tr.close(b_span, (frames.len() - paced.end) as u32);
    tr.close(serve_span, frames.len() as u32);

    let stop_span = tr.open("stop", NO_REQ);
    let stats = gw.stats().snapshot();
    let t_shutdown = Instant::now();
    let mut service = gw.shutdown();
    g.shutdown_s = secs(t_shutdown);
    let flush_span = tr.open("flush_journal", NO_REQ);
    service.flush_journal()?;
    tr.close(flush_span, 1);
    let received = conn.finish();
    drop(service);
    tr.close(stop_span, 1);

    // Phase-A latencies, from each request's due time.
    let lat_ns = received
        .arrivals
        .iter()
        .filter(|(frame, _)| paced.contains(&(*frame as usize)))
        .map(|(frame, arrival)| {
            let due = schedule.due_ns(*frame as usize - paced.start);
            wire::latency_from_due(run.start, due, *arrival)
        })
        .collect();
    let mut problems = Vec::new();
    if received.bad_replies > 0 || stats.bad_frames > 0 {
        problems.push(format!(
            "{} bad replies, {} bad frames",
            received.bad_replies, stats.bad_frames
        ));
    }
    g.lateness_ns = run.request_lateness_ns;
    g.lateness_ns.sort_unstable();
    g.cap_waits = run.cap_waits;
    g.drains = stats.drains;
    g.overloads = stats.overloads;
    Ok(Served {
        setup_s,
        serve_s: fenced.as_secs_f64(),
        serve_events: (frames.len() - paced.len()) as u64,
        lat_ns,
        answers: received.answers,
        shed_locations: stats.shed_locations,
        gateway: Some(g),
        kept: None,
        receiver_tracer: received.tracer,
        problems,
    })
}

/// Runs one pass. `keep_engine` marks the traced pass: an in-process
/// engine is handed back after the audit (the traced run checkpoints it)
/// and a gateway pass probes its idle round trip. `receiver_tracer` is
/// what the gateway client's receiver thread records into; it comes back
/// either way. `verified_sha` is the SHA-256 of a journal `verify_chain`
/// has already accepted this run — a byte-identical journal is not
/// verified again.
pub fn run<S, R>(
    plan: &Plan<'_>,
    tr: &mut S,
    receiver_tracer: R,
    keep_engine: bool,
    verified_sha: Option<&str>,
) -> std::io::Result<(Pass, Option<Engine>, R)>
where
    S: Tracer,
    R: Tracer + Send + 'static,
{
    let pass_span = tr.open("pass", NO_REQ);
    let served = match plan.frames {
        Some(frames) => serve_over_tcp(plan, frames, tr, receiver_tracer, keep_engine)?,
        None => serve_in_process(plan, tr, receiver_tracer, keep_engine)?,
    };
    let Served {
        setup_s,
        serve_s,
        serve_events,
        mut lat_ns,
        answers,
        shed_locations,
        gateway,
        kept,
        receiver_tracer,
        mut problems,
    } = served;
    lat_ns.sort_unstable();
    let p50_us = stats::percentile(&lat_ns, 50.0) as f64 / 1e3;
    let p99_us = stats::percentile(&lat_ns, 99.0) as f64 / 1e3;

    // --- audit the journal file (the journal format's read side) -------
    let audit_span = tr.open("audit", NO_REQ);
    let t_audit = Instant::now();
    let mut replays = 0u64;
    let mut outcome;
    loop {
        let span = tr.open("replay_file", NO_REQ);
        outcome = hka_audit::replay_file(&plan.journal, hka_audit::AuditConfig::default())?;
        tr.close(span, outcome.chain.records as u32);
        replays += 1;
        if outcome.chain.records == 0 || outcome.chain.records * replays >= AUDIT_MIN_RECORDS {
            break;
        }
    }
    let audit_s = secs(t_audit);
    tr.close(audit_span, replays as u32);

    // --- output checks (untimed) ---------------------------------------
    let bytes = std::fs::read(&plan.journal)?;
    let journal_sha = hka_obs::sha256::sha256_hex(&bytes);
    if verified_sha != Some(journal_sha.as_str()) {
        match hka_obs::verify_chain(&bytes[..]) {
            Ok(chain) if chain.records.len() as u64 == outcome.chain.records => {}
            Ok(chain) => problems.push(format!(
                "verify_chain read {} records, replay_file {}",
                chain.records.len(),
                outcome.chain.records
            )),
            Err(e) => problems.push(format!("verify_chain: {e}")),
        }
    }
    if !outcome.chain.verified() {
        problems.push(format!("audit chain: {:?}", outcome.chain.error));
    }
    if !outcome.violations.is_empty() || !outcome.schema_issues.is_empty() {
        problems.push(format!(
            "audit: {} violations, {} schema issues",
            outcome.violations.len(),
            outcome.schema_issues.len()
        ));
    }
    let requests = plan.inputs.requests as u64;
    let served_requests = requests.saturating_sub(answers.overload);
    if outcome.totals.requests() != served_requests {
        problems.push(format!(
            "journal holds {} request decisions, {served_requests} requests were served",
            outcome.totals.requests(),
        ));
    }
    let tally = Tally {
        envelopes: plan.inputs.serve.len() as u64,
        requests,
        missing: requests.saturating_sub(answers.received()),
        answers,
        shed_locations,
        journal_records: outcome.chain.records,
        journal_bytes: bytes.len() as u64,
        journal_sha,
    };
    if tally.answers.received() != requests {
        problems.push(format!(
            "{} responses for {} requests",
            tally.answers.received(),
            requests
        ));
    }
    if tally.failed() > 0 {
        problems.push(format!("{} operations failed", tally.failed()));
    }
    tr.close(pass_span, 1);

    Ok((
        Pass {
            setup_s,
            serve_s,
            serve_events,
            audit_s,
            audit_records: outcome.chain.records * replays,
            users_audited: outcome.users.len() as u64,
            p50_us,
            p99_us,
            latency_samples: lat_ns.len(),
            tally,
            gateway,
            problems,
        },
        kept,
        receiver_tracer,
    ))
}

/// The journal path of a workload under `out_dir`.
pub fn journal_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("journal-{}.jsonl", workload.name()))
}
