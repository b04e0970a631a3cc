//! One run of one workload: generate → warm-up pass → timed passes →
//! (traced run only) traced pass and the per-layer account.

use crate::drive::{self, Answers};
use crate::engine::Engine;
use crate::host::{self, Fingerprint};
use crate::inputs::{Inputs, Spec, Workload, RUN_SECONDS};
use crate::layers::{self, Traced, Values};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pass::{self, Pass, Plan, Tally};
use crate::spans::{self, NoTrace, Recorder, Tracer, NO_REQ};
use crate::stats::{self, BestOf, Better};
use crate::wire::Frames;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest timed passes a run reports from, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Fewest requests a pass must time for its p99 to have ten samples
/// beyond it.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// What to run.
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Inputs seed.
    pub seed: u64,
    /// Scales the workload's constant pass count ([`Spec::passes`] at
    /// [`RUN_SECONDS`]); a traced run makes a third of them and spends
    /// the rest on the traced pass and the account.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced sizes, checks on sample counts off.
    pub smoke: bool,
    /// Where journals, traces and result records go.
    pub out_dir: PathBuf,
}

/// One end-to-end metric of a finished run (in [`END_TO_END`] order).
pub struct Measured {
    /// The reported value (best pass for wall-derived metrics).
    pub value: f64,
    /// Worst pass over best pass (1 for metrics that are not per pass).
    pub spread: f64,
}

/// A finished run.
pub struct Report {
    /// What was run.
    pub workload: Workload,
    /// Inputs seed.
    pub seed: u64,
    /// Timed passes behind the numbers.
    pub passes: usize,
    /// Host fingerprint.
    pub host: Fingerprint,
    /// The ten end-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// The per-layer metrics (traced run only).
    pub per_layer: Option<Values>,
    /// The budget table (traced run only).
    pub budget: Vec<String>,
    /// The decisions and bytes every pass produced.
    pub tally: Tally,
    /// Requests timed per pass.
    pub latency_samples: usize,
    /// Operations attempted over all timed passes.
    pub attempted: u64,
    /// Operations failed over all timed passes.
    pub failed: u64,
    /// Output checks that failed (empty = correct).
    pub problems: Vec<String>,
    /// `harness.generate_s`.
    pub generate_s: f64,
    /// Resident set once the inputs existed, MB: what `peak_rss_mb`
    /// counts from.
    pub inputs_rss_mb: f64,
    /// Open-loop generator lateness, p99 over the best pass, µs
    /// (`gateway_paced`; 0 elsewhere).
    pub sched_lag_p99_us: f64,
    /// Whole-run wall, seconds.
    pub wall_s: f64,
}

fn spec_of(cfg: &Config) -> Spec {
    if cfg.smoke {
        Spec::smoke(cfg.workload)
    } else {
        Spec::full(cfg.workload)
    }
}

/// What is kept of a timed pass: its wall-derived numbers. (The rest —
/// decisions, areas, journal hash — is compared with the warm-up pass's
/// and dropped, so resident memory does not grow with the pass count.)
struct Timed {
    setup_s: f64,
    serve_s: f64,
    events_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    audit_records_per_s: f64,
    failed: u64,
    sched_lag_p99_us: f64,
}

impl Timed {
    fn of(p: &Pass) -> Timed {
        Timed {
            setup_s: p.setup_s,
            serve_s: p.serve_s,
            events_per_s: p.events_per_s(),
            p50_us: p.p50_us,
            p99_us: p.p99_us,
            audit_records_per_s: p.audit_records_per_s(),
            failed: p.tally.failed(),
            sched_lag_p99_us: p.gateway.as_ref().map_or(0.0, |g| {
                stats::percentile(&g.lateness_ns, 99.0) as f64 / 1e3
            }),
        }
    }

    fn get(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "events_per_s" => self.events_per_s,
            "req_p50_us" => self.p50_us,
            "req_p99_us" => self.p99_us,
            "audit_records_per_s" => self.audit_records_per_s,
            other => unreachable!("{other} is not a per-pass metric"),
        }
    }
}

fn aggregate(passes: &[Timed], name: &str, better: Better) -> BestOf {
    let values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
    stats::best_of(&values, better)
}

/// Timed passes of a run: the workload's constant, scaled by `--seconds`.
/// Never by a clock — a change that slows set-up, the audit or the checks
/// must get as many tries at a quiet machine as its parent did.
fn pass_count(cfg: &Config, spec: &Spec) -> usize {
    let full = spec.passes as u64 * cfg.seconds / RUN_SECONDS;
    let passes = if cfg.trace { full / 3 } else { full };
    (passes as usize).max(MIN_PASSES)
}

/// Runs the workload and reports.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let t_run = Instant::now();
    std::fs::create_dir_all(&cfg.out_dir)?;
    let host = Fingerprint::read(&cfg.out_dir);
    let inputs = Inputs::generate(spec_of(cfg), cfg.seed);
    let frames = cfg
        .workload
        .over_tcp()
        .then(|| Frames::encode(&inputs.serve));
    let plan = Plan {
        workload: cfg.workload,
        inputs: &inputs,
        frames: frames.as_ref(),
        journal: pass::journal_path(&cfg.out_dir, cfg.workload),
    };
    let mut problems: Vec<String> = Vec::new();

    // `peak_rss_mb` is the server's: what the generator needed while it
    // ran is forgotten, what the inputs occupy is subtracted, and it is
    // read when the first server of the process has served the stream
    // once (the warm-up pass). Later passes build on whatever the
    // allocator kept of their predecessors, which differs from run to
    // run and would grow with the pass count.
    if !host::reset_peak_rss() {
        eprintln!("cannot reset VmHWM: peak_rss_mb includes the generator's peak");
    }
    let inputs_rss_mb = host::rss_mb();

    // Warm-up: discarded. First passes run ~2x slower from first-touch
    // page faults; its decisions are the reference every pass must repeat.
    let (cold, _, _) = pass::run(&plan, &mut NoTrace, NoTrace, false, None)?;
    problems.extend(cold.problems.iter().map(|p| format!("warm-up pass: {p}")));
    let peak_rss_mb = host::peak_rss_mb() - inputs_rss_mb;

    let mut passes: Vec<Timed> = Vec::new();
    for n in 1..=pass_count(cfg, &inputs.spec) {
        let (p, _, _) = pass::run(
            &plan,
            &mut NoTrace,
            NoTrace,
            false,
            Some(&cold.tally.journal_sha),
        )?;
        problems.extend(p.problems.iter().map(|m| format!("pass {n}: {m}")));
        if p.tally != cold.tally {
            problems.push(format!(
                "pass {n} differs from the warm-up pass: {}",
                describe_difference(&cold.tally, &p.tally)
            ));
        }
        eprintln!(
            "pass {n}: setup {:.3} s, serve {:.3} s ({:.0} ev/s), p50 {:.1} us, p99 {:.1} us, audit {:.0} rec/s",
            p.setup_s,
            p.serve_s,
            p.events_per_s(),
            p.p50_us,
            p.p99_us,
            p.audit_records_per_s()
        );
        passes.push(Timed::of(&p));
    }
    let latency_samples = cold.latency_samples;
    if !cfg.smoke && latency_samples < MIN_P99_SAMPLES {
        problems.push(format!(
            "{latency_samples} timed requests per pass: too few for a p99"
        ));
    }

    // End-to-end metrics.
    let tally = cold.tally.clone();
    if tally.answers.suppressed == 0 || tally.answers.areas.is_empty() {
        problems.push(
            "no request was suppressed or none was generalized: the workload does not \
             exercise the guarantee (is the served day a weekday?)"
                .into(),
        );
    }
    let mut end_to_end = Vec::with_capacity(END_TO_END.len());
    for m in &END_TO_END {
        let (value, spread) = match m.name {
            "ok_share" => (tally.ok_share(), 1.0),
            "suppressed_share" => (tally.suppressed_share(), 1.0),
            "area_p50_m2" => (tally.area_p50_m2(), 1.0),
            "journal_bytes_per_req" => (tally.journal_bytes_per_req(), 1.0),
            "peak_rss_mb" => (peak_rss_mb, 1.0),
            name => {
                let whole = aggregate(&passes, name, m.better);
                (whole.best, whole.spread)
            }
        };
        end_to_end.push(Measured { value, spread });
    }
    let sched_lag_p99_us = passes
        .iter()
        .min_by(|a, b| a.p50_us.total_cmp(&b.p50_us))
        .map_or(0.0, |p| p.sched_lag_p99_us);

    // The traced pass and the per-layer account.
    let mut per_layer = None;
    let mut budget = Vec::new();
    if cfg.trace {
        let (values, lines) = traced(cfg, &plan, &cold, &passes, &mut problems)?;
        per_layer = Some(values);
        budget = lines;
    }

    let attempted = tally.envelopes * passes.len() as u64;
    let failed = passes.iter().map(|p| p.failed).sum();
    Ok(Report {
        workload: cfg.workload,
        seed: cfg.seed,
        passes: passes.len(),
        host,
        end_to_end,
        per_layer,
        budget,
        latency_samples,
        tally,
        attempted,
        failed,
        problems,
        generate_s: inputs.generate_s,
        inputs_rss_mb,
        sched_lag_p99_us,
        wall_s: t_run.elapsed().as_secs_f64(),
    })
}

fn describe_difference(a: &Tally, b: &Tally) -> String {
    let mut d = Vec::new();
    let mut cmp = |name: &str, x: u64, y: u64| {
        if x != y {
            d.push(format!("{name} {x} vs {y}"));
        }
    };
    cmp("forwarded", a.answers.forwarded, b.answers.forwarded);
    cmp("suppressed", a.answers.suppressed, b.answers.suppressed);
    cmp("overload", a.answers.overload, b.answers.overload);
    cmp("rejected", a.answers.rejected, b.answers.rejected);
    cmp("missing", a.missing, b.missing);
    cmp("shed", a.shed_locations, b.shed_locations);
    cmp("journal records", a.journal_records, b.journal_records);
    cmp("journal bytes", a.journal_bytes, b.journal_bytes);
    if a.journal_sha != b.journal_sha {
        d.push("journal SHA-256".into());
    }
    if d.is_empty() {
        d.push("forwarded areas".into());
    }
    d.join(", ")
}

/// The traced part of a traced run: one pass with spans on, the trace
/// file, and the isolated per-layer replays.
fn traced(
    cfg: &Config,
    plan: &Plan<'_>,
    cold: &Pass,
    passes: &[Timed],
    problems: &mut Vec<String>,
) -> std::io::Result<(Values, Vec<String>)> {
    let inputs = plan.inputs;
    let epoch = Instant::now();
    hka_obs::global().reset();
    let mut main = Recorder::new("driver", epoch);
    let (pass, engine, receiver) = pass::run(
        plan,
        &mut main,
        Recorder::new("receiver", epoch),
        true,
        Some(&cold.tally.journal_sha),
    )?;
    let counts = hka_obs::global().snapshot();
    problems.extend(pass.problems.iter().map(|m| format!("traced pass: {m}")));
    if pass.tally != cold.tally {
        problems.push("traced pass differs from the warm-up pass".into());
    }

    // `gateway_paced`: the paced stream again, in-process, on the same
    // fsync-per-record backend — what the wire is compared against.
    let mut twin: Option<(Recorder, Vec<u64>)> = None;
    if plan.frames.is_some() {
        let paced = plan.paced_range();
        let mut rec = Recorder::new("twin", epoch);
        let mut engine = Engine::build(inputs, &cfg.out_dir.join("journal-twin.jsonl"))?;
        drive::preload(engine.svc(), &inputs.warm, &mut NoTrace);
        // What the gateway had served before its paced window opened.
        drive::serve_per_request(
            engine.svc(),
            &inputs.serve[..paced.start],
            &mut NoTrace,
            &mut Answers::default(),
            &mut Vec::new(),
        );
        let mut lat = Vec::new();
        let serve = rec.open("serve", NO_REQ);
        drive::serve_per_request(
            engine.svc(),
            &inputs.serve[paced.clone()],
            &mut rec,
            &mut Answers::default(),
            &mut lat,
        );
        rec.close(serve, paced.len() as u32);
        lat.sort_unstable();
        twin = Some((rec, lat));
        drop(engine);
        std::fs::remove_file(cfg.out_dir.join("journal-twin.jsonl"))?;
    }

    let trace_path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    let mut recorders: Vec<&Recorder> = vec![&main, &receiver];
    if let Some((rec, _)) = &twin {
        recorders.push(rec);
    }
    let spans_written = spans::write_jsonl(&trace_path, &recorders)?;
    eprintln!("trace: {spans_written} spans -> {}", trace_path.display());

    let (mut values, budget) = layers::account(Traced {
        inputs,
        pass: &pass,
        spans: &main,
        twin: twin.as_ref().map(|(rec, lat)| (rec, lat.as_slice())),
        paced: plan.paced_range(),
        counts: &counts,
        engine,
        journal: &plan.journal,
        out_dir: &cfg.out_dir,
    })?;

    // harness.*: what the run says about the instrument itself.
    values.insert("harness.generate_s", inputs.generate_s);
    let best_serve = passes
        .iter()
        .map(|p| p.serve_s)
        .fold(f64::INFINITY, f64::min);
    values.insert("harness.cold_pass_ratio", cold.serve_s / best_serve);
    values.insert(
        "harness.trace_overhead_share",
        (pass.serve_s - best_serve) / best_serve,
    );
    for m in END_TO_END
        .iter()
        .filter(|m| crate::metrics::PER_PASS.contains(&m.name))
    {
        let name = PER_LAYER
            .iter()
            .map(|l| l.name)
            .find(|l| l.strip_prefix("harness.pass_spread.") == Some(m.name))
            .expect("every per-pass metric has a pass_spread layer metric");
        values.insert(name, aggregate(passes, m.name, m.better).spread);
    }
    for l in &PER_LAYER {
        // A layer that is not on this workload's path reads 0.
        values.entry(l.name).or_insert(0.0);
    }
    Ok((values, budget))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_is_a_constant_of_workload_and_seconds() {
        let cfg = |seconds, trace| Config {
            workload: Workload::QueryDense,
            seed: 1,
            seconds,
            trace,
            smoke: false,
            out_dir: PathBuf::new(),
        };
        let spec = Spec::full(Workload::QueryDense);
        assert_eq!(pass_count(&cfg(RUN_SECONDS, false), &spec), spec.passes);
        assert_eq!(
            pass_count(&cfg(RUN_SECONDS / 2, false), &spec),
            spec.passes / 2
        );
        assert_eq!(pass_count(&cfg(RUN_SECONDS, true), &spec), spec.passes / 3);
        assert_eq!(pass_count(&cfg(1, false), &spec), MIN_PASSES);
    }
}
