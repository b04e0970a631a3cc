//! # hka-benchmark
//!
//! The repository's one benchmark. One command runs one named workload
//! from a seed, checks the program's outputs, prints every metric by name
//! and unit, and exits non-zero on any failed check:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload query_dense --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the ten end-to-end ones, with `--trace 1` the per-layer
//! ones. See `README.md` beside this crate for the workloads, the
//! metrics and the measurement discipline.

#![forbid(unsafe_code)]

mod drive;
mod engine;
mod host;
mod inputs;
mod layers;
mod metrics;
mod pass;
mod run;
mod spans;
mod stats;
mod wire;

use hka_obs::Json;
use inputs::Workload;
use metrics::{END_TO_END, PER_LAYER};
use run::{Config, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: hka-benchmark --workload <query_dense|commit_sharded|gateway_paced|\
ingest_large> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

/// The directory the benchmark may write to: `out/` beside its manifest.
fn default_out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("out")
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

fn parse_cli() -> Config {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::QueryDense,
        seed: 1,
        seconds: inputs::RUN_SECONDS,
        trace: false,
        smoke: false,
        out_dir: default_out_dir(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => {
                cfg.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a whole number"));
            }
            "--trace" => {
                cfg.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out_dir = PathBuf::from(value("--out")),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    cfg.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    cfg
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(finite(value))),
        ("unit", Json::from(unit)),
    ])
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn contract_line(report: &Report) -> Json {
    let metrics: BTreeMap<String, Json> = match &report.per_layer {
        Some(values) => PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), metric(values[l.name], l.unit)))
            .collect(),
        None => END_TO_END
            .iter()
            .zip(&report.end_to_end)
            .map(|(m, got)| (m.name.to_string(), metric(got.value, m.unit)))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(report.problems.is_empty())),
        ("attempted", Json::from(report.attempted.max(1))),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The full result record: fingerprint, pass count, every metric with its
/// spread and bound, the counts behind the shares.
fn record(report: &Report, cfg: &Config) -> Json {
    let end_to_end: BTreeMap<String, Json> = END_TO_END
        .iter()
        .zip(&report.end_to_end)
        .map(|(m, got)| {
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(finite(got.value))),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                    ("pass_spread", Json::Num(finite(got.spread))),
                ]),
            )
        })
        .collect();
    let per_layer = report.per_layer.as_ref().map_or(Json::Null, |values| {
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|l| {
                    let entry = Json::obj([
                        ("value", Json::Num(finite(values[l.name]))),
                        ("unit", Json::from(l.unit)),
                        ("better", Json::from(l.better.as_str())),
                    ]);
                    (l.name.to_string(), entry)
                })
                .collect(),
        )
    });
    let t = &report.tally;
    Json::obj([
        ("workload", Json::from(report.workload.name())),
        ("seed", Json::from(report.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("traced", Json::Bool(cfg.trace)),
        ("passes", Json::from(report.passes as u64)),
        ("host", report.host.to_json()),
        ("wall_s", Json::Num(report.wall_s)),
        ("generate_s", Json::Num(report.generate_s)),
        ("inputs_rss_mb", Json::Num(report.inputs_rss_mb)),
        ("sched_lag_p99_us", Json::Num(report.sched_lag_p99_us)),
        (
            "latency_samples_per_pass",
            Json::from(report.latency_samples as u64),
        ),
        (
            "counts",
            Json::obj([
                ("envelopes", Json::from(t.envelopes)),
                ("requests", Json::from(t.requests)),
                ("forwarded", Json::from(t.answers.forwarded)),
                ("generalized", Json::from(t.answers.areas.len() as u64)),
                ("suppressed", Json::from(t.answers.suppressed)),
                ("overload", Json::from(t.answers.overload)),
                ("rejected", Json::from(t.answers.rejected)),
                ("missing", Json::from(t.missing)),
                ("shed_locations", Json::from(t.shed_locations)),
                ("journal_records", Json::from(t.journal_records)),
                ("journal_bytes", Json::from(t.journal_bytes)),
                ("journal_sha256", Json::from(t.journal_sha.as_str())),
            ]),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", per_layer),
        (
            "problems",
            Json::Arr(
                report
                    .problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
    ])
}

fn print_human(report: &Report, cfg: &Config) {
    let h = &report.host;
    println!(
        "== {} seed {} | {} timed passes in {:.1} s{}{}",
        report.workload.name(),
        report.seed,
        report.passes,
        report.wall_s,
        if cfg.smoke { " | smoke sizes" } else { "" },
        if cfg.trace { " | traced" } else { "" },
    );
    println!(
        "   host: {} cores, kernel {}, journal on {}, {} build",
        h.cores, h.kernel, h.journal_fs, h.profile
    );
    let t = &report.tally;
    println!(
        "   per pass: {} envelopes, {} requests ({} forwarded, {} generalized, {} suppressed), \
         {} journal records, {} latency samples; inputs resident: {:.1} MB",
        t.envelopes,
        t.requests,
        t.answers.forwarded,
        t.answers.areas.len(),
        t.answers.suppressed,
        t.journal_records,
        report.latency_samples,
        report.inputs_rss_mb,
    );
    println!(
        "   {:<24} {:>16} {:<6} {:>7} {:>11}",
        "end-to-end metric", "best pass", "unit", "bound", "worst/best"
    );
    for (m, got) in END_TO_END.iter().zip(&report.end_to_end) {
        println!(
            "   {:<24} {:>16.4} {:<6} {:>6.1}% {:>11.3}",
            m.name,
            got.value,
            m.unit,
            100.0 * m.bound,
            got.spread
        );
    }
    if report.workload.over_tcp() {
        println!(
            "   open-loop generator lateness p99: {:.1} us",
            report.sched_lag_p99_us
        );
    }
    if let Some(values) = &report.per_layer {
        println!("   {:<46} {:>16} unit", "per-layer metric", "value");
        for l in &PER_LAYER {
            println!("   {:<46} {:>16.4} {}", l.name, values[l.name], l.unit);
        }
        println!("   budget (isolated cost x call count against the traced serve wall):");
        for line in &report.budget {
            println!("   {line}");
        }
    }
    for p in &report.problems {
        println!("   FAILED CHECK: {p}");
    }
}

fn main() {
    let cfg = parse_cli();
    let report = run::run(&cfg).unwrap_or_else(|e| {
        eprintln!("{}: {e}", cfg.workload.name());
        std::process::exit(1);
    });
    print_human(&report, &cfg);
    let path = cfg.out_dir.join(format!(
        "result-{}{}.json",
        cfg.workload.name(),
        if cfg.trace { "-traced" } else { "" }
    ));
    if let Err(e) = std::fs::write(&path, format!("{}\n", record(&report, &cfg))) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("   record: {}", path.display());
    println!("{}", contract_line(&report));
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}
