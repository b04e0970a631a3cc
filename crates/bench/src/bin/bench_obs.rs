//! **Continuous benchmark: tracing overhead on the request path.**
//!
//! Drives one seeded protected-city workload through a `TrustedServer`
//! on a group-commit journal (every request traced under its own root) under
//! three observability configurations:
//!
//! 1. **off** — trace collection disabled (the default). Trace ids are
//!    still minted (they are unconditional, so journal bytes cannot
//!    depend on collection state), but no span records are stored.
//! 2. **ring** — collection enabled into the bounded in-memory
//!    `TraceRing`; records are drained after the timed region.
//! 3. **ring_export** — collection enabled *and* the timed region
//!    includes drain + Chrome-trace rendering + validation + writing
//!    the artifact: the full `--trace-export` cost.
//!
//! Writes `BENCH_obs.json` with the throughput of each configuration
//! and the headline `overhead_ring` (ring wall vs tracing-off wall,
//! best-of-trials). The bench **fails** (non-zero exit) if:
//!
//! * ring-only overhead is ≥ 5% — the always-on tracing budget;
//! * the journals written under the three configurations are not
//!   byte-identical — collection state leaked into the decision record;
//! * the exported trace fails `validate_chrome_trace`, or the ring
//!   dropped spans (the capacity below is sized so a drop means the
//!   instrumentation got noisier, not that the workload grew).
//!
//! ```text
//! cargo run --release -p hka-bench --bin bench_obs -- [--out DIR]
//! ```

use std::time::Instant;

use hka_anonymity::ServiceId;
use hka_core::{PrivacyLevel, PrivacyParams, RiskAction, Tolerance, TrustedServer, TsConfig};
use hka_geo::MINUTE;
use hka_lbqid::Lbqid;
use hka_mobility::{CityConfig, EventKind, World, WorldConfig, ANCHOR_SERVICE, BACKGROUND_SERVICE};
use hka_obs::{Json, TraceClock};
use hka_trajectory::UserId;

const SEED: u64 = 1;
const DAYS: i64 = 4;
const COMMUTERS: usize = 12;
const ROAMERS: usize = 120;
const K: usize = 5;
/// Sized well above the span volume of this workload so `ring` and
/// `ring_export` never drop: a drop would orphan children and fail the
/// export validation gate by design.
const RING_CAPACITY: usize = 1 << 16;
const TRIALS: usize = 15;
const MAX_RING_OVERHEAD: f64 = 0.05;

fn build_world() -> World {
    World::generate(&WorldConfig {
        seed: SEED,
        days: DAYS,
        n_commuters: COMMUTERS,
        n_roamers: ROAMERS,
        n_poi_regulars: ROAMERS / 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn setup(world: &World) -> TrustedServer {
    let commuters: Vec<UserId> = world.commuters().collect();
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
    for a in &world.agents {
        let level = if commuters.contains(&a.user) {
            PrivacyLevel::Custom(PrivacyParams {
                k: K,
                theta: 0.5,
                k_init: 2 * K,
                k_decrement: 1,
                on_risk: RiskAction::Forward,
            })
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(a.user, level);
    }
    for &u in &commuters {
        ts.add_lbqid(
            u,
            Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
        );
    }
    // Background traffic is exact-forward for everyone, protected users
    // included through an explicit override: those requests are traced
    // too, each under its own root.
    for &u in &commuters {
        ts.set_service_privacy(u, ServiceId(BACKGROUND_SERVICE), PrivacyLevel::Off)
            .expect("registered");
    }
    ts
}

/// Runs the workload once against a fresh server journaling to `path`;
/// returns the wall time of the event loop (plus whatever `after` does,
/// which is timed too — the export configs fold their rendering cost in).
fn run_once(
    world: &World,
    path: &std::path::Path,
    after: impl FnOnce(&mut Vec<hka_obs::SpanRecord>),
) -> u64 {
    hka_obs::global().reset();
    let mut ts = setup(world);
    ts.attach_group_journal(hka_obs::Journal::new(Box::new(
        std::fs::File::create(path).expect("create journal"),
    )
        as Box<dyn hka_obs::DurableSink>));
    let t0 = Instant::now();
    for e in &world.events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let _ = ts.try_handle_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.flush_journal().expect("flush");
    let mut records = if hka_obs::trace::enabled() {
        hka_obs::trace::disable();
        hka_obs::trace::drain()
    } else {
        Vec::new()
    };
    after(&mut records);
    t0.elapsed().as_nanos() as u64
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
                eprintln!("usage: bench_obs [--out DIR] (got '{other}')");
                std::process::exit(2);
            }
        }
    }
    let scratch = std::env::temp_dir().join(format!("hka-bench-obs-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let world = build_world();
    let events = world.events.len();
    let requests = world
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Request { .. }))
        .count();

    // Trials interleave the three configurations (off, ring, ring+export,
    // off, ring, ...) and each scores its best wall: host-load drift over
    // the measurement window then lands on every configuration alike
    // instead of biasing whichever block ran during the quiet stretch.
    let off_path = scratch.join("off.jsonl");
    let ring_path = scratch.join("ring.jsonl");
    let export_path = scratch.join("export.jsonl");
    let artifact = scratch.join("trace.json");
    let mut off_ns = u64::MAX;
    let mut ring_ns = u64::MAX;
    let mut export_ns = u64::MAX;
    let mut spans_captured = 0u64;
    let mut ring_dropped = 0u64;
    let mut export_summary = (0u64, 0u64, 0u64);
    for _ in 0..TRIALS {
        // --- off: collection disabled (ids still minted). ---------------
        hka_obs::trace::disable();
        hka_obs::trace::drain();
        off_ns = off_ns.min(run_once(&world, &off_path, |_| {}));

        // --- ring: collection on; the drain is inside the timed region
        // (it is what `--trace-export` pays before rendering). -----------
        hka_obs::trace::enable(RING_CAPACITY);
        let ns = run_once(&world, &ring_path, |records| {
            spans_captured = records.len() as u64;
        });
        ring_dropped = hka_obs::global().snapshot().counter("obs.trace_dropped");
        ring_ns = ring_ns.min(ns);

        // --- ring_export: collection on + render + validate + write. ----
        hka_obs::trace::enable(RING_CAPACITY);
        export_ns = export_ns.min(run_once(&world, &export_path, |records| {
            let doc = hka_obs::chrome_trace(records, TraceClock::Logical);
            let check = hka_obs::validate_chrome_trace(&doc).unwrap_or_else(|e| {
                eprintln!("FAIL: exported trace invalid: {e}");
                std::process::exit(1);
            });
            export_summary = (check.spans as u64, check.roots as u64, check.tracks as u64);
            std::fs::write(&artifact, doc.to_string() + "\n").expect("write artifact");
        }));
    }

    // --- Gates. ---------------------------------------------------------
    let off_bytes = std::fs::read(&off_path).expect("reread off journal");
    let ring_bytes = std::fs::read(&ring_path).expect("reread ring journal");
    let export_bytes = std::fs::read(&export_path).expect("reread export journal");
    if off_bytes != ring_bytes || off_bytes != export_bytes {
        eprintln!("FAIL: journals differ across tracing configurations");
        std::process::exit(1);
    }
    if ring_dropped > 0 {
        eprintln!("FAIL: trace ring dropped {ring_dropped} spans (raise RING_CAPACITY)");
        std::process::exit(1);
    }
    let overhead_ring = ring_ns as f64 / off_ns as f64 - 1.0;
    let overhead_export = export_ns as f64 / off_ns as f64 - 1.0;
    let artifact_bytes = std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0);

    let config = |name: &str, ns: u64, overhead: Option<f64>| {
        let mut obj = vec![
            ("name".to_string(), Json::from(name)),
            ("wall_ns".to_string(), Json::from(ns)),
            (
                "events_per_sec".to_string(),
                Json::Num(events as f64 / (ns as f64 / 1e9)),
            ),
        ];
        if let Some(o) = overhead {
            obj.push(("overhead_vs_off".to_string(), Json::Num(o)));
        }
        Json::Obj(obj.into_iter().collect())
    };
    let json = Json::obj([
        ("bench", Json::from("obs")),
        (
            "scenario",
            Json::obj([
                ("seed", Json::from(SEED)),
                ("days", Json::Int(DAYS)),
                ("commuters", Json::from(COMMUTERS as u64)),
                ("roamers", Json::from(ROAMERS as u64)),
                ("k", Json::from(K as u64)),
            ]),
        ),
        ("events", Json::from(events as u64)),
        ("requests", Json::from(requests as u64)),
        ("trials", Json::from(TRIALS as u64)),
        ("ring_capacity", Json::from(RING_CAPACITY as u64)),
        (
            "configs",
            Json::Arr(vec![
                config("off", off_ns, None),
                config("ring", ring_ns, Some(overhead_ring)),
                config("ring_export", export_ns, Some(overhead_export)),
            ]),
        ),
        ("spans_captured", Json::from(spans_captured)),
        ("trace_dropped", Json::from(ring_dropped)),
        (
            "export",
            Json::obj([
                ("spans", Json::from(export_summary.0)),
                ("roots", Json::from(export_summary.1)),
                ("tracks", Json::from(export_summary.2)),
                ("artifact_bytes", Json::from(artifact_bytes)),
            ]),
        ),
        ("journals_identical", Json::Bool(true)),
        ("overhead_ring", Json::Num(overhead_ring)),
        ("overhead_ring_export", Json::Num(overhead_export)),
        (
            "gate",
            Json::from(
                "overhead_ring = ring wall / tracing-off wall - 1, best-of-trials on the same \
                 seeded workload; must stay under 0.05. ring_export additionally folds drain + \
                 Chrome-trace rendering + validation + artifact write into the timed region, so \
                 it reports the full --trace-export cost and is informational. Journals must be \
                 byte-identical across all three configurations.",
            ),
        ),
    ]);

    let path = format!("{out_dir}/BENCH_obs.json");
    std::fs::write(&path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");
    println!(
        "off {:.1} ms | ring {:.1} ms ({:+.2}%) | ring+export {:.1} ms ({:+.2}%) | {} spans",
        off_ns as f64 / 1e6,
        ring_ns as f64 / 1e6,
        overhead_ring * 100.0,
        export_ns as f64 / 1e6,
        overhead_export * 100.0,
        spans_captured,
    );
    let _ = std::fs::remove_dir_all(&scratch);

    if overhead_ring >= MAX_RING_OVERHEAD {
        eprintln!(
            "FAIL: ring-only tracing overhead is {:.2}% (>= {:.0}%)",
            overhead_ring * 100.0,
            MAX_RING_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
}
