//! The per-layer account of the traced run.
//!
//! After the traced pass, the pass's own inputs — its frames, points,
//! request points, journal records — are replayed against each layer's
//! public API in isolation, which gives a per-call cost with nothing
//! else on the clock. Counts (and only counts) come from the program's
//! `metrics_snapshot()`. Cost × count, summed over the layers on the
//! serve path, is set against the traced serve wall; what is left over
//! is `harness.unattributed_share`. On `gateway_paced` the wall is the
//! closed-loop phase B's and the counts are phase B's share: in the
//! open-loop phase A the sender sleeps on its schedule, and idle time is
//! not cost.

use crate::engine::Engine;
use crate::inputs::{Backend, Inputs};
use crate::pass::Pass;
use crate::spans::Recorder;
use crate::stats;
use hka_anonymity::{Linker, MsgId, Pseudonym, ServiceId, SpRequest, TrackerLinker, TrackerParams};
use hka_core::{
    algorithm1_first, parse_wire_msg, parse_wire_reply, Checkpointer, RequestEnvelope, Tolerance,
    TrustedServer, TsConfig,
};
use hka_geo::{Rect, StBox, StPoint, TimeInterval, DAY, MINUTE};
use hka_lbqid::{Lbqid, Monitor};
use hka_mobility::ANCHOR_SERVICE;
use hka_obs::{JournalRecord, Json, MetricsSnapshot};
use hka_shard::ShardedTs;
use hka_trajectory::{CompactionPolicy, GridIndexConfig, IndexBackend, TrajectoryStore, UserId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Most items one isolated sweep touches.
const SWEEP: usize = 50_000;
/// Most request points the query sweeps (kNN, crossing, Algorithm 1) use.
const QUERY_SWEEP: usize = 2_000;
/// fsyncs timed for `obs.journal.fsync_us`.
const FSYNC_PROBES: usize = 300;

/// The per-layer values, by contract name.
pub type Values = BTreeMap<&'static str, f64>;

/// What the traced run hands the account.
pub struct Traced<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// The traced pass.
    pub pass: &'a Pass,
    /// The spans of the thread that drove the traced pass.
    pub spans: &'a Recorder,
    /// `gateway_paced`: spans and latencies of the same paced stream
    /// served in-process on the same backend.
    pub twin: Option<(&'a Recorder, &'a [u64])>,
    /// `gateway_paced`: the frames offered open loop (phase A); empty
    /// elsewhere.
    pub paced: std::ops::Range<usize>,
    /// Counters of the traced pass (the registry was reset before it).
    pub counts: &'a MetricsSnapshot,
    /// The traced pass's engine, still holding its journal (in-process
    /// workloads).
    pub engine: Option<Engine>,
    /// The traced pass's journal file.
    pub journal: &'a Path,
    /// Scratch directory (the benchmark's `out/`).
    pub out_dir: &'a Path,
}

/// Nanoseconds per item of one sweep over `n` items.
fn per_item_ns(n: usize, sweep: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    sweep();
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn mean_us(total_ns: u64, calls: u64) -> f64 {
    total_ns as f64 / calls.max(1) as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hist_count(counts: &MetricsSnapshot, name: &str) -> u64 {
    counts.histogram(name).map_or(0, |h| h.count)
}

/// The layers' isolated costs and counts, and the budget table's lines.
pub fn account(t: Traced<'_>) -> std::io::Result<(Values, Vec<String>)> {
    let mut v = Values::new();
    let inputs = t.inputs;
    let requests = inputs.requests as u64;

    let protected: HashSet<UserId> = inputs.protected.iter().map(|p| p.user).collect();
    let serve_requests: Vec<&RequestEnvelope> =
        inputs.serve.iter().filter(|e| e.is_request()).collect();
    let protected_points: Vec<(UserId, StPoint)> = serve_requests
        .iter()
        .filter(|e| protected.contains(&e.user))
        .map(|e| (e.user, e.at))
        .collect();

    // --- core.envelope --------------------------------------------------
    let sample = &inputs.serve[..inputs.serve.len().min(SWEEP)];
    let mut wire_bytes = 0usize;
    v.insert(
        "core.envelope.encode_ns",
        per_item_ns(sample.len(), || {
            for env in sample {
                wire_bytes += black_box(env.to_wire()).len() + 1;
            }
        }),
    );
    v.insert(
        "core.envelope.bytes_per_frame",
        wire_bytes as f64 / sample.len().max(1) as f64,
    );
    let loc_lines: Vec<String> = sample
        .iter()
        .filter(|e| !e.is_request())
        .map(|e| e.to_wire())
        .collect();
    let req_lines: Vec<String> = serve_requests
        .iter()
        .take(SWEEP)
        .map(|e| e.to_wire())
        .collect();
    let reply_lines: Vec<String> = t
        .pass
        .tally
        .answers
        .sample
        .iter()
        .map(|r| r.to_wire())
        .collect();
    v.insert(
        "core.envelope.decode_loc_ns",
        per_item_ns(loc_lines.len(), || {
            for l in &loc_lines {
                black_box(parse_wire_msg(l).is_ok());
            }
        }),
    );
    v.insert(
        "core.envelope.decode_req_ns",
        per_item_ns(req_lines.len(), || {
            for l in &req_lines {
                black_box(parse_wire_msg(l).is_ok());
            }
        }),
    );
    v.insert(
        "core.envelope.reply_decode_ns",
        per_item_ns(reply_lines.len(), || {
            for l in &reply_lines {
                black_box(parse_wire_reply(l).is_ok());
            }
        }),
    );

    // --- trajectory -----------------------------------------------------
    // Every location the pass ingested, warm history first: the isolated
    // store and index end up holding what the server held.
    let points: Vec<(UserId, StPoint)> = inputs
        .warm
        .iter()
        .chain(inputs.serve.iter())
        .map(|e| (e.user, e.at))
        .collect();
    let mut store = TrajectoryStore::new();
    for &u in &inputs.users {
        store.ensure_user(u);
    }
    v.insert(
        "trajectory.store_record_ns",
        per_item_ns(points.len(), || {
            for (u, p) in &points {
                // Requests repeat their location report's point.
                store.record_clamped(*u, *p);
            }
        }),
    );
    let grid = GridIndexConfig::default();
    let mut index = IndexBackend::default().make(grid);
    v.insert(
        "trajectory.index_insert_ns",
        per_item_ns(points.len(), || {
            for (u, p) in &points {
                index.insert(*u, *p);
            }
        }),
    );
    drop(index);
    let t0 = Instant::now();
    let index = IndexBackend::default().build(&store, grid);
    v.insert("trajectory.index_build_s", t0.elapsed().as_secs_f64());
    v.insert("trajectory.points_resident", store.total_points() as f64);

    let queries = &protected_points[..protected_points.len().min(QUERY_SWEEP)];
    let k = inputs.spec.k;
    let probes_before = hka_obs::global().counter("index.probes").get();
    v.insert(
        "trajectory.knn_us",
        per_item_ns(queries.len(), || {
            for (u, p) in queries {
                black_box(index.k_nearest_users(p, k, Some(*u)));
            }
        }) / 1e3,
    );
    let probes = hka_obs::global().counter("index.probes").get() - probes_before;
    v.insert(
        "trajectory.index_probes_per_query",
        ratio(probes, queries.len() as u64),
    );
    v.insert(
        "trajectory.crossing_us",
        per_item_ns(queries.len(), || {
            for (_, p) in queries {
                let window = StBox::new(
                    Rect::from_bounds(
                        p.pos.x - 150.0,
                        p.pos.y - 150.0,
                        p.pos.x + 150.0,
                        p.pos.y + 150.0,
                    ),
                    TimeInterval::new(p.t - 5 * MINUTE, p.t + 5 * MINUTE),
                );
                black_box(index.users_crossing(&window));
            }
        }) / 1e3,
    );

    // --- core.generalize (over the same index and request points) -------
    let tolerance = Tolerance::new(inputs.spec.anchor_area_m2, 10 * MINUTE);
    let mut clamped = 0u64;
    v.insert(
        "core.generalize.algo1_first_us",
        per_item_ns(queries.len(), || {
            for (u, p) in queries {
                let g = algorithm1_first(&*index, p, *u, k, &tolerance);
                clamped += u64::from(!g.hk_anonymity);
            }
        }) / 1e3,
    );
    v.insert(
        "core.generalize.tolerance_fail_share",
        ratio(clamped, queries.len() as u64),
    );
    let algo1_calls = hist_count(t.counts, "algo1.generalize");
    v.insert(
        "core.generalize.algo1_iterations_per_call",
        ratio(t.counts.counter("algo1.iterations"), algo1_calls),
    );
    drop(index);

    // Compaction folds the isolated store last: it is destructive.
    let now = points.last().map_or(hka_geo::TimeSec(0), |(_, p)| p.t);
    let before = store.total_points();
    let t0 = Instant::now();
    let folded = store.compact(
        now,
        &CompactionPolicy::new(DAY / 2, hka_granules::Granularity::Hours),
    );
    v.insert("trajectory.compact_ms", ms(t0));
    v.insert(
        "trajectory.compact_retained_share",
        ratio(folded.points_after, before as u64),
    );
    drop(store);

    // --- lbqid -----------------------------------------------------------
    let mut monitors: HashMap<UserId, Monitor> = inputs
        .protected
        .iter()
        .map(|p| {
            (
                p.user,
                Monitor::new(Lbqid::example_commute(p.home, p.office)),
            )
        })
        .collect();
    let mut matched = 0u64;
    v.insert(
        "lbqid.observe_ns",
        per_item_ns(protected_points.len(), || {
            for (u, p) in &protected_points {
                let m = monitors.get_mut(u).expect("protected users have a monitor");
                matched += u64::from(m.observe(*p).is_some());
            }
        }),
    );
    v.insert(
        "lbqid.match_share",
        ratio(matched, protected_points.len() as u64),
    );

    // --- anonymity -------------------------------------------------------
    let sp: Vec<SpRequest> = serve_requests
        .iter()
        .take(SWEEP)
        .enumerate()
        .map(|(i, e)| {
            SpRequest::new(
                MsgId(i as u64),
                Pseudonym(e.user.0),
                StBox::point(e.at),
                ServiceId(ANCHOR_SERVICE),
            )
        })
        .collect();
    let linker = TrackerLinker::new(TrackerParams::default());
    v.insert(
        "anonymity.link_check_us",
        per_item_ns(sp.len().saturating_sub(1), || {
            for pair in sp.windows(2) {
                black_box(linker.link(&pair[0], &pair[1]));
            }
        }) / 1e3,
    );

    // --- counts from the program's own registry ---------------------------
    let unlinked = t.counts.counter("mixzone.unlinked");
    let infeasible = t.counts.counter("mixzone.infeasible");
    v.insert(
        "core.mixzone.unlink_share",
        ratio(unlinked, unlinked + infeasible),
    );
    v.insert(
        "core.server.sync_flushes_per_req",
        ratio(t.counts.counter("ts.journal_sync_flushes"), requests),
    );

    // --- core.server: from the harness's spans around the seam -----------
    // `gateway_paced` reads them off its in-process twin.
    let seam = t.twin.map_or(t.spans, |(rec, _)| rec);
    let (loc_ns, loc_calls) = seam.total("submit.locations");
    v.insert(
        "core.server.location_ns",
        loc_ns as f64 / loc_calls.max(1) as f64,
    );
    let mut exact = Vec::new();
    let mut guarded = Vec::new();
    let protected_req: HashSet<u64> = serve_requests
        .iter()
        .filter(|e| protected.contains(&e.user))
        .map(|e| e.req_id)
        .collect();
    for s in seam.spans().iter().filter(|s| s.name == "request") {
        if protected_req.contains(&s.req) {
            guarded.push(s.ns());
        } else {
            exact.push(s.ns());
        }
    }
    exact.sort_unstable();
    guarded.sort_unstable();
    v.insert(
        "core.server.request_exact_us",
        stats::percentile(&exact, 50.0) as f64 / 1e3,
    );
    v.insert(
        "core.server.request_protected_us",
        stats::percentile(&guarded, 50.0) as f64 / 1e3,
    );
    let (drain_ns, drains) = seam.total("drain");
    v.insert("core.server.drain_us", mean_us(drain_ns, drains));
    let (request_ns, _) = seam.total("request");
    let (serve_ns, _) = seam.total("serve");
    v.insert(
        "core.server.busy_share_requests",
        ratio(request_ns, serve_ns),
    );

    // --- obs.journal / obs.sha256 / audit: the pass's own journal ---------
    let bytes = std::fs::read(t.journal)?;
    let text = String::from_utf8_lossy(&bytes);
    let lines: Vec<&str> = text.lines().take(SWEEP).collect();
    let mut records: Vec<JournalRecord> = Vec::with_capacity(lines.len());
    v.insert(
        "obs.journal.parse_line_ns",
        per_item_ns(lines.len(), || {
            for l in &lines {
                if let Ok(r) = JournalRecord::parse_line(l) {
                    records.push(r);
                }
            }
        }),
    );
    v.insert(
        "obs.journal.bytes_per_record",
        bytes.len() as f64 / t.pass.tally.journal_records.max(1) as f64,
    );
    let mut canonical: Vec<String> = Vec::with_capacity(records.len());
    v.insert(
        "obs.journal.payload_encode_ns",
        per_item_ns(records.len(), || {
            for r in &records {
                canonical.push(r.payload.to_string());
            }
        }),
    );
    v.insert(
        "obs.journal.hash_ns",
        per_item_ns(records.len(), || {
            for (r, c) in records.iter().zip(&canonical) {
                black_box(hka_obs::event_hash(r.seq, &r.kind, c, &r.prev));
            }
        }),
    );
    let items: Vec<(String, Json)> = records
        .iter()
        .map(|r| (r.kind.clone(), r.payload.clone()))
        .collect();
    let mut journal = hka_obs::Journal::new(Vec::with_capacity(bytes.len()));
    let owned = items.clone();
    v.insert(
        "obs.journal.append_mem_ns",
        per_item_ns(owned.len(), || {
            for (kind, payload) in owned {
                journal.append(&kind, payload).expect("Vec sink");
            }
        }),
    );
    let mut journal = hka_obs::Journal::new(Vec::with_capacity(bytes.len()));
    v.insert(
        "obs.journal.append_batch_mem_ns",
        per_item_ns(items.len(), || {
            for chunk in items.chunks(64) {
                journal.append_batch(chunk).expect("Vec sink");
            }
        }),
    );
    drop(journal);

    let probe_path = t.out_dir.join("fsync-probe.tmp");
    {
        let mut f = std::fs::File::create(&probe_path)?;
        let line = [b'x'; 420];
        let t0 = Instant::now();
        for _ in 0..FSYNC_PROBES {
            f.write_all(&line)?;
            f.sync_data()?;
        }
        v.insert(
            "obs.journal.fsync_us",
            t0.elapsed().as_nanos() as f64 / FSYNC_PROBES as f64 / 1e3,
        );
    }
    std::fs::remove_file(&probe_path)?;

    let t0 = Instant::now();
    let chain = hka_obs::verify_chain(&bytes[..]).map(|c| c.records.len());
    v.insert(
        "obs.journal.verify_records_per_s",
        chain.unwrap_or(0) as f64 / t0.elapsed().as_secs_f64(),
    );
    let copy = t.out_dir.join("recover-probe.tmp");
    std::fs::write(&copy, &bytes)?;
    let t0 = Instant::now();
    let recovered = hka_obs::recover(&copy);
    v.insert("obs.journal.recover_ms", ms(t0));
    drop(recovered);
    std::fs::remove_file(&copy)?;

    let t0 = Instant::now();
    let mut hashed = 0usize;
    while hashed < 8 << 20 {
        black_box(hka_obs::sha256::sha256(&bytes));
        hashed += bytes.len().max(1);
    }
    v.insert(
        "obs.sha256.mb_per_s",
        hashed as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    );

    let mut auditor = hka_audit::Auditor::new(hka_audit::AuditConfig::default());
    v.insert(
        "audit.ingest_ns_per_record",
        per_item_ns(records.len(), || {
            for r in &records {
                auditor.ingest(r);
            }
        }),
    );
    drop(auditor);
    let t0 = Instant::now();
    let mut tail = hka_audit::TailAuditor::open(t.journal, hka_audit::AuditConfig::default());
    let mut tailed = 0u64;
    loop {
        let poll = tail.poll();
        tailed += poll.new_records;
        if poll.new_records == 0 {
            break;
        }
    }
    v.insert(
        "audit.tail_poll_records_per_s",
        tailed as f64 / t0.elapsed().as_secs_f64(),
    );
    v.insert("audit.users_audited", t.pass.users_audited as f64);

    // --- shard: spans around the seam + the program's counters ------------
    if let Backend::Sharded(_) = inputs.spec.backend {
        let (batch_ns, batches) = t.spans.total("submit_batch");
        v.insert("shard.submit_batch_us", mean_us(batch_ns, batches));
        let (drain_ns, drains) = t.spans.total("drain");
        v.insert("shard.drain_us", mean_us(drain_ns, drains));
        v.insert(
            "shard.commits_per_req",
            ratio(t.counts.counter("ts.journal_commits"), requests),
        );
        v.insert(
            "shard.batched_request_share",
            ratio(t.counts.counter("ts.batched_requests"), requests),
        );
        let hits = t.counts.counter("union.memo_hits");
        v.insert(
            "shard.union_memo_hit_share",
            ratio(hits, hits + hist_count(t.counts, "index.query")),
        );
    }

    // --- gateway -----------------------------------------------------------
    if let Some(g) = &t.pass.gateway {
        v.insert(
            "gateway.rtt_floor_us",
            stats::percentile(&g.rtt_ns, 50.0) as f64 / 1e3,
        );
        let twin_p50 = t
            .twin
            .map_or(0.0, |(_, lat)| stats::percentile(lat, 50.0) as f64 / 1e3);
        v.insert("gateway.wire_overhead_p50_us", t.pass.p50_us - twin_p50);
        v.insert(
            "gateway.frames_per_drain",
            ratio(t.pass.tally.envelopes, g.drains),
        );
        v.insert("gateway.overloads", g.overloads as f64);
        v.insert("gateway.shed_locations", t.pass.tally.shed_locations as f64);
        v.insert("gateway.spawn_ms", g.spawn_s * 1e3);
        v.insert("gateway.shutdown_ms", g.shutdown_s * 1e3);
        v.insert(
            "harness.sched_lag_p99_us",
            stats::percentile(&g.lateness_ns, 99.0) as f64 / 1e3,
        );
    }

    // --- core.checkpoint + audit.resume_ms: last, the anchor record this
    //     appends changes the journal file --------------------------------
    if let Some(mut engine) = t.engine {
        let dir = t.out_dir.join("checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let mut cp = Checkpointer::new(t.journal, &dir);
        let t0 = Instant::now();
        let receipt = match &mut engine {
            Engine::Seq(ts) => cp.checkpoint(ts, false)?,
            Engine::Sharded(ts) => {
                v.insert("shard.epochs", ts.epoch() as f64);
                v.insert(
                    "shard.events_per_epoch",
                    ratio(points.len() as u64, ts.epoch()),
                );
                ts.write_checkpoint(&mut cp)?
            }
        };
        v.insert("core.checkpoint.write_ms", ms(t0));
        v.insert("core.checkpoint.snapshot_bytes", receipt.bytes as f64);
        let t0 = Instant::now();
        let (snapshot, _hash) = hka_obs::Snapshot::read(&receipt.path)?;
        v.insert("core.checkpoint.parse_ms", ms(t0));
        let t0 = Instant::now();
        let restored = match inputs.spec.backend {
            Backend::Sharded(n) => ShardedTs::restore(TsConfig::default(), n, &snapshot).map(drop),
            _ => TrustedServer::restore(TsConfig::default(), &snapshot).map(drop),
        };
        v.insert("core.checkpoint.restore_ms", ms(t0));
        restored.map_err(std::io::Error::other)?;
        drop(engine);
        let t0 = Instant::now();
        let resumed = hka_audit::resume_from_snapshot(t.journal, &receipt.path)?;
        v.insert("audit.resume_ms", ms(t0));
        if !resumed.ok() {
            return Err(std::io::Error::other(
                "audit resumed from the checkpoint is not clean",
            ));
        }
        std::fs::remove_dir_all(&dir)?;
    }

    // --- the budget: isolated cost × count against the traced serve wall --
    // Over TCP only phase B is budgeted (see the module comment): its
    // frames are counted exactly, and what the registry counted over the
    // whole pass is taken in proportion to phase B's requests.
    let over_tcp = t.pass.gateway.is_some();
    let budgeted = |e: &RequestEnvelope| !t.paced.contains(&(e.req_id as usize));
    let budgeted_requests = serve_requests.iter().filter(|e| budgeted(e)).count() as f64;
    let locations = inputs
        .serve
        .iter()
        .filter(|e| !e.is_request() && budgeted(e))
        .count() as f64;
    let observed = serve_requests
        .iter()
        .filter(|e| protected.contains(&e.user) && budgeted(e))
        .count() as f64;
    let share = budgeted_requests / (requests as f64).max(1.0);
    let (wall_name, serve_ns) = if over_tcp {
        (
            "traced closed-loop wall (phase B)",
            t.spans.total("serve.fenced").0 as f64,
        )
    } else {
        ("traced serve wall", t.spans.total("serve").0 as f64)
    };
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let journal_records = t.pass.tally.journal_records as f64 * share;
    let commits = match inputs.spec.backend {
        Backend::Sequential => 0.0,
        // One `sync_data` per journal write.
        Backend::SequentialFsync => journal_records,
        Backend::Sharded(_) => t.counts.counter("ts.journal_commits") as f64,
    };
    let decode = if over_tcp {
        get("core.envelope.decode_loc_ns") * locations
            + get("core.envelope.decode_req_ns") * budgeted_requests
    } else {
        0.0
    };
    let parts: [(&str, f64); 6] = [
        ("core.envelope decode", decode),
        (
            "trajectory store + index insert",
            (get("trajectory.store_record_ns") + get("trajectory.index_insert_ns")) * locations,
        ),
        ("lbqid observe", get("lbqid.observe_ns") * observed),
        (
            "core.generalize algorithm 1",
            get("core.generalize.algo1_first_us") * 1e3 * algo1_calls as f64 * share,
        ),
        (
            "obs.journal encode + hash + append",
            get("obs.journal.append_mem_ns") * journal_records,
        ),
        (
            "obs.journal fsync",
            get("obs.journal.fsync_us") * 1e3 * commits,
        ),
    ];
    let attributed: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let unattributed_share = if serve_ns > 0.0 {
        (serve_ns - attributed) / serve_ns
    } else {
        0.0
    };
    v.insert("harness.unattributed_share", unattributed_share);
    let mut budget = vec![format!(
        "  {:<38} {:>10.1} ms  100.0 %",
        wall_name,
        serve_ns / 1e6
    )];
    for (name, ns) in parts {
        budget.push(format!(
            "  {:<38} {:>10.1} ms  {:>5.1} %",
            name,
            ns / 1e6,
            100.0 * ns / serve_ns.max(1.0)
        ));
    }
    budget.push(format!(
        "  {:<38} {:>10.1} ms  {:>5.1} %",
        "unattributed",
        (serve_ns - attributed) / 1e6,
        100.0 * unattributed_share
    ));
    // The span's self time is what the harness's own loop costs.
    let harness_ns = t
        .spans
        .self_ns(if over_tcp { "serve.fenced" } else { "serve" }) as f64;
    budget.push(format!(
        "  {:<38} {:>10.1} ms  {:>5.1} %",
        "  of which the harness's own loop",
        harness_ns / 1e6,
        100.0 * harness_ns / serve_ns.max(1.0)
    ));
    Ok((v, budget))
}
