//! The metric tables: what `BENCHMARK.json` promises, in code. A unit
//! test holds the two equal.

use crate::stats::Better::{self, Higher, Lower};

/// One end-to-end metric: what a user or an operator of the Trusted
/// Server sees.
pub struct EndToEnd {
    /// Contract name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by before a change
    /// counts as a regression.
    pub bound: f64,
}

/// The ten end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "suppressed_share",
        unit: "ratio",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "area_p50_m2",
        unit: "m2",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "journal_bytes_per_req",
        unit: "B",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "audit_records_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
];

/// The wall-derived end-to-end metrics: computed per pass, reported as
/// the best pass, with `harness.pass_spread.<name>` beside them.
pub const PER_PASS: [&str; 5] = [
    "setup_s",
    "events_per_s",
    "req_p50_us",
    "req_p99_us",
    "audit_records_per_s",
];

/// One per-layer metric of the traced run (`<layer>.<metric>`).
pub struct Layer {
    /// Contract name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric, in reporting order. A metric whose layer is
/// not on a workload's path reads 0 there.
pub const PER_LAYER: [Layer; 69] = [
    l("core.envelope.encode_ns", "ns", Lower),
    l("core.envelope.decode_loc_ns", "ns", Lower),
    l("core.envelope.decode_req_ns", "ns", Lower),
    l("core.envelope.reply_decode_ns", "ns", Lower),
    l("core.envelope.bytes_per_frame", "B", Lower),
    l("trajectory.store_record_ns", "ns", Lower),
    l("trajectory.index_insert_ns", "ns", Lower),
    l("trajectory.index_build_s", "s", Lower),
    l("trajectory.points_resident", "count", Lower),
    l("trajectory.compact_ms", "ms", Lower),
    l("trajectory.compact_retained_share", "ratio", Lower),
    l("trajectory.knn_us", "us", Lower),
    l("trajectory.crossing_us", "us", Lower),
    l("trajectory.index_probes_per_query", "count", Lower),
    l("lbqid.observe_ns", "ns", Lower),
    l("lbqid.match_share", "ratio", Higher),
    l("anonymity.link_check_us", "us", Lower),
    l("core.generalize.algo1_first_us", "us", Lower),
    l("core.generalize.algo1_iterations_per_call", "count", Lower),
    l("core.generalize.tolerance_fail_share", "ratio", Lower),
    l("core.mixzone.unlink_share", "ratio", Higher),
    l("core.server.location_ns", "ns", Lower),
    l("core.server.request_exact_us", "us", Lower),
    l("core.server.request_protected_us", "us", Lower),
    l("core.server.drain_us", "us", Lower),
    l("core.server.busy_share_requests", "ratio", Lower),
    l("core.server.sync_flushes_per_req", "count", Lower),
    l("obs.journal.payload_encode_ns", "ns", Lower),
    l("obs.journal.hash_ns", "ns", Lower),
    l("obs.journal.append_mem_ns", "ns", Lower),
    l("obs.journal.append_batch_mem_ns", "ns", Lower),
    l("obs.journal.fsync_us", "us", Lower),
    l("obs.journal.bytes_per_record", "B", Lower),
    l("obs.journal.parse_line_ns", "ns", Lower),
    l("obs.journal.verify_records_per_s", "1/s", Higher),
    l("obs.journal.recover_ms", "ms", Lower),
    l("obs.sha256.mb_per_s", "MB/s", Higher),
    l("shard.epochs", "count", Lower),
    l("shard.events_per_epoch", "count", Higher),
    l("shard.submit_batch_us", "us", Lower),
    l("shard.drain_us", "us", Lower),
    l("shard.commits_per_req", "count", Lower),
    l("shard.batched_request_share", "ratio", Higher),
    l("shard.union_memo_hit_share", "ratio", Higher),
    l("gateway.rtt_floor_us", "us", Lower),
    l("gateway.wire_overhead_p50_us", "us", Lower),
    l("gateway.frames_per_drain", "count", Higher),
    l("gateway.overloads", "count", Lower),
    l("gateway.shed_locations", "count", Lower),
    l("gateway.spawn_ms", "ms", Lower),
    l("gateway.shutdown_ms", "ms", Lower),
    l("audit.ingest_ns_per_record", "ns", Lower),
    l("audit.resume_ms", "ms", Lower),
    l("audit.tail_poll_records_per_s", "1/s", Higher),
    l("audit.users_audited", "count", Higher),
    l("core.checkpoint.write_ms", "ms", Lower),
    l("core.checkpoint.snapshot_bytes", "B", Lower),
    l("core.checkpoint.parse_ms", "ms", Lower),
    l("core.checkpoint.restore_ms", "ms", Lower),
    l("harness.generate_s", "s", Lower),
    l("harness.cold_pass_ratio", "ratio", Lower),
    l("harness.pass_spread.setup_s", "ratio", Lower),
    l("harness.pass_spread.events_per_s", "ratio", Lower),
    l("harness.pass_spread.req_p50_us", "ratio", Lower),
    l("harness.pass_spread.req_p99_us", "ratio", Lower),
    l("harness.pass_spread.audit_records_per_s", "ratio", Lower),
    l("harness.sched_lag_p99_us", "us", Lower),
    l("harness.trace_overhead_share", "ratio", Lower),
    l("harness.unattributed_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use hka_obs::Json;

    fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("BENCHMARK.json: '{key}' is not an array: {other:?}"),
        }
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: entry without '{key}': {item}"))
    }

    /// `BENCHMARK.json` at the repository root promises exactly what
    /// these tables and [`Workload::ALL`] deliver.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = hka_obs::json::parse(&std::fs::read_to_string(path).expect("readable"))
            .expect("valid JSON");

        let workloads: Vec<&str> = array(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::inputs::RUN_SECONDS as f64),
            "the pass counts are sized for run_seconds"
        );

        let e2e = array(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(json, "name"), m.name);
            assert_eq!(text(json, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(json, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                json.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = array(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, l) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(json, "name"), l.name);
            assert_eq!(text(json, "unit"), l.unit, "{}", l.name);
            assert_eq!(text(json, "better"), l.better.as_str(), "{}", l.name);
        }

        // Names: at most 64 of [A-Za-z0-9_.-], starting alphanumeric, unique.
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(ours.iter().copied())
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric and workload names are unique");

        for p in PER_PASS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|l| l.name.strip_prefix("harness.pass_spread.") == Some(p)),
                "{p} has a pass_spread layer metric"
            );
        }
    }
}
