//! The live audit: a [`JournalTailer`] feeding the incremental
//! [`Auditor`] state machine, polled while the serving process is still
//! appending.
//!
//! [`TailAuditor`] is what `hka-sim watch` runs: each
//! [`poll`](TailAuditor::poll) consumes whatever fully hash-chained
//! records the journal grew, folds them into the audit state, and
//! reports any *new* violations anchored to the byte offset of the
//! offending record — the stable address an operator can seek to in
//! the journal file. Torn tails are tolerated
//! exactly as the tailer tolerates them: reported as in-flight bytes,
//! never as a chain failure.
//!
//! The equivalence contract: once the writer has flushed and stopped,
//! a `TailAuditor` that has caught up produces — via
//! [`snapshot`](TailAuditor::snapshot) — an [`AuditOutcome`] whose
//! canonical JSON is byte-identical to offline
//! [`replay_file`](crate::replay_file) on the same journal. The tail
//! path and the batch path share every moving part ([`ChainCursor`]
//! for verification, [`Auditor::ingest_ref`] for decoding and state),
//! so the guarantee is structural, and `tests/tail.rs` enforces it
//! under chaos schedules too.
//!
//! [`ChainCursor`]: hka_obs::ChainCursor

use std::path::Path;

use hka_obs::journal::ChainError;
use hka_obs::{JournalTailer, Json, Payload, Scalar};

use crate::event::Mode;
use crate::report::{AuditOutcome, ChainSummary};
use crate::timeline::{AuditConfig, Auditor, Violation};

/// What one [`TailAuditor::poll`] changed.
#[derive(Debug, Clone, Default)]
pub struct TailPoll {
    /// Records verified and ingested by this poll.
    pub new_records: u64,
    /// Violations first detected by this poll, each anchored to the
    /// journal byte offset of the record that exhibits it.
    pub new_violations: Vec<(u64, Violation)>,
    /// Bytes of torn/in-flight tail left unconsumed.
    pub torn_bytes: u64,
    /// The chain failure, if the tail has ended. Sticky: every poll
    /// after the first failure reports the same error.
    pub chain_error: Option<ChainError>,
}

/// One periodic status frame — the unit `hka-sim watch` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchFrame {
    /// Records verified so far.
    pub records: u64,
    /// Byte offset one past the last verified record.
    pub offset: u64,
    /// Torn/in-flight bytes past the verified offset at the last poll.
    pub torn_bytes: u64,
    /// Chain head hash.
    pub head: String,
    /// Mode the journal last established.
    pub mode: Option<Mode>,
    /// Users with journaled activity.
    pub users: usize,
    /// Smallest achieved anonymity-set size across all users.
    pub min_k: Option<u64>,
    /// Total forwards so far.
    pub forwarded: u64,
    /// Total suppressions so far.
    pub suppressed: u64,
    /// At-risk notifications so far.
    pub at_risk: u64,
    /// Pseudonym changes so far.
    pub unlinks: u64,
    /// Violations detected so far.
    pub violations: u64,
    /// Schema issues detected so far.
    pub schema_issues: u64,
    /// Checkpoint anchors seen so far (including any the resume
    /// snapshot already covered).
    pub checkpoints: u64,
    /// Chain position of the most recent checkpoint anchor.
    pub checkpoint_seq: Option<u64>,
    /// SLO objectives currently in breach (journaled `ts.slo_breach`
    /// without a matching `ts.slo_recovered` yet), sorted.
    pub slo_active: Vec<String>,
    /// Total `ts.slo_breach` events seen so far.
    pub slo_breaches: u64,
    /// Trace id of the worst-latency request in the watchdog's window,
    /// as carried by the most recent SLO transition.
    pub worst_trace: Option<u64>,
    /// That request's latency, microseconds.
    pub worst_us: Option<u64>,
    /// Connections the gateway has accepted, from the most recent
    /// journaled `gw.stats` record (`None` for in-process runs that
    /// never journal one).
    pub gw_conns: Option<u64>,
    /// Drain barriers the gateway has run.
    pub gw_drains: Option<u64>,
    /// Inflight-queue depth at the gateway's last stats emission.
    pub gw_queue: Option<u64>,
    /// The chain failure, rendered, if the tail has ended.
    pub chain_error: Option<String>,
}

impl WatchFrame {
    /// The frame as canonical JSON (sorted keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("at_risk", Json::from(self.at_risk)),
            (
                "chain_error",
                self.chain_error.as_deref().map_or(Json::Null, Json::from),
            ),
            (
                "checkpoint_seq",
                self.checkpoint_seq.map_or(Json::Null, Json::from),
            ),
            ("checkpoints", Json::from(self.checkpoints)),
            ("forwarded", Json::from(self.forwarded)),
            ("gw_conns", self.gw_conns.map_or(Json::Null, Json::from)),
            ("gw_drains", self.gw_drains.map_or(Json::Null, Json::from)),
            ("gw_queue", self.gw_queue.map_or(Json::Null, Json::from)),
            ("head", Json::from(self.head.as_str())),
            ("min_k", self.min_k.map_or(Json::Null, Json::from)),
            (
                "mode",
                self.mode.map_or(Json::Null, |m| Json::from(m.as_str())),
            ),
            ("offset", Json::from(self.offset)),
            ("records", Json::from(self.records)),
            ("schema_issues", Json::from(self.schema_issues)),
            (
                "slo_active",
                Json::Arr(
                    self.slo_active
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
            ("slo_breaches", Json::from(self.slo_breaches)),
            ("suppressed", Json::from(self.suppressed)),
            ("torn_bytes", Json::from(self.torn_bytes)),
            ("unlinks", Json::from(self.unlinks)),
            ("users", Json::from(self.users as u64)),
            ("violations", Json::from(self.violations)),
            (
                "worst_trace",
                self.worst_trace.map_or(Json::Null, Json::from),
            ),
            ("worst_us", self.worst_us.map_or(Json::Null, Json::from)),
        ])
    }

    /// One status line for the text watch surface.
    pub fn render(&self) -> String {
        let head = if self.head.len() >= 12 {
            &self.head[..12]
        } else {
            &self.head
        };
        let mode = self.mode.map_or("-", |m| m.as_str());
        let min_k = self
            .min_k
            .map_or_else(|| "-".to_string(), |k| k.to_string());
        let mut line = format!(
            "records={} head={head} mode={mode} users={} min_k={min_k} \
             forwarded={} suppressed={} at_risk={} unlinks={} violations={} torn={}B",
            self.records,
            self.users,
            self.forwarded,
            self.suppressed,
            self.at_risk,
            self.unlinks,
            self.violations,
            self.torn_bytes,
        );
        if self.checkpoints > 0 {
            let seq = self
                .checkpoint_seq
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            line.push_str(&format!(" checkpoints={}@{seq}", self.checkpoints));
        }
        if let Some(conns) = self.gw_conns {
            line.push_str(&format!(
                " gw=conns:{conns}/drains:{}/queue:{}",
                self.gw_drains.unwrap_or(0),
                self.gw_queue.unwrap_or(0),
            ));
        }
        if let Some(t) = self.worst_trace {
            let us = self.worst_us.unwrap_or(0);
            line.push_str(&format!(" worst=t{t:08x}/{us}us"));
        }
        if !self.slo_active.is_empty() {
            line.push_str(&format!(" SLO-BREACH[{}]", self.slo_active.join(",")));
        }
        if let Some(e) = &self.chain_error {
            line.push_str(&format!(" CHAIN-ERROR: {e}"));
        }
        line
    }
}

/// A tailing auditor over a live journal file: the composition of
/// [`JournalTailer`] (verified streaming reads) and [`Auditor`]
/// (incremental replay state). See the module docs for the equivalence
/// contract with the offline audit.
#[derive(Debug)]
pub struct TailAuditor {
    tailer: JournalTailer,
    auditor: Auditor,
    torn_bytes: u64,
    banner: Banner,
}

/// Watch-surface state from journaled telemetry. It never feeds the
/// audit outcome, so tail/offline byte-equality is untouched.
#[derive(Debug, Default)]
struct Banner {
    /// SLO objectives currently in breach, from journaled watchdog
    /// transitions.
    slo_active: std::collections::BTreeSet<String>,
    slo_breaches: u64,
    worst_trace: Option<(u64, u64)>,
    /// Latest journaled gateway stats `(conns, drains, queue_depth)`.
    gw_stats: Option<(u64, u64, u64)>,
}

impl Banner {
    /// Folds one record into the banner: SLO transitions and gateway
    /// stats; every other kind leaves it as it was.
    fn note(&mut self, kind: &str, payload: &Payload<'_>) {
        let int = |key: &str| payload.get(key).and_then(|v| v.as_int());
        let slo = || {
            let name = payload.get("slo").and_then(Scalar::into_str);
            name.map_or_else(|| "?".to_string(), |name| name.into_owned())
        };
        match kind {
            "ts.slo_breach" => {
                self.slo_breaches += 1;
                self.slo_active.insert(slo());
                if let Some(t) = int("worst_trace") {
                    self.worst_trace = Some((t as u64, int("worst_us").unwrap_or(0) as u64));
                }
            }
            "ts.slo_recovered" => {
                self.slo_active.remove(&slo());
            }
            "gw.stats" => {
                let n = |key: &str| int(key).unwrap_or(0) as u64;
                self.gw_stats = Some((n("conns"), n("drains"), n("queue_depth")));
            }
            _ => {}
        }
    }
}

impl TailAuditor {
    /// A tail positioned at the start of `path` (which may not exist
    /// yet — polls before the writer's first append are clean no-ops).
    pub fn open(path: &Path, cfg: AuditConfig) -> Self {
        TailAuditor {
            tailer: JournalTailer::open(path),
            auditor: Auditor::new(cfg),
            torn_bytes: 0,
            banner: Banner::default(),
        }
    }

    /// A tail resumed from a checkpoint snapshot: the auditor state
    /// covering the snapshot's prefix is restored from the snapshot's
    /// `audit` section (the snapshot's embedded config wins) and the
    /// tailer is positioned at the anchor record, so the first poll
    /// ingests the anchor and then only the suffix. Once caught up, the
    /// [`snapshot`](TailAuditor::snapshot) outcome is byte-identical to
    /// a genesis tail of the same journal. Fail-closed like
    /// [`crate::resume_from_snapshot`]: any anchor/hash mismatch is an
    /// error, never a silently different audit.
    pub fn resume_from_snapshot(path: &Path, snapshot_path: &Path) -> std::io::Result<Self> {
        let (auditor, offset, floor, snapshot) = crate::resume_point(path, snapshot_path)?;
        Ok(TailAuditor {
            tailer: JournalTailer::resume(path, offset, snapshot.records, snapshot.head, floor),
            auditor,
            torn_bytes: 0,
            banner: Banner::default(),
        })
    }

    /// Consumes and audits whatever the journal grew since the last
    /// poll: each record the tailer verifies is folded in straight off
    /// its line ([`Auditor::ingest_ref`]), as the offline replay does.
    pub fn poll(&mut self) -> TailPoll {
        let mut out = TailPoll::default();
        let (auditor, banner) = (&mut self.auditor, &mut self.banner);
        let polled = self.tailer.poll(|offset, record| {
            banner.note(&record.kind, &record.payload);
            let before = auditor.violations().len();
            auditor.ingest_ref(record);
            for v in &auditor.violations()[before..] {
                out.new_violations.push((offset, v.clone()));
            }
        });
        match polled {
            Ok(batch) => {
                out.new_records = batch.records;
                out.torn_bytes = batch.torn_bytes;
                self.torn_bytes = batch.torn_bytes;
                // A mid-batch chain failure is latched on the tailer
                // while the verified prefix above still gets delivered;
                // report both in the same poll.
                out.chain_error = self.tailer.error().cloned();
            }
            Err(e) => out.chain_error = Some(e),
        }
        out
    }

    /// Records verified and ingested so far.
    pub fn records(&self) -> u64 {
        self.tailer.records_read()
    }

    /// Chain head hash.
    pub fn head(&self) -> &str {
        self.tailer.head()
    }

    /// Byte offset one past the last verified record.
    pub fn offset(&self) -> u64 {
        self.tailer.offset()
    }

    /// The sticky chain failure, if the tail has ended.
    pub fn chain_error(&self) -> Option<&ChainError> {
        self.tailer.error()
    }

    /// The incremental audit state (read-only).
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    fn chain(&self) -> ChainSummary {
        ChainSummary {
            records: self.tailer.records_read(),
            head: self.tailer.head().to_string(),
            error: self.tailer.error().map(|e| e.to_string()),
        }
    }

    /// Renders the audit state so far as a full [`AuditOutcome`] —
    /// byte-identical (canonical JSON) to the offline audit of the
    /// journal prefix consumed so far.
    pub fn snapshot(&self) -> AuditOutcome {
        self.auditor.snapshot(self.chain())
    }

    /// The current status frame.
    pub fn frame(&self) -> WatchFrame {
        let totals = self.auditor.totals();
        WatchFrame {
            records: self.records(),
            offset: self.offset(),
            torn_bytes: self.torn_bytes,
            head: self.head().to_string(),
            mode: self.auditor.mode(),
            users: self.auditor.users_tracked(),
            min_k: self.auditor.min_k(),
            forwarded: totals.forwarded(),
            suppressed: totals.suppressed_total(),
            at_risk: totals.at_risk,
            unlinks: totals.unlinks,
            violations: self.auditor.violations().len() as u64,
            schema_issues: self.auditor.schema_issues().len() as u64,
            checkpoints: totals.checkpoints,
            checkpoint_seq: self.auditor.checkpoints().last().map(|(seq, _)| *seq),
            slo_active: self.banner.slo_active.iter().cloned().collect(),
            slo_breaches: self.banner.slo_breaches,
            worst_trace: self.banner.worst_trace.map(|(t, _)| t),
            worst_us: self.banner.worst_trace.map(|(_, us)| us),
            gw_conns: self.banner.gw_stats.map(|(c, _, _)| c),
            gw_drains: self.banner.gw_stats.map(|(_, d, _)| d),
            gw_queue: self.banner.gw_stats.map(|(_, _, q)| q),
            chain_error: self.tailer.error().map(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use hka_obs::{Journal, JournalRecord};
    use std::path::PathBuf;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("hka-audit-tail-{}-{tag}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempPath(path)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn fwd(user: i64, at: i64, generalized: bool, hk_ok: bool, k_req: i64, k_got: i64) -> Json {
        let side = if generalized { 100.0 } else { 0.0 };
        Json::obj([
            ("user", Json::Int(user)),
            ("at", Json::Int(at)),
            ("x_min", Json::Num(0.0)),
            ("y_min", Json::Num(0.0)),
            ("x_max", Json::Num(side)),
            ("y_max", Json::Num(side)),
            ("t_start", Json::Int(at - 30)),
            ("t_end", Json::Int(at + 30)),
            ("generalized", Json::Bool(generalized)),
            ("hk_ok", Json::Bool(hk_ok)),
            ("service", Json::Int(1)),
            ("k_req", Json::Int(k_req)),
            ("k_got", Json::Int(k_got)),
            ("lbqid", Json::from("commute")),
        ])
    }

    fn journal_of(events: &[(&str, Json)]) -> Vec<u8> {
        let mut j = Journal::new(Vec::new());
        for (kind, payload) in events {
            j.append(kind, payload.clone()).unwrap();
        }
        j.into_inner()
    }

    #[test]
    fn tail_snapshot_is_byte_identical_to_offline_replay() {
        let tmp = TempPath::new("equiv");
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.forwarded", fwd(2, 150, false, true, 0, 0)),
            (
                "ts.suppressed",
                Json::obj([
                    ("user", Json::Int(3)),
                    ("at", Json::Int(160)),
                    ("reason", Json::from("mix_zone")),
                    ("service", Json::Int(1)),
                ]),
            ),
            ("ts.forwarded", fwd(1, 200, true, true, 4, 6)),
        ]);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        let poll = tail.poll();
        assert_eq!(poll.new_records, 4);
        assert!(poll.new_violations.is_empty());

        let offline = replay(&bytes[..], AuditConfig::default());
        assert_eq!(
            tail.snapshot().to_json().to_string(),
            offline.to_json().to_string(),
            "tail and offline audit must agree byte-for-byte"
        );
    }

    #[test]
    fn mid_stream_snapshot_matches_offline_replay_of_the_prefix() {
        let tmp = TempPath::new("prefix");
        let full = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.forwarded", fwd(2, 150, true, true, 5, 7)),
            ("ts.forwarded", fwd(1, 200, true, true, 4, 6)),
        ]);
        let text = String::from_utf8(full.clone()).unwrap();
        let prefix_len: usize = text.lines().take(2).map(|l| l.len() + 1).sum();
        std::fs::write(&tmp.0, &full[..prefix_len]).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        tail.poll();
        let offline = replay(&full[..prefix_len], AuditConfig::default());
        assert_eq!(
            tail.snapshot().to_json().to_string(),
            offline.to_json().to_string()
        );

        // The file grows; the tail catches up and agrees with the full
        // offline replay.
        std::fs::write(&tmp.0, &full).unwrap();
        tail.poll();
        let offline = replay(&full[..], AuditConfig::default());
        assert_eq!(
            tail.snapshot().to_json().to_string(),
            offline.to_json().to_string()
        );
    }

    #[test]
    fn new_violations_are_anchored_to_record_offsets() {
        let tmp = TempPath::new("anchor");
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            // Unexplained sub-k clamp: a violation on the second record.
            ("ts.forwarded", fwd(2, 150, true, false, 5, 2)),
        ]);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        let poll = tail.poll();
        assert_eq!(poll.new_violations.len(), 1);
        let (offset, v) = &poll.new_violations[0];
        assert_eq!(v.user, Some(2));
        // The offset addresses the offending record in the file.
        let text = String::from_utf8(bytes).unwrap();
        let line = text[*offset as usize..].lines().next().unwrap();
        let rec = JournalRecord::parse_line(line).unwrap();
        assert_eq!(rec.seq, v.seq);

        // A later poll does not re-report the same violation.
        assert!(tail.poll().new_violations.is_empty());
        assert_eq!(tail.frame().violations, 1);
    }

    #[test]
    fn frame_summarizes_the_live_state() {
        let tmp = TempPath::new("frame");
        let bytes = journal_of(&[
            (
                "ts.mode_changed",
                Json::obj([
                    ("at", Json::Int(10)),
                    ("from", Json::from("normal")),
                    ("to", Json::from("degraded")),
                ]),
            ),
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
        ]);
        std::fs::write(&tmp.0, &bytes).unwrap();
        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        tail.poll();
        let frame = tail.frame();
        assert_eq!(frame.records, 2);
        assert_eq!(frame.mode, Some(Mode::Degraded));
        assert_eq!(frame.min_k, Some(5));
        assert_eq!(frame.users, 1);
        assert_eq!(frame.chain_error, None);
        let line = frame.render();
        assert!(line.contains("mode=degraded"));
        assert!(line.contains("min_k=5"));
        let json = frame.to_json().to_string();
        assert!(json.contains("\"records\":2"));
        let reparsed = hka_obs::json::parse(&json).unwrap();
        assert_eq!(reparsed.to_string(), json, "canonical frame JSON");
    }

    #[test]
    fn sample_cap_bounds_per_user_history() {
        let tmp = TempPath::new("cap");
        let events: Vec<(&str, Json)> = (0..50)
            .map(|i| ("ts.forwarded", fwd(1, 100 + i, true, true, 5, 5 + (i % 3))))
            .collect();
        let bytes = journal_of(&events);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let cfg = AuditConfig {
            sample_cap: Some(8),
            ..AuditConfig::default()
        };
        let mut tail = TailAuditor::open(&tmp.0, cfg);
        tail.poll();
        let out = tail.snapshot();
        let u = &out.users[0];
        assert_eq!(u.k_samples.len(), 8, "history capped");
        assert_eq!(u.forwarded_ok, 50, "aggregates keep full counts");
        assert_eq!(u.min_k, Some(5), "min_k spans the whole run");
        // Capped tail == capped offline: equivalence holds per-config.
        let offline = replay(&bytes[..], cfg);
        assert_eq!(out.to_json().to_string(), offline.to_json().to_string());
    }

    #[test]
    fn slo_transitions_drive_the_watch_banner_without_touching_the_audit() {
        let tmp = TempPath::new("slo");
        let slo = |breached: bool| {
            let mut j = Json::obj([
                ("at", Json::Int(100)),
                ("slo", Json::from("latency_p99")),
                ("value", Json::Num(9.0e7)),
                ("threshold", Json::Num(5.0e7)),
                ("worst_trace", Json::Int(42)),
                ("worst_us", Json::Int(90_000)),
            ]);
            if !breached {
                if let Json::Obj(m) = &mut j {
                    m.remove("worst_trace");
                    m.remove("worst_us");
                }
            }
            j
        };
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.slo_breach", slo(true)),
            ("ts.forwarded", fwd(1, 200, true, true, 5, 5)),
        ]);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        tail.poll();
        let frame = tail.frame();
        assert_eq!(frame.slo_active, vec!["latency_p99".to_string()]);
        assert_eq!(frame.slo_breaches, 1);
        assert_eq!(frame.worst_trace, Some(42));
        assert_eq!(frame.worst_us, Some(90_000));
        let line = frame.render();
        assert!(line.contains("SLO-BREACH[latency_p99]"), "{line}");
        assert!(line.contains("worst=t0000002a/90000us"), "{line}");
        // Watchdog telemetry never dirties the audit.
        let out = tail.snapshot();
        assert!(out.ok(), "{:?}", out.violations);
        assert_eq!(out.totals.unknown_kinds, 1);

        // A recovery clears the banner; the trace pointer persists.
        let mut j = Journal::resume(
            std::fs::OpenOptions::new()
                .append(true)
                .open(&tmp.0)
                .unwrap(),
            3,
            tail.head().to_string(),
        );
        j.append("ts.slo_recovered", slo(false)).unwrap();
        drop(j);
        tail.poll();
        let frame = tail.frame();
        assert!(frame.slo_active.is_empty());
        assert_eq!(frame.slo_breaches, 1);
        assert_eq!(frame.worst_trace, Some(42));
        assert!(!frame.render().contains("SLO-BREACH"), "{}", frame.render());
        let json = frame.to_json().to_string();
        let reparsed = hka_obs::json::parse(&json).unwrap();
        assert_eq!(reparsed.to_string(), json, "canonical frame JSON");
    }

    #[test]
    fn gateway_stats_drive_the_watch_banner_without_touching_the_audit() {
        let tmp = TempPath::new("gw");
        let gw = |conns: i64, drains: i64, queue: i64| {
            Json::obj([
                ("at", Json::Int(100)),
                ("conns", Json::Int(conns)),
                ("drains", Json::Int(drains)),
                ("queue_depth", Json::Int(queue)),
            ])
        };
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("gw.stats", gw(3, 1, 7)),
            ("ts.forwarded", fwd(1, 200, true, true, 5, 5)),
            // The banner tracks the latest emission, not a sum.
            ("gw.stats", gw(4, 2, 0)),
        ]);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        tail.poll();
        let frame = tail.frame();
        assert_eq!(frame.gw_conns, Some(4));
        assert_eq!(frame.gw_drains, Some(2));
        assert_eq!(frame.gw_queue, Some(0));
        let line = frame.render();
        assert!(line.contains("gw=conns:4/drains:2/queue:0"), "{line}");
        let json = frame.to_json().to_string();
        assert!(json.contains("\"gw_conns\":4"), "{json}");
        let reparsed = hka_obs::json::parse(&json).unwrap();
        assert_eq!(reparsed.to_string(), json, "canonical frame JSON");
        // Gateway telemetry never dirties the audit; the records count
        // as unknown kinds like the SLO transitions do.
        let out = tail.snapshot();
        assert!(out.ok(), "{:?}", out.violations);
        assert_eq!(out.totals.unknown_kinds, 2);

        // In-process journals (no gw.stats) render no gateway segment.
        let tmp2 = TempPath::new("gw-none");
        std::fs::write(
            &tmp2.0,
            journal_of(&[("ts.forwarded", fwd(1, 100, true, true, 5, 5))]),
        )
        .unwrap();
        let mut plain = TailAuditor::open(&tmp2.0, AuditConfig::default());
        plain.poll();
        let frame = plain.frame();
        assert_eq!(frame.gw_conns, None);
        assert!(!frame.render().contains("gw="), "{}", frame.render());
        assert!(frame.to_json().to_string().contains("\"gw_conns\":null"));
    }

    #[test]
    fn chain_failure_is_sticky_and_reported_in_frames() {
        let tmp = TempPath::new("fail");
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.forwarded", fwd(2, 150, true, true, 5, 5)),
        ]);
        let text = String::from_utf8(bytes).unwrap();
        std::fs::write(&tmp.0, text.replacen("\"user\":2", "\"user\":9", 1)).unwrap();

        let mut tail = TailAuditor::open(&tmp.0, AuditConfig::default());
        let poll = tail.poll();
        assert!(poll.chain_error.is_some());
        assert_eq!(tail.records(), 1, "valid prefix still audited");
        assert!(tail.frame().chain_error.is_some());
        assert!(!tail.snapshot().ok());
        // Sticky across polls.
        assert!(tail.poll().chain_error.is_some());
    }
}
