//! The replay state machine: per-user anonymity timelines, mode-ladder
//! tracking, and Theorem-1 violation detection.
//!
//! The paper's Theorem 1 says the Section-6.1 strategy preserves
//! historical k-anonymity *provided* every failed generalization is
//! followed by an unlink or an explicit at-risk notification, and the
//! robustness layer's fail-closed invariant says a degraded server never
//! forwards anything it cannot prove protected. The auditor replays the
//! journal and checks both from the outside:
//!
//! * a clamped (sub-k) forward for a user who was **not** notified
//!   at-risk is an [`ViolationKind::UnexplainedClamp`];
//! * any forward that is not a generalized, HK-anonymity-preserving
//!   one while the journaled mode is `degraded` is a
//!   [`ViolationKind::ForwardWhileDegraded`]; any forward at all while
//!   `read_only` is a [`ViolationKind::ForwardWhileReadOnly`];
//! * a `ts.mode_changed` whose `from` disagrees with the mode the
//!   journal itself established is a [`ViolationKind::ModeLadderGap`].
//!
//! A user's at-risk window opens at `ts.at_risk` and closes at the next
//! `ts.pseudonym_changed` (the unlink resets pattern state), mirroring
//! the server's own bookkeeping.

use std::collections::BTreeMap;

use hka_obs::{JournalRecord, RecordRef};

use crate::event::{decode, decode_ref, AuditEvent, Mode};

/// Reference tolerances for QoS-inflation ratios in the report. `None`
/// disables the corresponding ratio (tolerances are per-service in the
/// server; the audit only sees what the journal carries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditConfig {
    /// Reference spatial tolerance, m².
    pub space_tol: Option<f64>,
    /// Reference temporal tolerance, seconds.
    pub time_tol: Option<i64>,
    /// Bound on per-user history vectors (`k_samples`, `unlinks`,
    /// `at_risk_windows`): when set, only the most recent `cap` entries
    /// are retained, so a tailing auditor holds bounded memory over an
    /// unbounded journal. `None` (the default, and what the offline
    /// audit uses) keeps everything. Capping never touches the *open*
    /// at-risk window — only closed history is dropped — so violation
    /// detection is unaffected.
    pub sample_cap: Option<usize>,
}

/// What kind of guarantee a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A sub-k generalized forward with no preceding at-risk
    /// notification for that user (Theorem-1 bookkeeping broken).
    UnexplainedClamp,
    /// A forward that is not generalized-and-hk-ok while the journaled
    /// mode was `degraded` (fail-closed invariant broken).
    ForwardWhileDegraded,
    /// Any forward while the journaled mode was `read_only`.
    ForwardWhileReadOnly,
    /// A `ts.mode_changed` record whose `from` mode disagrees with the
    /// mode the journal itself last established.
    ModeLadderGap,
}

impl ViolationKind {
    /// Stable machine-readable tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::UnexplainedClamp => "unexplained_clamp",
            ViolationKind::ForwardWhileDegraded => "forward_while_degraded",
            ViolationKind::ForwardWhileReadOnly => "forward_while_read_only",
            ViolationKind::ModeLadderGap => "mode_ladder_gap",
        }
    }
}

/// One detected violation, anchored to the journal record that shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Sequence number of the offending record.
    pub seq: u64,
    /// Event time of the offending record.
    pub at: i64,
    /// The user concerned (`None` for server-scoped records).
    pub user: Option<u64>,
    /// What guarantee broke.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// One `(at, k_req, k_got)` sample on a user's anonymity timeline —
/// every generalized forward contributes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KSample {
    /// When.
    pub at: i64,
    /// Requested anonymity at that step.
    pub k_req: u64,
    /// Achieved anonymity-set size.
    pub k_got: u64,
}

/// Everything the journal shows about one user.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserTimeline {
    /// The user.
    pub user: u64,
    /// k over time: one sample per generalized forward that carried the
    /// audit fields (older journals yield an empty timeline).
    pub k_samples: Vec<KSample>,
    /// Exact (non-pattern) forwards.
    pub forwarded_exact: u64,
    /// Generalized forwards that kept HK-anonymity.
    pub forwarded_ok: u64,
    /// Generalized forwards that were clamped (sub-k).
    pub forwarded_clamped: u64,
    /// Suppressions by on-disk reason string.
    pub suppressed: BTreeMap<String, u64>,
    /// Times the user's pseudonym changed (successful unlinks).
    pub unlinks: Vec<i64>,
    /// At-risk windows `(opened, closed)`; `None` = never closed —
    /// these are the Theorem-1 violation windows the report flags.
    pub at_risk_windows: Vec<(i64, Option<i64>)>,
    /// Smallest achieved anonymity-set size over all samples.
    pub min_k: Option<u64>,
    /// Sum of generalized context areas, m².
    pub area_sum: f64,
    /// Sum of generalized context durations, seconds.
    pub duration_sum: i64,
}

impl UserTimeline {
    /// All generalized forwards.
    pub fn generalized(&self) -> u64 {
        self.forwarded_ok + self.forwarded_clamped
    }

    /// Mean generalized area, m² (0 when nothing was generalized).
    pub fn mean_area(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.area_sum / g as f64
        }
    }

    /// Mean generalized duration, seconds (0 when nothing generalized).
    pub fn mean_duration(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.duration_sum as f64 / g as f64
        }
    }

    /// Whether an at-risk window is currently open.
    fn at_risk_open(&self) -> bool {
        self.at_risk_windows
            .last()
            .is_some_and(|(_, end)| end.is_none())
    }
}

/// One journaled mode transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// Sequence number of the `ts.mode_changed` record.
    pub seq: u64,
    /// When.
    pub at: i64,
    /// Mode left behind.
    pub from: Mode,
    /// Mode entered.
    pub to: Mode,
}

/// Per-service-class aggregate — one row of the QoS/k/unlink trade-off
/// table. Rows exist only for events that carried a `service` field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceRow {
    /// The service class.
    pub service: u64,
    /// Exact forwards.
    pub forwarded_exact: u64,
    /// HK-ok generalized forwards.
    pub forwarded_ok: u64,
    /// Clamped generalized forwards.
    pub forwarded_clamped: u64,
    /// Suppressions (all reasons) — the service interruptions the paper
    /// trades against anonymity.
    pub suppressed: u64,
    /// Sum of requested k over generalized forwards with audit fields.
    pub k_req_sum: u64,
    /// Sum of achieved k over the same forwards.
    pub k_got_sum: u64,
    /// Generalized forwards carrying audit fields (divisor for k means).
    pub k_samples: u64,
    /// Sum of generalized areas, m².
    pub area_sum: f64,
    /// Sum of generalized durations, seconds.
    pub duration_sum: i64,
}

impl ServiceRow {
    /// All generalized forwards.
    pub fn generalized(&self) -> u64 {
        self.forwarded_ok + self.forwarded_clamped
    }

    /// All forwards.
    pub fn forwarded(&self) -> u64 {
        self.forwarded_exact + self.generalized()
    }

    /// Fraction of generalized forwards that kept HK-anonymity (0 when
    /// nothing was generalized).
    pub fn hk_success_rate(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.forwarded_ok as f64 / g as f64
        }
    }

    /// Fraction of this service's requests that were suppressed.
    pub fn interruption_rate(&self) -> f64 {
        let total = self.forwarded() + self.suppressed;
        if total == 0 {
            0.0
        } else {
            self.suppressed as f64 / total as f64
        }
    }

    /// Mean requested k (0 without audit-field samples).
    pub fn mean_k_req(&self) -> f64 {
        if self.k_samples == 0 {
            0.0
        } else {
            self.k_req_sum as f64 / self.k_samples as f64
        }
    }

    /// Mean achieved k (0 without audit-field samples).
    pub fn mean_k_got(&self) -> f64 {
        if self.k_samples == 0 {
            0.0
        } else {
            self.k_got_sum as f64 / self.k_samples as f64
        }
    }

    /// Mean generalized area, m².
    pub fn mean_area(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.area_sum / g as f64
        }
    }

    /// Mean generalized duration, seconds.
    pub fn mean_duration(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.duration_sum as f64 / g as f64
        }
    }
}

/// Per-LBQID aggregate — anonymity outcomes along one quasi-identifier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LbqidRow {
    /// The LBQID name.
    pub lbqid: String,
    /// HK-ok generalized forwards attributed to this LBQID.
    pub forwarded_ok: u64,
    /// Clamped forwards attributed to this LBQID.
    pub forwarded_clamped: u64,
    /// Completed full matches (`ts.lbqid_matched`).
    pub matches: u64,
    /// At-risk notifications naming this LBQID.
    pub at_risk: u64,
    /// Sum of achieved k over forwards with audit fields.
    pub k_got_sum: u64,
    /// Forwards contributing to `k_got_sum`.
    pub k_samples: u64,
    /// Sum of generalized areas, m².
    pub area_sum: f64,
    /// Sum of generalized durations, seconds.
    pub duration_sum: i64,
}

impl LbqidRow {
    /// Mean achieved k (0 without samples).
    pub fn mean_k_got(&self) -> f64 {
        if self.k_samples == 0 {
            0.0
        } else {
            self.k_got_sum as f64 / self.k_samples as f64
        }
    }

    /// All generalized forwards on this LBQID.
    pub fn generalized(&self) -> u64 {
        self.forwarded_ok + self.forwarded_clamped
    }

    /// Mean generalized area, m².
    pub fn mean_area(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.area_sum / g as f64
        }
    }

    /// Mean generalized duration, seconds.
    pub fn mean_duration(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.duration_sum as f64 / g as f64
        }
    }
}

/// Whole-journal aggregate counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Records replayed (all kinds, unknown included).
    pub events: u64,
    /// Exact forwards.
    pub forwarded_exact: u64,
    /// HK-ok generalized forwards.
    pub forwarded_ok: u64,
    /// Clamped generalized forwards.
    pub forwarded_clamped: u64,
    /// Suppressions by on-disk reason string.
    pub suppressed: BTreeMap<String, u64>,
    /// Pseudonym changes.
    pub unlinks: u64,
    /// At-risk notifications.
    pub at_risk: u64,
    /// Completed LBQID matches.
    pub lbqid_matches: u64,
    /// Checkpoint anchors seen.
    pub checkpoints: u64,
    /// Records with kinds this auditor does not know.
    pub unknown_kinds: u64,
}

impl Totals {
    /// All forwards.
    pub fn forwarded(&self) -> u64 {
        self.forwarded_exact + self.forwarded_ok + self.forwarded_clamped
    }

    /// All suppressions.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed.values().sum()
    }

    /// All requests that reached a decision (forwarded or suppressed).
    pub fn requests(&self) -> u64 {
        self.forwarded() + self.suppressed_total()
    }

    /// Unlinks per decided request — the paper's "frequency of
    /// unlinking" corner of the trade-off triangle. 0 when no requests.
    pub fn unlink_frequency(&self) -> f64 {
        let r = self.requests();
        if r == 0 {
            0.0
        } else {
            self.unlinks as f64 / r as f64
        }
    }

    /// Fraction of generalized forwards that kept HK-anonymity.
    pub fn hk_success_rate(&self) -> f64 {
        let g = self.forwarded_ok + self.forwarded_clamped;
        if g == 0 {
            0.0
        } else {
            self.forwarded_ok as f64 / g as f64
        }
    }
}

/// `sum + area`, held finite: finite areas can still sum past
/// `f64::MAX`, and the report has no form for an infinity.
fn add_area(sum: f64, area: f64) -> f64 {
    (sum + area).clamp(-f64::MAX, f64::MAX)
}

/// Counts one more `key` in `map`, allocating the key only when new.
fn bump(map: &mut BTreeMap<String, u64>, key: &str) {
    match map.get_mut(key) {
        Some(n) => *n += 1,
        None => {
            map.insert(key.to_string(), 1);
        }
    }
}

/// `user`'s timeline in `users`, begun when new.
fn timeline(users: &mut BTreeMap<u64, UserTimeline>, user: u64) -> &mut UserTimeline {
    users.entry(user).or_insert_with(|| UserTimeline {
        user,
        ..UserTimeline::default()
    })
}

/// Drops the oldest entries beyond `cap`; no-op when `cap` is `None`.
/// Front-draining keeps the *most recent* entries, which is also what
/// the violation checks look at (the last at-risk window).
fn trim_front<T>(cap: Option<usize>, v: &mut Vec<T>) {
    if let Some(cap) = cap {
        if v.len() > cap {
            let excess = v.len() - cap;
            v.drain(..excess);
        }
    }
}

/// Streaming replay state — an incremental state machine. Feed
/// verified records one at a time with [`Auditor::ingest`]; at any
/// point [`Auditor::snapshot`] renders the state so far without
/// consuming it (the live-tail path), and [`Auditor::finish`] consumes
/// it into the final outcome (the batch path). Both produce identical
/// reports for the same records, so a tailing auditor that catches up
/// to end-of-journal emits byte-for-byte the offline audit.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    pub(crate) cfg: AuditConfig,
    pub(crate) users: BTreeMap<u64, UserTimeline>,
    pub(crate) services: BTreeMap<u64, ServiceRow>,
    pub(crate) lbqids: BTreeMap<String, LbqidRow>,
    pub(crate) mode: Option<Mode>,
    pub(crate) mode_transitions: Vec<ModeTransition>,
    pub(crate) violations: Vec<Violation>,
    pub(crate) schema_issues: Vec<(u64, String)>,
    pub(crate) recoveries: Vec<(u64, u64)>,
    /// Checkpoint anchors seen: `(seq, snapshot content hash)`.
    pub(crate) checkpoints: Vec<(u64, String)>,
    pub(crate) totals: Totals,
    pub(crate) overall_k_req_sum: u64,
    pub(crate) overall_k_got_sum: u64,
    pub(crate) overall_k_samples: u64,
    pub(crate) overall_area_sum: f64,
    pub(crate) overall_duration_sum: i64,
}

impl Auditor {
    /// A fresh auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor {
            cfg,
            ..Auditor::default()
        }
    }

    fn user(&mut self, user: u64) -> &mut UserTimeline {
        timeline(&mut self.users, user)
    }

    /// Folds one verified journal record into the replay state. This is
    /// the streaming entry point: state after N calls depends only on
    /// the first N records, and memory is bounded when
    /// [`AuditConfig::sample_cap`] is set.
    pub fn ingest(&mut self, record: &JournalRecord) {
        self.fold(record.seq, decode(record));
    }

    /// [`ingest`](Auditor::ingest) for a record the lending reader
    /// verified ([`hka_obs::JournalReader::next_ref`]) — the live tail's
    /// path: the fields are read off the line, with no tree in between.
    pub fn ingest_ref(&mut self, record: &RecordRef<'_>) {
        self.fold(record.seq, decode_ref(record));
    }

    /// Folds record `seq`, decoded ([`decode_ref`]) — the replay's path,
    /// where a worker thread decoded it.
    pub(crate) fn fold(&mut self, seq: u64, event: Result<AuditEvent, String>) {
        self.totals.events += 1;
        let event = match event {
            Ok(e) => e,
            Err(issue) => {
                self.schema_issues.push((seq, issue));
                return;
            }
        };
        match event {
            AuditEvent::Forwarded {
                user,
                at,
                area,
                duration,
                generalized,
                hk_ok,
                service,
                k_req,
                k_got,
                lbqid,
            } => self.observe_forwarded(
                seq,
                user,
                at,
                area,
                duration,
                generalized,
                hk_ok,
                service,
                k_req,
                k_got,
                lbqid,
            ),
            AuditEvent::Suppressed {
                user,
                at: _,
                reason,
                service,
            } => {
                bump(&mut self.totals.suppressed, &reason);
                bump(&mut self.user(user).suppressed, &reason);
                if let Some(s) = service {
                    self.service(s).suppressed += 1;
                }
            }
            AuditEvent::PseudonymChanged { user, at } => {
                self.totals.unlinks += 1;
                let cap = self.cfg.sample_cap;
                let u = self.user(user);
                u.unlinks.push(at);
                trim_front(cap, &mut u.unlinks);
                if let Some((_, end)) = u.at_risk_windows.last_mut() {
                    if end.is_none() {
                        *end = Some(at);
                    }
                }
            }
            AuditEvent::AtRisk { user, at, lbqid } => {
                self.totals.at_risk += 1;
                self.lbqid(lbqid).at_risk += 1;
                let cap = self.cfg.sample_cap;
                let u = self.user(user);
                if !u.at_risk_open() {
                    u.at_risk_windows.push((at, None));
                    trim_front(cap, &mut u.at_risk_windows);
                }
            }
            AuditEvent::LbqidMatched {
                user: _,
                at: _,
                lbqid,
            } => {
                self.totals.lbqid_matches += 1;
                self.lbqid(lbqid).matches += 1;
            }
            AuditEvent::ModeChanged { at, from, to } => {
                if let Some(current) = self.mode {
                    if from != current {
                        self.violations.push(Violation {
                            seq,
                            at,
                            user: None,
                            kind: ViolationKind::ModeLadderGap,
                            detail: format!(
                                "transition claims from={} but the journal last established {}",
                                from.as_str(),
                                current.as_str()
                            ),
                        });
                    }
                }
                self.mode = Some(to);
                self.mode_transitions
                    .push(ModeTransition { seq, at, from, to });
            }
            AuditEvent::JournalRecovered {
                truncated_bytes,
                valid_records,
            } => self.recoveries.push((truncated_bytes, valid_records)),
            AuditEvent::Checkpoint { snapshot, .. } => {
                self.totals.checkpoints += 1;
                self.checkpoints.push((seq, snapshot));
                trim_front(self.cfg.sample_cap, &mut self.checkpoints);
            }
            AuditEvent::Unknown => self.totals.unknown_kinds += 1,
        }
    }

    fn service(&mut self, service: u64) -> &mut ServiceRow {
        self.services.entry(service).or_insert_with(|| ServiceRow {
            service,
            ..ServiceRow::default()
        })
    }

    /// The row of LBQID `name`, which the decoder already owns: it
    /// becomes the key, and is copied only when the row is new.
    fn lbqid(&mut self, name: String) -> &mut LbqidRow {
        self.lbqids.entry(name).or_insert_with_key(|name| LbqidRow {
            lbqid: name.clone(),
            ..LbqidRow::default()
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn observe_forwarded(
        &mut self,
        seq: u64,
        user: u64,
        at: i64,
        area: f64,
        duration: i64,
        generalized: bool,
        hk_ok: bool,
        service: Option<u64>,
        k_req: Option<u64>,
        k_got: Option<u64>,
        lbqid: Option<String>,
    ) {
        // Mode-gate checks: the journal itself establishes the mode, so
        // a forward it shows under degraded/read-only is the server
        // contradicting its own audit trail.
        match self.mode.unwrap_or(Mode::Normal) {
            Mode::ReadOnly => self.violations.push(Violation {
                seq,
                at,
                user: Some(user),
                kind: ViolationKind::ForwardWhileReadOnly,
                detail: "request forwarded while the journaled mode was read_only".into(),
            }),
            Mode::Degraded if !(generalized && hk_ok) => self.violations.push(Violation {
                seq,
                at,
                user: Some(user),
                kind: ViolationKind::ForwardWhileDegraded,
                detail: format!(
                    "non-protected forward (generalized={generalized}, hk_ok={hk_ok}) \
                     while the journaled mode was degraded"
                ),
            }),
            _ => {}
        }

        let u = timeline(&mut self.users, user);
        if generalized && !hk_ok && !u.at_risk_open() {
            self.violations.push(Violation {
                seq,
                at,
                user: Some(user),
                kind: ViolationKind::UnexplainedClamp,
                detail: "sub-k forward with no preceding at-risk notification".into(),
            });
        }

        if !generalized {
            self.totals.forwarded_exact += 1;
            u.forwarded_exact += 1;
            if let Some(s) = service {
                self.service(s).forwarded_exact += 1;
            }
            return;
        }

        if hk_ok {
            self.totals.forwarded_ok += 1;
            u.forwarded_ok += 1;
        } else {
            self.totals.forwarded_clamped += 1;
            u.forwarded_clamped += 1;
        }
        u.area_sum = add_area(u.area_sum, area);
        u.duration_sum = u.duration_sum.saturating_add(duration);
        if let (Some(req), Some(got)) = (k_req, k_got) {
            u.k_samples.push(KSample {
                at,
                k_req: req,
                k_got: got,
            });
            trim_front(self.cfg.sample_cap, &mut u.k_samples);
            u.min_k = Some(u.min_k.map_or(got, |m| m.min(got)));
        }
        self.overall_area_sum = add_area(self.overall_area_sum, area);
        self.overall_duration_sum = self.overall_duration_sum.saturating_add(duration);
        if let Some(s) = service {
            let row = self.service(s);
            if hk_ok {
                row.forwarded_ok += 1;
            } else {
                row.forwarded_clamped += 1;
            }
            row.area_sum = add_area(row.area_sum, area);
            row.duration_sum = row.duration_sum.saturating_add(duration);
            if let (Some(req), Some(got)) = (k_req, k_got) {
                row.k_req_sum = row.k_req_sum.saturating_add(req);
                row.k_got_sum = row.k_got_sum.saturating_add(got);
                row.k_samples += 1;
            }
        }
        if let Some(name) = lbqid {
            let row = self.lbqid(name);
            if hk_ok {
                row.forwarded_ok += 1;
            } else {
                row.forwarded_clamped += 1;
            }
            row.area_sum = add_area(row.area_sum, area);
            row.duration_sum = row.duration_sum.saturating_add(duration);
            if let Some(got) = k_got {
                row.k_got_sum = row.k_got_sum.saturating_add(got);
                row.k_samples += 1;
            }
        }
        if let (Some(req), Some(got)) = (k_req, k_got) {
            self.overall_k_req_sum = self.overall_k_req_sum.saturating_add(req);
            self.overall_k_got_sum = self.overall_k_got_sum.saturating_add(got);
            self.overall_k_samples += 1;
        }
    }

    /// Violations detected so far, in journal order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Aggregate counters so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// The mode the journal last established (`None` before the first
    /// `ts.mode_changed`).
    pub fn mode(&self) -> Option<Mode> {
        self.mode
    }

    /// Users with any journaled activity so far.
    pub fn users_tracked(&self) -> usize {
        self.users.len()
    }

    /// Schema issues recorded so far, as `(seq, message)` pairs.
    pub fn schema_issues(&self) -> &[(u64, String)] {
        &self.schema_issues
    }

    /// Checkpoint anchors seen so far, as `(seq, snapshot hash)` pairs
    /// (bounded by [`AuditConfig::sample_cap`] like other history).
    pub fn checkpoints(&self) -> &[(u64, String)] {
        &self.checkpoints
    }

    /// Smallest achieved anonymity-set size across every user so far.
    pub fn min_k(&self) -> Option<u64> {
        self.users.values().filter_map(|u| u.min_k).min()
    }

    /// Renders the state so far into an outcome **without** consuming
    /// the auditor — the live-tail path. For the same ingested records
    /// and the same `chain`, the result is identical to what
    /// [`finish`](Auditor::finish) would return.
    pub fn snapshot(&self, chain: crate::report::ChainSummary) -> crate::report::AuditOutcome {
        self.clone().finish(chain)
    }

    /// Consumes the replay state into the final outcome. `chain`
    /// summarizes what the [`hka_obs::JournalReader`] saw.
    pub fn finish(self, chain: crate::report::ChainSummary) -> crate::report::AuditOutcome {
        let mode_consistent = !self
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ModeLadderGap);
        crate::report::AuditOutcome {
            chain,
            cfg: self.cfg,
            users: self.users.into_values().collect(),
            services: self.services.into_values().collect(),
            lbqids: self.lbqids.into_values().collect(),
            mode_transitions: self.mode_transitions,
            mode_consistent,
            violations: self.violations,
            schema_issues: self.schema_issues,
            recoveries: self.recoveries,
            checkpoints: self.checkpoints,
            totals: self.totals,
            overall_k_req_sum: self.overall_k_req_sum,
            overall_k_got_sum: self.overall_k_got_sum,
            overall_k_samples: self.overall_k_samples,
            overall_area_sum: self.overall_area_sum,
            overall_duration_sum: self.overall_duration_sum,
        }
    }
}
