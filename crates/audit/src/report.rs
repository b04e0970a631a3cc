//! The audit outcome: canonical JSON and a plain-text report.

use hka_obs::Json;

use crate::timeline::{
    AuditConfig, LbqidRow, ModeTransition, ServiceRow, Totals, UserTimeline, Violation,
};

/// What the streaming chain verification saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Records that verified (the whole journal when `error` is none).
    pub records: u64,
    /// Hash of the last verified record.
    pub head: String,
    /// The first chain failure, if any — rendered as the reason the
    /// journal cannot be trusted past `records`.
    pub error: Option<String>,
}

impl ChainSummary {
    /// Whether every record verified.
    pub fn verified(&self) -> bool {
        self.error.is_none()
    }
}

/// Everything the replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// Chain verification summary.
    pub chain: ChainSummary,
    /// The reference tolerances the report was computed against.
    pub cfg: AuditConfig,
    /// Per-user anonymity timelines, ordered by user id.
    pub users: Vec<UserTimeline>,
    /// Per-service trade-off rows, ordered by service id.
    pub services: Vec<ServiceRow>,
    /// Per-LBQID trade-off rows, ordered by name.
    pub lbqids: Vec<LbqidRow>,
    /// Journaled mode transitions, in journal order.
    pub mode_transitions: Vec<ModeTransition>,
    /// Whether every transition's `from` matched the established mode.
    pub mode_consistent: bool,
    /// Detected violations, in journal order.
    pub violations: Vec<Violation>,
    /// Known kinds whose payloads were missing required v1 fields:
    /// `(seq, description)` — schema drift, surfaced loudly.
    pub schema_issues: Vec<(u64, String)>,
    /// `journal.recovered` records seen: `(truncated_bytes, valid_records)`.
    pub recoveries: Vec<(u64, u64)>,
    /// Checkpoint anchors seen: `(seq, snapshot content hash)`.
    pub checkpoints: Vec<(u64, String)>,
    /// Whole-journal aggregates.
    pub totals: Totals,
    pub(crate) overall_k_req_sum: u64,
    pub(crate) overall_k_got_sum: u64,
    pub(crate) overall_k_samples: u64,
    pub(crate) overall_area_sum: f64,
    pub(crate) overall_duration_sum: i64,
}

impl AuditOutcome {
    /// Whether the journal is clean: chain verified, no violations, no
    /// schema drift.
    pub fn ok(&self) -> bool {
        self.chain.verified() && self.violations.is_empty() && self.schema_issues.is_empty()
    }

    /// Mean requested k over generalized forwards with audit fields.
    pub fn mean_k_req(&self) -> f64 {
        if self.overall_k_samples == 0 {
            0.0
        } else {
            self.overall_k_req_sum as f64 / self.overall_k_samples as f64
        }
    }

    /// Mean achieved k over the same forwards.
    pub fn mean_k_got(&self) -> f64 {
        if self.overall_k_samples == 0 {
            0.0
        } else {
            self.overall_k_got_sum as f64 / self.overall_k_samples as f64
        }
    }

    /// Mean generalized area, m².
    pub fn mean_area(&self) -> f64 {
        let g = self.totals.forwarded_ok + self.totals.forwarded_clamped;
        if g == 0 {
            0.0
        } else {
            self.overall_area_sum / g as f64
        }
    }

    /// Mean generalized duration, seconds.
    pub fn mean_duration(&self) -> f64 {
        let g = self.totals.forwarded_ok + self.totals.forwarded_clamped;
        if g == 0 {
            0.0
        } else {
            self.overall_duration_sum as f64 / g as f64
        }
    }

    /// Mean area as a fraction of the reference spatial tolerance —
    /// the QoS-loss axis of the trade-off triangle. `None` without a
    /// configured tolerance.
    pub fn area_inflation(&self) -> Option<f64> {
        self.cfg.space_tol.map(|tol| {
            if tol <= 0.0 {
                0.0
            } else {
                self.mean_area() / tol
            }
        })
    }

    /// Mean duration as a fraction of the reference temporal tolerance.
    pub fn duration_inflation(&self) -> Option<f64> {
        self.cfg.time_tol.map(|tol| {
            if tol <= 0 {
                0.0
            } else {
                self.mean_duration() / tol as f64
            }
        })
    }

    /// The whole outcome as canonical JSON (sorted keys, one line via
    /// `to_string`).
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let chain = Json::obj([
            (
                "error",
                self.chain.error.as_deref().map_or(Json::Null, Json::from),
            ),
            ("head", Json::from(self.chain.head.as_str())),
            ("records", Json::from(self.chain.records)),
            ("verified", Json::Bool(self.chain.verified())),
        ]);
        let config = Json::obj([
            (
                "sample_cap",
                self.cfg
                    .sample_cap
                    .map_or(Json::Null, |c| Json::Int(c as i64)),
            ),
            ("space_tol", opt_num(self.cfg.space_tol)),
            ("time_tol", self.cfg.time_tol.map_or(Json::Null, Json::Int)),
        ]);
        let modes = Json::obj([
            ("consistent", Json::Bool(self.mode_consistent)),
            (
                "transitions",
                Json::Arr(
                    self.mode_transitions
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("at", Json::Int(t.at)),
                                ("from", Json::from(t.from.as_str())),
                                ("seq", Json::from(t.seq)),
                                ("to", Json::from(t.to.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let suppressed = |map: &std::collections::BTreeMap<String, u64>| {
            Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            )
        };
        let totals = Json::obj([
            ("at_risk", Json::from(self.totals.at_risk)),
            ("events", Json::from(self.totals.events)),
            ("forwarded", Json::from(self.totals.forwarded())),
            (
                "forwarded_clamped",
                Json::from(self.totals.forwarded_clamped),
            ),
            ("forwarded_exact", Json::from(self.totals.forwarded_exact)),
            ("forwarded_ok", Json::from(self.totals.forwarded_ok)),
            ("hk_success_rate", Json::Num(self.totals.hk_success_rate())),
            ("lbqid_matches", Json::from(self.totals.lbqid_matches)),
            ("requests", Json::from(self.totals.requests())),
            ("suppressed", suppressed(&self.totals.suppressed)),
            (
                "suppressed_total",
                Json::from(self.totals.suppressed_total()),
            ),
            ("unknown_kinds", Json::from(self.totals.unknown_kinds)),
            (
                "unlink_frequency",
                Json::Num(self.totals.unlink_frequency()),
            ),
            ("unlinks", Json::from(self.totals.unlinks)),
        ]);
        let per_service = Json::Arr(
            self.services
                .iter()
                .map(|s| {
                    Json::obj([
                        ("forwarded", Json::from(s.forwarded())),
                        ("forwarded_clamped", Json::from(s.forwarded_clamped)),
                        ("forwarded_exact", Json::from(s.forwarded_exact)),
                        ("forwarded_ok", Json::from(s.forwarded_ok)),
                        ("hk_success_rate", Json::Num(s.hk_success_rate())),
                        ("interruption_rate", Json::Num(s.interruption_rate())),
                        ("mean_area", Json::Num(s.mean_area())),
                        ("mean_duration", Json::Num(s.mean_duration())),
                        ("mean_k_got", Json::Num(s.mean_k_got())),
                        ("mean_k_req", Json::Num(s.mean_k_req())),
                        ("service", Json::from(s.service)),
                        ("suppressed", Json::from(s.suppressed)),
                    ])
                })
                .collect(),
        );
        let per_lbqid = Json::Arr(
            self.lbqids
                .iter()
                .map(|l| {
                    Json::obj([
                        ("at_risk", Json::from(l.at_risk)),
                        ("forwarded_clamped", Json::from(l.forwarded_clamped)),
                        ("forwarded_ok", Json::from(l.forwarded_ok)),
                        ("lbqid", Json::from(l.lbqid.as_str())),
                        ("matches", Json::from(l.matches)),
                        ("mean_area", Json::Num(l.mean_area())),
                        ("mean_duration", Json::Num(l.mean_duration())),
                        ("mean_k_got", Json::Num(l.mean_k_got())),
                    ])
                })
                .collect(),
        );
        let overall = Json::obj([
            ("area_inflation", opt_num(self.area_inflation())),
            ("duration_inflation", opt_num(self.duration_inflation())),
            ("hk_success_rate", Json::Num(self.totals.hk_success_rate())),
            ("mean_area", Json::Num(self.mean_area())),
            ("mean_duration", Json::Num(self.mean_duration())),
            ("mean_k_got", Json::Num(self.mean_k_got())),
            ("mean_k_req", Json::Num(self.mean_k_req())),
            (
                "unlink_frequency",
                Json::Num(self.totals.unlink_frequency()),
            ),
        ]);
        let users = Json::Arr(
            self.users
                .iter()
                .map(|u| {
                    Json::obj([
                        (
                            "at_risk_windows",
                            Json::Arr(
                                u.at_risk_windows
                                    .iter()
                                    .map(|(start, end)| {
                                        Json::Arr(vec![
                                            Json::Int(*start),
                                            end.map_or(Json::Null, Json::Int),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "forwarded",
                            Json::obj([
                                ("clamped", Json::from(u.forwarded_clamped)),
                                ("exact", Json::from(u.forwarded_exact)),
                                ("ok", Json::from(u.forwarded_ok)),
                            ]),
                        ),
                        (
                            "k_timeline",
                            Json::Arr(
                                u.k_samples
                                    .iter()
                                    .map(|s| {
                                        Json::Arr(vec![
                                            Json::Int(s.at),
                                            Json::from(s.k_req),
                                            Json::from(s.k_got),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("mean_area", Json::Num(u.mean_area())),
                        ("mean_duration", Json::Num(u.mean_duration())),
                        ("min_k", u.min_k.map_or(Json::Null, Json::from)),
                        ("suppressed", suppressed(&u.suppressed)),
                        (
                            "unlinks",
                            Json::Arr(u.unlinks.iter().map(|t| Json::Int(*t)).collect()),
                        ),
                        ("user", Json::from(u.user)),
                    ])
                })
                .collect(),
        );
        let violations = Json::Arr(
            self.violations
                .iter()
                .map(|v| {
                    Json::obj([
                        ("at", Json::Int(v.at)),
                        ("detail", Json::from(v.detail.as_str())),
                        ("kind", Json::from(v.kind.as_str())),
                        ("seq", Json::from(v.seq)),
                        ("user", v.user.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        );
        let schema_issues = Json::Arr(
            self.schema_issues
                .iter()
                .map(|(seq, issue)| {
                    Json::obj([
                        ("issue", Json::from(issue.as_str())),
                        ("seq", Json::from(*seq)),
                    ])
                })
                .collect(),
        );
        let recoveries = Json::Arr(
            self.recoveries
                .iter()
                .map(|(bytes, records)| {
                    Json::obj([
                        ("truncated_bytes", Json::from(*bytes)),
                        ("valid_records", Json::from(*records)),
                    ])
                })
                .collect(),
        );
        let checkpoints = Json::Arr(
            self.checkpoints
                .iter()
                .map(|(seq, hash)| {
                    Json::obj([
                        ("seq", Json::from(*seq)),
                        ("snapshot", Json::from(hash.as_str())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("chain", chain),
            ("checkpoints", checkpoints),
            ("config", config),
            ("modes", modes),
            ("ok", Json::Bool(self.ok())),
            ("recoveries", recoveries),
            ("schema_issues", schema_issues),
            ("totals", totals),
            (
                "trade_off",
                Json::obj([
                    ("overall", overall),
                    ("per_lbqid", per_lbqid),
                    ("per_service", per_service),
                ]),
            ),
            ("users", users),
            ("violations", violations),
        ])
    }

    /// A plain-text report for terminals.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "hka-audit report");
        match &self.chain.error {
            None => {
                let _ = writeln!(
                    out,
                    "  chain: VERIFIED ({} records, head {}…)",
                    self.chain.records,
                    &self.chain.head[..12.min(self.chain.head.len())]
                );
            }
            Some(e) => {
                let _ = writeln!(
                    out,
                    "  chain: FAILED after {} verified records: {e}",
                    self.chain.records
                );
            }
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  events: {} | forwarded {} (exact {}, hk-ok {}, clamped {}) | suppressed {} | \
             unlinks {} | at-risk {} | matches {}",
            t.events,
            t.forwarded(),
            t.forwarded_exact,
            t.forwarded_ok,
            t.forwarded_clamped,
            t.suppressed_total(),
            t.unlinks,
            t.at_risk,
            t.lbqid_matches,
        );
        if !self.recoveries.is_empty() {
            let bytes = (self.recoveries.iter()).fold(0u64, |sum, (b, _)| sum.saturating_add(*b));
            let _ = writeln!(
                out,
                "  recoveries: {} (total {} bytes truncated)",
                self.recoveries.len(),
                bytes
            );
        }
        if !self.checkpoints.is_empty() {
            let (seq, hash) = self.checkpoints.last().unwrap();
            let _ = writeln!(
                out,
                "  checkpoints: {} (latest at seq {seq}, snapshot {}…)",
                self.checkpoints.len(),
                &hash[..12.min(hash.len())]
            );
        }
        let _ = writeln!(
            out,
            "  mode ladder: {} ({} transitions)",
            if self.mode_consistent {
                "consistent"
            } else {
                "INCONSISTENT"
            },
            self.mode_transitions.len()
        );
        for tr in &self.mode_transitions {
            let _ = writeln!(
                out,
                "    [seq {:>6}] t={:<10} {} -> {}",
                tr.seq,
                tr.at,
                tr.from.as_str(),
                tr.to.as_str()
            );
        }
        let _ = writeln!(
            out,
            "  trade-off: mean k_req {:.2}, mean k_got {:.2}, hk-success {:.1}%, mean area \
             {:.0} m², mean duration {:.0} s, unlink frequency {:.4}",
            self.mean_k_req(),
            self.mean_k_got(),
            100.0 * t.hk_success_rate(),
            self.mean_area(),
            self.mean_duration(),
            t.unlink_frequency(),
        );
        if let (Some(a), Some(d)) = (self.area_inflation(), self.duration_inflation()) {
            let _ = writeln!(
                out,
                "  QoS inflation vs tolerance: area {:.1}%, duration {:.1}%",
                100.0 * a,
                100.0 * d
            );
        }
        if !self.services.is_empty() {
            let _ = writeln!(
                out,
                "  per service:  service    fwd  exact  hk-ok%  mean-k  mean-area  \
                 mean-dur  suppr  interrupt%"
            );
            for s in &self.services {
                let _ = writeln!(
                    out,
                    "                {:>7} {:>6} {:>6} {:>6.1} {:>7.2} {:>10.0} {:>9.0} {:>6} {:>10.1}",
                    s.service,
                    s.forwarded(),
                    s.forwarded_exact,
                    100.0 * s.hk_success_rate(),
                    s.mean_k_got(),
                    s.mean_area(),
                    s.mean_duration(),
                    s.suppressed,
                    100.0 * s.interruption_rate(),
                );
            }
        }
        if !self.lbqids.is_empty() {
            let _ = writeln!(
                out,
                "  per LBQID:    name                 hk-ok  clamped  matches  at-risk  mean-k"
            );
            for l in &self.lbqids {
                let _ = writeln!(
                    out,
                    "                {:<20} {:>5} {:>8} {:>8} {:>8} {:>7.2}",
                    l.lbqid,
                    l.forwarded_ok,
                    l.forwarded_clamped,
                    l.matches,
                    l.at_risk,
                    l.mean_k_got(),
                );
            }
        }
        let protected = self.users.iter().filter(|u| u.generalized() > 0).count();
        let _ = writeln!(
            out,
            "  users audited: {} ({} with generalized traffic)",
            self.users.len(),
            protected
        );
        if !self.schema_issues.is_empty() {
            let _ = writeln!(out, "  SCHEMA ISSUES: {}", self.schema_issues.len());
            for (seq, issue) in self.schema_issues.iter().take(10) {
                let _ = writeln!(out, "    [seq {seq:>6}] {issue}");
            }
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  theorem-1 / fail-closed violations: none");
        } else {
            let _ = writeln!(
                out,
                "  theorem-1 / fail-closed VIOLATIONS: {}",
                self.violations.len()
            );
            for v in self.violations.iter().take(20) {
                let _ = writeln!(
                    out,
                    "    [seq {:>6}] t={:<10} user={} {}: {}",
                    v.seq,
                    v.at,
                    v.user.map_or("-".to_string(), |u| u.to_string()),
                    v.kind.as_str(),
                    v.detail
                );
            }
        }
        out
    }
}
