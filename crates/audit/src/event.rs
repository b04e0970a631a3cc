//! Decoding journal records into the audit event vocabulary.
//!
//! The decoder works from the on-disk payload schema alone (kind tags
//! and field names as written by `hka-core`'s `TsEvent::payload`), not
//! from the server's types: the auditor is a second, independent
//! implementation of the schema, which is exactly what makes it a drift
//! guard. A known kind with missing or mistyped required fields decodes
//! to an error; an unknown kind is tolerated and counted (forward
//! compatibility within a journal version: fields and kinds may be
//! added, never changed or removed).
//!
//! Journal v2 adds one payload form: an exact forward journaled as the
//! point `{"at","service","user","x","y"}`, its omitted members restored
//! to the defaults the writer left out (DESIGN.md §9.3). It is a schema
//! issue on a v1 line.

use std::borrow::Cow;

use hka_obs::{JournalRecord, Json, Payload, RecordRef, Scalar};

/// Server operating mode as journaled in `ts.mode_changed` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Full service.
    Normal,
    /// Journal writes failing: only demonstrably protected requests flow.
    Degraded,
    /// Journal down: nothing flows.
    ReadOnly,
}

impl Mode {
    /// Parses the on-disk mode string.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "normal" => Some(Mode::Normal),
            "degraded" => Some(Mode::Degraded),
            "read_only" => Some(Mode::ReadOnly),
            _ => None,
        }
    }

    /// The on-disk mode string.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Normal => "normal",
            Mode::Degraded => "degraded",
            Mode::ReadOnly => "read_only",
        }
    }
}

/// One journal record decoded for analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// A request went out to a service provider.
    Forwarded {
        /// Issuing user.
        user: u64,
        /// Request instant (seconds).
        at: i64,
        /// Area of the disclosed context, m² (0 for exact points).
        area: f64,
        /// Duration of the disclosed context, seconds.
        duration: i64,
        /// Whether the context was generalized by Algorithm 1.
        generalized: bool,
        /// Whether the generalization met full HK-anonymity.
        hk_ok: bool,
        /// Service class (absent in pre-audit v1 journals).
        service: Option<u64>,
        /// Requested k after the k′ schedule (absent in older journals).
        k_req: Option<u64>,
        /// Achieved anonymity-set size (absent in older journals).
        k_got: Option<u64>,
        /// Matched LBQID name (null/absent for non-pattern forwards).
        lbqid: Option<String>,
    },
    /// A request was suppressed.
    Suppressed {
        /// Issuing user.
        user: u64,
        /// Request instant.
        at: i64,
        /// On-disk reason string (`mix_zone`, `risk_policy`, `degraded`).
        reason: String,
        /// Service class (absent in older journals).
        service: Option<u64>,
    },
    /// A successful unlink changed the user's pseudonym.
    PseudonymChanged {
        /// The user.
        user: u64,
        /// When.
        at: i64,
    },
    /// Generalization failed and unlinking was infeasible.
    AtRisk {
        /// The user.
        user: u64,
        /// When.
        at: i64,
        /// LBQID concerned.
        lbqid: String,
    },
    /// A full LBQID match completed under one pseudonym.
    LbqidMatched {
        /// The user.
        user: u64,
        /// When.
        at: i64,
        /// The LBQID.
        lbqid: String,
    },
    /// The server's operating mode changed.
    ModeChanged {
        /// When.
        at: i64,
        /// Mode left behind.
        from: Mode,
        /// Mode entered.
        to: Mode,
    },
    /// `Journal::recover` truncated a crashed file.
    JournalRecovered {
        /// Bytes dropped off the torn tail.
        truncated_bytes: u64,
        /// Records in the surviving prefix.
        valid_records: u64,
    },
    /// A checkpoint snapshot was anchored into the chain.
    Checkpoint {
        /// Chain records the snapshot covers (= the record's seq).
        records: u64,
        /// Snapshot file name.
        file: String,
        /// Content hash the snapshot file must have.
        snapshot: String,
    },
    /// A kind this auditor does not know — tolerated and counted.
    Unknown,
}

/// A payload's fields, read one at a time: the decoder's one accessor,
/// so the same code decodes a parsed tree and a verified line.
trait Fields {
    /// The member `name`, if present.
    fn field(&self, name: &str) -> Option<Scalar<'_>>;
    /// How many members the payload has (0 when it is no object).
    fn members(&self) -> usize;
}

impl Fields for Json {
    fn field(&self, name: &str) -> Option<Scalar<'_>> {
        self.get(name).map(Scalar::of)
    }
    fn members(&self) -> usize {
        match self {
            Json::Obj(members) => members.len(),
            _ => 0,
        }
    }
}

/// A verified line's canonical payload: its top-level members, read off
/// the line's bytes, numbers as the verifier parsed them.
impl Fields for Payload<'_> {
    fn field(&self, name: &str) -> Option<Scalar<'_>> {
        self.get(name)
    }
    fn members(&self) -> usize {
        self.member_count()
    }
}

fn mistyped(kind: &str, name: &str) -> String {
    format!("{kind}: missing or mistyped '{name}'")
}

fn req_int(p: &impl Fields, kind: &str, name: &str) -> Result<i64, String> {
    p.field(name)
        .and_then(|v| v.as_int())
        .ok_or_else(|| mistyped(kind, name))
}

fn req_u64(p: &impl Fields, kind: &str, name: &str) -> Result<u64, String> {
    let v = req_int(p, kind, name)?;
    u64::try_from(v).map_err(|_| format!("{kind}: '{name}' is negative"))
}

fn req_f64(p: &impl Fields, kind: &str, name: &str) -> Result<f64, String> {
    p.field(name)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| mistyped(kind, name))
}

fn req_bool(p: &impl Fields, kind: &str, name: &str) -> Result<bool, String> {
    p.field(name)
        .and_then(|v| v.as_bool())
        .ok_or_else(|| mistyped(kind, name))
}

fn opt_str(p: &impl Fields, name: &str) -> Option<String> {
    p.field(name)
        .and_then(Scalar::into_str)
        .map(Cow::into_owned)
}

fn req_str(p: &impl Fields, kind: &str, name: &str) -> Result<String, String> {
    opt_str(p, name).ok_or_else(|| mistyped(kind, name))
}

fn opt_u64(p: &impl Fields, name: &str) -> Option<u64> {
    p.field(name)
        .and_then(|v| v.as_int())
        .and_then(|v| u64::try_from(v).ok())
}

/// Decodes one verified journal record. `Err` means a *known* kind did
/// not carry the fields its record's version requires — schema drift
/// the audit must surface, not paper over.
pub fn decode(record: &JournalRecord) -> Result<AuditEvent, String> {
    let position = (record.version, record.seq, record.prev.as_str());
    decode_fields(&record.kind, position, &record.payload)
}

/// [`decode`] for a record the journal's verifier admitted
/// ([`hka_obs::JournalReader::next_ref`], or the block driver
/// [`hka_obs::JournalReader::for_each_parallel`]): the same decoder,
/// reading fields off the line.
pub fn decode_ref(record: &RecordRef<'_>) -> Result<AuditEvent, String> {
    let position = (record.version, record.seq, record.prev.as_ref());
    decode_fields(&record.kind, position, &record.payload)
}

/// The one decoder: a record's kind, `(version, seq, prev)` and payload
/// fields into an audit event.
fn decode_fields(
    kind: &str,
    (version, seq, prev): (i64, u64, &str),
    p: &impl Fields,
) -> Result<AuditEvent, String> {
    match kind {
        // The point form: an exact forward, every omitted member at the
        // default the writer left out, the context the point at `at`.
        "ts.forwarded" if p.field("x").is_some() => {
            if version < 2 {
                return Err(format!("{kind}: the point form on a v{version} line"));
            }
            if p.members() != 5 {
                return Err(format!(
                    "{kind}: the point form has exactly 'at', 'service', 'user', 'x', 'y'"
                ));
            }
            req_f64(p, kind, "x")?;
            req_f64(p, kind, "y")?;
            Ok(AuditEvent::Forwarded {
                user: req_u64(p, kind, "user")?,
                at: req_int(p, kind, "at")?,
                area: 0.0,
                duration: 0,
                generalized: false,
                hk_ok: true,
                service: Some(req_u64(p, kind, "service")?),
                k_req: Some(0),
                k_got: Some(0),
                lbqid: None,
            })
        }
        "ts.forwarded" => {
            let x_min = req_f64(p, kind, "x_min")?;
            let y_min = req_f64(p, kind, "y_min")?;
            let x_max = req_f64(p, kind, "x_max")?;
            let y_max = req_f64(p, kind, "y_max")?;
            let t_start = req_int(p, kind, "t_start")?;
            let t_end = req_int(p, kind, "t_end")?;
            // The chain proves who wrote a record, not that its values
            // are sane: the hash is unkeyed, so anyone can chain a
            // context whose duration or area does not fit its type.
            let duration = t_end
                .checked_sub(t_start)
                .ok_or_else(|| format!("{kind}: 't_end' - 't_start' overflows"))?;
            let area = (x_max - x_min) * (y_max - y_min);
            if !area.is_finite() {
                return Err(format!("{kind}: the context's area is not finite"));
            }
            Ok(AuditEvent::Forwarded {
                user: req_u64(p, kind, "user")?,
                at: req_int(p, kind, "at")?,
                area,
                duration,
                generalized: req_bool(p, kind, "generalized")?,
                hk_ok: req_bool(p, kind, "hk_ok")?,
                service: opt_u64(p, "service"),
                k_req: opt_u64(p, "k_req"),
                k_got: opt_u64(p, "k_got"),
                lbqid: opt_str(p, "lbqid"),
            })
        }
        "ts.suppressed" => Ok(AuditEvent::Suppressed {
            user: req_u64(p, kind, "user")?,
            at: req_int(p, kind, "at")?,
            reason: req_str(p, kind, "reason")?,
            service: opt_u64(p, "service"),
        }),
        "ts.pseudonym_changed" => Ok(AuditEvent::PseudonymChanged {
            user: req_u64(p, kind, "user")?,
            at: req_int(p, kind, "at")?,
        }),
        "ts.at_risk" => Ok(AuditEvent::AtRisk {
            user: req_u64(p, kind, "user")?,
            at: req_int(p, kind, "at")?,
            lbqid: req_str(p, kind, "lbqid")?,
        }),
        "ts.lbqid_matched" => Ok(AuditEvent::LbqidMatched {
            user: req_u64(p, kind, "user")?,
            at: req_int(p, kind, "at")?,
            lbqid: req_str(p, kind, "lbqid")?,
        }),
        "ts.mode_changed" => {
            let from = req_str(p, kind, "from")?;
            let to = req_str(p, kind, "to")?;
            Ok(AuditEvent::ModeChanged {
                at: req_int(p, kind, "at")?,
                from: Mode::parse(&from).ok_or_else(|| format!("{kind}: unknown mode '{from}'"))?,
                to: Mode::parse(&to).ok_or_else(|| format!("{kind}: unknown mode '{to}'"))?,
            })
        }
        "journal.recovered" => Ok(AuditEvent::JournalRecovered {
            truncated_bytes: req_u64(p, kind, "truncated_bytes")?,
            valid_records: req_u64(p, kind, "valid_records")?,
        }),
        "checkpoint" => {
            let records = req_u64(p, kind, "records")?;
            let head = req_str(p, kind, "head")?;
            // The anchor rule is part of the schema: the payload must
            // agree with the record's own chain position. A checkpoint
            // record that lies about where it sits is drift the audit
            // surfaces, exactly like a missing field.
            if records != seq {
                return Err(format!(
                    "{kind}: anchor covers {records} records but record sits at seq {seq}"
                ));
            }
            if head != prev {
                return Err(format!("{kind}: anchor head does not match record prev"));
            }
            Ok(AuditEvent::Checkpoint {
                records,
                file: req_str(p, kind, "file")?,
                snapshot: req_str(p, kind, "snapshot")?,
            })
        }
        _ => Ok(AuditEvent::Unknown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_obs::{Journal, JournalReader};

    fn record(kind: &str, payload: Json) -> JournalRecord {
        JournalRecord {
            version: 1,
            seq: 0,
            kind: kind.to_string(),
            payload,
            prev: String::new(),
            hash: String::new(),
        }
    }

    #[test]
    fn forwarded_decodes_area_and_optional_audit_fields() {
        let payload = Json::obj([
            ("user", Json::Int(7)),
            ("at", Json::Int(100)),
            ("x_min", Json::Num(0.0)),
            ("y_min", Json::Num(0.0)),
            ("x_max", Json::Num(10.0)),
            ("y_max", Json::Num(20.0)),
            ("t_start", Json::Int(90)),
            ("t_end", Json::Int(110)),
            ("generalized", Json::Bool(true)),
            ("hk_ok", Json::Bool(true)),
            ("service", Json::Int(2)),
            ("k_req", Json::Int(5)),
            ("k_got", Json::Int(5)),
            ("lbqid", Json::from("commute")),
        ]);
        match decode(&record("ts.forwarded", payload)).unwrap() {
            AuditEvent::Forwarded {
                user,
                area,
                duration,
                service,
                k_req,
                lbqid,
                ..
            } => {
                assert_eq!(user, 7);
                assert_eq!(area, 200.0);
                assert_eq!(duration, 20);
                assert_eq!(service, Some(2));
                assert_eq!(k_req, Some(5));
                assert_eq!(lbqid.as_deref(), Some("commute"));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn forwarded_without_audit_fields_still_decodes() {
        // A journal written before the audit fields existed (same v1
        // schema, additive fields): required fields suffice.
        let payload = Json::obj([
            ("user", Json::Int(1)),
            ("at", Json::Int(0)),
            ("x_min", Json::Num(1.0)),
            ("y_min", Json::Num(1.0)),
            ("x_max", Json::Num(1.0)),
            ("y_max", Json::Num(1.0)),
            ("t_start", Json::Int(0)),
            ("t_end", Json::Int(0)),
            ("generalized", Json::Bool(false)),
            ("hk_ok", Json::Bool(true)),
        ]);
        match decode(&record("ts.forwarded", payload)).unwrap() {
            AuditEvent::Forwarded {
                service,
                k_req,
                k_got,
                lbqid,
                ..
            } => {
                assert_eq!((service, k_req, k_got, lbqid), (None, None, None, None));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn the_point_form_restores_the_defaults_on_v2_only() {
        let point = Json::obj([
            ("at", Json::Int(100)),
            ("service", Json::Int(2)),
            ("user", Json::Int(7)),
            ("x", Json::Num(1.5)),
            ("y", Json::Num(-2.0)),
        ]);
        let mut rec = record("ts.forwarded", point.clone());
        rec.version = 2;
        assert_eq!(
            decode(&rec).unwrap(),
            AuditEvent::Forwarded {
                user: 7,
                at: 100,
                area: 0.0,
                duration: 0,
                generalized: false,
                hk_ok: true,
                service: Some(2),
                k_req: Some(0),
                k_got: Some(0),
                lbqid: None,
            }
        );
        rec.version = 1;
        let err = decode(&rec).unwrap_err();
        assert!(err.contains("point form on a v1 line"), "{err}");
        // Only the five members: anything more is no point form.
        let Json::Obj(mut members) = point else {
            unreachable!()
        };
        members.insert("generalized".to_string(), Json::Bool(true));
        let mut rec = record("ts.forwarded", Json::Obj(members));
        rec.version = 2;
        assert!(decode(&rec).unwrap_err().contains("exactly"));
    }

    #[test]
    fn missing_required_field_is_a_schema_issue() {
        let payload = Json::obj([("at", Json::Int(0))]);
        let err = decode(&record("ts.suppressed", payload)).unwrap_err();
        assert!(err.contains("user"), "error names the field: {err}");
    }

    #[test]
    fn unknown_kind_is_tolerated() {
        assert_eq!(
            decode(&record("ts.some_future_thing", Json::Null)).unwrap(),
            AuditEvent::Unknown
        );
    }

    #[test]
    fn checkpoint_decode_enforces_the_anchor_rule() {
        let payload = |records: i64, head: &str| {
            Json::obj([
                ("records", Json::Int(records)),
                ("head", Json::from(head)),
                ("file", Json::from("checkpoint-000005.snap")),
                ("snapshot", Json::from("abc123")),
            ])
        };
        let mut rec = record("checkpoint", payload(5, "feedbeef"));
        rec.seq = 5;
        rec.prev = "feedbeef".to_string();
        match decode(&rec).unwrap() {
            AuditEvent::Checkpoint {
                records,
                file,
                snapshot,
            } => {
                assert_eq!(records, 5);
                assert_eq!(file, "checkpoint-000005.snap");
                assert_eq!(snapshot, "abc123");
            }
            other => panic!("decoded {other:?}"),
        }

        // Wrong seq: the payload claims a different chain position.
        let mut lies = record("checkpoint", payload(4, "feedbeef"));
        lies.seq = 5;
        lies.prev = "feedbeef".to_string();
        let err = decode(&lies).unwrap_err();
        assert!(err.contains("seq"), "error names the mismatch: {err}");

        // Wrong head: the payload disagrees with the record's prev hash.
        let mut lies = record("checkpoint", payload(5, "0000beef"));
        lies.seq = 5;
        lies.prev = "feedbeef".to_string();
        let err = decode(&lies).unwrap_err();
        assert!(err.contains("prev"), "error names the mismatch: {err}");
    }

    /// A complete payload of every kind the decoder knows, and one it
    /// does not. `checkpoint` anchors at `(seq, prev)`.
    fn complete_payloads(seq: u64, prev: &str) -> Vec<(&'static str, Json)> {
        let user_at =
            |extra: (&str, Json)| Json::obj([("user", Json::Int(3)), ("at", Json::Int(90)), extra]);
        vec![
            (
                "ts.forwarded",
                Json::obj([
                    ("user", Json::Int(7)),
                    ("at", Json::Int(100)),
                    ("x_min", Json::Num(252.392_294_842_517_34)),
                    ("y_min", Json::Int(-3)),
                    ("x_max", Json::Num(1e15)),
                    ("y_max", Json::Num(20.0)),
                    ("t_start", Json::Int(90)),
                    ("t_end", Json::Int(110)),
                    ("generalized", Json::Bool(true)),
                    ("hk_ok", Json::Bool(false)),
                    ("service", Json::Int(2)),
                    ("k_req", Json::Int(5)),
                    ("k_got", Json::Int(2)),
                    ("lbqid", Json::from("caf\u{e9} \"commute\"\n")),
                ]),
            ),
            (
                "ts.forwarded",
                Json::obj([
                    ("at", Json::Int(100)),
                    ("service", Json::Int(2)),
                    ("user", Json::Int(7)),
                    ("x", Json::Num(-0.0)),
                    ("y", Json::Num(1e15)),
                ]),
            ),
            (
                "ts.suppressed",
                Json::obj([
                    ("user", Json::Int(3)),
                    ("at", Json::Int(90)),
                    ("reason", Json::from("mix_zone")),
                    ("service", Json::Int(0)),
                ]),
            ),
            ("ts.pseudonym_changed", user_at(("extra", Json::Null))),
            ("ts.at_risk", user_at(("lbqid", Json::from("commute")))),
            ("ts.lbqid_matched", user_at(("lbqid", Json::from("\u{1}")))),
            (
                "ts.mode_changed",
                Json::obj([
                    ("at", Json::Int(5)),
                    ("from", Json::from("normal")),
                    ("to", Json::from("read_only")),
                ]),
            ),
            (
                "journal.recovered",
                Json::obj([
                    ("truncated_bytes", Json::Int(57)),
                    ("valid_records", Json::Int(12)),
                ]),
            ),
            (
                "checkpoint",
                Json::obj([
                    ("records", Json::from(seq)),
                    ("head", Json::from(prev)),
                    ("file", Json::from("checkpoint-000005.snap")),
                    ("snapshot", Json::from("abc123")),
                ]),
            ),
            ("ts.some_future_thing", Json::obj([("x", Json::Int(1))])),
        ]
    }

    #[test]
    fn the_line_decoder_equals_the_tree_decoder() {
        // Every kind: complete, each field missing, each field of every
        // other type, an extra field, and payloads that are no object.
        let wrong = [
            Json::Null,
            Json::Bool(true),
            Json::Int(-3),
            Json::Int(i64::MAX),
            Json::Num(2.5),
            Json::Num(-0.0),
            Json::from("read_only"),
            Json::from("x\\y"),
            Json::Arr(vec![Json::Int(1)]),
            Json::obj([("user", Json::Int(1))]),
        ];
        let mut journal = Journal::new(Vec::new());
        let mut appended = 0;
        for variant in 0.. {
            let mut any = false;
            for (kind, payload) in complete_payloads(journal.next_seq(), journal.head()) {
                let Json::Obj(members) = payload else {
                    unreachable!("complete payloads are objects")
                };
                let names: Vec<String> = members.keys().cloned().collect();
                let mut variants = vec![Json::Obj(members.clone())];
                for name in &names {
                    let mut missing = members.clone();
                    missing.remove(name);
                    variants.push(Json::Obj(missing));
                    for value in &wrong {
                        let mut mistyped = members.clone();
                        mistyped.insert(name.clone(), value.clone());
                        variants.push(Json::Obj(mistyped));
                    }
                }
                let mut extra = members.clone();
                extra.insert("zz_added".to_string(), Json::from("later"));
                variants.extend([Json::Obj(extra), Json::Null, Json::Arr(Vec::new())]);
                if let Some(payload) = variants.get(variant) {
                    journal.append(kind, payload).unwrap();
                    appended += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let bytes = journal.into_inner();
        let owned: Vec<JournalRecord> = JournalReader::new(&bytes[..])
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(owned.len(), appended);
        let mut reader = JournalReader::new(&bytes[..]);
        let (mut decoded, mut issues) = (0, 0);
        for record in &owned {
            let lent = reader.next_ref().unwrap().unwrap();
            let (tree, line) = (decode(record), decode_ref(&lent));
            assert_eq!(tree, line, "{} {}", record.kind, record.payload);
            if tree.is_ok() {
                decoded += 1;
            } else {
                issues += 1;
            }
        }
        assert!(reader.next_ref().is_none());
        // Both outcomes were exercised, on every kind.
        assert!(
            decoded > 100 && issues > 100,
            "{decoded} decoded, {issues} issues"
        );
    }

    #[test]
    fn mode_strings_round_trip() {
        for m in [Mode::Normal, Mode::Degraded, Mode::ReadOnly] {
            assert_eq!(Mode::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mode::parse("sideways"), None);
    }
}
