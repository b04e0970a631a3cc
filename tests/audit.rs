//! Acceptance tests for the audit subsystem: two checked-in journal
//! fixtures of the same events — v1, which every later reader must
//! still verify and replay, and v2, which the encoder must keep writing
//! byte for byte (schema-drift guard) — a clean end-to-end replay (simulate → journal → audit) with verified
//! chain and zero Theorem-1 violations, and tampered / fail-open
//! journals on which the audit must detect what went wrong.

use hka::audit::{self, AuditConfig, ViolationKind};
use hka::core::SuppressReason;
use hka::obs;
use hka::prelude::*;
use std::io::Write;

mod common;
use common::SharedBuf;

/// Builds the fixture journal through the server's own encoder
/// (`TsEvent::kind`/`payload`): one record of every kind, both forms of
/// a forward, with fixed payloads. If the encoder's field names,
/// ordering, or hashing change, these bytes change — and the
/// byte-for-byte comparison against the checked-in v2 fixture fails,
/// which is exactly the point.
fn fixture_bytes() -> Vec<u8> {
    let context = StBox::new(
        Rect::new(Point { x: 100.0, y: 200.0 }, Point { x: 400.0, y: 600.0 }),
        TimeInterval::new(TimeSec(7_200), TimeSec(7_500)),
    );
    let events = vec![
        TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(7_260),
            context: StBox::point(StPoint::xyt(150.0, 250.0, TimeSec(7_260))),
            generalized: false,
            hk_ok: true,
            service: ServiceId(0),
            k_req: 0,
            k_got: 0,
            lbqid: None,
        },
        TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(7_300),
            context,
            generalized: true,
            hk_ok: true,
            service: ServiceId(1),
            k_req: 5,
            k_got: 6,
            lbqid: Some("commute".to_string()),
        },
        TsEvent::AtRisk {
            user: UserId(2),
            at: TimeSec(7_400),
            lbqid: "commute".to_string(),
        },
        TsEvent::Forwarded {
            user: UserId(2),
            at: TimeSec(7_420),
            context,
            generalized: true,
            hk_ok: false,
            service: ServiceId(1),
            k_req: 5,
            k_got: 2,
            lbqid: Some("commute".to_string()),
        },
        TsEvent::Suppressed {
            user: UserId(3),
            at: TimeSec(7_500),
            reason: SuppressReason::MixZone,
            service: ServiceId(0),
        },
        TsEvent::PseudonymChanged {
            user: UserId(2),
            old: Pseudonym(12),
            new: Pseudonym(13),
            at: TimeSec(7_600),
        },
        TsEvent::LbqidMatched {
            user: UserId(1),
            at: TimeSec(7_700),
            lbqid: "commute".to_string(),
        },
        TsEvent::ModeChanged {
            at: TimeSec(7_800),
            from: ServerMode::Normal,
            to: ServerMode::Degraded,
        },
        TsEvent::ModeChanged {
            at: TimeSec(7_900),
            from: ServerMode::Degraded,
            to: ServerMode::Normal,
        },
    ];
    let mut journal = obs::Journal::new(Vec::new());
    for e in &events {
        journal.append(e.kind(), e).unwrap();
    }
    // Non-TsEvent kinds that also live in v1 journals: the recovery
    // marker, and an unknown vendor kind the auditor must tolerate.
    journal
        .append(
            "journal.recovered",
            obs::Json::obj([
                ("truncated_bytes", obs::Json::Int(42)),
                ("valid_records", obs::Json::Int(9)),
            ]),
        )
        .unwrap();
    journal
        .append(
            "ts.vendor_extension",
            obs::Json::obj([("note", obs::Json::from("ignore me"))]),
        )
        .unwrap();
    journal.into_inner()
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read(path.join(name)).expect("fixture missing")
}

/// The v1 fixture is what the writer wrote before journal v2, kept as
/// it was: a static file, no longer regenerated. Every reader must still
/// take it — the chain verifies at v1 on every line, and it replays to
/// the same audit as the v2 fixture of the same events (the chain head
/// aside: other bytes, another hash).
#[test]
fn journal_v1_fixture_is_byte_stable() {
    let v1 = fixture("journal_v1.jsonl");
    let chain = obs::verify_chain(&v1[..]).expect("the v1 fixture verifies");
    assert_eq!(chain.records.len(), 11);
    assert!(chain.records.iter().all(|r| r.version == 1));

    let v2 = obs::verify_chain(&fixture_bytes()[..]).unwrap();
    assert!(v2.records.iter().all(|r| r.version == 2));
    // The same events, record by record: each kind, and each decoded
    // event, is the same under both versions.
    for (old, new) in chain.records.iter().zip(&v2.records) {
        assert_eq!(old.kind, new.kind);
        assert_eq!(audit::event::decode(old), audit::event::decode(new));
    }
    // The exact forward is the one record whose payload v2 shrank.
    let shrank: Vec<u64> = (chain.records.iter().zip(&v2.records))
        .filter(|(old, new)| old.payload != new.payload)
        .map(|(old, _)| old.seq)
        .collect();
    assert_eq!(shrank, [0]);

    let mut old = audit::replay(&v1[..], AuditConfig::default());
    let new = audit::replay(&fixture_bytes()[..], AuditConfig::default());
    assert!(old.ok() && old.chain.verified() && old.schema_issues.is_empty());
    assert_ne!(old.chain.head, new.chain.head);
    old.chain.head.clone_from(&new.chain.head);
    assert_eq!(old, new);
}

/// The v2 on-disk format is frozen: the journal the server's encoder
/// writes today must be byte-identical to the checked-in fixture.
/// Regenerate deliberately with `HKA_BLESS=1 cargo test -p hka
/// --test audit` after an additive schema change; anything else needs
/// a journal version bump (and keeps this file as a static fixture).
#[test]
fn journal_v2_fixture_is_byte_stable() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v2.jsonl");
    let generated = fixture_bytes();
    if std::env::var_os("HKA_BLESS").is_some() {
        std::fs::write(&path, &generated).unwrap();
    }
    let on_disk = std::fs::read(&path).expect("fixture missing: run with HKA_BLESS=1 once");
    assert_eq!(
        on_disk, generated,
        "journal v2 encoding drifted from tests/fixtures/journal_v2.jsonl; \
         additive payload fields are fine but require blessing the fixture \
         (HKA_BLESS=1), anything else needs a journal version bump"
    );
}

/// The auditor (an independent implementation of the schema) fully
/// understands the fixture: chain verified, every known kind decoded,
/// the one unknown kind tolerated, zero violations.
#[test]
fn auditor_reads_the_fixture_without_drift() {
    let out = audit::replay(&fixture_bytes()[..], AuditConfig::default());
    assert!(out.ok(), "violations: {:?}", out.violations);
    assert!(out.chain.verified());
    assert_eq!(out.chain.records, 11);
    assert_eq!(
        out.totals.unknown_kinds, 1,
        "only the vendor kind is unknown"
    );
    assert!(out.schema_issues.is_empty(), "{:?}", out.schema_issues);
    assert_eq!(out.totals.forwarded_exact, 1);
    assert_eq!(out.totals.forwarded_ok, 1);
    assert_eq!(out.totals.forwarded_clamped, 1);
    assert_eq!(out.totals.suppressed_total(), 1);
    assert_eq!(out.totals.unlinks, 1);
    assert_eq!(out.totals.lbqid_matches, 1);
    assert_eq!(out.recoveries, vec![(42, 9)]);
    assert!(out.mode_consistent);
    assert_eq!(out.mode_transitions.len(), 2);
    // The clamped forward is explained by the preceding at-risk notice,
    // and the unlink closes that user's at-risk window.
    let u2 = out.users.iter().find(|u| u.user == 2).unwrap();
    assert_eq!(u2.at_risk_windows, vec![(7_400, Some(7_600))]);
    assert_eq!(u2.unlinks, vec![7_600]);
}

/// One hand-chained line of schema version `version`, hashed under it.
fn line_v(version: i64, seq: u64, kind: &str, payload: &str, prev: &str) -> (String, String) {
    let hash =
        obs::sha256::sha256_hex(format!("v{version}:{seq}:{kind}:{payload}:{prev}").as_bytes());
    let line = format!(
        r#"{{"hash":"{hash}","kind":"{kind}","payload":{payload},"prev":"{prev}","seq":{seq},"v":{version}}}"#
    );
    (line + "\n", hash)
}

/// Mixed chains, as the auditor sees them: a v1 journal continued by
/// the v2 writer replays clean; a v1 line after a v2 line stops the
/// chain; the point form on a v1 line is a schema issue, on a v2 line an
/// exact forward.
#[test]
fn mixed_version_chains_replay_by_the_version_rule() {
    let tmp = std::env::temp_dir().join(format!("hka-audit-mixed-{}.jsonl", std::process::id()));
    std::fs::write(&tmp, fixture("journal_v1.jsonl")).unwrap();
    let (mut journal, report) = obs::recover(&tmp).unwrap();
    assert_eq!((report.valid_records, report.truncated_bytes), (11, 0));
    let exact = TsEvent::Forwarded {
        user: UserId(4),
        at: TimeSec(8_000),
        context: StBox::point(StPoint::xyt(1.5, -2.0, TimeSec(8_000))),
        generalized: false,
        hk_ok: true,
        service: ServiceId(3),
        k_req: 0,
        k_got: 0,
        lbqid: None,
    };
    journal.append(exact.kind(), &exact).unwrap();
    drop(journal);
    let bytes = std::fs::read(&tmp).unwrap();
    let _ = std::fs::remove_file(&tmp);
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(text
        .lines()
        .last()
        .unwrap()
        .ends_with(r#","seq":11,"v":2}"#));
    assert!(text.contains(r#""payload":{"at":8000,"service":3,"user":4,"x":1.5,"y":-2.0}"#));
    let out = audit::replay(&bytes[..], AuditConfig::default());
    assert!(out.chain.verified(), "{:?}", out.chain.error);
    assert_eq!(out.chain.records, 12);
    assert!(
        out.ok() && out.schema_issues.is_empty(),
        "{:?}",
        out.schema_issues
    );
    assert_eq!(out.totals.forwarded_exact, 2);

    // A v1 line after the v2 line: the chain ends before it.
    let (tail, _) = line_v(1, 12, "ts.vendor_extension", "{}", &out.chain.head);
    let out = audit::replay(format!("{text}{tail}").as_bytes(), AuditConfig::default());
    assert_eq!(out.chain.records, 12);
    assert!(
        out.chain
            .error
            .as_deref()
            .unwrap()
            .contains("schema version 1"),
        "{:?}",
        out.chain.error
    );

    // The point form is a v2 payload: valid at v2, drift at v1.
    let point = r#"{"at":5,"service":0,"user":1,"x":1.0,"y":2.0}"#;
    for (version, issues) in [(2, 0), (1, 1)] {
        let (line, _) = line_v(version, 0, "ts.forwarded", point, obs::GENESIS_HASH);
        let out = audit::replay(line.as_bytes(), AuditConfig::default());
        assert!(out.chain.verified());
        assert_eq!(
            out.schema_issues.len(),
            issues,
            "v{version}: {:?}",
            out.schema_issues
        );
        assert_eq!(out.totals.forwarded_exact, 1 - issues as u64);
    }
}

/// The version rule holds across a checkpoint: a v1 anchor right after
/// a v2 line is refused by `verify_chain` and by all three resume paths
/// (`resume_from_snapshot`, `state_at` from a snapshot and the resumed
/// tail), as a genesis replay refuses it. The same chain with a v2
/// anchor is admitted by all four, so the refusal is the version's.
#[test]
fn a_v1_anchor_after_a_v2_line_is_refused_on_every_resume_path() {
    let dir = std::env::temp_dir().join(format!("hka-audit-floor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, snap) = (dir.join("journal.jsonl"), dir.join("prefix.snap"));
    let mut journal = obs::Journal::new(Vec::new());
    for user in 0..3 {
        let exact = TsEvent::Forwarded {
            user: UserId(user),
            at: TimeSec(60 * user as i64),
            context: StBox::point(StPoint::xyt(1.0, 2.0, TimeSec(60 * user as i64))),
            generalized: false,
            hk_ok: true,
            service: ServiceId(0),
            k_req: 0,
            k_got: 0,
            lbqid: None,
        };
        journal.append(exact.kind(), &exact).unwrap();
    }
    let prefix = String::from_utf8(journal.into_inner()).unwrap();
    std::fs::write(&path, &prefix).unwrap();
    let (state, records, head) = audit::state_at(&path, None, AuditConfig::default()).unwrap();
    let mut snapshot = obs::Snapshot::new(records, head.clone());
    snapshot.set_section(audit::AUDIT_SECTION, state);
    let snapshot_hash = obs::checkpoint::write_atomic(&snapshot, &snap).unwrap();
    let payload = obs::checkpoint::anchor_payload("prefix.snap", records, &head, &snapshot_hash);

    for anchor_version in [2, 1] {
        let (anchor, anchor_hash) = line_v(
            anchor_version,
            records,
            obs::CHECKPOINT_KIND,
            &payload.to_string(),
            &head,
        );
        let (suffix, _) = line_v(2, records + 1, "ts.vendor_extension", "{}", &anchor_hash);
        let chain = format!("{prefix}{anchor}{suffix}");
        std::fs::write(&path, &chain).unwrap();
        let admitted = anchor_version == 2;

        let genesis = obs::verify_chain(chain.as_bytes());
        assert_eq!(genesis.is_ok(), admitted, "v{anchor_version}: {genesis:?}");
        let resumed = audit::resume_from_snapshot(&path, &snap).unwrap();
        assert_eq!(
            resumed.chain.verified(),
            admitted,
            "v{anchor_version}: {:?}",
            resumed.chain.error
        );
        let state = audit::state_at(&path, Some(&snap), AuditConfig::default());
        assert_eq!(
            state.is_ok(),
            admitted,
            "v{anchor_version}: {:?}",
            state.err()
        );
        let mut tail = audit::TailAuditor::resume_from_snapshot(&path, &snap).unwrap();
        tail.poll();
        assert_eq!(
            tail.chain_error().is_none(),
            admitted,
            "v{anchor_version}: {:?}",
            tail.chain_error()
        );
        if !admitted {
            for error in [
                genesis.unwrap_err().to_string(),
                resumed.chain.error.unwrap(),
                tail.chain_error().unwrap().to_string(),
            ] {
                assert!(error.contains("schema version 1"), "{error}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_pipeline() -> (TrustedServer, SharedBuf) {
    let world = World::generate(&WorldConfig {
        seed: 5,
        days: 3,
        n_commuters: 4,
        n_roamers: 20,
        n_poi_regulars: 2,
        ..WorldConfig::default()
    });
    let mut ts = hka::commuter_server(TsConfig::default(), &world, PrivacyLevel::Medium);
    let sink = SharedBuf::default();
    ts.attach_journal(obs::Journal::new(
        Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
    ));
    for e in &world.events {
        match e.kind {
            EventKind::Location => ts.location_update(e.user, e.at),
            EventKind::Request { service } => {
                let _ = ts.handle_request(e.user, e.at, ServiceId(service));
            }
        }
    }
    ts.flush_journal().expect("in-memory sink cannot fail");
    (ts, sink)
}

/// End-to-end: a clean simulated pipeline replays with a verified chain,
/// zero Theorem-1 violations, per-user k-timelines, and trade-off tables
/// whose totals agree with the server's own statistics.
#[test]
fn clean_pipeline_replay_is_verified_and_violation_free() {
    let (ts, sink) = run_pipeline();
    let bytes = sink.bytes();
    let out = audit::replay(&bytes[..], AuditConfig::default());

    assert!(out.chain.verified(), "{:?}", out.chain.error);
    assert!(out.ok(), "violations: {:?}", out.violations);
    assert!(out.violations.is_empty(), "clean run must audit clean");

    // The replayed totals agree with the server's live accounting.
    let st = ts.log().stats();
    assert_eq!(out.totals.forwarded(), st.forwarded() as u64);
    assert_eq!(out.totals.forwarded_exact, st.forwarded_exact as u64);
    assert_eq!(out.totals.unlinks, st.pseudonym_changes as u64);
    assert_eq!(out.totals.at_risk, st.at_risk as u64);
    assert_eq!(out.totals.lbqid_matches, st.lbqid_matches as u64);

    // Protected users produced k-timelines with real anonymity targets.
    let with_samples: Vec<_> = out
        .users
        .iter()
        .filter(|u| !u.k_samples.is_empty())
        .collect();
    assert!(!with_samples.is_empty(), "no generalized traffic audited");
    for u in &with_samples {
        assert!(u.k_samples.iter().all(|s| s.k_req >= 2));
        assert!(u.min_k.is_some());
    }

    // The canonical JSON report carries the trade-off tables.
    let json = out.to_json();
    let trade_off = json.get("trade_off").expect("trade_off table");
    assert!(trade_off.get("overall").is_some());
    assert!(trade_off.get("per_service").is_some());
    assert!(trade_off.get("per_lbqid").is_some());
    assert_eq!(
        json.get("chain").unwrap().get("verified"),
        Some(&obs::Json::Bool(true))
    );
    // Canonical: serialize → parse → serialize is a fixed point.
    let text = json.to_string();
    assert_eq!(obs::json::parse(&text).unwrap().to_string(), text);
}

/// Tampering with any journaled byte is detected, and the audit still
/// reports the trustworthy prefix before the tamper point.
#[test]
fn tampered_journal_is_detected_with_prefix_preserved() {
    let (_ts, sink) = run_pipeline();
    let text = String::from_utf8(sink.bytes()).unwrap();
    let total = text.lines().count() as u64;
    // Flip one payload value somewhere in the middle of the journal. The
    // line keeps the encoder's form, so what gives it away is its hash.
    let tampered = text.replacen("\"generalized\":true", "\"generalized\":false", 1);
    assert_ne!(text, tampered, "tamper target not found");

    let out = audit::replay(tampered.as_bytes(), AuditConfig::default());
    assert!(!out.chain.verified());
    assert!(!out.ok());
    assert!(out.chain.error.as_deref().unwrap().contains("hash"));
    assert!(out.chain.records < total, "audit must stop at the tamper");

    // A respelling the encoder never writes (a space after the value) is
    // refused before any hash: the line is not the encoder's bytes.
    let respelled = text.replacen("\"generalized\":true", "\"generalized\":true ", 1);
    let out = audit::replay(respelled.as_bytes(), AuditConfig::default());
    assert!(!out.chain.verified());
    assert!(out.chain.error.as_deref().unwrap().contains("malformed"));
    assert!(
        out.chain.records < total,
        "audit must stop at the respelling"
    );
}

/// A fail-open journal — one a buggy or compromised server would write —
/// yields detected violations: sub-k forwards with no at-risk notice and
/// forwards while the mode ladder says requests must not flow.
#[test]
fn fail_open_journal_yields_violations() {
    let mk_fwd = |user: u64, at: i64, generalized: bool, hk_ok: bool, k_got: u64| {
        obs::Json::obj([
            ("user", obs::Json::from(user)),
            ("at", obs::Json::Int(at)),
            ("x_min", obs::Json::Num(0.0)),
            ("y_min", obs::Json::Num(0.0)),
            ("x_max", obs::Json::Num(500.0)),
            ("y_max", obs::Json::Num(500.0)),
            ("t_start", obs::Json::Int(at - 60)),
            ("t_end", obs::Json::Int(at + 60)),
            ("generalized", obs::Json::Bool(generalized)),
            ("hk_ok", obs::Json::Bool(hk_ok)),
            ("service", obs::Json::Int(1)),
            ("k_req", obs::Json::Int(5)),
            ("k_got", obs::Json::Int(k_got as i64)),
            ("lbqid", obs::Json::from("commute")),
        ])
    };
    let mut journal = obs::Journal::new(Vec::new());
    // Sub-k release with no at-risk notification anywhere: the paper's
    // Section 6.1 duty to notify was skipped.
    journal
        .append("ts.forwarded", mk_fwd(1, 100, true, false, 2))
        .unwrap();
    // The ladder says read-only, yet a request flows.
    journal
        .append(
            "ts.mode_changed",
            obs::Json::obj([
                ("at", obs::Json::Int(200)),
                ("from", obs::Json::from("normal")),
                ("to", obs::Json::from("read_only")),
            ]),
        )
        .unwrap();
    journal
        .append("ts.forwarded", mk_fwd(2, 300, true, true, 5))
        .unwrap();
    let bytes = journal.into_inner();

    let out = audit::replay(&bytes[..], AuditConfig::default());
    assert!(out.chain.verified(), "the journal itself is well-formed");
    assert!(!out.ok());
    let kinds: Vec<ViolationKind> = out.violations.iter().map(|v| v.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ViolationKind::UnexplainedClamp,
            ViolationKind::ForwardWhileReadOnly,
        ]
    );
    // Each violation pins the journal record (seq) that proves it.
    let seqs: Vec<u64> = out.violations.iter().map(|v| v.seq).collect();
    assert_eq!(seqs, vec![0, 2]);
}

/// QoS inflation against configured tolerances: the audit relates mean
/// generalization size to the service's tolerance envelope.
#[test]
fn tolerance_config_yields_inflation_ratios() {
    let (_ts, sink) = run_pipeline();
    let bytes = sink.bytes();
    let tol = Tolerance::navigation();
    let out = audit::replay(
        &bytes[..],
        AuditConfig {
            space_tol: Some(tol.max_area),
            time_tol: Some(tol.max_duration),
            ..AuditConfig::default()
        },
    );
    let overall = out.to_json();
    let overall = overall.get("trade_off").unwrap().get("overall").unwrap();
    let area_infl = overall.get("area_inflation").unwrap().as_f64().unwrap();
    let dur_infl = overall.get("duration_inflation").unwrap().as_f64().unwrap();
    assert!(area_infl > 0.0, "generalized traffic must inflate area");
    assert!(dur_infl >= 0.0);
}
