//! Seeded grammar fuzz for the three line parsers that bytes from
//! outside reach: `parse_wire_msg` (client frames), `parse_wire_reply`
//! (server frames) and `JournalRecord::parse_line` (journal lines) —
//! for the two consumers of a journal line, the chain verifier and the
//! auditor — and for crash recovery of a checkpoint-anchored suffix.
//!
//! A fixed seed and a fixed case count over the in-tree `rand`, so every
//! run checks the same inputs. Eight properties:
//!
//! 1. A wire frame is accepted exactly when it is canonical: every
//!    `to_wire` output parses back to the original, and every frame
//!    that parses — a mutant included — is, less one trailing newline,
//!    `to_wire` of what it decodes to.
//! 2. `to_wire` (for the journal: an append) followed by a parse
//!    returns the original value.
//! 3. A mutated journal line parses to `Err`, or to a value whose
//!    floats are finite. No parser panics.
//! 4. The chain verifier gives a mutated journal line the verdict of
//!    the tree verifier it replaced (`oracle::assert_agree`), along a
//!    chain of v1 lines continued by v2 ones.
//! 5. A journal whose payload values are hostile but whose chain is
//!    valid — anyone can write one, the hash is unkeyed — replays and
//!    reports without a panic, the same through the lending replay as
//!    through owned records.
//! 6. Whenever `recover` accepts a suffix journal whose leading anchor
//!    line was respelled or mutated, the journal it leaves verifies.
//! 7. Nesting past `json::MAX_DEPTH` is refused as a chain failure by
//!    both consumers — never a stack overflow — and nesting at the
//!    limit verifies through both.
//! 8. The block-parallel replay (`hka_audit::replay`) returns the
//!    outcome of the sequential lending read on every journal here:
//!    clean ones, and ones with a fault, a mutant, a blank line or a
//!    line that is not UTF-8 both where a block opens and inside one.

use hka::audit::{AuditConfig, AuditOutcome, Auditor, ChainSummary};
use hka::obs::{ChainCursor, ChainError, Journal, JournalReader, JournalRecord, Json};
// For the shared tree oracle (`super::` there).
use hka::obs::sha256::sha256_hex;
use hka::obs::{event_hash, JOURNAL_VERSION};
use hka::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

#[allow(dead_code)]
#[path = "../crates/obs/src/journal/oracle.rs"]
mod oracle;

mod common;

const SEED: u64 = 0x5eed_f022;
const CASES: usize = 2_000;
const MUTANTS: usize = 8;

/// Bytes mutations draw from: JSON structure, number grammar, and a
/// multi-byte character.
const ALPHABET: &[&str] = &[
    "0", "1", "7", "9", "-", "+", ".", "e", "E", "\"", "{", "}", "[", "]", ",", ":", " ", "\\",
    "n", "x", "t", "é",
];

fn one_of<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// Awkward floats: shortest-round-trip renderings, extremes, integral
/// values on both sides of where the writer switches notation.
const AWKWARD: [f64; 7] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    -f64::MAX,
    1e15,
    1e300,
];

fn coord(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..6u32) {
        0 => rng.random_range(-5_000.0..5_000.0),
        1 => rng.random_range(-1e6..1e6f64).round(),
        2 => 0.1 + 0.2 * rng.random_range(-3..4i64) as f64,
        3 => rng.random_range(-1.0..1.0) * 10f64.powi(rng.random_range(-300..300i32)),
        4 => one_of(rng, &AWKWARD),
        _ => rng.random_range(-1e15..1e15f64).round(),
    }
}

/// An id the wire can carry: at most `i64::MAX` (the codec saturates).
fn id(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..3u32) {
        0 => rng.random_range(0..1_000u64),
        1 => i64::MAX as u64 - rng.random_range(0..3u64),
        _ => rng.random_range(0..=i64::MAX as u64),
    }
}

fn time(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..3u32) {
        0 => rng.random_range(0..86_400 * 14i64),
        1 => one_of(rng, &[i64::MIN, i64::MAX, -1, 0]),
        _ => rng.random_range(i64::MIN..=i64::MAX),
    }
}

fn envelope(rng: &mut StdRng) -> RequestEnvelope {
    let at = StPoint::xyt(coord(rng), coord(rng), TimeSec(time(rng)));
    let (req, user) = (id(rng), UserId(id(rng)));
    if rng.random_bool(0.5) {
        return RequestEnvelope::location(req, user, at);
    }
    let service = ServiceId(rng.random_range(0..=u32::MAX));
    RequestEnvelope {
        k_req: id(rng),
        trace: id(rng),
        ..RequestEnvelope::request(req, user, at, service)
    }
}

fn text(rng: &mut StdRng) -> String {
    let parts = [
        "",
        "mix_zone",
        "a\"b",
        "back\\slash",
        "tab\there",
        "\u{1}",
        "é",
        "\n",
    ];
    (0..rng.random_range(0..3usize))
        .map(|_| one_of(rng, &parts))
        .collect()
}

fn mode(rng: &mut StdRng) -> ServerMode {
    use ServerMode::*;
    one_of(rng, &[Normal, Degraded, ReadOnly])
}

fn reply(rng: &mut StdRng) -> WireReply {
    let pseudonym = rng.random_bool(0.5).then(|| Pseudonym(id(rng)));
    match rng.random_range(0..5u32) {
        0 => WireReply::Bound {
            user: UserId(id(rng)),
            pseudonym,
            mode: mode(rng),
        },
        1 => WireReply::Resp(ResponseEnvelope {
            req_id: id(rng),
            outcome: one_of(
                rng,
                &[
                    WireOutcome::Forwarded,
                    WireOutcome::Suppressed,
                    WireOutcome::Rejected,
                ],
            ),
            detail: text(rng),
            pseudonym,
            k_got: id(rng),
            area: coord(rng).abs(),
            mode: mode(rng),
            trace: id(rng),
        }),
        2 => WireReply::Drained { pending: id(rng) },
        3 => WireReply::Err {
            code: text(rng),
            msg: text(rng),
        },
        _ => WireReply::Bye,
    }
}

fn payload(rng: &mut StdRng, depth: u32) -> Json {
    match rng.random_range(0..if depth == 0 { 5 } else { 7u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Int(time(rng)),
        3 => Json::Num(coord(rng)),
        4 => Json::Str(text(rng)),
        5 => Json::Arr(
            (0..rng.random_range(0..4usize))
                .map(|_| payload(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..4usize))
                .map(|i| (format!("k{i}"), payload(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// A byte-level mutant of `line`: replace, insert, delete, duplicate a
/// span, or truncate. Always valid UTF-8 (the parsers take `&str`).
fn mutant(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<String> = line.chars().map(String::from).collect();
    let pick = |rng: &mut StdRng| one_of(rng, ALPHABET).to_string();
    for _ in 0..rng.random_range(1..4u32) {
        let n = chars.len();
        let at = rng.random_range(0..=n);
        match rng.random_range(0..5u32) {
            0 if at < n => chars[at] = pick(rng),
            1 => chars.insert(at, pick(rng)),
            2 if at < n => {
                chars.remove(at);
            }
            3 if at < n => {
                let end = rng.random_range(at..=n.min(at + 12));
                let span: Vec<String> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.concat()
}

fn finite_json(j: &Json) -> bool {
    match j {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(finite_json),
        Json::Obj(map) => map.values().all(finite_json),
        _ => true,
    }
}

/// Property 1 on one client frame: if it is accepted, it is the
/// canonical line of what it decodes to.
fn accepted_only_if_canonical(line: &str) {
    if let Ok(msg) = parse_wire_msg(line) {
        let bare = line.strip_suffix('\n').unwrap_or(line);
        assert_eq!(msg.to_wire(), bare, "{line:?} accepted as {msg:?}");
    }
}

#[test]
fn client_frames_round_trip_and_only_canonical_frames_are_accepted() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..CASES {
        let env = envelope(&mut rng);
        let line = env.to_wire();
        assert_eq!(parse_wire_msg(&line), Ok(WireMsg::Env(env)), "{line}");
        assert_eq!(parse_wire_msg(&format!("{line}\n")), Ok(WireMsg::Env(env)));
        for _ in 0..MUTANTS {
            accepted_only_if_canonical(&mutant(&mut rng, &line));
        }
    }
    for _ in 0..CASES / 10 {
        let user = UserId(id(&mut rng));
        for msg in [WireMsg::Bind { user }, WireMsg::Drain, WireMsg::Shutdown] {
            let line = msg.to_wire();
            assert_eq!(parse_wire_msg(&line), Ok(msg), "{line}");
            for _ in 0..MUTANTS {
                accepted_only_if_canonical(&mutant(&mut rng, &line));
            }
        }
    }
}

#[test]
fn server_frames_round_trip_and_mutants_fail_closed() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for _ in 0..CASES {
        let reply = reply(&mut rng);
        let line = reply.to_wire();
        assert_eq!(parse_wire_reply(&line), Ok(reply), "{line}");
        for _ in 0..MUTANTS {
            let bad = mutant(&mut rng, &line);
            if let Ok(back) = parse_wire_reply(&bad) {
                assert_eq!(back.to_wire(), bad, "{bad:?} accepted as {back:?}");
            }
        }
    }
}

#[test]
fn journal_lines_round_trip_and_mutants_fail_closed() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let kinds = ["ts.forwarded", "ts.suppressed", "checkpoint", "k\"ind"];
    let events: Vec<(&str, Json)> = (0..CASES)
        .map(|_| (one_of(&mut rng, &kinds), payload(&mut rng, 3)))
        .collect();
    let mut bytes = Vec::new();
    let mut journal = Journal::new(&mut bytes);
    for (kind, payload) in &events {
        journal.append(kind, payload).unwrap();
    }
    drop(journal);
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (seq, (line, (kind, payload))) in lines.iter().zip(&events).enumerate() {
        let rec = JournalRecord::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!((rec.seq, rec.kind.as_str()), (seq as u64, *kind), "{line}");
        assert_eq!(&rec.payload, payload, "{line}");
        for _ in 0..MUTANTS {
            let bad = mutant(&mut rng, line);
            if let Ok(rec) = JournalRecord::parse_line(&bad) {
                assert!(finite_json(&rec.payload), "{bad:?}");
            }
        }
    }
}

/// An exact forward — the v2 point form — at a random place and time.
fn exact_forward(rng: &mut StdRng) -> TsEvent {
    let at = TimeSec(time(rng));
    TsEvent::Forwarded {
        user: UserId(id(rng)),
        at,
        context: StBox::point(StPoint::xyt(coord(rng), coord(rng), at)),
        generalized: false,
        hk_ok: true,
        service: ServiceId(rng.random_range(0..4u32)),
        k_req: 0,
        k_got: 0,
        lbqid: None,
    }
}

/// Both versions on one chain: the v1 fixture, continued by the v2
/// writer with `CASES` random payloads and exact forwards in the point
/// form. Returns the text and the v1 prefix's length.
fn mixed_journal(rng: &mut StdRng) -> (String, u64) {
    let kinds = ["ts.forwarded", "checkpoint", "k\"ind", "caf\u{e9}\n"];
    let v1 = include_str!("fixtures/journal_v1.jsonl");
    let prefix = v1.lines().count() as u64;
    let head = hka::obs::verify_chain(v1.as_bytes()).unwrap().head;
    let mut journal = Journal::resume(Vec::new(), prefix, head);
    for i in 0..CASES {
        if i % 4 == 0 {
            let forward = exact_forward(rng);
            journal.append(forward.kind(), &forward).unwrap();
        } else {
            let kind = one_of(rng, &kinds);
            journal.append(kind, payload(rng, 3)).unwrap();
        }
    }
    let text = v1.to_string() + &String::from_utf8(journal.into_inner()).unwrap();
    (text, prefix)
}

#[test]
fn journal_line_mutants_get_the_tree_verifiers_verdict() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let (text, prefix) = mixed_journal(&mut rng);
    let mut cursor = ChainCursor::new();
    for (i, line) in text.split_inclusive('\n').enumerate() {
        for _ in 0..MUTANTS {
            oracle::assert_agree(&mut cursor.clone(), i + 1, &mutant(&mut rng, line));
        }
        assert!(oracle::assert_agree(&mut cursor, i + 1, line), "{line:?}");
        assert_eq!(cursor.version(), if (i as u64) < prefix { 1 } else { 2 });
    }
    assert_eq!(cursor.records(), prefix + CASES as u64);
}

/// Complete, well-typed payloads of every kind the auditor decodes,
/// both forms of a forward among them.
const AUDITED: [(&str, &str); 9] = [
    (
        "ts.forwarded",
        r#"{"at":100,"generalized":true,"hk_ok":false,"k_got":2,"k_req":5,"lbqid":"commute","service":1,"t_end":110,"t_start":90,"user":7,"x_max":10.0,"x_min":0.0,"y_max":20.0,"y_min":0.0}"#,
    ),
    (
        "ts.forwarded",
        r#"{"at":100,"service":1,"user":7,"x":10.0,"y":-20.5}"#,
    ),
    (
        "ts.suppressed",
        r#"{"at":90,"reason":"mix_zone","service":0,"user":3}"#,
    ),
    ("ts.pseudonym_changed", r#"{"at":95,"user":7}"#),
    ("ts.at_risk", r#"{"at":80,"lbqid":"commute","user":7}"#),
    (
        "ts.lbqid_matched",
        r#"{"at":85,"lbqid":"commute","user":7}"#,
    ),
    (
        "ts.mode_changed",
        r#"{"at":5,"from":"normal","to":"degraded"}"#,
    ),
    (
        "journal.recovered",
        r#"{"truncated_bytes":57,"valid_records":12}"#,
    ),
    (
        "checkpoint",
        r#"{"file":"checkpoint-000005.snap","head":"","records":0,"snapshot":"abc"}"#,
    ),
];

/// A value a hostile writer might put where the auditor expects another.
fn hostile(rng: &mut StdRng) -> Json {
    match rng.random_range(0..3u32) {
        0 => payload(rng, 1),
        1 => Json::Int(one_of(rng, &[i64::MIN, i64::MAX, -1, 0, 1])),
        _ => match rng.random_range(0..4u32) {
            0 => Json::Num(one_of(rng, &[f64::MAX, -f64::MAX, f64::MIN_POSITIVE, -0.0])),
            1 => Json::from(one_of(rng, &["normal", "degraded", "read_only"])),
            _ => Json::Null,
        },
    }
}

/// `CASES` records of every kind the auditor decodes, chained validly,
/// with hostile values in their fields.
fn hostile_journal(rng: &mut StdRng) -> Vec<u8> {
    let mut journal = Journal::new(Vec::new());
    for _ in 0..CASES {
        let (kind, template) = one_of(rng, &AUDITED);
        let Ok(Json::Obj(mut members)) = hka::obs::json::parse(template) else {
            unreachable!("templates are objects")
        };
        if kind == "checkpoint" && rng.random_bool(0.5) {
            // An anchor that tells the truth about where it sits.
            members.insert("records".into(), Json::from(journal.next_seq()));
            members.insert("head".into(), Json::from(journal.head()));
        }
        let names: Vec<String> = members.keys().cloned().collect();
        for _ in 0..rng.random_range(0..4u32) {
            let name = names[rng.random_range(0..names.len())].clone();
            if rng.random_bool(0.2) {
                members.remove(&name);
            } else {
                members.insert(name, hostile(rng));
            }
        }
        journal.append(kind, Json::Obj(members)).unwrap();
    }
    journal.into_inner()
}

#[test]
fn hostile_values_in_a_valid_chain_never_panic_the_auditor() {
    let bytes = hostile_journal(&mut StdRng::seed_from_u64(SEED ^ 4));
    let cfg = hka::audit::AuditConfig::default();
    let lent = hka::audit::replay(&bytes[..], cfg);
    assert!(lent.chain.verified(), "{:?}", lent.chain.error);
    assert_eq!(lent.chain.records, CASES as u64);
    assert!(!lent.schema_issues.is_empty() && lent.totals.forwarded() > 0);

    // The owned path (tail and benchmark) decodes the same records the
    // same way.
    let chain = hka::obs::verify_chain(&bytes[..]).unwrap();
    let mut auditor = hka::audit::Auditor::new(cfg);
    for record in &chain.records {
        auditor.ingest(record);
    }
    let owned = auditor.finish(hka::audit::ChainSummary {
        records: chain.records.len() as u64,
        head: chain.head,
        error: None,
    });
    let report = lent.to_json().to_string();
    assert_eq!(report, owned.to_json().to_string());
    // The report is JSON the parser reads back: no infinity in it.
    assert!(hka::obs::json::parse(&report).is_ok());
    assert!(!lent.render().is_empty());
}

/// The suffix of a journal of four events, a checkpoint anchor and two
/// more events — the journal prefix truncation leaves — as lines.
fn suffix_journal() -> Vec<String> {
    let mut journal = Journal::new(Vec::new());
    for i in 0..4 {
        journal
            .append("test.event", Json::obj([("n", Json::Int(i))]))
            .unwrap();
    }
    let (records, head) = (journal.next_seq(), journal.head().to_string());
    let anchor =
        hka::obs::checkpoint::anchor_payload("snap.json", records, &head, &"ab".repeat(32));
    journal.append(hka::obs::CHECKPOINT_KIND, anchor).unwrap();
    for i in 0..2 {
        journal
            .append("test.event", Json::obj([("n", Json::Int(100 + i))]))
            .unwrap();
    }
    let text = String::from_utf8(journal.into_inner()).unwrap();
    text.lines().skip(4).map(|l| format!("{l}\n")).collect()
}

#[test]
fn recover_never_leaves_a_journal_that_fails_verification() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let path = std::env::temp_dir().join(format!("hka-wire-fuzz-{}.jsonl", std::process::id()));
    let lines = suffix_journal();
    // The anchor line respelled with the same values: not the encoder's
    // form, so not an anchor, whatever a lenient reader makes of it.
    let respelled = lines[0].replacen(r#"{"hash":"#, r#"{"hash": "#, 1);
    let firsts = std::iter::once(respelled)
        .chain((0..CASES / 4).map(|_| mutant(&mut rng, lines[0].trim_end()) + "\n"));
    let mut recovered = 0;
    for first in firsts {
        std::fs::write(&path, first.clone() + &lines[1..].concat()).unwrap();
        let Ok((mut journal, _)) = hka::obs::recover(&path) else {
            continue;
        };
        journal.flush().unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        if let Err(e) = hka::obs::verify_chain(&bytes[..]) {
            panic!(
                "recover left {:?} from first line {first:?}: {e}",
                String::from_utf8_lossy(&bytes)
            );
        }
        recovered += 1;
    }
    let _ = std::fs::remove_file(&path);
    assert!(recovered > 0);
}

/// A one-record journal, chained and hashed as the encoder would,
/// whose payload is `depth` nested arrays.
fn nested_journal(depth: usize) -> Vec<u8> {
    use hka::obs::GENESIS_HASH;
    let payload = "[".repeat(depth) + &"]".repeat(depth);
    let hash = event_hash(0, "test.deep", &payload, GENESIS_HASH);
    let line = format!(
        r#"{{"hash":"{hash}","kind":"test.deep","payload":{payload},"prev":"{GENESIS_HASH}","seq":0,"v":{JOURNAL_VERSION}}}"#
    );
    (line + "\n").into_bytes()
}

#[test]
fn nesting_past_the_depth_limit_is_a_chain_failure_not_an_abort() {
    use hka::obs::json::MAX_DEPTH;
    let cfg = hka::audit::AuditConfig::default();
    for depth in [MAX_DEPTH + 1, 200_000] {
        let bytes = nested_journal(depth);
        match hka::obs::verify_chain(&bytes[..]) {
            Err(ChainError::Malformed { line: 1, .. }) => {}
            other => panic!("depth {depth}: {other:?}"),
        }
        let replayed = hka::audit::replay(&bytes[..], cfg);
        assert!(!replayed.chain.verified(), "depth {depth} replayed clean");
        assert_eq!(replayed.chain.records, 0);
        // The tree readers refuse it too.
        assert!(JournalRecord::parse_line(std::str::from_utf8(&bytes).unwrap()).is_err());
        assert!(hka::obs::json::parse(&("[".repeat(depth) + &"]".repeat(depth))).is_err());
    }
    let bytes = nested_journal(MAX_DEPTH);
    let chain = hka::obs::verify_chain(&bytes[..]).unwrap();
    assert_eq!(chain.records.len(), 1);
    let replayed = hka::audit::replay(&bytes[..], cfg);
    assert!(replayed.chain.verified(), "{:?}", replayed.chain.error);
    assert_eq!(replayed.chain.records, 1);
}

/// The block-parallel replay's oracle: the sequential lending read,
/// one record at a time into the auditor.
fn lending_replay(bytes: &[u8]) -> AuditOutcome {
    let mut reader = JournalReader::new(bytes);
    let mut auditor = Auditor::new(AuditConfig::default());
    let mut error = None;
    while let Some(record) = reader.next_ref() {
        match record {
            Ok(record) => auditor.ingest_ref(&record),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    auditor.finish(ChainSummary {
        records: reader.records_read(),
        head: reader.head().to_string(),
        error,
    })
}

/// `replay` (block-parallel) gives `bytes` the oracle's outcome, read
/// whole or a few bytes at a time.
fn replays_agree(bytes: &[u8]) -> AuditOutcome {
    let want = lending_replay(bytes);
    let cfg = AuditConfig::default();
    assert_eq!(hka::audit::replay(bytes, cfg), want);
    let trickle = std::io::BufReader::with_capacity(7, bytes);
    assert_eq!(hka::audit::replay(trickle, cfg), want);
    want
}

/// A simulated server's journal: protected commuters with LBQIDs among
/// privacy-off roamers, two days.
fn pipeline_journal() -> Vec<u8> {
    let world = World::generate(&WorldConfig {
        seed: 9,
        days: 2,
        n_commuters: 4,
        n_roamers: 20,
        ..WorldConfig::default()
    });
    let mut ts = hka::commuter_server(TsConfig::default(), &world, PrivacyLevel::Medium);
    let sink = common::SharedBuf::default();
    ts.attach_journal(Journal::new(Box::new(sink.clone()) as _));
    hka::collect_forwards(&mut ts, &world.events);
    ts.flush_journal().unwrap();
    sink.bytes()
}

#[test]
fn the_block_parallel_replay_matches_the_lending_read_on_every_corpus_journal() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let pipeline = pipeline_journal();
    let corpus = [
        include_bytes!("fixtures/journal_v1.jsonl").to_vec(),
        include_bytes!("fixtures/journal_v2.jsonl").to_vec(),
        mixed_journal(&mut rng).0.into_bytes(),
        hostile_journal(&mut rng),
        suffix_journal().concat().into_bytes(),
        nested_journal(hka::obs::json::MAX_DEPTH),
        nested_journal(hka::obs::json::MAX_DEPTH + 1),
    ];
    for bytes in &corpus {
        replays_agree(bytes);
    }
    let outcome = replays_agree(&pipeline);
    assert!(outcome.chain.verified() && outcome.totals.forwarded() > 0);
    assert!(
        pipeline.len() > 2 * 65_536,
        "{} bytes: a few blocks",
        pipeline.len()
    );
}

/// A line longer than any block: the reader cuts a block right after
/// it, so the line that follows opens a block (a seam).
const LONG: usize = 80_000;

/// One record's line, hashed as `version` hashes (kinds here need no
/// escaping).
fn line_v(version: i64, seq: u64, kind: &str, payload: &str, prev: &str) -> String {
    let hash = sha256_hex(format!("v{version}:{seq}:{kind}:{payload}:{prev}").as_bytes());
    format!(
        r#"{{"hash":"{hash}","kind":"{kind}","payload":{payload},"prev":"{prev}","seq":{seq},"v":{version}}}"#
    ) + "\n"
}

/// A chain of audited records in which every fourth is a line longer
/// than a block: `(kind, payload)` per record, v2.
fn padded_records() -> Vec<(String, String)> {
    (0..24)
        .map(|i| {
            if i % 4 == 0 {
                let pad = Json::from("p".repeat(LONG)).to_string();
                ("test.pad".to_string(), pad)
            } else {
                let (kind, payload) = AUDITED[i % AUDITED.len()];
                (kind.to_string(), payload.to_string())
            }
        })
        .collect()
}

/// The journal of `records`, with `fault` applied to record `at`'s
/// `(version, seq, payload, prev)` before it is hashed, as lines.
fn faulted(
    records: &[(String, String)],
    at: usize,
    fault: impl Fn(&mut (i64, u64, String, String)),
) -> Vec<String> {
    let mut prev = hka::obs::GENESIS_HASH.to_string();
    let mut lines = Vec::new();
    for (i, (kind, payload)) in records.iter().enumerate() {
        let mut fields = (JOURNAL_VERSION, i as u64, payload.clone(), prev.clone());
        if i == at {
            fault(&mut fields);
        }
        let (version, seq, payload, prev_field) = fields;
        let line = line_v(version, seq, kind, &payload, &prev_field);
        prev = line[9..73].to_string();
        lines.push(line);
    }
    lines
}

#[test]
fn hostile_lines_at_a_seam_and_inside_a_block_replay_as_the_lending_read() {
    use hka::obs::json::MAX_DEPTH;
    let records = padded_records();
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    // Record 5 opens a block (it follows a long line); record 6 is
    // inside one.
    for at in [5, 6] {
        type Fault = fn(&mut (i64, u64, String, String));
        let faults: [(&str, Fault); 6] = [
            ("none", |_| {}),
            ("seq", |f| f.1 += 1),
            ("prev", |f| f.3 = "ab".repeat(32)),
            ("v1 after v2", |f| f.0 = 1),
            ("v3", |f| f.0 = 3),
            ("deep", |f| {
                f.2 = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1)
            }),
        ];
        for (name, fault) in faults {
            let lines = faulted(&records, at, fault);
            let outcome = replays_agree(lines.concat().as_bytes());
            assert_eq!(outcome.chain.verified(), name == "none", "{name} at {at}");
            // Blank lines around it, and no final newline.
            let spaced = lines.join("\n \n");
            replays_agree(spaced.trim_end().as_bytes());
        }
        let mut lines = faulted(&records, at, |_| {});
        let good = lines[at].clone();
        lines[at] = good.replacen(r#""hash":""#, r#""hash":"0"#, 1);
        let outcome = replays_agree(lines.concat().as_bytes());
        assert_eq!(
            outcome.chain.error.unwrap(),
            format!(
                "line {}: stored hash does not match recomputed hash",
                at + 1
            )
        );
        // A line that is not UTF-8.
        let mut bytes = lines[..at].concat().into_bytes();
        bytes.push(0xff);
        bytes.extend_from_slice(good.as_bytes());
        bytes.extend_from_slice(lines[at + 1..].concat().as_bytes());
        let outcome = replays_agree(&bytes);
        assert_eq!(outcome.chain.records, at as u64);
        assert_eq!(
            outcome.chain.error.unwrap(),
            format!(
                "line {}: malformed record: record is not valid UTF-8",
                at + 1
            )
        );
        for _ in 0..MUTANTS * 2 {
            lines[at] = mutant(&mut rng, &good);
            replays_agree(lines.concat().as_bytes());
        }
    }
}
