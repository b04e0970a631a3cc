//! Seeded grammar fuzz for the three line parsers that bytes from
//! outside reach: `parse_wire_msg` (client frames), `parse_wire_reply`
//! (server frames) and `JournalRecord::parse_line` (journal lines).
//!
//! A fixed seed and a fixed case count over the in-tree `rand`, so every
//! run checks the same inputs. Three properties:
//!
//! 1. The allocation-free fast path for the canonical location frame
//!    agrees with the general JSON parser, on canonical frames and on
//!    byte-level mutations of them. A leading space steers a frame off
//!    the fast path (its prefix match fails) into the general parser,
//!    which skips the whitespace.
//! 2. `to_wire` (for the journal: an append) followed by a parse
//!    returns the original value.
//! 3. A mutated frame or journal line parses to `Err`, or to a value
//!    whose coordinates are finite. No parser panics.

use hka::obs::{Journal, JournalRecord, Json};
use hka::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

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

fn finite_msg(msg: &WireMsg) -> bool {
    match msg {
        WireMsg::Env(env) => env.at.pos.x.is_finite() && env.at.pos.y.is_finite(),
        _ => true,
    }
}

fn finite_json(j: &Json) -> bool {
    match j {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(finite_json),
        Json::Obj(map) => map.values().all(finite_json),
        _ => true,
    }
}

/// Property 1 on one frame: the fast path (taken when it matches) and
/// the general parser (forced by a leading space) agree.
fn fast_path_agrees(line: &str) {
    let fast = parse_wire_msg(line);
    let general = parse_wire_msg(&format!(" {line}"));
    match (&fast, &general) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{line}"),
        (Err(_), Err(_)) => {}
        _ => panic!("fast path and general parser disagree on {line:?}: {fast:?} vs {general:?}"),
    }
}

#[test]
fn client_frames_round_trip_and_the_fast_path_agrees() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..CASES {
        let env = envelope(&mut rng);
        let line = env.to_wire();
        assert_eq!(parse_wire_msg(&line), Ok(WireMsg::Env(env)), "{line}");
        fast_path_agrees(&line);
        for _ in 0..MUTANTS {
            let bad = mutant(&mut rng, &line);
            fast_path_agrees(&bad);
            if let Ok(msg) = parse_wire_msg(&bad) {
                assert!(finite_msg(&msg), "{bad:?} -> {msg:?}");
            }
        }
    }
    for line in [
        r#"{"op":"bind","user":3}"#,
        r#"{"op":"drain"}"#,
        r#"{"op":"shutdown"}"#,
    ] {
        assert!(parse_wire_msg(line).is_ok(), "{line}");
        for _ in 0..MUTANTS * 10 {
            let bad = mutant(&mut rng, line);
            if let Ok(msg) = parse_wire_msg(&bad) {
                assert!(finite_msg(&msg), "{bad:?} -> {msg:?}");
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
            if let Ok(WireReply::Resp(resp)) = parse_wire_reply(&bad) {
                assert!(resp.area.is_finite(), "{bad:?} -> {resp:?}");
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
