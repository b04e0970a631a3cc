//! Transport-agnostic request/response envelopes and their wire codec.
//!
//! The paper's Fig. 1 architecture is users → Trusted Server → Service
//! Providers *over a network*. Everything a client sends the TS — a
//! position report or a service request — is expressed here as a
//! [`RequestEnvelope`], and everything the TS answers as a
//! [`ResponseEnvelope`]. The envelopes are plain data: no transport,
//! no socket types, no serialization framework. A frontend
//! (`hka-gateway`) moves them over TCP; the in-process drivers hand
//! them straight to a [`crate::RequestService`].
//!
//! The wire form is **line-delimited canonical JSON** in the same
//! zero-dep style as the `hka-obs` journal: one object per line, a
//! fixed key order per message kind, floats rendered by Rust's
//! shortest-round-trip formatter so coordinates survive a
//! encode→decode cycle bit-for-bit. That exactness is what lets a
//! journal produced behind the TCP gateway be byte-identical to one
//! produced in-process on the same traffic (`tests/gateway.rs`).
//!
//! Every client line carries an `"op"` tag:
//!
//! | op | direction | meaning |
//! |---|---|---|
//! | `bind` | client → TS | bind this connection to a user, answer its pseudonym |
//! | `loc` | client → TS | position report (fire-and-forget) |
//! | `req` | client → TS | service request (exactly one `resp` comes back) |
//! | `drain` | client → TS | barrier: flush outcomes for this connection |
//! | `shutdown` | client → TS | ask the gateway to drain and stop |
//! | `bound` | TS → client | `bind` answer: pseudonym + mode |
//! | `resp` | TS → client | the request outcome |
//! | `drained` | TS → client | `drain` answer |
//! | `err` | TS → client | a frame the TS refused (fail-closed) |
//! | `bye` | TS → client | the gateway is draining this connection |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hka_anonymity::{Pseudonym, ServiceId};
use hka_geo::{StPoint, TimeSec};
use hka_obs::{json, Json};
use hka_trajectory::UserId;

use crate::server::{RequestOutcome, ServerMode, SuppressReasonPub, TsError};

/// What a [`RequestEnvelope`] asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeBody {
    /// A position report: ingested, never answered.
    Location,
    /// A service request addressed to one provider class: answered by
    /// exactly one [`ResponseEnvelope`].
    Request {
        /// The target service.
        service: ServiceId,
    },
}

/// One client → TS message, transport-agnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed on the response.
    pub req_id: u64,
    /// The issuing user. Over the wire a connection normally `bind`s
    /// once and omits the field afterwards; in-process drivers fill it
    /// directly.
    pub user: UserId,
    /// The pseudonym the client believes it holds (advisory — the TS
    /// is authoritative; a stale binding is not an error).
    pub pseudonym: Option<Pseudonym>,
    /// Location report or service request.
    pub body: EnvelopeBody,
    /// The exact spatio-temporal position.
    pub at: StPoint,
    /// Advisory anonymity ask (0 = use the registered profile; the
    /// profile is always authoritative — a wire value can only be
    /// *recorded*, never lower the guarantee).
    pub k_req: u64,
    /// Trace context carried across the transport hop (0 = none).
    pub trace: u64,
}

impl RequestEnvelope {
    /// A position report.
    pub fn location(req_id: u64, user: UserId, at: StPoint) -> Self {
        RequestEnvelope {
            req_id,
            user,
            pseudonym: None,
            body: EnvelopeBody::Location,
            at,
            k_req: 0,
            trace: 0,
        }
    }

    /// A service request.
    pub fn request(req_id: u64, user: UserId, at: StPoint, service: ServiceId) -> Self {
        RequestEnvelope {
            req_id,
            user,
            pseudonym: None,
            body: EnvelopeBody::Request { service },
            at,
            k_req: 0,
            trace: 0,
        }
    }

    /// Whether this envelope expects a response.
    pub fn is_request(&self) -> bool {
        matches!(self.body, EnvelopeBody::Request { .. })
    }

    /// The wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        match self.body {
            EnvelopeBody::Location => Json::obj([
                ("op", Json::from("loc")),
                ("req", Json::from(self.req_id)),
                ("user", Json::from(self.user.0)),
                ("x", Json::Num(self.at.pos.x)),
                ("y", Json::Num(self.at.pos.y)),
                ("t", Json::Int(self.at.t.0)),
            ])
            .to_string(),
            EnvelopeBody::Request { service } => Json::obj([
                ("op", Json::from("req")),
                ("req", Json::from(self.req_id)),
                ("user", Json::from(self.user.0)),
                ("service", Json::from(u64::from(service.0))),
                ("x", Json::Num(self.at.pos.x)),
                ("y", Json::Num(self.at.pos.y)),
                ("t", Json::Int(self.at.t.0)),
                ("k", Json::from(self.k_req)),
                ("trace", Json::from(self.trace)),
            ])
            .to_string(),
        }
    }
}

/// How the server classified the outcome, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// The request went out to the provider (possibly generalized).
    Forwarded,
    /// The request was withheld by policy (mix-zone, risk, degraded
    /// fail-closed, gateway overload).
    Suppressed,
    /// The request was refused before the strategy ran (unknown user,
    /// read-only server, malformed frame).
    Rejected,
}

impl WireOutcome {
    /// Stable wire tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireOutcome::Forwarded => "forwarded",
            WireOutcome::Suppressed => "suppressed",
            WireOutcome::Rejected => "rejected",
        }
    }

    /// Parses the wire tag.
    pub fn parse(s: &str) -> Option<WireOutcome> {
        match s {
            "forwarded" => Some(WireOutcome::Forwarded),
            "suppressed" => Some(WireOutcome::Suppressed),
            "rejected" => Some(WireOutcome::Rejected),
            _ => None,
        }
    }
}

/// One TS → client answer to a [`RequestEnvelope`] with a request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The request's correlation id.
    pub req_id: u64,
    /// The decision class.
    pub outcome: WireOutcome,
    /// The reason tag for suppressions/rejections (`mix_zone`,
    /// `risk_policy`, `degraded`, `overload`, `unknown_user`,
    /// `read_only`, …); empty for forwards.
    pub detail: String,
    /// The pseudonym the provider saw (forwards only).
    pub pseudonym: Option<Pseudonym>,
    /// The anonymity-set size Algorithm 1 achieved (0 for exact,
    /// non-pattern forwards and non-forwards).
    pub k_got: u64,
    /// Area of the generalized context, m² (0 for non-forwards).
    pub area: f64,
    /// The server's mode ladder position when the answer was drained.
    pub mode: ServerMode,
    /// Trace context (0 = none).
    pub trace: u64,
}

impl ResponseEnvelope {
    /// Classifies a service-layer outcome. `k_got` comes from the
    /// decision event when the caller has it (see
    /// [`crate::RequestService::drain`]); pass 0 when unknown.
    pub fn from_result(
        req_id: u64,
        trace: u64,
        result: &Result<RequestOutcome, TsError>,
        mode: ServerMode,
        k_got: u64,
    ) -> Self {
        match result {
            Ok(RequestOutcome::Forwarded(sp)) => ResponseEnvelope {
                req_id,
                outcome: WireOutcome::Forwarded,
                detail: String::new(),
                pseudonym: Some(sp.pseudonym),
                k_got,
                area: sp.context.area(),
                mode,
                trace,
            },
            Ok(RequestOutcome::Suppressed(reason)) => ResponseEnvelope {
                req_id,
                outcome: WireOutcome::Suppressed,
                detail: match reason {
                    SuppressReasonPub::MixZone => "mix_zone",
                    SuppressReasonPub::RiskPolicy => "risk_policy",
                    SuppressReasonPub::Degraded => "degraded",
                }
                .to_string(),
                pseudonym: None,
                k_got: 0,
                area: 0.0,
                mode,
                trace,
            },
            Err(e) => ResponseEnvelope {
                req_id,
                outcome: WireOutcome::Rejected,
                detail: match e {
                    TsError::UnknownUser(_) => "unknown_user",
                    TsError::DuplicateUser(_) => "duplicate_user",
                    TsError::InvalidParams(_) => "invalid_params",
                    TsError::Degraded => "read_only",
                }
                .to_string(),
                pseudonym: None,
                k_got: 0,
                area: 0.0,
                mode,
                trace,
            },
        }
    }

    /// A gateway-minted refusal that never reached the service layer
    /// (bounded-queue overload, draining listener). Fail-closed by
    /// construction: nothing refused here can have been forwarded.
    pub fn refusal(req_id: u64, outcome: WireOutcome, detail: &str, mode: ServerMode) -> Self {
        ResponseEnvelope {
            req_id,
            outcome,
            detail: detail.to_string(),
            pseudonym: None,
            k_got: 0,
            area: 0.0,
            mode,
            trace: 0,
        }
    }

    /// The wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        Json::obj([
            ("op", Json::from("resp")),
            ("req", Json::from(self.req_id)),
            ("outcome", Json::from(self.outcome.as_str())),
            ("detail", Json::from(self.detail.as_str())),
            (
                "pseudonym",
                self.pseudonym.map_or(Json::Null, |p| Json::from(p.0)),
            ),
            ("k", Json::from(self.k_got)),
            ("area", Json::Num(self.area)),
            ("mode", Json::from(self.mode.as_str())),
            ("trace", Json::from(self.trace)),
        ])
        .to_string()
    }
}

/// Every message a client may send, parsed off one wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Bind this connection to a user.
    Bind {
        /// The user to bind.
        user: UserId,
    },
    /// A location report or service request.
    Env(RequestEnvelope),
    /// Barrier: answer when every prior request on this connection has
    /// an outcome.
    Drain,
    /// Ask the gateway to drain every connection and stop serving.
    Shutdown,
}

/// Every message the server may answer with, parsed off one wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// `bind` answer.
    Bound {
        /// The bound user.
        user: UserId,
        /// The user's current pseudonym (None: unknown user).
        pseudonym: Option<Pseudonym>,
        /// The server's mode.
        mode: ServerMode,
    },
    /// A request outcome.
    Resp(ResponseEnvelope),
    /// `drain` answer.
    Drained {
        /// Requests still in flight for the connection (always 0: the
        /// reply is sequenced after every pending outcome).
        pending: u64,
    },
    /// A refused frame (oversized, unparseable, unknown op). The
    /// offending line produced no service-layer effect.
    Err {
        /// A stable error tag (`bad_frame`, `too_large`, `bad_op`).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
    /// The gateway is closing this connection (drain or shutdown).
    Bye,
}

impl WireReply {
    /// The wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        match self {
            WireReply::Bound {
                user,
                pseudonym,
                mode,
            } => Json::obj([
                ("op", Json::from("bound")),
                ("user", Json::from(user.0)),
                (
                    "pseudonym",
                    pseudonym.map_or(Json::Null, |p| Json::from(p.0)),
                ),
                ("mode", Json::from(mode.as_str())),
            ])
            .to_string(),
            WireReply::Resp(resp) => resp.to_wire(),
            WireReply::Drained { pending } => Json::obj([
                ("op", Json::from("drained")),
                ("pending", Json::from(*pending)),
            ])
            .to_string(),
            WireReply::Err { code, msg } => Json::obj([
                ("op", Json::from("err")),
                ("code", Json::from(code.as_str())),
                ("msg", Json::from(msg.as_str())),
            ])
            .to_string(),
            WireReply::Bye => Json::obj([("op", Json::from("bye"))]).to_string(),
        }
    }
}

/// A wire decode failure. The offending line is fail-closed: it must
/// produce an `err` reply (or a dropped connection), never a partial
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, WireError> {
    obj.get(key)
        .and_then(Json::as_int)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| bad(format!("missing or invalid '{key}'")))
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, WireError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| bad(format!("missing or invalid '{key}'")))
}

fn point_of(obj: &Json) -> Result<StPoint, WireError> {
    let x = field_f64(obj, "x")?;
    let y = field_f64(obj, "y")?;
    let t = obj
        .get("t")
        .and_then(Json::as_int)
        .ok_or_else(|| bad("missing or invalid 't'"))?;
    Ok(StPoint::xyt(x, y, TimeSec(t)))
}

fn mode_of(obj: &Json) -> Result<ServerMode, WireError> {
    match obj.get("mode").and_then(Json::as_str) {
        Some("normal") => Ok(ServerMode::Normal),
        Some("degraded") => Ok(ServerMode::Degraded),
        Some("read_only") => Ok(ServerMode::ReadOnly),
        other => Err(bad(format!("unknown mode {other:?}"))),
    }
}

/// Splits a leading unsigned-decimal run off `s` (JSON integer
/// grammar: no sign, no leading `+`). Like the general parser, whose
/// integers are `i64`, it rejects a value above `i64::MAX`.
fn scan_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.bytes().take_while(u8::is_ascii_digit).count();
    if end == 0 {
        return None;
    }
    let v: i64 = s[..end].parse().ok()?;
    Some((u64::try_from(v).ok()?, &s[end..]))
}

/// Splits a leading signed-decimal run off `s`.
fn scan_i64(s: &str) -> Option<(i64, &str)> {
    let digits = s.strip_prefix('-').unwrap_or(s);
    let end = s.len() - digits.len() + digits.bytes().take_while(u8::is_ascii_digit).count();
    if end == s.len() - digits.len() {
        return None;
    }
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Splits a leading JSON number off `s`, accepting exactly the JSON
/// grammar (`-?digits(.digits)?([eE][+-]?digits)?`) so the fast path
/// below never admits a token the general parser would refuse: like
/// it, a literal with neither fraction nor exponent must fit an `i64`.
fn scan_f64(s: &str) -> Option<(f64, &str)> {
    let b = s.as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start {
        return None;
    }
    let int_end = i;
    if b.get(i) == Some(&b'.') {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return None;
        }
    }
    if matches!(b.get(i), Some(&b'e') | Some(&b'E')) {
        i += 1;
        if matches!(b.get(i), Some(&b'+') | Some(&b'-')) {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return None;
        }
    }
    if i == int_end {
        let v: i64 = s[..i].parse().ok()?;
        return Some((v as f64, &s[i..]));
    }
    let v: f64 = s[..i].parse().ok()?;
    v.is_finite().then_some((v, &s[i..]))
}

/// Fast path for the canonical location frame [`RequestEnvelope::to_wire`]
/// emits: `{"op":"loc","req":N,"t":I,"user":N,"x":F,"y":F}` — sorted
/// keys (`Json::Obj` is a `BTreeMap`), no whitespace. Position reports
/// outnumber requests roughly a hundred to one in the mobility
/// workloads, and the generic JSON parser's per-frame allocations
/// dominate the gateway's read path — this scanner decodes the hot
/// shape without allocating. Anything that deviates (reordered keys,
/// whitespace, extra fields) falls back to the general parser, so
/// observable behavior is unchanged.
fn parse_canonical_loc(line: &str) -> Option<WireMsg> {
    let rest = line.strip_prefix(r#"{"op":"loc","req":"#)?;
    let (req_id, rest) = scan_u64(rest)?;
    let rest = rest.strip_prefix(r#","t":"#)?;
    let (t, rest) = scan_i64(rest)?;
    let rest = rest.strip_prefix(r#","user":"#)?;
    let (user, rest) = scan_u64(rest)?;
    let rest = rest.strip_prefix(r#","x":"#)?;
    let (x, rest) = scan_f64(rest)?;
    let rest = rest.strip_prefix(r#","y":"#)?;
    let (y, rest) = scan_f64(rest)?;
    if rest != "}" {
        return None;
    }
    Some(WireMsg::Env(RequestEnvelope {
        req_id,
        user: UserId(user),
        pseudonym: None,
        body: EnvelopeBody::Location,
        at: StPoint::xyt(x, y, TimeSec(t)),
        k_req: 0,
        trace: 0,
    }))
}

/// Parses one client wire line.
pub fn parse_wire_msg(line: &str) -> Result<WireMsg, WireError> {
    let trimmed = line.trim_end();
    if let Some(msg) = parse_canonical_loc(trimmed) {
        return Ok(msg);
    }
    let obj = json::parse(trimmed).map_err(|e| bad(e.to_string()))?;
    match obj.get("op").and_then(Json::as_str) {
        Some("bind") => Ok(WireMsg::Bind {
            user: UserId(field_u64(&obj, "user")?),
        }),
        Some("loc") => Ok(WireMsg::Env(RequestEnvelope {
            req_id: field_u64(&obj, "req")?,
            user: UserId(field_u64(&obj, "user")?),
            pseudonym: None,
            body: EnvelopeBody::Location,
            at: point_of(&obj)?,
            k_req: 0,
            trace: 0,
        })),
        Some("req") => Ok(WireMsg::Env(RequestEnvelope {
            req_id: field_u64(&obj, "req")?,
            user: UserId(field_u64(&obj, "user")?),
            pseudonym: None,
            body: EnvelopeBody::Request {
                service: ServiceId(
                    u32::try_from(field_u64(&obj, "service")?)
                        .map_err(|_| bad("service id out of range"))?,
                ),
            },
            at: point_of(&obj)?,
            k_req: field_u64(&obj, "k").unwrap_or(0),
            trace: field_u64(&obj, "trace").unwrap_or(0),
        })),
        Some("drain") => Ok(WireMsg::Drain),
        Some("shutdown") => Ok(WireMsg::Shutdown),
        other => Err(bad(format!("unknown op {other:?}"))),
    }
}

/// Parses one server wire line.
pub fn parse_wire_reply(line: &str) -> Result<WireReply, WireError> {
    let obj = json::parse(line.trim_end()).map_err(|e| bad(e.to_string()))?;
    match obj.get("op").and_then(Json::as_str) {
        Some("bound") => Ok(WireReply::Bound {
            user: UserId(field_u64(&obj, "user")?),
            pseudonym: match obj.get("pseudonym") {
                Some(Json::Null) | None => None,
                Some(v) => Some(Pseudonym(
                    v.as_int()
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| bad("invalid 'pseudonym'"))?,
                )),
            },
            mode: mode_of(&obj)?,
        }),
        Some("resp") => Ok(WireReply::Resp(ResponseEnvelope {
            req_id: field_u64(&obj, "req")?,
            outcome: obj
                .get("outcome")
                .and_then(Json::as_str)
                .and_then(WireOutcome::parse)
                .ok_or_else(|| bad("missing or invalid 'outcome'"))?,
            detail: obj
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            pseudonym: match obj.get("pseudonym") {
                Some(Json::Null) | None => None,
                Some(v) => Some(Pseudonym(
                    v.as_int()
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| bad("invalid 'pseudonym'"))?,
                )),
            },
            k_got: field_u64(&obj, "k").unwrap_or(0),
            area: field_f64(&obj, "area").unwrap_or(0.0),
            mode: mode_of(&obj)?,
            trace: field_u64(&obj, "trace").unwrap_or(0),
        })),
        Some("drained") => Ok(WireReply::Drained {
            pending: field_u64(&obj, "pending")?,
        }),
        Some("err") => Ok(WireReply::Err {
            code: obj
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            msg: obj
                .get("msg")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        Some("bye") => Ok(WireReply::Bye),
        other => Err(bad(format!("unknown op {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_anonymity::{MsgId, SpRequest};
    use hka_geo::{Rect, StBox, TimeInterval};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    #[test]
    fn envelopes_round_trip_exactly() {
        // Awkward floats: shortest-round-trip rendering must preserve
        // every bit, or gateway journals drift from in-process ones.
        let cases = [
            RequestEnvelope::location(1, UserId(7), sp(0.1 + 0.2, 1234.567891011, 42)),
            RequestEnvelope::request(2, UserId(8), sp(-1.5e-9, 2.0f64.powi(53), 0), ServiceId(3)),
            RequestEnvelope {
                k_req: 5,
                trace: 0xDEAD,
                ..RequestEnvelope::request(u64::MAX >> 1, UserId(9), sp(1.0, 2.0, -7), ServiceId(1))
            },
        ];
        for env in cases {
            let line = env.to_wire();
            assert!(!line.contains('\n'), "one line per message");
            match parse_wire_msg(&line).unwrap() {
                WireMsg::Env(back) => assert_eq!(back, env, "{line}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    /// The allocation-free scanner for canonical `loc` frames must
    /// agree with the general JSON parser bit-for-bit, and must step
    /// aside (not misparse) on anything non-canonical.
    #[test]
    fn canonical_loc_fast_path_matches_general_parser() {
        let awkward = [
            sp(0.1 + 0.2, -1234.567891011, 42),
            sp(-1.5e-9, 2.0f64.powi(53), -7),
            // Note 1e300 would NOT round-trip: integral floats >= 1e15
            // render as bare digit runs, which the general parser reads
            // as (possibly overflowing) integers. Coordinates are
            // city-scale meters, so the wire format does not carry them.
            sp(1e-300, -1e-300, i64::MAX),
            sp(0.0, -0.0, 0),
        ];
        for (i, at) in awkward.into_iter().enumerate() {
            // Ids above i64::MAX saturate in Json::Int, so stay below it
            // (the round-trip test above makes the same choice).
            let env = RequestEnvelope::location(i as u64, UserId((u64::MAX >> 1) - i as u64), at);
            let line = env.to_wire();
            let fast = parse_canonical_loc(&line).expect("canonical line takes the fast path");
            // Force the general parser by inserting whitespace JSON
            // permits but the canonical form never contains.
            let spaced = line.replacen(':', ": ", 1);
            assert!(parse_canonical_loc(&spaced).is_none(), "{spaced}");
            let slow = parse_wire_msg(&spaced).unwrap();
            match (fast, slow) {
                (WireMsg::Env(a), WireMsg::Env(b)) => {
                    assert_eq!(a, b, "{line}");
                    assert_eq!(a, env, "{line}");
                }
                other => panic!("parsed {other:?}"),
            }
        }
        // Near-canonical frames the fast path must decline: the
        // general parser then accepts or rejects them on its own.
        for line in [
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1,"y":2,"zz":4}"#,
            r#"{"op":"loc","t":3,"req":1,"user":2,"x":1,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":+1,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1.,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":.5,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1e,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":-2,"x":1,"y":2}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1,"y":2} "#,
        ] {
            assert!(parse_canonical_loc(line).is_none(), "{line}");
        }
        // Trailing newline is trimmed before the fast path sees it.
        let env = RequestEnvelope::location(5, UserId(6), sp(7.5, 8.25, 9));
        assert_eq!(
            parse_wire_msg(&format!("{}\n", env.to_wire())).unwrap(),
            WireMsg::Env(env)
        );
    }

    #[test]
    fn responses_round_trip() {
        let forwarded = ResponseEnvelope::from_result(
            9,
            77,
            &Ok(RequestOutcome::Forwarded(SpRequest::new(
                MsgId(1),
                Pseudonym(12),
                StBox::new(
                    Rect::from_bounds(0.0, 0.0, 100.0, 50.0),
                    TimeInterval::new(TimeSec(0), TimeSec(60)),
                ),
                ServiceId(2),
            ))),
            ServerMode::Normal,
            6,
        );
        assert_eq!(forwarded.outcome, WireOutcome::Forwarded);
        assert_eq!(forwarded.area, 5000.0);
        assert_eq!(forwarded.k_got, 6);
        let line = forwarded.to_wire();
        match parse_wire_reply(&line).unwrap() {
            WireReply::Resp(back) => assert_eq!(back, forwarded, "{line}"),
            other => panic!("parsed {other:?}"),
        }

        let suppressed = ResponseEnvelope::from_result(
            10,
            0,
            &Ok(RequestOutcome::Suppressed(SuppressReasonPub::MixZone)),
            ServerMode::Degraded,
            0,
        );
        assert_eq!(suppressed.detail, "mix_zone");
        let rejected = ResponseEnvelope::from_result(
            11,
            0,
            &Err(TsError::UnknownUser(UserId(5))),
            ServerMode::ReadOnly,
            0,
        );
        assert_eq!(rejected.detail, "unknown_user");
        for r in [suppressed, rejected] {
            let line = r.to_wire();
            match parse_wire_reply(&line).unwrap() {
                WireReply::Resp(back) => assert_eq!(back, r, "{line}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn session_ops_round_trip() {
        assert_eq!(
            parse_wire_msg(r#"{"op":"bind","user":12}"#).unwrap(),
            WireMsg::Bind { user: UserId(12) }
        );
        assert_eq!(parse_wire_msg(r#"{"op":"drain"}"#).unwrap(), WireMsg::Drain);
        assert_eq!(
            parse_wire_msg(r#"{"op":"shutdown"}"#).unwrap(),
            WireMsg::Shutdown
        );
        for reply in [
            WireReply::Bound {
                user: UserId(12),
                pseudonym: Some(Pseudonym(99)),
                mode: ServerMode::Normal,
            },
            WireReply::Bound {
                user: UserId(13),
                pseudonym: None,
                mode: ServerMode::ReadOnly,
            },
            WireReply::Drained { pending: 0 },
            WireReply::Err {
                code: "bad_frame".to_string(),
                msg: "unterminated string".to_string(),
            },
            WireReply::Bye,
        ] {
            assert_eq!(parse_wire_reply(&reply.to_wire()).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_frames_fail_closed() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"req","req":1}"#,
            r#"{"op":"req","req":1,"user":2,"service":1,"x":"a","y":0,"t":0}"#,
            r#"{"op":"loc","req":1,"user":-3,"x":0,"y":0,"t":0}"#,
            r#"{"op":"req","req":1,"user":2,"service":99999999999,"x":0,"y":0,"t":0}"#,
        ] {
            assert!(parse_wire_msg(line).is_err(), "{line:?} must not parse");
        }
    }
}
