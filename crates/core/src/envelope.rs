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
//! A frame is read the way the journal's verifier reads a record: one
//! [`CanonicalScan`] over the line, members read off it in place. It
//! is accepted only if, less one trailing `\n`, it is exactly what
//! `to_wire` writes for the message it decodes to; anything else —
//! whitespace, reordered keys, `\r\n`, an extra or missing member, an
//! integer where a float belongs — is a [`WireError`].
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
use hka_obs::{CanonicalScan, ObjectWriter, Payload, Scalar};
use hka_trajectory::UserId;
use std::borrow::Cow;
use std::cell::RefCell;

use crate::server::{RequestOutcome, ServerMode, TsError};

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
        object(|o| match self.body {
            EnvelopeBody::Location => {
                o.field("op", "loc");
                o.field("req", self.req_id);
                o.field("t", self.at.t.0);
                o.field("user", self.user.0);
                o.field("x", self.at.pos.x);
                o.field("y", self.at.pos.y);
            }
            EnvelopeBody::Request { service } => {
                o.field("k", self.k_req);
                o.field("op", "req");
                o.field("req", self.req_id);
                o.field("service", u64::from(service.0));
                o.field("t", self.at.t.0);
                o.field("trace", self.trace);
                o.field("user", self.user.0);
                o.field("x", self.at.pos.x);
                o.field("y", self.at.pos.y);
            }
        })
    }
}

/// One canonical object, its members written by `fields` in ascending
/// key order.
fn object(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut line = String::new();
    let mut object = ObjectWriter::new(&mut line);
    fields(&mut object);
    object.finish();
    line
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
    /// Classifies a service-layer outcome. A forward's `k_got` is the
    /// one its disclosure carries — the value its `ts.forwarded` journal
    /// record holds.
    pub fn from_result(
        req_id: u64,
        trace: u64,
        result: &Result<RequestOutcome, TsError>,
        mode: ServerMode,
    ) -> Self {
        match result {
            Ok(RequestOutcome::Forwarded(sp, disclosure)) => ResponseEnvelope {
                req_id,
                outcome: WireOutcome::Forwarded,
                detail: String::new(),
                pseudonym: Some(sp.pseudonym),
                k_got: disclosure.k_got as u64,
                area: sp.context.area(),
                mode,
                trace,
            },
            Ok(RequestOutcome::Suppressed(reason)) => ResponseEnvelope {
                req_id,
                outcome: WireOutcome::Suppressed,
                detail: reason.as_str().to_string(),
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
        object(|o| {
            o.field("area", self.area);
            o.field("detail", self.detail.as_str());
            o.field("k", self.k_got);
            o.field("mode", self.mode.as_str());
            o.field("op", "resp");
            o.field("outcome", self.outcome.as_str());
            o.field("pseudonym", self.pseudonym.map(|p| p.0));
            o.field("req", self.req_id);
            o.field("trace", self.trace);
        })
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

impl WireMsg {
    /// The wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        match self {
            WireMsg::Bind { user } => object(|o| {
                o.field("op", "bind");
                o.field("user", user.0);
            }),
            WireMsg::Env(env) => env.to_wire(),
            WireMsg::Drain => object(|o| o.field("op", "drain")),
            WireMsg::Shutdown => object(|o| o.field("op", "shutdown")),
        }
    }
}

impl WireReply {
    /// The wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        match self {
            WireReply::Bound {
                user,
                pseudonym,
                mode,
            } => object(|o| {
                o.field("mode", mode.as_str());
                o.field("op", "bound");
                o.field("pseudonym", pseudonym.map(|p| p.0));
                o.field("user", user.0);
            }),
            WireReply::Resp(resp) => resp.to_wire(),
            WireReply::Drained { pending } => object(|o| {
                o.field("op", "drained");
                o.field("pending", *pending);
            }),
            WireReply::Err { code, msg } => object(|o| {
                o.field("code", code.as_str());
                o.field("msg", msg.as_str());
                o.field("op", "err");
            }),
            WireReply::Bye => object(|o| o.field("op", "bye")),
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

fn invalid(key: &str) -> WireError {
    bad(format!("invalid '{key}'"))
}

thread_local! {
    /// The frame reader's buffers, reused from frame to frame on each
    /// thread that reads frames.
    static SCAN: RefCell<CanonicalScan> = RefCell::default();
}

/// The members of a frame the canonical scan accepted, read in place.
struct Members<'a>(Payload<'a>);

impl<'a> Members<'a> {
    fn value(&self, key: &str) -> Result<Scalar<'a>, WireError> {
        self.0
            .get(key)
            .ok_or_else(|| bad(format!("missing '{key}'")))
    }

    fn uint(&self, key: &str) -> Result<u64, WireError> {
        self.value(key)?
            .as_int()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| invalid(key))
    }

    /// A float member: the writer never spells one as an integer.
    fn float(&self, key: &str) -> Result<f64, WireError> {
        match self.value(key)? {
            Scalar::Num(n) => Ok(n),
            _ => Err(invalid(key)),
        }
    }

    fn text(&self, key: &str) -> Result<Cow<'a, str>, WireError> {
        self.value(key)?.into_str().ok_or_else(|| invalid(key))
    }

    fn at(&self) -> Result<StPoint, WireError> {
        let t = self.value("t")?.as_int().ok_or_else(|| invalid("t"))?;
        Ok(StPoint::xyt(self.float("x")?, self.float("y")?, TimeSec(t)))
    }

    fn pseudonym(&self) -> Result<Option<Pseudonym>, WireError> {
        match self.value("pseudonym")? {
            Scalar::Null => Ok(None),
            _ => self.uint("pseudonym").map(|p| Some(Pseudonym(p))),
        }
    }

    fn mode(&self) -> Result<ServerMode, WireError> {
        ServerMode::parse(&self.text("mode")?).ok_or_else(|| invalid("mode"))
    }

    /// `msg`, if the frame has exactly the `n` members it was read
    /// from: with every one of them read, the frame is then `to_wire`
    /// of `msg`, byte for byte.
    fn exactly<T>(&self, n: usize, msg: T) -> Result<T, WireError> {
        match self.0.member_count() {
            count if count == n => Ok(msg),
            count => Err(bad(format!("{count} members, expected {n}"))),
        }
    }
}

/// Reads one wire line, less one trailing `\n`: a canonical scan of
/// the whole line, then `decode` over its members.
fn read_frame<T>(
    line: &str,
    decode: impl FnOnce(&Members<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let text = line.strip_suffix('\n').unwrap_or(line);
    SCAN.with_borrow_mut(|scan| {
        let payload = scan
            .read(text)
            .map_err(|(at, what)| bad(format!("byte {at}: {what}")))?;
        decode(&Members(payload))
    })
}

/// Parses one client wire line.
pub fn parse_wire_msg(line: &str) -> Result<WireMsg, WireError> {
    read_frame(line, |m| match m.text("op")?.as_ref() {
        "bind" => m.exactly(
            2,
            WireMsg::Bind {
                user: UserId(m.uint("user")?),
            },
        ),
        "loc" => m.exactly(
            6,
            WireMsg::Env(RequestEnvelope::location(
                m.uint("req")?,
                UserId(m.uint("user")?),
                m.at()?,
            )),
        ),
        "req" => m.exactly(
            9,
            WireMsg::Env(RequestEnvelope {
                k_req: m.uint("k")?,
                trace: m.uint("trace")?,
                ..RequestEnvelope::request(
                    m.uint("req")?,
                    UserId(m.uint("user")?),
                    m.at()?,
                    ServiceId(
                        u32::try_from(m.uint("service")?)
                            .map_err(|_| bad("service id out of range"))?,
                    ),
                )
            }),
        ),
        "drain" => m.exactly(1, WireMsg::Drain),
        "shutdown" => m.exactly(1, WireMsg::Shutdown),
        other => Err(bad(format!("unknown op {other:?}"))),
    })
}

/// Parses one server wire line.
pub fn parse_wire_reply(line: &str) -> Result<WireReply, WireError> {
    read_frame(line, |m| match m.text("op")?.as_ref() {
        "bound" => m.exactly(
            4,
            WireReply::Bound {
                user: UserId(m.uint("user")?),
                pseudonym: m.pseudonym()?,
                mode: m.mode()?,
            },
        ),
        "resp" => m.exactly(
            9,
            WireReply::Resp(ResponseEnvelope {
                req_id: m.uint("req")?,
                outcome: WireOutcome::parse(&m.text("outcome")?)
                    .ok_or_else(|| invalid("outcome"))?,
                detail: m.text("detail")?.into_owned(),
                pseudonym: m.pseudonym()?,
                k_got: m.uint("k")?,
                area: m.float("area")?,
                mode: m.mode()?,
                trace: m.uint("trace")?,
            }),
        ),
        "drained" => m.exactly(
            2,
            WireReply::Drained {
                pending: m.uint("pending")?,
            },
        ),
        "err" => m.exactly(
            3,
            WireReply::Err {
                code: m.text("code")?.into_owned(),
                msg: m.text("msg")?.into_owned(),
            },
        ),
        "bye" => m.exactly(1, WireReply::Bye),
        other => Err(bad(format!("unknown op {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disclosure, SuppressReason};
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

    /// A frame is accepted only as `to_wire` writes it: each of these
    /// near-canonical spellings, which a lenient JSON reader would take,
    /// is refused.
    #[test]
    fn near_canonical_frames_are_refused() {
        let loc = RequestEnvelope::location(1, UserId(2), sp(1.5, 2.5, 3)).to_wire();
        let req = RequestEnvelope::request(1, UserId(2), sp(1.5, 2.5, 3), ServiceId(4)).to_wire();
        let resp =
            ResponseEnvelope::refusal(1, WireOutcome::Suppressed, "overload", ServerMode::Normal)
                .to_wire();
        for line in [
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1.0,"y":2.0,"zz":4}"#,
            r#"{"op":"loc","t":3,"req":1,"user":2,"x":1.0,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":+1.0,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1.,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":.5,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1e,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":-2,"x":1.0,"y":2.0}"#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1.0,"y":2.0} "#,
            r#"{"op":"loc","req":1,"t":3,"user":2,"x":1,"y":2.0}"#,
            &format!(" {loc}"),
            &format!("{loc}\r\n"),
            &format!("{loc}\n\n"),
            &req.replacen(r#""k":0,"#, "", 1),
            &req.replacen(r#","trace":0"#, "", 1),
            &loc.replacen(':', ": ", 1),
        ] {
            assert!(parse_wire_msg(line).is_err(), "{line:?} must be refused");
        }
        assert!(parse_wire_reply(&resp).is_ok());
        let no_detail = resp.replacen(r#""detail":"overload","#, "", 1);
        assert!(parse_wire_reply(&no_detail).is_err(), "{no_detail}");
        // One trailing newline is the frame delimiter, not part of it.
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
            &Ok(RequestOutcome::Forwarded(
                SpRequest::new(
                    MsgId(1),
                    Pseudonym(12),
                    StBox::new(
                        Rect::from_bounds(0.0, 0.0, 100.0, 50.0),
                        TimeInterval::new(TimeSec(0), TimeSec(60)),
                    ),
                    ServiceId(2),
                ),
                Disclosure {
                    generalized: true,
                    hk_ok: true,
                    k_req: 8,
                    k_got: 6,
                },
            )),
            ServerMode::Normal,
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
            &Ok(RequestOutcome::Suppressed(SuppressReason::MixZone)),
            ServerMode::Degraded,
        );
        assert_eq!(suppressed.detail, "mix_zone");
        let rejected = ResponseEnvelope::from_result(
            11,
            0,
            &Err(TsError::UnknownUser(UserId(5))),
            ServerMode::ReadOnly,
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
        for msg in [
            WireMsg::Bind { user: UserId(12) },
            WireMsg::Drain,
            WireMsg::Shutdown,
        ] {
            assert_eq!(parse_wire_msg(&msg.to_wire()).unwrap(), msg);
        }
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
