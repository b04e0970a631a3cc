//! A minimal blocking wire client, used by the differential tests,
//! the chaos drill, the open-loop bench, and `hka-sim serve` smoke
//! checks. One instance is one connection (one session).

use hka_core::{parse_wire_reply, RequestEnvelope, ResponseEnvelope, WireMsg, WireReply};
use hka_trajectory::UserId;

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking line-protocol client over one TCP connection.
pub struct GatewayClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl GatewayClient {
    /// Connects to a gateway.
    pub fn connect(addr: SocketAddr) -> io::Result<GatewayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(GatewayClient {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw line (test hook for malformed frames).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Sends one envelope (no reply is read here; see
    /// [`GatewayClient::drain_responses`] / [`GatewayClient::recv_reply`]).
    pub fn send_env(&mut self, env: &RequestEnvelope) -> io::Result<()> {
        self.send_raw(&env.to_wire())
    }

    /// Binds the session to `user`; returns the pseudonym (`None` for
    /// unknown users) — the paper's TS never reveals more than that.
    pub fn bind(&mut self, user: UserId) -> io::Result<Option<u64>> {
        self.send_raw(&WireMsg::Bind { user }.to_wire())?;
        match self.recv_reply()? {
            WireReply::Bound { pseudonym, .. } => Ok(pseudonym.map(|p| p.0)),
            other => Err(proto_err(format!("expected bound, got {other:?}"))),
        }
    }

    /// Reads one reply line.
    pub fn recv_reply(&mut self) -> io::Result<WireReply> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "gateway closed the connection",
            ));
        }
        parse_wire_reply(&line).map_err(|e| proto_err(e.to_string()))
    }

    /// Sends a `drain` barrier and collects responses until the
    /// matching `drained` arrives, then keeps reading until `expected`
    /// responses are in hand (covers refusals racing the barrier).
    /// Returns them sorted by request id — submission order for the
    /// monotonically-numbered envelopes our drivers produce.
    pub fn drain_responses(&mut self, expected: usize) -> io::Result<Vec<ResponseEnvelope>> {
        self.send_raw(&WireMsg::Drain.to_wire())?;
        let mut responses = Vec::with_capacity(expected);
        let mut drained = false;
        while !drained || responses.len() < expected {
            match self.recv_reply()? {
                WireReply::Resp(resp) => responses.push(resp),
                WireReply::Drained { .. } => drained = true,
                WireReply::Bye => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "gateway is draining",
                    ))
                }
                WireReply::Err { code, msg } => {
                    return Err(proto_err(format!("gateway refused a frame: {code}: {msg}")))
                }
                WireReply::Bound { .. } => {}
            }
        }
        responses.sort_by_key(|r| r.req_id);
        Ok(responses)
    }

    /// Asks the whole gateway to drain and stop (wire `shutdown` op);
    /// waits for the closing `bye`.
    pub fn shutdown_gateway(&mut self) -> io::Result<()> {
        self.send_raw(&WireMsg::Shutdown.to_wire())?;
        loop {
            match self.recv_reply() {
                Ok(WireReply::Bye) => return Ok(()),
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Builds the wire line for `msg` ([`WireMsg::to_wire`]; primarily
    /// for tests that need to tamper with frames before sending).
    pub fn wire_line(msg: &WireMsg) -> String {
        msg.to_wire()
    }
}
