//! A versioned, append-only, hash-chained JSONL event journal.
//!
//! Each line is one JSON object:
//!
//! ```json
//! {"hash":"…","kind":"forwarded","payload":{…},"prev":"…","seq":0,"v":2}
//! ```
//!
//! * `v` — schema version: the writer writes [`JOURNAL_VERSION`] (2);
//!   the verifier also reads 1;
//! * `seq` — monotonic sequence number starting at 0;
//! * `kind` — event type tag;
//! * `payload` — event body, canonically serialized (sorted keys);
//! * `prev` — hash of the previous event, or 64 zeros for the first;
//! * `hash` — `sha256("v{v}:{seq}:{kind}:{payload}:{prev}")` in hex: each
//!   line's own version heads its preimage.
//!
//! Chaining `prev` through every record makes truncation, reordering,
//! and in-place edits detectable by [`verify_chain`]. Its verifier,
//! [`ChainCursor::admit`], accepts a line only as the one encoder writes
//! it — that layout, a payload in canonical form — and re-derives the
//! hash from the payload bytes it checked. Along one chain the version
//! never decreases: a v1 prefix continued by the v2 writer verifies, a
//! v1 line after a v2 line does not. The envelope is the same in both
//! versions; what v2 changes is a payload (`hka-core`'s exact forward,
//! DESIGN.md §9.3), which the journal does not look inside.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::json::{self, Canonical, CanonicalScan, Digits, FormError, Json, Payload};
use crate::sha256::{HexDigest, Sha256};

mod blocks;

/// Journal schema version the writer stamps on every record, and the
/// newest the verifier reads.
pub const JOURNAL_VERSION: i64 = 2;

/// The oldest schema version the verifier reads.
pub(crate) const OLDEST_VERSION: i64 = 1;

/// `prev` of the first record: 64 hex zeros.
pub const GENESIS_HASH: &str = "0000000000000000000000000000000000000000000000000000000000000000";

// The writer's version as it is spelled into the tail of its lines.
const LINE_TAIL: &str = ",\"v\":2}\n";
const _: () = assert!(JOURNAL_VERSION == 2, "LINE_TAIL spells v2");

/// The hash of one record —
/// `sha256("v{version}:{seq}:{kind}:{payload}:{prev}")` — streamed piece
/// by piece, so no preimage is ever assembled.
fn record_digest(
    version: i64,
    seq: u64,
    kind: &str,
    payload_canonical: &str,
    prev: &str,
) -> HexDigest {
    let mut hasher = Sha256::new();
    hasher.update(b"v");
    hasher.update(Digits::of(version.unsigned_abs()).as_str().as_bytes());
    hasher.update(b":");
    hasher.update(Digits::of(seq).as_str().as_bytes());
    hasher.update(b":");
    hasher.update(kind.as_bytes());
    hasher.update(b":");
    hasher.update(payload_canonical.as_bytes());
    hasher.update(b":");
    hasher.update(prev.as_bytes());
    HexDigest::of(&hasher.finalize())
}

/// The hash of one record as the writer writes it: covers version
/// ([`JOURNAL_VERSION`]), sequence number, kind, canonical payload, and
/// the previous record's hash.
pub fn event_hash(seq: u64, kind: &str, payload_canonical: &str, prev: &str) -> String {
    record_digest(JOURNAL_VERSION, seq, kind, payload_canonical, prev)
        .as_str()
        .to_string()
}

/// The one record encoder. Writes `payload`'s canonical form once, into
/// `scratch`; hashes it from there; then splices the same bytes into
/// the record's line, appended to `line` with its newline:
///
/// ```text
/// {"hash":"…","kind":…,"payload":<scratch>,"prev":…,"seq":N,"v":2}\n
/// ```
///
/// — the member order a sorted-key object has. `kind` and `prev` go
/// into the hash raw and into the line escaped. Returns the record's
/// hash.
fn encode_record(
    line: &mut String,
    scratch: &mut String,
    seq: u64,
    kind: &str,
    payload: &impl Canonical,
    prev: &str,
) -> HexDigest {
    scratch.clear();
    payload.write_canonical(scratch);
    let hash = record_digest(JOURNAL_VERSION, seq, kind, scratch, prev);
    line.push_str("{\"hash\":\"");
    line.push_str(hash.as_str());
    line.push_str("\",\"kind\":");
    kind.write_canonical(line);
    line.push_str(",\"payload\":");
    line.push_str(scratch);
    line.push_str(",\"prev\":");
    prev.write_canonical(line);
    line.push_str(",\"seq\":");
    seq.write_canonical(line);
    line.push_str(LINE_TAIL);
    hash
}

/// One parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Schema version.
    pub version: i64,
    /// Sequence number.
    pub seq: u64,
    /// Event type tag.
    pub kind: String,
    /// Event body.
    pub payload: Json,
    /// Hash of the previous record (genesis hash for `seq` 0).
    pub prev: String,
    /// This record's hash.
    pub hash: String,
}

impl JournalRecord {
    /// Parses one JSONL line into a record (no chain checks).
    pub fn parse_line(line: &str) -> Result<JournalRecord, ChainError> {
        let bad = |what: &str| ChainError::Malformed {
            line: 0,
            message: what.to_string(),
        };
        // A non-object has no members: it fails on the first one, `v`.
        let mut members = match json::parse(line.trim()).map_err(|e| bad(&e.to_string()))? {
            Json::Obj(members) => members,
            _ => Default::default(),
        };
        // Every member is moved out of the parsed map, never cloned.
        let mut take = |name: &str| {
            members
                .remove(name)
                .ok_or_else(|| bad(&format!("missing '{name}'")))
        };
        let string = |value: Json, name: &str| match value {
            Json::Str(s) => Ok(s),
            _ => Err(bad(&format!("'{name}' not a string"))),
        };
        let version = take("v")?
            .as_int()
            .ok_or_else(|| bad("'v' not an integer"))?;
        let seq = take("seq")?
            .as_int()
            .and_then(|s| u64::try_from(s).ok())
            .ok_or_else(|| bad("'seq' not a non-negative integer"))?;
        let kind = string(take("kind")?, "kind")?;
        let payload = take("payload")?;
        let prev = string(take("prev")?, "prev")?;
        let hash = string(take("hash")?, "hash")?;
        Ok(JournalRecord {
            version,
            seq,
            kind,
            payload,
            prev,
            hash,
        })
    }
}

/// One record as it stands on a line [`ChainCursor::admit`] verified:
/// borrowed from the line, nothing parsed into a tree.
#[derive(Debug, Clone)]
pub struct RecordRef<'a> {
    /// Schema version (1 or 2; the writer writes [`JOURNAL_VERSION`]).
    pub version: i64,
    /// Sequence number.
    pub seq: u64,
    /// Event type tag (owned only when the line escapes a character).
    pub kind: Cow<'a, str>,
    /// The canonical payload bytes the hash covers.
    pub payload: Payload<'a>,
    /// Hash of the previous record.
    pub prev: Cow<'a, str>,
    /// This record's hash.
    pub hash: &'a str,
}

impl RecordRef<'_> {
    /// The owned record, its payload parsed into a tree.
    pub fn to_record(&self) -> Result<JournalRecord, json::ParseError> {
        Ok(JournalRecord {
            version: self.version,
            seq: self.seq,
            kind: self.kind.to_string(),
            payload: json::parse(self.payload.as_str())?,
            prev: self.prev.to_string(),
            hash: self.hash.to_string(),
        })
    }
}

/// The bytes `lit` at `at`; returns the offset past them.
fn expect(text: &str, at: usize, lit: &str) -> Result<usize, FormError> {
    if text.as_bytes()[at..].starts_with(lit.as_bytes()) {
        Ok(at + lit.len())
    } else {
        Err((at, "not the member the record layout has here"))
    }
}

/// The canonical string at `at`: its raw bytes between the quotes, and
/// the offset past it.
fn string_at(text: &str, at: usize) -> Result<(&str, usize), FormError> {
    let (end, _) = json::check_string(text, at)?;
    Ok((&text[at + 1..end - 1], end))
}

/// The plain integer at `at`, and the offset past it.
fn int_at(text: &str, at: usize) -> Result<(i64, usize), FormError> {
    let end = json::number_end(text.as_bytes(), at);
    json::canonical_int(&text[at..end])
        .map(|n| (n, end))
        .ok_or((at, "not an integer in plain form within i64"))
}

/// Reads a line (one trailing newline allowed) as [`encode_record`]
/// writes it — `{"hash":…,"kind":…,"payload":P,"prev":…,"seq":N,"v":V}`
/// with `P` in canonical form ([`CanonicalScan`]) — in one pass, for any
/// integer `V`. Anything else, even a line that parses to the same
/// values, is refused. The verifier and the checkpoint-anchor reader
/// ([`crate::checkpoint::find_anchor`]) both read a line through it, and
/// each judges `V` itself.
pub(crate) fn read_record<'a>(
    scan: &'a mut CanonicalScan,
    line: &'a str,
) -> Result<RecordRef<'a>, FormError> {
    let text = line.strip_suffix('\n').unwrap_or(line);
    let (hash, at) = string_at(text, expect(text, 0, "{\"hash\":")?)?;
    let (kind, at) = string_at(text, expect(text, at, ",\"kind\":")?)?;
    let payload_at = expect(text, at, ",\"payload\":")?;
    let payload_end = scan.check(text, payload_at)?;
    let (prev, at) = string_at(text, expect(text, payload_end, ",\"prev\":")?)?;
    let seq_at = expect(text, at, ",\"seq\":")?;
    let (seq, at) = int_at(text, seq_at)?;
    let seq = u64::try_from(seq).map_err(|_| (seq_at, "'seq' is negative"))?;
    let (version, at) = int_at(text, expect(text, at, ",\"v\":")?)?;
    if &text[at..] != "}" {
        return Err((at, "expected '}' to end the line"));
    }
    let scan: &'a CanonicalScan = scan;
    Ok(RecordRef {
        version,
        seq,
        kind: json::unescape(kind),
        payload: scan.payload(&text[payload_at..payload_end]),
        prev: json::unescape(prev),
        hash,
    })
}

/// An append-only journal writer over any byte sink.
#[derive(Debug)]
pub struct Journal<W: Write> {
    sink: W,
    next_seq: u64,
    prev_hash: String,
    /// The current record's canonical payload ([`encode_record`]).
    scratch: String,
    /// The lines of the current append, written with one `write_all`.
    lines: String,
}

/// A journal over a boxed sink, for APIs that don't want to be generic
/// over the writer type.
pub type BoxedJournal = Journal<Box<dyn Write + Send + Sync>>;

impl<W: Write> Journal<W> {
    /// A journal writing records to `sink`, starting at sequence 0.
    pub fn new(sink: W) -> Self {
        Journal::resume(sink, 0, GENESIS_HASH.to_string())
    }

    /// A journal resuming an existing chain: the next append receives
    /// `next_seq` and chains from `prev_hash`. Used by [`recover`] after
    /// a crash; callers are responsible for `prev_hash` actually being
    /// the hash of record `next_seq - 1` in whatever `sink` appends to.
    pub fn resume(sink: W, next_seq: u64, prev_hash: String) -> Self {
        Journal {
            sink,
            next_seq,
            prev_hash,
            scratch: String::new(),
            lines: String::new(),
        }
    }

    /// Appends one event, returning its assigned sequence number.
    pub fn append(&mut self, kind: &str, payload: impl Canonical) -> io::Result<u64> {
        self.append_all(std::iter::once((kind, &payload)))
            .map(|seqs| seqs.start)
    }

    /// Appends a batch of events with one write.
    ///
    /// Every record is built in memory first, hashes chained exactly as
    /// if each event had been [`append`](Journal::append)ed on its own —
    /// the emitted bytes are identical for any batching of the same
    /// event sequence — then the whole batch goes to the sink in a
    /// single `write_all`. State advances only after the write
    /// succeeds, so a failed batch leaves `next_seq`/`prev_hash`
    /// untouched and a retry (even re-split into different batch sizes)
    /// re-chains byte-identically.
    ///
    /// Returns the assigned sequence-number range (empty for an empty
    /// batch).
    pub fn append_batch<K: AsRef<str>, P: Canonical>(
        &mut self,
        events: &[(K, P)],
    ) -> io::Result<std::ops::Range<u64>> {
        self.append_all(
            events
                .iter()
                .map(|(kind, payload)| (kind.as_ref(), payload)),
        )
    }

    /// The loop behind both appends: encode every record into the
    /// reused line buffer, hand the sink all of it in one `write_all` (a
    /// record lands as a unit or tears once, and a raw file sees one
    /// syscall per append), and only then advance — on a failed write
    /// the state is untouched, so a retry reproduces byte-identical
    /// output and the chain stays verifiable.
    fn append_all<'e, P: Canonical + 'e>(
        &mut self,
        events: impl Iterator<Item = (&'e str, &'e P)>,
    ) -> io::Result<std::ops::Range<u64>> {
        let first = self.next_seq;
        let mut seq = first;
        let mut head: Option<HexDigest> = None;
        self.lines.clear();
        for (kind, payload) in events {
            let prev = head
                .as_ref()
                .map_or(self.prev_hash.as_str(), HexDigest::as_str);
            head = Some(encode_record(
                &mut self.lines,
                &mut self.scratch,
                seq,
                kind,
                payload,
                prev,
            ));
            seq += 1;
        }
        let Some(head) = head else {
            return Ok(first..first);
        };
        self.sink.write_all(self.lines.as_bytes())?;
        self.next_seq = seq;
        self.prev_hash.clear();
        self.prev_hash.push_str(head.as_str());
        Ok(first..seq)
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Hash the next append will chain from — the hash of the last
    /// record written ([`GENESIS_HASH`] for a fresh journal). Together
    /// with [`next_seq`](Journal::next_seq) this is everything needed to
    /// hand the chain to another writer via [`Journal::resume`].
    pub fn head(&self) -> &str {
        &self.prev_hash
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }

    /// Consumes the journal and returns the sink (for in-memory sinks
    /// the caller wants to read back).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// A byte sink that can additionally force written bytes to stable
/// storage — the durability half of group commit. `sync` defaults to a
/// no-op, which is correct for in-memory sinks.
pub trait DurableSink: Write + Send + Sync {
    /// Forces previously written bytes to stable storage.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DurableSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl DurableSink for Vec<u8> {}

impl DurableSink for io::Sink {}

impl<W: DurableSink> DurableSink for io::BufWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.get_mut().sync()
    }
}

impl DurableSink for Box<dyn DurableSink> {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// Wraps any writer as a [`DurableSink`] whose `sync` is a no-op — for
/// sinks with no durability story of their own (test fakes,
/// fault-injecting writers).
#[derive(Debug)]
pub struct Unsynced<W: Write>(pub W);

impl<W: Write> Write for Unsynced<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl<W: Write + Send + Sync> DurableSink for Unsynced<W> {}

/// A journal over a boxed durable sink — what a group-commit writer
/// holds when it must both batch appends and fsync per batch without
/// being generic over the sink type.
pub type DurableJournal = Journal<Box<dyn DurableSink>>;

impl<W: DurableSink> Journal<W> {
    /// The group-commit durability point: flushes the sink and forces
    /// its bytes to stable storage.
    pub fn commit(&mut self) -> io::Result<()> {
        self.sink.flush()?;
        self.sink.sync()
    }
}

/// Why a journal failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A line is not a well-formed record.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A record's schema version is not one the verifier reads (1 to
    /// [`JOURNAL_VERSION`]), or is older than an earlier record's: along
    /// one chain the version never decreases.
    BadVersion {
        /// 1-based line number.
        line: usize,
        /// Version found.
        found: i64,
    },
    /// Sequence numbers are not `0, 1, 2, …`.
    BadSequence {
        /// 1-based line number.
        line: usize,
        /// Sequence number expected at this line.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
    /// A record's `prev` does not match the previous record's hash —
    /// the chain was cut, reordered, or truncated at the front.
    BrokenLink {
        /// 1-based line number.
        line: usize,
    },
    /// A record's `hash` does not match its recomputed hash — the
    /// record was altered after being written.
    BadHash {
        /// 1-based line number.
        line: usize,
    },
    /// Reading the input failed.
    Io(String),
    /// A journal file shrank below a byte offset whose prefix had
    /// already been verified — the verified prefix itself was rewritten
    /// or replaced under a live reader. (Crash recovery never does
    /// this: [`recover`] truncates only *invalid* suffix bytes, which a
    /// tailer never consumes.)
    TruncatedBehind {
        /// Byte offset one past the last verified record.
        offset: u64,
        /// Observed file length, smaller than `offset`.
        len: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Malformed { line, message } => {
                write!(f, "line {line}: malformed record: {message}")
            }
            ChainError::BadVersion { line, found } => {
                write!(f, "line {line}: unsupported schema version {found}")
            }
            ChainError::BadSequence {
                line,
                expected,
                found,
            } => {
                write!(f, "line {line}: expected seq {expected}, found {found}")
            }
            ChainError::BrokenLink { line } => {
                write!(f, "line {line}: prev-hash does not match preceding record")
            }
            ChainError::BadHash { line } => {
                write!(f, "line {line}: stored hash does not match recomputed hash")
            }
            ChainError::Io(e) => write!(f, "read error: {e}"),
            ChainError::TruncatedBehind { offset, len } => write!(
                f,
                "journal shrank to {len} bytes, below the verified offset {offset}"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// The result of a successful chain verification.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainReport {
    /// Records verified.
    pub records: Vec<JournalRecord>,
    /// Hash of the final record (genesis hash if the journal is empty).
    pub head: String,
}

/// Incremental chain-verification state: the `(expected seq, head hash)`
/// pair every verifier in this module walks forward one record at a
/// time. [`JournalReader`], [`recover`], and the tailer
/// ([`crate::tail::JournalTailer`]) all admit records through the same
/// cursor, so "fully hash-chained" means exactly one thing everywhere.
#[derive(Debug, Clone)]
pub struct ChainCursor {
    records: u64,
    head: String,
    /// The last admitted record's schema version: the oldest the next
    /// may have.
    version: i64,
    /// The line check's buffers; reused.
    scan: CanonicalScan,
}

/// Two cursors are equal when they stand at the same chain position.
impl PartialEq for ChainCursor {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records && self.head == other.head
    }
}

impl Eq for ChainCursor {}

impl Default for ChainCursor {
    fn default() -> Self {
        ChainCursor::new()
    }
}

impl ChainCursor {
    /// A cursor positioned before the first record (genesis).
    pub fn new() -> Self {
        ChainCursor::resume(0, GENESIS_HASH.to_string(), OLDEST_VERSION)
    }

    /// A cursor positioned mid-chain: the next admitted record must
    /// carry sequence number `records` and chain from `head`. This is
    /// how a verifier starts from a checkpoint anchor instead of
    /// genesis — a truncated journal's leading `checkpoint` record
    /// carries exactly this pair in its payload
    /// ([`crate::checkpoint::CheckpointAnchor`]). The position does not
    /// say which version the record before it had, so `floor` does: the
    /// oldest version the next record may have (1 when nothing is
    /// known, as at a journal's leading anchor).
    pub fn resume(records: u64, head: String, floor: i64) -> Self {
        ChainCursor {
            records,
            head,
            version: floor,
            scan: CanonicalScan::default(),
        }
    }

    /// Records admitted so far (also the next expected sequence number).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Hash of the last admitted record (genesis hash before the first).
    pub fn head(&self) -> &str {
        &self.head
    }

    /// The oldest schema version the next record may have: the last
    /// admitted record's (1 at genesis, the floor after a resume).
    pub fn version(&self) -> i64 {
        self.version
    }

    /// Checks one line against the chain so far: the record layout and
    /// canonical payload (else [`ChainError::Malformed`]), then schema
    /// version (one the verifier reads, and not older than the last
    /// record's), sequence number, `prev` link and recomputed hash, in
    /// that order. On success the cursor advances and the record is
    /// returned borrowed from `line`; on failure the cursor is untouched,
    /// so the same line (or a repaired one) can be offered again.
    /// `line_no` is the 1-based line number used in errors.
    pub fn admit<'a>(
        &'a mut self,
        line_no: usize,
        line: &'a str,
    ) -> Result<RecordRef<'a>, ChainError> {
        let record = check(
            &mut self.scan,
            (self.records, &self.head, self.version),
            line_no,
            line,
        )?;
        self.head.clear();
        self.head.push_str(record.hash);
        self.records += 1;
        self.version = record.version;
        Ok(record)
    }
}

/// The one verifier behind [`ChainCursor`]: is `line` the record that
/// follows `(records, head)` on a chain whose last version is `version`?
/// The hash is re-derived from the payload
/// bytes on the line — which [`read_record`] has checked are exactly
/// the canonical form, so they are the bytes the encoder hashed, and a
/// writer that emitted anything else cannot verify.
fn check<'a>(
    scan: &'a mut CanonicalScan,
    chain: (u64, &str, i64),
    line_no: usize,
    line: &'a str,
) -> Result<RecordRef<'a>, ChainError> {
    let record = read_checked(scan, line_no, line)?;
    link(line_no, (record.version, record.seq, &record.prev), chain)?;
    hashed(line_no, record)
}

/// [`check`]'s first step: the record layout and canonical payload.
fn read_checked<'a>(
    scan: &'a mut CanonicalScan,
    line_no: usize,
    line: &'a str,
) -> Result<RecordRef<'a>, ChainError> {
    read_record(scan, line).map_err(|(at, what)| ChainError::Malformed {
        line: line_no,
        message: format!("byte {at}: {what}"),
    })
}

/// [`check`]'s links, on a record's `(version, seq, prev)`: a version
/// the verifier reads and not older than `version`, then the sequence
/// number `records`, then `prev` equal to `head`.
fn link(
    line_no: usize,
    (found, seq, prev): (i64, u64, &str),
    (records, head, version): (u64, &str, i64),
) -> Result<(), ChainError> {
    if !(version..=JOURNAL_VERSION).contains(&found) {
        return Err(ChainError::BadVersion {
            line: line_no,
            found,
        });
    }
    if seq != records {
        return Err(ChainError::BadSequence {
            line: line_no,
            expected: records,
            found: seq,
        });
    }
    if prev != head {
        return Err(ChainError::BrokenLink { line: line_no });
    }
    Ok(())
}

/// [`check`]'s last step: the stored hash equals the recomputed one.
fn hashed(line_no: usize, record: RecordRef<'_>) -> Result<RecordRef<'_>, ChainError> {
    let recomputed = record_digest(
        record.version,
        record.seq,
        &record.kind,
        record.payload.as_str(),
        &record.prev,
    );
    if recomputed.as_str() != record.hash {
        return Err(ChainError::BadHash { line: line_no });
    }
    Ok(record)
}

/// A streaming reader over a journal: yields each record after checking
/// it against the chain so far (schema version, sequence monotonicity,
/// `prev` link, recomputed hash). The first failure is yielded as an
/// `Err` and iteration stops; [`records_read`](JournalReader::records_read)
/// and [`head`](JournalReader::head) then describe the verified prefix.
///
/// [`verify_chain`] is this reader run to completion. The lending read
/// ([`next_ref`](JournalReader::next_ref)) verifies one record at a time
/// without building one; the block driver
/// ([`for_each_parallel`](JournalReader::for_each_parallel)), which
/// replay consumers (`hka-audit`) use, verifies the same lines with the
/// same verdicts on every core.
#[derive(Debug)]
pub struct JournalReader<R: BufRead> {
    input: R,
    line_no: usize,
    cursor: ChainCursor,
    done: bool,
    at_start: bool,
    /// The line being read; reused from record to record.
    line: String,
}

impl<R: BufRead> JournalReader<R> {
    /// A reader over `input`, expecting a chain that starts at genesis
    /// — or at a self-describing `checkpoint` anchor: when the first
    /// record is a checkpoint record whose payload agrees with its own
    /// chain position (see [`crate::checkpoint`]), the reader seeds its
    /// cursor from that anchor so a truncated/archived journal suffix
    /// verifies exactly like the full file it was cut from.
    pub fn new(input: R) -> Self {
        JournalReader {
            input,
            line_no: 0,
            cursor: ChainCursor::new(),
            done: false,
            at_start: true,
            line: String::new(),
        }
    }

    /// A reader resuming mid-chain: the first record must carry
    /// sequence `records`, chain from `head` and have a version no
    /// older than `floor` ([`ChainCursor::resume`]). No anchor
    /// auto-detection — the caller already knows the position.
    pub fn resume(input: R, records: u64, head: String, floor: i64) -> Self {
        JournalReader {
            input,
            line_no: 0,
            cursor: ChainCursor::resume(records, head, floor),
            done: false,
            at_start: false,
            line: String::new(),
        }
    }

    /// Records verified so far.
    pub fn records_read(&self) -> u64 {
        self.cursor.records()
    }

    /// Hash of the last verified record (genesis hash before the first).
    pub fn head(&self) -> &str {
        self.cursor.head()
    }

    /// The lending read: the next record, verified, borrowed from the
    /// reader's line buffer until the next call — no tree, no copy. The
    /// first failure is returned as an `Err` and reading stops, exactly
    /// as the [`Iterator`] does.
    pub fn next_ref(&mut self) -> Option<Result<RecordRef<'_>, ChainError>> {
        if let Err(e) = self.next_line()? {
            return Some(Err(e));
        }
        let result = self.cursor.admit(self.line_no, &self.line);
        self.done = result.is_err();
        Some(result)
    }

    /// Reads the next non-blank line into `line` (`None` at the end, or
    /// after a failure). The first one may seed the cursor from a
    /// checkpoint anchor.
    fn next_line(&mut self) -> Option<Result<(), ChainError>> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            self.line_no += 1;
            match self.input.read_line(&mut self.line) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(if e.kind() == io::ErrorKind::InvalidData {
                        not_utf8(self.line_no)
                    } else {
                        ChainError::Io(e.to_string())
                    }));
                }
            }
            if self.line.trim().is_empty() {
                continue;
            }
            if std::mem::take(&mut self.at_start) {
                seed(&mut self.cursor, &self.line);
            }
            return Some(Ok(()));
        }
    }
}

/// The verdict on a line that is not UTF-8, the tailer's and every
/// reader's alike.
pub(crate) fn not_utf8(line: usize) -> ChainError {
    ChainError::Malformed {
        line,
        message: "record is not valid UTF-8".to_string(),
    }
}

/// Seeds `cursor` from a journal's first non-blank line when that line
/// is a leading checkpoint anchor ([`crate::checkpoint`]).
fn seed(cursor: &mut ChainCursor, line: &str) {
    if let Ok(Some((records, head))) = crate::checkpoint::leading_anchor(line) {
        *cursor = ChainCursor::resume(records, head, OLDEST_VERSION);
    }
}

/// The owned read: [`next_ref`](JournalReader::next_ref), its record
/// then copied out with [`RecordRef::to_record`].
impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = Result<JournalRecord, ChainError>;

    fn next(&mut self) -> Option<Self::Item> {
        let record = match self.next_ref()? {
            Ok(record) => record.to_record(),
            Err(e) => return Some(Err(e)),
        };
        Some(record.map_err(|e| {
            self.done = true;
            ChainError::Malformed {
                line: self.line_no,
                message: e.to_string(),
            }
        }))
    }
}

/// Verifies a whole journal: parses every line, checks versions,
/// sequence monotonicity, prev-hash links, and recomputes every hash.
pub fn verify_chain(reader: impl BufRead) -> Result<ChainReport, ChainError> {
    let mut reader = JournalReader::new(reader);
    let mut records = Vec::new();
    for record in reader.by_ref() {
        records.push(record?);
    }
    Ok(ChainReport {
        records,
        head: reader.head().to_string(),
    })
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chain length after the surviving valid prefix: for a genesis
    /// journal, the records in the file; for a checkpoint-anchored
    /// suffix, the anchor's `records` plus the surviving suffix records.
    pub valid_records: u64,
    /// Bytes truncated off the end of the file (0 for a clean journal).
    pub truncated_bytes: u64,
    /// Hash of the last surviving record (genesis hash if none).
    pub head: String,
}

/// Recovers a journal file after a crash mid-write.
///
/// Scans the file line by line, verifying the chain incrementally
/// (version, sequence, `prev` link, recomputed hash) exactly as
/// [`verify_chain`] does. The first invalid line — a torn partial
/// record, garbage bytes, or a record whose chain does not verify —
/// ends the valid prefix; everything after it is unrecoverable (later
/// records chain through the bad one) and is truncated off. A final
/// line without a trailing newline is treated as torn even if it
/// parses: a complete append always ends in `\n`.
///
/// Returns a [`Journal`] positioned to append record `valid_records`
/// chained from the surviving head, plus a [`RecoveryReport`]. An
/// empty or missing file recovers to a fresh genesis journal.
///
/// A journal whose first record is a self-describing `checkpoint`
/// anchor (a suffix left by prefix truncation — see
/// [`crate::checkpoint`]) recovers from that anchor: the cursor is
/// seeded with the anchor's `(records, head)` and `valid_records`
/// counts the *chain* length, prefix included. A first record that
/// claims to be a checkpoint anchor but whose payload disagrees with
/// its own chain position, or that does not verify at that position,
/// is refused with [`io::ErrorKind::InvalidData`] — the file is left
/// untouched rather than truncated to nothing, because every byte of a
/// suffix journal hangs off its anchor and "recovering" past a bad one
/// would silently discard the whole suffix (fail-open). Higher layers
/// fall back to an earlier checkpoint or a genesis replay instead. A
/// line is an anchor only as the verifier reads it: a respelled
/// anchor line is no record at all, so recovery starts at genesis and
/// truncates it. Either way, a journal `recover` returns is one
/// [`verify_chain`] accepts.
///
/// When bytes were actually truncated the recovery itself is made
/// visible downstream: the returned journal has already appended a
/// `journal.recovered` record (payload `{truncated_bytes,
/// valid_records}`) extending the surviving chain, and the global
/// `ts.journal_recovered_bytes` counter is bumped by the bytes dropped.
/// The [`RecoveryReport`] describes the state *before* that append
/// (`head` is the last surviving record's hash), so callers can still
/// distinguish what the crash left from what recovery wrote.
pub fn recover(path: &std::path::Path) -> io::Result<(Journal<std::fs::File>, RecoveryReport)> {
    use std::io::{Read, Seek};

    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let refuse = |reason: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("refusing to recover {}: {reason}", path.display()),
        )
    };
    let mut cursor = ChainCursor::new();
    let mut at_start = true;
    let mut valid_end = 0usize; // byte offset one past the last valid record
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn final line: no terminating newline
        };
        let line_end = offset + nl;
        let Ok(line) = std::str::from_utf8(&bytes[offset..line_end]) else {
            break; // garbage bytes
        };
        if !line.trim().is_empty() {
            // A truncated journal begins at its checkpoint anchor, not
            // genesis: a leading anchor seeds the cursor and must then
            // verify where it says it sits. Any other checkpoint record
            // there is refused (fail-closed — see the function docs).
            let mut anchored = false;
            if std::mem::take(&mut at_start) {
                if let Some((records, head)) =
                    crate::checkpoint::leading_anchor(line).map_err(refuse)?
                {
                    cursor = ChainCursor::resume(records, head, OLDEST_VERSION);
                    anchored = true;
                }
            }
            if let Err(e) = cursor.admit(0, line) {
                if anchored {
                    return Err(refuse(format!(
                        "its leading checkpoint anchor does not verify: {e}"
                    )));
                }
                break;
            }
        }
        offset = line_end + 1;
        valid_end = offset;
    }
    let valid_records = cursor.records();
    let prev_hash = cursor.head().to_string();

    let truncated_bytes = (bytes.len() - valid_end) as u64;
    if truncated_bytes > 0 {
        file.set_len(valid_end as u64)?;
    }
    file.seek(std::io::SeekFrom::Start(valid_end as u64))?;
    let report = RecoveryReport {
        valid_records,
        truncated_bytes,
        head: prev_hash.clone(),
    };
    let mut journal = Journal::resume(file, valid_records, prev_hash);
    if truncated_bytes > 0 {
        crate::counter!("ts.journal_recovered_bytes").add(truncated_bytes);
        journal.append(
            "journal.recovered",
            Json::obj([
                ("truncated_bytes", Json::from(truncated_bytes)),
                ("valid_records", Json::from(valid_records)),
            ]),
        )?;
    }
    Ok((journal, report))
}

#[cfg(test)]
use crate::sha256::sha256_hex;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload(i: i64) -> Json {
        Json::obj([("user", Json::Int(i)), ("ok", Json::Bool(i % 2 == 0))])
    }

    fn build_journal(n: i64) -> Vec<u8> {
        let mut journal = Journal::new(Vec::new());
        for i in 0..n {
            journal.append("test.event", sample_payload(i)).unwrap();
        }
        journal.sink
    }

    #[test]
    fn append_assigns_monotonic_seq() {
        let mut journal = Journal::new(Vec::new());
        assert_eq!(journal.append("a", Json::Null).unwrap(), 0);
        assert_eq!(journal.append("b", Json::Null).unwrap(), 1);
        assert_eq!(journal.next_seq(), 2);
    }

    /// A sink that rejects writes while `fail` is set, writing nothing.
    struct Faucet {
        bytes: Vec<u8>,
        fail: bool,
    }

    impl Write for Faucet {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail {
                return Err(io::Error::other("injected"));
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_append_leaves_state_untouched_so_retry_rechains() {
        let mut journal = Journal::new(Faucet {
            bytes: Vec::new(),
            fail: false,
        });
        journal.append("a", Json::Int(1)).unwrap();
        journal.sink.fail = true;
        assert!(journal.append("b", Json::Int(2)).is_err());
        assert_eq!(journal.next_seq(), 1, "failed append must not advance seq");
        // The retry after the transient error continues the chain.
        journal.sink.fail = false;
        assert_eq!(journal.append("b", Json::Int(2)).unwrap(), 1);
        journal.append("c", Json::Int(3)).unwrap();
        let report = verify_chain(&journal.sink.bytes[..]).unwrap();
        assert_eq!(report.records.len(), 3);
        // The failed attempt left no trace in the bytes either.
        let events = [("a", 1), ("b", 2), ("c", 3)].map(|(k, i)| (k.to_string(), Json::Int(i)));
        assert_eq!(
            String::from_utf8(journal.sink.bytes).unwrap(),
            oracle_chain(0, GENESIS_HASH, &events)
        );
    }

    #[test]
    fn valid_chain_verifies() {
        let bytes = build_journal(20);
        let report = verify_chain(&bytes[..]).unwrap();
        assert_eq!(report.records.len(), 20);
        assert_eq!(report.records[0].prev, GENESIS_HASH);
        assert_eq!(report.head, report.records[19].hash);
    }

    #[test]
    fn empty_journal_verifies_to_genesis() {
        let report = verify_chain(&b""[..]).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.head, GENESIS_HASH);
    }

    #[test]
    fn tampered_payload_is_detected() {
        let bytes = build_journal(5);
        let text = String::from_utf8(bytes).unwrap();
        let tampered = text.replacen("\"user\":1", "\"user\":99", 1);
        assert!(matches!(
            verify_chain(tampered.as_bytes()),
            Err(ChainError::BadHash { line: 2 })
        ));
    }

    #[test]
    fn deleted_line_is_detected() {
        let bytes = build_journal(5);
        let text = String::from_utf8(bytes).unwrap();
        let without_third: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(matches!(
            verify_chain(without_third.as_bytes()),
            Err(ChainError::BadSequence {
                line: 3,
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn reordered_lines_are_detected() {
        let bytes = build_journal(4);
        let mut lines: Vec<String> = String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.swap(1, 2);
        let reordered = lines.join("\n");
        assert!(verify_chain(reordered.as_bytes()).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        // A version the verifier does not read, with the hash it would
        // have under it, is refused by its version, not its hash.
        for version in [0, 3, -1] {
            let (line, _) = oracle_line_v(version, 0, "a", &Json::Int(1), GENESIS_HASH);
            assert!(matches!(
                verify_chain(line.as_bytes()),
                Err(ChainError::BadVersion { line: 1, found }) if found == version
            ));
        }
    }

    /// Chains `(version, payload)` records of kind `e` from genesis
    /// through the tree oracle: any mix of versions, each hashed under
    /// its own.
    fn mixed_chain(versions: &[i64]) -> String {
        let mut prev = GENESIS_HASH.to_string();
        let mut out = String::new();
        for (seq, &version) in (0..).zip(versions) {
            let (line, hash) = oracle_line_v(version, seq, "e", &sample_payload(seq as i64), &prev);
            out.push_str(&line);
            prev = hash;
        }
        out
    }

    #[test]
    fn versions_never_decrease_along_a_chain() {
        for versions in [&[1, 1, 2, 2][..], &[2, 2], &[1, 2], &[1]] {
            let report = verify_chain(mixed_chain(versions).as_bytes()).unwrap();
            let read: Vec<i64> = report.records.iter().map(|r| r.version).collect();
            assert_eq!(read, versions);
        }
        for (versions, line) in [(&[2, 1][..], 2), (&[1, 2, 1], 3), (&[2, 2, 1, 2], 3)] {
            assert_eq!(
                verify_chain(mixed_chain(versions).as_bytes()),
                Err(ChainError::BadVersion { line, found: 1 }),
                "{versions:?}"
            );
        }
        // Each line's version is inside its own hash: a v1 line
        // relabelled v2 (or the reverse) keeps its bytes but not its hash.
        let v1 = mixed_chain(&[1]);
        let relabelled = v1.replace("\"v\":1}", "\"v\":2}");
        assert_eq!(
            verify_chain(relabelled.as_bytes()),
            Err(ChainError::BadHash { line: 1 })
        );
        let v2 = mixed_chain(&[2]);
        let relabelled = v2.replace("\"v\":2}", "\"v\":1}");
        assert_eq!(
            verify_chain(relabelled.as_bytes()),
            Err(ChainError::BadHash { line: 1 })
        );
    }

    #[test]
    fn a_recovered_v1_prefix_is_continued_in_v2_and_verifies() {
        let tmp = TempPath::new("v1-prefix");
        std::fs::write(&tmp.0, mixed_chain(&[1, 1, 1])).unwrap();
        let report = recover_append_verify(&tmp.0, 2);
        assert_eq!((report.valid_records, report.truncated_bytes), (3, 0));
        let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        let read: Vec<i64> = chain.records.iter().map(|r| r.version).collect();
        assert_eq!(read, [1, 1, 1, 2, 2]);
        // The lending read carries each line's version too.
        let bytes = std::fs::read(&tmp.0).unwrap();
        let mut reader = JournalReader::new(&bytes[..]);
        let mut lent = Vec::new();
        while let Some(record) = reader.next_ref() {
            lent.push(record.unwrap().version);
        }
        assert_eq!(lent, read);
    }

    /// The construction the encoder replaced, kept as the reference:
    /// build the record as a `Json` tree, print it with the old
    /// per-`char` serializer, `format!` the preimage, hash it one-shot.
    fn oracle_line(seq: u64, kind: &str, payload: &Json, prev: &str) -> (String, String) {
        oracle_line_v(JOURNAL_VERSION, seq, kind, payload, prev)
    }

    /// [`oracle_line`] for a record of schema version `version`.
    fn oracle_line_v(
        version: i64,
        seq: u64,
        kind: &str,
        payload: &Json,
        prev: &str,
    ) -> (String, String) {
        let canonical = json::oracle::to_string(payload);
        let preimage = format!("v{version}:{seq}:{kind}:{canonical}:{prev}");
        let hash = crate::sha256::sha256_hex(preimage.as_bytes());
        let record = Json::obj([
            ("v", Json::Int(version)),
            ("seq", Json::from(seq)),
            ("kind", Json::from(kind)),
            ("payload", payload.clone()),
            ("prev", Json::from(prev)),
            ("hash", Json::from(hash.as_str())),
        ]);
        (json::oracle::to_string(&record) + "\n", hash)
    }

    /// The oracle's bytes for `events` chained from `(seq, prev)`.
    fn oracle_chain(mut seq: u64, prev: &str, events: &[(String, Json)]) -> String {
        let mut out = String::new();
        let mut prev = prev.to_string();
        for (kind, payload) in events {
            let (line, hash) = oracle_line(seq, kind, payload, &prev);
            out.push_str(&line);
            prev = hash;
            seq += 1;
        }
        out
    }

    const HOSTILE: [&str; 7] = [
        "plain",
        "",
        "quo\"te and back\\slash",
        "line\nfeed\rreturn\ttab",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
        "caf\u{e9} \u{4f4d}\u{7f6e} \u{1f512}",
        "\\u0041 \"}\n{\"hash\":\"",
    ];

    const AWKWARD: [f64; 12] = [
        -0.0,
        0.0,
        3.0,
        -250.0,
        1e15,
        999_999_999_999_999.0,
        1e-7,
        5e-324,
        0.1 + 0.2,
        -1_234.567_890_123_456_7,
        12_345_678.901_234_567,
        123_456_789.125,
    ];

    fn awkward_events() -> Vec<(String, Json)> {
        let mut events: Vec<(String, Json)> = HOSTILE
            .iter()
            .map(|s| {
                let payload = Json::obj([
                    ("lbqid", Json::from(*s)),
                    (*s, Json::Null),
                    ("nested", Json::Arr(vec![Json::from(*s), Json::obj([])])),
                ]);
                (format!("kind.{s}"), payload)
            })
            .collect();
        events.push((
            "floats".to_string(),
            Json::Arr(AWKWARD.iter().map(|n| Json::Num(*n)).collect()),
        ));
        events.push((
            "ints".to_string(),
            Json::Arr(
                [0, -1, 9, 10, i64::MAX, i64::MIN]
                    .into_iter()
                    .map(Json::Int)
                    .chain([Json::from(u64::MAX), Json::Bool(true), Json::Null])
                    .collect(),
            ),
        ));
        events
    }

    #[test]
    fn encoder_is_byte_identical_to_the_tree_oracle_and_round_trips() {
        let events = awkward_events();
        // `resume` accepts any `prev`: a hostile one must be escaped in
        // the line and hashed raw, exactly as the tree did.
        for (first, prev) in [(0, GENESIS_HASH), (41, HOSTILE[2]), (7, HOSTILE[6])] {
            let mut journal = Journal::resume(Vec::new(), first, prev.to_string());
            for (kind, payload) in &events {
                journal.append(kind, payload).unwrap();
            }
            let bytes = String::from_utf8(journal.into_inner()).unwrap();
            assert_eq!(bytes, oracle_chain(first, prev, &events));

            let mut prev = prev.to_string();
            for ((line, (kind, payload)), seq) in bytes.lines().zip(&events).zip(first..) {
                let record = JournalRecord::parse_line(line).unwrap();
                let (_, hash) = oracle_line(seq, kind, payload, &prev);
                let mut want = JournalRecord {
                    version: JOURNAL_VERSION,
                    seq,
                    kind: kind.clone(),
                    payload: payload.clone(),
                    prev,
                    hash: hash.clone(),
                };
                if kind == "floats" {
                    // v1 prints 1e15 without a decimal point, so it
                    // reads back as an integer — with the same bytes.
                    assert_eq!(record.payload.to_string(), payload.to_string());
                    want.payload = record.payload.clone();
                }
                assert_eq!(record, want);
                assert_eq!(
                    event_hash(seq, kind, &payload.to_string(), &want.prev),
                    hash
                );
                prev = hash;
            }
            if first == 0 {
                assert_eq!(
                    verify_chain(bytes.as_bytes()).unwrap().records.len(),
                    events.len()
                );
            }
        }
    }

    /// Rewrites that keep a line parseable but not the encoder's bytes
    /// (refused as `Malformed`), or keep it canonical but break the
    /// chain (refused as the tree refuses it).
    const REWRITES: [(&str, &str); 22] = [
        (":", ": "),
        ("\"user\":", "\"user\":0"),
        (":0,", ":-0,"),
        (",", " ,"),
        (".0,", ".00,"),
        (".0]", "]"),
        ("e15", "E15"),
        ("e15", "e+15"),
        ("\\u001f", "\\u001F"),
        ("\\u0000", "\\u0000\\u0000"),
        ("\\n", "\\u000a"),
        ("caf\u{e9}", "caf\\u00e9"),
        ("\"v\":1}", "\"v\":2}"),
        ("\"v\":1}", "\"v\":1.0}"),
        ("\"v\":2}", "\"v\":1}"),
        ("\"v\":2}", "\"v\":3}"),
        ("\"v\":2}", "\"v\":2.0}"),
        ("\"v\":2}", "\"v\":02}"),
        ("\"seq\":", "\"seq\":1"),
        ("\"prev\":\"", "\"prev\":\"0"),
        ("\"payload\":", "\"payload\":{\"a\":0,\"a\":1,\"b\":"),
        ("9", "8"),
    ];

    /// Bytes the random mutants draw from (as `tests/wire_fuzz.rs`).
    const ALPHABET: [&str; 22] = [
        "0", "1", "7", "9", "-", "+", ".", "e", "E", "\"", "{", "}", "[", "]", ",", ":", " ", "\\",
        "n", "x", "t", "é",
    ];

    /// Offers every line of `bytes`, and mutants of each at the same
    /// chain position, to the verifier and the tree oracle. Returns the
    /// lines admitted.
    fn differential(bytes: &str, first: u64, prev: &str, mutants: usize) -> u64 {
        let mut cursor = ChainCursor::resume(first, prev.to_string(), OLDEST_VERSION);
        let mut rng = 0x5eed_0040_u64;
        let mut next = move |n: usize| {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) as usize % n
        };
        for (i, line) in bytes.split_inclusive('\n').enumerate() {
            for (from, to) in REWRITES {
                for (at, _) in line.match_indices(from).take(3) {
                    let bad = format!("{}{to}{}", &line[..at], &line[at + from.len()..]);
                    oracle::assert_agree(&mut cursor.clone(), i + 1, &bad);
                }
            }
            for bad in [
                format!(" {line}"),
                line.replace('\n', "\r\n"),
                line.trim_end().to_string(),
            ] {
                oracle::assert_agree(&mut cursor.clone(), i + 1, &bad);
            }
            for _ in 0..mutants {
                let mut bad: Vec<char> = line.chars().collect();
                for _ in 0..1 + next(2) {
                    let at = next(bad.len());
                    let with = ALPHABET[next(ALPHABET.len())].chars().next().unwrap_or(' ');
                    match next(3) {
                        0 => bad[at] = with,
                        1 => bad.insert(at, with),
                        _ => drop(bad.remove(at)),
                    }
                }
                let bad: String = bad.into_iter().collect();
                oracle::assert_agree(&mut cursor.clone(), i + 1, &bad);
            }
            assert!(oracle::assert_agree(&mut cursor, i + 1, line), "{line:?}");
        }
        cursor.records()
    }

    #[test]
    fn the_line_verifier_agrees_with_the_tree_oracle() {
        for fixture in [
            include_str!("../../../tests/fixtures/journal_v1.jsonl"),
            include_str!("../../../tests/fixtures/journal_v2.jsonl"),
            &mixed_chain(&[1, 1, 2, 2]),
        ] {
            assert_eq!(
                differential(fixture, 0, GENESIS_HASH, 300),
                fixture.lines().count() as u64
            );
        }
        let events = awkward_events();
        for (first, prev) in [(0, GENESIS_HASH), (41, HOSTILE[2]), (7, HOSTILE[6])] {
            let mut journal = Journal::resume(Vec::new(), first, prev.to_string());
            for (kind, payload) in &events {
                journal.append(kind, payload).unwrap();
            }
            let bytes = String::from_utf8(journal.into_inner()).unwrap();
            assert_eq!(
                differential(&bytes, first, prev, 100),
                first + events.len() as u64
            );
        }
    }

    #[test]
    fn a_hand_respelled_line_with_a_good_hash_is_malformed() {
        // The payload `{"user":1.50}` spells the same value as the
        // encoder's `1.5`, and the stored hash is the hash of that
        // canonical form: the tree verifier admitted the line, the line
        // verifier refuses it, because it is not the encoder's bytes.
        let mut journal = Journal::new(Vec::new());
        journal
            .append("test.event", Json::obj([("user", Json::Num(1.5))]))
            .unwrap();
        let line = String::from_utf8(journal.into_inner()).unwrap();
        let respelled = line.replace("1.5}", "1.50}");
        let mut tree = oracle::TreeCursor {
            records: 0,
            head: GENESIS_HASH.to_string(),
            version: 1,
        };
        assert!(tree.admit(1, &respelled).is_ok());
        assert!(matches!(
            verify_chain(respelled.as_bytes()),
            Err(ChainError::Malformed { line: 1, .. })
        ));
        assert!(verify_chain(line.as_bytes()).is_ok());
    }

    #[test]
    fn the_lending_read_yields_what_the_iterator_does() {
        let bytes = build_journal(6);
        let owned: Vec<JournalRecord> = JournalReader::new(&bytes[..])
            .collect::<Result<_, _>>()
            .unwrap();
        let mut reader = JournalReader::new(&bytes[..]);
        let mut lent = Vec::new();
        while let Some(record) = reader.next_ref() {
            let record = record.unwrap();
            assert_eq!(
                record.payload.get("user"),
                Some(json::Scalar::Int(lent.len() as i64))
            );
            lent.push(record.to_record().unwrap());
        }
        assert_eq!(lent, owned);
        assert_eq!(reader.records_read(), 6);
        assert_eq!(reader.head(), owned[5].hash);
    }

    #[test]
    fn overflowing_float_in_a_record_is_malformed_not_a_panic() {
        let bytes = String::from_utf8(build_journal(2)).unwrap();
        for literal in ["1e999", "-1e999"] {
            let hostile = bytes.replacen("\"user\":1", &format!("\"user\":{literal}"), 1);
            assert_ne!(hostile, bytes);
            assert!(matches!(
                JournalRecord::parse_line(hostile.lines().nth(1).unwrap()),
                Err(ChainError::Malformed { .. })
            ));
            assert!(matches!(
                verify_chain(hostile.as_bytes()),
                Err(ChainError::Malformed { line: 2, .. })
            ));
        }
    }

    /// A scratch file that cleans up after itself.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("hka-journal-{}-{tag}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempPath(path)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Recovers `path`, appends `extra` records, and asserts the file
    /// then verifies end to end. A recovery that truncated bytes also
    /// appends one `journal.recovered` marker record, which the counts
    /// below account for. Returns the recovery report.
    fn recover_append_verify(path: &std::path::Path, extra: i64) -> RecoveryReport {
        let (mut journal, report) = recover(path).unwrap();
        let marker = u64::from(report.truncated_bytes > 0);
        assert_eq!(journal.next_seq(), report.valid_records + marker);
        for i in 0..extra {
            journal.append("post.recovery", sample_payload(i)).unwrap();
        }
        journal.flush().unwrap();
        drop(journal);
        let bytes = std::fs::read(path).unwrap();
        let chain = verify_chain(&bytes[..]).unwrap();
        assert_eq!(
            chain.records.len() as u64,
            report.valid_records + marker + extra as u64
        );
        if marker == 1 {
            assert_eq!(
                chain.records[report.valid_records as usize].kind,
                "journal.recovered"
            );
        }
        report
    }

    #[test]
    fn recover_truncated_final_line_resumes_chain() {
        let tmp = TempPath::new("truncated");
        let full = build_journal(6);
        // Drop the trailing newline and half of the final record: a
        // crash mid-append.
        let text = String::from_utf8(full).unwrap();
        let last_len = text.lines().last().unwrap().len();
        let cut = text.len() - 1 - last_len / 2;
        std::fs::write(&tmp.0, &text.as_bytes()[..cut]).unwrap();

        let report = recover_append_verify(&tmp.0, 3);
        assert_eq!(report.valid_records, 5);
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn recover_torn_garbage_tail_truncates_it() {
        let tmp = TempPath::new("torn");
        let mut bytes = build_journal(4);
        bytes.extend_from_slice(&[0xFF, 0xFE, b'{', b'"', 0x00]);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let report = recover_append_verify(&tmp.0, 2);
        assert_eq!(report.valid_records, 4);
        assert_eq!(report.truncated_bytes, 5);
    }

    #[test]
    fn recover_complete_line_with_broken_chain_is_dropped() {
        let tmp = TempPath::new("badchain");
        let bytes = build_journal(5);
        let text = String::from_utf8(bytes).unwrap();
        // Tamper with the *fourth* record's payload (newline intact):
        // records 0..=2 survive, 3 fails its hash, 4 is unreachable.
        let tampered = text.replacen("\"user\":3", "\"user\":30", 1);
        std::fs::write(&tmp.0, tampered).unwrap();

        let report = recover_append_verify(&tmp.0, 1);
        assert_eq!(report.valid_records, 3);
    }

    #[test]
    fn recover_empty_and_missing_file_start_at_genesis() {
        let tmp = TempPath::new("empty");
        // Missing file.
        let report = recover_append_verify(&tmp.0, 2);
        assert_eq!(report.valid_records, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.head, GENESIS_HASH);

        // Explicitly empty file.
        std::fs::write(&tmp.0, b"").unwrap();
        let report = recover_append_verify(&tmp.0, 1);
        assert_eq!(report.valid_records, 0);
    }

    #[test]
    fn streaming_reader_matches_verify_chain() {
        let bytes = build_journal(10);
        let mut reader = JournalReader::new(&bytes[..]);
        let streamed: Vec<JournalRecord> = reader.by_ref().collect::<Result<_, _>>().unwrap();
        let report = verify_chain(&bytes[..]).unwrap();
        assert_eq!(streamed, report.records);
        assert_eq!(reader.head(), report.head);
        assert_eq!(reader.records_read(), 10);
    }

    #[test]
    fn streaming_reader_stops_at_first_error_keeping_valid_prefix() {
        let bytes = build_journal(6);
        let text = String::from_utf8(bytes).unwrap();
        let tampered = text.replacen("\"user\":3", "\"user\":33", 1);
        let mut reader = JournalReader::new(tampered.as_bytes());
        let mut ok = 0u64;
        let mut err = None;
        for r in reader.by_ref() {
            match r {
                Ok(_) => ok += 1,
                Err(e) => err = Some(e),
            }
        }
        assert_eq!(ok, 3, "records before the tampered one verify");
        assert!(matches!(err, Some(ChainError::BadHash { line: 4 })));
        assert_eq!(reader.records_read(), 3);
        // Iteration is over: the reader does not resynchronize.
        assert!(reader.next().is_none());
    }

    #[test]
    fn recover_truncation_emits_marker_event_and_metric() {
        let tmp = TempPath::new("marker");
        let text = String::from_utf8(build_journal(3)).unwrap();
        std::fs::write(&tmp.0, &text.as_bytes()[..text.len() - 7]).unwrap();

        let before = crate::metrics::global()
            .snapshot()
            .counter("ts.journal_recovered_bytes");
        let (mut journal, report) = recover(&tmp.0).unwrap();
        journal.flush().unwrap();
        drop(journal);
        assert!(report.truncated_bytes > 0);
        let after = crate::metrics::global()
            .snapshot()
            .counter("ts.journal_recovered_bytes");
        assert!(after >= before + report.truncated_bytes);

        let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        let last = chain.records.last().unwrap();
        assert_eq!(last.kind, "journal.recovered");
        assert_eq!(
            last.payload.get("truncated_bytes").unwrap().as_int(),
            Some(report.truncated_bytes as i64)
        );
        assert_eq!(
            last.payload.get("valid_records").unwrap().as_int(),
            Some(report.valid_records as i64)
        );
    }

    #[test]
    fn batched_appends_are_byte_identical_to_per_event_appends() {
        // Exhaustive property over batch sizings: for 8 events there
        // are 2^7 ways to split the sequence into consecutive batches
        // (one bit per potential split point). Every one of them must
        // produce the same bytes as eight individual appends.
        let mut events = awkward_events();
        events.truncate(5);
        events.extend((0..3).map(|i| (format!("kind.{}", i % 2), sample_payload(i))));
        let mut reference = Journal::new(Vec::new());
        for (kind, payload) in &events {
            reference.append(kind, payload.clone()).unwrap();
        }
        let reference = reference.into_inner();
        assert_eq!(
            String::from_utf8(reference.clone()).unwrap(),
            oracle_chain(0, GENESIS_HASH, &events)
        );

        for split_mask in 0u32..(1 << (events.len() - 1)) {
            let mut journal = Journal::new(Vec::new());
            let mut batch: Vec<(String, Json)> = Vec::new();
            for (i, e) in events.iter().enumerate() {
                batch.push(e.clone());
                let boundary = i + 1 == events.len() || split_mask & (1 << i) != 0;
                if boundary {
                    let first = journal.next_seq();
                    let range = journal.append_batch(&batch).unwrap();
                    assert_eq!(range, first..first + batch.len() as u64);
                    batch.clear();
                }
            }
            assert_eq!(
                journal.into_inner(),
                reference,
                "batching mask {split_mask:#b} changed the bytes"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut journal = Journal::new(Vec::new());
        journal.append("a", Json::Int(1)).unwrap();
        let range = journal.append_batch::<String, Json>(&[]).unwrap();
        assert_eq!(range, 1..1);
        assert_eq!(journal.next_seq(), 1);
    }

    #[test]
    fn failed_batch_leaves_state_untouched_so_retry_rechains() {
        let batch: Vec<(String, Json)> = (0..4)
            .map(|i| ("b".to_string(), sample_payload(i)))
            .collect();
        let mut journal = Journal::new(Faucet {
            bytes: Vec::new(),
            fail: false,
        });
        journal.append("a", Json::Int(1)).unwrap();
        journal.sink.fail = true;
        assert!(journal.append_batch(&batch).is_err());
        assert_eq!(journal.next_seq(), 1, "failed batch must not advance seq");
        journal.sink.fail = false;
        // Retry with a *different* batching: two halves. Still chains.
        assert_eq!(journal.append_batch(&batch[..2]).unwrap(), 1..3);
        assert_eq!(journal.append_batch(&batch[2..]).unwrap(), 3..5);
        let report = verify_chain(&journal.sink.bytes[..]).unwrap();
        assert_eq!(report.records.len(), 5);
    }

    #[test]
    fn recover_truncates_torn_batch_to_last_valid_record() {
        let tmp = TempPath::new("torn-batch");
        let batch: Vec<(String, Json)> = (0..5)
            .map(|i| ("b".to_string(), sample_payload(i)))
            .collect();
        let mut journal = Journal::new(Vec::new());
        journal.append_batch(&batch).unwrap();
        let bytes = journal.into_inner();
        // Tear the batch mid-way through its fourth record, as if the
        // machine died while the batched write was landing.
        let text = String::from_utf8(bytes).unwrap();
        let offsets: Vec<usize> = text
            .char_indices()
            .filter(|(_, c)| *c == '\n')
            .map(|(i, _)| i)
            .collect();
        let cut = offsets[2] + 1 + (offsets[3] - offsets[2]) / 2;
        std::fs::write(&tmp.0, &text.as_bytes()[..cut]).unwrap();

        let (mut recovered, report) = recover(&tmp.0).unwrap();
        assert_eq!(report.valid_records, 3);
        assert!(report.truncated_bytes > 0);
        // The recovered journal appends batches that chain from the
        // surviving head (recovery itself wrote one marker record).
        recovered.append_batch(&batch[3..]).unwrap();
        recovered.flush().unwrap();
        drop(recovered);
        let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        assert_eq!(chain.records.len(), 3 + 1 + 2);
        assert_eq!(chain.records[3].kind, "journal.recovered");
    }

    #[test]
    fn commit_flushes_and_syncs_durable_sinks() {
        // BufWriter<Vec<u8>> exercises the flush-then-sync path; the
        // boxed alias exercises dynamic dispatch.
        let mut journal = Journal::new(io::BufWriter::new(Vec::new()));
        journal.append("a", Json::Int(1)).unwrap();
        journal.commit().unwrap();
        let inner = journal.into_inner().into_inner().unwrap();
        assert!(verify_chain(&inner[..]).is_ok());

        let mut boxed: DurableJournal =
            Journal::new(Box::new(Unsynced(io::sink())) as Box<dyn DurableSink>);
        boxed.append("a", Json::Int(1)).unwrap();
        boxed.commit().unwrap();
    }

    #[test]
    fn recover_clean_journal_is_lossless() {
        let tmp = TempPath::new("clean");
        std::fs::write(&tmp.0, build_journal(7)).unwrap();
        let report = recover_append_verify(&tmp.0, 2);
        assert_eq!(report.valid_records, 7);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn recover_exact_record_boundary_appends_no_marker() {
        // A file ending exactly on a record boundary (trailing newline
        // present, nothing after it) is clean: no truncation, no
        // `journal.recovered` marker, resume exactly at the next seq.
        let tmp = TempPath::new("boundary");
        let bytes = build_journal(4);
        assert_eq!(*bytes.last().unwrap(), b'\n');
        std::fs::write(&tmp.0, &bytes).unwrap();
        let report = recover_append_verify(&tmp.0, 0);
        assert_eq!(report.valid_records, 4);
        assert_eq!(report.truncated_bytes, 0);
        let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        assert!(chain.records.iter().all(|r| r.kind != "journal.recovered"));
    }

    #[test]
    fn recover_torn_first_line_only_journals_one_marker() {
        // A file whose only content is a torn first line: nothing
        // survives, the torn bytes are truncated, and exactly one
        // `journal.recovered` marker (valid_records 0) starts a fresh
        // genesis chain.
        let tmp = TempPath::new("torn-first");
        let full = build_journal(1);
        std::fs::write(&tmp.0, &full[..full.len() / 2]).unwrap();

        let report = recover_append_verify(&tmp.0, 1);
        assert_eq!(report.valid_records, 0);
        assert_eq!(report.truncated_bytes, (full.len() / 2) as u64);
        assert_eq!(report.head, GENESIS_HASH);
        let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        assert_eq!(chain.records[0].kind, "journal.recovered");
        assert_eq!(
            chain.records[0]
                .payload
                .get("valid_records")
                .unwrap()
                .as_int(),
            Some(0)
        );
    }

    #[test]
    fn recover_is_idempotent_and_marker_rule_is_consistent() {
        // The marker rule, pinned: exactly one `journal.recovered` per
        // recovery that truncated bytes, none otherwise. Re-recovering
        // an already-recovered file is a clean no-op — no second marker.
        for (tag, torn_cut) in [("idem-zero", None), ("idem-torn", Some(9))] {
            let tmp = TempPath::new(tag);
            let bytes = build_journal(3);
            let keep = torn_cut.map_or(bytes.len(), |c| bytes.len() - c);
            std::fs::write(&tmp.0, &bytes[..keep]).unwrap();

            let (journal, first) = recover(&tmp.0).unwrap();
            drop(journal);
            assert_eq!(first.truncated_bytes > 0, torn_cut.is_some());

            let (journal, second) = recover(&tmp.0).unwrap();
            drop(journal);
            assert_eq!(
                second.truncated_bytes, 0,
                "{tag}: second pass truncates nothing"
            );

            let chain = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
            let markers = chain
                .records
                .iter()
                .filter(|r| r.kind == "journal.recovered")
                .count();
            assert_eq!(
                markers,
                usize::from(torn_cut.is_some()),
                "{tag}: marker count"
            );
        }
    }
}
