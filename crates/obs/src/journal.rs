//! A versioned, append-only, hash-chained JSONL event journal.
//!
//! Each line is one JSON object:
//!
//! ```json
//! {"hash":"…","kind":"forwarded","payload":{…},"prev":"…","seq":0,"v":1}
//! ```
//!
//! * `v` — schema version (currently 1);
//! * `seq` — monotonic sequence number starting at 0;
//! * `kind` — event type tag;
//! * `payload` — event body, canonically serialized (sorted keys);
//! * `prev` — hash of the previous event, or 64 zeros for the first;
//! * `hash` — `sha256("v1:{seq}:{kind}:{payload}:{prev}")` in hex.
//!
//! Chaining `prev` through every record makes truncation, reordering,
//! and in-place edits detectable by [`verify_chain`], which re-derives
//! every hash from the parsed payload's canonical serialization.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::json::{self, Canonical, Digits, Json};
use crate::sha256::{HexDigest, Sha256};

/// Journal schema version written into every record.
pub const JOURNAL_VERSION: i64 = 1;

/// `prev` of the first record: 64 hex zeros.
pub const GENESIS_HASH: &str = "0000000000000000000000000000000000000000000000000000000000000000";

// The two places the schema version is spelled into a record's bytes:
// the head of the hash preimage and the tail of the line.
const PREIMAGE_HEAD: &[u8] = b"v1:";
const LINE_TAIL: &str = ",\"v\":1}\n";
const _: () = assert!(JOURNAL_VERSION == 1, "PREIMAGE_HEAD and LINE_TAIL spell v1");

/// The hash of one record — `sha256("v1:{seq}:{kind}:{payload}:{prev}")`
/// — streamed piece by piece, so no preimage is ever assembled.
fn record_digest(seq: u64, kind: &str, payload_canonical: &str, prev: &str) -> HexDigest {
    let mut hasher = Sha256::new();
    hasher.update(PREIMAGE_HEAD);
    hasher.update(Digits::of(seq).as_str().as_bytes());
    hasher.update(b":");
    hasher.update(kind.as_bytes());
    hasher.update(b":");
    hasher.update(payload_canonical.as_bytes());
    hasher.update(b":");
    hasher.update(prev.as_bytes());
    HexDigest::of(&hasher.finalize())
}

/// The hash of one record: covers version, sequence number, kind,
/// canonical payload, and the previous record's hash.
pub fn event_hash(seq: u64, kind: &str, payload_canonical: &str, prev: &str) -> String {
    record_digest(seq, kind, payload_canonical, prev)
        .as_str()
        .to_string()
}

/// The one record encoder. Writes `payload`'s canonical form once, into
/// `scratch`; hashes it from there; then splices the same bytes into
/// the record's line, appended to `line` with its newline:
///
/// ```text
/// {"hash":"…","kind":…,"payload":<scratch>,"prev":…,"seq":N,"v":1}\n
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
    let hash = record_digest(seq, kind, scratch, prev);
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
    /// A record's schema version is not [`JOURNAL_VERSION`].
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
    /// The canonical payload of the record under verification; reused.
    scratch: String,
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
        ChainCursor::resume(0, GENESIS_HASH.to_string())
    }

    /// A cursor positioned mid-chain: the next admitted record must
    /// carry sequence number `records` and chain from `head`. This is
    /// how a verifier starts from a checkpoint anchor instead of
    /// genesis — a truncated journal's leading `checkpoint` record
    /// carries exactly this pair in its payload
    /// ([`crate::checkpoint::CheckpointAnchor`]).
    pub fn resume(records: u64, head: String) -> Self {
        ChainCursor {
            records,
            head,
            scratch: String::new(),
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

    /// Parses one line and checks it against the chain so far: schema
    /// version, sequence monotonicity, `prev` link, recomputed hash. On
    /// success the cursor advances; on failure it is untouched, so the
    /// same line (or a repaired one) can be offered again. `line_no` is
    /// the 1-based line number used in errors.
    pub fn admit(&mut self, line_no: usize, line: &str) -> Result<JournalRecord, ChainError> {
        let record = JournalRecord::parse_line(line).map_err(|e| match e {
            ChainError::Malformed { message, .. } => ChainError::Malformed {
                line: line_no,
                message,
            },
            other => other,
        })?;
        if record.version != JOURNAL_VERSION {
            return Err(ChainError::BadVersion {
                line: line_no,
                found: record.version,
            });
        }
        if record.seq != self.records {
            return Err(ChainError::BadSequence {
                line: line_no,
                expected: self.records,
                found: record.seq,
            });
        }
        if record.prev != self.head {
            return Err(ChainError::BrokenLink { line: line_no });
        }
        // The one verifier: the hash is re-derived from the *parsed*
        // payload's canonical form, never from the bytes on the line, so
        // a record written by a non-canonical encoder cannot verify.
        self.scratch.clear();
        record.payload.write_canonical(&mut self.scratch);
        let recomputed = record_digest(record.seq, &record.kind, &self.scratch, &record.prev);
        if recomputed.as_str() != record.hash {
            return Err(ChainError::BadHash { line: line_no });
        }
        self.head.clone_from(&record.hash);
        self.records += 1;
        Ok(record)
    }
}

/// A streaming reader over a journal: yields each record after checking
/// it against the chain so far (schema version, sequence monotonicity,
/// `prev` link, recomputed hash). The first failure is yielded as an
/// `Err` and iteration stops; [`records_read`](JournalReader::records_read)
/// and [`head`](JournalReader::head) then describe the verified prefix.
///
/// [`verify_chain`] is this reader run to completion. Replay consumers
/// (`hka-audit`) drive the reader directly so an arbitrarily large
/// journal is verified and analyzed in one pass without buffering every
/// record in memory.
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
    /// sequence `records` and chain from `head`. No anchor
    /// auto-detection — the caller already knows the position.
    pub fn resume(input: R, records: u64, head: String) -> Self {
        JournalReader {
            input,
            line_no: 0,
            cursor: ChainCursor::resume(records, head),
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
}

impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = Result<JournalRecord, ChainError>;

    fn next(&mut self) -> Option<Self::Item> {
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
                    return Some(Err(ChainError::Io(e.to_string())));
                }
            }
            if self.line.trim().is_empty() {
                continue;
            }
            if self.at_start {
                self.at_start = false;
                if let Some((records, head)) = crate::checkpoint::suffix_anchor(&self.line) {
                    self.cursor = ChainCursor::resume(records, head);
                }
            }
            let result = self.cursor.admit(self.line_no, &self.line);
            if result.is_err() {
                self.done = true;
            }
            return Some(result);
        }
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

/// The first complete (newline-terminated), non-blank, UTF-8 line of
/// `bytes`, if any. A torn or non-UTF-8 first line yields `None`.
fn first_complete_line(bytes: &[u8]) -> Option<&str> {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let nl = bytes[offset..].iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&bytes[offset..offset + nl]).ok()?;
        if !line.trim().is_empty() {
            return Some(line);
        }
        offset += nl + 1;
    }
    None
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
/// its own chain position is refused with
/// [`io::ErrorKind::InvalidData`] — the file is left untouched rather
/// than truncated to nothing, because every byte of a suffix journal
/// hangs off its anchor and "recovering" past a bad one would silently
/// discard the whole suffix (fail-open). Higher layers fall back to an
/// earlier checkpoint or a genesis replay instead.
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

    let mut cursor = ChainCursor::new();
    // A truncated journal begins at its checkpoint anchor, not genesis:
    // seed the cursor from a consistent leading anchor, refuse an
    // inconsistent one (fail-closed — see the function docs).
    if let Some(first) = first_complete_line(&bytes) {
        match crate::checkpoint::leading_anchor(first) {
            Ok(Some((records, head))) => cursor = ChainCursor::resume(records, head),
            Ok(None) => {}
            Err(reason) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("refusing to recover {}: {reason}", path.display()),
                ));
            }
        }
    }
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
        if line.trim().is_empty() {
            offset = line_end + 1;
            valid_end = offset;
            continue;
        }
        if cursor.admit(0, line).is_err() {
            break;
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
        let bytes = build_journal(2);
        let text = String::from_utf8(bytes)
            .unwrap()
            .replace("\"v\":1", "\"v\":2");
        assert!(matches!(
            verify_chain(text.as_bytes()),
            Err(ChainError::BadVersion { line: 1, found: 2 })
        ));
    }

    /// The construction the encoder replaced, kept as the reference:
    /// build the record as a `Json` tree, print it with the old
    /// per-`char` serializer, `format!` the preimage, hash it one-shot.
    fn oracle_line(seq: u64, kind: &str, payload: &Json, prev: &str) -> (String, String) {
        let canonical = json::oracle::to_string(payload);
        let preimage = format!("v{JOURNAL_VERSION}:{seq}:{kind}:{canonical}:{prev}");
        let hash = crate::sha256::sha256_hex(preimage.as_bytes());
        let record = Json::obj([
            ("v", Json::Int(JOURNAL_VERSION)),
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
