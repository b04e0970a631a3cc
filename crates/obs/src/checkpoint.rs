//! Checkpoint snapshots and the journal anchor rule (DESIGN.md §13).
//!
//! A **checkpoint** splits a journal's history in two: a canonical
//! [`Snapshot`] file captures all state derived from the chain prefix,
//! and a `checkpoint` record appended *inside* the hash chain anchors
//! that snapshot to an exact chain position. Three properties make the
//! split crash-safe and tamper-evident:
//!
//! * **Deterministic bytes** — [`Snapshot::encode`] is canonical JSON
//!   (sorted keys, exact float round-trip), so the same state always
//!   produces the same bytes and the same [`Snapshot::content_hash`].
//! * **Anchored hash** — the `checkpoint` record's payload carries the
//!   snapshot's content hash, so the snapshot is covered by the chain:
//!   altering the snapshot breaks the hash comparison, altering the
//!   record breaks the chain.
//! * **Self-describing anchor** — the payload also duplicates the
//!   record's own chain position (`records` = the record's `seq`,
//!   `head` = the record's `prev`). A journal truncated to start at its
//!   checkpoint record therefore tells a verifier exactly where to seed
//!   its [`ChainCursor`](crate::journal::ChainCursor); a payload that
//!   disagrees with the record's actual position is refused
//!   (fail-closed).
//!
//! The prefix/suffix convention: a snapshot at chain position
//! `(records, head)` covers records `0 .. records` — the checkpoint
//! record itself (at `seq == records`) is **not** covered and is always
//! replayed. A genesis replay and a snapshot+suffix replay therefore
//! both ingest the anchor record, and land on byte-identical state.

use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::path::Path;

use crate::journal::{read_record, RecordRef, GENESIS_HASH, JOURNAL_VERSION, OLDEST_VERSION};
use crate::json::{self, CanonicalScan, Json, ObjectWriter};
use crate::sha256::sha256_hex;

/// The `kind` tag of a checkpoint anchor record.
pub const CHECKPOINT_KIND: &str = "checkpoint";

/// Snapshot schema version written into every snapshot file.
pub const SNAPSHOT_VERSION: i64 = 1;

/// A canonical, deterministic snapshot of state derived from a journal
/// prefix. `sections` is an open namespace — the trusted server writes
/// `store` / `users` / `server` / `stats`, the auditor writes `audit` —
/// so one snapshot file serves every consumer of the same chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Records covered: the chain prefix `0 .. records`.
    pub records: u64,
    /// Hash of record `records - 1` ([`GENESIS_HASH`] for `records` 0).
    pub head: String,
    /// Named state sections, canonically serialized.
    pub sections: BTreeMap<String, Json>,
}

impl Snapshot {
    /// An empty snapshot at chain position `(records, head)`.
    pub fn new(records: u64, head: impl Into<String>) -> Self {
        Snapshot {
            records,
            head: head.into(),
            sections: BTreeMap::new(),
        }
    }

    /// A snapshot of the empty chain (genesis, no sections).
    pub fn genesis() -> Self {
        Snapshot::new(0, GENESIS_HASH)
    }

    /// Adds (or replaces) a named section.
    pub fn set_section(&mut self, name: &str, value: Json) {
        self.sections.insert(name.to_string(), value);
    }

    /// A named section, if present.
    pub fn section(&self, name: &str) -> Option<&Json> {
        self.sections.get(name)
    }

    /// The canonical single-line serialization (trailing newline
    /// included) — exactly the bytes [`write_atomic`] puts on disk and
    /// [`Snapshot::content_hash`] hashes.
    pub fn encode(&self) -> String {
        let mut line = String::new();
        let mut object = ObjectWriter::new(&mut line);
        object.field("head", &self.head);
        object.field("records", self.records);
        object.field("sections", &self.sections);
        object.field("v", SNAPSHOT_VERSION);
        object.finish();
        line.push('\n');
        line
    }

    /// SHA-256 (hex) of the canonical serialization — the hash the
    /// checkpoint anchor record carries.
    pub fn content_hash(&self) -> String {
        sha256_hex(self.encode().as_bytes())
    }

    /// Parses a snapshot from its serialized form.
    pub fn parse(text: &str) -> io::Result<Snapshot> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let value =
            json::parse(text.trim()).map_err(|e| bad(format!("malformed snapshot: {e}")))?;
        let version = value
            .get("v")
            .and_then(|j| j.as_int())
            .ok_or_else(|| bad("snapshot missing 'v'".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }
        let records = value
            .get("records")
            .and_then(|j| j.as_int())
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| bad("snapshot 'records' not a non-negative integer".into()))?;
        let head = value
            .get("head")
            .and_then(|j| j.as_str())
            .ok_or_else(|| bad("snapshot 'head' not a string".into()))?
            .to_string();
        let sections = match value.get("sections") {
            Some(Json::Obj(map)) => map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            _ => return Err(bad("snapshot 'sections' not an object".into())),
        };
        Ok(Snapshot {
            records,
            head,
            sections,
        })
    }

    /// Reads a snapshot file, returning the parsed snapshot and the
    /// content hash of the **raw file bytes**. A caller holding an
    /// anchor compares that hash against the anchored one before
    /// trusting anything inside — a torn, tampered, or re-encoded file
    /// hashes differently and is rejected.
    pub fn read(path: &Path) -> io::Result<(Snapshot, String)> {
        let bytes = std::fs::read(path)?;
        let hash = sha256_hex(&bytes);
        let text = std::str::from_utf8(&bytes).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "snapshot is not valid UTF-8")
        })?;
        let snapshot = Snapshot::parse(text)?;
        Ok((snapshot, hash))
    }
}

/// Writes `snapshot` to `path` crash-safely: the canonical bytes go to
/// a sibling temp file, are fsynced, and the temp file is atomically
/// renamed over `path`. A crash at any point leaves either the old file
/// (or nothing) or the complete new file — never a torn snapshot at the
/// final path. Returns the content hash of the written bytes.
pub fn write_atomic(snapshot: &Snapshot, path: &Path) -> io::Result<String> {
    let bytes = snapshot.encode();
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(sha256_hex(bytes.as_bytes()))
}

/// A parsed, validated checkpoint anchor: the payload of a `checkpoint`
/// record, already checked against the record's own chain position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointAnchor {
    /// Chain records covered by the snapshot (= the record's `seq`).
    pub records: u64,
    /// Chain head the snapshot covers (= the record's `prev`).
    pub head: String,
    /// Snapshot file name (relative to the journal's directory).
    pub file: String,
    /// Content hash the snapshot file must have.
    pub snapshot: String,
}

/// The payload of a checkpoint anchor record. The record appended with
/// this payload must receive sequence `records` and chain from `head` —
/// that duplication is what makes a truncated journal self-describing.
pub fn anchor_payload(file: &str, records: u64, head: &str, snapshot_hash: &str) -> Json {
    Json::obj([
        ("file", Json::from(file)),
        ("head", Json::from(head)),
        ("records", Json::from(records)),
        ("snapshot", Json::from(snapshot_hash)),
    ])
}

impl CheckpointAnchor {
    /// Reads and validates a `checkpoint` record as an anchor: `Err`
    /// when a payload field is missing or ill-typed, or the payload
    /// *disagrees* with the record's own chain position — such a record
    /// must never seed a verifier.
    pub fn of_record(record: &RecordRef<'_>) -> Result<CheckpointAnchor, String> {
        let field = |name: &str| {
            record
                .payload
                .get(name)
                .ok_or_else(|| format!("checkpoint payload missing '{name}'"))
        };
        let string = |name: &str| {
            field(name)?
                .into_str()
                .map(|s| s.into_owned())
                .ok_or_else(|| format!("checkpoint '{name}' not a string"))
        };
        let file = string("file")?;
        let head = string("head")?;
        let records = field("records")?
            .as_int()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or("checkpoint 'records' not a non-negative integer")?;
        let snapshot = string("snapshot")?;
        if records != record.seq {
            return Err(format!(
                "checkpoint anchor covers {records} records but sits at seq {}",
                record.seq
            ));
        }
        if head != record.prev {
            return Err("checkpoint anchor head does not match the record's prev hash".into());
        }
        Ok(CheckpointAnchor {
            records,
            head,
            file,
            snapshot,
        })
    }
}

/// `line` as a checkpoint anchor, read the way the verifier reads a
/// record: `None` unless it is a record of a version the verifier reads
/// (1 or 2), in the encoder's exact form, whose kind is `checkpoint`;
/// then the anchor, or why its payload cannot be one.
fn anchor_of_line(
    scan: &mut CanonicalScan,
    line: &str,
) -> Option<Result<CheckpointAnchor, String>> {
    // The kind is spelled one way in a record the reader accepts, so a
    // line without these bytes is not a checkpoint record: skip it
    // without checking its payload.
    if !line.contains(r#","kind":"checkpoint","payload":"#) {
        return None;
    }
    match read_record(scan, line) {
        Ok(record)
            if (OLDEST_VERSION..=JOURNAL_VERSION).contains(&record.version)
                && record.kind == CHECKPOINT_KIND =>
        {
            Some(CheckpointAnchor::of_record(&record))
        }
        _ => None,
    }
}

/// If `line` is a valid, self-consistent checkpoint anchor record *past
/// genesis*, the `(records, head)` pair to seed a
/// [`ChainCursor`](crate::journal::ChainCursor) with; `Ok(None)` for
/// anything else that is not a checkpoint record — a line the verifier
/// would not read, another kind, a seq-0 checkpoint (the genesis cursor
/// already fits). `Err` only when the line *is* a checkpoint record but
/// its anchor is malformed or inconsistent: the readers then start at
/// genesis (and fail on it), and [`crate::recover`] refuses instead of
/// truncating a whole suffix journal down to nothing.
pub(crate) fn leading_anchor(line: &str) -> Result<Option<(u64, String)>, String> {
    match anchor_of_line(&mut CanonicalScan::default(), line) {
        Some(Ok(anchor)) if anchor.records > 0 => Ok(Some((anchor.records, anchor.head))),
        Some(Err(reason)) => Err(reason),
        _ => Ok(None),
    }
}

/// The one reader of checkpoint anchors in a journal: walks its
/// complete (newline-terminated) lines in order and offers `visit` each
/// self-consistent anchor with the byte offset of its line and its
/// version floor, until `visit` returns `Some`. It does not verify the
/// chain — recovery runs *before* verification and must find candidates
/// even in a file with a torn tail — but it reads each line as the
/// verifier does, so a line the verifier would refuse is never an
/// anchor here either.
///
/// The floor is the schema version of the last non-blank line before
/// the anchor (1 when there is none, or the verifier cannot read it): a
/// cursor resumed at the anchor starts there, so it refuses a v1 anchor
/// after a v2 line exactly as a genesis replay does.
pub fn find_anchor<T>(
    mut journal: impl BufRead,
    mut visit: impl FnMut(u64, i64, CheckpointAnchor) -> Option<T>,
) -> io::Result<Option<T>> {
    let mut scan = CanonicalScan::default();
    let (mut line, mut before) = (Vec::new(), Vec::new());
    let mut offset = 0u64;
    loop {
        line.clear();
        let n = journal.read_until(b'\n', &mut line)?;
        if !line.ends_with(b"\n") {
            return Ok(None);
        }
        let text = std::str::from_utf8(&line).ok();
        if let Some(Ok(anchor)) = text.and_then(|text| anchor_of_line(&mut scan, text)) {
            let floor = std::str::from_utf8(&before)
                .ok()
                .and_then(|text| read_record(&mut scan, text).ok())
                .map_or(OLDEST_VERSION, |record| record.version);
            if let Some(found) = visit(offset, floor, anchor) {
                return Ok(Some(found));
            }
        }
        if !text.is_some_and(|text| text.trim().is_empty()) {
            std::mem::swap(&mut line, &mut before);
        }
        offset += n as u64;
    }
}

/// Every checkpoint anchor in a journal file ([`find_anchor`]), newest
/// first. A missing file has none.
pub fn scan_anchors(path: &Path) -> io::Result<Vec<CheckpointAnchor>> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut anchors = Vec::new();
    find_anchor(io::BufReader::new(file), |_, _, anchor| {
        anchors.push(anchor);
        None::<()>
    })?;
    anchors.reverse();
    Ok(anchors)
}

/// Truncates a journal down to the suffix that starts at the checkpoint
/// anchor with sequence `anchor_records` ([`find_anchor`]),
/// crash-safely: the suffix is written to a temp file, fsynced, and
/// atomically renamed over the journal. The dropped prefix is returned
/// so callers can archive it. Fails (journal untouched) if no such
/// anchor exists in the file.
pub fn truncate_to_anchor(path: &Path, anchor_records: u64) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    let cut = find_anchor(&bytes[..], |offset, _, anchor| {
        (anchor.records == anchor_records).then_some(offset as usize)
    })?;
    let Some(cut) = cut else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "no checkpoint record at seq {anchor_records} in {}",
                path.display()
            ),
        ));
    };
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes[cut..])?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(bytes[..cut].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{recover, verify_chain, Journal, JournalReader, JournalRecord};
    use std::io::BufReader;

    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("hka-checkpoint-{}-{tag}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempPath(path)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn payload(i: i64) -> Json {
        Json::obj([("n", Json::Int(i))])
    }

    #[test]
    fn snapshot_round_trips_and_hashes_deterministically() {
        let mut snap = Snapshot::new(7, "aa".repeat(32));
        snap.set_section("store", Json::obj([("users", Json::Int(3))]));
        snap.set_section("audit", Json::obj([("events", Json::Int(7))]));
        let encoded = snap.encode();
        assert!(encoded.ends_with('\n'));
        let parsed = Snapshot::parse(&encoded).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.content_hash(), snap.content_hash());
        // Section insertion order cannot matter: canonical keys.
        let mut snap2 = Snapshot::new(7, "aa".repeat(32));
        snap2.set_section("audit", Json::obj([("events", Json::Int(7))]));
        snap2.set_section("store", Json::obj([("users", Json::Int(3))]));
        assert_eq!(snap2.encode(), encoded);
    }

    #[test]
    fn write_atomic_matches_content_hash_and_read_verifies() {
        let tmp = TempPath::new("atomic");
        let mut snap = Snapshot::new(3, "bb".repeat(32));
        snap.set_section("x", Json::Int(1));
        let hash = write_atomic(&snap, &tmp.0).unwrap();
        assert_eq!(hash, snap.content_hash());
        let (read_back, file_hash) = Snapshot::read(&tmp.0).unwrap();
        assert_eq!(read_back, snap);
        assert_eq!(file_hash, hash);
        // A flipped byte changes the file hash: the anchor comparison
        // rejects it without needing to parse anything.
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        bytes[10] ^= 1;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let (_, tampered_hash) = Snapshot::read(&tmp.0).unwrap_or_else(|_| {
            // Parsing may fail outright; either way the hash differs.
            (Snapshot::genesis(), crate::sha256::sha256_hex(&bytes))
        });
        assert_ne!(tampered_hash, hash);
    }

    /// A journal with `n` records, then a checkpoint anchor, then `m`
    /// more records; returns (full bytes, anchor seq).
    fn anchored_journal(n: i64, m: i64) -> (Vec<u8>, u64) {
        let mut journal = Journal::new(Vec::new());
        for i in 0..n {
            journal.append("test.event", payload(i)).unwrap();
        }
        let records = journal.next_seq();
        let head = journal.head().to_string();
        let snap = Snapshot::new(records, head.clone());
        let anchor_seq = journal
            .append(
                CHECKPOINT_KIND,
                anchor_payload("snap.json", records, &head, &snap.content_hash()),
            )
            .unwrap();
        for i in 0..m {
            journal.append("test.event", payload(100 + i)).unwrap();
        }
        (journal.into_inner(), anchor_seq)
    }

    fn suffix_of(bytes: &[u8], anchor_seq: u64) -> Vec<u8> {
        let text = std::str::from_utf8(bytes).unwrap();
        let mut out = String::new();
        let mut keep = false;
        for line in text.lines() {
            if !keep {
                let record = JournalRecord::parse_line(line).unwrap();
                keep = record.kind == CHECKPOINT_KIND && record.seq == anchor_seq;
            }
            if keep {
                out.push_str(line);
                out.push('\n');
            }
        }
        out.into_bytes()
    }

    #[test]
    fn verify_chain_accepts_a_checkpoint_suffix() {
        let (full, anchor_seq) = anchored_journal(5, 4);
        let full_report = verify_chain(&full[..]).unwrap();
        assert_eq!(full_report.records.len(), 10);

        let suffix = suffix_of(&full, anchor_seq);
        let report = verify_chain(&suffix[..]).unwrap();
        // Anchor + 4 suffix records verified; head matches the full file.
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.head, full_report.head);
        let mut reader = JournalReader::new(BufReader::new(&suffix[..]));
        for r in reader.by_ref() {
            r.unwrap();
        }
        assert_eq!(reader.records_read(), 10, "chain position is absolute");
    }

    #[test]
    fn inconsistent_anchor_does_not_seed_verification() {
        let (full, anchor_seq) = anchored_journal(5, 2);
        let suffix = suffix_of(&full, anchor_seq);
        let text = String::from_utf8(suffix).unwrap();
        // Lie about the covered records: payload says 4, record sits at 5.
        let forged = text.replacen("\"records\":5", "\"records\":4", 1);
        let err = verify_chain(forged.as_bytes()).unwrap_err();
        // The forged payload breaks the record's own hash first; either
        // way the suffix is refused rather than admitted.
        assert!(matches!(
            err,
            crate::ChainError::BadHash { line: 1 } | crate::ChainError::BadSequence { line: 1, .. }
        ));
    }

    #[test]
    fn recover_resumes_a_suffix_journal_from_its_anchor() {
        let tmp = TempPath::new("suffix-recover");
        let (full, anchor_seq) = anchored_journal(6, 3);
        let mut suffix = suffix_of(&full, anchor_seq);
        // Crash mid-append: torn final record.
        let torn = br#"{"hash":"torn"#;
        suffix.extend_from_slice(torn);
        std::fs::write(&tmp.0, &suffix).unwrap();

        let (mut journal, report) = recover(&tmp.0).unwrap();
        assert_eq!(report.valid_records, 10, "6 prefix + anchor + 3 suffix");
        assert_eq!(report.truncated_bytes, torn.len() as u64);
        journal.append("after", payload(0)).unwrap();
        journal.flush().unwrap();
        drop(journal);

        let report = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        let kinds: Vec<&str> = report.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                CHECKPOINT_KIND,
                "test.event",
                "test.event",
                "test.event",
                "journal.recovered",
                "after",
            ]
        );
    }

    #[test]
    fn recover_refuses_an_inconsistent_leading_anchor() {
        let tmp = TempPath::new("bad-anchor");
        let (full, anchor_seq) = anchored_journal(4, 2);
        let suffix = suffix_of(&full, anchor_seq);
        let text = String::from_utf8(suffix).unwrap();
        let forged = text.replacen("\"records\":4", "\"records\":3", 1);
        std::fs::write(&tmp.0, forged.as_bytes()).unwrap();
        let before = std::fs::read(&tmp.0).unwrap();

        let err = recover(&tmp.0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Fail-closed means the file is untouched, not truncated away.
        assert_eq!(std::fs::read(&tmp.0).unwrap(), before);
    }

    #[test]
    fn scan_anchors_finds_newest_first_even_with_torn_tail() {
        let tmp = TempPath::new("scan");
        let mut journal = Journal::new(Vec::new());
        let mut expected = Vec::new();
        for round in 0..3u64 {
            for i in 0..4 {
                journal.append("test.event", payload(i)).unwrap();
            }
            let records = journal.next_seq();
            let head = journal.head().to_string();
            journal
                .append(
                    CHECKPOINT_KIND,
                    anchor_payload(
                        &format!("snap-{round}.json"),
                        records,
                        &head,
                        &"00".repeat(32),
                    ),
                )
                .unwrap();
            expected.push(records);
        }
        let mut bytes = journal.into_inner();
        bytes.extend_from_slice(b"{\"torn");
        std::fs::write(&tmp.0, &bytes).unwrap();

        let anchors = scan_anchors(&tmp.0).unwrap();
        let seqs: Vec<u64> = anchors.iter().map(|a| a.records).collect();
        expected.reverse();
        assert_eq!(seqs, expected);
        assert_eq!(anchors[0].file, "snap-2.json");
    }

    #[test]
    fn truncate_to_anchor_keeps_a_verifiable_suffix() {
        let tmp = TempPath::new("truncate");
        let (full, anchor_seq) = anchored_journal(8, 5);
        std::fs::write(&tmp.0, &full).unwrap();
        let full_report = verify_chain(&full[..]).unwrap();

        let prefix = truncate_to_anchor(&tmp.0, anchor_seq).unwrap();
        assert_eq!(
            prefix.len() + std::fs::read(&tmp.0).unwrap().len(),
            full.len()
        );
        let report = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        assert_eq!(report.head, full_report.head);
        assert_eq!(report.records[0].kind, CHECKPOINT_KIND);

        // Asking for an anchor that is not there leaves the file alone.
        let before = std::fs::read(&tmp.0).unwrap();
        assert!(truncate_to_anchor(&tmp.0, 999).is_err());
        assert_eq!(std::fs::read(&tmp.0).unwrap(), before);
    }
}
