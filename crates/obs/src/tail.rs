//! Follow mode for the hash-chained journal: tail a live, growing file
//! while a serving process appends to it.
//!
//! [`JournalTailer`] is the read side of the flush contract (DESIGN.md
//! §12): it consumes **only fully hash-chained records** — complete,
//! newline-terminated lines that pass the same four checks as
//! [`JournalReader`](crate::JournalReader) (schema version, sequence
//! monotonicity, `prev` link, recomputed hash) — and **tolerates torn
//! tails**. The writer's topology guarantees make this sound:
//!
//! * every append is a single `write_all` of `record + '\n'`, so an
//!   interrupted or buffered write leaves *complete valid lines followed
//!   by at most one newline-less prefix of the next record*;
//! * therefore a trailing line without `\n` is in-flight or torn — the
//!   tailer leaves it in place and re-polls, never failing the chain on
//!   it — while a **complete** line that fails verification is genuine
//!   corruption and ends the tail with a sticky [`ChainError`];
//! * [`recover`](crate::recover) truncates only invalid suffix bytes,
//!   which the tailer by construction never consumed, so a concurrent
//!   crash-recovery cycle can shorten the file only *above* the tailer's
//!   offset; shrinking below it is reported as
//!   [`ChainError::TruncatedBehind`].
//!
//! The tailer holds no file handle between polls: each [`poll`]
//! re-opens the path, seeks to the verified offset, and reads whatever
//! grew. A missing file is an empty journal (the writer may not have
//! created it yet), matching the offline reader's clean handling of
//! empty input.
//!
//! [`poll`]: JournalTailer::poll

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::journal::{not_utf8, ChainCursor, ChainError, RecordRef, OLDEST_VERSION};

/// What one [`JournalTailer::poll`] found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TailBatch {
    /// Records newly verified (and handed to the poll's visitor).
    pub records: u64,
    /// Bytes after the last complete line: a torn or in-flight append.
    /// Not consumed — the next poll re-reads them.
    pub torn_bytes: u64,
}

/// A polling reader over a live journal file. See the module docs for
/// the safety rules it relies on.
#[derive(Debug)]
pub struct JournalTailer {
    path: PathBuf,
    /// Byte offset one past the last verified record.
    offset: u64,
    /// Complete lines consumed so far (1-based numbering parity with
    /// [`JournalReader`](crate::JournalReader) error messages).
    line_no: usize,
    cursor: ChainCursor,
    /// The first chain failure, sticky: a journal is unusable past it.
    failed: Option<ChainError>,
    /// True until the first complete line is seen: a tailer opened at
    /// the start of a file may find a checkpoint-anchored suffix there
    /// and seed its cursor from the anchor.
    at_start: bool,
}

impl JournalTailer {
    /// A tailer positioned at the start of `path`. The file does not
    /// need to exist yet — polls before the writer's first append
    /// return empty batches. Like the offline reader, a first record
    /// that is a self-consistent `checkpoint` anchor (a truncated
    /// journal suffix — see [`crate::checkpoint`]) seeds the cursor
    /// from the anchor instead of genesis.
    pub fn open(path: &Path) -> Self {
        JournalTailer {
            path: path.to_path_buf(),
            offset: 0,
            line_no: 0,
            cursor: ChainCursor::new(),
            failed: None,
            at_start: true,
        }
    }

    /// A tailer resuming mid-file: the next record starts at byte
    /// `offset`, must carry sequence `records` chained from `head`, and
    /// have a version no older than `floor` ([`ChainCursor::resume`]).
    /// This is how a watcher restarts from a checkpoint instead of
    /// re-verifying from the start of the file.
    pub fn resume(path: &Path, offset: u64, records: u64, head: String, floor: i64) -> Self {
        JournalTailer {
            path: path.to_path_buf(),
            offset,
            line_no: 0,
            cursor: ChainCursor::resume(records, head, floor),
            failed: None,
            at_start: false,
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

    /// Byte offset one past the last verified record.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The sticky chain failure, if the tail has ended.
    pub fn error(&self) -> Option<&ChainError> {
        self.failed.as_ref()
    }

    /// Reads and verifies whatever the journal grew since the last
    /// poll, handing each newly verified record to `visit` — borrowed
    /// from the line [`ChainCursor::admit`] checked, with the byte offset
    /// of its first byte in the file (the stable anchor a watch surface
    /// reports alongside violations). Returns how many records were
    /// verified plus the size of any torn/in-flight tail.
    ///
    /// Failure delivery matches the offline reader's: a complete line
    /// that fails verification *mid-batch* does not discard the records
    /// admitted before it — the batch is returned `Ok`, the failure is
    /// latched (visible immediately via [`error`](Self::error)), and
    /// every later poll returns it as `Err`. Failures detected before
    /// anything is consumed ([`ChainError::TruncatedBehind`], I/O
    /// errors) return `Err` at once. Either way the error is sticky:
    /// nothing past a chain failure can be trusted.
    pub fn poll(
        &mut self,
        visit: impl FnMut(u64, &RecordRef<'_>),
    ) -> Result<TailBatch, ChainError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.read_new(visit).inspect_err(|e| {
            self.failed = Some(e.clone());
        })
    }

    fn read_new(
        &mut self,
        mut visit: impl FnMut(u64, &RecordRef<'_>),
    ) -> Result<TailBatch, ChainError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            // Not created yet: an empty journal, not an error — unless
            // the verified prefix vanished with it.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if self.offset > 0 {
                    return Err(ChainError::TruncatedBehind {
                        offset: self.offset,
                        len: 0,
                    });
                }
                return Ok(TailBatch::default());
            }
            Err(e) => return Err(ChainError::Io(e.to_string())),
        };
        let len = file
            .metadata()
            .map_err(|e| ChainError::Io(e.to_string()))?
            .len();
        if len < self.offset {
            return Err(ChainError::TruncatedBehind {
                offset: self.offset,
                len,
            });
        }
        if len == self.offset {
            return Ok(TailBatch::default());
        }
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| ChainError::Io(e.to_string()))?;
        let mut bytes = Vec::with_capacity((len - self.offset) as usize);
        file.read_to_end(&mut bytes)
            .map_err(|e| ChainError::Io(e.to_string()))?;

        let base = self.offset;
        let mut batch = TailBatch::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                break; // torn or in-flight final line: re-poll later
            };
            let line_end = pos + nl;
            let record_offset = base + pos as u64;
            let Ok(line) = std::str::from_utf8(&bytes[pos..line_end]) else {
                self.failed = Some(not_utf8(self.line_no + 1));
                batch.torn_bytes = 0;
                return Ok(batch);
            };
            self.line_no += 1;
            if !line.trim().is_empty() {
                if self.at_start {
                    self.at_start = false;
                    if let Ok(Some((records, head))) = crate::checkpoint::leading_anchor(line) {
                        self.cursor = ChainCursor::resume(records, head, OLDEST_VERSION);
                    }
                }
                match self.cursor.admit(self.line_no, line) {
                    Ok(record) => {
                        visit(record_offset, &record);
                        batch.records += 1;
                    }
                    // Genuine corruption on a complete line: deliver
                    // the records verified before it — exactly what the
                    // offline reader reports — and latch the failure.
                    Err(e) => {
                        self.failed = Some(e);
                        batch.torn_bytes = 0;
                        return Ok(batch);
                    }
                }
            }
            pos = line_end + 1;
            self.offset = base + pos as u64;
        }
        batch.torn_bytes = (bytes.len() - pos) as u64;
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{recover, verify_chain, Journal, JournalRecord, GENESIS_HASH};
    use crate::json::Json;
    use std::io::Write;

    /// One poll's records, copied out with their offsets.
    #[derive(Debug)]
    struct Polled {
        records: Vec<(u64, JournalRecord)>,
        torn_bytes: u64,
    }

    fn poll(tailer: &mut JournalTailer) -> Result<Polled, ChainError> {
        let mut records = Vec::new();
        let batch = tailer.poll(|offset, record| {
            records.push((offset, record.to_record().unwrap()));
        })?;
        assert_eq!(batch.records, records.len() as u64);
        Ok(Polled {
            records,
            torn_bytes: batch.torn_bytes,
        })
    }

    /// A scratch file that cleans up after itself.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("hka-tail-{}-{tag}.jsonl", std::process::id()));
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

    fn journal_bytes(range: std::ops::Range<i64>) -> Vec<u8> {
        let mut j = Journal::new(Vec::new());
        for i in range {
            j.append("tail.test", payload(i)).unwrap();
        }
        j.into_inner()
    }

    #[test]
    fn missing_then_empty_file_polls_clean() {
        let tmp = TempPath::new("missing");
        let mut tailer = JournalTailer::open(&tmp.0);
        let batch = poll(&mut tailer).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(batch.torn_bytes, 0);
        assert_eq!(tailer.records_read(), 0);
        assert_eq!(tailer.head(), GENESIS_HASH);

        // Zero-length file: identical clean-empty result.
        std::fs::write(&tmp.0, b"").unwrap();
        let batch = poll(&mut tailer).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(tailer.offset(), 0);
    }

    #[test]
    fn growing_file_is_consumed_incrementally() {
        let tmp = TempPath::new("grow");
        let all = journal_bytes(0..6);
        let text = String::from_utf8(all).unwrap();
        let lines: Vec<&str> = text.lines().collect();

        let mut tailer = JournalTailer::open(&tmp.0);
        let mut file = std::fs::File::create(&tmp.0).unwrap();
        let mut seen = 0u64;
        for (i, line) in lines.iter().enumerate() {
            writeln!(file, "{line}").unwrap();
            file.flush().unwrap();
            let batch = poll(&mut tailer).unwrap();
            seen += batch.records.len() as u64;
            assert_eq!(seen, i as u64 + 1);
            assert_eq!(batch.torn_bytes, 0);
        }
        assert_eq!(tailer.records_read(), 6);
        let report = verify_chain(text.as_bytes()).unwrap();
        assert_eq!(tailer.head(), report.head);
        // Idle poll: nothing new.
        assert!(poll(&mut tailer).unwrap().records.is_empty());
    }

    #[test]
    fn record_offsets_anchor_into_the_file() {
        let tmp = TempPath::new("offsets");
        std::fs::write(&tmp.0, journal_bytes(0..4)).unwrap();
        let mut tailer = JournalTailer::open(&tmp.0);
        let batch = poll(&mut tailer).unwrap();
        let bytes = std::fs::read(&tmp.0).unwrap();
        for (offset, record) in &batch.records {
            // The bytes at the reported offset start the record's line.
            let at = *offset as usize;
            assert_eq!(bytes[at], b'{');
            let line_end = at + bytes[at..].iter().position(|&b| b == b'\n').unwrap();
            let line = std::str::from_utf8(&bytes[at..line_end]).unwrap();
            assert_eq!(&JournalRecord::parse_line(line).unwrap(), record);
        }
        assert_eq!(tailer.offset(), bytes.len() as u64);
    }

    #[test]
    fn torn_tail_is_tolerated_until_completed() {
        let tmp = TempPath::new("torn");
        let all = journal_bytes(0..3);
        let text = String::from_utf8(all).unwrap();
        let last_line_len = text.lines().last().unwrap().len();
        let cut = text.len() - 1 - last_line_len / 2; // mid final record
        std::fs::write(&tmp.0, &text.as_bytes()[..cut]).unwrap();

        let mut tailer = JournalTailer::open(&tmp.0);
        let batch = poll(&mut tailer).unwrap();
        assert_eq!(batch.records.len(), 2, "complete records verify");
        assert!(batch.torn_bytes > 0, "partial line reported, not failed");

        // Re-poll with nothing new: same torn tail, still no failure.
        let batch = poll(&mut tailer).unwrap();
        assert!(batch.records.is_empty());
        assert!(batch.torn_bytes > 0);

        // The writer completes the append: the record is consumed.
        std::fs::write(&tmp.0, text.as_bytes()).unwrap();
        let batch = poll(&mut tailer).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.torn_bytes, 0);
        assert_eq!(tailer.records_read(), 3);
    }

    #[test]
    fn complete_invalid_line_is_a_sticky_chain_error() {
        let tmp = TempPath::new("tamper");
        let text = String::from_utf8(journal_bytes(0..4)).unwrap();
        let tampered = text.replacen("\"n\":2", "\"n\":22", 1);
        std::fs::write(&tmp.0, tampered).unwrap();

        let mut tailer = JournalTailer::open(&tmp.0);
        // The prefix before the tamper is delivered (as the offline
        // reader would report it), with the failure latched alongside.
        let batch = poll(&mut tailer).unwrap();
        assert_eq!(batch.records.len(), 2, "prefix before the tamper verified");
        assert_eq!(batch.torn_bytes, 0);
        assert_eq!(tailer.records_read(), 2);
        let err = tailer.error().expect("failure latched").clone();
        assert!(matches!(err, ChainError::BadHash { line: 3 }));
        // Sticky: the same error comes back; the file growing is moot.
        std::fs::write(&tmp.0, format!("{text}extra", text = text)).unwrap();
        assert_eq!(poll(&mut tailer).unwrap_err(), err);
        assert_eq!(tailer.error(), Some(&err));
    }

    #[test]
    fn shrinking_below_the_verified_offset_is_detected() {
        let tmp = TempPath::new("shrink");
        std::fs::write(&tmp.0, journal_bytes(0..5)).unwrap();
        let mut tailer = JournalTailer::open(&tmp.0);
        poll(&mut tailer).unwrap();
        assert_eq!(tailer.records_read(), 5);

        // The file is replaced with a shorter (even valid) journal:
        // the verified prefix is gone.
        std::fs::write(&tmp.0, journal_bytes(0..1)).unwrap();
        let err = poll(&mut tailer).unwrap_err();
        assert!(matches!(err, ChainError::TruncatedBehind { .. }));

        // Removing the file entirely under a positioned tailer is the
        // same failure.
        let mut tailer2 = JournalTailer::open(&tmp.0);
        poll(&mut tailer2).unwrap();
        std::fs::remove_file(&tmp.0).unwrap();
        assert!(matches!(
            poll(&mut tailer2).unwrap_err(),
            ChainError::TruncatedBehind { len: 0, .. }
        ));
    }

    #[test]
    fn recovery_truncation_is_invisible_to_a_positioned_tailer() {
        // Satellite: `Journal::recover` + tail interplay. The tailer
        // verifies the clean prefix, the writer crashes mid-append
        // (torn tail), recovery truncates the torn bytes and appends a
        // `journal.recovered` marker, and the writer re-chains. The
        // tailer — positioned exactly past the verified prefix — must
        // resume seamlessly: no error, marker + new records consumed.
        let tmp = TempPath::new("recover");
        let text = String::from_utf8(journal_bytes(0..4)).unwrap();
        std::fs::write(&tmp.0, text.as_bytes()).unwrap();

        let mut tailer = JournalTailer::open(&tmp.0);
        assert_eq!(poll(&mut tailer).unwrap().records.len(), 4);
        let offset_before_crash = tailer.offset();

        // Crash mid-append: half a record lands, no newline.
        let torn = &journal_bytes(0..5)[text.len()..];
        let half = &torn[..torn.len() / 2];
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&tmp.0)
                .unwrap();
            f.write_all(half).unwrap();
        }
        let batch = poll(&mut tailer).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(batch.torn_bytes, half.len() as u64);

        // Recovery truncates the torn bytes (never below the tailer's
        // offset) and re-chains with a marker + fresh appends.
        let (mut journal, report) = recover(&tmp.0).unwrap();
        assert_eq!(report.valid_records, 4);
        assert!(report.truncated_bytes > 0);
        journal.append("post.recovery", payload(99)).unwrap();
        journal.flush().unwrap();
        drop(journal);

        let batch = poll(&mut tailer).unwrap();
        let kinds: Vec<&str> = batch
            .records
            .iter()
            .map(|(_, record)| record.kind.as_str())
            .collect();
        assert_eq!(kinds, vec!["journal.recovered", "post.recovery"]);
        assert_eq!(batch.torn_bytes, 0);
        assert!(tailer.offset() > offset_before_crash);

        // And the tail agrees with a from-scratch verification.
        let report = verify_chain(&std::fs::read(&tmp.0).unwrap()[..]).unwrap();
        assert_eq!(tailer.records_read(), report.records.len() as u64);
        assert_eq!(tailer.head(), report.head);
    }

    #[test]
    fn blank_lines_are_skipped_like_the_offline_reader() {
        let tmp = TempPath::new("blank");
        let text = String::from_utf8(journal_bytes(0..2)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "");
        std::fs::write(&tmp.0, lines.join("\n") + "\n").unwrap();
        let mut tailer = JournalTailer::open(&tmp.0);
        assert_eq!(poll(&mut tailer).unwrap().records.len(), 2);
    }
}
