//! The verifier `ChainCursor::admit` replaced, kept as the reference the
//! differential tests hold it to: parse the whole line into a `Json`
//! tree (`JournalRecord::parse_line`, which tolerates any JSON spelling
//! of the record), re-serialize the parsed payload canonically, and hash
//! that, its preimage `format!`ted whole. It names only the crate's
//! public API, so the root package's tests include this file too
//! (`#[path]`); the includer brings the names into scope for `super::`.

use super::{sha256_hex, ChainCursor, ChainError, JournalRecord, Json, JOURNAL_VERSION};

/// The tree verifier's chain position.
pub struct TreeCursor {
    /// Records admitted so far.
    pub records: u64,
    /// Hash of the last admitted record.
    pub head: String,
    /// The last admitted record's version (1 at genesis).
    pub version: i64,
}

impl TreeCursor {
    /// Parses `line`, then checks version (1 to [`JOURNAL_VERSION`], never
    /// below the last record's), sequence, `prev` link and the hash of
    /// the parsed payload's canonical re-serialization under the line's
    /// own version.
    pub fn admit(&mut self, line_no: usize, line: &str) -> Result<JournalRecord, ChainError> {
        let record = JournalRecord::parse_line(line).map_err(|e| match e {
            ChainError::Malformed { message, .. } => ChainError::Malformed {
                line: line_no,
                message,
            },
            other => other,
        })?;
        if record.version < self.version || record.version > JOURNAL_VERSION {
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
        let preimage = format!(
            "v{}:{}:{}:{}:{}",
            record.version, record.seq, record.kind, record.payload, record.prev
        );
        let recomputed = sha256_hex(preimage.as_bytes());
        if recomputed != record.hash {
            return Err(ChainError::BadHash { line: line_no });
        }
        self.head.clone_from(&record.hash);
        self.records += 1;
        self.version = record.version;
        Ok(record)
    }
}

/// The line the journal's encoder writes for `record`, with the
/// record's own version and without the newline.
pub fn encode(record: &JournalRecord) -> String {
    let s = |v: &str| Json::from(v).to_string();
    format!(
        "{{\"hash\":{},\"kind\":{},\"payload\":{},\"prev\":{},\"seq\":{},\"v\":{}}}",
        s(&record.hash),
        s(&record.kind),
        record.payload,
        s(&record.prev),
        record.seq,
        record.version
    )
}

/// Offers `line` to `cursor` and to the tree oracle at the same chain
/// position and asserts that they agree:
///
/// * `cursor` admits the line exactly when the oracle does and the line
///   is the encoder's bytes for what it parses to ("canonical");
/// * an admitted record equals the oracle's and `parse_line`'s, and both
///   cursors stand at the same position after it;
/// * a canonical line is refused with the oracle's error, a
///   non-canonical one as `Malformed`.
///
/// Returns whether the line was admitted.
pub fn assert_agree(cursor: &mut ChainCursor, line_no: usize, line: &str) -> bool {
    let mut tree = TreeCursor {
        records: cursor.records(),
        head: cursor.head().to_string(),
        version: cursor.version(),
    };
    let old = tree.admit(line_no, line);
    let bare = line.strip_suffix('\n').unwrap_or(line);
    let canonical = JournalRecord::parse_line(line).is_ok_and(|r| encode(&r) == bare);
    let new = cursor
        .admit(line_no, line)
        .map(|r| r.to_record().expect("a verified payload parses"));
    assert_eq!(
        new.is_ok(),
        old.is_ok() && canonical,
        "{line:?}: admit {new:?}, tree {old:?}"
    );
    match (&new, &old) {
        (Ok(record), Ok(want)) => {
            assert_eq!(record, want, "{line:?}");
            assert_eq!(Ok(record), JournalRecord::parse_line(line).as_ref());
            assert_eq!(
                (cursor.records(), cursor.head(), cursor.version()),
                (tree.records, tree.head.as_str(), tree.version)
            );
        }
        (Err(e), _) if !canonical => {
            assert!(matches!(e, ChainError::Malformed { .. }), "{line:?}: {e:?}")
        }
        (Err(e), Err(want)) => assert_eq!(e, want, "{line:?}"),
        (Err(e), Ok(_)) => panic!("{line:?}: canonical and admitted by the tree, refused: {e:?}"),
        (Ok(_), Err(_)) => unreachable!("checked above"),
    }
    new.is_ok()
}
