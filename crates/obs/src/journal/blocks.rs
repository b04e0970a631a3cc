//! The block-parallel read: [`JournalReader::for_each_parallel`].
//!
//! The calling thread cuts the input into blocks of whole lines, about
//! [`BLOCK_BYTES`] each, and hands them to scoped workers. A worker
//! checks every line of its block as [`check`] does — layout, canonical
//! payload, version, recomputed hash — and the links between the
//! block's own records, then maps each verified record. The one thing
//! it cannot check is how the block's first record hangs off the record
//! before it, so it returns that record's version, seq and prev: the
//! seam. The caller takes blocks back in read order, links each seam to
//! the chain so far ([`link`]) and only then hands the block's items
//! on. Every record that fails gets the error [`ChainCursor::admit`]
//! would give it, and the read stops there, so what the driver reports
//! depends neither on where the blocks were cut, nor on how many
//! workers ran them, nor on timing.

use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

use super::{
    check, hashed, link, not_utf8, read_checked, seed, ChainError, JournalReader, RecordRef,
    OLDEST_VERSION,
};
use crate::json::CanonicalScan;

/// A block's size: the caller cuts at the first line end at or after it.
const BLOCK_BYTES: usize = 64 * 1024;

/// How the input is cut, and onto how many workers it is spread.
#[derive(Debug, Clone, Copy)]
struct Shape {
    bytes: usize,
    workers: usize,
}

impl Shape {
    /// [`BLOCK_BYTES`] blocks, one worker per core the host offers.
    fn of_host() -> Shape {
        Shape {
            bytes: BLOCK_BYTES,
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// A block of whole lines, and what a worker found in it. Blocks go
/// back to the caller with their buffers, which it reuses.
struct Block<T> {
    /// Position in read order.
    order: u64,
    bytes: Vec<u8>,
    /// Lines in the block, blank ones included.
    lines: usize,
    /// `map` of each verified record, in order.
    items: Vec<T>,
    /// The first record's links, when it has a well-formed layout and a
    /// version the verifier reads.
    seam: Option<Seam>,
    /// The last verified record's hash and version.
    head: String,
    version: i64,
    /// The first failure; its line number counts from the block's start.
    error: Option<ChainError>,
}

/// A block's first record, as the caller links it to the chain.
struct Seam {
    /// Its line, counted from the block's start.
    line: usize,
    version: i64,
    seq: u64,
    prev: String,
}

impl<T> Block<T> {
    fn new() -> Self {
        Block {
            order: 0,
            bytes: Vec::new(),
            lines: 0,
            items: Vec::new(),
            seam: None,
            head: String::new(),
            version: OLDEST_VERSION,
            error: None,
        }
    }

    /// Verifies the block's lines in order, stopping at the first
    /// failure, and maps each record that verifies.
    fn verify(&mut self, scan: &mut CanonicalScan, map: &impl Fn(RecordRef<'_>) -> T) {
        let Block {
            bytes,
            lines,
            items,
            seam,
            head,
            version,
            error,
            ..
        } = self;
        (*lines, *seam, *error) = (0, None, None);
        // The seq the next record must carry, once one has verified.
        let mut records = None;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            *lines += 1;
            let Ok(text) = std::str::from_utf8(line) else {
                *error = Some(not_utf8(*lines));
                return;
            };
            if text.trim().is_empty() {
                continue;
            }
            let checked = match records {
                Some(records) => check(scan, (records, head, *version), *lines, text),
                None => first(scan, *lines, text, seam),
            };
            match checked {
                Ok(record) => {
                    head.clear();
                    head.push_str(record.hash);
                    *version = record.version;
                    records = Some(record.seq + 1);
                    items.push(map(record));
                }
                Err(e) => {
                    *error = Some(e);
                    return;
                }
            }
        }
    }
}

/// A block's first record, checked as [`check`] does but for the links
/// to the record before it, which the block does not hold: linked to
/// itself, only the version range can fail. Its links go to `seam` for
/// the caller, which checks them before it looks at this result —
/// before the hash, in [`check`]'s order.
fn first<'a>(
    scan: &'a mut CanonicalScan,
    line_no: usize,
    line: &'a str,
    seam: &mut Option<Seam>,
) -> Result<RecordRef<'a>, ChainError> {
    let record = read_checked(scan, line_no, line)?;
    let links = (record.version, record.seq, record.prev.as_ref());
    link(line_no, links, (record.seq, &record.prev, OLDEST_VERSION))?;
    *seam = Some(Seam {
        line: line_no,
        version: record.version,
        seq: record.seq,
        prev: record.prev.to_string(),
    });
    hashed(line_no, record)
}

/// `e` with its line number counted `lines` further down.
fn shifted(mut e: ChainError, lines: usize) -> ChainError {
    match &mut e {
        ChainError::Malformed { line, .. }
        | ChainError::BadVersion { line, .. }
        | ChainError::BadSequence { line, .. }
        | ChainError::BrokenLink { line }
        | ChainError::BadHash { line } => *line += lines,
        ChainError::Io(_) | ChainError::TruncatedBehind { .. } => {}
    }
    e
}

/// Reads the next block into `buf`: whole lines, at least `target`
/// bytes of them unless the input ends first. On a read error it keeps
/// the whole lines read before it and returns the error, as the line
/// reader, which admits every line before the one it failed to read.
fn cut(input: &mut impl BufRead, buf: &mut Vec<u8>, target: usize) -> io::Result<()> {
    buf.clear();
    let read = fill(input, buf, target).and_then(|()| match buf.last() {
        Some(&last) if last != b'\n' => input.read_until(b'\n', buf).map(drop),
        _ => Ok(()),
    });
    if read.is_err() {
        let whole = buf.iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1);
        buf.truncate(whole);
    }
    read
}

/// Appends input to `buf` until it holds `target` bytes or the input
/// ends.
fn fill(input: &mut impl BufRead, buf: &mut Vec<u8>, target: usize) -> io::Result<()> {
    while buf.len() < target {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        let take = chunk.len().min(target - buf.len());
        buf.extend_from_slice(&chunk[..take]);
        input.consume(take);
    }
    Ok(())
}

/// A worker: verifies the blocks it takes off `queue` and sends them
/// back on `done`, until the caller stops sending.
fn work<T>(
    queue: &Mutex<mpsc::Receiver<Block<T>>>,
    done: mpsc::Sender<Option<Block<T>>>,
    map: &impl Fn(RecordRef<'_>) -> T,
) {
    let done = Obituary(done);
    let mut scan = CanonicalScan::default();
    loop {
        let job = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut block) = job else { return };
        block.verify(&mut scan, map);
        if done.0.send(Some(block)).is_err() {
            return;
        }
    }
}

/// Sends `None` when its worker unwinds (a `map` that panicked), so the
/// caller stops waiting for the block that worker held.
struct Obituary<T>(mpsc::Sender<Option<Block<T>>>);

impl<T> Drop for Obituary<T> {
    fn drop(&mut self) {
        if thread::panicking() {
            let _ = self.0.send(None);
        }
    }
}

impl<R: BufRead> JournalReader<R> {
    /// Reads the rest of the journal on every core: verifies each
    /// record as [`next_ref`](JournalReader::next_ref) would, maps it
    /// with `map` on a worker thread, and hands the mapped records to
    /// `each` on the calling thread, in journal order. Stops at the
    /// first failure and returns it — the error, at the record,
    /// `next_ref` would have returned; `each` has by then seen every
    /// record before it and none after. Either way
    /// [`records_read`](JournalReader::records_read) and
    /// [`head`](JournalReader::head) then describe the verified prefix,
    /// and the reader is spent.
    ///
    /// The calling thread reads blocks of whole lines (about 64 KiB),
    /// seeds the chain from a leading checkpoint anchor as the line
    /// reader does, and links each block's first record to the one
    /// before it; `std::thread::scope` workers, one per
    /// [`available_parallelism`](std::thread::available_parallelism),
    /// check everything else. At most two blocks per worker are in
    /// flight, and their buffers are reused, so memory does not grow
    /// with the journal. No worker outlives the call; a panic in `map`
    /// or `each` reaches the caller.
    pub fn for_each_parallel<T, M, E>(&mut self, map: M, each: E) -> Result<(), ChainError>
    where
        T: Send,
        M: Fn(RecordRef<'_>) -> T + Sync,
        E: FnMut(T),
    {
        self.blocks(Shape::of_host(), map, each)
    }

    /// [`for_each_parallel`](JournalReader::for_each_parallel) in the
    /// given shape.
    fn blocks<T, M, E>(&mut self, shape: Shape, map: M, mut each: E) -> Result<(), ChainError>
    where
        T: Send,
        M: Fn(RecordRef<'_>) -> T + Sync,
        E: FnMut(T),
    {
        if std::mem::replace(&mut self.done, true) {
            return Ok(());
        }
        let (jobs, queue) = mpsc::channel::<Block<T>>();
        let queue = Mutex::new(queue);
        let (done, results) = mpsc::channel::<Option<Block<T>>>();
        let in_flight = 2 * shape.workers.max(1) as u64;
        thread::scope(|scope| {
            // Owned here, so an unwinding `each` closes the queue and
            // the workers stop before the scope joins them.
            let jobs = jobs;
            let mut workers = Vec::new();
            // Verifies blocks here while no worker runs: none could be
            // started (or, in tests, none was asked for).
            let mut own_scan = None;
            let mut free = Vec::new();
            let mut arrived = BTreeMap::new();
            let (mut read, mut folded) = (0u64, 0u64);
            let mut end = None;
            let outcome = 'run: loop {
                while end.is_none() && read - folded < in_flight {
                    let mut block = free.pop().unwrap_or_else(Block::new);
                    if let Err(e) = cut(&mut self.input, &mut block.bytes, shape.bytes) {
                        end = Some(Err(ChainError::Io(e.to_string())));
                    }
                    if block.bytes.is_empty() {
                        end.get_or_insert(Ok(()));
                        free.push(block);
                        break;
                    }
                    if self.at_start {
                        self.seed_from(&block.bytes);
                    }
                    block.order = read;
                    read += 1;
                    if workers.len() < shape.workers {
                        let (queue, done, map) = (&queue, done.clone(), &map);
                        let spawned = thread::Builder::new()
                            .name("journal-verify".into())
                            .spawn_scoped(scope, move || work(queue, done, map));
                        workers.extend(spawned.ok());
                    }
                    if workers.is_empty() {
                        let scan = own_scan.get_or_insert_with(CanonicalScan::default);
                        block.verify(scan, &map);
                        arrived.insert(block.order, block);
                    } else {
                        // The queue is open while `jobs` lives.
                        let _ = jobs.send(block);
                    }
                }
                if folded == read {
                    break end.unwrap_or(Ok(()));
                }
                let mut block = loop {
                    if let Some(block) = arrived.remove(&folded) {
                        break block;
                    }
                    match results.recv() {
                        Ok(Some(block)) => {
                            arrived.insert(block.order, block);
                        }
                        // A worker panicked: joining it below rethrows.
                        _ => break 'run Err(ChainError::Io("a verifying worker died".into())),
                    }
                };
                folded += 1;
                if let Err(e) = self.fold_block(&mut block, &mut each) {
                    break Err(e);
                }
                free.push(block);
            };
            drop(jobs);
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            outcome
        })
    }

    /// Seeds the chain from a leading checkpoint anchor when `bytes`
    /// hold the journal's first non-blank line, as the line reader does.
    fn seed_from(&mut self, bytes: &[u8]) {
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Ok(text) = std::str::from_utf8(line) else {
                // The read fails here, before any anchor.
                self.at_start = false;
                return;
            };
            if !text.trim().is_empty() {
                self.at_start = false;
                seed(&mut self.cursor, text);
                return;
            }
        }
    }

    /// Links a verified block to the chain so far and hands its items
    /// to `each`; returns the block's failure, if any, numbered as the
    /// journal's line.
    fn fold_block<T>(
        &mut self,
        block: &mut Block<T>,
        each: &mut impl FnMut(T),
    ) -> Result<(), ChainError> {
        let base = self.line_no;
        self.line_no += block.lines;
        if let Some(seam) = &block.seam {
            let cursor = &self.cursor;
            link(
                base + seam.line,
                (seam.version, seam.seq, &seam.prev),
                (cursor.records, &cursor.head, cursor.version),
            )?;
        }
        if !block.items.is_empty() {
            self.cursor.records += block.items.len() as u64;
            std::mem::swap(&mut self.cursor.head, &mut block.head);
            self.cursor.version = block.version;
            block.items.drain(..).for_each(&mut *each);
        }
        match block.error.take() {
            Some(e) => Err(shifted(e, base)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{record_digest, verify_chain, Journal, GENESIS_HASH, JOURNAL_VERSION};
    use super::*;
    use crate::checkpoint::anchor_payload;
    use crate::json::{Canonical, Json};
    use std::io::Read;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What a read saw: every record it yielded, how it ended, and the
    /// chain position it ended at.
    #[derive(Debug, PartialEq)]
    struct Seen {
        records: Vec<Fields>,
        end: Result<(), ChainError>,
        at: (u64, String),
    }

    type Fields = (u64, i64, String, String, String, String);

    fn fields(r: RecordRef<'_>) -> Fields {
        let (kind, payload) = (r.kind.to_string(), r.payload.as_str().to_string());
        (
            r.seq,
            r.version,
            kind,
            payload,
            r.prev.to_string(),
            r.hash.into(),
        )
    }

    /// Block shapes: a seam on every line, a few lines a block, the
    /// host's block size; one, two and three workers, and none (the
    /// caller verifies, as when no worker can be started).
    fn shapes() -> impl Iterator<Item = Shape> {
        [1, 97, 700, BLOCK_BYTES]
            .into_iter()
            .flat_map(|bytes| (0..=3).map(move |workers| Shape { bytes, workers }))
    }

    /// The oracle: the lending read, one record at a time.
    fn sequential<R: BufRead>(mut reader: JournalReader<R>) -> Seen {
        let mut records = Vec::new();
        let end = loop {
            match reader.next_ref() {
                None => break Ok(()),
                Some(Ok(record)) => records.push(fields(record)),
                Some(Err(e)) => break Err(e),
            }
        };
        let at = (reader.records_read(), reader.head().to_string());
        Seen { records, end, at }
    }

    fn parallel<R: BufRead>(mut reader: JournalReader<R>, shape: Shape) -> Seen {
        let mut records = Vec::new();
        let end = reader.blocks(shape, fields, |f| records.push(f));
        let at = (reader.records_read(), reader.head().to_string());
        Seen { records, end, at }
    }

    /// Every shape reads `bytes` as the lending read does; returns what
    /// it saw.
    fn agree(bytes: &[u8]) -> Seen {
        let want = sequential(JournalReader::new(bytes));
        for shape in shapes() {
            let got = parallel(JournalReader::new(bytes), shape);
            assert_eq!(
                got,
                want,
                "{shape:?} on {:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        want
    }

    /// One record's line, hashed as its version hashes.
    fn line(version: i64, seq: u64, kind: &str, payload: &str, prev: &str) -> String {
        let hash = record_digest(version, seq, kind, payload, prev);
        let mut line = format!("{{\"hash\":\"{}\",\"kind\":", hash.as_str());
        kind.write_canonical(&mut line);
        line.push_str(&format!(
            ",\"payload\":{payload},\"prev\":\"{prev}\",\"seq\":{seq},\"v\":{version}}}\n"
        ));
        line
    }

    /// A record of a chain the tests take apart: its fields, line by line.
    #[derive(Clone)]
    struct Spec {
        version: i64,
        seq: u64,
        kind: String,
        payload: String,
        prev: String,
    }

    impl Spec {
        fn line(&self) -> String {
            line(
                self.version,
                self.seq,
                &self.kind,
                &self.payload,
                &self.prev,
            )
        }
        fn hash(&self) -> String {
            let s = self;
            record_digest(s.version, s.seq, &s.kind, &s.payload, &s.prev)
                .as_str()
                .to_string()
        }
    }

    /// A chain of `n` records, v1 for the first `v1` of them and v2
    /// after, with awkward kinds and payloads.
    fn chain(n: u64, v1: u64) -> Vec<Spec> {
        let kinds = ["ts.forwarded", "k\"ind", "caf\u{e9}", "e"];
        let mut prev = GENESIS_HASH.to_string();
        (0..n)
            .map(|seq| {
                let mut payload = String::new();
                Json::obj([
                    ("at", Json::Int(seq as i64 * 60 - 7)),
                    ("x", Json::Num(seq as f64 * 0.1 - 1e-7)),
                    ("y", Json::Num(1.5e300 / (seq as f64 + 1.0))),
                    ("note", Json::from("a\u{1}\"b\\")),
                    ("nest", Json::Arr(vec![Json::Null, Json::obj([])])),
                ])
                .write_canonical(&mut payload);
                let spec = Spec {
                    version: if seq < v1 { 1 } else { JOURNAL_VERSION },
                    seq,
                    kind: kinds[seq as usize % kinds.len()].to_string(),
                    payload,
                    prev: prev.clone(),
                };
                prev = spec.hash();
                spec
            })
            .collect()
    }

    fn text(specs: &[Spec]) -> String {
        specs.iter().map(Spec::line).collect()
    }

    #[test]
    fn clean_journals_read_as_the_lending_read_reads_them() {
        let fixtures = [
            include_str!("../../../../tests/fixtures/journal_v1.jsonl"),
            include_str!("../../../../tests/fixtures/journal_v2.jsonl"),
        ];
        for fixture in fixtures {
            let seen = agree(fixture.as_bytes());
            assert_eq!(seen.end, Ok(()));
            assert!(!seen.records.is_empty());
        }
        let mixed = text(&chain(40, 13));
        assert_eq!(agree(mixed.as_bytes()).records.len(), 40);
        assert_eq!(agree(b"").at, (0, GENESIS_HASH.to_string()));
        // Blank lines anywhere, and no final newline.
        let spaced: String = mixed
            .split_inclusive('\n')
            .enumerate()
            .map(|(i, l)| ["\n", " \t\n", "\r\n", ""][i % 4].to_string() + l)
            .collect();
        assert_eq!(agree(spaced.as_bytes()).records.len(), 40);
        assert_eq!(agree(mixed.trim_end().as_bytes()).end, Ok(()));
        assert_eq!(agree(b"\n\n \n").at, (0, GENESIS_HASH.to_string()));
        // A one-line journal and one whose every line outgrows a block.
        agree(text(&chain(1, 0)).as_bytes());
        let mut long = Journal::new(Vec::new());
        for i in 0..4 {
            long.append("big", Json::from("x".repeat(BLOCK_BYTES + i)))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(agree(&long.into_inner()).records.len(), 4);
    }

    #[test]
    fn a_leading_anchor_seeds_the_chain_as_the_lending_read_seeds_it() {
        let mut journal = Journal::new(Vec::new());
        for i in 0..5 {
            journal
                .append("e", Json::Int(i))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let (records, head) = (journal.next_seq(), journal.head().to_string());
        let anchor = anchor_payload("snap", records, &head, &"ab".repeat(32));
        journal
            .append("checkpoint", anchor)
            .unwrap_or_else(|e| panic!("{e}"));
        for i in 0..30 {
            journal
                .append("e", Json::Int(i))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let bytes = journal.into_inner();
        let suffix: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').skip(5).collect();
        let seen = agree(&suffix.concat());
        assert_eq!((seen.end, seen.at.0), (Ok(()), 36));
        // Blank lines before it; and an anchor cut off its own journal
        // is no anchor after another line.
        agree(&[b"\n \n".as_slice(), &suffix.concat()].concat());
        let seen = agree(&[suffix[1], suffix[0]].concat());
        assert!(matches!(
            seen.end,
            Err(ChainError::BadSequence { line: 1, .. })
        ));
    }

    #[test]
    fn a_resumed_reader_links_its_first_block_to_the_position_given() {
        let specs = chain(20, 10);
        let bytes = text(&specs[8..]);
        for (records, head, floor) in [
            (8, specs[7].hash(), 1),
            (8, specs[7].hash(), 2),
            (9, specs[7].hash(), 1),
            (8, GENESIS_HASH.to_string(), 1),
        ] {
            let want = sequential(JournalReader::resume(
                bytes.as_bytes(),
                records,
                head.clone(),
                floor,
            ));
            for shape in shapes() {
                let reader = JournalReader::resume(bytes.as_bytes(), records, head.clone(), floor);
                assert_eq!(parallel(reader, shape), want, "{shape:?}");
            }
        }
    }

    /// Each of the chain faults, on every line of a mixed-version chain:
    /// at a seam under every shape, inside a block under the wider ones.
    #[test]
    fn every_chain_fault_is_reported_where_and_as_the_lending_read_reports_it() {
        let specs = chain(24, 6);
        type Fault = fn(&mut Vec<Spec>, usize) -> String;
        let faults: [(&str, Fault); 8] = [
            ("seq", |s, i| {
                s[i].seq += 1;
                text(s)
            }),
            ("seq, stale hash", |s, i| {
                let hash = s[i].hash();
                s[i].seq += 1;
                text(s).replacen(&s[i].hash(), &hash, 1)
            }),
            ("prev", |s, i| {
                s[i].prev = "ab".repeat(32);
                text(s)
            }),
            ("v1 after v2", |s, i| {
                s[i].version = 1;
                text(s)
            }),
            ("v3", |s, i| {
                s[i].version = 3;
                text(s)
            }),
            ("hash", |s, i| {
                let line = s[i].line();
                text(s).replacen(&line, &line.replacen("\"hash\":\"", "\"hash\":\"0", 1), 1)
            }),
            ("deleted", |s, i| {
                s.remove(i);
                text(s)
            }),
            ("swapped", |s, i| {
                let j = (i + 1) % s.len();
                s.swap(i, j);
                text(s)
            }),
        ];
        for (name, fault) in faults {
            for i in 0..specs.len() {
                let bytes = fault(&mut specs.clone(), i);
                let seen = agree(bytes.as_bytes());
                // A v1 line is no fault in the v1 prefix, nor is a
                // deleted last line.
                let clean = match name {
                    "v1 after v2" => i < 6,
                    "deleted" => i == specs.len() - 1,
                    _ => false,
                };
                assert_eq!(seen.end.is_ok(), clean, "{name} at {i}: {:?}", seen.end);
            }
        }
    }

    /// Bytes no writer made: byte-level mutants of each line, invalid
    /// UTF-8, and nesting past the limit.
    #[test]
    fn hostile_lines_get_the_lending_reads_verdict() {
        let base = text(&chain(12, 4));
        let lines: Vec<&str> = base.split_inclusive('\n').collect();
        let alphabet: &[&[u8]] = &[
            b"0", b"9", b"-", b".", b"e", b"\"", b"{", b"}", b",", b":", b" ", b"\\", b"\n",
            b"\xff", b"\xc3",
        ];
        let mut state = 0x5eed_b10c_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..240 {
            let i = round % lines.len();
            let mut line = lines[i].as_bytes().to_vec();
            for _ in 0..1 + next(3) {
                let at = next(line.len() + 1);
                let piece = alphabet[next(alphabet.len())];
                match next(3) {
                    0 if at < line.len() => line[at] = piece[0],
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    _ => line.splice(at..at, piece.iter().copied()).for_each(drop),
                }
            }
            let mut bytes = lines[..i].concat().into_bytes();
            bytes.extend_from_slice(&line);
            bytes.extend_from_slice(lines[i + 1..].concat().as_bytes());
            agree(&bytes);
        }
        let seen = agree(&[lines[0].as_bytes(), b"\xff\n", lines[1].as_bytes()].concat());
        assert_eq!(seen.end, Err(not_utf8(2)));
        assert_eq!(seen.records.len(), 1);
        agree(b"\xfe\n");
        let deep = |depth: usize| {
            let payload = "[".repeat(depth) + &"]".repeat(depth);
            line(JOURNAL_VERSION, 0, "deep", &payload, GENESIS_HASH)
        };
        let limit = crate::json::MAX_DEPTH;
        assert_eq!(agree(deep(limit).as_bytes()).end, Ok(()));
        for depth in [limit + 1, 100_000] {
            let seen = agree(deep(depth).as_bytes());
            assert!(matches!(
                seen.end,
                Err(ChainError::Malformed { line: 1, .. })
            ));
        }
    }

    /// Input that fails to read after `fail_at` bytes, and is
    /// interrupted now and then before.
    struct Flaky<'a> {
        bytes: &'a [u8],
        fail_at: usize,
        calls: usize,
    }

    impl Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.fail_at == 0 {
                return Err(io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.fail_at).min(self.bytes.len()).min(61);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.fail_at -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_ends_the_read_after_the_lines_before_it() {
        let bytes = text(&chain(10, 0)).into_bytes();
        for fail_at in (0..bytes.len()).step_by(37).chain([bytes.len()]) {
            let flaky = || {
                let inner = Flaky {
                    bytes: &bytes,
                    fail_at,
                    calls: 0,
                };
                JournalReader::new(io::BufReader::with_capacity(50, inner))
            };
            let want = sequential(flaky());
            assert!(want.end.is_err() || fail_at == bytes.len());
            for shape in shapes() {
                assert_eq!(
                    parallel(flaky(), shape),
                    want,
                    "{shape:?} failing at {fail_at}"
                );
            }
        }
    }

    #[test]
    fn blocks_in_flight_stay_within_two_per_worker() {
        let bytes = text(&chain(200, 0));
        for workers in 1..=3 {
            let mapped = AtomicUsize::new(0);
            let mut handed = 0;
            let mut reader = JournalReader::new(bytes.as_bytes());
            let shape = Shape { bytes: 1, workers };
            let map = |_: RecordRef<'_>| mapped.fetch_add(1, Ordering::SeqCst);
            let end = reader.blocks(shape, map, |_| {
                // One record a block: records mapped and not yet handed
                // on are blocks in flight.
                assert!(mapped.load(Ordering::SeqCst) - handed <= 2 * workers);
                handed += 1;
            });
            assert_eq!((end, handed), (Ok(()), 200));
        }
    }

    #[test]
    fn a_panic_in_map_or_each_reaches_the_caller() {
        let bytes = text(&chain(50, 0));
        for shape in shapes() {
            let read = |on_map: bool| {
                let mut reader = JournalReader::new(bytes.as_bytes());
                catch_unwind(AssertUnwindSafe(|| {
                    let map = |r: RecordRef<'_>| assert!(!on_map || r.seq != 30, "map");
                    let mut n = 0;
                    reader.blocks(shape, map, |()| {
                        n += 1;
                        assert!(on_map || n != 30, "each");
                    })
                }))
            };
            assert!(read(true).is_err() && read(false).is_err(), "{shape:?}");
        }
        assert_eq!(
            verify_chain(bytes.as_bytes()).map(|c| c.records.len()),
            Ok(50)
        );
    }
}
