//! Offline audit of the trusted server's hash-chained journal.
//!
//! `hka-obs` gives the pipeline a tamper-evident record of every
//! decision; this crate is the consumer that turns the record into
//! analysis. [`replay`] reads a journal through
//! [`hka_obs::JournalReader`]'s block driver — worker threads verify
//! the SHA-256 chain block by block and decode each record off its
//! verified line, and the calling thread folds the records in journal
//! order — and reconstructs:
//!
//! * **per-user anonymity timelines** ([`UserTimeline`]): k over time,
//!   generalization area/duration, suppressions, unlink and at-risk
//!   events;
//! * **the mode ladder** ([`ModeTransition`]): every journaled
//!   Normal ⇄ Degraded ⇄ ReadOnly transition, checked for consistency;
//! * **violations** ([`Violation`]): Theorem-1 bookkeeping breaks
//!   (unexplained sub-k clamps) and fail-closed breaks (forwards under
//!   degraded/read-only modes);
//! * **trade-off tables** ([`ServiceRow`], [`LbqidRow`]): the paper's
//!   QoS vs degree-of-anonymity vs unlink-frequency triangle, per
//!   service class and per LBQID.
//!
//! The decoder works from the on-disk v1 schema alone (it depends only
//! on `hka-obs`, not on the server), so it doubles as a drift guard:
//! a journal the server writes that the auditor cannot read is a bug by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod report;
pub mod state;
pub mod tail;
pub mod timeline;

pub use event::{AuditEvent, Mode};
pub use report::{AuditOutcome, ChainSummary};
pub use tail::{TailAuditor, TailPoll, WatchFrame};
pub use timeline::{
    AuditConfig, Auditor, KSample, LbqidRow, ModeTransition, ServiceRow, Totals, UserTimeline,
    Violation, ViolationKind,
};

use std::io::{BufRead, Seek, SeekFrom};
use std::path::Path;

use hka_obs::checkpoint::{find_anchor, Snapshot};
use hka_obs::JournalReader;

/// Section name under which checkpoint snapshots carry serialized audit
/// state (see [`Auditor::to_state`]).
pub const AUDIT_SECTION: &str = "audit";

/// Replays a journal: verifies the chain record by record and folds
/// every verified record into the audit state. A chain failure stops
/// the replay — everything after the first bad record chains through it
/// and cannot be trusted — and is reported in the outcome rather than
/// returned as an error, so a tampered journal still yields the
/// analysis of its valid prefix.
pub fn replay(input: impl BufRead, cfg: AuditConfig) -> AuditOutcome {
    let mut auditor = Auditor::new(cfg);
    let chain = fold(&mut auditor, JournalReader::new(input));
    auditor.finish(chain)
}

/// Folds every record `reader` verifies into `auditor`, in journal
/// order, through the reader's block driver
/// ([`JournalReader::for_each_parallel`]): each record is checked and
/// decoded off its line on a worker thread, never built as a tree.
/// Stops at the first chain error and reports it.
fn fold<R: BufRead>(auditor: &mut Auditor, mut reader: JournalReader<R>) -> ChainSummary {
    let verified = reader.for_each_parallel(
        |record| (record.seq, event::decode_ref(&record)),
        |(seq, event)| auditor.fold(seq, event),
    );
    ChainSummary {
        records: reader.records_read(),
        head: reader.head().to_string(),
        error: verified.err().map(|e| e.to_string()),
    }
}

/// [`replay`] over a journal file on disk.
pub fn replay_file(path: &Path, cfg: AuditConfig) -> std::io::Result<AuditOutcome> {
    Ok(replay(buffered(std::fs::File::open(path)?), cfg))
}

/// A journal file read in the block driver's 64 KiB blocks: about one
/// read call a block.
fn buffered(file: std::fs::File) -> std::io::BufReader<std::fs::File> {
    std::io::BufReader::with_capacity(1 << 16, file)
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Where a checkpoint snapshot lets a replay of `journal` resume: the
/// auditor its `audit` section restores, the byte offset and version
/// floor of the anchor record binding it into `journal`
/// ([`find_anchor`]), and the snapshot.
/// Every binding (chain position, head, snapshot content hash) is
/// verified first. Fail-closed: any mismatch or a missing anchor is an
/// `InvalidData` error.
///
/// The search reads only the lines that spell the checkpoint kind, and
/// hashes none, so it stays far cheaper than a per-record hash replay.
pub(crate) fn resume_point(
    journal: &Path,
    snapshot_path: &Path,
) -> std::io::Result<(Auditor, u64, i64, Snapshot)> {
    let (snapshot, file_hash) = Snapshot::read(snapshot_path)?;
    let state = snapshot.section(AUDIT_SECTION).ok_or_else(|| {
        invalid(format!(
            "{}: snapshot has no 'audit' section",
            snapshot_path.display()
        ))
    })?;
    let auditor = Auditor::from_state(state)
        .map_err(|e| invalid(format!("{}: bad audit state: {e}", snapshot_path.display())))?;
    let input = std::io::BufReader::new(std::fs::File::open(journal)?);
    let found = find_anchor(input, |offset, floor, anchor| {
        (anchor.records == snapshot.records).then_some((offset, floor, anchor))
    })?;
    let Some((offset, floor, anchor)) = found else {
        return Err(invalid(format!(
            "{}: no checkpoint anchor at seq {} — cannot resume from {}",
            journal.display(),
            snapshot.records,
            snapshot_path.display()
        )));
    };
    if anchor.head != snapshot.head {
        return Err(invalid(format!(
            "{}: anchor head does not match snapshot head",
            journal.display()
        )));
    }
    if anchor.snapshot != file_hash {
        return Err(invalid(format!(
            "{}: snapshot content hash {file_hash} does not match anchor {}",
            snapshot_path.display(),
            anchor.snapshot
        )));
    }
    Ok((auditor, offset, floor, snapshot))
}

/// A verifying reader over `journal` from the anchor record at
/// `offset`, which sits at `snapshot`'s chain position with version
/// floor `floor`. The anchor's prev is the snapshot head, so it is the
/// first record admitted, and a resumed replay ingests it as a genesis
/// replay does — byte-identical outcomes.
fn suffix_reader(
    journal: &Path,
    offset: u64,
    floor: i64,
    snapshot: Snapshot,
) -> std::io::Result<JournalReader<std::io::BufReader<std::fs::File>>> {
    let mut file = std::fs::File::open(journal)?;
    file.seek(SeekFrom::Start(offset))?;
    Ok(JournalReader::resume(
        buffered(file),
        snapshot.records,
        snapshot.head,
        floor,
    ))
}

/// Replays `snapshot + journal suffix` to the byte-identical outcome of
/// a genesis [`replay_file`] over the same chain.
///
/// The snapshot's `audit` section restores the replay state covering
/// records `0..snapshot.records`; the journal is then scanned for the
/// checkpoint anchor at seq `snapshot.records` and verification resumes
/// from there, ingesting the anchor record and everything after it. The
/// search hashes nothing, which is where the speedup over a genesis
/// replay comes from. Works on full journals and on journals whose
/// prefix was truncated away at the anchor.
///
/// Fail-closed: every binding is checked before any state is trusted —
/// the snapshot file must hash to what the anchor recorded, and the
/// anchor must sit at the snapshot's exact chain position. Any mismatch
/// (or a missing anchor) is an [`std::io::ErrorKind::InvalidData`]
/// error; callers fall back to the previous checkpoint or to a genesis
/// replay, never to a partially-trusted resume.
pub fn resume_from_snapshot(journal: &Path, snapshot_path: &Path) -> std::io::Result<AuditOutcome> {
    let (mut auditor, offset, floor, snapshot) = resume_point(journal, snapshot_path)?;
    let chain = fold(
        &mut auditor,
        suffix_reader(journal, offset, floor, snapshot)?,
    );
    Ok(auditor.finish(chain))
}

/// Replays `journal` to its end and returns the auditor's serialized
/// state ([`Auditor::to_state`]) together with the chain position
/// `(records, head)` it covers — the raw material of a checkpoint
/// snapshot's `audit` section.
///
/// When `resume` names a previous snapshot file, the replay starts from
/// its `audit` section at the bound anchor instead of genesis, so
/// building checkpoint *n + 1* costs one journal *suffix*, not the whole
/// history. Unlike [`replay`], any chain error here is fatal
/// ([`std::io::ErrorKind::InvalidData`]): the caller is about to anchor
/// a snapshot into the chain, and anchoring state derived from an
/// unverifiable journal would launder the corruption into every future
/// resume.
pub fn state_at(
    journal: &Path,
    resume: Option<&Path>,
    cfg: AuditConfig,
) -> std::io::Result<(hka_obs::Json, u64, String)> {
    let (mut auditor, reader) = match resume {
        Some(snapshot_path) => {
            let (auditor, offset, floor, snapshot) = resume_point(journal, snapshot_path)?;
            (auditor, suffix_reader(journal, offset, floor, snapshot)?)
        }
        None => {
            let file = std::fs::File::open(journal)?;
            (Auditor::new(cfg), JournalReader::new(buffered(file)))
        }
    };
    let chain = fold(&mut auditor, reader);
    match chain.error {
        Some(e) => Err(invalid(e)),
        None => Ok((auditor.to_state(), chain.records, chain.head)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_obs::{Journal, Json};

    /// Builds a journal in memory from `(kind, payload)` pairs.
    fn journal_of(events: &[(&str, Json)]) -> Vec<u8> {
        let mut j = Journal::new(Vec::new());
        for (kind, payload) in events {
            j.append(kind, payload.clone()).unwrap();
        }
        j.into_inner()
    }

    fn fwd(user: i64, at: i64, generalized: bool, hk_ok: bool, k_req: i64, k_got: i64) -> Json {
        let side = if generalized { 100.0 } else { 0.0 };
        Json::obj([
            ("user", Json::Int(user)),
            ("at", Json::Int(at)),
            ("x_min", Json::Num(0.0)),
            ("y_min", Json::Num(0.0)),
            ("x_max", Json::Num(side)),
            ("y_max", Json::Num(side)),
            ("t_start", Json::Int(at - 30)),
            ("t_end", Json::Int(at + 30)),
            ("generalized", Json::Bool(generalized)),
            ("hk_ok", Json::Bool(hk_ok)),
            ("service", Json::Int(1)),
            ("k_req", Json::Int(k_req)),
            ("k_got", Json::Int(k_got)),
            (
                "lbqid",
                if generalized {
                    Json::from("commute")
                } else {
                    Json::Null
                },
            ),
        ])
    }

    fn mode_change(at: i64, from: &str, to: &str) -> Json {
        Json::obj([
            ("at", Json::Int(at)),
            ("from", Json::from(from)),
            ("to", Json::from(to)),
        ])
    }

    #[test]
    fn clean_replay_builds_timelines_and_tables() {
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.forwarded", fwd(1, 200, true, true, 4, 6)),
            (
                "ts.suppressed",
                Json::obj([
                    ("user", Json::Int(2)),
                    ("at", Json::Int(150)),
                    ("reason", Json::from("mix_zone")),
                    ("service", Json::Int(1)),
                ]),
            ),
            (
                "ts.lbqid_matched",
                Json::obj([
                    ("user", Json::Int(1)),
                    ("at", Json::Int(200)),
                    ("lbqid", Json::from("commute")),
                ]),
            ),
        ]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(out.ok(), "violations: {:?}", out.violations);
        assert!(out.chain.verified());
        assert_eq!(out.chain.records, 4);
        assert_eq!(out.totals.forwarded(), 2);
        assert_eq!(out.totals.requests(), 3);
        assert_eq!(out.totals.lbqid_matches, 1);

        let u1 = out.users.iter().find(|u| u.user == 1).unwrap();
        assert_eq!(
            u1.k_samples,
            vec![
                KSample {
                    at: 100,
                    k_req: 5,
                    k_got: 5
                },
                KSample {
                    at: 200,
                    k_req: 4,
                    k_got: 6
                },
            ]
        );
        assert_eq!(u1.min_k, Some(5));
        assert_eq!(u1.mean_area(), 10_000.0);
        assert_eq!(u1.mean_duration(), 60.0);

        let svc = out.services.iter().find(|s| s.service == 1).unwrap();
        assert_eq!(svc.forwarded(), 2);
        assert_eq!(svc.suppressed, 1);
        assert_eq!(svc.mean_k_req(), 4.5);
        let lb = out.lbqids.iter().find(|l| l.lbqid == "commute").unwrap();
        assert_eq!(lb.forwarded_ok, 2);
        assert_eq!(lb.matches, 1);
    }

    #[test]
    fn clamp_after_at_risk_is_explained_without_is_violation() {
        // Clamp preceded by an at-risk notification: Theorem-1 honoured.
        let explained = journal_of(&[
            (
                "ts.at_risk",
                Json::obj([
                    ("user", Json::Int(1)),
                    ("at", Json::Int(90)),
                    ("lbqid", Json::from("commute")),
                ]),
            ),
            ("ts.forwarded", fwd(1, 100, true, false, 5, 2)),
        ]);
        let out = replay(&explained[..], AuditConfig::default());
        assert!(out.ok(), "violations: {:?}", out.violations);
        let u = &out.users[0];
        assert_eq!(u.at_risk_windows, vec![(90, None)]);
        assert_eq!(u.forwarded_clamped, 1);

        // The same clamp with no at-risk anywhere: violation.
        let unexplained = journal_of(&[("ts.forwarded", fwd(1, 100, true, false, 5, 2))]);
        let out = replay(&unexplained[..], AuditConfig::default());
        assert!(!out.ok());
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, ViolationKind::UnexplainedClamp);
        assert_eq!(out.violations[0].user, Some(1));
    }

    #[test]
    fn pseudonym_change_closes_the_at_risk_window() {
        let bytes = journal_of(&[
            (
                "ts.at_risk",
                Json::obj([
                    ("user", Json::Int(1)),
                    ("at", Json::Int(50)),
                    ("lbqid", Json::from("commute")),
                ]),
            ),
            (
                "ts.pseudonym_changed",
                Json::obj([
                    ("user", Json::Int(1)),
                    ("old", Json::Int(10)),
                    ("new", Json::Int(11)),
                    ("at", Json::Int(60)),
                ]),
            ),
            // A clamp *after* the window closed is unexplained again.
            ("ts.forwarded", fwd(1, 100, true, false, 5, 2)),
        ]);
        let out = replay(&bytes[..], AuditConfig::default());
        let u = &out.users[0];
        assert_eq!(u.at_risk_windows, vec![(50, Some(60))]);
        assert_eq!(u.unlinks, vec![60]);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, ViolationKind::UnexplainedClamp);
    }

    #[test]
    fn forwards_under_degraded_and_read_only_modes_are_violations() {
        let bytes = journal_of(&[
            ("ts.mode_changed", mode_change(10, "normal", "degraded")),
            // Exact forward while degraded: fail-closed broken.
            ("ts.forwarded", fwd(1, 20, false, true, 0, 0)),
            // Protected forward while degraded: allowed.
            ("ts.forwarded", fwd(1, 30, true, true, 5, 5)),
            ("ts.mode_changed", mode_change(40, "degraded", "read_only")),
            // Anything while read-only: broken.
            ("ts.forwarded", fwd(1, 50, true, true, 5, 5)),
        ]);
        let out = replay(&bytes[..], AuditConfig::default());
        let kinds: Vec<ViolationKind> = out.violations.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::ForwardWhileDegraded,
                ViolationKind::ForwardWhileReadOnly,
            ]
        );
        assert!(out.mode_consistent);
        assert_eq!(out.mode_transitions.len(), 2);
    }

    #[test]
    fn inconsistent_mode_ladder_is_flagged() {
        let bytes = journal_of(&[
            ("ts.mode_changed", mode_change(10, "normal", "degraded")),
            // Claims to come from normal, but the journal said degraded.
            ("ts.mode_changed", mode_change(20, "normal", "read_only")),
        ]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(!out.mode_consistent);
        assert_eq!(out.violations[0].kind, ViolationKind::ModeLadderGap);
    }

    #[test]
    fn tampered_journal_reports_chain_error_and_keeps_prefix() {
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.forwarded", fwd(2, 200, true, true, 5, 5)),
            ("ts.forwarded", fwd(3, 300, true, true, 5, 5)),
        ]);
        let text = String::from_utf8(bytes).unwrap();
        let tampered = text.replacen("\"user\":2", "\"user\":9", 1);
        let out = replay(tampered.as_bytes(), AuditConfig::default());
        assert!(!out.ok());
        assert!(!out.chain.verified());
        assert_eq!(out.chain.records, 1, "only the prefix before the tamper");
        assert_eq!(out.totals.forwarded(), 1);
        assert!(out.chain.error.as_deref().unwrap().contains("hash"));
    }

    #[test]
    fn schema_drift_is_surfaced_not_ignored() {
        // A known kind missing a required field fails the audit...
        let bytes = journal_of(&[(
            "ts.forwarded",
            Json::obj([("user", Json::Int(1)), ("at", Json::Int(0))]),
        )]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(!out.ok());
        assert_eq!(out.schema_issues.len(), 1);

        // ...while an unknown kind is tolerated and counted.
        let bytes = journal_of(&[("ts.future", Json::obj([("x", Json::Int(1))]))]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(out.ok());
        assert_eq!(out.totals.unknown_kinds, 1);
    }

    /// `fwd` with some members replaced.
    fn fwd_with(fields: &[(&str, Json)]) -> Json {
        let Json::Obj(mut members) = fwd(1, 100, true, true, 5, 5) else {
            unreachable!("fwd builds an object")
        };
        for (name, value) in fields {
            members.insert(name.to_string(), value.clone());
        }
        Json::Obj(members)
    }

    #[test]
    fn a_chained_context_whose_duration_overflows_is_a_schema_issue() {
        // Journal hashes are unkeyed: anyone can chain this record, and
        // it verifies. Its duration does not fit in an i64.
        let bytes = journal_of(&[(
            "ts.forwarded",
            fwd_with(&[("t_start", Json::Int(i64::MIN)), ("t_end", Json::Int(1))]),
        )]);
        assert!(hka_obs::verify_chain(&bytes[..]).is_ok());
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(out.chain.verified());
        assert_eq!(
            out.schema_issues,
            vec![(0, "ts.forwarded: 't_end' - 't_start' overflows".to_string())]
        );
        assert_eq!(out.totals.forwarded(), 0);
    }

    #[test]
    fn sums_of_hostile_but_valid_records_saturate() {
        // Each record is in range; their sums are not.
        let huge = fwd_with(&[
            ("t_start", Json::Int(0)),
            ("t_end", Json::Int(i64::MAX)),
            ("k_req", Json::Int(i64::MAX)),
            ("k_got", Json::Int(i64::MAX)),
        ]);
        let bytes = journal_of(&[
            ("ts.forwarded", huge.clone()),
            ("ts.forwarded", huge.clone()),
            ("ts.forwarded", huge),
        ]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert!(out.schema_issues.is_empty());
        assert_eq!(out.users[0].duration_sum, i64::MAX);
        let service = &out.services[0];
        assert_eq!((service.k_req_sum, service.k_got_sum), (u64::MAX, u64::MAX));
        assert_eq!(out.lbqids[0].duration_sum, i64::MAX);
    }

    #[test]
    fn recovery_marker_is_reported() {
        let bytes = journal_of(&[(
            "journal.recovered",
            Json::obj([
                ("truncated_bytes", Json::Int(57)),
                ("valid_records", Json::Int(12)),
            ]),
        )]);
        let out = replay(&bytes[..], AuditConfig::default());
        assert_eq!(out.recoveries, vec![(57, 12)]);
    }

    #[test]
    fn json_output_is_canonical_and_round_trips() {
        let bytes = journal_of(&[
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.mode_changed", mode_change(10, "normal", "degraded")),
        ]);
        let out = replay(
            &bytes[..],
            AuditConfig {
                space_tol: Some(1e6),
                time_tol: Some(600),
                ..AuditConfig::default()
            },
        );
        let json = out.to_json();
        let text = json.to_string();
        let reparsed = hka_obs::json::parse(&text).unwrap();
        assert_eq!(reparsed.to_string(), text, "canonical serialization");
        assert_eq!(
            reparsed.get("chain").unwrap().get("verified"),
            Some(&Json::Bool(true))
        );
        assert!(reparsed.get("trade_off").unwrap().get("overall").is_some());
        // Inflation ratios present when tolerances are configured.
        let overall = json.get("trade_off").unwrap().get("overall").unwrap();
        assert!(overall.get("area_inflation").unwrap().as_f64().unwrap() > 0.0);
        // Text render names the headline facts.
        let text = out.render();
        assert!(text.contains("chain: VERIFIED"));
        assert!(text.contains("violations"));
    }

    #[test]
    fn empty_journal_is_clean() {
        let out = replay(&b""[..], AuditConfig::default());
        assert!(out.ok());
        assert_eq!(out.totals.events, 0);
        assert_eq!(out.users.len(), 0);
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("hka-audit-ckpt-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Builds, on disk, a journal whose prefix is covered by a real
    /// checkpoint snapshot bound in by an anchor record, followed by
    /// `suffix` events on the same chain. Returns
    /// `(journal_path, snapshot_path)`.
    fn checkpointed(
        dir: &std::path::Path,
        prefix: &[(&str, Json)],
        suffix: &[(&str, Json)],
    ) -> (std::path::PathBuf, std::path::PathBuf) {
        let mut j = Journal::new(Vec::new());
        for (kind, payload) in prefix {
            j.append(kind, payload.clone()).unwrap();
        }
        let records = j.next_seq();
        let head = j.head().to_string();
        let bytes = j.into_inner();

        let mut auditor = Auditor::new(AuditConfig::default());
        for r in hka_obs::JournalReader::new(&bytes[..]) {
            auditor.ingest(&r.unwrap());
        }
        let mut snap = Snapshot::new(records, head.clone());
        snap.set_section(AUDIT_SECTION, auditor.to_state());
        let file = format!("checkpoint-{records:06}.snap");
        let snap_path = dir.join(&file);
        let hash = hka_obs::checkpoint::write_atomic(&snap, &snap_path).unwrap();

        let mut j = Journal::resume(bytes, records, head.clone());
        j.append(
            hka_obs::CHECKPOINT_KIND,
            hka_obs::checkpoint::anchor_payload(&file, records, &head, &hash),
        )
        .unwrap();
        for (kind, payload) in suffix {
            j.append(kind, payload.clone()).unwrap();
        }
        let journal_path = dir.join("journal.jsonl");
        std::fs::write(&journal_path, j.into_inner()).unwrap();
        (journal_path, snap_path)
    }

    fn prefix_events() -> Vec<(&'static str, Json)> {
        vec![
            ("ts.forwarded", fwd(1, 100, true, true, 5, 5)),
            ("ts.mode_changed", mode_change(110, "normal", "degraded")),
            (
                "ts.suppressed",
                Json::obj([
                    ("user", Json::Int(2)),
                    ("at", Json::Int(120)),
                    ("reason", Json::from("degraded")),
                    ("service", Json::Int(1)),
                ]),
            ),
        ]
    }

    fn suffix_events() -> Vec<(&'static str, Json)> {
        vec![
            ("ts.mode_changed", mode_change(130, "degraded", "normal")),
            ("ts.forwarded", fwd(1, 140, true, true, 4, 6)),
            ("ts.forwarded", fwd(3, 150, true, false, 5, 2)),
        ]
    }

    #[test]
    fn snapshot_plus_suffix_is_byte_identical_to_genesis_replay() {
        let dir = TempDir::new("equiv");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());

        let genesis = replay_file(&journal, AuditConfig::default()).unwrap();
        let resumed = resume_from_snapshot(&journal, &snap).unwrap();
        assert!(genesis.chain.verified());
        assert_eq!(genesis.totals.checkpoints, 1);
        assert_eq!(
            resumed.to_json().to_string(),
            genesis.to_json().to_string(),
            "snapshot + suffix must replay to the genesis outcome, byte for byte"
        );
    }

    #[test]
    fn resume_works_after_prefix_truncation() {
        let dir = TempDir::new("trunc");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());
        let genesis = replay_file(&journal, AuditConfig::default()).unwrap();

        let dropped = hka_obs::checkpoint::truncate_to_anchor(&journal, 3).unwrap();
        assert!(!dropped.is_empty(), "prefix was archived away");

        let resumed = resume_from_snapshot(&journal, &snap).unwrap();
        assert_eq!(
            resumed.to_json().to_string(),
            genesis.to_json().to_string(),
            "truncation must be invisible to the resumed audit"
        );
    }

    #[test]
    fn resume_fails_closed_on_a_doctored_snapshot() {
        let dir = TempDir::new("doctored");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());

        // Flip one audit-state byte and re-encode: still a well-formed
        // snapshot, but its content hash no longer matches the anchor.
        let text = std::fs::read_to_string(&snap).unwrap();
        let doctored = text.replace("\"forwarded_ok\":1", "\"forwarded_ok\":7");
        assert_ne!(doctored, text, "fixture must actually change the state");
        std::fs::write(&snap, doctored).unwrap();

        let err = resume_from_snapshot(&journal, &snap).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("hash"),
            "refusal names the hash: {err}"
        );
    }

    #[test]
    fn resume_fails_closed_when_the_anchor_is_missing() {
        let dir = TempDir::new("missing");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());

        // A journal from a different run: same length, no anchor.
        let mut j = Journal::new(Vec::new());
        for (kind, payload) in prefix_events().iter().chain(suffix_events().iter()) {
            j.append(kind, payload.clone()).unwrap();
        }
        std::fs::write(&journal, j.into_inner()).unwrap();

        let err = resume_from_snapshot(&journal, &snap).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no checkpoint anchor"));
    }

    #[test]
    fn resumed_tail_agrees_with_a_genesis_tail() {
        let dir = TempDir::new("tail");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());

        let mut genesis = TailAuditor::open(&journal, AuditConfig::default());
        genesis.poll();
        let mut resumed = TailAuditor::resume_from_snapshot(&journal, &snap).unwrap();
        resumed.poll();
        assert_eq!(
            resumed.snapshot().to_json().to_string(),
            genesis.snapshot().to_json().to_string()
        );
        let frame = resumed.frame();
        assert_eq!(frame.checkpoints, 1);
        assert_eq!(frame.checkpoint_seq, Some(3));
    }

    #[test]
    fn state_at_resumed_matches_state_at_genesis() {
        let dir = TempDir::new("state-at");
        let (journal, snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());

        let genesis = state_at(&journal, None, AuditConfig::default()).unwrap();
        let resumed = state_at(&journal, Some(&snap), AuditConfig::default()).unwrap();
        assert_eq!(resumed.1, genesis.1, "same records");
        assert_eq!(resumed.2, genesis.2, "same head");
        assert_eq!(
            resumed.0.to_string(),
            genesis.0.to_string(),
            "resumed state must be byte-identical to the genesis state"
        );
        // The position covers the whole file: prefix + anchor + suffix.
        assert_eq!(
            genesis.1,
            prefix_events().len() as u64 + 1 + suffix_events().len() as u64
        );
    }

    #[test]
    fn state_at_fails_closed_on_a_torn_tail() {
        let dir = TempDir::new("state-at-torn");
        let (journal, _snap) = checkpointed(&dir.0, &prefix_events(), &suffix_events());
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(br#"{"hash":"torn"#);
        std::fs::write(&journal, bytes).unwrap();

        let err = state_at(&journal, None, AuditConfig::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
