//! Crash-safe checkpoints: snapshot + journal-suffix recovery.
//!
//! A long-running trusted server accumulates an unbounded journal; replaying
//! it from genesis after every restart is linear in the server's lifetime.
//! A **checkpoint** bounds that cost: a deterministic, content-hashed
//! snapshot of the server's durable state is written atomically to disk and
//! anchored *into the journal's hash chain* as a `checkpoint` record, so
//!
//! * recovery restores the snapshot and replays only the journal **suffix**
//!   after the anchor;
//! * `hka-audit` resumes chain verification from the anchor
//!   ([`hka_audit::resume_from_snapshot`]) instead of hashing the whole
//!   history;
//! * the journal **prefix** can be truncated away (archived) without
//!   breaking verification — the anchor is self-describing (it carries the
//!   chain position and the previous head), so a truncated journal still
//!   verifies end to end.
//!
//! ## Snapshot contents
//!
//! | section | what | codec |
//! |---|---|---|
//! | `store`  | every user's PHL | [`hka_trajectory::state`] |
//! | `server` | pseudonym bindings, privacy params, overrides, at-risk flags, services, static mix-zones, mode, counters | [`ServerMeta`] |
//! | `stats`  | the event log's aggregate counters | [`stats_to_json`] |
//! | `audit`  | the offline auditor's replay state at the anchor | [`hka_audit::state_at`] |
//!
//! Deliberately **not** serialized: LBQID monitor automata and pattern
//! traversal state. A restored server starts those conservatively — exactly
//! like after a pseudonym unlink — and the operator re-attaches LBQIDs; the
//! paper's guarantees only get *stronger* from forgetting partial matches
//! (a fresh traversal re-generalizes from `k_init`). The server keeps no
//! record of its decisions in memory: the journal holds them all.
//!
//! ## Write protocol (fault sites in order)
//!
//! 1. flush the live sink (a group journal commits; events it could not
//!    land refuse the checkpoint), read its chain position
//!    `(records, head)`;
//! 2. build the audit section by replaying the on-disk journal (resuming
//!    from the previous checkpoint when possible) and **cross-check** its
//!    position against the sink's — any divergence aborts, fail-closed;
//! 3. write the snapshot to `<dir>/checkpoint-NNNNNN.snap` via temp file +
//!    fsync + atomic rename (`snapshot.write`, `snapshot.rename`);
//! 4. append the anchor record through the live sink (`checkpoint.append`);
//! 5. optionally truncate the journal prefix (`journal.truncate`) — done
//!    with the sink detached, because the truncation swaps a new inode into
//!    place and a still-open append handle would keep writing the dead one.
//!    Re-attaching is per record, so a group journal refuses truncation
//!    before step 1: truncate it offline with [`truncate_to_anchor`] and
//!    attach a fresh journal.
//!
//! A failure at any stage leaves the previous checkpoint (or genesis)
//! authoritative; recovery ([`Checkpointer::latest_valid`]) walks anchors
//! newest-first and *verifies every binding* (snapshot content hash, chain
//! position) before trusting one — a torn, missing, or doctored snapshot is
//! skipped, never half-loaded.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hka_anonymity::{Pseudonym, ServiceId};
use hka_audit::AuditConfig;
use hka_faults::{sites, FaultInjector, FaultKind};
use hka_geo::{Point, Rect, TimeSec};
use hka_obs::checkpoint::{
    anchor_payload, scan_anchors, truncate_to_anchor, CheckpointAnchor, Snapshot,
};
use hka_obs::{Json, CHECKPOINT_KIND};
use hka_trajectory::UserId;

use crate::events::TsStats;
use crate::policy::{PrivacyParams, RiskAction, Tolerance};
use crate::server::{ServerMode, TrustedServer, TsConfig, UserState};

/// Snapshot section holding the trajectory store.
pub const STORE_SECTION: &str = "store";
/// Snapshot section holding [`ServerMeta`].
pub const SERVER_SECTION: &str = "server";
/// Snapshot section holding the event log's [`TsStats`].
pub const STATS_SECTION: &str = "stats";
/// Snapshot section holding the offline auditor's replay state.
pub use hka_audit::AUDIT_SECTION;

// ---------------------------------------------------------------------------
// Codecs.
// ---------------------------------------------------------------------------

/// Decodes the snapshot sections a restore starts from: the trajectory
/// store, the [`ServerMeta`], and the event log's [`TsStats`].
pub fn restore_sections(
    snapshot: &Snapshot,
) -> Result<(hka_trajectory::TrajectoryStore, ServerMeta, TsStats), String> {
    let section = |name: &str| {
        snapshot
            .section(name)
            .ok_or_else(|| format!("snapshot has no '{name}' section"))
    };
    Ok((
        hka_trajectory::state::store_of_json(section(STORE_SECTION)?)?,
        ServerMeta::of_json(section(SERVER_SECTION)?)?,
        stats_of_json(section(STATS_SECTION)?)?,
    ))
}

/// Encodes the event log's aggregate counters.
pub fn stats_to_json(s: &TsStats) -> Json {
    Json::obj([
        ("forwarded_exact", Json::from(s.forwarded_exact as u64)),
        ("forwarded_hk_ok", Json::from(s.forwarded_hk_ok as u64)),
        (
            "forwarded_hk_failed",
            Json::from(s.forwarded_hk_failed as u64),
        ),
        (
            "suppressed_mixzone",
            Json::from(s.suppressed_mixzone as u64),
        ),
        ("suppressed_risk", Json::from(s.suppressed_risk as u64)),
        (
            "suppressed_degraded",
            Json::from(s.suppressed_degraded as u64),
        ),
        ("mode_changes", Json::from(s.mode_changes as u64)),
        ("pseudonym_changes", Json::from(s.pseudonym_changes as u64)),
        ("at_risk", Json::from(s.at_risk as u64)),
        ("lbqid_matches", Json::from(s.lbqid_matches as u64)),
        (
            "total_generalized_area",
            Json::Num(s.total_generalized_area),
        ),
        (
            "total_generalized_duration",
            Json::Int(s.total_generalized_duration),
        ),
    ])
}

fn req<'a>(o: &'a Json, what: &str, name: &str) -> Result<&'a Json, String> {
    o.get(name)
        .ok_or_else(|| format!("{what}: missing '{name}'"))
}

fn req_usize(o: &Json, what: &str, name: &str) -> Result<usize, String> {
    req(o, what, name)?
        .as_int()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("{what}: mistyped '{name}'"))
}

fn req_u64(o: &Json, what: &str, name: &str) -> Result<u64, String> {
    req(o, what, name)?
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("{what}: mistyped '{name}'"))
}

fn req_service(o: &Json, what: &str) -> Result<ServiceId, String> {
    req_u64(o, what, "service")?
        .try_into()
        .map(ServiceId)
        .map_err(|_| format!("{what}: service id out of range"))
}

fn req_i64(o: &Json, what: &str, name: &str) -> Result<i64, String> {
    req(o, what, name)?
        .as_int()
        .ok_or_else(|| format!("{what}: mistyped '{name}'"))
}

fn req_f64(o: &Json, what: &str, name: &str) -> Result<f64, String> {
    req(o, what, name)?
        .as_f64()
        .ok_or_else(|| format!("{what}: mistyped '{name}'"))
}

fn req_arr<'a>(o: &'a Json, what: &str, name: &str) -> Result<&'a [Json], String> {
    match req(o, what, name)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{what}: '{name}' is not an array")),
    }
}

/// Decodes [`stats_to_json`]. Strict: a missing field is an error — a
/// silently-zeroed counter would diverge from the journal's totals.
pub fn stats_of_json(j: &Json) -> Result<TsStats, String> {
    let what = "stats";
    Ok(TsStats {
        forwarded_exact: req_usize(j, what, "forwarded_exact")?,
        forwarded_hk_ok: req_usize(j, what, "forwarded_hk_ok")?,
        forwarded_hk_failed: req_usize(j, what, "forwarded_hk_failed")?,
        suppressed_mixzone: req_usize(j, what, "suppressed_mixzone")?,
        suppressed_risk: req_usize(j, what, "suppressed_risk")?,
        suppressed_degraded: req_usize(j, what, "suppressed_degraded")?,
        mode_changes: req_usize(j, what, "mode_changes")?,
        pseudonym_changes: req_usize(j, what, "pseudonym_changes")?,
        at_risk: req_usize(j, what, "at_risk")?,
        lbqid_matches: req_usize(j, what, "lbqid_matches")?,
        total_generalized_area: req_f64(j, what, "total_generalized_area")?,
        total_generalized_duration: req_i64(j, what, "total_generalized_duration")?,
    })
}

fn params_to_json(p: &PrivacyParams) -> Json {
    Json::obj([
        ("k", Json::from(p.k as u64)),
        ("theta", Json::Num(p.theta)),
        ("k_init", Json::from(p.k_init as u64)),
        ("k_decrement", Json::from(p.k_decrement as u64)),
        (
            "on_risk",
            Json::from(match p.on_risk {
                RiskAction::Forward => "forward",
                RiskAction::Suppress => "suppress",
            }),
        ),
    ])
}

fn params_of_json(j: &Json) -> Result<PrivacyParams, String> {
    let what = "params";
    let on_risk = match req(j, what, "on_risk")?.as_str() {
        Some("forward") => RiskAction::Forward,
        Some("suppress") => RiskAction::Suppress,
        other => return Err(format!("params: unknown on_risk {other:?}")),
    };
    Ok(PrivacyParams {
        k: req_usize(j, what, "k")?,
        theta: req_f64(j, what, "theta")?,
        k_init: req_usize(j, what, "k_init")?,
        k_decrement: req_usize(j, what, "k_decrement")?,
        on_risk,
    })
}

fn opt_params_to_json(p: &Option<PrivacyParams>) -> Json {
    p.as_ref().map_or(Json::Null, params_to_json)
}

fn opt_params_of_json(j: &Json) -> Result<Option<PrivacyParams>, String> {
    match j {
        Json::Null => Ok(None),
        j => params_of_json(j).map(Some),
    }
}

/// One user's durable bindings in a checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct UserMeta {
    /// The user.
    pub user: UserId,
    /// The pseudonym currently bound to the user.
    pub pseudonym: Pseudonym,
    /// Registration-time privacy parameters (`None` = privacy off).
    pub params: Option<PrivacyParams>,
    /// Per-service overrides, ascending by service id.
    pub overrides: Vec<(ServiceId, Option<PrivacyParams>)>,
    /// Whether an at-risk notification is unresolved.
    pub at_risk: bool,
}

impl UserMeta {
    /// The durable part of a live user's state.
    pub fn of(user: UserId, state: &UserState) -> Self {
        UserMeta {
            user,
            pseudonym: state.pseudonym,
            params: state.params,
            overrides: state.overrides.iter().map(|(s, p)| (*s, *p)).collect(),
            at_risk: state.at_risk,
        }
    }

    /// The state a restored server starts the user from: the durable
    /// bindings, with LBQID monitors and pattern traversals restarted
    /// empty (exactly like after an unlink).
    pub fn state(&self) -> UserState {
        UserState {
            pseudonym: self.pseudonym,
            params: self.params,
            overrides: self.overrides.iter().cloned().collect(),
            monitors: Vec::new(),
            patterns: Vec::new(),
            at_risk: self.at_risk,
        }
    }
}

/// The `server` section of a checkpoint snapshot: everything the
/// trusted server needs beyond the trajectory store to resume serving
/// (see the module docs for what is deliberately left out).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMeta {
    /// Operating mode at snapshot time.
    pub mode: ServerMode,
    /// Timestamp of the most recent event.
    pub last_time: TimeSec,
    /// Next message id to issue.
    pub next_msg: u64,
    /// Next pseudonym to issue.
    pub next_pseudonym: u64,
    /// Registered service tolerances, ascending by service id.
    pub services: Vec<(ServiceId, Tolerance)>,
    /// Static mix-zones, in registration order.
    pub static_zones: Vec<Rect>,
    /// Per-user bindings, ascending by user id.
    pub users: Vec<UserMeta>,
}

impl ServerMeta {
    /// Canonical encoding (keys sorted, floats round-tripping exactly).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::from(self.mode.as_str())),
            ("last_time", Json::Int(self.last_time.0)),
            ("next_msg", Json::from(self.next_msg)),
            ("next_pseudonym", Json::from(self.next_pseudonym)),
            (
                "services",
                Json::Arr(
                    self.services
                        .iter()
                        .map(|(id, tol)| {
                            Json::obj([
                                ("service", Json::from(u64::from(id.0))),
                                ("max_area", Json::Num(tol.max_area)),
                                ("max_duration", Json::Int(tol.max_duration)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "static_zones",
                Json::Arr(
                    self.static_zones
                        .iter()
                        .map(|z| {
                            Json::Arr(vec![
                                Json::Num(z.min().x),
                                Json::Num(z.min().y),
                                Json::Num(z.max().x),
                                Json::Num(z.max().y),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "users",
                Json::Arr(
                    self.users
                        .iter()
                        .map(|u| {
                            Json::obj([
                                ("user", Json::from(u.user.raw())),
                                ("pseudonym", Json::from(u.pseudonym.0)),
                                ("params", opt_params_to_json(&u.params)),
                                (
                                    "overrides",
                                    Json::Arr(
                                        u.overrides
                                            .iter()
                                            .map(|(svc, p)| {
                                                Json::obj([
                                                    ("service", Json::from(u64::from(svc.0))),
                                                    ("params", opt_params_to_json(p)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("at_risk", Json::Bool(u.at_risk)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Strict inverse of [`ServerMeta::to_json`].
    pub fn of_json(j: &Json) -> Result<ServerMeta, String> {
        let what = "server meta";
        let mode = req(j, what, "mode")?
            .as_str()
            .ok_or("server meta: mistyped 'mode'")?;
        let mode =
            ServerMode::parse(mode).ok_or_else(|| format!("unknown server mode '{mode}'"))?;
        let mut services = Vec::new();
        for s in req_arr(j, what, "services")? {
            let max_area = req_f64(s, "service", "max_area")?;
            let max_duration = req_i64(s, "service", "max_duration")?;
            if !(max_area >= 0.0 && max_duration >= 0) {
                return Err("service: negative tolerance".into());
            }
            services.push((
                req_service(s, "service")?,
                Tolerance::new(max_area, max_duration),
            ));
        }
        let mut static_zones = Vec::new();
        for z in req_arr(j, what, "static_zones")? {
            let Json::Arr(corners) = z else {
                return Err("static zone is not an array".into());
            };
            let [x0, y0, x1, y1] = corners.as_slice() else {
                return Err(format!(
                    "static zone has {} elements, expected 4",
                    corners.len()
                ));
            };
            let nums: Vec<f64> = [x0, y0, x1, y1]
                .iter()
                .map(|v| v.as_f64().ok_or("static zone corner is not a number"))
                .collect::<Result<_, _>>()?;
            static_zones.push(Rect::new(
                Point::new(nums[0], nums[1]),
                Point::new(nums[2], nums[3]),
            ));
        }
        let mut users = Vec::new();
        for u in req_arr(j, what, "users")? {
            let mut overrides = Vec::new();
            for o in req_arr(u, "user", "overrides")? {
                overrides.push((
                    req_service(o, "override")?,
                    opt_params_of_json(req(o, "override", "params")?)?,
                ));
            }
            users.push(UserMeta {
                user: UserId(req_u64(u, "user", "user")?),
                pseudonym: Pseudonym(req_u64(u, "user", "pseudonym")?),
                params: opt_params_of_json(req(u, "user", "params")?)?,
                overrides,
                at_risk: req(u, "user", "at_risk")?
                    .as_bool()
                    .ok_or("user: mistyped 'at_risk'")?,
            });
        }
        Ok(ServerMeta {
            mode,
            last_time: TimeSec(req_i64(j, what, "last_time")?),
            next_msg: req_u64(j, what, "next_msg")?,
            next_pseudonym: req_u64(j, what, "next_pseudonym")?,
            services,
            static_zones,
            users,
        })
    }
}

// ---------------------------------------------------------------------------
// The checkpointer.
// ---------------------------------------------------------------------------

/// Receipt of a successful checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointReceipt {
    /// Chain seq of the anchor record (== records covered by the snapshot).
    pub seq: u64,
    /// Where the snapshot lives.
    pub path: PathBuf,
    /// SHA-256 of the snapshot file, as recorded in the anchor.
    pub snapshot_hash: String,
    /// Snapshot size on disk.
    pub bytes: u64,
    /// Journal-prefix bytes archived away (0 unless truncation ran).
    pub truncated_bytes: u64,
}

/// Checkpoints rejected during a recovery scan, newest first:
/// `(anchor seq, reason)` per skipped candidate.
pub type SkippedCheckpoints = Vec<(u64, String)>;

/// A checkpoint that survived full verification during recovery.
#[derive(Debug, Clone)]
pub struct RecoveredCheckpoint {
    /// The anchor record binding the snapshot into the chain.
    pub anchor: CheckpointAnchor,
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// Where the snapshot lives.
    pub path: PathBuf,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected fault at {site}"))
}

/// Orchestrates the checkpoint write protocol and the recovery ladder
/// for one journal file (see the module docs for both).
pub struct Checkpointer {
    journal: PathBuf,
    dir: PathBuf,
    audit_cfg: AuditConfig,
    injector: FaultInjector,
    last_snapshot: Option<PathBuf>,
}

impl Checkpointer {
    /// A checkpointer for `journal`, writing snapshots under `dir`
    /// (created on first use).
    pub fn new(journal: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        Checkpointer {
            journal: journal.into(),
            dir: dir.into(),
            audit_cfg: AuditConfig::default(),
            injector: FaultInjector::none(),
            last_snapshot: None,
        }
    }

    /// Sets the audit tolerances embedded in snapshot audit sections.
    /// Must match the config the offline audit runs with, or the
    /// resumed report's trade-off tables will differ from genesis.
    pub fn with_audit_config(mut self, cfg: AuditConfig) -> Self {
        self.audit_cfg = cfg;
        self
    }

    /// Attaches a fault-injection plan covering the checkpoint-path
    /// sites ([`sites::CHECKPOINT_PATH`]).
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// The snapshot file for a checkpoint anchored at `records`.
    pub fn snapshot_path(&self, records: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{records:06}.snap"))
    }

    /// The most recent snapshot this checkpointer wrote or recovered.
    pub fn last_snapshot(&self) -> Option<&Path> {
        self.last_snapshot.as_deref()
    }

    fn check(&self, site: &str) -> Option<FaultKind> {
        let kind = self.injector.check(site)?;
        hka_obs::counter!("faults.injected").incr();
        hka_obs::global().counter(&format!("faults.{site}")).incr();
        Some(kind)
    }

    /// Runs the full write protocol against a live server on either
    /// journal cadence: snapshot, anchor, metrics, and (optionally)
    /// journal-prefix truncation.
    ///
    /// Fail-closed refusals: no journal attached, events a group commit
    /// could not land (the snapshot would claim events the chain does not
    /// have), an audit position diverging from the journal's, or
    /// truncation asked of a group journal (re-attaching after the swap
    /// is per record, and would silently drop the fsync per commit).
    /// On error the journal and the previous checkpoint are untouched
    /// and remain authoritative — the caller just carries on serving and
    /// may retry at the next interval. `ts.checkpoint_failures` counts
    /// these.
    pub fn checkpoint(
        &mut self,
        ts: &mut TrustedServer,
        truncate: bool,
    ) -> io::Result<CheckpointReceipt> {
        let started = Instant::now();
        let result = self.try_checkpoint(ts, truncate, started);
        if result.is_err() {
            hka_obs::counter!("ts.checkpoint_failures").incr();
        }
        result
    }

    fn try_checkpoint(
        &mut self,
        ts: &mut TrustedServer,
        truncate: bool,
        started: Instant,
    ) -> io::Result<CheckpointReceipt> {
        if truncate && ts.log().group_commit() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "journal-prefix truncation needs a per-record journal: truncate a group \
                 journal offline and attach a fresh one",
            ));
        }
        ts.flush_journal()?;
        if ts.log().uncommitted() > 0 {
            return Err(invalid(
                "pending events not durably committed: refusing to snapshot ahead of the chain",
            ));
        }
        let (records, head) = ts
            .journal_position()
            .ok_or_else(|| invalid("no journal attached: nothing to anchor a checkpoint into"))?;
        let audit_state = self.audit_state_at(records, &head)?;

        let mut snapshot = Snapshot::new(records, head.clone());
        snapshot.set_section(
            STORE_SECTION,
            hka_trajectory::state::store_to_json(ts.store()),
        );
        snapshot.set_section(SERVER_SECTION, ts.server_meta().to_json());
        snapshot.set_section(STATS_SECTION, stats_to_json(&ts.log().stats()));
        snapshot.set_section(hka_audit::AUDIT_SECTION, audit_state);

        let path = self.snapshot_path(records);
        let hash = self.write_staged(&snapshot, &path)?;
        let bytes = std::fs::metadata(&path)?.len();

        // Anchor the snapshot into the chain. Until this append lands the
        // snapshot file is an unanchored orphan: recovery ignores it.
        if self.check(sites::CHECKPOINT_APPEND).is_some() {
            return Err(injected(sites::CHECKPOINT_APPEND));
        }
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .ok_or_else(|| invalid("snapshot path has no file name"))?;
        let seq = ts.append_journal_record(
            CHECKPOINT_KIND,
            anchor_payload(&file_name, records, &head, &hash),
        )?;
        debug_assert_eq!(seq, records, "anchor seq equals the records it covers");
        // The next audit section resumes from this snapshot, not genesis.
        self.last_snapshot = Some(path.clone());

        let truncated_bytes = if truncate { self.truncate_live(ts)? } else { 0 };

        hka_obs::counter!("ts.checkpoints").incr();
        hka_obs::counter!("ts.checkpoint_bytes").add(bytes);
        hka_obs::histogram!("ts.checkpoint_write_ns").record(started.elapsed().as_nanos() as u64);
        hka_obs::gauge!("ts.checkpoint_last_offset").set(records as i64);
        Ok(CheckpointReceipt {
            seq,
            path,
            snapshot_hash: hash,
            bytes,
            truncated_bytes,
        })
    }

    /// Builds a snapshot's `audit` section at chain position
    /// `(records, head)` by replaying the on-disk journal — resuming
    /// from the previous snapshot when one is still valid, falling back
    /// to a genesis replay when it is not (more work, never wrong
    /// state) — and **cross-checks** the file's end position against
    /// the caller's live position: any divergence aborts, fail-closed.
    fn audit_state_at(&self, records: u64, head: &str) -> io::Result<Json> {
        let (audit_state, file_records, file_head) = match &self.last_snapshot {
            Some(prev) => match hka_audit::state_at(&self.journal, Some(prev), self.audit_cfg) {
                Ok(v) => v,
                Err(_) => hka_audit::state_at(&self.journal, None, self.audit_cfg)?,
            },
            None => hka_audit::state_at(&self.journal, None, self.audit_cfg)?,
        };
        if file_records != records || file_head != head {
            return Err(invalid(format!(
                "journal file ends at ({file_records}, {file_head}) but the live sink is at \
                 ({records}, {head}): refusing to snapshot divergent state"
            )));
        }
        Ok(audit_state)
    }

    /// Stages the snapshot atomically: temp file + fsync + rename, with
    /// fault injection at `snapshot.write` (which may tear the temp
    /// file) and `snapshot.rename` (which orphans a fully-written temp).
    /// Either failure leaves the published snapshot path untouched.
    fn write_staged(&self, snapshot: &Snapshot, path: &Path) -> io::Result<String> {
        std::fs::create_dir_all(&self.dir)?;
        let text = snapshot.encode();
        let tmp = path.with_extension("tmp");
        match self.check(sites::SNAPSHOT_WRITE) {
            Some(FaultKind::Torn) => {
                std::fs::write(&tmp, &text.as_bytes()[..text.len() / 2])?;
                return Err(injected(sites::SNAPSHOT_WRITE));
            }
            Some(_) => return Err(injected(sites::SNAPSHOT_WRITE)),
            None => {}
        }
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_data()?;
        }
        if self.check(sites::SNAPSHOT_RENAME).is_some() {
            return Err(injected(sites::SNAPSHOT_RENAME));
        }
        std::fs::rename(&tmp, path)?;
        Ok(snapshot.content_hash())
    }

    /// Truncates the journal prefix behind the just-written anchor.
    ///
    /// The sink is detached around the swap: [`truncate_to_anchor`]
    /// publishes the suffix by *renaming a new file into place*, and an
    /// append handle left open across that rename would keep writing the
    /// dead inode — every later event silently lost. The sink is
    /// re-attached (resuming the chain at the anchor) whether or not the
    /// swap succeeded; a fresh sink is healthy, so this also returns a
    /// degraded server to normal, as any re-attach does.
    fn truncate_live(&self, ts: &mut TrustedServer) -> io::Result<u64> {
        let (next_seq, head) = ts
            .journal_position()
            .ok_or_else(|| invalid("no journal attached"))?;
        drop(ts.take_journal());

        let swap = match self.check(sites::JOURNAL_TRUNCATE) {
            Some(FaultKind::Torn) => {
                // A crash mid-copy: the suffix temp file is torn, the
                // journal itself is untouched.
                std::fs::write(self.journal.with_extension("tmp"), b"{\"hash\":\"torn-tr")?;
                Err(injected(sites::JOURNAL_TRUNCATE))
            }
            Some(_) => Err(injected(sites::JOURNAL_TRUNCATE)),
            None => {
                truncate_to_anchor(&self.journal, next_seq - 1).map(|dropped| dropped.len() as u64)
            }
        };

        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.journal)?;
        let sink: Box<dyn std::io::Write + Send + Sync> = Box::new(std::io::BufWriter::new(file));
        ts.attach_journal(hka_obs::Journal::resume(sink, next_seq, head));
        swap
    }

    /// Walks the journal's checkpoint anchors newest-first and returns
    /// the first one whose snapshot survives **full** verification
    /// (file present, content hash matches the anchor, chain position
    /// agrees), together with `(anchor_seq, reason)` for every newer
    /// checkpoint that was skipped. `Ok((None, skipped))` means genesis
    /// replay is the only safe recovery — fail-closed, never a
    /// half-trusted snapshot.
    pub fn latest_valid(&self) -> io::Result<(Option<RecoveredCheckpoint>, SkippedCheckpoints)> {
        let mut skipped = Vec::new();
        for anchor in scan_anchors(&self.journal)? {
            let path = self.dir.join(&anchor.file);
            match Snapshot::read(&path) {
                Err(e) => skipped.push((anchor.records, format!("{}: {e}", path.display()))),
                Ok((snapshot, file_hash)) => {
                    if file_hash != anchor.snapshot {
                        skipped.push((
                            anchor.records,
                            format!("{}: content hash mismatch", path.display()),
                        ));
                    } else if snapshot.records != anchor.records || snapshot.head != anchor.head {
                        skipped.push((
                            anchor.records,
                            format!("{}: chain position mismatch", path.display()),
                        ));
                    } else {
                        return Ok((
                            Some(RecoveredCheckpoint {
                                anchor,
                                snapshot,
                                path,
                            }),
                            skipped,
                        ));
                    }
                }
            }
        }
        Ok((None, skipped))
    }

    /// Builds a server from the latest valid checkpoint, or an empty one
    /// when no checkpoint survives verification (the caller then replays
    /// the whole journal through it, i.e. genesis recovery). Remembers
    /// the recovered snapshot so the next [`Checkpointer::checkpoint`]
    /// resumes its audit replay from it.
    pub fn restore_server(
        &mut self,
        config: TsConfig,
    ) -> io::Result<(
        TrustedServer,
        Option<RecoveredCheckpoint>,
        SkippedCheckpoints,
    )> {
        let (found, skipped) = self.latest_valid()?;
        match found {
            Some(rec) => {
                let ts = TrustedServer::restore(config, &rec.snapshot)
                    .map_err(|e| invalid(format!("{}: {e}", rec.path.display())))?;
                self.last_snapshot = Some(rec.path.clone());
                Ok((ts, Some(rec), skipped))
            }
            None => Ok((TrustedServer::new(config), None, skipped)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivacyLevel;
    use hka_faults::{FaultPlan, Trigger};
    use hka_geo::StPoint;
    use hka_lbqid::Lbqid;
    use hka_obs::{DurableSink, Journal};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("hka-core-ckpt-{}-{tag}", std::process::id()));
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

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, hka_geo::TimeSec(t))
    }

    fn append_to(path: &Path) -> std::fs::File {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap()
    }

    fn file_journal(path: &Path) -> hka_obs::BoxedJournal {
        Journal::new(Box::new(std::io::BufWriter::new(append_to(path))))
    }

    /// A durable file sink that counts its fsyncs.
    struct CountedSyncs(std::fs::File, Arc<AtomicUsize>);

    impl std::io::Write for CountedSyncs {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    impl DurableSink for CountedSyncs {
        fn sync(&mut self) -> io::Result<()> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.sync_data()
        }
    }

    /// Serializes the tests that checkpoint: one of them counts its
    /// checkpoint in the process-global `ts.checkpoints`.
    fn checkpoint_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A server journaling to `dir/journal.jsonl` with a little traffic.
    fn busy_server(dir: &Path) -> (TrustedServer, PathBuf) {
        busy_server_on(dir, false)
    }

    /// [`busy_server`] on a per-record or a group-commit journal.
    fn busy_server_on(dir: &Path, group: bool) -> (TrustedServer, PathBuf) {
        let journal = dir.join("journal.jsonl");
        let mut ts = TrustedServer::new(TsConfig::default());
        if group {
            ts.attach_group_journal(Journal::new(
                Box::new(append_to(&journal)) as Box<dyn DurableSink>
            ));
        } else {
            ts.attach_journal(file_journal(&journal));
        }
        ts.register_service(ServiceId(1), Tolerance::new(1e8, 7_200));
        ts.add_static_mixzone(Rect::new(
            Point::new(500.0, 500.0),
            Point::new(600.0, 600.0),
        ));
        for u in 0..6u64 {
            let level = if u % 2 == 0 {
                PrivacyLevel::Medium
            } else {
                PrivacyLevel::Off
            };
            ts.register_user(UserId(u), level);
            for t in 0..5 {
                ts.location_update(UserId(u), sp(10.0 * u as f64, 3.0 * t as f64, 60 * t));
            }
            ts.handle_request(UserId(u), sp(10.0 * u as f64, 20.0, 400), ServiceId(1));
        }
        (ts, journal)
    }

    #[test]
    fn stats_and_server_meta_round_trip() {
        let dir = TempDir::new("codec");
        let (ts, _) = busy_server(&dir.0);
        let stats = ts.log().stats();
        let back = stats_of_json(&stats_to_json(&stats)).unwrap();
        assert_eq!(back, stats);

        let meta = ts.server_meta();
        let json = meta.to_json();
        let text = json.to_string();
        let reparsed = hka_obs::json::parse(&text).unwrap();
        assert_eq!(reparsed.to_string(), text, "canonical encoding");
        let back = ServerMeta::of_json(&reparsed).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.users.len(), 6);
        assert_eq!(back.services.len(), 1);
        assert_eq!(back.static_zones.len(), 1);
    }

    #[test]
    fn checkpoint_then_restore_reproduces_the_server() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("roundtrip");
        let (mut ts, journal) = busy_server(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        let receipt = cp.checkpoint(&mut ts, false).unwrap();
        assert!(receipt.path.exists());
        assert_eq!(receipt.truncated_bytes, 0);

        let (restored, rec, skipped) = cp.restore_server(TsConfig::default()).unwrap();
        assert!(skipped.is_empty());
        let rec = rec.expect("checkpoint recovered");
        assert_eq!(rec.anchor.records, receipt.seq);

        // The durable state is identical: same stats, same meta, same store.
        assert_eq!(restored.log().stats(), ts.log().stats());
        assert_eq!(restored.server_meta(), ts.server_meta());
        assert_eq!(
            hka_trajectory::state::store_to_json(restored.store()).to_string(),
            hka_trajectory::state::store_to_json(ts.store()).to_string()
        );
        // The rebuilt index answers queries (smoke: same user count).
        assert_eq!(restored.store().user_count(), ts.store().user_count());
    }

    #[test]
    fn audit_resume_from_checkpoint_is_byte_identical_to_genesis() {
        let _g = checkpoint_lock();
        for group in [false, true] {
            let dir = TempDir::new(&format!("audit-equiv-{group}"));
            let (mut ts, journal) = busy_server_on(&dir.0, group);
            let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
            let receipt = cp.checkpoint(&mut ts, false).unwrap();

            // More traffic after the checkpoint: the suffix.
            for u in 0..6u64 {
                ts.handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
            }
            ts.flush_journal().unwrap();

            let genesis = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
            let resumed = hka_audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
            assert!(genesis.chain.verified(), "{:?}", genesis.chain.error);
            assert_eq!(genesis.totals.checkpoints, 1);
            assert_eq!(resumed.to_json().to_string(), genesis.to_json().to_string());
        }
    }

    #[test]
    fn group_checkpoint_matches_the_per_record_snapshot_byte_for_byte() {
        let _g = checkpoint_lock();
        let (rec_dir, grp_dir) = (TempDir::new("bytes-record"), TempDir::new("bytes-group"));
        let (mut rec, rec_journal) = busy_server_on(&rec_dir.0, false);
        let (mut grp, grp_journal) = busy_server_on(&grp_dir.0, true);
        let a = Checkpointer::new(&rec_journal, rec_dir.0.join("snapshots"))
            .checkpoint(&mut rec, false)
            .unwrap();
        let b = Checkpointer::new(&grp_journal, grp_dir.0.join("snapshots"))
            .checkpoint(&mut grp, false)
            .unwrap();

        // Same chain position, same snapshot bytes (the hash covers the
        // whole file), and — because the anchor payload only names the
        // file, not the directory — the same journal bytes end to end.
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.snapshot_hash, b.snapshot_hash);
        assert!(std::fs::read(&rec_journal).unwrap() == std::fs::read(&grp_journal).unwrap());
    }

    #[test]
    fn a_group_snapshot_restores_into_trusted_server_and_back() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("cadences");
        let (mut grp, journal) = busy_server_on(&dir.0, true);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        cp.checkpoint(&mut grp, false).unwrap();
        let (found, skipped) = cp.latest_valid().unwrap();
        assert!(skipped.is_empty());
        let rec = found.expect("checkpoint recovered");
        let store_json = |ts: &TrustedServer| hka_trajectory::state::store_to_json(ts.store());

        // Into a server with no journal, which serves per record ...
        let mut seq = TrustedServer::restore(TsConfig::default(), &rec.snapshot).unwrap();
        assert_eq!(seq.server_meta(), grp.server_meta());
        assert_eq!(seq.log().stats(), grp.log().stats());
        assert_eq!(store_json(&seq), store_json(&grp));

        // ... and back onto a group journal, from that server's own
        // sections.
        let mut again = Snapshot::new(rec.snapshot.records, rec.snapshot.head.clone());
        again.set_section(STORE_SECTION, store_json(&seq));
        again.set_section(SERVER_SECTION, seq.server_meta().to_json());
        again.set_section(STATS_SECTION, stats_to_json(&seq.log().stats()));
        let mut back = TrustedServer::restore(TsConfig::default(), &again).unwrap();
        back.attach_group_journal(crate::server::tests::discarding_group_journal());
        assert_eq!(back.server_meta(), grp.server_meta());
        assert_eq!(back.log().stats(), grp.log().stats());
        assert_eq!(store_json(&back), store_json(&grp));

        // And all three keep serving alike. Restore builds no index; the
        // first request Algorithm 1 generalizes builds it, and from then
        // on every outcome agrees, ids included. Monitors restart empty
        // on restore: (re-)attach a pattern whose first element the
        // morning requests below match.
        let home = Rect::new(Point::new(-5.0, 0.0), Point::new(100.0, 100.0));
        let office = Rect::new(Point::new(900.0, 900.0), Point::new(950.0, 950.0));
        for ts in [&mut seq, &mut grp, &mut back] {
            for u in (0..6u64).step_by(2) {
                ts.add_lbqid(UserId(u), Lbqid::example_commute(home, office));
            }
        }
        assert!(format!("{back:?}").contains("indexed: false"), "{back:?}");
        for round in 0..3i64 {
            let t = 7 * 3_600 + 100 * round;
            for u in 0..6u64 {
                let loc = sp(10.0 * u as f64 + round as f64, 22.0, t);
                let at = sp(10.0 * u as f64, 26.0, t + 50);
                let mut outcomes = [&mut seq, &mut grp, &mut back].map(|ts| {
                    ts.location_update(UserId(u), loc);
                    format!("{:?}", ts.try_handle_request(UserId(u), at, ServiceId(1)))
                });
                let want = std::mem::take(&mut outcomes[0]);
                assert_eq!(
                    outcomes,
                    [String::new(), want.clone(), want.clone()],
                    "round {round} user {u}"
                );
                if u == 0 {
                    assert!(
                        want.contains("Forwarded"),
                        "generalized, not suppressed: {want}"
                    );
                    assert!(format!("{back:?}").contains("indexed: true"), "{back:?}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_without_a_journal_is_refused() {
        let dir = TempDir::new("nojournal");
        let mut ts = TrustedServer::new(TsConfig::default());
        let mut cp = Checkpointer::new(dir.0.join("none.jsonl"), dir.0.join("snapshots"));
        let err = cp.checkpoint(&mut ts, false).unwrap_err();
        assert!(err.to_string().contains("no journal attached"), "{err}");
    }

    /// Truncation re-attaches a per-record sink after the inode swap, so
    /// on a group journal it would silently trade the fsync per commit
    /// for none: refused before the journal is touched.
    #[test]
    fn a_truncating_checkpoint_on_a_group_journal_is_refused() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("group-truncate");
        let (mut ts, path) = busy_server_on(&dir.0, true);
        // Resume the chain on a sink that counts its fsyncs.
        ts.flush_journal().unwrap();
        let (next_seq, head) = ts.journal_position().unwrap();
        let syncs = Arc::new(AtomicUsize::new(0));
        let sink = CountedSyncs(append_to(&path), syncs.clone());
        ts.attach_group_journal(Journal::resume(
            Box::new(sink) as Box<dyn DurableSink>,
            next_seq,
            head,
        ));
        // An event left pending: a refusal that committed it would show.
        ts.handle_request(UserId(1), sp(10.0, 30.0, 850), ServiceId(1));
        assert_eq!(ts.log().uncommitted(), 1);
        let before = std::fs::read(&path).unwrap();
        let fsyncs = syncs.load(Ordering::SeqCst);
        let failures = || {
            hka_obs::global()
                .snapshot()
                .counter("ts.checkpoint_failures")
        };
        let failed = failures();

        let mut cp = Checkpointer::new(&path, dir.0.join("snapshots"));
        let err = cp.checkpoint(&mut ts, true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert_eq!(failures(), failed + 1);
        assert!(std::fs::read(&path).unwrap() == before, "journal untouched");
        assert_eq!(syncs.load(Ordering::SeqCst), fsyncs);

        // The group journal is still attached: the next commit lands
        // the pending event with one fsync, and a plain checkpoint works.
        assert!(ts.log().group_commit());
        ts.flush_journal().unwrap();
        assert_eq!(ts.log().uncommitted(), 0);
        assert_eq!(syncs.load(Ordering::SeqCst), fsyncs + 1);
        assert!(std::fs::read(&path).unwrap().len() > before.len());
        assert_eq!(cp.checkpoint(&mut ts, false).unwrap().truncated_bytes, 0);
    }

    #[test]
    fn truncation_archives_the_prefix_and_keeps_the_chain_verifiable() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("truncate");
        let (mut ts, journal) = busy_server(&dir.0);
        let before = std::fs::metadata(&journal).unwrap().len();
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        let receipt = cp.checkpoint(&mut ts, true).unwrap();
        assert!(receipt.truncated_bytes > 0);
        let after = std::fs::metadata(&journal).unwrap().len();
        assert!(after < before, "prefix gone: {after} < {before}");

        // The truncated journal still serves writes on the same chain...
        for u in 0..6u64 {
            ts.handle_request(UserId(u), sp(10.0 * u as f64, 25.0, 700), ServiceId(1));
        }
        ts.flush_journal().unwrap();

        // ...and the resumed audit still verifies end to end.
        let resumed = hka_audit::resume_from_snapshot(&journal, &receipt.path).unwrap();
        assert!(resumed.chain.verified(), "error: {:?}", resumed.chain.error);
        assert!(resumed.ok(), "violations: {:?}", resumed.violations);

        // A second checkpoint on the truncated journal also works: the
        // leading anchor seeds the next audit replay.
        let receipt2 = cp.checkpoint(&mut ts, true).unwrap();
        assert!(receipt2.seq > receipt.seq);
        let resumed2 = hka_audit::resume_from_snapshot(&journal, &receipt2.path).unwrap();
        assert!(resumed2.chain.verified());
    }

    #[test]
    fn recovery_ladder_falls_back_past_a_doctored_snapshot() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("ladder");
        let (mut ts, journal) = busy_server(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        let first = cp.checkpoint(&mut ts, false).unwrap();
        ts.handle_request(UserId(0), sp(0.0, 30.0, 800), ServiceId(1));
        let second = cp.checkpoint(&mut ts, false).unwrap();
        assert!(second.seq > first.seq);

        // Corrupt the newest snapshot: recovery must fall back to the
        // first, never half-trust the doctored one.
        let text = std::fs::read_to_string(&second.path).unwrap();
        std::fs::write(&second.path, text.replace("forwarded", "forwarble")).unwrap();

        let (found, skipped) = cp.latest_valid().unwrap();
        let found = found.expect("older checkpoint still valid");
        assert_eq!(found.anchor.records, first.seq);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, second.seq);

        // And with both gone, recovery degrades to genesis (None).
        std::fs::remove_file(&second.path).unwrap();
        std::fs::remove_file(&first.path).unwrap();
        let (found, skipped) = cp.latest_valid().unwrap();
        assert!(found.is_none());
        assert_eq!(skipped.len(), 2);
    }

    #[test]
    fn faults_on_the_checkpoint_path_leave_the_previous_state_authoritative() {
        let _g = checkpoint_lock();
        for (site, kind, group) in [
            (sites::SNAPSHOT_WRITE, FaultKind::Torn, false),
            (sites::SNAPSHOT_WRITE, FaultKind::Io, false),
            (sites::SNAPSHOT_RENAME, FaultKind::Io, false),
            (sites::CHECKPOINT_APPEND, FaultKind::Io, false),
            (sites::JOURNAL_TRUNCATE, FaultKind::Torn, false),
            (sites::JOURNAL_TRUNCATE, FaultKind::Io, false),
            // A group journal takes no truncation.
            (sites::SNAPSHOT_WRITE, FaultKind::Torn, true),
            (sites::SNAPSHOT_RENAME, FaultKind::Io, true),
            (sites::CHECKPOINT_APPEND, FaultKind::Io, true),
        ] {
            let tag = format!("fault-{}-{kind:?}-{group}", site.replace('.', "-"));
            let dir = TempDir::new(&tag);
            let (mut ts, journal) = busy_server_on(&dir.0, group);
            let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
            let good = cp.checkpoint(&mut ts, false).unwrap();
            ts.handle_request(UserId(1), sp(10.0, 30.0, 800), ServiceId(1));

            let mut plan = FaultPlan::new(7);
            plan.push_rule(site, Trigger::Always, kind);
            cp.attach_faults(FaultInjector::new(plan));
            let err = cp.checkpoint(&mut ts, !group).unwrap_err();
            assert!(err.to_string().contains(site), "{site}: {err}");

            // Fail-closed: the ladder lands on a fully verified
            // checkpoint. For faults before the anchor append that is
            // the previous one (orphaned snapshots are ignored); a
            // truncation fault strikes *after* the new snapshot and
            // anchor are durable, so the new checkpoint is the valid
            // one — only the prefix archival was lost.
            cp.attach_faults(FaultInjector::none());
            let (found, _skipped) = cp.latest_valid().unwrap();
            let found = found.expect("a checkpoint survives").anchor.records;
            if site == sites::JOURNAL_TRUNCATE {
                assert!(found > good.seq, "{site}: new checkpoint is durable");
            } else {
                assert_eq!(found, good.seq, "{site}");
            }

            // The server keeps serving and journaling after the failure.
            ts.handle_request(UserId(2), sp(20.0, 30.0, 900), ServiceId(1));
            ts.flush_journal().unwrap();
            let out = hka_audit::replay_file(&journal, AuditConfig::default()).unwrap();
            assert!(out.chain.verified(), "{site}: {:?}", out.chain.error);
            assert!(out.ok(), "{site}: {:?}", out.violations);
        }
    }

    #[test]
    fn checkpoint_metrics_are_exported() {
        let _g = checkpoint_lock();
        let dir = TempDir::new("metrics");
        let (mut ts, journal) = busy_server(&dir.0);
        let mut cp = Checkpointer::new(&journal, dir.0.join("snapshots"));
        let before = hka_obs::global().snapshot().counter("ts.checkpoints");
        let receipt = cp.checkpoint(&mut ts, false).unwrap();
        let snap = hka_obs::global().snapshot();
        assert_eq!(snap.counter("ts.checkpoints"), before + 1);
        assert!(snap.counter("ts.checkpoint_bytes") >= receipt.bytes);
        assert!(snap.histogram("ts.checkpoint_write_ns").is_some());
    }
}
