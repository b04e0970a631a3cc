//! # hka-faults
//!
//! Deterministic, seedable fault injection for the hka pipeline.
//!
//! The paper's guarantee (Theorem 1) assumes the Trusted Server can
//! *always* generalize, unlink, or refuse. Real infrastructure fails:
//! disks return errors mid-journal-write, indexes time out, mix-zone
//! bookkeeping becomes unavailable, and positioning updates arrive
//! dropped, duplicated, or out of order. Spatio-temporal linkage
//! attacks exploit exactly those moments — a privacy layer that
//! degrades *open* leaks precise tuples. This crate provides the
//! machinery to rehearse every such failure deterministically:
//!
//! * [`FaultPlan`] — an ordered set of rules, each *injection site* ×
//!   *trigger predicate* × [`FaultKind`]. Evaluation is purely a
//!   function of the plan's seed and per-site hit counters, so a given
//!   plan replays identically on every run.
//! * [`FaultInjector`] — a cheaply cloneable handle threaded through
//!   the hot paths; [`FaultInjector::none`] is a zero-cost disabled
//!   injector for production configurations.
//! * [`FaultyWriter`] — an `io::Write` adapter that injects clean I/O
//!   errors and *torn* (partial) writes into any byte sink, modelling
//!   a crash mid-journal-append.
//! * [`randomized_plan`] — a seeded generator of fault schedules over
//!   the standard injection sites, for chaos suites that want many
//!   diverse schedules from a list of seeds.
//!
//! Zero dependencies by design, like `hka-obs`: any crate in the
//! workspace can thread an injector through its hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod schedule;
mod writer;

pub use plan::{FaultInjector, FaultKind, FaultPlan, FaultRule, Trigger};
pub use schedule::{checkpoint_chaos_plan, gateway_chaos_plan, randomized_plan, tail_chaos_plan};
pub use writer::FaultyWriter;

/// Named injection sites threaded through the pipeline's hot paths.
///
/// Site names are part of the observable surface: injected-fault
/// counters are exported as `faults.<site>` in the `hka-obs` metrics
/// registry.
pub mod sites {
    /// PHL store writes (location updates and request-point recording).
    pub const PHL_WRITE: &str = "phl.write";
    /// Journal sink byte-level I/O (see [`crate::FaultyWriter`]).
    pub const JOURNAL_IO: &str = "journal.io";
    /// Mix-zone subsystem availability at unlink time.
    pub const MIXZONE: &str = "mixzone.available";
    /// Moving-object index queries (Algorithm 1's candidate search).
    pub const INDEX_QUERY: &str = "index.query";
    /// Request arrival: drop / duplicate / out-of-order timestamps.
    /// Applied by the event driver (simulator, chaos harness), not
    /// inside the server.
    pub const ARRIVAL: &str = "request.arrival";
    /// Checkpoint snapshot temp-file write: a clean I/O error or a
    /// torn write leaving a partial `.tmp` behind.
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// Checkpoint snapshot atomic rename: the crash window between a
    /// fully fsynced temp file and its publication, orphaning the temp.
    pub const SNAPSHOT_RENAME: &str = "snapshot.rename";
    /// Checkpoint anchor-record append: the snapshot file exists but
    /// the journal never learns about it (no anchor in the chain).
    pub const CHECKPOINT_APPEND: &str = "checkpoint.append";
    /// Journal prefix truncation after a checkpoint: failure while
    /// swapping the suffix into place, possibly tearing the copy.
    pub const JOURNAL_TRUNCATE: &str = "journal.truncate";
    /// TCP gateway accept loop: a connection refused or dropped at the
    /// listener before any frame is read.
    pub const GATEWAY_ACCEPT: &str = "gateway.accept";
    /// Per-connection reads: a stalled or reset peer mid-stream.
    pub const CONN_READ: &str = "conn.read";
    /// Per-connection response writes: an I/O error, a silently
    /// dropped response, or a torn (half-written) frame before the
    /// peer disconnects.
    pub const CONN_WRITE: &str = "conn.write";
    /// Frame decode: a torn frame (line truncated mid-bytes) or a
    /// frame dropped between read and parse.
    pub const CONN_FRAME: &str = "conn.frame";

    /// Every standard site, in a fixed order. Gateway sites come last:
    /// appending (never inserting) keeps [`crate::randomized_plan`]'s
    /// per-seed draws for the pre-gateway sites identical to older
    /// releases.
    pub const ALL: [&str; 13] = [
        PHL_WRITE,
        JOURNAL_IO,
        MIXZONE,
        INDEX_QUERY,
        ARRIVAL,
        SNAPSHOT_WRITE,
        SNAPSHOT_RENAME,
        CHECKPOINT_APPEND,
        JOURNAL_TRUNCATE,
        GATEWAY_ACCEPT,
        CONN_READ,
        CONN_WRITE,
        CONN_FRAME,
    ];

    /// The checkpoint-path subset of [`ALL`], in write-protocol order:
    /// snapshot write → rename → anchor append → prefix truncation.
    pub const CHECKPOINT_PATH: [&str; 4] = [
        SNAPSHOT_WRITE,
        SNAPSHOT_RENAME,
        CHECKPOINT_APPEND,
        JOURNAL_TRUNCATE,
    ];

    /// The network-frontend subset of [`ALL`], in connection-lifecycle
    /// order: accept → read → frame decode → response write.
    pub const GATEWAY: [&str; 4] = [GATEWAY_ACCEPT, CONN_READ, CONN_FRAME, CONN_WRITE];
}
