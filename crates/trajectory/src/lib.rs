//! # hka-trajectory
//!
//! The moving-object-database substrate assumed by the paper's trusted
//! server: the TS "has the usual functionalities of a location server
//! (i.e., a moving object database storing precise data for all of its
//! users and the capability to efficiently perform spatio-temporal
//! queries)".
//!
//! * [`Phl`] — a **Personal History of Locations** (paper Definition 6): the
//!   time-ordered sequence of `⟨x, y, t⟩` observations for one user.
//! * [`TrajectoryStore`] — all users' PHLs, with append-time ordering
//!   enforcement.
//! * [`GridIndex`] — a uniform space–time grid over the store supporting
//!   the two queries Algorithm 1 needs:
//!   * *"the smallest 3D space … crossed by k trajectories (each one for a
//!     different user)"* — realized as a k-nearest-users search
//!     ([`GridIndex::k_nearest_users`]) exactly mirroring the paper's own
//!     brute-force formulation ("considering the nearest neighbor in the
//!     PHL of each user and then taking the closest k points");
//!   * the observations inside a given box
//!     ([`GridIndex::scan_in`]) — the crowd of an on-demand
//!     mix-zone — and the set of users crossing it
//!     ([`SpatialIndex::users_crossing`]), per-request anonymity sets.
//! * [`brute`] / [`BruteIndex`] — the same two queries by exhaustive
//!   scan: the paper's O(k·n) formulation kept as the executable
//!   specification the grid is differentially tested against, and the
//!   baseline of experiment T3.
//! * [`CompactionPolicy`] — granularity-aware folding of old PHL points
//!   into per-granule representatives (bounded memory over unbounded
//!   feeds; see the `compact` module docs for the exact invariants), and
//!   [`state`] — the exact canonical-JSON codec checkpoint snapshots use
//!   to persist and restore the store.
//! * [`SpatialIndex`] — the seam both implement and must answer
//!   identically through; [`IndexBackend`] selects one at run time.
//! * [`UnionIndex`] — the sharded server's one cross-shard reader: a
//!   single index over every shard's users, kept current by each
//!   recorded observation and rebuilt from the shard stores on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
mod compact;
pub mod delta;
mod index;
pub mod io;
mod phl;
mod spatial;
pub mod state;
mod store;
mod user;

pub use brute::BruteIndex;
pub use compact::{CompactionPolicy, CompactionStats};
pub use delta::UnionIndex;
pub use index::{GridIndex, GridIndexConfig};
pub use phl::Phl;
pub use spatial::{IndexBackend, SpatialIndex};
pub use store::{clamp_after, TrajectoryStore};
pub use user::UserId;
