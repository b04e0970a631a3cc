//! The [`SpatialIndex`] trait: one seam for every index backend.
//!
//! Algorithm 1's anonymity-set search is the hottest path in the
//! paper's preservation strategy, and the stack above this crate — the
//! trusted server, the sharded frontend, the baselines, and the bench
//! binaries — should not care *which* moving-object index answers it.
//! This module defines the contract all backends share:
//!
//! * incremental [`SpatialIndex::insert`] (the TS ingests location
//!   updates online);
//! * the window / co-location query [`SpatialIndex::users_crossing`]
//!   (plus an early-exit counting variant) — anonymity sets, and the
//!   crowd an on-demand mix-zone (paper §6.3) is sought in;
//! * the k-nearest-**users** query [`SpatialIndex::k_nearest_users`]
//!   mirroring the paper's "nearest neighbor in the PHL of each user,
//!   then the closest k points" (Algorithm 1 line 5).
//!
//! Two types implement it: [`GridIndex`] (uniform space–time grid —
//! the one production index) and [`BruteIndex`] (exhaustive scan — the
//! executable specification). They are required to return *identical*
//! answers, including tie-breaks: ascending scaled distance under the
//! backend's [`SpaceTimeScale`] (compared with `f64::total_cmp`, so a
//! NaN distance sorts last instead of panicking), ties broken by
//! ascending user id.
//! That equivalence is enforced by property tests, and it is what makes
//! "the k nearest users" one definition rather than one per backend.
//!
//! The trait is object-safe on purpose — servers hold a
//! `Box<dyn SpatialIndex>` chosen at run time via [`IndexBackend`], so
//! any workload can be re-run on the oracle and its journal compared
//! byte for byte — and requires `Send + Sync` because servers move
//! between threads.

use crate::brute::BruteIndex;
use crate::{GridIndex, GridIndexConfig, TrajectoryStore, UserId};
use hka_geo::{SpaceTimeScale, StBox, StPoint};
use std::collections::BTreeSet;

/// Canonical order on a user's equidistant observations.
///
/// When two of a user's points are *exactly* equidistant from a query
/// seed, every backend must report the same representative point or the
/// answer would depend on scan order — the grid visits cells in rings
/// around the seed's and the brute scan walks the PHL outward
/// from the temporal insertion point, so "first one wins" diverges
/// between them (and between two insertion orders of the grid). The
/// contract is therefore: among equidistant candidates, the smallest
/// `(t, x, y)` wins. All pruning bounds in the backends are strict
/// (`> kth`), so an equal-distance candidate is never pruned before
/// this rule sees it.
pub(crate) fn obs_cmp(a: &StPoint, b: &StPoint) -> std::cmp::Ordering {
    a.t.0
        .cmp(&b.t.0)
        .then(a.pos.x.total_cmp(&b.pos.x))
        .then(a.pos.y.total_cmp(&b.pos.y))
}

/// A spatio-temporal index over users' PHLs answering the two queries
/// Algorithm 1 needs, behind one backend-agnostic seam.
///
/// # Contract
///
/// Implementations must agree bit-for-bit on every query: for any
/// sequence of [`insert`](SpatialIndex::insert)s, two backends built
/// over the same points and the same [`SpaceTimeScale`] return equal
/// results from [`users_crossing`](SpatialIndex::users_crossing) and
/// [`k_nearest_users`](SpatialIndex::k_nearest_users). The brute
/// backend ([`BruteIndex`]) is the executable specification; the
/// differential property suite checks the grid against it.
pub trait SpatialIndex: std::fmt::Debug + Send + Sync {
    /// Which backend this is (for logs, reports, and journal metadata).
    fn backend(&self) -> IndexBackend;

    /// The space–time metric scale all distance queries use.
    fn scale(&self) -> &SpaceTimeScale;

    /// Number of indexed observations.
    fn len(&self) -> usize;

    /// Whether the index holds no observations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the index holds, computed from its collections'
    /// capacities (no allocator hook; allocator overhead not counted).
    fn heap_bytes(&self) -> usize;

    /// Indexes one observation for `user`.
    fn insert(&mut self, user: UserId, p: StPoint);

    /// Distinct users with at least one observation inside `b`.
    fn users_crossing(&self, b: &StBox) -> BTreeSet<UserId>;

    /// Number of distinct users crossing `b`, stopping early once
    /// `limit` distinct users are found. Backends may override this
    /// with a cheaper early-exit scan; the result must equal
    /// `users_crossing(b).len().min(limit)`.
    fn count_users_crossing(&self, b: &StBox, limit: usize) -> usize {
        self.users_crossing(b).len().min(limit)
    }

    /// For each of the `k` users (other than `exclude`) whose PHL comes
    /// closest to `seed`, that user's closest observation — sorted by
    /// ascending scaled distance, ties broken by ascending user id.
    fn k_nearest_users(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)>;
}

impl SpatialIndex for GridIndex {
    fn backend(&self) -> IndexBackend {
        IndexBackend::Grid
    }

    fn scale(&self) -> &SpaceTimeScale {
        &self.config().scale
    }

    fn len(&self) -> usize {
        GridIndex::len(self)
    }

    fn heap_bytes(&self) -> usize {
        GridIndex::heap_bytes(self)
    }

    fn insert(&mut self, user: UserId, p: StPoint) {
        GridIndex::insert(self, user, p);
    }

    fn users_crossing(&self, b: &StBox) -> BTreeSet<UserId> {
        GridIndex::users_crossing(self, b)
    }

    fn count_users_crossing(&self, b: &StBox, limit: usize) -> usize {
        GridIndex::count_users_crossing(self, b, limit)
    }

    fn k_nearest_users(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)> {
        GridIndex::k_nearest_users(self, seed, k, exclude)
    }
}

/// Which [`SpatialIndex`] implementation to instantiate.
///
/// The enum — rather than a generic parameter — is what keeps the
/// trait object-safe and lets run-time configuration (`hka-sim
/// --index brute`, `TsConfig::backend`) pick a backend without
/// monomorphizing the whole server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// Uniform space–time grid ([`GridIndex`]) — the default.
    #[default]
    Grid,
    /// Exhaustive scan ([`BruteIndex`]) — the O(k·n) differential
    /// oracle; never pick this for anything but testing and baselines.
    Brute,
}

impl IndexBackend {
    /// All backends, in oracle-last order — handy for differential
    /// sweeps.
    pub const ALL: [IndexBackend; 2] = [IndexBackend::Grid, IndexBackend::Brute];

    /// The accepted names joined with `|` (`grid|brute`), for usage and
    /// error text — built from [`IndexBackend::ALL`] so messages cannot
    /// drift from the parser.
    pub fn usage() -> String {
        Self::ALL.map(|b| b.name()).join("|")
    }

    /// Parses a CLI-style name (`grid`, `brute`), case-insensitively.
    pub fn parse(s: &str) -> Option<IndexBackend> {
        Self::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }

    /// The CLI-style name (`grid`, `brute`).
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Grid => "grid",
            IndexBackend::Brute => "brute",
        }
    }

    /// An empty index of this backend. Grid uses the full `config`;
    /// brute only needs its `scale`.
    pub fn make(&self, config: GridIndexConfig) -> Box<dyn SpatialIndex> {
        match self {
            IndexBackend::Grid => Box::new(GridIndex::new(config)),
            IndexBackend::Brute => Box::new(BruteIndex::new(config.scale)),
        }
    }

    /// An index of this backend bulk-loaded from `store`.
    pub fn build(&self, store: &TrajectoryStore, config: GridIndexConfig) -> Box<dyn SpatialIndex> {
        self.build_all([store], config)
    }

    /// An index of this backend bulk-loaded from the user-disjoint
    /// `stores` — a sharded server's partitions.
    pub fn build_all<'a>(
        &self,
        stores: impl IntoIterator<Item = &'a TrajectoryStore>,
        config: GridIndexConfig,
    ) -> Box<dyn SpatialIndex> {
        match self {
            IndexBackend::Grid => Box::new(GridIndex::build_all(stores, config)),
            IndexBackend::Brute => Box::new(BruteIndex::build_all(stores, config.scale)),
        }
    }
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::{Rect, TimeInterval, TimeSec};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    #[test]
    fn parse_and_name_round_trip() {
        for b in IndexBackend::ALL {
            assert_eq!(IndexBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(IndexBackend::parse("Grid"), Some(IndexBackend::Grid));
        for gone in ["rtree", "soa", "hashmap"] {
            assert_eq!(IndexBackend::parse(gone), None);
        }
        assert_eq!(IndexBackend::usage(), "grid|brute");
        assert_eq!(IndexBackend::default(), IndexBackend::Grid);
    }

    #[test]
    fn boxed_backends_agree_on_a_tiny_world() {
        let cfg = GridIndexConfig::default();
        let points = [
            (UserId(1), sp(10.0, 10.0, 0)),
            (UserId(2), sp(20.0, 10.0, 30)),
            (UserId(3), sp(400.0, 400.0, 60)),
            (UserId(1), sp(12.0, 11.0, 90)),
        ];
        let mut boxed: Vec<Box<dyn SpatialIndex>> =
            IndexBackend::ALL.iter().map(|b| b.make(cfg)).collect();
        for idx in &mut boxed {
            for (u, p) in &points {
                idx.insert(*u, *p);
            }
            assert_eq!(idx.len(), points.len());
            assert!(!idx.is_empty());
        }
        let seed = sp(0.0, 0.0, 10);
        let window = StBox::new(
            Rect::from_bounds(0.0, 0.0, 50.0, 50.0),
            TimeInterval::new(TimeSec(0), TimeSec(100)),
        );
        let oracle = boxed.last().expect("oracle is last");
        for idx in &boxed[..boxed.len() - 1] {
            assert_eq!(
                idx.k_nearest_users(&seed, 2, Some(UserId(2))),
                oracle.k_nearest_users(&seed, 2, Some(UserId(2))),
                "{} vs oracle",
                idx.backend()
            );
            assert_eq!(idx.users_crossing(&window), oracle.users_crossing(&window));
            assert_eq!(
                idx.count_users_crossing(&window, 1),
                oracle.count_users_crossing(&window, 1)
            );
        }
    }

    #[test]
    fn build_matches_incremental_insert() {
        let mut store = TrajectoryStore::new();
        for i in 0..10u64 {
            store.record(
                UserId(i % 4 + 1),
                sp(i as f64 * 7.0, i as f64 * 3.0, i as i64 * 20),
            );
        }
        let cfg = GridIndexConfig::default();
        let seed = sp(5.0, 5.0, 40);
        for b in IndexBackend::ALL {
            let built = b.build(&store, cfg);
            let mut incr = b.make(cfg);
            for (u, phl) in store.iter() {
                for p in phl.points() {
                    incr.insert(u, *p);
                }
            }
            assert_eq!(built.len(), incr.len(), "{b}");
            assert_eq!(built.backend(), b);
            assert_eq!(
                built.k_nearest_users(&seed, 3, None),
                incr.k_nearest_users(&seed, 3, None),
                "{b}"
            );
        }
    }
}
