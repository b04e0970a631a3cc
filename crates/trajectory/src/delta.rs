//! The sharded server's cross-shard read path: one incrementally
//! maintained union index.
//!
//! Algorithm 1's k-nearest-users query is global — "the nearest
//! neighbor in the PHL of **each user**", not each user on one shard —
//! and so is the crowd an unlink looks for around a point, while the
//! sharded trusted server partitions users (and their PHLs) across
//! shards. [`UnionIndex`] is a single owned [`SpatialIndex`] over *all*
//! partitions, answering both ([`UnionIndex::k_nearest_users`],
//! memoised per generation; [`UnionIndex::users_crossing`], a plain
//! pass-through):
//!
//! * **Inserts.** Every observation the server records on any shard is
//!   inserted at once ([`UnionIndex::insert`]), in execution order —
//!   the order a sequential server inserts into its own index — so the
//!   union holds exactly the points a sequential server's index would.
//!   Timestamps arrive normalized: the record path clamps a regression
//!   in the store and inserts the point as stored.
//!
//! * **Generations.** Every mutation (insert, rebuild, invalidation)
//!   bumps a generation counter. Cached query results are keyed by
//!   generation, so a stale answer can never be served — which is what
//!   makes sharing identical queries across a batch of co-arriving
//!   protected requests order-equivalent to one-by-one processing by
//!   construction.
//!
//! * **Invalidation.** Anything an insert cannot express — compaction
//!   (points *removed*), a restore that bypasses the record path — calls
//!   [`UnionIndex::invalidate`]; the union lazily rebuilds from the
//!   authoritative per-shard stores on the next query. A fresh
//!   `UnionIndex` starts invalid for the same reason: it has not seen
//!   the stores yet, and a server that never runs a protected request
//!   never builds one (inserts into an invalid union are dropped).
//!
//! Exactness relies on the canonical equal-distance tie rule
//! (`spatial::obs_cmp`): with scan-order-independent answers, a union
//! built in any insertion order agrees with a from-scratch sequential
//! build and with [`crate::BruteIndex`] over the merged stores, which
//! is what the differential suites pin.

use crate::{GridIndexConfig, IndexBackend, SpatialIndex, TrajectoryStore, UserId};
use hka_geo::{StBox, StPoint};
use std::collections::{BTreeSet, HashMap};

/// Memo key for a k-nearest query: seed coordinates (by bit pattern —
/// exact equality, no epsilon), k, and the excluded user.
type MemoKey = (u64, u64, i64, usize, Option<UserId>);

/// A generation-stamped, incrementally maintained union index over
/// user-disjoint partitions. See the module docs for the protocol.
#[derive(Debug)]
pub struct UnionIndex {
    backend: IndexBackend,
    config: GridIndexConfig,
    index: Box<dyn SpatialIndex>,
    /// Bumped on every mutation; memoized answers are only served while
    /// their recorded generation still matches.
    generation: u64,
    /// Whether `index` faithfully reflects the partition stores. When
    /// false, queries must rebuild first ([`UnionIndex::rebuild`]).
    live: bool,
    memo: HashMap<MemoKey, Vec<(UserId, StPoint)>>,
    memo_generation: u64,
    /// Inserts not yet added to `union.deltas_applied`.
    unpublished: u64,
}

impl UnionIndex {
    /// A new union over user-disjoint shards. Starts invalid: the first
    /// query (or an explicit [`UnionIndex::rebuild`]) loads the
    /// authoritative stores.
    pub fn new(backend: IndexBackend, config: GridIndexConfig) -> Self {
        UnionIndex {
            backend,
            config,
            index: backend.make(config),
            generation: 0,
            live: false,
            memo: HashMap::new(),
            memo_generation: 0,
            unpublished: 0,
        }
    }

    /// The current generation stamp (bumped on every mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the union currently reflects the partition stores.
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Number of indexed observations (0 while invalid).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Marks the union stale and drops its storage. Call for anything
    /// an insert cannot express: compaction, restore, a shard-layout
    /// change. The next query rebuilds lazily.
    pub fn invalidate(&mut self) {
        if self.live || !self.index.is_empty() {
            self.index = self.backend.make(self.config);
        }
        self.live = false;
        self.generation += 1;
        self.memo.clear();
        hka_obs::counter!("union.invalidations").incr();
    }

    /// Indexes one recorded observation of `user`. A no-op while
    /// invalid: the pending rebuild reads the point from its store.
    pub fn insert(&mut self, user: UserId, point: StPoint) {
        if !self.live {
            return;
        }
        self.index.insert(user, point);
        self.generation += 1;
        self.unpublished += 1;
    }

    /// Adds the inserts since the last call to the `union.deltas_applied`
    /// counter: one atomic add per batch of events, not one per
    /// observation. Registers nothing while no insert has happened.
    pub fn publish_inserts(&mut self) {
        if self.unpublished > 0 {
            hka_obs::counter!("union.deltas_applied").add(std::mem::take(&mut self.unpublished));
        }
    }

    /// Rebuilds the union from the authoritative partition stores (one
    /// bulk build, [`IndexBackend::build_all`]) and marks it live.
    pub fn rebuild<'a>(&mut self, stores: impl IntoIterator<Item = &'a TrajectoryStore>) {
        self.index = self.backend.build_all(stores, self.config);
        self.live = true;
        self.generation += 1;
        self.memo.clear();
        hka_obs::counter!("union.rebuilds").incr();
    }

    /// The global k-nearest-users query against the live union, served
    /// from the generation-keyed memo when an identical query already
    /// ran at this generation (co-arriving batch members with no
    /// intervening mutation — the only case where sharing is sound).
    ///
    /// # Panics
    /// If the union is not live; callers rebuild first.
    pub fn k_nearest_users(
        &mut self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)> {
        assert!(self.live, "query against an invalidated union index");
        self.fence_memo();
        let key = (
            seed.pos.x.to_bits(),
            seed.pos.y.to_bits(),
            seed.t.0,
            k,
            exclude,
        );
        if let Some(hit) = self.memo.get(&key) {
            hka_obs::counter!("union.memo_hits").incr();
            return hit.clone();
        }
        let out = self.index.k_nearest_users(seed, k, exclude);
        self.memo.insert(key, out.clone());
        out
    }

    /// Distinct users with an observation inside `b`, ascending by id —
    /// the candidate set of a mix-zone unlink. A plain pass-through: each
    /// unlink probes its own box once, so there is nothing to memoise.
    ///
    /// # Panics
    /// If the union is not live; callers rebuild first.
    pub fn users_crossing(&self, b: &StBox) -> BTreeSet<UserId> {
        assert!(self.live, "query against an invalidated union index");
        self.index.users_crossing(b)
    }

    /// Drops the memo if the index has mutated since it was filled.
    fn fence_memo(&mut self) {
        if self.memo_generation != self.generation {
            self.memo.clear();
            self.memo_generation = self.generation;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteIndex;
    use hka_geo::TimeSec;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn partitioned(points: &[(UserId, StPoint)], shards: usize) -> Vec<TrajectoryStore> {
        let mut stores: Vec<TrajectoryStore> =
            (0..shards).map(|_| TrajectoryStore::new()).collect();
        for (u, p) in points {
            stores[(u.0 % shards as u64) as usize].record(*u, *p);
        }
        stores
    }

    /// The specification the union is held to: an exhaustive scan over
    /// the merged shard stores.
    fn oracle(stores: &[TrajectoryStore], cfg: GridIndexConfig) -> BruteIndex {
        let mut merged = TrajectoryStore::new();
        for (u, phl) in stores.iter().flat_map(|s| s.iter()) {
            for p in phl.points() {
                merged.record(u, *p);
            }
        }
        BruteIndex::build(&merged, cfg.scale)
    }

    #[test]
    fn starts_invalid_and_rebuilds_lazily() {
        let mut union = UnionIndex::new(IndexBackend::Grid, GridIndexConfig::default());
        assert!(!union.is_live());
        assert_eq!(union.generation(), 0);
        let stores = partitioned(&[(UserId(1), sp(5.0, 5.0, 10))], 4);
        union.rebuild(stores.iter());
        assert!(union.is_live());
        assert_eq!(union.len(), 1);
        assert_eq!(
            union.k_nearest_users(&sp(0.0, 0.0, 0), 1, None),
            vec![(UserId(1), sp(5.0, 5.0, 10))]
        );
    }

    #[test]
    fn inserts_keep_the_union_equal_to_the_brute_scan_of_the_stores() {
        let cfg = GridIndexConfig::default();
        let mut s: u64 = 7;
        let mut next = |m: f64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 % m
        };
        let shards = 3usize;
        let mut stores: Vec<TrajectoryStore> =
            (0..shards).map(|_| TrajectoryStore::new()).collect();
        let mut union = UnionIndex::new(IndexBackend::Grid, cfg);
        union.rebuild(stores.iter());

        for pos in 0..120u64 {
            let user = UserId(next(15.0) as u64 + 1);
            let sid = (user.0 % shards as u64) as usize;
            let last_t = stores[sid]
                .phl(user)
                .and_then(|p| p.last())
                .map_or(0, |p| p.t.0);
            let p = sp(next(800.0), next(800.0), last_t + next(90.0) as i64);
            stores[sid].record(user, p);
            union.insert(user, p);

            // Every 7 events, compare against the exhaustive scan of the
            // merged stores.
            if pos % 7 == 6 {
                let want = oracle(&stores, cfg);
                assert_eq!(union.len(), want.len(), "pos={pos}");
                let seed = sp(next(800.0), next(800.0), next(3600.0) as i64);
                for k in [1usize, 4, 9] {
                    for excl in [None, Some(user)] {
                        assert_eq!(
                            union.k_nearest_users(&seed, k, excl),
                            want.k_nearest_users(&seed, k, excl),
                            "pos={pos} k={k} excl={excl:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equidistant_ties_straddling_shard_boundaries_resolve_canonically() {
        // Users 1..=6 each have two observations exactly 10m from the
        // seed, so every user ties with every other and consecutive
        // tied users live on different shards. The answer must be the k
        // smallest user ids however the tie group straddles partitions,
        // each represented by its canonical smallest-(t, x, y) point.
        let cfg = GridIndexConfig {
            scale: hka_geo::SpaceTimeScale::new(0.0), // time costs nothing
            ..GridIndexConfig::default()
        };
        let seed = sp(0.0, 0.0, 50);
        let points: Vec<_> = (1..=6u64)
            .flat_map(|u| {
                [
                    (UserId(u), sp(10.0, 0.0, 10)),
                    (UserId(u), sp(-10.0, 0.0, 20)),
                ]
            })
            .collect();
        for shards in [1usize, 2, 3, 4] {
            let stores = partitioned(&points, shards);
            let want = oracle(&stores, cfg);
            let mut union = UnionIndex::new(IndexBackend::Grid, cfg);
            union.rebuild(stores.iter());
            for k in [0usize, 1, 3, 6, 9] {
                let got = union.k_nearest_users(&seed, k, None);
                assert_eq!(
                    got,
                    want.k_nearest_users(&seed, k, None),
                    "shards={shards} k={k}"
                );
                assert_eq!(got.len(), k.min(6));
                for (i, (u, p)) in got.iter().enumerate() {
                    assert_eq!(u.0, i as u64 + 1, "tie order is ascending user id");
                    assert_eq!(*p, sp(10.0, 0.0, 10), "canonical equidistant observation");
                }
            }
        }
    }

    #[test]
    fn memo_serves_only_within_one_generation() {
        let mut union = UnionIndex::new(IndexBackend::Grid, GridIndexConfig::default());
        let mut store = TrajectoryStore::new();
        store.record(UserId(1), sp(10.0, 0.0, 0));
        union.rebuild([&store]);
        let seed = sp(0.0, 0.0, 0);
        let first = union.k_nearest_users(&seed, 2, None);
        assert_eq!(union.k_nearest_users(&seed, 2, None), first); // memo hit

        // A mutation bumps the generation: the same query must see the
        // new point, not the memoized answer.
        union.insert(UserId(2), sp(1.0, 0.0, 0));
        let after = union.k_nearest_users(&seed, 2, None);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].0, UserId(2));
    }

    #[test]
    fn invalidation_drops_state_and_inserts_become_noops() {
        let mut union = UnionIndex::new(IndexBackend::Brute, GridIndexConfig::default());
        let mut store = TrajectoryStore::new();
        store.record(UserId(1), sp(1.0, 1.0, 0));
        union.rebuild([&store]);
        assert_eq!(union.len(), 1);
        let g = union.generation();
        union.invalidate();
        assert!(!union.is_live());
        assert!(union.generation() > g);
        assert_eq!(union.len(), 0);
        // Inserts into an invalid union are dropped, not queued: the
        // rebuild reads the authoritative store instead.
        union.insert(UserId(2), sp(2.0, 2.0, 0));
        assert_eq!(union.len(), 0);
        store.record(UserId(2), sp(2.0, 2.0, 0));
        union.rebuild([&store]);
        assert_eq!(union.len(), 2);
    }
}
