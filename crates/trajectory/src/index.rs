//! A uniform space–time grid index over the trajectory store.
//!
//! The paper notes that the expensive step of Algorithm 1 — finding "the
//! smallest 3D space (2D area + time) containing ⟨x,y,t⟩ and crossed by k
//! trajectories" — costs O(k·n) by brute force, and that "optimizations
//! may be inspired by the work on indexing moving objects". This module is
//! that optimization: location updates are hashed into uniform
//! `cell_size × cell_size × cell_duration` buckets, and both queries cost
//! what is near them, not what is in the database.
//!
//! * The window query ([`GridIndex::users_crossing`]) looks up the cells
//!   its box overlaps.
//! * The k-nearest-users query ([`GridIndex::k_nearest_users`]) expands
//!   time slabs outward from the seed's, and inside each slab looks cells
//!   up in Chebyshev rings around the seed's own cell, keeping the k best
//!   distinct users in one small vector ordered by `(distance², user id)`.
//!   It stops once a ring's lower bound alone exceeds the k-th distance.
//!   Every bound is strict and an entry is only ever displaced by a
//!   strictly smaller key, which is why the answer is exactly the
//!   exhaustive scan's (`TopK` carries the argument; DESIGN.md §11.2).
//!
//! `cells` keeps std's SipHash: cell keys are computed from
//! client-supplied coordinates, and a cheap multiplicative hash would let
//! a client of the TCP gateway aim its updates at one bucket chain.

use crate::{TrajectoryStore, UserId};
use hka_geo::{Rect, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Sizing parameters for the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridIndexConfig {
    /// Spatial cell side, meters.
    pub cell_size: f64,
    /// Temporal cell length, seconds.
    pub cell_duration: i64,
    /// Metric used by nearest-neighbour queries.
    pub scale: SpaceTimeScale,
}

impl Default for GridIndexConfig {
    fn default() -> Self {
        // 250 m × 5 min cells with a walking-speed metric: tuned for the
        // urban scenarios of the experiments (block ≈ 100 m, updates every
        // 30-120 s).
        GridIndexConfig {
            cell_size: 250.0,
            cell_duration: 300,
            scale: SpaceTimeScale::walking(),
        }
    }
}

/// A grid cell key `(x, y, t)` in cell units.
type CellKey = (i64, i64, i64);

/// A spatio-temporal grid index mapping cells to the user observations
/// they contain.
#[derive(Debug, Clone)]
pub struct GridIndex {
    config: GridIndexConfig,
    cells: HashMap<CellKey, Vec<(UserId, StPoint)>>,
    /// Time slab → the (x, y) cells occupied within it, in no particular
    /// order. Lets the nearest-neighbour search expand outward in time,
    /// and bounds what one slab can cost it (see `Search::slab`).
    by_time: std::collections::BTreeMap<i64, Vec<(i64, i64)>>,
    points: usize,
}

impl GridIndex {
    /// Creates an empty index.
    pub fn new(config: GridIndexConfig) -> Self {
        assert!(config.cell_size > 0.0, "cell_size must be positive");
        assert!(config.cell_duration > 0, "cell_duration must be positive");
        GridIndex {
            config,
            cells: HashMap::new(),
            by_time: std::collections::BTreeMap::new(),
            points: 0,
        }
    }

    /// Builds an index over every point currently in the store.
    pub fn build(store: &TrajectoryStore, config: GridIndexConfig) -> Self {
        let mut idx = GridIndex::new(config);
        for (user, phl) in store.iter() {
            for p in phl.points() {
                idx.insert(user, *p);
            }
        }
        idx
    }

    /// The index configuration.
    pub fn config(&self) -> &GridIndexConfig {
        &self.config
    }

    /// Number of indexed observations.
    pub fn len(&self) -> usize {
        self.points
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Inserts one observation (called by the TS on every location update,
    /// keeping the index incremental).
    pub fn insert(&mut self, user: UserId, p: StPoint) {
        let key = self.cell_of(&p);
        let bucket = self.cells.entry(key).or_default();
        if bucket.is_empty() {
            // Freshly occupied cell: register it in its time slab.
            self.by_time.entry(key.2).or_default().push((key.0, key.1));
        }
        bucket.push((user, p));
        self.points += 1;
    }

    fn cell_of(&self, p: &StPoint) -> CellKey {
        (
            (p.pos.x / self.config.cell_size).floor() as i64,
            (p.pos.y / self.config.cell_size).floor() as i64,
            p.t.0.div_euclid(self.config.cell_duration),
        )
    }

    /// The space–time box covered by a cell.
    fn cell_box(&self, key: CellKey) -> StBox {
        let cs = self.config.cell_size;
        let cd = self.config.cell_duration;
        StBox::new(
            Rect::from_bounds(
                key.0 as f64 * cs,
                key.1 as f64 * cs,
                (key.0 + 1) as f64 * cs,
                (key.1 + 1) as f64 * cs,
            ),
            TimeInterval::new(TimeSec(key.2 * cd), TimeSec((key.2 + 1) * cd - 1)),
        )
    }

    /// Distinct users with at least one observation inside `b`.
    pub fn users_crossing(&self, b: &StBox) -> BTreeSet<UserId> {
        let mut out = BTreeSet::new();
        self.for_each_in_box(b, |user, _| {
            out.insert(user);
        });
        out
    }

    /// Counts distinct users crossing `b`, stopping early at `limit`
    /// (enough for "are there ≥ k potential senders?" checks).
    pub fn count_users_crossing(&self, b: &StBox, limit: usize) -> usize {
        if limit == 0 {
            return 0;
        }
        let _span = hka_obs::span("index.query");
        let mut probes = 0u64;
        let mut seen = BTreeSet::new();
        let lo = self.cell_of(&StPoint::new(b.rect.min(), b.span.start()));
        let hi = self.cell_of(&StPoint::new(b.rect.max(), b.span.end()));
        'scan: for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                for ct in lo.2..=hi.2 {
                    if let Some(entries) = self.cells.get(&(cx, cy, ct)) {
                        probes += 1;
                        for (user, p) in entries {
                            if b.contains(p) && seen.insert(*user) && seen.len() >= limit {
                                break 'scan;
                            }
                        }
                    }
                }
            }
        }
        hka_obs::global().counter("index.probes").add(probes);
        seen.len()
    }

    fn for_each_in_box<F: FnMut(UserId, &StPoint)>(&self, b: &StBox, mut f: F) {
        let _span = hka_obs::span("index.query");
        let mut probes = 0u64;
        let lo = self.cell_of(&StPoint::new(b.rect.min(), b.span.start()));
        let hi = self.cell_of(&StPoint::new(b.rect.max(), b.span.end()));
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                for ct in lo.2..=hi.2 {
                    if let Some(entries) = self.cells.get(&(cx, cy, ct)) {
                        probes += 1;
                        for (user, p) in entries {
                            if b.contains(p) {
                                f(*user, p);
                            }
                        }
                    }
                }
            }
        }
        hka_obs::global().counter("index.probes").add(probes);
    }

    /// For each of the `k` users (other than `exclude`) whose PHL comes
    /// closest to the seed point, the closest observation — the indexed
    /// version of Algorithm 1's "smallest 3D space … crossed by k
    /// trajectories", realized exactly as the paper's brute force does
    /// ("the nearest neighbor in the PHL of each user, … then taking the
    /// closest k points").
    ///
    /// Search order: time slabs expand outward from the seed's slab, and
    /// within a slab cells are visited in Chebyshev rings around the
    /// seed's own cell. Both expansions stop once their lower bound alone
    /// exceeds the current k-th best per-user distance, so the cost
    /// scales with the data near the query, not with the database.
    ///
    /// Returns fewer than `k` entries when the index does not contain
    /// enough distinct users. Results are sorted by distance (ties by
    /// user id).
    pub fn k_nearest_users(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)> {
        let _span = hka_obs::span("index.query");
        let (out, cost) = self.search(seed, k, exclude);
        hka_obs::global().counter("index.probes").add(cost.probes);
        out
    }

    /// [`GridIndex::k_nearest_users`] plus what it cost.
    fn search(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> (Vec<(UserId, StPoint)>, SearchCost) {
        let mut search = Search {
            index: self,
            seed,
            home: self.cell_of(seed),
            exclude,
            top: TopK::new(k),
            cost: SearchCost::default(),
        };
        let (slab_min, slab_max) =
            match (self.by_time.keys().next(), self.by_time.keys().next_back()) {
                (Some(a), Some(b)) if k > 0 => (*a, *b),
                _ => return (Vec::new(), search.cost),
            };
        let mps = self.config.scale.meters_per_second;

        let mut ring = 0i64;
        loop {
            let lo = search.home.2 - ring;
            let hi = search.home.2 + ring;
            if lo < slab_min && hi > slab_max {
                break; // every occupied slab has been visited
            }
            // Temporal lower bound for cells in this ring (they are at
            // least (ring − 1) whole slabs away in time).
            if let Some(kth) = search.top.kth().filter(|_| mps > 0.0) {
                let lb = mps * ((ring - 1).max(0) * self.config.cell_duration) as f64;
                if lb * lb > kth {
                    break;
                }
            }
            for slab in [lo, hi].into_iter().take(if ring == 0 { 1 } else { 2 }) {
                if let Some(cols) = self.by_time.get(&slab) {
                    search.slab(slab, cols);
                }
            }
            ring += 1;
        }
        (search.top.into_answer(), search.cost)
    }
}

/// One nearest-users search in flight: the query, the k best users so
/// far, and the running cost.
struct Search<'a> {
    index: &'a GridIndex,
    seed: &'a StPoint,
    /// The seed's own cell.
    home: CellKey,
    exclude: Option<UserId>,
    top: TopK,
    cost: SearchCost,
}

impl Search<'_> {
    /// Offers one slab's observations to `top`, nearest cells first:
    /// Chebyshev rings of direct look-ups around the seed's own `(x, y)`
    /// cell, until a ring's lower bound alone exceeds the k-th distance.
    ///
    /// A ring holds 8r cells whether they are occupied or not, so one
    /// far outlier or a crowd too scarce to fill `top` would make the
    /// walk quadratic in the slab's extent. Once the rings have cost more
    /// look-ups than the slab has occupied cells (`cols`), the rest of the
    /// slab is finished by one pass over that list instead, which bounds
    /// a slab at a small constant times its own size.
    fn slab(&mut self, slab: i64, cols: &[(i64, i64)]) {
        let config = &self.index.config;
        let (cs, cd) = (config.cell_size, config.cell_duration);
        // How deep inside its own cell the seed sits: everything outside
        // the (2r − 1)-cell block around it is at least `inset + (r − 1)·cs`
        // away in space, and everything in this slab at least `gap` in time.
        let ox = self.seed.pos.x - self.home.0 as f64 * cs;
        let oy = self.seed.pos.y - self.home.1 as f64 * cs;
        let inset = ox.min(cs - ox).min(oy).min(cs - oy).max(0.0);
        let t = self.seed.t.0;
        let away = (slab * cd - t).max(t - ((slab + 1) * cd - 1)).max(0);
        let gap = config.scale.meters_per_second * away as f64;

        let budget = self.cost.lookups + cols.len() as u64;
        let mut r = 0i64;
        while self.cost.lookups <= budget {
            if let Some(kth) = self.top.kth().filter(|_| r > 0) {
                let reach = inset + (r - 1) as f64 * cs;
                if reach * reach + gap * gap > kth {
                    return;
                }
            }
            for dx in -r..=r {
                // Full column on the ring's two sides, its two ends between.
                let step = if dx.abs() == r { 1 } else { 2 * r as usize };
                for dy in (-r..=r).step_by(step) {
                    self.cell((self.home.0 + dx, self.home.1 + dy, slab));
                }
            }
            r += 1;
        }
        for &(cx, cy) in cols {
            // Not inside the rings already walked.
            if cx.abs_diff(self.home.0).max(cy.abs_diff(self.home.1)) >= r as u64 {
                self.cell((cx, cy, slab));
            }
        }
    }

    /// Looks one cell up and, if it is occupied and its own lower bound
    /// does not already exceed the k-th distance, offers its observations
    /// to `top`.
    fn cell(&mut self, key: CellKey) {
        self.cost.lookups += 1;
        let Some(entries) = self.index.cells.get(&key) else {
            return;
        };
        let scale = &self.index.config.scale;
        if let Some(kth) = self.top.kth() {
            if scale.dist_sq_to_box(self.seed, &self.index.cell_box(key)) > kth {
                return;
            }
        }
        self.cost.probes += 1;
        for (user, p) in entries {
            if Some(*user) != self.exclude {
                self.top.offer(*user, scale.dist_sq(self.seed, p), *p);
            }
        }
    }
}

/// What one nearest-users search cost, in the two units that matter: hash
/// look-ups into `cells` (hits and misses), and occupied cells whose
/// entries were scanned (what `index.probes` counts).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SearchCost {
    lookups: u64,
    probes: u64,
}

/// The `k` best distinct users seen so far, each with its best
/// observation, ascending by `(distance², user id)` — the total order the
/// answer is reported in, so selection and final ordering are one thing.
///
/// Distances compare with [`f64::total_cmp`]: a NaN distance (a NaN
/// coordinate reached the index through the public API) sorts after every
/// real one instead of panicking the server.
///
/// Exactness: an offer is refused only when its key is strictly greater
/// than the k-th key, and an entry is evicted only by a strictly smaller
/// key. Keys of the retained set therefore only decrease, so a refused or
/// evicted user can return only through a strictly nearer observation —
/// never one this structure has already seen — and what remains after
/// every observation within the k-th distance has been offered is the
/// k smallest per-user minima, in order.
struct TopK {
    k: usize,
    best: Vec<(f64, UserId, StPoint)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            best: Vec::new(),
        }
    }

    /// The k-th best distance², once k distinct users are held — the
    /// bound every pruning test compares against, strictly (`> kth`), so
    /// an observation exactly at the k-th distance is always offered.
    fn kth(&self) -> Option<f64> {
        if self.best.len() == self.k {
            self.best.last().map(|e| e.0)
        } else {
            None
        }
    }

    fn offer(&mut self, user: UserId, d: f64, p: StPoint) {
        let precedes = |e: &(f64, UserId, StPoint)| e.0.total_cmp(&d).then(e.1.cmp(&user)).is_lt();
        if self.best.len() == self.k && self.best.last().is_some_and(precedes) {
            return;
        }
        // The slot the new entry may overwrite: the user's own worse
        // entry, a fresh one, or the k-th (evicted). At most k entries,
        // so a scan finds the user faster than a hash would.
        let slot = match self.best.iter().position(|e| e.1 == user) {
            Some(i) => match d.total_cmp(&self.best[i].0) {
                Ordering::Greater => return,
                Ordering::Equal => {
                    // Exact tie: keep the canonical smallest-(t, x, y)
                    // representative regardless of cell visit order.
                    if crate::spatial::obs_cmp(&p, &self.best[i].2).is_lt() {
                        self.best[i].2 = p;
                    }
                    return;
                }
                Ordering::Less => i,
            },
            None => {
                if self.best.len() < self.k {
                    self.best.push((d, user, p));
                }
                self.best.len() - 1
            }
        };
        let at = self.best[..slot].partition_point(precedes);
        self.best[at..=slot].rotate_right(1);
        self.best[at] = (d, user, p);
    }

    fn into_answer(self) -> Vec<(UserId, StPoint)> {
        self.best.into_iter().map(|(_, u, p)| (u, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteIndex, SpatialIndex};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn small_config() -> GridIndexConfig {
        GridIndexConfig {
            cell_size: 10.0,
            cell_duration: 10,
            scale: SpaceTimeScale::new(1.0),
        }
    }

    fn sample_index() -> GridIndex {
        let mut store = TrajectoryStore::new();
        // Users at increasing distance from the origin.
        store.record(UserId(1), sp(1.0, 0.0, 0));
        store.record(UserId(2), sp(5.0, 0.0, 0));
        store.record(UserId(3), sp(0.0, 12.0, 0));
        store.record(UserId(4), sp(0.0, 0.0, 30));
        store.record(UserId(5), sp(100.0, 100.0, 500));
        // User 1 also has a far point (must not shadow its near one).
        store.record(UserId(1), sp(300.0, 300.0, 600));
        GridIndex::build(&store, small_config())
    }

    #[test]
    fn build_counts_points() {
        let idx = sample_index();
        assert_eq!(idx.len(), 6);
        assert!(!idx.is_empty());
    }

    #[test]
    fn users_crossing_box() {
        let idx = sample_index();
        let b = StBox::new(
            Rect::from_bounds(-1.0, -1.0, 6.0, 1.0),
            TimeInterval::new(TimeSec(0), TimeSec(40)),
        );
        let users: Vec<UserId> = idx.users_crossing(&b).into_iter().collect();
        assert_eq!(users, vec![UserId(1), UserId(2), UserId(4)]);
    }

    #[test]
    fn count_users_early_exit() {
        let idx = sample_index();
        let b = StBox::new(
            Rect::from_bounds(-200.0, -200.0, 400.0, 400.0),
            TimeInterval::new(TimeSec(0), TimeSec(1000)),
        );
        assert_eq!(idx.count_users_crossing(&b, 2), 2);
        assert_eq!(idx.count_users_crossing(&b, 100), 5);
    }

    #[test]
    fn k_nearest_orders_by_distance() {
        let idx = sample_index();
        let got = idx.k_nearest_users(&sp(0.0, 0.0, 0), 3, None);
        let ids: Vec<u64> = got.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Each user contributes its nearest point.
        assert_eq!(got[0].1, sp(1.0, 0.0, 0));
    }

    #[test]
    fn k_nearest_excludes_requester() {
        let idx = sample_index();
        let got = idx.k_nearest_users(&sp(0.0, 0.0, 0), 3, Some(UserId(1)));
        let ids: Vec<u64> = got.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn k_nearest_handles_scarcity() {
        let idx = sample_index();
        let got = idx.k_nearest_users(&sp(0.0, 0.0, 0), 50, None);
        assert_eq!(got.len(), 5, "only five distinct users exist");
        let empty = GridIndex::new(small_config());
        assert!(empty.k_nearest_users(&sp(0.0, 0.0, 0), 3, None).is_empty());
        assert!(idx.k_nearest_users(&sp(0.0, 0.0, 0), 0, None).is_empty());
    }

    #[test]
    fn k_nearest_uses_per_user_best_point() {
        let idx = sample_index();
        // User 1's nearest point to (300,300,600) is its far point.
        let got = idx.k_nearest_users(&sp(300.0, 300.0, 600), 1, None);
        assert_eq!(got[0].0, UserId(1));
        assert_eq!(got[0].1, sp(300.0, 300.0, 600));
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let mut idx = GridIndex::new(small_config());
        idx.insert(UserId(1), sp(-5.0, -5.0, -5));
        idx.insert(UserId(2), sp(-15.0, -15.0, -15));
        let b = StBox::new(
            Rect::from_bounds(-20.0, -20.0, 0.0, 0.0),
            TimeInterval::new(TimeSec(-20), TimeSec(0)),
        );
        assert_eq!(idx.users_crossing(&b).len(), 2);
        let got = idx.k_nearest_users(&sp(-6.0, -6.0, -6), 2, None);
        assert_eq!(got[0].0, UserId(1));
        assert_eq!(got[1].0, UserId(2));
    }

    /// Grid and brute over the same insertions, in the given order.
    fn both(points: &[(u64, StPoint)]) -> (GridIndex, BruteIndex) {
        let mut grid = GridIndex::new(small_config());
        let mut brute = BruteIndex::new(small_config().scale);
        for (u, p) in points {
            grid.insert(UserId(*u), *p);
            brute.insert(UserId(*u), *p);
        }
        (grid, brute)
    }

    fn ids(answer: &[(UserId, StPoint)]) -> Vec<u64> {
        answer.iter().map(|(u, _)| u.raw()).collect()
    }

    #[test]
    fn top_k_keeps_the_total_order_under_ties_evictions_and_returns() {
        let p = |x: f64| sp(x, 0.0, 0);
        let mut top = TopK::new(2);
        top.offer(UserId(5), 1.0, p(1.0));
        assert_eq!(top.kth(), None, "one of two: nothing may be pruned yet");
        top.offer(UserId(9), 4.0, p(2.0));
        assert_eq!(top.kth(), Some(4.0));
        // Exactly the k-th distance, larger id: refused. Smaller id,
        // arriving after the vector is full: takes the k-th place.
        top.offer(UserId(11), 4.0, p(-2.0));
        top.offer(UserId(3), 4.0, p(-2.0));
        assert_eq!(top.kth(), Some(4.0));
        // The evicted user returns through a strictly nearer point, and
        // evicts in turn; its stale distance may not.
        top.offer(UserId(9), 4.0, p(2.0));
        top.offer(UserId(9), 0.25, p(0.5));
        // Improve in place, to the front; a worse point changes nothing.
        top.offer(UserId(5), 0.0, p(0.0));
        top.offer(UserId(5), 9.0, p(3.0));
        // Equidistant observations of one user: smallest (t, x, y) wins,
        // whichever arrives first.
        top.offer(UserId(9), 0.25, p(-0.5));
        assert_eq!(
            top.into_answer(),
            vec![(UserId(5), p(0.0)), (UserId(9), p(-0.5))]
        );
    }

    #[test]
    fn a_tie_at_the_kth_distance_is_never_pruned() {
        // Each case puts user 9 at some distance and user 3 at exactly the
        // same distance where only a bound that equals the k-th distance
        // guards it: across a cell border, across a slab border, and
        // both. Smaller id wins the tie — if the bound is strict.
        let seed = sp(5.0, 5.0, 9);
        for (case, near, far) in [
            ("cell border", sp(0.0, 5.0, 9), sp(10.0, 5.0, 9)),
            ("slab border", sp(5.0, 6.0, 9), sp(5.0, 5.0, 10)),
            ("ring and slab", sp(6.0, 10.0, 9), sp(10.0, 5.0, 10)),
        ] {
            let (grid, brute) = both(&[(9, near), (3, far)]);
            let got = grid.k_nearest_users(&seed, 1, None);
            assert_eq!(got, vec![(UserId(3), far)], "{case}");
            assert_eq!(got, brute.k_nearest_users(&seed, 1, None), "{case}");
        }
    }

    #[test]
    fn arrival_order_inside_a_cell_does_not_change_the_answer() {
        // One cell, so entries are offered in insertion order: the k-th
        // place is taken by a tie with a smaller id after the vector is
        // full, and the evicted user comes back through a nearer point.
        let seed = sp(5.0, 5.0, 0);
        let (grid, brute) = both(&[
            (5, sp(5.0, 6.0, 0)),
            (9, sp(5.0, 7.0, 0)),
            (3, sp(5.0, 3.0, 0)),
            (9, sp(5.0, 5.5, 0)),
        ]);
        for k in 1..=4 {
            let got = grid.k_nearest_users(&seed, k, None);
            assert_eq!(got, brute.k_nearest_users(&seed, k, None), "k={k}");
        }
        assert_eq!(ids(&grid.k_nearest_users(&seed, 2, None)), vec![9, 5]);
        assert_eq!(ids(&grid.k_nearest_users(&seed, 3, None)), vec![9, 5, 3]);
    }

    #[test]
    fn a_nan_observation_sorts_last_without_panicking() {
        // `location_update` is a public API: a NaN coordinate can reach
        // the index even though the wire rejects it.
        let seed = sp(5.0, 5.0, 0);
        let nan = sp(f64::NAN, 5.0, 0);
        let (grid, brute) = both(&[
            (1, nan),
            (2, sp(5.0, 6.0, 0)),
            (3, sp(90.0, 90.0, 0)),
            (4, nan),
            (4, sp(50.0, 50.0, 1)), // a real point beats the user's NaN one
        ]);
        for k in 1..=5 {
            let got = grid.k_nearest_users(&seed, k, None);
            assert_eq!(ids(&got), [2, 4, 3, 1][..k.min(4)], "k={k}");
            let want = brute.k_nearest_users(&seed, k, None);
            // NaN != NaN, so compare the representative points by bits.
            let bits = |a: &[(UserId, StPoint)]| -> Vec<(u64, u64, u64, i64)> {
                a.iter()
                    .map(|(u, p)| (u.raw(), p.pos.x.to_bits(), p.pos.y.to_bits(), p.t.0))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "k={k}");
        }
        // A NaN seed makes every distance NaN: ties by user id, no panic.
        assert_eq!(ids(&grid.k_nearest_users(&nan, 2, None)), vec![1, 2]);
        assert_eq!(ids(&brute.k_nearest_users(&nan, 2, None)), vec![1, 2]);
    }

    #[test]
    fn a_slab_costs_at_most_a_constant_times_its_occupied_cells() {
        // A dense 40 × 40-cell slab (two users per cell) and one outlier
        // cell 10,000 cells away. Stated bound per search, in hash
        // look-ups and in cells scanned: 3 × the slab's occupied cells
        // (+ 16 for slabs of a few cells) — never the 10,000² bounding box.
        let mut idx = GridIndex::new(small_config());
        let mut user = 0u64;
        for cx in 0..40 {
            for cy in 0..40 {
                for _ in 0..2 {
                    idx.insert(
                        UserId(user),
                        sp(cx as f64 * 10.0 + 5.0, cy as f64 * 10.0 + 5.0, 0),
                    );
                    user += 1;
                }
            }
        }
        idx.insert(UserId(user), sp(100_005.0, 100_005.0, 0));
        let occupied = 40 * 40 + 1;
        let bound = 3 * occupied + 16;

        // A crowd in reach: the neighbourhood, not the slab.
        let (got, cost) = idx.search(&sp(205.0, 205.0, 0), 5, None);
        assert_eq!(got.len(), 5);
        assert!(cost.lookups <= 25 && cost.probes <= 9, "{cost:?}");

        // Scarce: k never fills, every cell must be read — once.
        let (got, cost) = idx.search(&sp(205.0, 205.0, 0), 5_000, None);
        assert_eq!(got.len(), 3201);
        assert_eq!(cost.probes, occupied);
        assert!(cost.lookups <= bound, "{cost:?}");

        // From the outlier: its crowd is 10,000 cells away.
        let (got, cost) = idx.search(&sp(100_005.0, 100_005.0, 0), 5, None);
        assert_eq!(got.len(), 5);
        assert!(cost.lookups <= bound && cost.probes <= occupied, "{cost:?}");

        // From empty space beside the slab, no crowd in the seed's cell.
        let (got, cost) = idx.search(&sp(-3_000.0, 205.0, 0), 5, None);
        assert_eq!(got.len(), 5);
        assert!(cost.lookups <= bound && cost.probes <= occupied, "{cost:?}");
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn zero_cell_size_rejected() {
        let _ = GridIndex::new(GridIndexConfig {
            cell_size: 0.0,
            cell_duration: 10,
            scale: SpaceTimeScale::new(1.0),
        });
    }
}
