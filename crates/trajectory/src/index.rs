//! A uniform space–time grid index over the trajectory store.
//!
//! The paper notes that the expensive step of Algorithm 1 — finding "the
//! smallest 3D space (2D area + time) containing ⟨x,y,t⟩ and crossed by k
//! trajectories" — costs O(k·n) by brute force, and that "optimizations
//! may be inspired by the work on indexing moving objects". This module is
//! that optimization: location updates are bucketed into uniform
//! `cell_size × cell_size × cell_duration` cells, and both queries cost
//! what is near them, not what is in the database.
//!
//! * The window walk ([`GridIndex::scan_in`]) looks up the cells its box
//!   overlaps.
//! * The k-nearest-users query ([`GridIndex::k_nearest_users`]) expands
//!   over occupied time slabs outward from the seed's, and inside each
//!   slab looks cells up in Chebyshev rings around the seed's own cell,
//!   keeping the k best distinct users in one small vector ordered by
//!   `(distance², user id)`. It stops once a ring's lower bound alone
//!   exceeds the k-th distance. Every bound is strict and an entry is only
//!   ever displaced by a strictly smaller key, which is why the answer is
//!   exactly the exhaustive scan's (`TopK` carries the argument; DESIGN.md
//!   §11.2).
//!
//! **Two tiers per time slab.** Location updates arrive roughly in time
//! order, so a slab stops changing soon after the clock leaves it, and
//! each slab keeps its observations in two tiers:
//!
//! * the *open* tier, a hash map from `(x, y)` cell to that cell's
//!   observations, which every insert lands in;
//! * the *sealed* tier, one exact-capacity array of observations grouped
//!   by cell, behind a sorted cell directory (`cols`) and its offsets
//!   (`starts`): 32 B per observation plus 20 B per cell, where the open
//!   tier pays vector slack and a hash entry per cell on top. The
//!   directory is sorted by `(x, y)`, so a column's cells are contiguous:
//!   a ring side or a window's column costs one binary search and a scan.
//!
//! A slab is sealed (its open cells concatenated into the array) once an
//! observation [`LAG`] slabs newer arrives. An observation that arrives
//! for a sealed slab waits in that slab's open tier until it holds
//! 1/[`MERGE_RATIO`] of the sealed entries; then both are merged into a
//! new array. A merge of `s` sealed and `o ≥ s / MERGE_RATIO` late
//! entries copies `s + o ≤ (MERGE_RATIO + 1)·o`, so in any insertion
//! order no observation costs more than `MERGE_RATIO + 1` copies,
//! amortized. Lookups consult both tiers; a cell held by both is one
//! probe.
//!
//! The open tier keeps std's SipHash: its keys are computed from
//! client-supplied coordinates, and a cheap multiplicative hash would let
//! a client of the TCP gateway aim its updates at one bucket chain. The
//! sealed tier hashes nothing, so has no chain to aim at.

use crate::{TrajectoryStore, UserId};
use hka_geo::{Rect, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::ControlFlow::{self, Continue};

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

/// A slab is sealed once an observation this many slabs newer arrives.
const LAG: i64 = 2;

/// A sealed slab merges its late observations in once they number at
/// least 1/`MERGE_RATIO` of its sealed entries.
const MERGE_RATIO: usize = 8;

/// A grid cell key `(x, y, t)` in cell units.
type CellKey = (i64, i64, i64);

/// A cell's `(x, y)` key within its time slab.
type Xy = (i64, i64);

/// One indexed observation.
type Entry = (UserId, StPoint);

/// A spatio-temporal grid index mapping cells to the user observations
/// they contain.
#[derive(Debug, Clone)]
pub struct GridIndex {
    config: GridIndexConfig,
    /// Time slab → its observations. Ordered, so the nearest-neighbour
    /// search can expand outward in time over occupied slabs only.
    slabs: BTreeMap<i64, Slab>,
    /// The newest slab an observation has landed in.
    newest: Option<i64>,
    points: usize,
}

impl GridIndex {
    /// Creates an empty index.
    pub fn new(config: GridIndexConfig) -> Self {
        assert!(config.cell_size > 0.0, "cell_size must be positive");
        assert!(config.cell_duration > 0, "cell_duration must be positive");
        GridIndex {
            config,
            slabs: BTreeMap::new(),
            newest: None,
            points: 0,
        }
    }

    /// Builds an index over every point currently in the store.
    pub fn build(store: &TrajectoryStore, config: GridIndexConfig) -> Self {
        Self::build_all([store], config)
    }

    /// Builds an index over every point of the user-disjoint `stores` (a
    /// sharded server's partitions): every slab but the newest [`LAG`]
    /// sealed, with an empty open tier. Those are laid out sealed directly
    /// — one pass counts each cell's points, a second places them — so a
    /// bulk build never holds the per-cell vectors it would seal.
    pub fn build_all<'a>(
        stores: impl IntoIterator<Item = &'a TrajectoryStore>,
        config: GridIndexConfig,
    ) -> Self {
        let stores: Vec<&TrajectoryStore> = stores.into_iter().collect();
        let points = || {
            stores
                .iter()
                .copied()
                .flat_map(TrajectoryStore::iter)
                .flat_map(|(user, phl)| phl.points().iter().map(move |p| (user, p)))
        };
        let mut idx = GridIndex::new(config);
        // Number the occupied cells, count each one's points and note
        // every point's cell. Consecutive points of a PHL mostly share a
        // cell, so the hash map is asked only when the cell changes.
        let mut cells: Vec<(CellKey, u32)> = Vec::new();
        let mut cell_of_point: Vec<u32> = Vec::new();
        let mut ids: HashMap<CellKey, u32> = HashMap::new();
        let mut last = None;
        for (_, p) in points() {
            let key = idx.cell_of(p);
            let id = match last {
                Some((k, id)) if k == key => id,
                _ => *ids.entry(key).or_insert_with(|| {
                    cells.push((key, 0));
                    u32::try_from(cells.len() - 1).expect("fewer than 2^32 cells")
                }),
            };
            last = Some((key, id));
            cells[id as usize].1 += 1;
            cell_of_point.push(id);
        }
        drop(ids);
        let Some(newest) = cells.iter().map(|((_, _, t), _)| *t).max() else {
            return idx;
        };
        idx.newest = Some(newest);
        let last_sealed = newest.saturating_sub(LAG);
        // The sealed slabs' directories, cell by cell in key order, and
        // per cell (its slab in `sealed`, the slot its next point goes to).
        let mut order: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].0 .2 <= last_sealed)
            .collect();
        order.sort_unstable_by_key(|&i| {
            let (x, y, t) = cells[i].0;
            (t, x, y)
        });
        let mut next = vec![(0u32, 0u32); cells.len()];
        let mut sealed: Vec<(i64, Slab)> = Vec::new();
        for run in order.chunk_by(|&a, &b| cells[a].0 .2 == cells[b].0 .2) {
            let mut slab = Slab {
                cols: Vec::with_capacity(run.len()),
                starts: Vec::with_capacity(run.len() + 1),
                cells: run.len(),
                ..Slab::default()
            };
            slab.starts.push(0);
            let mut at = 0u32;
            for &i in run {
                let ((x, y, _), n) = cells[i];
                next[i] = (sealed.len() as u32, at);
                at = at.checked_add(n).expect("a slab holds < 2^32 observations");
                slab.cols.push((x, y));
                slab.starts.push(at);
            }
            let blank = (UserId(0), StPoint::xyt(0.0, 0.0, TimeSec(0)));
            slab.entries = vec![blank; at as usize];
            sealed.push((cells[run[0]].0 .2, slab));
        }
        for ((user, p), &id) in points().zip(&cell_of_point) {
            let ((cx, cy, ct), _) = cells[id as usize];
            if ct > last_sealed {
                idx.slabs.entry(ct).or_default().push((cx, cy), (user, *p));
            } else {
                let (s, at) = &mut next[id as usize];
                sealed[*s as usize].1.entries[*at as usize] = (user, *p);
                *at += 1;
            }
        }
        idx.points = cell_of_point.len();
        idx.slabs.extend(sealed);
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

    /// Heap bytes the index holds, from its collections' capacities (one
    /// control byte per hash bucket; the allocator's own overhead is not
    /// counted).
    pub fn heap_bytes(&self) -> usize {
        self.slabs
            .values()
            .map(|s| size_of::<(i64, Slab)>() + s.heap_bytes())
            .sum()
    }

    /// Inserts one observation (called by the TS on every location update,
    /// keeping the index incremental).
    pub fn insert(&mut self, user: UserId, p: StPoint) {
        let (cx, cy, ct) = self.cell_of(&p);
        let newest = self.newest.map_or(ct, |n| n.max(ct));
        if self.newest != Some(newest) {
            // The slabs this point leaves LAG behind are complete.
            let from = self.newest.map_or(i64::MIN, |n| n.saturating_sub(LAG - 1));
            self.newest = Some(newest);
            self.seal_range(from, newest.saturating_sub(LAG));
        }
        let late = ct <= newest.saturating_sub(LAG);
        // Most points land in the newest slab: no key search for those.
        let slab = match self.slabs.last_entry() {
            Some(top) if *top.key() == ct => top.into_mut(),
            _ => self.slabs.entry(ct).or_default(),
        };
        slab.push((cx, cy), (user, p));
        if late && slab.open_len * MERGE_RATIO >= slab.entries.len() {
            slab.seal();
        }
        self.points += 1;
    }

    /// Seals every slab in `from..=to`.
    fn seal_range(&mut self, from: i64, to: i64) {
        if from <= to {
            self.slabs.range_mut(from..=to).for_each(|(_, s)| s.seal());
        }
    }

    fn cell_of(&self, p: &StPoint) -> CellKey {
        (
            (p.pos.x / self.config.cell_size).floor() as i64,
            (p.pos.y / self.config.cell_size).floor() as i64,
            p.t.0.div_euclid(self.config.cell_duration),
        )
    }

    /// The space–time box covered by a cell. `cell_of`'s float-to-int
    /// cast saturates, so the outermost keys also hold every coordinate
    /// beyond them and their boxes reach to infinity; time bounds are
    /// computed wide and clamped to the representable range.
    fn cell_box(&self, key: CellKey) -> StBox {
        let cs = self.config.cell_size;
        let cd = i128::from(self.config.cell_duration);
        let lo = |c: i64| {
            if c == i64::MIN {
                f64::NEG_INFINITY
            } else {
                c as f64 * cs
            }
        };
        let hi = |c: i64| {
            if c == i64::MAX {
                f64::INFINITY
            } else {
                (c + 1) as f64 * cs
            }
        };
        let clamp = |t: i128| TimeSec(t.clamp(i64::MIN.into(), i64::MAX.into()) as i64);
        let start = i128::from(key.2) * cd;
        StBox::new(
            Rect::from_bounds(lo(key.0), lo(key.1), hi(key.0), hi(key.1)),
            TimeInterval::new(clamp(start), clamp(start + cd - 1)),
        )
    }

    /// Calls `f` with every observation inside the closed box `b` until
    /// it breaks — the grid's one window walk, behind
    /// [`SpatialIndex::scan_in`](crate::SpatialIndex::scan_in) and every
    /// window query derived from it.
    pub fn scan_in(&self, b: &StBox, f: impl FnMut(UserId, &StPoint) -> ControlFlow<()>) {
        let _span = hka_obs::span!("index.window");
        let probes = self.scan_box(b, f);
        hka_obs::counter!("index.probes").add(probes);
    }

    /// Calls `f` with every observation inside `b`, occupied slab by
    /// occupied slab, until it breaks. Returns the cells scanned (what
    /// `index.probes` counts).
    fn scan_box(&self, b: &StBox, mut f: impl FnMut(UserId, &StPoint) -> ControlFlow<()>) -> u64 {
        let lo = self.cell_of(&StPoint::new(b.rect.min(), b.span.start()));
        let hi = self.cell_of(&StPoint::new(b.rect.max(), b.span.end()));
        let mut probes = 0;
        for slab in self.slabs.range(lo.2..=hi.2).map(|(_, s)| s) {
            let flow = slab.each_in((lo.0, hi.0), (lo.1, hi.1), |tiers| {
                probes += 1;
                for tier in tiers {
                    for (user, p) in tier {
                        if b.contains(p) {
                            f(*user, p)?;
                        }
                    }
                }
                Continue(())
            });
            if flow.is_break() {
                break;
            }
        }
        probes
    }

    /// For each of the `k` users (other than `exclude`) whose PHL comes
    /// closest to the seed point, the closest observation — the indexed
    /// version of Algorithm 1's "smallest 3D space … crossed by k
    /// trajectories", realized exactly as the paper's brute force does
    /// ("the nearest neighbor in the PHL of each user, … then taking the
    /// closest k points").
    ///
    /// Search order: occupied time slabs expand outward from the seed's
    /// slab, and within a slab cells are visited in Chebyshev rings around
    /// the seed's own cell. Both expansions stop once their lower bound
    /// alone exceeds the current k-th best per-user distance, so the cost
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
        let _span = hka_obs::span!("index.query");
        let (out, cost) = self.search(seed, k, exclude);
        hka_obs::counter!("index.probes").add(cost.probes);
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
        if k == 0 {
            return (Vec::new(), search.cost);
        }
        let home = search.home.2;
        let cd = i128::from(self.config.cell_duration);
        let mps = self.config.scale.meters_per_second;
        // Two cursors walking away from the seed's slab; the nearer slab
        // goes first, the earlier one on a tie.
        let mut below = self.slabs.range(..=home).rev().peekable();
        let mut above = self.slabs.range((Excluded(home), Unbounded)).peekable();
        let mut bounded_ring = None;
        loop {
            let take_below = match (below.peek(), above.peek()) {
                (Some((&lo, _)), Some((&hi, _))) => home.abs_diff(lo) <= hi.abs_diff(home),
                (next, _) => next.is_some(),
            };
            let next = if take_below {
                below.next()
            } else {
                above.next()
            };
            let Some((&slab_t, slab)) = next else {
                break; // every occupied slab has been visited
            };
            // Temporal lower bound, once per ring of slabs (they are at
            // least (ring − 1) whole slabs away in time).
            let ring = slab_t.abs_diff(home);
            if bounded_ring != Some(ring) {
                bounded_ring = Some(ring);
                if let Some(kth) = search.top.kth().filter(|_| mps > 0.0) {
                    let lb = mps * (i128::from(ring.saturating_sub(1)) * cd) as f64;
                    if lb * lb > kth {
                        break;
                    }
                }
            }
            search.slab(slab_t, slab);
        }
        (search.top.into_answer(), search.cost)
    }
}

/// One time slab's observations, in two tiers (see the module docs).
#[derive(Debug, Clone, Default)]
struct Slab {
    /// Sealed tier: its occupied cells, ascending (column by column).
    cols: Vec<Xy>,
    /// `entries[starts[i]..starts[i + 1]]` are the observations of
    /// `cols[i]`.
    starts: Vec<u32>,
    /// Sealed tier: its observations, grouped by cell, at exact capacity.
    entries: Vec<Entry>,
    /// Open tier: where observations land until the slab is sealed or
    /// merged.
    open: HashMap<Xy, Vec<Entry>>,
    /// Observations in `open`.
    open_len: usize,
    /// Distinct occupied cells across both tiers.
    cells: usize,
}

impl Slab {
    fn push(&mut self, xy: Xy, e: Entry) {
        let sealed = self.find(xy).is_some();
        let bucket = self.open.entry(xy).or_default();
        if bucket.is_empty() && !sealed {
            self.cells += 1;
        }
        bucket.push(e);
        self.open_len += 1;
    }

    /// Merges the open tier into a new exact-capacity sealed array, each
    /// cell's sealed observations before its late ones: O(observations in
    /// the slab) plus a sort of the open tier's cell keys.
    fn seal(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let mut late: Vec<(Xy, Vec<Entry>)> = std::mem::take(&mut self.open).into_iter().collect();
        late.sort_unstable_by_key(|(xy, _)| *xy);
        let mut late = late.into_iter().peekable();
        let mut cols = Vec::with_capacity(self.cells);
        let mut starts = Vec::with_capacity(self.cells + 1);
        let mut entries = Vec::with_capacity(self.entries.len() + self.open_len);
        starts.push(0);
        let mut old = 0;
        loop {
            let xy = match (self.cols.get(old), late.peek()) {
                (Some(&a), Some(&(b, _))) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&(b, _))) => b,
                (None, None) => break,
            };
            if self.cols.get(old) == Some(&xy) {
                entries.extend_from_slice(self.sealed_at(old));
                old += 1;
            }
            if let Some((_, v)) = late.next_if(|(c, _)| *c == xy) {
                entries.extend(v);
            }
            cols.push(xy);
            starts.push(u32::try_from(entries.len()).expect("a slab holds < 2^32 observations"));
        }
        debug_assert_eq!(cols.len(), self.cells);
        self.cols = cols;
        self.starts = starts;
        self.entries = entries;
        self.open_len = 0;
    }

    /// The index in `cols` of cell `xy`, if the sealed tier holds it.
    fn find(&self, xy: Xy) -> Option<usize> {
        self.cols.binary_search(&xy).ok()
    }

    /// The sealed cells of column `x` from row `y` up, ascending, each
    /// with its index in `cols`: one binary search, then a scan.
    fn column_from(&self, x: i64, y: i64) -> impl Iterator<Item = (usize, i64)> + '_ {
        let at = self.cols.partition_point(|&c| c < (x, y));
        self.cols[at..]
            .iter()
            .take_while(move |c| c.0 == x)
            .enumerate()
            .map(move |(i, c)| (at + i, c.1))
    }

    /// The cells only the open tier holds that `keep` accepts, ascending:
    /// hash order differs between processes, and the visit order decides
    /// what a bound prunes or a limit cuts off, so what `index.probes`
    /// counts.
    fn open_only(&self, keep: impl Fn(Xy) -> bool) -> Vec<Xy> {
        let mut out: Vec<Xy> = self
            .open
            .keys()
            .copied()
            .filter(|&xy| keep(xy) && self.find(xy).is_none())
            .collect();
        out.sort_unstable();
        out
    }

    /// The sealed observations of `cols[i]`.
    fn sealed_at(&self, i: usize) -> &[Entry] {
        &self.entries[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The open tier's observations of cell `xy`.
    fn open_at(&self, xy: Xy) -> &[Entry] {
        if self.open.is_empty() {
            return &[];
        }
        self.open.get(&xy).map_or(&[], Vec::as_slice)
    }

    /// Both tiers' observations of cell `xy`.
    fn get(&self, xy: Xy) -> [&[Entry]; 2] {
        let sealed = self.find(xy).map_or(&[][..], |i| self.sealed_at(i));
        [sealed, self.open_at(xy)]
    }

    /// Calls `f` once with both tiers of every occupied cell in
    /// `[xlo, xhi] × [ylo, yhi]`, until it breaks: the sealed cells, then
    /// the cells only the open tier holds, each in ascending order. The
    /// sealed tier is read by one search per column of the box or by one
    /// walk of its directory, the open tier by looking the box's cells up
    /// or by walking the tier — whichever is fewer.
    fn each_in(
        &self,
        (xlo, xhi): Xy,
        (ylo, yhi): Xy,
        mut f: impl FnMut([&[Entry]; 2]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let inside = |&(x, y): &Xy| (xlo..=xhi).contains(&x) && (ylo..=yhi).contains(&y);
        if u128::from(xhi.abs_diff(xlo)) < self.cols.len() as u128 {
            for x in xlo..=xhi {
                for (i, y) in self.column_from(x, ylo).take_while(|&(_, y)| y <= yhi) {
                    f([self.sealed_at(i), self.open_at((x, y))])?;
                }
            }
        } else {
            for (i, &xy) in self.cols.iter().enumerate() {
                if inside(&xy) {
                    f([self.sealed_at(i), self.open_at(xy)])?;
                }
            }
        }
        if self.open.is_empty() {
            return Continue(());
        }
        let area =
            (u128::from(xhi.abs_diff(xlo)) + 1).saturating_mul(u128::from(yhi.abs_diff(ylo)) + 1);
        if area <= self.open.len() as u128 {
            for x in xlo..=xhi {
                for y in ylo..=yhi {
                    if let Some(v) = self
                        .open
                        .get(&(x, y))
                        .filter(|_| self.find((x, y)).is_none())
                    {
                        f([&[], v])?;
                    }
                }
            }
        } else {
            for xy in self.open_only(|xy| inside(&xy)) {
                f([&[], self.open_at(xy)])?;
            }
        }
        Continue(())
    }

    fn heap_bytes(&self) -> usize {
        let open_cells = self.open.capacity() * (size_of::<(Xy, Vec<Entry>)>() + 1);
        let open_entries: usize = self.open.values().map(Vec::capacity).sum();
        self.cols.capacity() * size_of::<Xy>()
            + self.starts.capacity() * size_of::<u32>()
            + (self.entries.capacity() + open_entries) * size_of::<Entry>()
            + open_cells
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
    /// look-ups than the slab has occupied cells, the rest of the slab is
    /// finished by one pass over its cells instead, which bounds a slab at
    /// a small constant times its own size.
    fn slab(&mut self, slab_t: i64, slab: &Slab) {
        let config = &self.index.config;
        let (cs, cd) = (config.cell_size, i128::from(config.cell_duration));
        let (hx, hy) = (self.home.0, self.home.1);
        // How deep inside its own cell the seed sits: everything outside
        // the (2r − 1)-cell block around it is at least `inset + (r − 1)·cs`
        // away in space, and everything in this slab at least `gap` in time.
        let ox = self.seed.pos.x - hx as f64 * cs;
        let oy = self.seed.pos.y - hy as f64 * cs;
        let inset = ox.min(cs - ox).min(oy).min(cs - oy).max(0.0);
        let t = i128::from(self.seed.t.0);
        let start = i128::from(slab_t) * cd;
        let away = (start - t).max(t - (start + cd - 1)).max(0);
        let gap = config.scale.meters_per_second * away as f64;

        let budget = self.cost.lookups + slab.cells as u64;
        let mut r = 0i64;
        while self.cost.lookups <= budget {
            if let Some(kth) = self.top.kth().filter(|_| r > 0) {
                let reach = inset + (r - 1) as f64 * cs;
                if reach * reach + gap * gap > kth {
                    return;
                }
            }
            for dx in -r..=r {
                // A ring that crosses the edge of the key space ends there.
                let Some(cx) = hx.checked_add(dx) else {
                    continue;
                };
                if dx.abs() == r {
                    // A full side of the ring: one search up its column.
                    let mut sealed = slab.column_from(cx, hy.saturating_sub(r)).peekable();
                    for cy in (-r..=r).filter_map(|dy| hy.checked_add(dy)) {
                        let here = sealed.next_if(|&(_, y)| y == cy);
                        let here = here.map_or(&[][..], |(i, _)| slab.sealed_at(i));
                        self.cell((cx, cy, slab_t), [here, slab.open_at((cx, cy))]);
                    }
                } else {
                    // Between the sides, the ring's two ends.
                    for cy in [hy.checked_sub(r), hy.checked_add(r)].into_iter().flatten() {
                        self.cell((cx, cy, slab_t), slab.get((cx, cy)));
                    }
                }
            }
            r += 1;
        }
        // Not inside the rings already walked: the sealed cells in
        // directory order, then the cells only the open tier holds.
        let beyond = |(cx, cy): Xy| cx.abs_diff(hx).max(cy.abs_diff(hy)) >= r as u64;
        for (i, &xy) in slab.cols.iter().enumerate() {
            if beyond(xy) {
                self.cell((xy.0, xy.1, slab_t), [slab.sealed_at(i), slab.open_at(xy)]);
            }
        }
        if !slab.open.is_empty() {
            for xy in slab.open_only(beyond) {
                self.cell((xy.0, xy.1, slab_t), [&[], slab.open_at(xy)]);
            }
        }
    }

    /// Counts one cell look-up and, if the cell is occupied (in either
    /// tier) and its own lower bound does not already exceed the k-th
    /// distance, offers its observations to `top`.
    fn cell(&mut self, key: CellKey, tiers: [&[Entry]; 2]) {
        self.cost.lookups += 1;
        if tiers.iter().all(|t| t.is_empty()) {
            return;
        }
        let scale = &self.index.config.scale;
        if let Some(kth) = self.top.kth() {
            if scale.dist_sq_to_box(self.seed, &self.index.cell_box(key)) > kth {
                return;
            }
        }
        self.cost.probes += 1;
        for tier in tiers {
            for (user, p) in tier {
                if Some(*user) != self.exclude {
                    self.top.offer(*user, scale.dist_sq(self.seed, p), *p);
                }
            }
        }
    }
}

/// What one nearest-users search cost, in the two units that matter: cell
/// look-ups (hits and misses), and occupied cells whose entries were
/// scanned (what `index.probes` counts).
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
    use std::collections::BTreeSet;

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
    fn coordinates_at_the_ends_of_the_key_space_agree_with_brute() {
        // The wire admits any finite coordinate: 1e300 saturates its cell
        // key to i64::MAX, where ring and cell-box arithmetic used to
        // overflow (a panic in debug builds). Infinite seeds reach the
        // index through the public API.
        let far = 1e300;
        let mut points = Vec::new();
        for (u, (x, y)) in [
            (far, far),
            (-far, -far),
            (far, -far),
            (-far, 5.0),
            (5.0, 5.0),
            (15.0, -25.0),
            (far, 5.0),
        ]
        .into_iter()
        .enumerate()
        {
            for t in [0, 25, 60] {
                points.push((u as u64, sp(x, y, t)));
            }
        }
        let (grid, brute) = both(&points);
        let window = |x0: f64, x1: f64| {
            StBox::new(
                Rect::from_bounds(x0, x0, x1, x1),
                TimeInterval::new(TimeSec(0), TimeSec(60)),
            )
        };
        for x in [far, -far, f64::INFINITY, f64::NEG_INFINITY, 5.0] {
            for seed in [sp(x, x, 30), sp(x, -x, 0), sp(5.0, x, 60)] {
                for k in [1, 3, 7, 9] {
                    assert_eq!(
                        grid.k_nearest_users(&seed, k, None),
                        brute.k_nearest_users(&seed, k, None),
                        "seed={seed:?} k={k}"
                    );
                }
            }
        }
        // The outermost cell holds every coordinate beyond it, so its box
        // must reach to infinity: with a finite box, user 1 (nearer, one
        // slab later) would be pruned behind user 2's k-th distance.
        for sign in [1.0, -1.0] {
            let seed = sp(sign * 1e22, 0.0, 5);
            let (grid, brute) = both(&[
                (1, sp(sign * 5e21, 0.0, 15)),
                (2, sp(sign * 1.7e22, 0.0, 5)),
            ]);
            let want = brute.k_nearest_users(&seed, 1, None);
            assert_eq!(ids(&want), vec![1]);
            assert_eq!(grid.k_nearest_users(&seed, 1, None), want, "sign {sign}");
        }
        for b in [
            window(far, far),
            window(-far, -far),
            window(-far, far),
            window(0.0, far),
            window(f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert_eq!(grid.users_crossing(&b), brute.users_crossing(&b), "{b:?}");
            let sorted = |idx: &dyn SpatialIndex| {
                let mut v = idx.observations_in(&b);
                v.sort_by_key(|(u, p)| (*u, p.t, p.pos.x.to_bits(), p.pos.y.to_bits()));
                v
            };
            assert_eq!(sorted(&grid), sorted(&brute), "{b:?}");
            for limit in [1, 2, 9] {
                assert_eq!(
                    grid.count_users_crossing(&b, limit),
                    brute.count_users_crossing(&b, limit),
                    "{b:?} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn a_slab_costs_at_most_a_constant_times_its_occupied_cells() {
        // A dense 40 × 40-cell slab (two users per cell) and one outlier
        // cell 10,000 cells away, searched open and sealed. Stated bound
        // per search, in look-ups and in cells scanned: 3 × the slab's
        // occupied cells (+ 16 for slabs of a few cells) — never the
        // 10,000² bounding box. Sealing takes a second, one-cell slab,
        // which the scarce search must read too: + 16 more there.
        for sealed in [false, true] {
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
            if sealed {
                // Two slabs later, far off in space: slab 0 is sealed.
                idx.insert(UserId(user + 1), sp(-1e6, -1e6, 20));
                assert!(idx.slabs[&0].open.is_empty());
            }
            let users = 3201 + usize::from(sealed);
            let occupied = 40 * 40 + 1;
            let bound = 3 * occupied + 16;

            // A crowd in reach: the neighbourhood, not the slab.
            let (got, cost) = idx.search(&sp(205.0, 205.0, 0), 5, None);
            assert_eq!(got.len(), 5);
            assert!(cost.lookups <= 25 && cost.probes <= 9, "{cost:?}");

            // Scarce: k never fills, every cell must be read — once.
            let (got, cost) = idx.search(&sp(205.0, 205.0, 0), 5_000, None);
            assert_eq!(got.len(), users);
            assert_eq!(cost.probes, occupied + u64::from(sealed));
            assert!(cost.lookups <= bound + 16 * u64::from(sealed), "{cost:?}");

            // From the outlier: its crowd is 10,000 cells away.
            let (got, cost) = idx.search(&sp(100_005.0, 100_005.0, 0), 5, None);
            assert_eq!(got.len(), 5);
            assert!(cost.lookups <= bound && cost.probes <= occupied, "{cost:?}");

            // From empty space beside the slab, no crowd in the seed's cell.
            let (got, cost) = idx.search(&sp(-3_000.0, 205.0, 0), 5, None);
            assert_eq!(got.len(), 5);
            assert!(cost.lookups <= bound && cost.probes <= occupied, "{cost:?}");
        }
    }

    /// `n` observations in slab `slab`, spread over a 4 × 4-cell block.
    fn slab_points(slab: i64, n: u64) -> impl Iterator<Item = (UserId, StPoint)> {
        (0..n).map(move |i| {
            let (x, y) = (
                (i % 4) as f64 * 10.0 + 1.0,
                ((i / 4) % 4) as f64 * 10.0 + 1.0,
            );
            (UserId(i), sp(x, y, slab * 10 + (i % 10) as i64))
        })
    }

    #[test]
    fn the_newest_two_slabs_stay_open_and_every_older_one_is_sealed() {
        let mut store = TrajectoryStore::new();
        let mut incremental = GridIndex::new(small_config());
        for slab in 0..6 {
            for (u, p) in slab_points(slab, 40) {
                incremental.insert(u, p);
                store.record(u, p);
            }
        }
        let built = GridIndex::build(&store, small_config());
        for idx in [&incremental, &built] {
            for (t, slab) in &idx.slabs {
                let (sealed, open) = (slab.entries.len(), slab.open_len);
                if *t <= 3 {
                    assert_eq!((sealed, open), (40, 0), "slab {t}");
                    assert!(slab.open.is_empty() && slab.open.capacity() == 0);
                } else {
                    assert_eq!((sealed, open), (0, 40), "slab {t}");
                }
                assert_eq!(slab.cells, 16);
            }
        }
        // The build lays the sealed slabs out directly, exactly as sealing
        // the incrementally filled ones did.
        for (t, slab) in built.slabs.range(..=3) {
            let grown = &incremental.slabs[t];
            assert_eq!((&slab.cols, &slab.starts), (&grown.cols, &grown.starts));
            assert_eq!(slab.entries.capacity(), 40, "slab {t}");
        }
    }

    #[test]
    fn late_points_merge_exactly_when_they_reach_an_eighth_of_the_slab() {
        let mut idx = GridIndex::new(small_config());
        for (u, p) in slab_points(0, 64) {
            idx.insert(u, p);
        }
        idx.insert(UserId(999), sp(1.0, 1.0, 20)); // seals slab 0
        assert_eq!(idx.slabs[&0].entries.len(), 64);
        // Seven late points wait in the open tier; the eighth (64 / 8)
        // merges all of them.
        for (i, (u, p)) in slab_points(0, 8).enumerate() {
            idx.insert(u, p);
            let slab = &idx.slabs[&0];
            let want = if i < 7 { (64, i + 1) } else { (72, 0) };
            assert_eq!((slab.entries.len(), slab.open_len), want, "late point {i}");
            assert_eq!(slab.cells, 16);
        }
        // Two late points: one for a cell only the open tier holds, one
        // for a cell both tiers now hold. Each cell is one probe.
        idx.insert(UserId(70), sp(91.0, 1.0, 3));
        idx.insert(UserId(80), sp(1.0, 1.0, 3));
        assert_eq!((idx.slabs[&0].open_len, idx.slabs[&0].cells), (2, 17));
        let row = StBox::new(
            Rect::from_bounds(0.0, 0.0, 95.0, 5.0),
            TimeInterval::new(TimeSec(0), TimeSec(9)),
        );
        let mut users = BTreeSet::new();
        let probes = idx.scan_box(&row, |u, _| {
            users.insert(u);
            Continue(())
        });
        assert_eq!(
            probes,
            4 + 1,
            "the row's four sealed cells, and the open one"
        );
        assert!(users.contains(&UserId(70)) && users.contains(&UserId(80)));
        // A box of as many cells as the open tier holds looks its cells
        // up instead of walking the tier; one with more columns than the
        // sealed directory has cells walks that too.
        let pair = StBox::new(
            Rect::from_bounds(0.0, 0.0, 15.0, 5.0),
            TimeInterval::new(TimeSec(0), TimeSec(9)),
        );
        assert_eq!(idx.scan_box(&pair, |_, _| Continue(())), 2);
        let all = StBox::new(
            Rect::from_bounds(-100.0, 0.0, 95.0, 35.0),
            TimeInterval::new(TimeSec(0), TimeSec(9)),
        );
        assert_eq!(idx.scan_box(&all, |_, _| Continue(())), 17);
        let (got, cost) = idx.search(&sp(1.0, 1.0, 3), 100, None);
        assert_eq!(got.len(), 67);
        assert_eq!(
            cost.probes,
            17 + 1,
            "slab 0's cells once each, and slab 2's"
        );
    }

    #[test]
    fn a_window_visits_open_cells_in_cell_order_however_it_reads_the_tier() {
        // Twenty open cells along one row, inserted out of order. A window
        // no larger than the tier looks its cells up; a larger one walks
        // the tier. Both must visit in cell order, or where
        // `count_users_crossing` stops (and `index.probes`) would follow
        // the process's hash seed.
        let mut idx = GridIndex::new(small_config());
        for i in (0..20u64).map(|i| (i * 7) % 20) {
            idx.insert(UserId(i), sp(i as f64 * 10.0 + 1.0, 1.0, 0));
        }
        for x1 in [195.0, 1_000.0] {
            let b = StBox::new(
                Rect::from_bounds(0.0, 0.0, x1, 5.0),
                TimeInterval::new(TimeSec(0), TimeSec(9)),
            );
            let mut order = Vec::new();
            idx.scan_box(&b, |u, _| {
                order.push(u.raw());
                Continue(())
            });
            assert_eq!(order, (0..20).collect::<Vec<_>>(), "x1={x1}");
        }
    }

    /// Entries written into rebuilt sealed arrays since `seen` was last
    /// updated: every seal or merge grows its slab's array, so a change
    /// of length is one rebuild of that many entries.
    fn copies_since(idx: &GridIndex, seen: &mut BTreeMap<i64, usize>) -> u64 {
        let mut copies = 0;
        for (t, slab) in &idx.slabs {
            let n = slab.entries.len();
            if seen.insert(*t, n).unwrap_or(0) != n {
                copies += n as u64;
            }
        }
        copies
    }

    #[test]
    fn sealing_and_merging_copy_at_most_nine_entries_per_point_in_any_order() {
        // Oldest and newest alternate, so after the second point every
        // point from the old end lands in an already-sealed slab — the
        // order that makes merges most frequent.
        let mut points: Vec<(UserId, StPoint)> =
            (0..30).flat_map(|s| slab_points(s, 200)).collect();
        points.sort_by_key(|(_, p)| p.t);
        let n = points.len();
        let alternating = (0..n).map(|i| points[if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 }]);
        let mut idx = GridIndex::new(small_config());
        let mut seen = BTreeMap::new();
        let mut copies = 0;
        for (u, p) in alternating {
            idx.insert(u, p);
            copies += copies_since(&idx, &mut seen);
        }
        assert_eq!(idx.len(), n);
        assert!(copies <= 9 * n as u64, "{copies} copies for {n} points");
        // What a sealed slab still holds open is below the merge threshold.
        for (t, slab) in idx.slabs.range(..=29 - LAG) {
            assert!(slab.open_len * MERGE_RATIO < slab.entries.len(), "slab {t}");
        }
    }

    #[test]
    fn time_ordered_ingestion_costs_at_most_36_bytes_per_point() {
        // 40 slabs of 100 cells, 8 observations per cell, in time order:
        // 38 sealed slabs at 32 B per point + 20 B per cell, two open ones
        // with their hash tables. One hash entry and one vector per cell
        // everywhere, as before sealing, would be ~44 B per point.
        let mut idx = GridIndex::new(small_config());
        for slab in 0..40i64 {
            for i in 0..800u64 {
                let (x, y) = (
                    (i % 10) as f64 * 10.0 + 1.0,
                    ((i / 10) % 10) as f64 * 10.0 + 1.0,
                );
                idx.insert(UserId(i), sp(x, y, slab * 10 + (i / 100) as i64));
            }
        }
        let per_point = idx.heap_bytes() as f64 / idx.len() as f64;
        assert!(per_point <= 36.0, "{per_point:.2} B per point");
        assert!(per_point >= size_of::<Entry>() as f64);
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
