//! Reference implementations of the index queries by exhaustive scan.
//!
//! These mirror the paper's own complexity discussion of Algorithm 1:
//! "a brute-force algorithm by simply considering the nearest neighbor in
//! the PHL of each user and then taking the closest k points. In this
//! case, the worst case complexity of this step is O(k·n) where n is the
//! number of location points in the TS."
//!
//! They serve two purposes: differential testing of [`crate::GridIndex`],
//! and the un-indexed baseline of experiment T3.

use crate::spatial::{IndexBackend, SpatialIndex};
use crate::{TrajectoryStore, UserId};
use hka_geo::{SpaceTimeScale, StBox, StPoint};
use std::ops::ControlFlow;

/// The exhaustive-scan backend behind the [`SpatialIndex`] seam: owns
/// its own copy of the observations and answers every query by walking
/// every PHL.
///
/// This is the differential **oracle** — the executable specification
/// the grid index is property-tested against — and the un-indexed
/// O(k·n) baseline of experiment T3. Like
/// [`TrajectoryStore::record`], [`SpatialIndex::insert`] requires
/// per-user non-decreasing timestamps (the TS ingestion path clamps
/// regressions before indexing).
#[derive(Debug, Clone)]
pub struct BruteIndex {
    store: TrajectoryStore,
    scale: SpaceTimeScale,
}

impl BruteIndex {
    /// An empty brute index using `scale` for distance queries.
    pub fn new(scale: SpaceTimeScale) -> Self {
        BruteIndex {
            store: TrajectoryStore::new(),
            scale,
        }
    }

    /// A brute index over a copy of `store`.
    pub fn build(store: &TrajectoryStore, scale: SpaceTimeScale) -> Self {
        Self::build_all([store], scale)
    }

    /// A brute index over a copy of the user-disjoint `stores`, merged.
    pub fn build_all<'a>(
        stores: impl IntoIterator<Item = &'a TrajectoryStore>,
        scale: SpaceTimeScale,
    ) -> Self {
        BruteIndex {
            store: TrajectoryStore::merged(stores),
            scale,
        }
    }
}

impl SpatialIndex for BruteIndex {
    fn backend(&self) -> IndexBackend {
        IndexBackend::Brute
    }

    fn scale(&self) -> &SpaceTimeScale {
        &self.scale
    }

    fn len(&self) -> usize {
        self.store.total_points()
    }

    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    fn insert(&mut self, user: UserId, p: StPoint) {
        self.store.record(user, p);
    }

    fn scan_in(&self, b: &StBox, f: &mut dyn FnMut(UserId, &StPoint) -> ControlFlow<()>) {
        for (user, phl) in self.store.iter() {
            for p in phl.in_interval(&b.span) {
                if b.rect.contains(&p.pos) && f(user, p).is_break() {
                    return;
                }
            }
        }
    }

    fn k_nearest_users(
        &self,
        seed: &StPoint,
        k: usize,
        exclude: Option<UserId>,
    ) -> Vec<(UserId, StPoint)> {
        k_nearest_users(&self.store, seed, k, exclude, &self.scale)
    }
}

/// For each of the `k` users (other than `exclude`) whose PHL comes
/// closest to `seed`, the closest observation — by scanning every PHL.
/// Results are sorted by distance, ties broken by user id.
pub fn k_nearest_users(
    store: &TrajectoryStore,
    seed: &StPoint,
    k: usize,
    exclude: Option<UserId>,
    scale: &SpaceTimeScale,
) -> Vec<(UserId, StPoint)> {
    if k == 0 {
        return Vec::new();
    }
    let mut candidates: Vec<(UserId, f64, StPoint)> = Vec::new();
    for (user, phl) in store.iter() {
        if Some(user) == exclude {
            continue;
        }
        if let Some(p) = phl.nearest_point(seed, scale) {
            candidates.push((user, scale.dist_sq(seed, &p), p));
        }
    }
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    candidates.truncate(k);
    candidates.into_iter().map(|(u, _, p)| (u, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::TimeSec;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    #[test]
    fn nearest_users_basic() {
        let mut store = TrajectoryStore::new();
        store.record(UserId(1), sp(1.0, 0.0, 0));
        store.record(UserId(2), sp(2.0, 0.0, 0));
        store.record(UserId(3), sp(9.0, 0.0, 0));
        let got = k_nearest_users(&store, &sp(0.0, 0.0, 0), 2, None, &SpaceTimeScale::new(1.0));
        let ids: Vec<u64> = got.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn exclusion_and_scarcity() {
        let mut store = TrajectoryStore::new();
        store.record(UserId(1), sp(1.0, 0.0, 0));
        store.record(UserId(2), sp(2.0, 0.0, 0));
        let scale = SpaceTimeScale::new(1.0);
        let got = k_nearest_users(&store, &sp(0.0, 0.0, 0), 5, Some(UserId(1)), &scale);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, UserId(2));
        assert!(k_nearest_users(&store, &sp(0.0, 0.0, 0), 0, None, &scale).is_empty());
    }

    #[test]
    fn ties_break_by_user_id() {
        let mut store = TrajectoryStore::new();
        store.record(UserId(9), sp(1.0, 0.0, 0));
        store.record(UserId(3), sp(-1.0, 0.0, 0));
        let got = k_nearest_users(&store, &sp(0.0, 0.0, 0), 1, None, &SpaceTimeScale::new(1.0));
        assert_eq!(got[0].0, UserId(3));
    }
}
