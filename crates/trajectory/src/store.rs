//! The trusted server's trajectory database.

use crate::{Phl, UserId};
use hka_geo::{StBox, StPoint};
use std::collections::BTreeMap;

/// All users' Personal Histories of Locations.
///
/// This is the database behind the paper's trusted server: "user sensitive
/// information, including user location at specific times … is collected
/// and handled by a Trusted Server". Iteration order is deterministic
/// (keyed by [`UserId`]) so that experiments are reproducible.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryStore {
    phls: BTreeMap<UserId, Phl>,
    total_points: usize,
}

impl TrajectoryStore {
    /// An empty store.
    pub fn new() -> Self {
        TrajectoryStore::default()
    }

    /// Records a location update for `user`.
    ///
    /// # Panics
    /// If the update is older than the user's latest recorded point.
    pub fn record(&mut self, user: UserId, p: StPoint) {
        self.phls.entry(user).or_default().push(p);
        self.total_points += 1;
    }

    /// Records a location update, clamping an out-of-order timestamp
    /// forward onto the user's latest recorded one instead of
    /// panicking (see [`Phl::push_clamped`]). Returns `true` when the
    /// timestamp was clamped.
    pub fn record_clamped(&mut self, user: UserId, p: StPoint) -> bool {
        let clamped = self.phls.entry(user).or_default().push_clamped(p);
        self.total_points += 1;
        clamped
    }

    /// Registers a user with an empty history (idempotent).
    pub fn ensure_user(&mut self, user: UserId) {
        self.phls.entry(user).or_default();
    }

    /// The PHL of `user`, if registered.
    pub fn phl(&self, user: UserId) -> Option<&Phl> {
        self.phls.get(&user)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.phls.len()
    }

    /// Total number of location points across all users ("n" in the
    /// paper's O(k·n) complexity discussion).
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// Heap bytes the store holds, from its PHLs' capacities plus one
    /// `(UserId, Phl)` slot per user (the map's node overhead is not
    /// counted).
    pub fn heap_bytes(&self) -> usize {
        self.phls
            .values()
            .map(|phl| std::mem::size_of::<(UserId, Phl)>() + phl.heap_bytes())
            .sum()
    }

    /// A store holding every PHL from the given user-disjoint
    /// partitions — the global view behind a sharded server, used when
    /// an audit or introspection query needs all users at once.
    ///
    /// # Panics
    /// If two partitions claim the same user (they are not disjoint).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a TrajectoryStore>) -> TrajectoryStore {
        let mut out = TrajectoryStore::new();
        for part in parts {
            for (user, phl) in part.iter() {
                let clash = out.phls.insert(user, phl.clone()).is_some();
                assert!(!clash, "user {user:?} present in two partitions");
                out.total_points += phl.len();
            }
        }
        out
    }

    /// Runs `f` over every PHL mutably, in user order (compaction's
    /// access path; point accounting is the caller's job).
    pub(crate) fn for_each_phl(&mut self, mut f: impl FnMut(&mut Phl)) {
        for phl in self.phls.values_mut() {
            f(phl);
        }
    }

    /// Overwrites the cached total point count (used after bulk edits
    /// that bypass [`record`](TrajectoryStore::record)).
    pub(crate) fn set_total_points(&mut self, n: usize) {
        self.total_points = n;
    }

    /// Iterates `(user, phl)` pairs in user order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Phl)> + '_ {
        self.phls.iter().map(|(u, p)| (*u, p))
    }

    /// All registered users, ascending.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.phls.keys().copied()
    }

    /// Users whose PHL crosses the box (the anonymity set of a request
    /// with that generalized context — Section 5.1).
    pub fn users_crossing(&self, b: &StBox) -> Vec<UserId> {
        self.iter()
            .filter(|(_, phl)| phl.crosses(b))
            .map(|(u, _)| u)
            .collect()
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
    fn record_and_lookup() {
        let mut s = TrajectoryStore::new();
        s.record(UserId(1), sp(0.0, 0.0, 0));
        s.record(UserId(1), sp(1.0, 0.0, 10));
        s.record(UserId(2), sp(5.0, 5.0, 3));
        assert_eq!(s.user_count(), 2);
        assert_eq!(s.total_points(), 3);
        assert_eq!(s.phl(UserId(1)).unwrap().len(), 2);
        assert!(s.phl(UserId(9)).is_none());
    }

    #[test]
    fn record_clamped_tolerates_reordered_updates() {
        let mut s = TrajectoryStore::new();
        assert!(!s.record_clamped(UserId(1), sp(0.0, 0.0, 100)));
        assert!(s.record_clamped(UserId(1), sp(1.0, 0.0, 50)));
        assert_eq!(s.phl(UserId(1)).unwrap().last().unwrap().t, TimeSec(100));
        assert_eq!(s.total_points(), 2);
    }

    #[test]
    fn ensure_user_registers_empty() {
        let mut s = TrajectoryStore::new();
        s.ensure_user(UserId(7));
        assert_eq!(s.user_count(), 1);
        assert!(s.phl(UserId(7)).unwrap().is_empty());
        assert_eq!(s.total_points(), 0);
    }

    #[test]
    fn users_crossing_filters_by_box() {
        let mut s = TrajectoryStore::new();
        s.record(UserId(1), sp(0.0, 0.0, 0));
        s.record(UserId(2), sp(100.0, 100.0, 0));
        s.record(UserId(3), sp(1.0, 1.0, 50));
        let b = StBox::new(
            Rect::from_bounds(-5.0, -5.0, 5.0, 5.0),
            TimeInterval::new(TimeSec(0), TimeSec(10)),
        );
        assert_eq!(s.users_crossing(&b), vec![UserId(1)]);
    }

    #[test]
    fn iteration_is_ordered() {
        let mut s = TrajectoryStore::new();
        for id in [5u64, 1, 3] {
            s.record(UserId(id), sp(0.0, 0.0, 0));
        }
        let order: Vec<u64> = s.users().map(|u| u.raw()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }
}
