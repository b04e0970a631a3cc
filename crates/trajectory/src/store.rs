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
    /// panicking (see [`clamp_after`]). Returns `true` when the
    /// timestamp was clamped.
    pub fn record_clamped(&mut self, user: UserId, p: StPoint) -> bool {
        self.record_with_prev(user, p).0.t != p.t
    }

    /// Records a location update clamped like
    /// [`record_clamped`](TrajectoryStore::record_clamped), reading the
    /// PHL's last point through the same map entry it appends through.
    /// Returns the point as stored and the point that was last before it
    /// (`None` for the user's first point).
    pub fn record_with_prev(&mut self, user: UserId, p: StPoint) -> (StPoint, Option<StPoint>) {
        let phl = self.phls.entry(user).or_default();
        let prev = phl.last().copied();
        let p = clamp_after(prev, p);
        phl.push(p);
        self.total_points += 1;
        (p, prev)
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

/// The PHL's clamp rule: a timestamp that regresses behind `last` moves
/// forward onto it (equal timestamps are legal in a PHL), counted in
/// `ts.reordered`. Every clamp goes through here, so each is counted
/// once: clamped writes apply it inside the store, and the trusted
/// server applies it to a request's point before deciding on it.
pub fn clamp_after(last: Option<StPoint>, mut p: StPoint) -> StPoint {
    if let Some(last) = last {
        if p.t < last.t {
            hka_obs::counter!("ts.reordered").incr();
            p.t = last.t;
        }
    }
    p
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
    fn record_with_prev_clamps_and_reports_the_previous_point() {
        let mut s = TrajectoryStore::new();
        assert_eq!(
            s.record_with_prev(UserId(1), sp(0.0, 0.0, 100)),
            (sp(0.0, 0.0, 100), None)
        );
        assert_eq!(
            s.record_with_prev(UserId(1), sp(1.0, 0.0, 50)),
            (sp(1.0, 0.0, 100), Some(sp(0.0, 0.0, 100))),
            "a regressed timestamp is stored clamped"
        );
        assert_eq!(
            s.record_with_prev(UserId(1), sp(2.0, 0.0, 160)),
            (sp(2.0, 0.0, 160), Some(sp(1.0, 0.0, 100)))
        );
        assert_eq!(s.phl(UserId(1)).unwrap().last(), Some(&sp(2.0, 0.0, 160)));
        assert_eq!(s.total_points(), 3);
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
