//! Algorithm 1 — the spatio-temporal generalization algorithm
//! (Section 6.2), implemented exactly as listed in the paper.
//!
//! ```text
//! Input:  ⟨x,y,t⟩ of request r, k user-ids (if r matches the initial
//!         element of an LBQID) or a parameter k, tolerance constraints;
//! Output: ⟨Area, TimeInterval⟩, boolean HK-anonymity, k user-ids (…)
//!
//!  1: if k user-ids are given as part of the Input then
//!  2:     For each of the k user-ids, find the 3D point in its PHL
//!         closest to ⟨x,y,t⟩.
//!  3:     Compute ⟨Area,TimeInterval⟩ as the smallest 3D space
//!         containing these points
//!  4: else
//!  5:     Compute ⟨Area,TimeInterval⟩ as the smallest 3D space
//!         (2D area + time) containing ⟨x,y,t⟩ and crossed by k
//!         trajectories (each one for a different user)
//!  6:     Store the ids of the k users.
//!  7: end if
//!  8: if ⟨Area,TimeInterval⟩ satisfies the tolerance constraints then
//!  9:     HK-anonymity := True
//! 10: else
//! 11:     HK-anonymity := False
//! 12:     Area and TimeInterval are uniformly reduced to satisfy the
//!         tolerance constraints
//! 13: end if
//! ```
//!
//! Two faithful notes:
//!
//! * line 5's "smallest … crossed by k trajectories" is realized, as the
//!   paper itself proposes for the brute force, by "considering the
//!   nearest neighbor in the PHL of each user and then taking the closest
//!   k points" — both the O(k·n) scan and the grid-index variant produce
//!   the k per-user-nearest points and bound them;
//! * the output box always contains the true request point (the MBB is
//!   seeded with it; the shrink pivots on it), so the provider always
//!   receives a context consistent with the real request.

use crate::Tolerance;
use hka_geo::{SpaceTimeScale, StBox, StPoint};
use hka_trajectory::{brute, SpatialIndex, TrajectoryStore, UserId};

/// The result of one generalization step.
#[derive(Debug, Clone, PartialEq)]
pub struct Generalization {
    /// The generalized `⟨Area, TimeInterval⟩` forwarded to the provider.
    pub context: StBox,
    /// Algorithm 1's `HK-anonymity` output: `true` when the k-PHL bounding
    /// box satisfied the tolerance constraints (so the forwarded context
    /// still covers all k candidate histories), `false` when the box had
    /// to be clamped (coverage of the k PHLs is no longer guaranteed).
    pub hk_anonymity: bool,
    /// The user-ids whose PHL points defined the box. On the
    /// first-element branch these are "the ids of the k users" to store
    /// for the rest of the traversal; on the subsequent branch they echo
    /// the stored input ids that still had PHL points.
    pub selected: Vec<UserId>,
}

/// Lines 5–6 + 8–13: first-element branch, over any [`SpatialIndex`]
/// backend (grid or brute — they answer identically).
///
/// `requester` is excluded from the k selected users: the anonymity set
/// must contain k users *other than* the issuer so that, per Definition 8,
/// "there exist k−1 PHLs … for k−1 users different from U" even after the
/// provider discounts the issuer — and the issuer's own trajectory covers
/// the request trivially.
pub fn algorithm1_first(
    index: &(impl SpatialIndex + ?Sized),
    seed: &StPoint,
    requester: UserId,
    k: usize,
    tolerance: &Tolerance,
) -> Generalization {
    let _span = hka_obs::span!("algo1.generalize");
    let picks = index.k_nearest_users(seed, k, Some(requester));
    hka_obs::counter!("algo1.iterations").add(picks.len() as u64);
    finish(seed, picks, k, tolerance)
}

/// The same first-element branch by exhaustive scan (the paper's O(k·n)
/// brute force) — used for differential testing and experiment T3.
pub fn algorithm1_first_brute(
    store: &TrajectoryStore,
    seed: &StPoint,
    requester: UserId,
    k: usize,
    tolerance: &Tolerance,
    scale: &SpaceTimeScale,
) -> Generalization {
    let picks = brute::k_nearest_users(store, seed, k, Some(requester), scale);
    finish(seed, picks, k, tolerance)
}

/// Lines 2–3 + 8–13: subsequent-element branch. "The computation … is
/// quite simple, considering that it is restricted to the traces of k
/// users, and that this number is usually much smaller than the total
/// number of users."
///
/// `k` may be smaller than `stored_users.len()`: this implements the
/// Section-6.2 k′-decreasing schedule — "starting with a larger k′ and
/// decreasing its value at each point in the trace, until k is reached" —
/// by keeping only the `k` stored users whose PHLs stay closest to the new
/// request point. Because the kept set is always a subset of the stored
/// one, the sets shrink monotonically along a trace and the survivors are
/// covered by *every* box issued so far.
///
/// Distances are ordered with [`f64::total_cmp`]: a degenerate PHL point
/// (non-finite coordinates producing a NaN score) sorts after every real
/// candidate instead of panicking the comparator.
pub fn algorithm1_subsequent(
    store: &TrajectoryStore,
    seed: &StPoint,
    stored_users: &[UserId],
    k: usize,
    tolerance: &Tolerance,
    scale: &SpaceTimeScale,
) -> Generalization {
    let _span = hka_obs::span!("algo1.generalize");
    let mut picks: Vec<(UserId, f64, StPoint)> = stored_users
        .iter()
        .filter_map(|u| {
            store
                .phl(*u)
                .and_then(|phl| phl.nearest_point(seed, scale))
                .map(|p| (*u, scale.dist_sq(seed, &p), p))
        })
        .collect();
    picks.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    picks.truncate(k);
    hka_obs::counter!("algo1.iterations").add(picks.len() as u64);
    finish(
        seed,
        picks.into_iter().map(|(u, _, p)| (u, p)).collect(),
        k,
        tolerance,
    )
}

/// Lines 3/5 (bounding) + 8–13 (tolerance check and uniform reduction).
fn finish(
    seed: &StPoint,
    picks: Vec<(UserId, StPoint)>,
    k: usize,
    tolerance: &Tolerance,
) -> Generalization {
    let mut context = StBox::point(*seed);
    for (_, p) in &picks {
        context = context.expand_to(p);
    }
    let selected: Vec<UserId> = picks.into_iter().map(|(u, _)| u).collect();
    // HK-anonymity requires both: k distinct co-located users were found,
    // and the bounding box fits the service's tolerance.
    let enough = selected.len() >= k;
    if enough && tolerance.accepts(&context) {
        Generalization {
            context,
            hk_anonymity: true,
            selected,
        }
    } else {
        let clamped = context.shrink_around(seed, tolerance.max_area, tolerance.max_duration);
        Generalization {
            context: clamped,
            hk_anonymity: false,
            selected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::{TimeSec, MINUTE};
    use hka_trajectory::{GridIndex, GridIndexConfig};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    /// Requester 0 at the origin; users 1..=5 in a tight cluster nearby;
    /// user 6 far away.
    fn setup() -> (TrajectoryStore, GridIndex) {
        let mut store = TrajectoryStore::new();
        store.record(UserId(0), sp(0.0, 0.0, 0));
        for u in 1..=5u64 {
            store.record(UserId(u), sp(10.0 * u as f64, 5.0, 10 * u as i64));
        }
        store.record(UserId(6), sp(5_000.0, 5_000.0, 9_000));
        let index = GridIndex::build(
            &store,
            GridIndexConfig {
                cell_size: 50.0,
                cell_duration: 60,
                scale: SpaceTimeScale::new(1.0),
            },
        );
        (store, index)
    }

    fn loose() -> Tolerance {
        Tolerance::new(1e9, 86_400)
    }

    #[test]
    fn first_branch_selects_k_nearest_and_bounds_them() {
        let (_, index) = setup();
        let seed = sp(0.0, 0.0, 0);
        let g = algorithm1_first(&index, &seed, UserId(0), 3, &loose());
        assert!(g.hk_anonymity);
        assert_eq!(g.selected, vec![UserId(1), UserId(2), UserId(3)]);
        assert!(g.context.contains(&seed));
        assert!(g.context.contains(&sp(30.0, 5.0, 30)));
        assert!(!g.context.contains(&sp(5_000.0, 5_000.0, 9_000)));
    }

    #[test]
    fn brute_and_index_agree() {
        let (store, index) = setup();
        let seed = sp(12.0, 3.0, 17);
        let scale = SpaceTimeScale::new(1.0);
        for k in 1..=6 {
            let a = algorithm1_first(&index, &seed, UserId(0), k, &loose());
            let b = algorithm1_first_brute(&store, &seed, UserId(0), k, &loose(), &scale);
            assert_eq!(a.context, b.context, "k={k}");
            assert_eq!(a.hk_anonymity, b.hk_anonymity, "k={k}");
            assert_eq!(a.selected, b.selected, "k={k}");
        }
    }

    #[test]
    fn tolerance_violation_clamps_and_reports_false() {
        let (_, index) = setup();
        let seed = sp(0.0, 0.0, 0);
        // Forcing k=6 pulls in the user 5 km away: enormous box.
        let tight = Tolerance::new(10_000.0, 10 * MINUTE);
        let g = algorithm1_first(&index, &seed, UserId(0), 6, &tight);
        assert!(!g.hk_anonymity);
        assert!(tight.accepts(&g.context), "context must be clamped");
        assert!(g.context.contains(&seed), "true point must stay covered");
    }

    #[test]
    fn scarcity_reports_false() {
        let (_, index) = setup();
        let seed = sp(0.0, 0.0, 0);
        let g = algorithm1_first(&index, &seed, UserId(0), 60, &loose());
        assert!(!g.hk_anonymity, "only 6 other users exist");
        assert_eq!(g.selected.len(), 6);
    }

    #[test]
    fn subsequent_branch_uses_stored_users() {
        let (store, _) = setup();
        let seed = sp(100.0, 0.0, 200);
        let scale = SpaceTimeScale::new(1.0);
        let stored = vec![UserId(1), UserId(2), UserId(3)];
        let g = algorithm1_subsequent(&store, &seed, &stored, 3, &loose(), &scale);
        assert!(g.hk_anonymity);
        // Selected users are the stored set, re-ordered by distance to
        // the new seed (user 3 is nearest to x = 100).
        let mut selected = g.selected.clone();
        selected.sort();
        assert_eq!(selected, stored);
        // The box bounds each stored user's nearest point.
        for u in 1..=3u64 {
            assert!(g.context.contains(&sp(10.0 * u as f64, 5.0, 10 * u as i64)));
        }
        assert!(g.context.contains(&seed));
    }

    #[test]
    fn subsequent_branch_with_vanished_user() {
        let (store, _) = setup();
        let seed = sp(0.0, 0.0, 0);
        let scale = SpaceTimeScale::new(1.0);
        // User 99 has no PHL: fewer than the requested ids survive.
        let stored = vec![UserId(1), UserId(99)];
        let g = algorithm1_subsequent(&store, &seed, &stored, 2, &loose(), &scale);
        assert!(!g.hk_anonymity);
        assert_eq!(g.selected, vec![UserId(1)]);
    }

    #[test]
    fn k_zero_degenerates_to_exact_context() {
        let (_, index) = setup();
        let seed = sp(3.0, 4.0, 5);
        let g = algorithm1_first(&index, &seed, UserId(0), 0, &loose());
        assert_eq!(g.context, StBox::point(seed));
        assert!(g.hk_anonymity, "k = 0 is vacuously satisfied");
        assert!(g.selected.is_empty());
    }

    #[test]
    fn subsequent_branch_survives_nan_scoring_candidate() {
        // A PHL point with non-finite coordinates makes dist_sq NaN.
        // The old partial_cmp(..).unwrap() comparator panicked here;
        // total_cmp must instead order the NaN candidate after every
        // finite one and keep the run alive.
        let mut store = TrajectoryStore::new();
        store.record(UserId(1), sp(10.0, 5.0, 10));
        store.record(UserId(2), sp(f64::NAN, f64::NAN, 20));
        store.record(UserId(3), sp(30.0, 5.0, 30));
        let seed = sp(0.0, 0.0, 0);
        let scale = SpaceTimeScale::new(1.0);
        let stored = vec![UserId(1), UserId(2), UserId(3)];
        let g = algorithm1_subsequent(&store, &seed, &stored, 2, &loose(), &scale);
        // The two finite candidates win; the NaN one sorts last and is
        // truncated away.
        assert_eq!(g.selected, vec![UserId(1), UserId(3)]);
        // Even when k is large enough to keep the NaN candidate, the
        // sort must not panic and the finite users must come first.
        let g = algorithm1_subsequent(&store, &seed, &stored, 3, &loose(), &scale);
        assert_eq!(g.selected, vec![UserId(1), UserId(3), UserId(2)]);
    }

    #[test]
    fn clamped_context_never_exceeds_tolerance() {
        let (_, index) = setup();
        let tight = Tolerance::new(1.0, 1);
        for k in 0..=6 {
            let g = algorithm1_first(&index, &sp(1.0, 1.0, 1), UserId(0), k, &tight);
            assert!(tight.accepts(&g.context), "k={k}");
        }
    }
}
