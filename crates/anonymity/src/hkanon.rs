//! LT-consistency and historical k-anonymity (Definitions 7 and 8).

use hka_geo::StBox;
use hka_trajectory::{Phl, TrajectoryStore, UserId};

/// Definition 7: a PHL "is said to be location-time-consistent … with a
/// set of requests r_1,…,r_n issued to an SP if for each request r_i there
/// exists an element ⟨x_j, y_j, t_j⟩ in the PHL such that the area of r_i
/// contains the location identified by the point ⟨x_j, y_j⟩ and the time
/// interval of r_i contains the instant t_j."
///
/// The empty request set is vacuously consistent with every PHL.
pub fn lt_consistent(phl: &Phl, contexts: &[StBox]) -> bool {
    contexts.iter().all(|b| phl.crosses(b))
}

/// Outcome of a historical k-anonymity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HkOutcome {
    /// Whether the request set satisfies historical k-anonymity for the
    /// requested k.
    pub satisfied: bool,
    /// The value of k that was requested.
    pub k: usize,
    /// Users (other than the issuer) whose PHLs are LT-consistent with
    /// every request — the candidate "k−1 other users". May be larger than
    /// `k − 1`; its size + 1 is the effective anonymity level.
    pub witnesses: Vec<UserId>,
}

impl HkOutcome {
    /// The effective anonymity level: the issuer plus every witness.
    pub fn effective_k(&self) -> usize {
        self.witnesses.len() + 1
    }
}

/// Definition 8: "a subset of requests R = {r_1,…,r_m} issued by the same
/// user U is said to satisfy Historical k-Anonymity if there exist k−1
/// PHLs P_1,…,P_{k−1} for k−1 users different from U, such that each P_j
/// … is LT-consistent with R."
///
/// Scans every other user's PHL; `contexts` are the generalized
/// `⟨Area, TimeInterval⟩` boxes of U's requests as the provider saw them.
///
/// ```
/// use hka_anonymity::historical_k_anonymity;
/// use hka_geo::{Rect, StBox, StPoint, TimeInterval, TimeSec};
/// use hka_trajectory::{TrajectoryStore, UserId};
///
/// let mut store = TrajectoryStore::new();
/// store.record(UserId(1), StPoint::xyt(10.0, 10.0, TimeSec(100)));
/// store.record(UserId(2), StPoint::xyt(12.0, 11.0, TimeSec(110)));
/// let context = StBox::new(
///     Rect::from_bounds(0.0, 0.0, 20.0, 20.0),
///     TimeInterval::new(TimeSec(0), TimeSec(200)),
/// );
/// let out = historical_k_anonymity(&store, UserId(1), &[context], 2);
/// assert!(out.satisfied);
/// assert_eq!(out.witnesses, vec![UserId(2)]);
/// ```
pub fn historical_k_anonymity(
    store: &TrajectoryStore,
    issuer: UserId,
    contexts: &[StBox],
    k: usize,
) -> HkOutcome {
    let witnesses: Vec<UserId> = store
        .iter()
        .filter(|(u, _)| *u != issuer)
        .filter(|(_, phl)| lt_consistent(phl, contexts))
        .map(|(u, _)| u)
        .collect();
    HkOutcome {
        satisfied: witnesses.len() + 1 >= k,
        k,
        witnesses,
    }
}

/// The anonymity set of a single generalized request (Section 5.1): every
/// user who was inside the context and thus "may have issued the request"
/// — the k-*potential*-senders semantics this paper argues for, in
/// contrast to the k-*actual*-senders semantics of Gedik–Liu \[9\].
pub fn anonymity_set(store: &TrajectoryStore, context: &StBox) -> Vec<UserId> {
    store.users_crossing(context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::{Rect, StPoint, TimeInterval, TimeSec};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn ctx(x1: f64, y1: f64, x2: f64, y2: f64, t1: i64, t2: i64) -> StBox {
        StBox::new(
            Rect::from_bounds(x1, y1, x2, y2),
            TimeInterval::new(TimeSec(t1), TimeSec(t2)),
        )
    }

    /// Three users: 1 and 2 commute together (co-located morning and
    /// evening); 3 only shares the morning.
    fn commuting_store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        for (u, dx) in [(1u64, 0.0), (2, 5.0), (3, 2.0)] {
            s.record(UserId(u), sp(10.0 + dx, 10.0, 100)); // morning, home area
        }
        for (u, dx) in [(1u64, 0.0), (2, 5.0)] {
            s.record(UserId(u), sp(910.0 + dx, 910.0, 5000)); // evening, office
        }
        s.record(UserId(3), sp(500.0, 500.0, 5000)); // user 3 elsewhere
        s
    }

    #[test]
    fn lt_consistency_definition() {
        let s = commuting_store();
        let morning = ctx(0.0, 0.0, 100.0, 100.0, 0, 200);
        let evening = ctx(900.0, 900.0, 1000.0, 1000.0, 4000, 6000);
        let phl3 = s.phl(UserId(3)).unwrap();
        assert!(lt_consistent(phl3, &[morning]));
        assert!(!lt_consistent(phl3, &[morning, evening]));
        // Vacuous truth on the empty set.
        assert!(lt_consistent(phl3, &[]));
    }

    #[test]
    fn historical_k_anonymity_counts_other_users() {
        let s = commuting_store();
        let contexts = [
            ctx(0.0, 0.0, 100.0, 100.0, 0, 200),
            ctx(900.0, 900.0, 1000.0, 1000.0, 4000, 6000),
        ];
        // User 1's requests: only user 2 is consistent with both.
        let out = historical_k_anonymity(&s, UserId(1), &contexts, 2);
        assert!(out.satisfied);
        assert_eq!(out.witnesses, vec![UserId(2)]);
        assert_eq!(out.effective_k(), 2);
        // k = 3 fails: user 3 broke off before the evening.
        let out = historical_k_anonymity(&s, UserId(1), &contexts, 3);
        assert!(!out.satisfied);
    }

    #[test]
    fn issuer_is_never_a_witness() {
        let s = commuting_store();
        let contexts = [ctx(0.0, 0.0, 100.0, 100.0, 0, 200)];
        let out = historical_k_anonymity(&s, UserId(1), &contexts, 1);
        assert!(!out.witnesses.contains(&UserId(1)));
        // k = 1 is trivially satisfied (the issuer alone).
        assert!(out.satisfied);
    }

    #[test]
    fn shrinking_context_loses_witnesses() {
        let s = commuting_store();
        // A tight box around user 1's exact morning point excludes 2 and 3.
        let tight = [ctx(9.0, 9.0, 11.0, 11.0, 90, 110)];
        let out = historical_k_anonymity(&s, UserId(1), &tight, 2);
        assert!(!out.satisfied);
        assert!(out.witnesses.is_empty());
    }

    #[test]
    fn empty_request_set_is_fully_anonymous() {
        let s = commuting_store();
        let out = historical_k_anonymity(&s, UserId(1), &[], 3);
        assert!(out.satisfied, "no requests reveal nothing");
        assert_eq!(out.witnesses.len(), 2);
    }

    #[test]
    fn anonymity_set_is_potential_senders() {
        let s = commuting_store();
        let morning = ctx(0.0, 0.0, 100.0, 100.0, 0, 200);
        let set = anonymity_set(&s, &morning);
        assert_eq!(set, vec![UserId(1), UserId(2), UserId(3)]);
    }
}
