//! The service-provider-side adversary.
//!
//! Section 1 motivates the whole framework with this attack: "a service
//! request containing as location information the exact coordinates of a
//! private house provides sufficient information to personally identify
//! the house's owner since the mapping of such coordinates to home
//! addresses is generally available and a simple look up in a phone book
//! (or similar sources) can reveal the people who live there."
//!
//! [`Adversary`] plays the malicious (or compromised) provider:
//!
//! 1. it clusters the received requests into presumed same-user groups
//!    using a [`Linker`] at threshold Θ (Definition 5's link-connected
//!    components — pseudonym equality plus trajectory tracking);
//! 2. within each cluster it looks for *home evidence*: requests whose
//!    area intersects exactly one registered home during home-plausible
//!    hours (early morning / evening);
//! 3. a cluster whose home evidence is unambiguous is *re-identified* as
//!    the home's registered owner.
//!
//! [`AttackReport`] scores the attack against ground truth (which only
//! the experiment harness has). [`unlink_audit`] and [`hk_audit`] grade
//! the server the same way: from the forwards the provider received,
//! beside the true issuers and trajectories only an evaluation holds.

use crate::Disclosure;
use hka_anonymity::{
    historical_k_anonymity, link_components, HkOutcome, Linker, Pseudonym, SpRequest,
};
use hka_geo::{Rect, StBox, DAY, HOUR};
use hka_trajectory::{TrajectoryStore, UserId};
use std::collections::BTreeMap;

/// The public "phone book": home footprint → registered resident.
#[derive(Debug, Clone, Default)]
pub struct HomeRegistry {
    entries: Vec<(Rect, UserId)>,
}

impl HomeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        HomeRegistry::default()
    }

    /// Registers a home and its resident.
    pub fn add(&mut self, home: Rect, resident: UserId) {
        self.entries.push((home, resident));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Residents of homes intersecting the area.
    pub fn residents_intersecting(&self, area: &Rect) -> Vec<UserId> {
        self.entries
            .iter()
            .filter(|(h, _)| h.intersects(area))
            .map(|(_, u)| *u)
            .collect()
    }
}

/// Hours (seconds-of-day) considered "at home": before the morning
/// departure and after the evening return.
fn home_plausible(sod: i64) -> bool {
    !(8 * HOUR..17 * HOUR).contains(&sod)
}

/// The outcome of an attack run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackReport {
    /// Number of request clusters formed at the chosen Θ.
    pub clusters: usize,
    /// Cluster → claimed identity (cluster indexed by smallest request
    /// index it contains).
    pub claims: Vec<(usize, UserId)>,
    /// Of the claims, how many were correct (requires ground truth).
    pub correct: usize,
    /// Distinct users correctly re-identified.
    pub users_identified: usize,
}

impl AttackReport {
    /// Precision of the identity claims.
    pub fn precision(&self) -> f64 {
        if self.claims.is_empty() {
            0.0
        } else {
            self.correct as f64 / self.claims.len() as f64
        }
    }
}

/// The SP-side attacker.
pub struct Adversary<'a, L: Linker + ?Sized> {
    linker: &'a L,
    theta: f64,
    registry: &'a HomeRegistry,
}

impl<'a, L: Linker + ?Sized> Adversary<'a, L> {
    /// Creates an adversary with the given linking technique, threshold
    /// and external knowledge.
    pub fn new(linker: &'a L, theta: f64, registry: &'a HomeRegistry) -> Self {
        Adversary {
            linker,
            theta,
            registry,
        }
    }

    /// Runs the attack on the provider-visible request stream and, given
    /// the ground-truth issuer of each request, scores it.
    pub fn attack(&self, requests: &[SpRequest], truth: &[UserId]) -> AttackReport {
        assert_eq!(requests.len(), truth.len(), "one truth label per request");
        let components = link_components(requests, self.linker, self.theta);
        let mut report = AttackReport {
            clusters: components.len(),
            ..AttackReport::default()
        };
        let mut identified: BTreeMap<UserId, bool> = BTreeMap::new();

        for component in &components {
            // Tally the candidate residents suggested by home-plausible
            // requests in this cluster.
            let mut votes: BTreeMap<UserId, usize> = BTreeMap::new();
            for &i in component {
                let r = &requests[i];
                let sod = r.context.span.start().0.rem_euclid(DAY);
                if !home_plausible(sod) {
                    continue;
                }
                let residents = self.registry.residents_intersecting(&r.context.rect);
                // Ambiguous evidence (several homes in the area) is
                // discarded: the cloak did its job for this request.
                if let [single] = residents.as_slice() {
                    *votes.entry(*single).or_insert(0) += 1;
                }
            }
            // Claim the unique best-supported resident, if any.
            let mut best: Option<(UserId, usize)> = None;
            let mut tie = false;
            for (u, c) in &votes {
                match best {
                    Some((_, bc)) if *c == bc => tie = true,
                    Some((_, bc)) if *c > bc => {
                        best = Some((*u, *c));
                        tie = false;
                    }
                    None => best = Some((*u, *c)),
                    _ => {}
                }
            }
            if tie {
                continue;
            }
            if let Some((claimed, _)) = best {
                report.claims.push((component[0], claimed));
                // Score: the claim is correct when the majority of the
                // cluster's requests really belong to the claimed user.
                let hits = component.iter().filter(|&&i| truth[i] == claimed).count();
                if hits * 2 > component.len() {
                    report.correct += 1;
                    identified.insert(claimed, true);
                }
            }
        }
        report.users_identified = identified.len();
        report
    }
}

/// The home/work *pair* attack (Golle–Partridge, "On the Anonymity of
/// Home/Work Location Pairs", Pervasive 2009 — the natural strengthening
/// of this paper's Section-1 attack): even when neither the home nor the
/// workplace identifies a user alone, the *pair* usually does, because
/// few people share both.
///
/// The attacker holds a registry of (home, workplace) pairs per user
/// (census/employer-style external knowledge). A cluster is re-identified
/// when its home-plausible evidence and its work-hours evidence each
/// intersect exactly one candidate's home/work footprints and both point
/// at the same user.
#[derive(Debug, Clone, Default)]
pub struct PairRegistry {
    entries: Vec<(Rect, Rect, UserId)>,
}

impl PairRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PairRegistry::default()
    }

    /// Registers a user's home and workplace footprints.
    pub fn add(&mut self, home: Rect, work: Rect, user: UserId) {
        self.entries.push((home, work, user));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Work-plausible hours: the conventional office block.
fn work_plausible(sod: i64) -> bool {
    (9 * HOUR..16 * HOUR).contains(&sod)
}

/// Runs the pair attack over a clustered request stream. Returns, per
/// cluster (indexed by smallest member), the claimed user when the
/// home-evidence and work-evidence candidate sets intersect in exactly
/// one registered pair.
pub fn pair_attack<L: Linker + ?Sized>(
    linker: &L,
    theta: f64,
    registry: &PairRegistry,
    requests: &[SpRequest],
) -> Vec<(usize, UserId)> {
    let components = link_components(requests, linker, theta);
    let mut claims = Vec::new();
    for component in &components {
        let mut home_candidates: BTreeMap<UserId, usize> = BTreeMap::new();
        let mut work_candidates: BTreeMap<UserId, usize> = BTreeMap::new();
        for &i in component {
            let r = &requests[i];
            let sod = r.context.span.start().0.rem_euclid(DAY);
            for (home, work, user) in &registry.entries {
                if home_plausible(sod) && home.intersects(&r.context.rect) {
                    *home_candidates.entry(*user).or_insert(0) += 1;
                }
                if work_plausible(sod) && work.intersects(&r.context.rect) {
                    *work_candidates.entry(*user).or_insert(0) += 1;
                }
            }
        }
        // The pair is identifying when exactly one user appears on both
        // sides of the evidence.
        let both: Vec<UserId> = home_candidates
            .keys()
            .filter(|u| work_candidates.contains_key(*u))
            .copied()
            .collect();
        if let [single] = both.as_slice() {
            claims.push((component[0], *single));
        }
    }
    claims
}

/// Replays an attacker's linking technique over forwarded requests
/// with their true issuers, as an evaluation collects them from the
/// server's outcomes (Section 5.2: "we assume the TS can replicate the
/// techniques used by a possible attacker"), and reports, per user that
/// has held more than one pseudonym, the **maximum linkability between
/// requests issued under different pseudonyms**. Values below the
/// user's Θ mean past unlinkings hold against this attacker; values at
/// or above Θ identify pseudonym changes an SP could chain back
/// together.
pub fn unlink_audit<L: Linker + ?Sized>(
    forwards: &[(UserId, SpRequest)],
    linker: &L,
) -> Vec<(UserId, f64)> {
    let mut by_user: BTreeMap<UserId, Vec<&SpRequest>> = BTreeMap::new();
    for (u, r) in forwards {
        by_user.entry(*u).or_default().push(r);
    }
    let mut out = Vec::new();
    for (user, reqs) in by_user {
        let pseudonyms: std::collections::BTreeSet<Pseudonym> =
            reqs.iter().map(|r| r.pseudonym).collect();
        if pseudonyms.len() < 2 {
            continue;
        }
        let mut worst = 0.0f64;
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if reqs[i].pseudonym != reqs[j].pseudonym {
                    worst = worst.max(linker.link(reqs[i], reqs[j]));
                }
            }
        }
        out.push((user, worst));
    }
    out
}

/// One request set Theorem 1 speaks of, graded by [`hk_audit`]: the
/// generalized forwards of one user under one pseudonym.
#[derive(Debug, Clone, PartialEq)]
pub struct GradedSet {
    /// The true issuer.
    pub user: UserId,
    /// The pseudonym the provider saw on every request of the set.
    pub pseudonym: Pseudonym,
    /// How many generalized forwards the set holds.
    pub requests: usize,
    /// Definition 8 over the set's contexts, against the ground truth.
    pub outcome: HkOutcome,
    /// Whether a forward of the set went out with `hk_ok == false`: the
    /// server could neither generalize nor unlink, and notified the user
    /// at risk (outside Theorem 1's hypotheses).
    pub risk: bool,
    /// Definition 8 over the forwards before the set's first at-risk one
    /// (all of them, and so equal to `outcome`, when `risk` is false):
    /// the part of the set Theorem 1 speaks of. Definition 8 is monotone,
    /// so this prefix must hold k on its own, whatever follows it. `None`
    /// when the first forward was already at risk: no request to grade.
    pub clean_prefix: Option<HkOutcome>,
}

impl GradedSet {
    /// Theorem 1's verdict: the set's clean prefix, if any, holds k.
    pub fn theorem1_holds(&self) -> bool {
        self.clean_prefix.as_ref().is_none_or(|o| o.satisfied)
    }
}

/// Grades Theorem 1 from the provider's view: groups the generalized
/// forwards by (true issuer, pseudonym) — each group is link-connected
/// at any Θ, since its requests share a pseudonym — and checks each
/// group, and its prefix before the first at-risk forward, against
/// Definition 8 over `truth`, the users' trajectories as the evaluation
/// knows them. Services are pooled, as the server pools them; by
/// Definition 8's monotonicity a set that passes pooled passes per
/// service. Theorem 1 holds iff [`GradedSet::theorem1_holds`] for every set.
/// Sets come in (user, pseudonym) order.
pub fn hk_audit(
    forwards: &[(UserId, SpRequest, Disclosure)],
    truth: &TrajectoryStore,
    k: usize,
) -> Vec<GradedSet> {
    // Per set: its contexts, and how many precede its first at-risk one.
    let mut sets: BTreeMap<(UserId, Pseudonym), (Vec<StBox>, Option<usize>)> = BTreeMap::new();
    for (user, req, disclosure) in forwards {
        if disclosure.generalized {
            let (contexts, clean) = sets.entry((*user, req.pseudonym)).or_default();
            if !disclosure.hk_ok && clean.is_none() {
                *clean = Some(contexts.len());
            }
            contexts.push(req.context);
        }
    }
    sets.into_iter()
        .map(|((user, pseudonym), (contexts, clean))| {
            let outcome = historical_k_anonymity(truth, user, &contexts, k);
            let clean_prefix = match clean {
                Some(0) => None,
                Some(n) => Some(historical_k_anonymity(truth, user, &contexts[..n], k)),
                None => Some(outcome.clone()),
            };
            GradedSet {
                user,
                pseudonym,
                requests: contexts.len(),
                outcome,
                risk: clean.is_some(),
                clean_prefix,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrivacyLevel, RequestOutcome, TrustedServer, TsConfig};
    use hka_anonymity::{MsgId, PseudonymLinker, ServiceId};
    use hka_geo::{StBox, StPoint, TimeInterval, TimeSec};

    fn exact_req(pseudo: u64, x: f64, y: f64, t: i64) -> SpRequest {
        SpRequest::new(
            MsgId(0),
            Pseudonym(pseudo),
            StBox::point(StPoint::xyt(x, y, TimeSec(t))),
            ServiceId(0),
        )
    }

    fn cloaked_req(pseudo: u64, rect: Rect, t: i64) -> SpRequest {
        SpRequest::new(
            MsgId(0),
            Pseudonym(pseudo),
            StBox::new(rect, TimeInterval::new(TimeSec(t), TimeSec(t + 60))),
            ServiceId(0),
        )
    }

    fn registry() -> HomeRegistry {
        let mut r = HomeRegistry::new();
        r.add(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), UserId(1));
        r.add(Rect::from_bounds(200.0, 0.0, 300.0, 100.0), UserId(2));
        r
    }

    #[test]
    fn exact_home_requests_are_identified() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        // User 1 requests from home at 07:00 (sod 25200 < 8h).
        let reqs = vec![
            exact_req(10, 50.0, 50.0, 7 * 3600),
            exact_req(10, 500.0, 500.0, 12 * 3600), // noise downtown
        ];
        let truth = vec![UserId(1), UserId(1)];
        let rep = adv.attack(&reqs, &truth);
        assert_eq!(rep.clusters, 1);
        assert_eq!(rep.claims, vec![(0, UserId(1))]);
        assert_eq!(rep.correct, 1);
        assert_eq!(rep.users_identified, 1);
        assert_eq!(rep.precision(), 1.0);
    }

    #[test]
    fn daytime_requests_give_no_home_evidence() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        let reqs = vec![exact_req(10, 50.0, 50.0, 12 * 3600)]; // noon at home
        let rep = adv.attack(&reqs, &[UserId(1)]);
        assert!(rep.claims.is_empty());
        assert_eq!(rep.users_identified, 0);
    }

    #[test]
    fn cloaks_covering_multiple_homes_defeat_the_lookup() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        // A cloak spanning both homes: ambiguous evidence, no claim.
        let wide = Rect::from_bounds(-10.0, -10.0, 310.0, 110.0);
        let reqs = vec![cloaked_req(10, wide, 7 * 3600)];
        let rep = adv.attack(&reqs, &[UserId(1)]);
        assert!(rep.claims.is_empty());
    }

    #[test]
    fn pseudonym_change_splits_clusters() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        let reqs = vec![
            exact_req(10, 50.0, 50.0, 7 * 3600),
            exact_req(11, 50.0, 50.0, 18 * 3600),
        ];
        let rep = adv.attack(&reqs, &[UserId(1), UserId(1)]);
        assert_eq!(rep.clusters, 2);
    }

    #[test]
    fn wrong_claims_score_zero() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        // User 2 happens to request from inside user 1's home.
        let reqs = vec![exact_req(10, 50.0, 50.0, 7 * 3600)];
        let rep = adv.attack(&reqs, &[UserId(2)]);
        assert_eq!(rep.claims.len(), 1);
        assert_eq!(rep.correct, 0);
        assert_eq!(rep.precision(), 0.0);
    }

    #[test]
    fn pair_attack_disambiguates_shared_homes() {
        // Users 1 and 2 share an apartment building but work in
        // different places: the home alone is ambiguous, the pair is not.
        let shared_home = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let work1 = Rect::from_bounds(500.0, 0.0, 600.0, 100.0);
        let work2 = Rect::from_bounds(900.0, 0.0, 1_000.0, 100.0);
        let mut pairs = PairRegistry::new();
        pairs.add(shared_home, work1, UserId(1));
        pairs.add(shared_home, work2, UserId(2));
        assert_eq!(pairs.len(), 2);

        // One pseudonym: home in the morning, user 1's office at noon.
        let reqs = vec![
            exact_req(10, 50.0, 50.0, 7 * 3600),
            exact_req(10, 550.0, 50.0, 12 * 3600),
        ];
        // The plain home lookup cannot claim (two residents intersect).
        let mut homes = HomeRegistry::new();
        homes.add(shared_home, UserId(1));
        homes.add(shared_home, UserId(2));
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &homes);
        assert!(adv.attack(&reqs, &[UserId(1), UserId(1)]).claims.is_empty());
        // The pair attack does.
        let claims = pair_attack(&linker, 0.9, &pairs, &reqs);
        assert_eq!(claims, vec![(0, UserId(1))]);
    }

    #[test]
    fn pair_attack_needs_both_sides() {
        let mut pairs = PairRegistry::new();
        pairs.add(
            Rect::from_bounds(0.0, 0.0, 100.0, 100.0),
            Rect::from_bounds(500.0, 0.0, 600.0, 100.0),
            UserId(1),
        );
        let linker = PseudonymLinker;
        // Home evidence only.
        let home_only = vec![exact_req(10, 50.0, 50.0, 7 * 3600)];
        assert!(pair_attack(&linker, 0.9, &pairs, &home_only).is_empty());
        // Work evidence only.
        let work_only = vec![exact_req(10, 550.0, 50.0, 12 * 3600)];
        assert!(pair_attack(&linker, 0.9, &pairs, &work_only).is_empty());
        // Ambiguous pair (two users share home *and* work).
        let mut shared = PairRegistry::new();
        shared.add(
            Rect::from_bounds(0.0, 0.0, 100.0, 100.0),
            Rect::from_bounds(500.0, 0.0, 600.0, 100.0),
            UserId(1),
        );
        shared.add(
            Rect::from_bounds(0.0, 0.0, 100.0, 100.0),
            Rect::from_bounds(500.0, 0.0, 600.0, 100.0),
            UserId(2),
        );
        let both = vec![
            exact_req(10, 50.0, 50.0, 7 * 3600),
            exact_req(10, 550.0, 50.0, 12 * 3600),
        ];
        assert!(pair_attack(&linker, 0.9, &shared, &both).is_empty());
    }

    #[test]
    #[should_panic(expected = "one truth label per request")]
    fn mismatched_truth_rejected() {
        let reg = registry();
        let linker = PseudonymLinker;
        let adv = Adversary::new(&linker, 0.9, &reg);
        adv.attack(&[exact_req(1, 0.0, 0.0, 0)], &[]);
    }

    #[test]
    fn hk_audit_grades_each_pseudonyms_generalized_set() {
        let a = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let b = Rect::from_bounds(500.0, 0.0, 600.0, 100.0);
        // Users 1 and 2 pass through both boxes in time; user 3 only
        // through the first.
        let mut truth = TrajectoryStore::new();
        for u in [1, 2, 3] {
            truth.record(UserId(u), StPoint::xyt(50.0, 50.0, TimeSec(10)));
        }
        for u in [1, 2] {
            truth.record(UserId(u), StPoint::xyt(550.0, 50.0, TimeSec(1_000)));
        }
        let generalized = |hk_ok| Disclosure {
            generalized: true,
            hk_ok,
            k_req: 3,
            k_got: 3,
        };
        let forwards = vec![
            (UserId(1), cloaked_req(10, a, 0), generalized(true)),
            (
                UserId(1),
                exact_req(10, 50.0, 50.0, 500),
                Disclosure::exact(),
            ),
            (UserId(1), cloaked_req(10, b, 990), generalized(true)),
            (UserId(1), cloaked_req(11, a, 0), generalized(false)),
            (UserId(1), cloaked_req(12, b, 990), generalized(true)),
            (UserId(1), cloaked_req(12, a, 0), generalized(false)),
        ];
        let graded = hk_audit(&forwards, &truth, 3);
        assert_eq!(
            graded.len(),
            3,
            "one set per pseudonym, exact forwards aside"
        );
        // Both boxes together leave one other history: 2 < k.
        let first = &graded[0];
        assert_eq!((first.user, first.pseudonym), (UserId(1), Pseudonym(10)));
        assert_eq!(first.requests, 2);
        assert_eq!(first.outcome.witnesses, vec![UserId(2)]);
        assert!(!first.outcome.satisfied && !first.risk);
        assert_eq!(first.clean_prefix.as_ref(), Some(&first.outcome));
        assert!(!first.theorem1_holds());
        // The first box alone has two: k holds, and the set is at risk;
        // nothing precedes its at-risk forward.
        let second = &graded[1];
        assert_eq!(second.pseudonym, Pseudonym(11));
        assert_eq!(second.outcome.witnesses, vec![UserId(2), UserId(3)]);
        assert!(second.outcome.satisfied && second.risk);
        assert!(second.clean_prefix.is_none() && second.theorem1_holds());
        // The second box, forwarded before the at-risk one, already
        // breaks k: a violation within Theorem 1's hypotheses, though the
        // set is at risk.
        let third = &graded[2];
        assert_eq!((third.pseudonym, third.requests), (Pseudonym(12), 2));
        assert!(third.risk);
        let prefix = third.clean_prefix.as_ref().unwrap();
        assert_eq!(prefix.witnesses, vec![UserId(2)]);
        assert!(!prefix.satisfied && !third.theorem1_holds());
    }

    #[test]
    fn unlink_audit_reports_cross_pseudonym_linkability() {
        let mut s = TrustedServer::new(TsConfig::default());
        s.register_user(UserId(1), PrivacyLevel::Medium);
        s.register_user(UserId(2), PrivacyLevel::Off);
        s.add_static_mixzone(Rect::from_bounds(100.0, 0.0, 200.0, 100.0));
        let mut forwards = Vec::new();
        let mut request = |s: &mut TrustedServer, user, x, t| {
            let at = StPoint::xyt(x, 50.0, TimeSec(t));
            if let RequestOutcome::Forwarded(req, _) = s.handle_request(user, at, ServiceId(0)) {
                forwards.push((user, req));
            }
        };
        // User 1 requests, crosses the zone (pseudonym change), requests
        // again far away and much later.
        request(&mut s, UserId(1), 50.0, 10);
        s.location_update(UserId(1), StPoint::xyt(150.0, 50.0, TimeSec(600)));
        s.location_update(UserId(1), StPoint::xyt(250.0, 50.0, TimeSec(1_200)));
        request(&mut s, UserId(1), 1_800.0, 9_000);
        // User 2 never changes pseudonym.
        request(&mut s, UserId(2), 10.0, 5);

        let audit = unlink_audit(&forwards, &hka_anonymity::TrackerLinker::default());
        assert_eq!(audit.len(), 1, "only multi-pseudonym users are audited");
        let (user, worst) = audit[0];
        assert_eq!(user, UserId(1));
        assert!((0.0..=1.0).contains(&worst));
        // 1.5 km apart and 2+ hours later: the tracker cannot chain this.
        assert!(worst < 0.5, "unlinking should hold, got {worst}");
    }
}
