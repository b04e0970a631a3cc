//! Mix-zones and the unlinking action (Sections 2 and 6.3).
//!
//! A mix-zone (Beresford–Stajano, paper refs. \[1,2\]) is "a spatial area
//! such that, if an individual crosses it, then it won't be possible to
//! link his future positions (outside the area) with known positions
//! (before entering the area)". The paper proposes, beyond static zones,
//! "defining mix-zones **on-demand**, for example temporarily disabling
//! the use of the service for a number of users in the same area for the
//! time sufficient to confuse the SP. Technically, we may define the
//! problem as that of finding, given a specific point in space, k
//! diverging trajectories (each one for a different user) that are
//! sufficiently close to the point."
//!
//! [`MixZoneManager`] implements both: a set of static zones, and an
//! on-demand search that looks for k users near the requested point whose
//! *current movement directions* pairwise diverge by at least a threshold
//! angle (the online proxy for "once out of the mix-zone, \[they\] will
//! take very different trajectories" — the TS cannot observe the future).
//! A successful unlink suppresses service inside the zone for a cool-down
//! period, then the user emerges under a fresh pseudonym.
//!
//! "Sufficiently close to the point" is a window query, so the search
//! asks the host's spatial index who crossed the zone during the
//! look-back and reads only the tails of those users' PHLs for a heading:
//! an attempt costs the neighbourhood, not the database. The exhaustive
//! scan over every PHL survives as the test oracle the search is held
//! equal to.

use hka_geo::{angular_separation, Point, Rect, StBox, StPoint, TimeInterval, TimeSec};
#[cfg(test)]
use hka_trajectory::TrajectoryStore;
use hka_trajectory::{Phl, UserId};
use std::collections::BTreeSet;

/// Parameters of the on-demand mix-zone search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixZoneConfig {
    /// Radius (meters) around the point in which candidate users are
    /// sought.
    pub radius: f64,
    /// How far back (seconds) a candidate's last observation may lie.
    pub lookback: i64,
    /// Minimum pairwise angular separation (radians) between candidate
    /// headings for the set to count as "diverging".
    pub min_divergence: f64,
    /// How long (seconds) service stays disabled inside an activated
    /// zone — "the time sufficient to confuse the SP".
    pub cooldown: i64,
}

impl Default for MixZoneConfig {
    fn default() -> Self {
        MixZoneConfig {
            radius: 300.0,
            lookback: 600,
            min_divergence: std::f64::consts::PI / 4.0, // 45°
            cooldown: 900,
        }
    }
}

/// The outcome of an unlink attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum UnlinkDecision {
    /// A zone was activated around the point; the listed users (including
    /// the requester) are mixed and service is suppressed inside until the
    /// recorded expiry.
    Unlinked {
        /// Users crossing the zone whose headings diverge.
        mixed_with: Vec<UserId>,
        /// The activated zone.
        zone: Rect,
        /// Suppression lasts until this instant.
        until: TimeSec,
    },
    /// No k diverging trajectories were available near the point.
    Infeasible {
        /// How many diverging co-located users were found (< k).
        available: usize,
    },
}

/// An active suppression area.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ActiveZone {
    rect: Rect,
    until: TimeSec,
}

/// Static and on-demand mix-zone bookkeeping for the trusted server.
#[derive(Debug, Clone)]
pub struct MixZoneManager {
    config: MixZoneConfig,
    static_zones: Vec<Rect>,
    active: Vec<ActiveZone>,
}

impl MixZoneManager {
    /// Creates a manager with no static zones.
    pub fn new(config: MixZoneConfig) -> Self {
        MixZoneManager {
            config,
            static_zones: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Registers a static mix-zone ("natural locations where no service is
    /// available to anybody").
    pub fn add_static_zone(&mut self, zone: Rect) {
        self.static_zones.push(zone);
    }

    /// The registered static zones, in registration order (checkpoint
    /// snapshots persist these; active on-demand zones are transient
    /// cool-downs and are not serialized).
    pub fn static_zones(&self) -> &[Rect] {
        &self.static_zones
    }

    /// The configured parameters.
    pub fn config(&self) -> &MixZoneConfig {
        &self.config
    }

    /// Whether service is currently unavailable at `p` — inside a static
    /// zone, or inside an on-demand zone that has not cooled down yet.
    pub fn suppressed_at(&mut self, p: &StPoint) -> bool {
        self.active.retain(|z| z.until >= p.t);
        self.static_zones.iter().any(|z| z.contains(&p.pos))
            || self.active.iter().any(|z| z.rect.contains(&p.pos))
    }

    /// Whether `p` lies in a *static* zone (crossing one is a natural
    /// unlinking opportunity even without activation).
    pub fn in_static_zone(&self, p: &Point) -> bool {
        self.static_zones.iter().any(|z| z.contains(p))
    }

    /// The space–time box an unlink around `at` looks for its crowd in:
    /// the `2·radius` square centred on the point, over the `lookback`
    /// seconds up to `at.t`.
    fn probe(&self, at: &StPoint) -> StBox {
        StBox::new(
            Rect::square(at.pos, self.config.radius * 2.0),
            TimeInterval::new(at.t - self.config.lookback, at.t),
        )
    }

    /// Attempts to establish an on-demand mix-zone around `at` for
    /// `requester`: finds users with a recent observation within `radius`
    /// of the point and selects a subset (including the requester) of at
    /// least `k` users whose current headings pairwise diverge by at least
    /// `min_divergence`.
    ///
    /// The crowd is searched through the host's index, not its database:
    /// `users_crossing` answers the window query over the probe box (any
    /// [`hka_trajectory::SpatialIndex::users_crossing`] over the host's
    /// observations — ascending by user id, which the order-sensitive
    /// greedy heading selection needs), and `phl_of` hands out the PHLs of
    /// just those users. A user with no observation in the box has no
    /// heading there, so nobody the search would have chosen is missed.
    ///
    /// On success the zone is activated: service is suppressed inside it
    /// until `at.t + cooldown`, and the caller should change the
    /// requester's pseudonym.
    pub fn try_unlink<'p>(
        &mut self,
        users_crossing: impl FnOnce(&StBox) -> BTreeSet<UserId>,
        phl_of: impl Fn(UserId) -> Option<&'p Phl>,
        requester: UserId,
        at: &StPoint,
        k: usize,
    ) -> UnlinkDecision {
        let mut span = hka_obs::span("mixzone.try_unlink");
        span.attr("k", hka_obs::Json::from(k as u64));
        let probe = self.probe(at);

        // Candidate users near the point, with their current heading.
        let mut read = 0u64;
        let mut candidates: Vec<(UserId, f64)> = Vec::new();
        for user in users_crossing(&probe) {
            if user == requester {
                continue;
            }
            let Some(phl) = phl_of(user) else { continue };
            read += 1;
            if let Some(heading) = heading_in(phl, &probe) {
                candidates.push((user, heading));
            }
        }
        hka_obs::global().counter("mixzone.candidates").add(read);
        span.attr("candidates", hka_obs::Json::from(read));
        let decision = self.decide(candidates, probe.rect, requester, at, k);
        let crowd = match &decision {
            UnlinkDecision::Unlinked { mixed_with, .. } => mixed_with.len(),
            UnlinkDecision::Infeasible { available } => available + 1,
        };
        span.attr("crowd", hka_obs::Json::from(crowd as u64));
        decision
    }

    /// The exhaustive search [`MixZoneManager::try_unlink`] is specified
    /// against: every PHL of the store, each cut to the window and
    /// filtered to the zone.
    #[cfg(test)]
    fn try_unlink_exhaustive(
        &mut self,
        store: &TrajectoryStore,
        requester: UserId,
        at: &StPoint,
        k: usize,
    ) -> UnlinkDecision {
        let probe = self.probe(at);
        let mut candidates: Vec<(UserId, f64)> = Vec::new();
        for (user, phl) in store.iter() {
            if user == requester {
                continue;
            }
            let recent = phl.in_interval(&probe.span);
            let inside: Vec<&StPoint> = recent
                .iter()
                .filter(|p| probe.rect.contains(&p.pos))
                .collect();
            if inside.len() < 2 {
                continue;
            }
            let a = inside[inside.len() - 2];
            let b = inside[inside.len() - 1];
            if a.pos == b.pos {
                continue; // stationary: no usable heading
            }
            candidates.push((user, a.pos.bearing_to(&b.pos)));
        }
        self.decide(candidates, probe.rect, requester, at, k)
    }

    /// Greedy selection of pairwise-diverging headings among
    /// `candidates` (ascending by user id), and the decision it implies.
    fn decide(
        &mut self,
        candidates: Vec<(UserId, f64)>,
        zone: Rect,
        requester: UserId,
        at: &StPoint,
        k: usize,
    ) -> UnlinkDecision {
        let cfg = self.config;
        let mut chosen: Vec<(UserId, f64)> = Vec::new();
        for (user, heading) in candidates {
            if chosen
                .iter()
                .all(|(_, h)| angular_separation(*h, heading) >= cfg.min_divergence)
            {
                chosen.push((user, heading));
            }
        }

        // The requester is one of the mixed users; k−1 diverging others
        // suffice for a crowd of k.
        if chosen.len() + 1 >= k.max(2) {
            hka_obs::global().counter("mixzone.unlinked").incr();
            let until = at.t + cfg.cooldown;
            self.active.push(ActiveZone { rect: zone, until });
            let mut mixed: Vec<UserId> = chosen.into_iter().map(|(u, _)| u).collect();
            mixed.push(requester);
            mixed.sort();
            UnlinkDecision::Unlinked {
                mixed_with: mixed,
                zone,
                until,
            }
        } else {
            hka_obs::global().counter("mixzone.infeasible").incr();
            UnlinkDecision::Infeasible {
                available: chosen.len(),
            }
        }
    }

    /// Number of currently active on-demand zones (after expiry at `now`).
    pub fn active_zones(&mut self, now: TimeSec) -> usize {
        self.active.retain(|z| z.until >= now);
        self.active.len()
    }
}

/// A user's current heading inside the probe box: the bearing between
/// their last two observations that fall in both its window and its
/// zone, if there are two and they differ.
///
/// Location updates arrive in time order, so the window's upper bound is
/// normally the PHL's own end and the two points sit within a few steps
/// of it: walk the tail backwards instead of cutting a days-long PHL to
/// the window first. Only a historical probe (deployment planning) has
/// later points to skip.
fn heading_in(phl: &Phl, probe: &StBox) -> Option<f64> {
    let points = phl.points();
    let end = match points.last() {
        Some(last) if last.t > probe.span.end() => {
            points.partition_point(|p| p.t <= probe.span.end())
        }
        _ => points.len(),
    };
    let mut inside = points[..end]
        .iter()
        .rev()
        .take_while(|p| p.t >= probe.span.start())
        .filter(|p| probe.rect.contains(&p.pos));
    let b = inside.next()?;
    let a = inside.next()?;
    // Stationary: no usable heading.
    (a.pos != b.pos).then(|| a.pos.bearing_to(&b.pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrustedServer, TsConfig};
    use hka_geo::SpaceTimeScale;
    use hka_trajectory::{GridIndex, GridIndexConfig, IndexBackend, SpatialIndex};
    use proptest::prelude::*;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    /// The production search over `store` through `index`, after checking
    /// it against the exhaustive one on a copy of the manager.
    fn unlink_via(
        mz: &mut MixZoneManager,
        index: &dyn SpatialIndex,
        store: &TrajectoryStore,
        requester: UserId,
        at: &StPoint,
        k: usize,
    ) -> UnlinkDecision {
        let want = mz.clone().try_unlink_exhaustive(store, requester, at, k);
        let got = mz.try_unlink(
            |b| index.users_crossing(b),
            |u| store.phl(u),
            requester,
            at,
            k,
        );
        assert_eq!(got, want, "index-backed unlink vs exhaustive scan");
        got
    }

    fn unlink(
        mz: &mut MixZoneManager,
        store: &TrajectoryStore,
        requester: UserId,
        at: &StPoint,
        k: usize,
    ) -> UnlinkDecision {
        let index = GridIndex::build(store, GridIndexConfig::default());
        unlink_via(mz, &index, store, requester, at, k)
    }

    /// Users walking through the origin in different directions.
    fn crossing_store(headings: &[(u64, f64)]) -> TrajectoryStore {
        let mut store = TrajectoryStore::new();
        for (u, angle) in headings {
            // Two observations approaching the origin from -angle side.
            let dir = Point::new(angle.cos(), angle.sin());
            store.record(UserId(*u), sp(-60.0 * dir.x, -60.0 * dir.y, 900));
            store.record(UserId(*u), sp(-10.0 * dir.x, -10.0 * dir.y, 960));
        }
        store
    }

    #[test]
    fn unlink_succeeds_with_diverging_crowd() {
        use std::f64::consts::FRAC_PI_2;
        let store = crossing_store(&[(1, 0.0), (2, FRAC_PI_2), (3, 2.0 * FRAC_PI_2)]);
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        let at = sp(0.0, 0.0, 1000);
        match unlink(&mut mz, &store, UserId(9), &at, 3) {
            UnlinkDecision::Unlinked {
                mixed_with, until, ..
            } => {
                assert!(mixed_with.contains(&UserId(9)));
                assert!(mixed_with.len() >= 3);
                assert_eq!(until, TimeSec(1000 + 900));
            }
            other => panic!("expected unlink, got {other:?}"),
        }
        // The zone now suppresses service at the point.
        assert!(mz.suppressed_at(&sp(0.0, 0.0, 1100)));
        // …but expires after the cooldown.
        assert!(!mz.suppressed_at(&sp(0.0, 0.0, 2000)));
    }

    #[test]
    fn unlink_fails_when_everyone_moves_the_same_way() {
        // Three users all heading east: only one diverging heading class.
        let store = crossing_store(&[(1, 0.0), (2, 0.01), (3, -0.01)]);
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        let at = sp(0.0, 0.0, 1000);
        match unlink(&mut mz, &store, UserId(9), &at, 3) {
            UnlinkDecision::Infeasible { available } => assert_eq!(available, 1),
            other => panic!("expected infeasible, got {other:?}"),
        }
        assert_eq!(mz.active_zones(TimeSec(1000)), 0);
    }

    #[test]
    fn unlink_fails_with_nobody_around() {
        let store = TrajectoryStore::new();
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        let d = unlink(&mut mz, &store, UserId(1), &sp(0.0, 0.0, 100), 2);
        assert_eq!(d, UnlinkDecision::Infeasible { available: 0 });
    }

    #[test]
    fn stale_or_distant_users_are_not_candidates() {
        use std::f64::consts::FRAC_PI_2;
        let mut store = crossing_store(&[(1, 0.0), (2, FRAC_PI_2)]);
        // User 3 crossed an hour ago; user 4 is far away.
        store.record(UserId(3), sp(-60.0, 0.0, -3000));
        store.record(UserId(3), sp(-10.0, 0.0, -2940));
        store.record(UserId(4), sp(5_000.0, 5_000.0, 900));
        store.record(UserId(4), sp(5_010.0, 5_000.0, 960));
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        match unlink(&mut mz, &store, UserId(9), &sp(0.0, 0.0, 1000), 4) {
            UnlinkDecision::Infeasible { available } => assert_eq!(available, 2),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn static_zones_suppress_service() {
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        mz.add_static_zone(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        assert!(mz.suppressed_at(&sp(50.0, 50.0, 0)));
        assert!(!mz.suppressed_at(&sp(500.0, 50.0, 0)));
        assert!(mz.in_static_zone(&Point::new(1.0, 1.0)));
        assert!(!mz.in_static_zone(&Point::new(-1.0, 1.0)));
    }

    #[test]
    fn stationary_users_have_no_heading() {
        let mut store = TrajectoryStore::new();
        for u in 1..=3u64 {
            store.record(UserId(u), sp(10.0, 10.0, 900));
            store.record(UserId(u), sp(10.0, 10.0, 960));
        }
        let mut mz = MixZoneManager::new(MixZoneConfig::default());
        let d = unlink(&mut mz, &store, UserId(9), &sp(0.0, 0.0, 1000), 2);
        assert_eq!(d, UnlinkDecision::Infeasible { available: 0 });
    }

    /// A zone of ±50 m over 100 s on a 25 m / 25 s lattice: observations
    /// land exactly on the zone's edges and on both ends of the window,
    /// repeat a position (stationary) and share a timestamp, all the time.
    fn lattice_config() -> MixZoneConfig {
        MixZoneConfig {
            radius: 50.0,
            lookback: 100,
            ..MixZoneConfig::default()
        }
    }

    fn arb_lattice_point(reach: i64) -> impl Strategy<Value = StPoint> {
        (-reach..=reach, -reach..=reach, 0i64..=8)
            .prop_map(|(x, y, t)| sp(25.0 * x as f64, 25.0 * y as f64, 25 * t))
    }

    /// Location updates of users 0..8 in arrival order — not time order:
    /// the server clamps a regressed timestamp onto the user's last one.
    fn arb_feed() -> impl Strategy<Value = Vec<(u64, StPoint)>> {
        prop::collection::vec((0u64..8, arb_lattice_point(3)), 1..80)
    }

    fn arb_grid() -> impl Strategy<Value = GridIndexConfig> {
        (0usize..3, 0usize..2).prop_map(|(cs, cd)| GridIndexConfig {
            cell_size: [25.0, 40.0, 250.0][cs],
            cell_duration: [25, 60][cd],
            scale: SpaceTimeScale::walking(),
        })
    }

    fn snapshot_of(ts: &TrustedServer) -> hka_obs::Snapshot {
        use crate::checkpoint::{stats_to_json, SERVER_SECTION, STATS_SECTION, STORE_SECTION};
        let mut snap = hka_obs::Snapshot::new(0, "0".repeat(64));
        snap.set_section(
            STORE_SECTION,
            hka_trajectory::state::store_to_json(ts.store()),
        );
        snap.set_section(SERVER_SECTION, ts.server_meta().to_json());
        snap.set_section(STATS_SECTION, stats_to_json(&ts.log().stats()));
        snap
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Index-backed unlink ≡ exhaustive scan, on either backend, over
        /// a store and index the server itself maintained — as ingested,
        /// after history compaction, and after a snapshot restore. The
        /// requester may stand inside the zone, and `at.t` is usually
        /// earlier than the PHL tails (the planning path).
        #[test]
        fn index_backed_unlink_equals_the_exhaustive_scan(
            feed in arb_feed(),
            grid in arb_grid(),
            at in arb_lattice_point(1),
            requester in 0u64..9,
            k in 2usize..5,
            horizon in 0i64..200,
        ) {
            for backend in IndexBackend::ALL {
                let config = TsConfig {
                    backend,
                    index: grid,
                    mixzone: lattice_config(),
                    ..TsConfig::default()
                };
                let mut ts = TrustedServer::new(config);
                for (u, p) in &feed {
                    ts.location_update(UserId(*u), *p);
                }
                let check = |ts: &TrustedServer| {
                    let mut mz = MixZoneManager::new(lattice_config());
                    unlink_via(&mut mz, ts.index(), ts.store(), UserId(requester), &at, k);
                };
                check(&ts);
                let policy = hka_trajectory::CompactionPolicy::new(
                    horizon,
                    hka_granules::Granularity::Minutes,
                );
                ts.compact_history(TimeSec(200), &policy);
                check(&ts);
                let restored = TrustedServer::restore(config, &snapshot_of(&ts)).unwrap();
                prop_assert_eq!(restored.store().total_points(), ts.store().total_points());
                check(&restored);
            }
        }
    }

    #[test]
    fn heading_comes_from_the_last_two_in_zone_points_of_the_window() {
        let probe = StBox::new(
            Rect::from_bounds(-50.0, -50.0, 50.0, 50.0),
            TimeInterval::new(TimeSec(100), TimeSec(200)),
        );
        let phl = |pts: &[StPoint]| Phl::from_points(pts.to_vec());
        // Both window ends and the zone edge are inclusive; what lies
        // outside either is stepped over, not stopped at.
        let h = heading_in(
            &phl(&[
                sp(0.0, 0.0, 99),    // before the window
                sp(-50.0, 0.0, 100), // on its lower end and on the edge
                sp(80.0, 0.0, 150),  // outside the zone
                sp(0.0, 50.0, 200),  // on its upper end and on the edge
                sp(0.0, 0.0, 201),   // after the window
            ]),
            &probe,
        );
        assert_eq!(
            h,
            Some(Point::new(-50.0, 0.0).bearing_to(&Point::new(0.0, 50.0)))
        );
        // One in-zone point, or two at one place, give no heading.
        assert_eq!(heading_in(&phl(&[sp(0.0, 0.0, 150)]), &probe), None);
        assert_eq!(
            heading_in(&phl(&[sp(1.0, 1.0, 120), sp(1.0, 1.0, 150)]), &probe),
            None
        );
        assert_eq!(heading_in(&Phl::new(), &probe), None);
    }
}
