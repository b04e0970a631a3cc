//! Personal Histories of Locations (paper Definition 6).

use hka_geo::{Point, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec};

/// A Personal History of Locations: "the sequence of spatio-temporal data
/// associated with a certain user in the TS database … represented as a
/// sequence of 3D points ⟨x1,y1,t1⟩, …, ⟨xm,ym,tm⟩" (Definition 6).
///
/// Points are kept sorted by time; [`Phl::push`] enforces non-decreasing
/// timestamps (location updates arrive in order from the positioning
/// infrastructure). Note that, per the paper, "a location update may be
/// received by the TS even if the user did not make a request when being
/// at that location" — the PHL is a superset of the user's request points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phl {
    points: Vec<StPoint>,
}

impl Phl {
    /// An empty history.
    pub fn new() -> Self {
        Phl { points: Vec::new() }
    }

    /// Builds a history from unordered points (sorts by time).
    pub fn from_points(mut points: Vec<StPoint>) -> Self {
        points.sort_by_key(|p| p.t);
        Phl { points }
    }

    /// Appends an observation.
    ///
    /// # Panics
    /// If `p.t` precedes the last recorded timestamp.
    pub fn push(&mut self, p: StPoint) {
        if let Some(last) = self.points.last() {
            assert!(
                p.t >= last.t,
                "PHL updates must be time-ordered: {} after {}",
                p.t,
                last.t
            );
        }
        self.points.push(p);
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Heap bytes of the observation buffer, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<StPoint>()
    }

    /// All observations, oldest first.
    pub fn points(&self) -> &[StPoint] {
        &self.points
    }

    /// First observation, if any.
    pub fn first(&self) -> Option<&StPoint> {
        self.points.first()
    }

    /// Most recent observation, if any.
    pub fn last(&self) -> Option<&StPoint> {
        self.points.last()
    }

    /// Index of the first observation with `t >= t0`.
    fn lower_bound(&self, t0: TimeSec) -> usize {
        self.points.partition_point(|p| p.t < t0)
    }

    /// The observations with timestamps inside `iv`, as a sub-slice.
    pub fn in_interval(&self, iv: &TimeInterval) -> &[StPoint] {
        let lo = self.lower_bound(iv.start());
        let hi = self.points.partition_point(|p| p.t <= iv.end());
        &self.points[lo..hi]
    }

    /// Whether some observation falls inside the space–time box — i.e.
    /// whether this PHL "crosses" the box. This is the per-request core of
    /// LT-consistency (Definition 7).
    pub fn crosses(&self, b: &StBox) -> bool {
        self.in_interval(&b.span)
            .iter()
            .any(|p| b.rect.contains(&p.pos))
    }

    /// The user's interpolated position at time `t`, if `t` lies within
    /// the recorded span. Linear interpolation between the surrounding
    /// observations (the standard moving-object-database assumption).
    pub fn position_at(&self, t: TimeSec) -> Option<Point> {
        if self.points.is_empty() {
            return None;
        }
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if t < first.t || t > last.t {
            return None;
        }
        let i = self.lower_bound(t);
        if i < self.points.len() && self.points[i].t == t {
            return Some(self.points[i].pos);
        }
        // t lies strictly between points[i-1] and points[i].
        let a = self.points[i - 1];
        let b = self.points[i];
        let span = (b.t - a.t) as f64;
        if span == 0.0 {
            return Some(a.pos);
        }
        let f = (t - a.t) as f64 / span;
        Some(a.pos.lerp(&b.pos, f))
    }

    /// The observation closest to `q` under the space–time metric
    /// (Algorithm 1 line 2: "find the 3D point in its PHL closest to
    /// ⟨x,y,t⟩"). Exploits time-ordering: scans outward from the
    /// temporal insertion point and stops once the *temporal* component
    /// alone exceeds the best distance found.
    pub fn nearest_point(&self, q: &StPoint, scale: &SpaceTimeScale) -> Option<StPoint> {
        if self.points.is_empty() {
            return None;
        }
        let mid = self.lower_bound(q.t);
        let mut best: Option<(f64, StPoint)> = None;
        let mps = scale.meters_per_second;

        let consider = |p: &StPoint, best: &mut Option<(f64, StPoint)>| {
            let d = scale.dist_sq(q, p);
            // Exact ties resolve to the canonical smallest-(t, x, y)
            // observation, not the first one the walk happens to visit,
            // so every backend (and every insertion order) reports the
            // same representative point.
            // Distances order by `total_cmp`, like the grid's: a NaN
            // one loses to every real distance instead of shadowing it.
            let wins = match best {
                None => true,
                Some((bd, bp)) => d
                    .total_cmp(bd)
                    .then_with(|| crate::spatial::obs_cmp(p, bp))
                    .is_lt(),
            };
            if wins {
                *best = Some((d, *p));
            }
        };

        // Walk right (later points) and left (earlier points) in lockstep,
        // pruning each side once its time displacement alone is too large.
        let within = |tdist: f64, best: &Option<(f64, StPoint)>| {
            mps == 0.0 || best.is_none_or(|(bd, _)| (tdist * tdist).total_cmp(&bd).is_le())
        };
        let mut r = mid;
        let mut l = mid;
        loop {
            let mut advanced = false;
            if r < self.points.len() {
                let p = self.points[r];
                let tdist = mps * (p.t - q.t) as f64;
                if within(tdist, &best) {
                    consider(&p, &mut best);
                    r += 1;
                    advanced = true;
                } else {
                    r = self.points.len(); // prune the rest
                }
            }
            if l > 0 {
                let p = self.points[l - 1];
                let tdist = mps * (q.t - p.t) as f64;
                if within(tdist, &best) {
                    consider(&p, &mut best);
                    l -= 1;
                    advanced = true;
                } else {
                    l = 0; // prune the rest
                }
            }
            if (r >= self.points.len() && l == 0) || (!advanced && mps > 0.0) {
                break;
            }
            if !advanced {
                break;
            }
        }
        best.map(|(_, p)| p)
    }

    /// Swaps in a new point vector. Callers must keep the time-ordering
    /// invariant; compaction does (it only removes points).
    pub(crate) fn replace_points(&mut self, points: Vec<StPoint>) {
        debug_assert!(points.windows(2).all(|w| w[0].t <= w[1].t));
        self.points = points;
    }

    /// Total time covered by the history (0 for fewer than two points).
    pub fn time_span(&self) -> i64 {
        match (self.first(), self.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::Rect;

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn walk() -> Phl {
        // A user walking east 1 m/s, one update per 10 s.
        Phl::from_points((0..=10).map(|i| sp(10.0 * i as f64, 0.0, 10 * i)).collect())
    }

    #[test]
    fn push_enforces_ordering() {
        let mut phl = Phl::new();
        phl.push(sp(0.0, 0.0, 10));
        phl.push(sp(1.0, 0.0, 10)); // equal timestamps allowed
        phl.push(sp(2.0, 0.0, 20));
        assert_eq!(phl.len(), 3);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn push_rejects_regression() {
        let mut phl = Phl::new();
        phl.push(sp(0.0, 0.0, 10));
        phl.push(sp(1.0, 0.0, 5));
    }

    #[test]
    fn from_points_sorts() {
        let phl = Phl::from_points(vec![sp(2.0, 0.0, 20), sp(0.0, 0.0, 0), sp(1.0, 0.0, 10)]);
        let ts: Vec<i64> = phl.points().iter().map(|p| p.t.0).collect();
        assert_eq!(ts, vec![0, 10, 20]);
    }

    #[test]
    fn in_interval_is_inclusive() {
        let phl = walk();
        let iv = TimeInterval::new(TimeSec(20), TimeSec(40));
        let pts = phl.in_interval(&iv);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].t, TimeSec(20));
        assert_eq!(pts[2].t, TimeSec(40));
        let empty = phl.in_interval(&TimeInterval::new(TimeSec(101), TimeSec(200)));
        assert!(empty.is_empty());
    }

    #[test]
    fn crosses_requires_space_and_time() {
        let phl = walk();
        let hit = StBox::new(
            Rect::from_bounds(15.0, -1.0, 35.0, 1.0),
            TimeInterval::new(TimeSec(15), TimeSec(35)),
        );
        assert!(phl.crosses(&hit));
        // Right place, wrong time.
        let wrong_time = StBox::new(
            Rect::from_bounds(15.0, -1.0, 35.0, 1.0),
            TimeInterval::new(TimeSec(80), TimeSec(90)),
        );
        assert!(!phl.crosses(&wrong_time));
        // Right time, wrong place.
        let wrong_place = StBox::new(
            Rect::from_bounds(500.0, -1.0, 600.0, 1.0),
            TimeInterval::new(TimeSec(15), TimeSec(35)),
        );
        assert!(!phl.crosses(&wrong_place));
    }

    #[test]
    fn position_interpolates_linearly() {
        let phl = walk();
        assert_eq!(phl.position_at(TimeSec(15)), Some(Point::new(15.0, 0.0)));
        assert_eq!(phl.position_at(TimeSec(0)), Some(Point::new(0.0, 0.0)));
        assert_eq!(phl.position_at(TimeSec(100)), Some(Point::new(100.0, 0.0)));
        assert_eq!(phl.position_at(TimeSec(-1)), None);
        assert_eq!(phl.position_at(TimeSec(101)), None);
        assert_eq!(Phl::new().position_at(TimeSec(0)), None);
    }

    #[test]
    fn position_with_duplicate_timestamps() {
        let phl = Phl::from_points(vec![sp(0.0, 0.0, 10), sp(5.0, 5.0, 10)]);
        // Either observation is acceptable; implementation returns the
        // first at the exact timestamp.
        assert_eq!(phl.position_at(TimeSec(10)), Some(Point::new(0.0, 0.0)));
    }

    #[test]
    fn nearest_point_exact_and_pruned() {
        let phl = walk();
        let scale = SpaceTimeScale::new(1.0);
        // Query exactly on a sample.
        let q = sp(50.0, 0.0, 50);
        assert_eq!(phl.nearest_point(&q, &scale), Some(sp(50.0, 0.0, 50)));
        // Query off to the north at t=33: candidates are t=30 (d²=9+3²... )
        let q = sp(30.0, 4.0, 33);
        let near = phl.nearest_point(&q, &scale).unwrap();
        assert_eq!(near, sp(30.0, 0.0, 30));
        // Empty history.
        assert_eq!(Phl::new().nearest_point(&q, &scale), None);
    }

    #[test]
    fn nearest_point_matches_linear_scan() {
        let phl = walk();
        for scale in [
            SpaceTimeScale::new(0.0),
            SpaceTimeScale::new(0.5),
            SpaceTimeScale::new(10.0),
        ] {
            for q in [sp(-5.0, 3.0, -7), sp(33.0, -2.0, 95), sp(200.0, 0.0, 400)] {
                let fast = phl.nearest_point(&q, &scale).unwrap();
                let slow = phl
                    .points()
                    .iter()
                    .min_by(|a, b| {
                        scale
                            .dist_sq(&q, a)
                            .partial_cmp(&scale.dist_sq(&q, b))
                            .unwrap()
                    })
                    .unwrap();
                assert_eq!(scale.dist_sq(&q, &fast), scale.dist_sq(&q, slow));
            }
        }
    }

    #[test]
    fn time_span() {
        assert_eq!(walk().time_span(), 100);
        assert_eq!(Phl::new().time_span(), 0);
    }
}
