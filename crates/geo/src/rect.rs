//! Axis-aligned rectangles (the paper's `Area`).

use crate::Point;
use std::fmt;

/// A closed axis-aligned rectangle `[x1, x2] × [y1, y2]`.
///
/// This is the paper's `Area` — "a set of points in bidimensional space
/// (possibly by a pair of intervals \[x1,x2\]\[y1,y2\])". Degenerate rectangles
/// (zero width and/or height) are allowed and represent exact locations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// Creates a rectangle from coordinate bounds (any order per axis).
    pub fn from_bounds(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    /// The degenerate rectangle containing exactly `p`.
    pub fn point(p: Point) -> Self {
        Rect {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// A square of side `side` centered on `c`.
    pub fn square(c: Point, side: f64) -> Self {
        let h = side.abs() / 2.0;
        Rect::from_bounds(c.x - h, c.y - h, c.x + h, c.y + h)
    }

    /// South-west corner.
    pub fn min(&self) -> Point {
        Point::new(self.min_x, self.min_y)
    }

    /// North-east corner.
    pub fn max(&self) -> Point {
        Point::new(self.max_x, self.max_y)
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Extent along x.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Extent along y.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area in square meters (`0` for degenerate rectangles).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether `p` lies inside the closed rectangle.
    pub fn contains(&self, p: &Point) -> bool {
        self.min_x <= p.x && p.x <= self.max_x && self.min_y <= p.y && p.y <= self.max_y
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && other.max_x <= self.max_x
            && other.max_y <= self.max_y
    }

    /// Whether the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The overlapping region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Smallest rectangle containing both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Extends the rectangle to cover `p`.
    pub fn expand_to(&self, p: &Point) -> Rect {
        Rect {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Minimum bounding rectangle of a non-empty point set.
    ///
    /// Returns `None` for an empty iterator. This is the planar half of
    /// Algorithm 1's "smallest 3D space containing these points".
    pub fn mbr<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::point(*first);
        for p in it {
            r = r.expand_to(p);
        }
        Some(r)
    }

    /// Grows the rectangle by `margin` on every side (shrinks for negative
    /// margins, collapsing to the center when over-shrunk).
    pub fn buffer(&self, margin: f64) -> Rect {
        let c = self.center();
        Rect {
            min_x: (self.min_x - margin).min(c.x),
            min_y: (self.min_y - margin).min(c.y),
            max_x: (self.max_x + margin).max(c.x),
            max_y: (self.max_y + margin).max(c.y),
        }
    }

    /// Uniformly shrinks the rectangle around `pivot` until its area does
    /// not exceed `max_area`, keeping `pivot` inside.
    ///
    /// This is the spatial half of line 12 of Algorithm 1 ("Area \[is\]
    /// uniformly reduced to satisfy the tolerance constraints"): both axes
    /// are scaled by the same factor `√(max_area / area)` and the result is
    /// re-anchored so that `pivot` remains covered.
    pub fn shrink_around(&self, pivot: &Point, max_area: f64) -> Rect {
        debug_assert!(self.contains(pivot), "pivot must lie inside the rect");
        let max_area = max_area.max(0.0);
        if self.area() <= max_area {
            return *self;
        }
        if max_area == 0.0 {
            return Rect::point(*pivot);
        }
        let scale = (max_area / self.area()).sqrt();
        let new_w = self.width() * scale;
        let new_h = self.height() * scale;
        // Anchor the shrunk rectangle at the same relative position the
        // pivot had in the original, which guarantees the pivot stays
        // inside and the result stays inside the original rectangle.
        let fx = if self.width() > 0.0 {
            (pivot.x - self.min_x) / self.width()
        } else {
            0.5
        };
        let fy = if self.height() > 0.0 {
            (pivot.y - self.min_y) / self.height()
        } else {
            0.5
        };
        // Rounding can carry a far edge an ulp past the pivot or past the
        // original rectangle, so each edge is clamped back between them.
        let min_x = (pivot.x - fx * new_w).max(self.min_x).min(pivot.x);
        let min_y = (pivot.y - fy * new_h).max(self.min_y).min(pivot.y);
        let mut out = Rect {
            min_x,
            min_y,
            max_x: (min_x + new_w).min(self.max_x).max(pivot.x),
            max_y: (min_y + new_h).min(self.max_y).max(pivot.y),
        };
        // The budget is a hard cap: nudge edges inward by single ulps
        // until floating-point round-up is gone, always moving an edge the
        // pivot is not sitting on so containment is preserved.
        while out.area() > max_area {
            if out.max_x > pivot.x {
                out.max_x = f64::next_down(out.max_x);
            } else if out.min_x < pivot.x {
                out.min_x = f64::next_up(out.min_x);
            } else if out.max_y > pivot.y {
                out.max_y = f64::next_down(out.max_y);
            } else if out.min_y < pivot.y {
                out.min_y = f64::next_up(out.min_y);
            } else {
                break; // degenerate at the pivot: area is 0
            }
        }
        out
    }

    /// Splits into four equal quadrants (SW, SE, NW, NE) — used by the
    /// Gruteser–Grunwald quadtree baseline.
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::from_bounds(self.min_x, self.min_y, c.x, c.y),
            Rect::from_bounds(c.x, self.min_y, self.max_x, c.y),
            Rect::from_bounds(self.min_x, c.y, c.x, self.max_y),
            Rect::from_bounds(c.x, c.y, self.max_x, self.max_y),
        ]
    }

    /// Index (0..4, order SW/SE/NW/NE) of the quadrant containing `p`,
    /// resolving boundary ties towards the north-east.
    pub fn quadrant_of(&self, p: &Point) -> usize {
        let c = self.center();
        let east = p.x >= c.x;
        let north = p.y >= c.y;
        match (north, east) {
            (false, false) => 0,
            (false, true) => 1,
            (true, false) => 2,
            (true, true) => 3,
        }
    }

    /// Clamps `p` to the nearest point inside the rectangle.
    pub fn clamp(&self, p: &Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }

    /// Squared distance from `p` to the rectangle (`0` when inside).
    pub fn dist_sq_to(&self, p: &Point) -> f64 {
        self.clamp(p).dist_sq(p)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1},{:.1}]x[{:.1},{:.1}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::from_bounds(x1, y1, x2, y2)
    }

    #[test]
    fn corners_normalize() {
        let a = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 8.0));
        assert_eq!(a.min(), Point::new(2.0, 1.0));
        assert_eq!(a.max(), Point::new(5.0, 8.0));
    }

    #[test]
    fn area_width_height() {
        let a = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.height(), 3.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(Rect::point(Point::new(1.0, 1.0)).area(), 0.0);
    }

    #[test]
    fn containment_is_closed() {
        let a = r(0.0, 0.0, 4.0, 3.0);
        assert!(a.contains(&Point::new(0.0, 0.0)));
        assert!(a.contains(&Point::new(4.0, 3.0)));
        assert!(!a.contains(&Point::new(4.0001, 3.0)));
    }

    #[test]
    fn rect_containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&r(1.0, 1.0, 9.0, 9.0)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&r(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b), Some(r(2.0, 2.0, 4.0, 4.0)));
        let touching = r(4.0, 0.0, 6.0, 4.0);
        assert!(a.intersects(&touching));
        assert_eq!(touching.intersection(&a).unwrap().area(), 0.0);
        let apart = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&apart), None);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(5.0, -2.0, 6.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -2.0, 6.0, 1.0));
    }

    #[test]
    fn mbr_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(4.0, 2.0),
        ];
        let m = Rect::mbr(pts.iter()).unwrap();
        assert_eq!(m, r(-2.0, 0.0, 4.0, 5.0));
        assert!(Rect::mbr([].iter()).is_none());
        assert_eq!(
            Rect::mbr([Point::new(3.0, 3.0)].iter()).unwrap(),
            Rect::point(Point::new(3.0, 3.0))
        );
    }

    #[test]
    fn buffer_grows_and_shrinks() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.buffer(2.0), r(-2.0, -2.0, 12.0, 12.0));
        assert_eq!(a.buffer(-3.0), r(3.0, 3.0, 7.0, 7.0));
        // Over-shrinking collapses to the center rather than inverting.
        assert_eq!(a.buffer(-50.0), Rect::point(Point::new(5.0, 5.0)));
    }

    #[test]
    fn shrink_around_respects_budget_and_pivot() {
        let a = r(0.0, 0.0, 100.0, 100.0);
        let pivot = Point::new(90.0, 10.0);
        let s = a.shrink_around(&pivot, 100.0);
        assert!(s.area() <= 100.0 + 1e-9);
        assert!(s.contains(&pivot));
        assert!(a.contains_rect(&s));
    }

    #[test]
    fn shrink_around_keeps_a_pivot_on_the_far_corner() {
        // A pivot on the max corner, where `min + new_w` can round an ulp
        // short of it or past the original rectangle.
        let pivot = Point::new(1980.7952290816895, 1974.3817623037742);
        for i in 0..200 {
            let a = r(
                100.0 + i as f64 * 0.731,
                50.0 + i as f64 * 0.417,
                pivot.x,
                pivot.y,
            );
            for budget in [1234.5, 1e5, 3.3e5, 739103.4967507254] {
                let s = a.shrink_around(&pivot, budget);
                assert!(s.contains(&pivot), "{a:?} {budget}: {s:?}");
                assert!(a.contains_rect(&s), "{a:?} {budget}: {s:?}");
                assert!(s.area() <= budget, "{a:?} {budget}: {s:?}");
            }
        }
    }

    #[test]
    fn shrink_around_noop_within_budget() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.shrink_around(&Point::new(5.0, 5.0), 100.0), a);
    }

    #[test]
    fn shrink_to_zero_area_collapses() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let p = Point::new(2.0, 3.0);
        assert_eq!(a.shrink_around(&p, 0.0), Rect::point(p));
    }

    #[test]
    fn shrink_degenerate_rect_is_stable() {
        let a = r(0.0, 0.0, 10.0, 0.0); // zero height, zero area
        let p = Point::new(5.0, 0.0);
        assert_eq!(a.shrink_around(&p, 1.0), a);
    }

    #[test]
    fn quadrants_partition() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let qs = a.quadrants();
        let total: f64 = qs.iter().map(|q| q.area()).sum();
        assert_eq!(total, a.area());
        for q in &qs {
            assert!(a.contains_rect(q));
        }
        assert_eq!(a.quadrant_of(&Point::new(1.0, 1.0)), 0);
        assert_eq!(a.quadrant_of(&Point::new(9.0, 1.0)), 1);
        assert_eq!(a.quadrant_of(&Point::new(1.0, 9.0)), 2);
        assert_eq!(a.quadrant_of(&Point::new(9.0, 9.0)), 3);
        // Center belongs to the NE quadrant by the tie rule.
        assert_eq!(a.quadrant_of(&Point::new(5.0, 5.0)), 3);
    }

    #[test]
    fn clamp_and_distance() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.clamp(&Point::new(-5.0, 5.0)), Point::new(0.0, 5.0));
        assert_eq!(a.dist_sq_to(&Point::new(-3.0, 4.0)), 9.0);
        assert_eq!(a.dist_sq_to(&Point::new(5.0, 5.0)), 0.0);
        assert_eq!(a.dist_sq_to(&Point::new(13.0, 14.0)), 25.0);
    }

    #[test]
    fn square_constructor() {
        let s = Rect::square(Point::new(5.0, 5.0), 4.0);
        assert_eq!(s, r(3.0, 3.0, 7.0, 7.0));
        assert_eq!(s.center(), Point::new(5.0, 5.0));
    }
}
