//! Randomized generalization — the paper's defence against inference
//! attacks on the cloak geometry.
//!
//! Conclusions: "In addition, randomization should be used as part of the
//! TS strategy to prevent inference attacks."
//!
//! The attack it prevents: Algorithm 1 returns the **minimum** bounding
//! box of the k selected PHL points plus the requester's exact point.
//! Minimality leaks — every face of the box touches one of those points,
//! and over many requests an adversary can intersect boxes to pin users
//! to box corners and edges. [`Randomizer`] breaks the geometry in two
//! seeded, deterministic-per-request ways:
//!
//! * **expansion** — each face moves outward by an independent random
//!   fraction of the box extent, so faces no longer touch data points;
//! * **translation jitter** — the expanded box slides by a random offset,
//!   bounded by each face's expansion so the box never slides off any
//!   point of the input: every witness Algorithm 1 counted, and the true
//!   point, stay covered.
//!
//! Randomness is derived from a server secret and the request's message
//! number, so replaying the log reproduces the same boxes (important for
//! audits) while an adversary without the secret cannot predict offsets.
//! Tolerance constraints are re-applied after randomization by moving
//! the faces back toward the input box, so a box within tolerance still
//! comes out covering its input.

use crate::Tolerance;
use hka_geo::{Duration, Rect, StBox, StPoint, TimeInterval, TimeSec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Randomization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizeConfig {
    /// Server secret seeding the per-request randomness.
    pub secret: u64,
    /// Maximum per-face outward expansion, as a fraction of the box's
    /// extent along that axis (e.g. `0.3` grows each face by up to 30 %).
    pub max_expand: f64,
    /// Maximum translation, as a fraction of the expansion of the face
    /// the box slides toward: below `1.0` no face comes back to the input
    /// box's face, and at `1.0` a face may just reach it.
    pub max_shift: f64,
    /// Minimum extents granted to degenerate boxes before expansion, so
    /// exact single-point contexts also get cover (meters, seconds).
    pub min_extent: (f64, Duration),
}

impl Default for RandomizeConfig {
    fn default() -> Self {
        RandomizeConfig {
            secret: 0x5eed_5eed,
            max_expand: 0.3,
            max_shift: 0.8,
            min_extent: (50.0, 60),
        }
    }
}

/// Deterministic, secret-keyed cloak randomizer.
#[derive(Debug, Clone)]
pub struct Randomizer {
    config: RandomizeConfig,
}

impl Randomizer {
    /// Creates a randomizer.
    pub fn new(config: RandomizeConfig) -> Self {
        assert!(
            (0.0..=10.0).contains(&config.max_expand),
            "max_expand out of range"
        );
        assert!(
            (0.0..=1.0).contains(&config.max_shift),
            "max_shift must be in [0,1]"
        );
        Randomizer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RandomizeConfig {
        &self.config
    }

    /// Randomizes a generalized context around the true request point.
    ///
    /// Guarantees: the result contains `exact` and satisfies `tolerance`;
    /// when `context` satisfies `tolerance` the result contains all of
    /// it, so every witness point it covered is still covered; identical
    /// inputs with the same `nonce` produce identical outputs.
    pub fn randomize(
        &self,
        context: &StBox,
        exact: &StPoint,
        nonce: u64,
        tolerance: &Tolerance,
    ) -> StBox {
        debug_assert!(context.contains(exact));
        let mut rng =
            StdRng::seed_from_u64(self.config.secret ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Ensure a minimum extent so exact contexts also receive cover.
        let (min_w, min_d) = self.config.min_extent;
        let mut rect = context.rect;
        if rect.width() < min_w || rect.height() < min_h(min_w) {
            rect = rect.union(&Rect::square(exact.pos, min_w));
        }
        let mut span = context.span;
        if span.duration() < min_d {
            span = span.union(&TimeInterval::new(exact.t - min_d / 2, exact.t + min_d / 2));
        }

        // Per-face expansion.
        let e = self.config.max_expand;
        let w = rect.width().max(1.0);
        let h = rect.height().max(1.0);
        let d = span.duration().max(1) as f64;
        let grow = |rng: &mut StdRng, extent: f64| rng.random_range(0.0..=e) * extent;
        let (left, down) = (grow(&mut rng, w), grow(&mut rng, h));
        let (right, up) = (grow(&mut rng, w), grow(&mut rng, h));
        let (before, after) = (grow(&mut rng, d) as Duration, grow(&mut rng, d) as Duration);

        // Translation jitter: the box slides by at most a fraction `s` of
        // the expansion of the face it slides toward, so no face crosses
        // back over the input's face (every witness the input covered, and
        // the exact point, stay covered) and, with `s < 1`, none lands on
        // it either. A face moves out by `expansion ± shift`, floored at 0
        // for the ulp by which a draw may overshoot its bound.
        let s = self.config.max_shift;
        let moved = |expansion: f64, shift: f64| (expansion + shift).max(0.0);
        let dx = rng.random_range(-s * left..=s * right);
        let dy = rng.random_range(-s * down..=s * up);
        let rect = Rect::from_bounds(
            rect.min().x - moved(left, dx),
            rect.min().y - moved(down, dy),
            rect.max().x + moved(right, -dx),
            rect.max().y + moved(up, -dy),
        );
        let dt = rng.random_range(-s * before as f64..=s * after as f64) as Duration;
        let span = TimeInterval::new(span.start() - (before + dt), span.end() + (after - dt));

        let out = StBox::new(rect, span);
        debug_assert!(out.contains_box(context), "randomization lost a witness");
        if tolerance.accepts(&out) {
            out
        } else if tolerance.accepts(context) {
            grow_within(context, &out, tolerance)
        } else {
            out.shrink_around(exact, tolerance.max_area, tolerance.max_duration)
        }
    }
}

/// `inner` grown toward `outer` (which contains it) by the largest
/// common fraction of every face's distance that `tolerance` accepts;
/// `inner` itself must be accepted. Growth is monotone in the fraction,
/// so a bisection finds it.
fn grow_within(inner: &StBox, outer: &StBox, tolerance: &Tolerance) -> StBox {
    let at = |f: f64| {
        let x = |a: f64, b: f64| a + f * (b - a);
        let t = |a: TimeSec, b: TimeSec| a + (f * (b - a) as f64) as Duration;
        let (i, o) = (&inner.rect, &outer.rect);
        StBox::new(
            Rect::from_bounds(
                x(i.min().x, o.min().x),
                x(i.min().y, o.min().y),
                x(i.max().x, o.max().x),
                x(i.max().y, o.max().y),
            ),
            TimeInterval::new(
                t(inner.span.start(), outer.span.start()),
                t(inner.span.end(), outer.span.end()),
            ),
        )
    };
    let (mut lo, mut hi) = (0.0, 1.0);
    for _ in 0..32 {
        let mid = (lo + hi) / 2.0;
        if tolerance.accepts(&at(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    at(lo)
}

/// Minimum height paired with the configured minimum width (square cover).
fn min_h(min_w: f64) -> f64 {
    min_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::TimeSec;

    fn ctx() -> (StBox, StPoint) {
        let exact = StPoint::xyt(50.0, 40.0, TimeSec(500));
        let b = StBox::new(
            Rect::from_bounds(0.0, 0.0, 100.0, 80.0),
            TimeInterval::new(TimeSec(0), TimeSec(1_000)),
        );
        (b, exact)
    }

    fn loose() -> Tolerance {
        Tolerance::new(1e12, 1_000_000)
    }

    #[test]
    fn output_contains_exact_point_and_input_box() {
        let r = Randomizer::new(RandomizeConfig::default());
        let (b, exact) = ctx();
        for nonce in 0..200 {
            let out = r.randomize(&b, &exact, nonce, &loose());
            assert!(out.contains(&exact), "nonce {nonce}");
            assert!(out.contains_box(&b), "nonce {nonce}: a witness fell out");
        }
    }

    #[test]
    fn expansion_only_grows_before_clamp() {
        let cfg = RandomizeConfig {
            max_shift: 0.0, // isolate expansion
            ..RandomizeConfig::default()
        };
        let r = Randomizer::new(cfg);
        let (b, exact) = ctx();
        for nonce in 0..50 {
            let out = r.randomize(&b, &exact, nonce, &loose());
            assert!(
                out.contains_box(&b),
                "nonce {nonce}: witnesses must stay covered"
            );
        }
    }

    #[test]
    fn deterministic_per_nonce() {
        let r = Randomizer::new(RandomizeConfig::default());
        let (b, exact) = ctx();
        let a = r.randomize(&b, &exact, 7, &loose());
        let b2 = r.randomize(&b, &exact, 7, &loose());
        assert_eq!(a, b2);
        let c = r.randomize(&b, &exact, 8, &loose());
        assert_ne!(a, c);
    }

    #[test]
    fn different_secrets_differ() {
        let (b, exact) = ctx();
        let r1 = Randomizer::new(RandomizeConfig {
            secret: 1,
            ..RandomizeConfig::default()
        });
        let r2 = Randomizer::new(RandomizeConfig {
            secret: 2,
            ..RandomizeConfig::default()
        });
        assert_ne!(
            r1.randomize(&b, &exact, 7, &loose()),
            r2.randomize(&b, &exact, 7, &loose())
        );
    }

    #[test]
    fn faces_detach_from_data_points() {
        // With expansion on, the emitted box's faces should (almost
        // always) not coincide with the minimal box's faces.
        let r = Randomizer::new(RandomizeConfig {
            max_shift: 0.0,
            ..RandomizeConfig::default()
        });
        let (b, exact) = ctx();
        let mut detached = 0;
        for nonce in 0..100 {
            let out = r.randomize(&b, &exact, nonce, &loose());
            if out.rect.min().x < b.rect.min().x - 1e-9 {
                detached += 1;
            }
        }
        assert!(detached > 90, "only {detached} detached faces");
    }

    #[test]
    fn faces_lie_strictly_outside_an_input_within_tolerance() {
        // At the default shift the jitter never brings a face back onto
        // the minimal box, which touches a witness on every face; neither
        // does a tolerance re-clamp while the input is strictly within it.
        let r = Randomizer::new(RandomizeConfig::default());
        let (b, exact) = ctx();
        for tolerance in [loose(), Tolerance::new(12_000.0, 1_500)] {
            for nonce in 0..200 {
                let out = r.randomize(&b, &exact, nonce, &tolerance);
                let (o, i) = (&out.rect, &b.rect);
                assert!(
                    o.min().x < i.min().x
                        && o.min().y < i.min().y
                        && o.max().x > i.max().x
                        && o.max().y > i.max().y,
                    "nonce {nonce}: a face touches the input box: {out:?}"
                );
                assert!(
                    out.span.start() < b.span.start() && out.span.end() > b.span.end(),
                    "nonce {nonce}: a time face touches the input box: {out:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_contexts_get_minimum_cover() {
        let r = Randomizer::new(RandomizeConfig::default());
        let exact = StPoint::xyt(10.0, 10.0, TimeSec(100));
        let out = r.randomize(&StBox::point(exact), &exact, 1, &loose());
        assert!(out.area() >= 50.0 * 50.0 * 0.99);
        assert!(out.duration() >= 59);
        assert!(out.contains(&exact));
    }

    #[test]
    fn tolerance_reclamped_after_randomization() {
        let r = Randomizer::new(RandomizeConfig::default());
        let (b, exact) = ctx();
        let tight = Tolerance::new(8_000.0, 1_000);
        for nonce in 0..50 {
            let out = r.randomize(&b, &exact, nonce, &tight);
            assert!(tight.accepts(&out), "nonce {nonce}");
            // The input was within tolerance: the clamp keeps it covered.
            assert!(out.contains_box(&b), "nonce {nonce}");
        }
    }

    #[test]
    #[should_panic(expected = "max_shift")]
    fn invalid_shift_rejected() {
        let _ = Randomizer::new(RandomizeConfig {
            max_shift: 1.5,
            ..RandomizeConfig::default()
        });
    }
}
