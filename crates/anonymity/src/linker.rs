//! Service-request linkability (Definition 4).
//!
//! "Linkability is represented by a partial function Link() from R × R to
//! [0,1], intuitively defining for a pair of requests r_i and r_j … the
//! likelihood value of the two requests being issued by the same
//! individual." The trusted server "can replicate the techniques used by a
//! possible attacker, hence computing a likelihood value for the
//! linkability of any pair of issued requests."

use crate::SpRequest;

/// A linkability function over provider-visible requests.
///
/// Implementations must be symmetric (`link(a,b) == link(b,a)`) and
/// reflexive (`link(r,r) == 1`), the two properties Definition 4 assumes;
/// the property tests enforce both for every implementation in this crate.
pub trait Linker {
    /// Likelihood, in `[0, 1]`, that `a` and `b` were issued by the same
    /// individual.
    fn link(&self, a: &SpRequest, b: &SpRequest) -> f64;
}

/// Links requests sharing a pseudonym: "any two requests with the same
/// UserPseudonym are clearly linkable, since we assume that pseudonyms are
/// not shared by different individuals."
#[derive(Debug, Clone, Copy, Default)]
pub struct PseudonymLinker;

impl Linker for PseudonymLinker {
    fn link(&self, a: &SpRequest, b: &SpRequest) -> f64 {
        let _span = hka_obs::span!("linker.link");
        if a.pseudonym == b.pseudonym {
            1.0
        } else {
            0.0
        }
    }
}

/// Parameters of the trajectory-tracking attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerParams {
    /// Hard feasibility gate: a user cannot move faster than this (m/s).
    pub max_speed: f64,
    /// Typical movement speed (m/s); the likelihood of an association
    /// decays as the required speed approaches `max_speed` relative to
    /// this comfort point.
    pub typical_speed: f64,
    /// Temporal horizon (s): associations across gaps much longer than
    /// this decay towards 0 (crowds mix over time).
    pub horizon: f64,
}

impl Default for TrackerParams {
    fn default() -> Self {
        TrackerParams {
            max_speed: 15.0,    // fast urban driving
            typical_speed: 2.0, // brisk walk
            horizon: 1_800.0,   // 30 minutes
        }
    }
}

/// The multi-target-tracking attack of the paper's ref. \[12\]
/// (Gruteser–Hoh, "On the Anonymity of Periodic Location Samples"),
/// reduced to its decision core: gate candidate associations on physical
/// reachability, then weight by how ordinary the implied movement is.
///
/// Two requests from different pseudonyms receive likelihood
///
/// * `0` when their contexts overlap in time but not in space (one body
///   cannot be in two places at once — note that *overlapping* contexts
///   are compatible and link strongly);
/// * `0` when bridging the spatial gap within the temporal gap would
///   require exceeding `max_speed`;
/// * otherwise `exp(−v/typical_speed) · exp(−Δt/horizon)` where `v` is the
///   required speed — near-in-space, near-in-time request pairs link
///   strongly, distant ones weakly.
///
/// Same-pseudonym pairs link at `1` (the pseudonym itself is the link).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackerLinker {
    /// Attack parameters.
    pub params: TrackerParams,
}

impl TrackerLinker {
    /// Creates a tracker with the given parameters.
    pub fn new(params: TrackerParams) -> Self {
        TrackerLinker { params }
    }
}

impl Linker for TrackerLinker {
    fn link(&self, a: &SpRequest, b: &SpRequest) -> f64 {
        let _span = hka_obs::span!("linker.link");
        if a.pseudonym == b.pseudonym {
            return 1.0;
        }
        let (ca, cb) = (&a.context, &b.context);
        // Spatial gap between the two areas (0 when they overlap).
        let gap = {
            // Exact minimum distance between the rectangles (separable per
            // axis; 0 when they overlap). Symmetric by construction.
            let dx = (cb.rect.min().x - ca.rect.max().x)
                .max(ca.rect.min().x - cb.rect.max().x)
                .max(0.0);
            let dy = (cb.rect.min().y - ca.rect.max().y)
                .max(ca.rect.min().y - cb.rect.max().y)
                .max(0.0);
            (dx * dx + dy * dy).sqrt()
        };
        // Temporal gap between the two intervals (0 when they overlap).
        let dt = if ca.span.intersects(&cb.span) {
            0.0
        } else if ca.span.end() < cb.span.start() {
            (cb.span.start() - ca.span.end()) as f64
        } else {
            (ca.span.start() - cb.span.end()) as f64
        };

        if dt == 0.0 {
            // Simultaneous (overlapping intervals): compatible only when
            // the areas also overlap.
            return if gap == 0.0 { 1.0 } else { 0.0 };
        }
        let required = gap / dt;
        if required > self.params.max_speed {
            return 0.0;
        }
        let speed_factor = (-required / self.params.typical_speed).exp();
        let time_factor = (-dt / self.params.horizon).exp();
        speed_factor * time_factor
    }
}

/// The strongest of several attacks: `Link(a,b) = max_i Link_i(a,b)`.
/// The TS must defend against the best technique available, so composing
/// linkers with `max` is the conservative choice.
pub struct CompositeLinker {
    linkers: Vec<Box<dyn Linker + Send + Sync>>,
}

impl CompositeLinker {
    /// Composes the given linkers.
    pub fn new(linkers: Vec<Box<dyn Linker + Send + Sync>>) -> Self {
        CompositeLinker { linkers }
    }

    /// Pseudonym + default tracker: the attack model used throughout the
    /// experiments.
    pub fn standard() -> Self {
        CompositeLinker::new(vec![
            Box::new(PseudonymLinker),
            Box::new(TrackerLinker::default()),
        ])
    }
}

impl Linker for CompositeLinker {
    fn link(&self, a: &SpRequest, b: &SpRequest) -> f64 {
        self.linkers
            .iter()
            .map(|l| l.link(a, b))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgId, Pseudonym, ServiceId};
    use hka_geo::{Rect, StBox, TimeInterval, TimeSec};

    fn req(pseudo: u64, x: f64, t: i64) -> SpRequest {
        SpRequest::new(
            MsgId(0),
            Pseudonym(pseudo),
            StBox::new(
                Rect::from_bounds(x, 0.0, x + 10.0, 10.0),
                TimeInterval::new(TimeSec(t), TimeSec(t + 10)),
            ),
            ServiceId(0),
        )
    }

    #[test]
    fn pseudonym_linker_is_equality() {
        let l = PseudonymLinker;
        assert_eq!(l.link(&req(1, 0.0, 0), &req(1, 500.0, 0)), 1.0);
        assert_eq!(l.link(&req(1, 0.0, 0), &req(2, 0.0, 0)), 0.0);
    }

    #[test]
    fn tracker_same_pseudonym_links_fully() {
        let l = TrackerLinker::default();
        assert_eq!(l.link(&req(1, 0.0, 0), &req(1, 9999.0, 1)), 1.0);
    }

    #[test]
    fn tracker_simultaneous_distant_requests_cannot_link() {
        let l = TrackerLinker::default();
        // Overlapping time intervals, disjoint areas.
        assert_eq!(l.link(&req(1, 0.0, 0), &req(2, 500.0, 5)), 0.0);
    }

    #[test]
    fn tracker_overlapping_contexts_link_strongly() {
        let l = TrackerLinker::default();
        assert_eq!(l.link(&req(1, 0.0, 0), &req(2, 5.0, 5)), 1.0);
    }

    #[test]
    fn tracker_gates_on_max_speed() {
        let l = TrackerLinker::default();
        // 10 km gap, 60 s apart → 166 m/s, impossible.
        assert_eq!(l.link(&req(1, 0.0, 0), &req(2, 10_000.0, 70)), 0.0);
        // 60 m gap (rect edges 60 apart), 60 s apart → 1 m/s, plausible.
        let v = l.link(&req(1, 0.0, 0), &req(2, 70.0, 70));
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn tracker_likelihood_decays_with_distance_and_time() {
        let l = TrackerLinker::default();
        let near = l.link(&req(1, 0.0, 0), &req(2, 20.0, 60));
        let far = l.link(&req(1, 0.0, 0), &req(2, 200.0, 60));
        assert!(near > far, "{near} should exceed {far}");
        let soon = l.link(&req(1, 0.0, 0), &req(2, 20.0, 60));
        let late = l.link(&req(1, 0.0, 0), &req(2, 20.0, 4000));
        assert!(soon > late, "{soon} should exceed {late}");
    }

    #[test]
    fn tracker_is_symmetric_and_reflexive() {
        let l = TrackerLinker::default();
        let (a, b) = (req(1, 0.0, 0), req(2, 30.0, 100));
        assert_eq!(l.link(&a, &b), l.link(&b, &a));
        assert_eq!(l.link(&a, &a), 1.0);
    }

    #[test]
    fn composite_takes_the_best_attack() {
        let l = CompositeLinker::standard();
        // Different pseudonyms, plausible movement: tracker contributes.
        let v = l.link(&req(1, 0.0, 0), &req(2, 30.0, 60));
        assert!(v > 0.0);
        // Same pseudonym, impossible movement: pseudonym contributes.
        assert_eq!(l.link(&req(3, 0.0, 0), &req(3, 1e6, 1)), 1.0);
    }

    #[test]
    fn likelihoods_stay_in_unit_interval() {
        let l = CompositeLinker::standard();
        for (x, t) in [(0.0, 0), (5.0, 3), (100.0, 30), (1e5, 50), (0.0, 100_000)] {
            let v = l.link(&req(1, 0.0, 0), &req(2, x, t));
            assert!((0.0..=1.0).contains(&v), "link({x},{t}) = {v}");
        }
    }
}
