//! Deployability analysis — the paper's purpose (b).
//!
//! "We believe that the formal framework … can be used … (b) to evaluate
//! if the privacy policies that a location-based service guarantees are
//! sufficient to deploy the service in a certain area. This may be
//! achieved by considering, for example, the typical density of users,
//! their movement patterns, their concerns about privacy, as well as the
//! spatio-temporal tolerance constraints of the service and the presence
//! of natural mix-zones in the area."
//!
//! [`evaluate_deployment`] samples request opportunities from the
//! recorded movement data of a district and measures, for a given k and
//! service tolerance, how often Algorithm 1 would succeed, how large the
//! offered contexts would be, and how often an on-demand unlink would be
//! available as a fallback — the numbers an operator needs before turning
//! a service on.

use crate::{algorithm1_first, MixZoneManager, Tolerance, UnlinkDecision};
use hka_geo::StPoint;
use hka_trajectory::{SpatialIndex, TrajectoryStore, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a deployability study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningConfig {
    /// The anonymity level the deployed service must sustain.
    pub k: usize,
    /// The service's tolerance constraints.
    pub tolerance: Tolerance,
    /// How many request opportunities to sample.
    pub samples: usize,
    /// RNG seed for the sampling.
    pub seed: u64,
}

/// The operator-facing report.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Fraction of sampled requests for which Algorithm 1 met the
    /// tolerance at level k.
    pub hk_success_rate: f64,
    /// Mean area (m²) of the successful generalized contexts.
    pub mean_area: f64,
    /// Mean duration (s) of the successful generalized contexts.
    pub mean_duration: f64,
    /// Fraction of *failed* generalizations for which an on-demand
    /// mix-zone (k diverging trajectories) was available as a fallback.
    pub unlink_fallback_rate: f64,
    /// Fraction of samples with no protection path at all (generalization
    /// failed and no unlink available) — the expected at-risk rate.
    pub at_risk_rate: f64,
    /// Number of samples actually evaluated.
    pub samples: usize,
}

impl DeploymentReport {
    /// A simple go/no-go: deployable when at most `max_at_risk` of
    /// requests would end up unprotected.
    pub fn deployable(&self, max_at_risk: f64) -> bool {
        self.at_risk_rate <= max_at_risk
    }
}

/// Runs the study: samples random recorded observations (a user at a
/// place at a time — exactly the situations in which a request could be
/// issued) and evaluates the protection machinery on each.
pub fn evaluate_deployment(
    store: &TrajectoryStore,
    index: &(impl SpatialIndex + ?Sized),
    mixzones: &MixZoneManager,
    cfg: &PlanningConfig,
) -> DeploymentReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let users: Vec<UserId> = store.users().collect();
    let mut mz = mixzones.clone();

    let mut evaluated = 0usize;
    let mut ok = 0usize;
    let mut area_sum = 0.0;
    let mut dur_sum = 0.0;
    let mut failed = 0usize;
    let mut fallback = 0usize;
    let mut at_risk = 0usize;

    if users.is_empty() || cfg.samples == 0 {
        return DeploymentReport {
            hk_success_rate: 0.0,
            mean_area: 0.0,
            mean_duration: 0.0,
            unlink_fallback_rate: 0.0,
            at_risk_rate: 0.0,
            samples: 0,
        };
    }

    for _ in 0..cfg.samples {
        let user = users[rng.random_range(0..users.len())];
        let phl = store.phl(user).expect("listed user");
        if phl.is_empty() {
            continue;
        }
        let seed_pt: StPoint = phl.points()[rng.random_range(0..phl.len())];
        evaluated += 1;
        let g = algorithm1_first(index, &seed_pt, user, cfg.k, &cfg.tolerance);
        if g.hk_anonymity {
            ok += 1;
            area_sum += g.context.area();
            dur_sum += g.context.duration() as f64;
        } else {
            failed += 1;
            let unlink = mz.try_unlink(
                |b, f| index.scan_in(b, f),
                |u| store.phl(u),
                user,
                &seed_pt,
                cfg.k,
            );
            match unlink {
                UnlinkDecision::Unlinked { .. } => fallback += 1,
                UnlinkDecision::Infeasible { .. } => at_risk += 1,
            }
        }
    }

    DeploymentReport {
        hk_success_rate: if evaluated == 0 {
            0.0
        } else {
            ok as f64 / evaluated as f64
        },
        mean_area: if ok == 0 { 0.0 } else { area_sum / ok as f64 },
        mean_duration: if ok == 0 { 0.0 } else { dur_sum / ok as f64 },
        unlink_fallback_rate: if failed == 0 {
            0.0
        } else {
            fallback as f64 / failed as f64
        },
        at_risk_rate: if evaluated == 0 {
            0.0
        } else {
            at_risk as f64 / evaluated as f64
        },
        samples: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixZoneConfig;
    use hka_geo::{SpaceTimeScale, StPoint, TimeSec};
    use hka_trajectory::{GridIndex, GridIndexConfig};

    fn sp(x: f64, y: f64, t: i64) -> StPoint {
        StPoint::xyt(x, y, TimeSec(t))
    }

    fn dense_store(n: u64) -> (TrajectoryStore, GridIndex) {
        let mut store = TrajectoryStore::new();
        for u in 0..n {
            for t in 0..20 {
                store.record(
                    UserId(u),
                    sp(
                        (u % 10) as f64 * 20.0,
                        (u / 10) as f64 * 20.0 + t as f64,
                        t * 60,
                    ),
                );
            }
        }
        let index = GridIndex::build(
            &store,
            GridIndexConfig {
                cell_size: 100.0,
                cell_duration: 300,
                scale: SpaceTimeScale::new(1.0),
            },
        );
        (store, index)
    }

    #[test]
    fn dense_district_is_deployable() {
        let (store, index) = dense_store(50);
        let mz = MixZoneManager::new(MixZoneConfig::default());
        let report = evaluate_deployment(
            &store,
            &index,
            &mz,
            &PlanningConfig {
                k: 5,
                tolerance: Tolerance::new(1e8, 86_400),
                samples: 100,
                seed: 1,
            },
        );
        assert_eq!(report.samples, 100);
        assert!(report.hk_success_rate > 0.95, "{report:?}");
        assert!(report.deployable(0.05));
    }

    #[test]
    fn empty_district_is_not() {
        let store = TrajectoryStore::new();
        let index = GridIndex::build(
            &store,
            GridIndexConfig {
                cell_size: 100.0,
                cell_duration: 300,
                scale: SpaceTimeScale::new(1.0),
            },
        );
        let mz = MixZoneManager::new(MixZoneConfig::default());
        let report = evaluate_deployment(
            &store,
            &index,
            &mz,
            &PlanningConfig {
                k: 5,
                tolerance: Tolerance::navigation(),
                samples: 10,
                seed: 1,
            },
        );
        assert_eq!(report.samples, 0);
    }

    #[test]
    fn stricter_tolerance_lowers_success() {
        let (store, index) = dense_store(30);
        let mz = MixZoneManager::new(MixZoneConfig::default());
        let loose = evaluate_deployment(
            &store,
            &index,
            &mz,
            &PlanningConfig {
                k: 10,
                tolerance: Tolerance::new(1e8, 86_400),
                samples: 200,
                seed: 2,
            },
        );
        let strict = evaluate_deployment(
            &store,
            &index,
            &mz,
            &PlanningConfig {
                k: 10,
                tolerance: Tolerance::new(100.0, 30),
                samples: 200,
                seed: 2,
            },
        );
        assert!(
            strict.hk_success_rate <= loose.hk_success_rate,
            "strict {strict:?} vs loose {loose:?}"
        );
    }

    #[test]
    fn higher_k_cannot_increase_success() {
        let (store, index) = dense_store(30);
        let mz = MixZoneManager::new(MixZoneConfig::default());
        let mk = |k| PlanningConfig {
            k,
            tolerance: Tolerance::new(50_000.0, 1_200),
            samples: 200,
            seed: 3,
        };
        let k2 = evaluate_deployment(&store, &index, &mz, &mk(2));
        let k20 = evaluate_deployment(&store, &index, &mz, &mk(20));
        assert!(k20.hk_success_rate <= k2.hk_success_rate);
    }
}
