//! UWB anchor localization baseline.
//!
//! Infrastructure-based localization for nano-UAVs typically ranges against
//! pre-installed ultra-wideband anchors; the systems the paper cites report mean
//! errors of 0.22 m \[7\] and 0.28 m \[6\]. This baseline reproduces that behaviour:
//! four anchors in the corners of the arena, per-step ranges corrupted with the
//! noise and bias typical of indoor UWB, and a Gauss–Newton least-squares
//! position solve. Yaw is unobservable from ranges alone and is taken from
//! integrated odometry, as the cited systems do.

use crate::{BaselineLocalizer, BaselineResult};
use mcl_gridmap::{Point2, Pose2};
use mcl_num::RunningStats;
use mcl_sim::Sequence;
use rand::SeedableRng;

/// One fixed UWB anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UwbAnchor {
    /// Anchor position in the map frame.
    pub position: Point2,
}

/// Noise parameters of the UWB ranging model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UwbConfig {
    /// Standard deviation of the range noise, metres (indoor UWB: 10–20 cm).
    pub range_noise_std_m: f32,
    /// Constant ranging bias, metres (antenna delay miscalibration, NLOS).
    pub range_bias_m: f32,
    /// Gauss–Newton iterations per solve.
    pub solver_iterations: usize,
    /// Seed of the measurement noise.
    pub seed: u64,
}

impl Default for UwbConfig {
    fn default() -> Self {
        UwbConfig {
            range_noise_std_m: 0.15,
            range_bias_m: 0.05,
            solver_iterations: 8,
            seed: 1,
        }
    }
}

/// The UWB trilateration baseline.
#[derive(Debug, Clone)]
pub struct UwbLocalizer {
    anchors: Vec<UwbAnchor>,
    config: UwbConfig,
}

impl UwbLocalizer {
    /// Creates a localizer with explicit anchor positions.
    ///
    /// # Panics
    ///
    /// Panics with fewer than three anchors — 2D trilateration is then
    /// under-determined.
    pub fn new(anchors: Vec<UwbAnchor>, config: UwbConfig) -> Self {
        assert!(
            anchors.len() >= 3,
            "2D trilateration needs at least three anchors"
        );
        UwbLocalizer { anchors, config }
    }

    /// Four anchors in the corners of a `width × height` arena, 0.2 m inside the
    /// walls — the usual deployment of the cited systems.
    pub fn corner_anchors(width_m: f32, height_m: f32, config: UwbConfig) -> Self {
        let inset = 0.2;
        let anchors = vec![
            UwbAnchor {
                position: Point2::new(inset, inset),
            },
            UwbAnchor {
                position: Point2::new(width_m - inset, inset),
            },
            UwbAnchor {
                position: Point2::new(width_m - inset, height_m - inset),
            },
            UwbAnchor {
                position: Point2::new(inset, height_m - inset),
            },
        ];
        UwbLocalizer::new(anchors, config)
    }

    /// The anchor layout.
    pub fn anchors(&self) -> &[UwbAnchor] {
        &self.anchors
    }

    /// Solves for the position given one range per anchor, starting the
    /// Gauss–Newton iteration from `initial`.
    ///
    /// Unusable measurements (a NaN or ±∞ range, or a non-finite anchor
    /// position — [`mcl_sensor::anchor_is_usable`], the predicate the fused
    /// anchor-range kernel applies) are dropped: the corresponding anchor
    /// simply does not contribute a residual that iteration, instead of
    /// poisoning the normal equations.
    pub fn solve(&self, ranges: &[f32], initial: Point2) -> Point2 {
        let mut p = initial;
        for _ in 0..self.config.solver_iterations {
            // Normal equations for the linearized residuals r_i = |p - a_i| - z_i.
            let mut h00 = 0.0f64;
            let mut h01 = 0.0f64;
            let mut h11 = 0.0f64;
            let mut g0 = 0.0f64;
            let mut g1 = 0.0f64;
            for (anchor, &z) in self.anchors.iter().zip(ranges.iter()) {
                if !mcl_sensor::anchor_is_usable(anchor.position.x, anchor.position.y, z) {
                    continue;
                }
                let dx = f64::from(p.x - anchor.position.x);
                let dy = f64::from(p.y - anchor.position.y);
                let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
                let r = dist - f64::from(z);
                let jx = dx / dist;
                let jy = dy / dist;
                h00 += jx * jx;
                h01 += jx * jy;
                h11 += jy * jy;
                g0 += jx * r;
                g1 += jy * r;
            }
            let det = h00 * h11 - h01 * h01;
            if det.abs() < 1e-12 {
                break;
            }
            let step_x = (h11 * g0 - h01 * g1) / det;
            let step_y = (h00 * g1 - h01 * g0) / det;
            p = Point2::new(p.x - step_x as f32, p.y - step_y as f32);
            if step_x.abs() + step_y.abs() < 1e-6 {
                break;
            }
        }
        p
    }
}

impl BaselineLocalizer for UwbLocalizer {
    fn name(&self) -> &'static str {
        "UWB anchor trilateration"
    }

    fn evaluate(&mut self, sequence: &Sequence) -> BaselineResult {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut stats = RunningStats::new();
        // Yaw comes from odometry integration; position from trilateration.
        let mut odom_pose = sequence
            .steps
            .first()
            .map(|s| s.ground_truth)
            .unwrap_or_default();
        let mut estimate = odom_pose.position();
        for step in &sequence.steps {
            odom_pose = odom_pose.compose(&Pose2::new(
                step.odometry.dx,
                step.odometry.dy,
                step.odometry.dtheta,
            ));
            let truth = step.ground_truth.position();
            let ranges: Vec<f32> = self
                .anchors
                .iter()
                .map(|a| {
                    let true_range = truth.distance(&a.position);
                    true_range
                        + self.config.range_bias_m
                        + mcl_sensor::model::gaussian(&mut rng, 0.0, self.config.range_noise_std_m)
                })
                .collect();
            estimate = self.solve(&ranges, estimate);
            stats.push(f64::from(estimate.distance(&truth)));
        }
        BaselineResult {
            mean_error_m: stats.mean(),
            max_error_m: stats.max(),
            steps: sequence.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_sim::PaperScenario;

    #[test]
    fn noise_free_trilateration_recovers_the_exact_position() {
        let localizer = UwbLocalizer::corner_anchors(4.0, 4.0, UwbConfig::default());
        let truth = Point2::new(1.3, 2.2);
        let ranges: Vec<f32> = localizer
            .anchors()
            .iter()
            .map(|a| truth.distance(&a.position))
            .collect();
        let solved = localizer.solve(&ranges, Point2::new(2.0, 2.0));
        assert!(solved.distance(&truth) < 1e-3, "solved {solved}");
    }

    #[test]
    fn solver_converges_from_a_poor_initial_guess() {
        let localizer = UwbLocalizer::corner_anchors(4.0, 4.0, UwbConfig::default());
        let truth = Point2::new(3.1, 0.7);
        let ranges: Vec<f32> = localizer
            .anchors()
            .iter()
            .map(|a| truth.distance(&a.position))
            .collect();
        let solved = localizer.solve(&ranges, Point2::new(0.1, 3.9));
        assert!(solved.distance(&truth) < 1e-2, "solved {solved}");
    }

    #[test]
    fn non_finite_ranges_are_skipped_not_propagated() {
        // Regression: a NaN or infinite range used to flow straight into the
        // normal equations and turn the whole solve into NaN. With the
        // dropped-measurement rule the three healthy anchors still pin the
        // position exactly.
        let localizer = UwbLocalizer::corner_anchors(4.0, 4.0, UwbConfig::default());
        let truth = Point2::new(1.3, 2.2);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut ranges: Vec<f32> = localizer
                .anchors()
                .iter()
                .map(|a| truth.distance(&a.position))
                .collect();
            ranges[2] = bad;
            let solved = localizer.solve(&ranges, Point2::new(2.0, 2.0));
            assert!(
                solved.x.is_finite() && solved.y.is_finite(),
                "solve produced a non-finite position for range {bad}"
            );
            assert!(solved.distance(&truth) < 1e-3, "solved {solved}");
        }
        // All ranges dropped: the solver must return the (finite) initial
        // guess rather than NaN.
        let all_bad = vec![f32::NAN; 4];
        let solved = localizer.solve(&all_bad, Point2::new(2.0, 2.0));
        assert_eq!(solved, Point2::new(2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "three anchors")]
    fn too_few_anchors_are_rejected() {
        let _ = UwbLocalizer::new(
            vec![
                UwbAnchor {
                    position: Point2::new(0.0, 0.0),
                },
                UwbAnchor {
                    position: Point2::new(1.0, 0.0),
                },
            ],
            UwbConfig::default(),
        );
    }

    #[test]
    fn uwb_error_lands_in_the_published_band() {
        // The cited UWB systems achieve 0.22–0.28 m mean error; with realistic
        // noise and bias the baseline must land in that neighbourhood —
        // noticeably worse than the paper's 0.15 m MCL accuracy.
        let scenario = PaperScenario::with_settings(41, 1, 30.0);
        let sequence = &scenario.sequences()[0];
        let map = scenario.map();
        let mut localizer =
            UwbLocalizer::corner_anchors(map.width_m(), map.height_m(), UwbConfig::default());
        let result = localizer.evaluate(sequence);
        assert_eq!(result.steps, sequence.len());
        assert!(
            (0.08..0.45).contains(&result.mean_error_m),
            "UWB mean error {result:?}"
        );
        assert_eq!(localizer.name(), "UWB anchor trilateration");
    }
}
