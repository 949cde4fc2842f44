//! Odometry motion model (the prediction step).
//!
//! Odometry on the Crazyflie comes from the Flow-deck's optical-flow sensor fused
//! by the stock extended Kalman filter; the GAP9 receives pose increments. The
//! prediction step samples every particle from the proposal distribution
//! `p(x_t | x_{t−1}, u_t)` by composing the particle's pose with the body-frame
//! odometry increment perturbed by zero-mean Gaussian noise with the configured
//! standard deviations `σ_odom = (σ_x, σ_y, σ_θ)`.

use crate::particle::Particle;
use crate::rng::CounterRng;
use mcl_gridmap::Pose2;
use mcl_num::{normalize_angle, wrap_angle_once, Scalar};
use serde::{Deserialize, Serialize};

/// A body-frame odometry increment `u_t`: how far the drone moved and rotated
/// since the previous motion update, expressed in its own (previous) body frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MotionDelta {
    /// Forward displacement, metres.
    pub dx: f32,
    /// Leftward displacement, metres.
    pub dy: f32,
    /// Yaw change, radians.
    pub dtheta: f32,
}

impl MotionDelta {
    /// Creates an increment.
    pub fn new(dx: f32, dy: f32, dtheta: f32) -> Self {
        MotionDelta { dx, dy, dtheta }
    }

    /// The increment that maps `previous` onto `current` (both world-frame poses),
    /// expressed in `previous`'s body frame — what a perfect odometry would report.
    pub fn between(previous: &Pose2, current: &Pose2) -> Self {
        let rel = previous.relative_to(current);
        MotionDelta {
            dx: rel.x,
            dy: rel.y,
            dtheta: mcl_num::angular_difference(current.theta, previous.theta),
        }
    }

    /// Translation magnitude of the increment, metres.
    pub fn translation(&self) -> f32 {
        (self.dx * self.dx + self.dy * self.dy).sqrt()
    }

    /// Rotation magnitude of the increment, radians.
    pub fn rotation(&self) -> f32 {
        self.dtheta.abs()
    }

    /// Accumulates another increment on top of this one (both body-frame).
    ///
    /// Used by the asynchronous update gating: odometry arrives faster than the
    /// observation gate opens, so increments are composed until they are applied.
    pub fn accumulate(&self, next: &MotionDelta) -> Self {
        // Compose the two relative transforms.
        let first = Pose2::new(self.dx, self.dy, self.dtheta);
        let second = Pose2::new(next.dx, next.dy, next.dtheta);
        let composed = first.compose(&second);
        MotionDelta {
            dx: composed.x,
            dy: composed.y,
            dtheta: mcl_num::angular_difference(composed.theta, 0.0),
        }
    }

    /// Returns `true` when both translation and rotation are negligible.
    pub fn is_zero(&self) -> bool {
        self.translation() < 1e-9 && self.rotation() < 1e-9
    }
}

/// The sampling motion model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionModel {
    sigma: [f32; 3],
}

impl MotionModel {
    /// Creates a motion model with the noise standard deviations
    /// `(σ_x, σ_y, σ_θ)`.
    pub fn new(sigma_odom: [f32; 3]) -> Self {
        MotionModel { sigma: sigma_odom }
    }

    /// The configured noise standard deviations.
    pub fn sigma(&self) -> [f32; 3] {
        self.sigma
    }

    /// Samples the new pose of one particle given the odometry increment.
    ///
    /// The per-particle noise stream is identified by `(seed, update, index)` so
    /// that the result is identical no matter which core processes the particle.
    /// It runs the prediction kernel's per-particle body on the particle's
    /// pose, so it returns the bits every kernel backend writes for the same
    /// particle.
    pub fn sample<S: Scalar>(
        &self,
        particle: &Particle<S>,
        delta: &MotionDelta,
        seed: u64,
        update_index: u64,
        particle_index: u64,
    ) -> Particle<S> {
        let [x, y, theta] = self.predict(
            [
                particle.x.to_f32(),
                particle.y.to_f32(),
                particle.theta.to_f32(),
            ],
            delta,
            CounterRng::for_particle(seed, update_index, particle_index),
        );
        Particle {
            x: S::from_f32(x),
            y: S::from_f32(y),
            theta: S::from_f32(theta),
            weight: particle.weight,
        }
    }

    /// The prediction of one `(x, y, θ)` pose with its noise drawn from `rng`:
    /// [`MotionModel::predict_lane`], completed by
    /// [`MotionModel::predict_wrapped`] when a heading left the one-step wrap
    /// window. The per-particle reference every kernel body matches.
    #[inline(always)]
    pub(crate) fn predict(&self, pose: [f32; 3], delta: &MotionDelta, rng: CounterRng) -> [f32; 3] {
        let (moved, in_window) = self.predict_lane(pose, delta, rng);
        if in_window {
            moved
        } else {
            self.predict_wrapped(pose, delta, rng)
        }
    }

    /// The branch-free per-particle body shared by the lane-group loop, its
    /// tail and [`MotionModel::sample`].
    ///
    /// Four uniforms make two paired Box–Muller draws: the first pair is the
    /// `(dx, dy)` noise, the cosine output of the second the `dθ` noise. The
    /// stored heading and the new one are wrapped with the one-step
    /// [`wrap_angle_once`] select and rotated with the polynomial
    /// [`mcl_num::poly::sin_cos`]; there is no libm call and no fused
    /// multiply-add, so a lane group vectorizes it with the same bits. The
    /// flag is `false` when either heading needed more than one `±2π` step
    /// (or is NaN); the caller must then use [`MotionModel::predict_wrapped`].
    #[inline(always)]
    pub(crate) fn predict_lane(
        &self,
        pose: [f32; 3],
        delta: &MotionDelta,
        rng: CounterRng,
    ) -> ([f32; 3], bool) {
        compose(pose, self.noisy_delta(delta, rng), wrap_angle_once)
    }

    /// [`MotionModel::predict_lane`] with both headings wrapped by
    /// [`normalize_angle`]: the cold path for the rare lane whose heading or
    /// turn is out of the one-step window (a huge or non-finite increment, or
    /// an out-of-range stored yaw). Inside the window the two wraps agree bit
    /// for bit, so this only differs where the fast body cannot answer; a NaN
    /// heading stays NaN.
    #[cold]
    #[inline(never)]
    pub(crate) fn predict_wrapped(
        &self,
        pose: [f32; 3],
        delta: &MotionDelta,
        rng: CounterRng,
    ) -> [f32; 3] {
        compose(pose, self.noisy_delta(delta, rng), |a| {
            (normalize_angle(a), true)
        })
        .0
    }

    /// The odometry increment perturbed by the particle's noise. A component
    /// with `σ ≤ 0` keeps its mean exactly.
    #[inline(always)]
    fn noisy_delta(&self, delta: &MotionDelta, mut rng: CounterRng) -> [f32; 3] {
        let (gx, gy) = rng.normal_pair();
        let (gtheta, _) = rng.normal_pair();
        let jitter = |mean: f32, std: f32, g: f32| if std <= 0.0 { mean } else { mean + std * g };
        [
            jitter(delta.dx, self.sigma[0], gx),
            jitter(delta.dy, self.sigma[1], gy),
            jitter(delta.dtheta, self.sigma[2], gtheta),
        ]
    }

    /// Applies [`MotionModel::sample`] to an array-of-structs particle slice in
    /// place. This is the AoS baseline kept for the micro-benchmarks; the
    /// filter's hot path runs [`crate::kernel::motion_predict`] over the SoA
    /// buffers instead, with identical per-particle math and RNG streams.
    pub fn apply<S: Scalar>(
        &self,
        particles: &mut [Particle<S>],
        delta: &MotionDelta,
        seed: u64,
        update_index: u64,
        first_index: u64,
    ) {
        for (i, p) in particles.iter_mut().enumerate() {
            *p = self.sample(p, delta, seed, update_index, first_index + i as u64);
        }
    }
}

/// Composes a pose with a body-frame `[dx, dy, dθ]` increment: the heading
/// is wrapped by `wrap`, rotated with the polynomial `sin_cos`, and the new
/// heading `θ + dθ` is wrapped again. Returns `false` when either wrap
/// reported it could not answer.
#[inline(always)]
fn compose(pose: [f32; 3], noisy: [f32; 3], wrap: impl Fn(f32) -> (f32, bool)) -> ([f32; 3], bool) {
    let (theta, theta_ok) = wrap(pose[2]);
    let (s, c) = mcl_num::poly::sin_cos(theta);
    let (new_theta, new_ok) = wrap(theta + noisy[2]);
    (
        [
            pose[0] + c * noisy[0] - s * noisy[1],
            pose[1] + s * noisy[0] + c * noisy[1],
            new_theta,
        ],
        theta_ok & new_ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::FRAC_PI_2;
    use mcl_num::RunningStats;

    #[test]
    fn delta_between_poses_is_body_frame() {
        // Drone at (1,1) facing +Y moves to (1,2) and turns slightly: it moved
        // forward (its +X axis is world +Y) by 1 m.
        let a = Pose2::new(1.0, 1.0, FRAC_PI_2);
        let b = Pose2::new(1.0, 2.0, FRAC_PI_2 + 0.1);
        let d = MotionDelta::between(&a, &b);
        assert!((d.dx - 1.0).abs() < 1e-5);
        assert!(d.dy.abs() < 1e-5);
        assert!((d.dtheta - 0.1).abs() < 1e-5);
        assert!((d.translation() - 1.0).abs() < 1e-5);
        assert!((d.rotation() - 0.1).abs() < 1e-5);
    }

    #[test]
    fn accumulate_composes_increments() {
        // Move forward 1 m, turn 90° left, move forward 1 m again: net effect is
        // (1, 1) displacement and a 90° rotation in the original frame.
        let leg = MotionDelta::new(1.0, 0.0, FRAC_PI_2);
        let total = leg.accumulate(&MotionDelta::new(1.0, 0.0, 0.0));
        assert!((total.dx - 1.0).abs() < 1e-5);
        assert!((total.dy - 1.0).abs() < 1e-5);
        assert!((total.dtheta - FRAC_PI_2).abs() < 1e-5);
    }

    #[test]
    fn accumulate_matches_direct_delta() {
        let start = Pose2::new(0.3, 0.8, 0.4);
        let mid = Pose2::new(0.5, 1.0, 0.9);
        let end = Pose2::new(0.2, 1.4, 2.0);
        let direct = MotionDelta::between(&start, &end);
        let accumulated =
            MotionDelta::between(&start, &mid).accumulate(&MotionDelta::between(&mid, &end));
        assert!((direct.dx - accumulated.dx).abs() < 1e-5);
        assert!((direct.dy - accumulated.dy).abs() < 1e-5);
        assert!((direct.dtheta - accumulated.dtheta).abs() < 1e-5);
    }

    #[test]
    fn zero_delta_detection() {
        assert!(MotionDelta::default().is_zero());
        assert!(!MotionDelta::new(0.01, 0.0, 0.0).is_zero());
        assert!(!MotionDelta::new(0.0, 0.0, 0.01).is_zero());
    }

    #[test]
    fn noise_free_model_applies_the_exact_increment() {
        let model = MotionModel::new([0.0, 0.0, 0.0]);
        let p = Particle::<f32>::from_pose(&Pose2::new(1.0, 1.0, FRAC_PI_2), 1.0);
        let moved = model.sample(&p, &MotionDelta::new(0.5, 0.0, 0.0), 0, 0, 0);
        // Facing +Y, a forward step of 0.5 m increases y.
        assert!((moved.x - 1.0).abs() < 1e-5);
        assert!((moved.y - 1.5).abs() < 1e-5);
        assert_eq!(moved.weight, 1.0);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let model = MotionModel::new([0.1, 0.05, 0.02]);
        let p = Particle::<f32>::from_pose(&Pose2::new(0.0, 0.0, 0.0), 1.0);
        let delta = MotionDelta::new(0.2, 0.0, 0.0);
        let mut xs = RunningStats::new();
        let mut ys = RunningStats::new();
        for i in 0..8000u64 {
            let s = model.sample(&p, &delta, 3, 1, i);
            xs.push(f64::from(s.x));
            ys.push(f64::from(s.y));
        }
        assert!((xs.mean() - 0.2).abs() < 0.005, "x mean {}", xs.mean());
        assert!((xs.stddev() - 0.1).abs() < 0.01);
        assert!(ys.mean().abs() < 0.005);
        assert!((ys.stddev() - 0.05).abs() < 0.01);
    }

    #[test]
    fn sampling_is_reproducible_per_particle_and_update() {
        let model = MotionModel::new([0.1, 0.1, 0.1]);
        let p = Particle::<f32>::from_pose(&Pose2::new(0.0, 0.0, 0.0), 1.0);
        let d = MotionDelta::new(0.1, 0.0, 0.0);
        let a = model.sample(&p, &d, 7, 3, 11);
        let b = model.sample(&p, &d, 7, 3, 11);
        assert_eq!(a, b);
        let c = model.sample(&p, &d, 7, 4, 11);
        assert_ne!(a, c);
    }

    #[test]
    fn apply_matches_individual_sampling() {
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let d = MotionDelta::new(0.1, 0.02, 0.05);
        let mut batch: Vec<Particle<f32>> = (0..32)
            .map(|i| Particle::from_pose(&Pose2::new(i as f32 * 0.1, 0.0, 0.0), 1.0))
            .collect();
        let individual: Vec<Particle<f32>> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| model.sample(p, &d, 9, 2, i as u64))
            .collect();
        model.apply(&mut batch, &d, 9, 2, 0);
        assert_eq!(batch, individual);
    }

    /// Sample moments of one noise component (or the correlation of two).
    struct Moments {
        mean: f64,
        std: f64,
        skew: f64,
        excess_kurtosis: f64,
        beyond_3_sigma: f64,
    }

    fn moments(values: &[f64]) -> Moments {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let central = |k: i32| values.iter().map(|v| (v - mean).powi(k)).sum::<f64>() / n;
        let var = central(2);
        let std = var.sqrt();
        Moments {
            mean,
            std,
            skew: central(3) / (var * std),
            excess_kurtosis: central(4) / (var * var) - 3.0,
            beyond_3_sigma: values
                .iter()
                .filter(|v| (*v - mean).abs() > 3.0 * std)
                .count() as f64
                / n,
        }
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let (ma, mb) = (moments(a), moments(b));
        let n = a.len() as f64;
        let cov = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - ma.mean) * (y - mb.mean))
            .sum::<f64>()
            / n;
        cov / (ma.std * mb.std)
    }

    #[test]
    fn paired_draw_noise_is_standard_normal_over_many_indices() {
        // The three noise components of 200k particle streams. Tolerances are
        // ~5 standard errors: 1/√n for the mean and the correlations,
        // 1/√(2n) for the std, √(6/n) for the skew, √(24/n) for the excess
        // kurtosis and √(p(1−p)/n) for the 0.27 % two-sided 3σ tail.
        let n = 200_000u64;
        let model = MotionModel::new([1.0, 1.0, 1.0]);
        let zero = MotionDelta::default();
        let mut components = [vec![], vec![], vec![]];
        for i in 0..n {
            let noise = model.noisy_delta(&zero, CounterRng::for_particle(17, 4, i));
            for (column, value) in components.iter_mut().zip(noise) {
                column.push(f64::from(value));
            }
        }
        for (k, column) in components.iter().enumerate() {
            let m = moments(column);
            assert!(m.mean.abs() < 0.012, "component {k}: mean {}", m.mean);
            assert!((m.std - 1.0).abs() < 0.008, "component {k}: std {}", m.std);
            assert!(m.skew.abs() < 0.03, "component {k}: skew {}", m.skew);
            assert!(
                m.excess_kurtosis.abs() < 0.06,
                "component {k}: excess kurtosis {}",
                m.excess_kurtosis
            );
            assert!(
                (m.beyond_3_sigma - 0.0027).abs() < 6e-4,
                "component {k}: share beyond 3σ {}",
                m.beyond_3_sigma
            );
        }
        // dx and dy are the cos and sin outputs of one Box–Muller pair: they
        // are uncorrelated (and independent), as is dθ from the second pair.
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let r = correlation(&components[a], &components[b]);
            assert!(r.abs() < 0.012, "corr({a}, {b}) = {r}");
        }
    }

    #[test]
    fn zero_sigma_components_keep_the_mean_exactly() {
        let model = MotionModel::new([0.0, 0.3, -1.0]);
        let delta = MotionDelta::new(0.125, 0.5, 0.1);
        for i in 0..64 {
            let noise = model.noisy_delta(&delta, CounterRng::for_particle(2, 2, i));
            assert_eq!(noise[0], 0.125);
            assert_ne!(noise[1], 0.5);
            assert_eq!(noise[2], 0.1);
        }
    }

    #[test]
    fn hostile_increments_wrap_like_normalize_angle_without_panicking() {
        // Noise-free, so the expected yaw is exactly the composed heading
        // wrapped by normalize_angle; the huge and non-finite turns and the
        // out-of-range stored yaws all leave the one-step window.
        let model = MotionModel::new([0.0, 0.0, 0.0]);
        let turns = [
            0.3,
            -0.3,
            7.0,
            -7.0,
            1e7,
            -1e7,
            1e30,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let yaws = [0.0, 1.0, 6.2, 7.0, -0.5, 100.0, -1e9, f32::NAN];
        for &dtheta in &turns {
            for &yaw in &yaws {
                let p = Particle {
                    x: 1.0f32,
                    y: 2.0,
                    theta: yaw,
                    weight: 1.0,
                };
                let moved = model.sample(&p, &MotionDelta::new(0.5, 1e30, dtheta), 1, 2, 3);
                let expected = normalize_angle(normalize_angle(yaw) + dtheta);
                assert!(
                    moved.theta.to_bits() == expected.to_bits()
                        || (moved.theta.is_nan() && expected.is_nan()),
                    "yaw {yaw} turn {dtheta}: {} vs {expected}",
                    moved.theta
                );
                if yaw.is_nan() {
                    assert!(moved.x.is_nan() && moved.y.is_nan());
                }
            }
        }
        // A NaN increment poisons the pose; it does not panic.
        let p = Particle::<f32>::from_pose(&Pose2::new(1.0, 1.0, 0.5), 1.0);
        let moved = MotionModel::new([0.1, 0.1, 0.1]).sample(
            &p,
            &MotionDelta::new(f32::NAN, 0.0, f32::NAN),
            1,
            2,
            3,
        );
        assert!(moved.x.is_nan() && moved.theta.is_nan());
    }

    #[test]
    fn out_of_range_and_half_precision_yaws_rotate_like_their_wrapped_heading() {
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.3, -0.1, 0.05);
        // A stored yaw five turns out takes the normalize_angle fallback and
        // lands exactly where its wrapped heading does.
        let wrapped = Particle::<f32>::from_pose(&Pose2::new(1.0, 1.0, 0.75), 1.0);
        let far = Particle {
            theta: 0.75 + 5.0 * core::f32::consts::TAU,
            ..wrapped
        };
        let heading = normalize_angle(far.theta);
        let near = Particle {
            theta: heading,
            ..wrapped
        };
        assert_eq!(
            model.sample(&far, &delta, 4, 1, 9),
            model.sample(&near, &delta, 4, 1, 9)
        );
        // binary16 storage rounds headings just below 2π up past it; those
        // rotate like the small heading they stand for.
        let noise_free = MotionModel::new([0.0, 0.0, 0.0]);
        let mut h = mcl_num::F16::from_f32(core::f32::consts::TAU);
        while h.to_f32() <= core::f32::consts::TAU {
            h = mcl_num::F16::from_bits(h.to_bits() + 1);
        }
        let p = Particle {
            x: mcl_num::F16::from_f32(1.0),
            y: mcl_num::F16::from_f32(1.0),
            theta: h,
            weight: mcl_num::F16::from_f32(1.0),
        };
        let moved = noise_free.sample(&p, &MotionDelta::new(1.0, 0.0, 0.0), 0, 0, 0);
        let t = f64::from(h.to_f32());
        assert!((f64::from(moved.x.to_f32()) - (1.0 + t.cos())).abs() < 1e-3);
        assert!((f64::from(moved.y.to_f32()) - (1.0 + t.sin())).abs() < 1e-3);
        assert!(moved.theta.to_f32() < 0.01);
    }
}
