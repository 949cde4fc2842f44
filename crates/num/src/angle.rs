//! Angle utilities for planar pose estimation.
//!
//! The nano-UAV flies at a fixed height and localizes in a 2D grid map, so its
//! state is `(x, y, θ)` with the yaw angle `θ ∈ [0, 2π)`. Three operations on
//! angles appear throughout the pipeline:
//!
//! * wrapping arbitrary angles back into a canonical interval
//!   ([`normalize_angle`]),
//! * the signed shortest rotation between two headings
//!   ([`angular_difference`]), used by the convergence check (36° gate) and the
//!   yaw component of the absolute trajectory error,
//! * the weighted circular mean ([`weighted_circular_mean`]), used by the pose
//!   computation step that averages all particle headings by weight — a plain
//!   arithmetic mean is wrong for angles near the 0/2π wrap-around.

use core::f32::consts::{PI, TAU};

/// Wraps an angle into the canonical interval `[0, 2π)`.
///
/// # Example
///
/// ```
/// use mcl_num::normalize_angle;
/// use core::f32::consts::PI;
/// assert!((normalize_angle(-PI / 2.0) - 1.5 * PI).abs() < 1e-6);
/// assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-5);
/// assert_eq!(normalize_angle(0.0), 0.0);
/// ```
pub fn normalize_angle(angle: f32) -> f32 {
    let mut a = angle % TAU;
    if a < 0.0 {
        a += TAU;
    }
    // `-1e-9 % TAU + TAU` can round back to TAU; fold that edge case to 0.
    if a >= TAU {
        a -= TAU;
    }
    a
}

/// Wraps an angle into `[0, 2π)` with one branch-free `±2π` select, and
/// reports whether that one step was enough.
///
/// When the flag is `true` the result is bit-identical to
/// [`normalize_angle`]. That holds for every angle in `(−2π, 4π)` except the
/// negative angles so close to zero that `angle + 2π` rounds up to 2π. The
/// flag is `false` for those, for angles outside that window and for NaN;
/// callers then fall back to [`normalize_angle`]. A heading plus a bounded
/// turn always lands in the window, so the vectorized motion kernel wraps
/// with this select and takes the `fmod` only on the rare flagged lane.
///
/// # Example
///
/// ```
/// use mcl_num::{normalize_angle, wrap_angle_once};
/// use core::f32::consts::TAU;
/// assert_eq!(wrap_angle_once(TAU + 0.5), (normalize_angle(TAU + 0.5), true));
/// assert_eq!(wrap_angle_once(-0.5), (normalize_angle(-0.5), true));
/// assert!(!wrap_angle_once(3.0 * TAU).1);
/// ```
#[inline(always)]
pub fn wrap_angle_once(angle: f32) -> (f32, bool) {
    let wrapped = if angle < 0.0 {
        angle + TAU
    } else if angle >= TAU {
        angle - TAU
    } else {
        angle
    };
    (wrapped, angle > -TAU && wrapped < TAU)
}

/// Signed shortest angular difference `a − b`, in `(−π, π]`.
///
/// The magnitude of the result is the rotation needed to turn heading `b` into
/// heading `a`, never exceeding π.
///
/// # Example
///
/// ```
/// use mcl_num::angular_difference;
/// use core::f32::consts::PI;
/// assert!((angular_difference(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-6);
/// assert!((angular_difference(2.0 * PI - 0.1, 0.1) + 0.2).abs() < 1e-6);
/// ```
pub fn angular_difference(a: f32, b: f32) -> f32 {
    let mut d = (a - b) % TAU;
    if d > PI {
        d -= TAU;
    } else if d <= -PI {
        d += TAU;
    }
    d
}

/// Weighted circular mean of headings.
///
/// Each `(angle, weight)` pair contributes a vector of length `weight`; the mean
/// is the direction of the vector sum, wrapped to `[0, 2π)`. Returns `None` when
/// the weights sum to (numerically) zero or the resultant vector vanishes (e.g.
/// two equal weights pointing in opposite directions), in which case no heading
/// is better than any other.
///
/// # Example
///
/// ```
/// use mcl_num::weighted_circular_mean;
/// use core::f32::consts::PI;
/// // Two headings straddling the wrap-around average to ~0, not ~π.
/// let m = weighted_circular_mean([(0.1, 1.0), (2.0 * PI - 0.1, 1.0)]).unwrap();
/// assert!(m < 0.01 || m > 2.0 * PI - 0.01);
/// ```
pub fn weighted_circular_mean<I>(pairs: I) -> Option<f32>
where
    I: IntoIterator<Item = (f32, f32)>,
{
    let mut sum_sin = 0.0f64;
    let mut sum_cos = 0.0f64;
    let mut sum_w = 0.0f64;
    for (angle, weight) in pairs {
        let w = f64::from(weight);
        sum_sin += w * f64::from(angle.sin());
        sum_cos += w * f64::from(angle.cos());
        sum_w += w;
    }
    if sum_w <= 0.0 {
        return None;
    }
    let norm = (sum_sin * sum_sin + sum_cos * sum_cos).sqrt();
    // The inputs are f32 angles, so a resultant below ~1e-6 of the total weight is
    // indistinguishable from perfect cancellation (e.g. two opposite headings).
    if norm < 1e-6 * sum_w {
        return None;
    }
    Some(normalize_angle(sum_sin.atan2(sum_cos) as f32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_covers_all_quadrants() {
        assert!((normalize_angle(PI) - PI).abs() < 1e-6);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-6);
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-5);
        assert!(normalize_angle(TAU) < 1e-6);
        assert!(normalize_angle(-1e-9) < TAU);
        for k in -10..10 {
            let base = 1.234f32;
            let wrapped = normalize_angle(base + k as f32 * TAU);
            assert!((wrapped - base).abs() < 1e-4, "k={k} wrapped={wrapped}");
        }
    }

    #[test]
    fn one_step_wrap_matches_normalize_inside_its_window() {
        let steps = 300_000;
        let edges = [
            TAU,
            f32::from_bits(TAU.to_bits() - 1),
            f32::from_bits((2.0 * TAU).to_bits() - 1),
            f32::from_bits(TAU.to_bits() - 1) - TAU,
            -f32::from_bits(TAU.to_bits() - 1),
        ];
        let grid = (0..=steps).map(|i| -TAU + 3.0 * TAU * i as f32 / steps as f32);
        for angle in grid.chain(edges) {
            let (wrapped, exact) = wrap_angle_once(angle);
            if exact {
                assert_eq!(
                    wrapped.to_bits(),
                    normalize_angle(angle).to_bits(),
                    "{angle}"
                );
            } else {
                // Only the window's ends and the round-up edge just below
                // zero leave the window.
                assert!(
                    angle <= -TAU || angle >= 2.0 * TAU || (angle < 0.0 && angle + TAU == TAU),
                    "{angle}"
                );
            }
        }
        // -0.0 keeps its sign, exactly as normalize_angle does.
        assert_eq!(wrap_angle_once(-0.0).0.to_bits(), (-0.0f32).to_bits());
        assert_eq!(wrap_angle_once(-1e-30), (TAU, false));
        for outside in [2.0 * TAU, 1e30, -1e30, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!wrap_angle_once(outside).1, "{outside}");
        }
        assert!(!wrap_angle_once(f32::NAN).1);
        assert!(wrap_angle_once(f32::NAN).0.is_nan());
    }

    #[test]
    fn difference_is_antisymmetric_and_bounded() {
        let samples = [0.0, 0.3, 1.0, PI, 4.0, 6.0, TAU - 0.01];
        for &a in &samples {
            for &b in &samples {
                let d = angular_difference(a, b);
                assert!(d > -PI - 1e-6 && d <= PI + 1e-6);
                let r = angular_difference(b, a);
                if d.abs() < PI - 1e-4 {
                    assert!((d + r).abs() < 1e-5, "a={a} b={b} d={d} r={r}");
                }
            }
        }
    }

    #[test]
    fn difference_picks_the_short_way_round() {
        assert!((angular_difference(0.0, 3.0 * PI / 2.0) - PI / 2.0).abs() < 1e-6);
        assert!((angular_difference(3.0 * PI / 2.0, 0.0) + PI / 2.0).abs() < 1e-6);
        assert!(angular_difference(1.0, 1.0).abs() < 1e-9);
    }

    #[test]
    fn circular_mean_of_identical_angles_is_that_angle() {
        let m = weighted_circular_mean([(1.2, 0.4), (1.2, 0.6)]).unwrap();
        assert!((m - 1.2).abs() < 1e-5);
    }

    #[test]
    fn circular_mean_respects_weights() {
        // Heavily weight the second heading.
        let m = weighted_circular_mean([(0.0, 0.01), (1.0, 0.99)]).unwrap();
        assert!(m > 0.9 && m < 1.0);
    }

    #[test]
    fn circular_mean_degenerate_cases_return_none() {
        assert!(weighted_circular_mean(std::iter::empty()).is_none());
        assert!(weighted_circular_mean([(1.0, 0.0)]).is_none());
        // Opposite headings with equal weight cancel.
        assert!(weighted_circular_mean([(0.0, 0.5), (PI, 0.5)]).is_none());
    }
}
