//! Fixed-coefficient polynomial `ln` and `sin`/`cos` for the vectorized kernels.
//!
//! A libm call (`logf`, `sinf`, `cosf`) is opaque to the autovectorizer: a
//! loop that makes one per particle runs one particle at a time. The
//! functions here are straight-line bodies of single-rounding IEEE 754 ops
//! (add, subtract, multiply, exact integer↔float conversions, bit selects) —
//! no branch, no call and **no fused multiply-add** — so a lane-group loop
//! built from them vectorizes, and a vectorized lane returns exactly the bits
//! of a scalar call on every target.
//!
//! * [`ln`] — natural logarithm of a positive normal `f32`: exponent split
//!   plus a degree-9 mantissa polynomial on `[√½ − 1, √2 − 1)`.
//! * [`turn_sin_cos`] — `sin`/`cos` of `2π·k/2²⁴` for a 24-bit turn fraction
//!   `k`: the quadrant reduction is exact integer arithmetic, so only the
//!   `[−π/4, π/4)` polynomial rounds. This is the angle of a Box–Muller draw.
//! * [`sin_cos`] — `sin`/`cos` of a heading in `[0, 2π)`: three-constant
//!   Cody–Waite reduction by π/2, then the same polynomials.
//!
//! The coefficients are the single-precision minimax fits of the Cephes
//! library (`logf`, `sinf`, `cosf`). The error bounds are checked
//! exhaustively against `f64` in this module's tests.

use core::f32::consts::{FRAC_1_SQRT_2, FRAC_2_PI, TAU};

/// `sin(r) ≈ r + r³·P(r²)` on `[−π/4, π/4]`.
const SIN_COEFFS: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -1.666_665_5e-1];
/// `cos(r) ≈ 1 − r²/2 + r⁴·Q(r²)` on `[−π/4, π/4]`.
const COS_COEFFS: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];
/// `ln(1 + f) ≈ f − f²/2 + f³·R(f)` on `[√½ − 1, √2 − 1)`, highest power first.
const LN_COEFFS: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461e-1,
    1.167_699_9e-1,
    -1.242_014_1e-1,
    1.424_932_3e-1,
    -1.666_805_8e-1,
    2.000_071_5e-1,
    -2.499_999_4e-1,
    3.333_333e-1,
];
/// `ln 2` split so that `e · LN2_HI` is exact for every `f32` exponent `e`
/// (`LN2_HI` is 355/512).
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `π/2` split into three parts; `k · PIO2_1` and `k · PIO2_2` are exact for
/// every quadrant count `k` a heading reduction produces.
const PIO2_1: f32 = 1.570_312_5;
const PIO2_2: f32 = 4.837_513e-4;
const PIO2_3: f32 = 7.549_79e-8;
/// One 24-bit turn step, `2π / 2²⁴`.
const TURN_STEP: f32 = TAU / 16_777_216.0;

/// The two minimax polynomials on the reduced argument `r ∈ [−π/4, π/4]`.
#[inline(always)]
fn sin_cos_reduced(r: f32) -> (f32, f32) {
    let z = r * r;
    let s = ((SIN_COEFFS[0] * z + SIN_COEFFS[1]) * z + SIN_COEFFS[2]) * z * r + r;
    let c = ((COS_COEFFS[0] * z + COS_COEFFS[1]) * z + COS_COEFFS[2]) * z * z - 0.5 * z + 1.0;
    (s, c)
}

/// Rotates `(sin r, cos r)` by `quadrant · π/2`: odd quadrants swap the pair,
/// and the signs follow `quadrant & 2` (sine) and `(quadrant + 1) & 2`
/// (cosine). Sign flips are bit flips, so they are exact (NaN stays NaN).
#[inline(always)]
fn rotate_quadrant(quadrant: u32, s: f32, c: f32) -> (f32, f32) {
    let swap = quadrant & 1 != 0;
    let (s, c) = if swap { (c, s) } else { (s, c) };
    let sin_sign = (quadrant & 2) << 30;
    let cos_sign = (quadrant.wrapping_add(1) & 2) << 30;
    (
        f32::from_bits(s.to_bits() ^ sin_sign),
        f32::from_bits(c.to_bits() ^ cos_sign),
    )
}

/// Natural logarithm of a positive normal `f32`, branch-free.
///
/// Splits `x = 2ᵉ · m` with `m ∈ [√½, √2)` by bit manipulation and
/// evaluates `ln m` with a degree-9 polynomial in `m − 1` (which is computed
/// exactly). The maximum error is 1 ulp over every `(0, 1]` value the
/// 24-bit uniform generator can produce (checked exhaustively). Zero,
/// subnormal, negative and non-finite inputs return an unspecified finite or
/// NaN value rather than `−∞`/NaN; callers feed it `[2⁻²⁴, 1]`.
///
/// # Example
///
/// ```
/// let x = mcl_num::poly::ln(0.25);
/// assert!((x - 0.25f32.ln()).abs() <= f32::EPSILON);
/// assert_eq!(mcl_num::poly::ln(1.0), 0.0);
/// ```
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let bits = x.to_bits();
    let exponent = ((bits >> 23) & 0xff) as i32 - 126;
    // The mantissa as a value in [0.5, 1).
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    let low = m < FRAC_1_SQRT_2;
    let e = (if low { exponent - 1 } else { exponent }) as f32;
    // Both differences are exact (Sterbenz), so f = m' − 1 carries no error.
    let f = if low { m + m - 1.0 } else { m - 1.0 };
    let z = f * f;
    let mut p = LN_COEFFS[0];
    for &c in &LN_COEFFS[1..] {
        p = p * f + c;
    }
    let tail = p * f * z + e * LN2_LO - 0.5 * z;
    (f + tail) + e * LN2_HI
}

/// `(sin, cos)` of the angle `2π · turn / 2²⁴`, branch-free: the sine and
/// cosine of a uniform draw's 24-bit integer as a fraction of a full turn.
///
/// The reduction is exact integer arithmetic: the top two bits (rounded)
/// pick the quadrant and the remaining 22-bit offset, converted exactly,
/// becomes the reduced angle in `[−π/4, π/4)` with one multiply. Bits above
/// the 24th are whole turns and are ignored. The maximum absolute error is
/// below `1e−7` (1.5 ulp at 1) over all 2²⁴ turns (checked exhaustively).
///
/// # Example
///
/// ```
/// let (s, c) = mcl_num::poly::turn_sin_cos(1 << 22); // a quarter turn
/// assert!((s - 1.0).abs() < 1e-7 && c.abs() < 1e-7);
/// ```
#[inline(always)]
pub fn turn_sin_cos(turn: u32) -> (f32, f32) {
    // Offset by an eighth of a turn so the quadrant rounds to nearest.
    let shifted = turn.wrapping_add(1 << 21);
    let offset = (shifted & ((1 << 22) - 1)) as i32 - (1 << 21);
    let (s, c) = sin_cos_reduced(offset as f32 * TURN_STEP);
    rotate_quadrant((shifted >> 22) & 3, s, c)
}

/// `(sin θ, cos θ)` of a heading `θ ∈ [0, 2π)`, branch-free.
///
/// Cody–Waite reduction: the quadrant count `k = ⌊θ·2/π + ½⌋` is taken with
/// a truncating integer conversion (exact floor for a non-negative
/// argument), and `θ − k·π/2` is subtracted in three parts, the first two of
/// them exact. The maximum absolute error is below `1.2e−7` on `[0, 2π)`
/// and on the binary16-rounded headings just above 2π that half-precision
/// particle storage produces (checked in the tests), and the same bound
/// holds down to `−π/4`. Further outside `[−π/4, 2π + π/4)` the result is
/// finite but inaccurate: callers wrap the heading first. A NaN heading
/// returns NaN for both outputs.
///
/// # Example
///
/// ```
/// let (s, c) = mcl_num::poly::sin_cos(1.0);
/// assert!((s - 1.0f32.sin()).abs() < 2e-7 && (c - 1.0f32.cos()).abs() < 2e-7);
/// ```
#[inline(always)]
pub fn sin_cos(theta: f32) -> (f32, f32) {
    let k = (theta * FRAC_2_PI + 0.5) as i32;
    let kf = k as f32;
    let r = ((theta - kf * PIO2_1) - kf * PIO2_2) - kf * PIO2_3;
    let (s, c) = sin_cos_reduced(r);
    rotate_quadrant(k as u32, s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F16;

    /// Distance from `approx` to `exact` in units of the `f32` spacing at
    /// `exact`.
    fn ulps(approx: f32, exact: f64) -> f64 {
        let rounded = exact as f32;
        let spacing = f64::from(f32::from_bits(rounded.abs().to_bits() + 1) - rounded.abs());
        (f64::from(approx) - exact).abs() / spacing
    }

    #[test]
    fn ln_is_within_one_ulp_on_every_uniform_output() {
        // Every value `1 − u` the 24-bit uniform generator can produce:
        // j / 2²⁴ for j = 1..=2²⁴.
        let mut worst = 0.0f64;
        for j in 1..=(1u32 << 24) {
            let x = j as f32 * (1.0 / 16_777_216.0);
            let exact = f64::from(x).ln();
            let approx = ln(x);
            if j == 1 << 24 {
                assert_eq!(approx, 0.0);
                continue;
            }
            worst = worst.max(ulps(approx, exact));
        }
        assert!(worst <= 1.0, "max ln error {worst} ulp");
    }

    #[test]
    fn ln_covers_the_positive_normal_range() {
        for x in [
            f32::MIN_POSITIVE,
            1e-20,
            0.3,
            1.0,
            1.5,
            2.0,
            10.0,
            1e20,
            f32::MAX,
        ] {
            let exact = f64::from(x).ln();
            assert!(ulps(ln(x), exact) <= 1.0, "x={x}: {} vs {exact}", ln(x));
        }
    }

    #[test]
    fn turn_sin_cos_is_accurate_on_every_turn() {
        let mut worst = 0.0f64;
        for turn in 0..(1u32 << 24) {
            let angle = core::f64::consts::TAU * f64::from(turn) / 16_777_216.0;
            let (s, c) = turn_sin_cos(turn);
            worst = worst
                .max((f64::from(s) - angle.sin()).abs())
                .max((f64::from(c) - angle.cos()).abs());
        }
        assert!(worst < 1e-7, "max turn sin/cos error {worst}");
        // The quadrant boundaries are exact.
        assert_eq!(turn_sin_cos(0), (0.0, 1.0));
        assert_eq!(turn_sin_cos(1 << 22), (1.0, -0.0));
        assert_eq!(turn_sin_cos(2 << 22), (-0.0, -1.0));
        assert_eq!(turn_sin_cos(3 << 22), (-1.0, 0.0));
        // Bits above the 24th are whole turns.
        assert_eq!(turn_sin_cos(12_345 | (1 << 24)), turn_sin_cos(12_345));
    }

    fn heading_error(theta: f32) -> f64 {
        let (s, c) = sin_cos(theta);
        let t = f64::from(theta);
        (f64::from(s) - t.sin())
            .abs()
            .max((f64::from(c) - t.cos()).abs())
    }

    #[test]
    fn sin_cos_is_accurate_on_a_dense_heading_grid() {
        let steps = 1u32 << 22;
        let mut worst = 0.0f64;
        // Slightly negative headings (down to −π/4) reduce into quadrant 0.
        for i in 1..=1000 {
            worst = worst.max(heading_error(-(i as f32) * 7.85e-4));
        }
        for i in 0..=steps {
            let theta = (f64::from(i) / f64::from(steps) * core::f64::consts::TAU) as f32;
            worst = worst.max(heading_error(theta));
        }
        // Every representable heading within 1000 ulp of the points where
        // the reduction switches quadrant, (2k + 1)·π/4.
        for boundary in 0..4 {
            let centre = (f64::from(2 * boundary + 1) * core::f64::consts::FRAC_PI_4) as f32;
            let mut theta = f32::from_bits(centre.to_bits() - 1000);
            for _ in 0..2000 {
                worst = worst.max(heading_error(theta));
                theta = f32::from_bits(theta.to_bits() + 1);
            }
        }
        assert!(worst < 1.2e-7, "max heading sin/cos error {worst}");
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
    }

    #[test]
    fn sin_cos_handles_half_precision_headings_above_two_pi() {
        // binary16 storage can round a heading just below 2π up past it; the
        // reduction must treat those exactly like the headings they wrap to.
        let mut h = F16::from_f32(TAU);
        while h.to_f32() <= TAU {
            h = F16::from_bits(h.to_bits() + 1);
        }
        while h.to_f32() < TAU + 0.05 {
            let theta = h.to_f32();
            assert!(heading_error(theta) < 1.2e-7, "theta={theta}");
            h = F16::from_bits(h.to_bits() + 1);
        }
    }

    #[test]
    fn sin_cos_propagates_nan() {
        let (s, c) = sin_cos(f32::NAN);
        assert!(s.is_nan() && c.is_nan());
    }
}
