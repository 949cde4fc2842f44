//! The explicit AVX2 body of the [`KernelBackend::Avx2`] observation kernel,
//! and the AVX2 build of the motion kernel's lane-group loop (x86-64 only).
//!
//! [`crate::kernel`]: the `Lanes` backend *shapes* its loops for
//! autovectorization; this module is the explicit-SIMD counterpart that issues
//! `core::arch::x86_64` intrinsics directly, so the beam-scoring loop runs
//! 8×f32 wide regardless of what the autovectorizer decides at the build's
//! baseline target. It is the only kernel where explicit SIMD measurably pays
//! over the lane body (see the kernel module's body table). The motion
//! kernel needs no intrinsics: its lane body is branch-free polynomial
//! arithmetic, and compiling that same source with AVX2 enabled is what
//! pays there. Everything here is runtime-gated: the kernel checks
//! [`available`] before entering an AVX2 body and runs the lane body
//! otherwise, which keeps non-AVX2 hosts (and non-x86 builds, where this
//! module does not exist) on the portable path with identical results.
//!
//! # Bit-identity contract
//!
//! The body is restricted to the same single-rounding IEEE 754 ops the
//! scalar kernel performs per particle, in the same order — add, subtract,
//! multiply, divide, min — and **never uses FMA**: a fused multiply-add
//! rounds once where the scalar body rounds twice, which would break the
//! backend bit-identity contract pinned by
//! `tests/kernel_backend_equivalence.rs`. The observation yaw `sin_cos`
//! stays scalar per lane (a libm call), so the AVX2 kernel cannot diverge on
//! it. Enabling the `avx2` target feature does not enable `fma`, and Rust
//! never contracts `a*b + c` on its own, so the motion build issues no FMA
//! either.

// Intrinsics require `unsafe`; this is the one module in the crate allowed to
// use it. Every unsafe block carries a SAFETY comment discharging the single
// obligation: the AVX2 target feature is runtime-checked by `available`
// before the `#[target_feature]` body runs.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::kernel::LANES;
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::BeamEndPointModel;
use crate::particle::ParticleSliceMut;
use mcl_gridmap::DistanceField;
use mcl_num::Scalar;

// The lane kernels and the 256-bit registers must agree on the group width.
const _: () = assert!(LANES == 8, "the AVX2 body assumes 8 f32 lanes");

/// Runtime probe for the explicit AVX2 bodies. The result is cached by the
/// standard library's feature detection, so per-dispatch checks are a single
/// atomic load.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// The prediction kernel's lane-group loop
/// ([`crate::kernel::motion_lane_groups`]) compiled with AVX2 enabled: the
/// same source, so the same bits, with the lanes issued 8 wide instead of at
/// the build's baseline width.
pub(crate) fn motion_lane_groups<S: Scalar>(
    particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    /// # Safety
    ///
    /// Callers must ensure the `avx2` target feature is available.
    #[target_feature(enable = "avx2")]
    unsafe fn groups<S: Scalar>(
        particles: ParticleSliceMut<'_, S>,
        model: &MotionModel,
        delta: &MotionDelta,
        seed: u64,
        update_index: u64,
        first_index: u64,
    ) {
        crate::kernel::motion_lane_groups(particles, model, delta, seed, update_index, first_index)
    }
    assert!(available(), "the AVX2 motion body needs an AVX2 host");
    // SAFETY: the assertion above checked that the CPU supports AVX2, the
    // only feature `groups` is compiled for.
    unsafe { groups(particles, model, delta, seed, update_index, first_index) }
}

/// Scores one [`LANES`]-wide group of particle poses against the resolved
/// in-range end points `(end_x, end_y)` — the AVX2 group scorer of
/// `observation_log_likelihoods_with`, bit-identical per lane to
/// [`BeamEndPointModel::batch_log_likelihood`].
///
/// The yaw `sin_cos` stays scalar per lane (libm call); the per-beam rotation,
/// truncated EDT lookup (through
/// [`DistanceField::distances_at_world_lanes_avx2`], which gathers on AVX2
/// fields) and Eq. 1 accumulation run as 8-wide register ops.
#[allow(clippy::too_many_arguments)] // the full lane-group register set
pub(crate) fn score_pose_group<D: DistanceField + ?Sized>(
    model: &BeamEndPointModel,
    field: &D,
    x: &[f32; LANES],
    y: &[f32; LANES],
    theta: &[f32; LANES],
    end_x: &[f32],
    end_y: &[f32],
    out: &mut [f32; LANES],
) {
    debug_assert!(available());
    let mut sin_t = [0.0f32; LANES];
    let mut cos_t = [0.0f32; LANES];
    for l in 0..LANES {
        let (s, c) = theta[l].sin_cos();
        sin_t[l] = s;
        cos_t[l] = c;
    }
    // Same constant the scalar body folds out of `2.0 * σ * σ`: identical
    // expression, identical roundings.
    let denom = 2.0 * model.sigma_obs() * model.sigma_obs();
    // SAFETY: `available` was checked by the caller (debug-asserted above),
    // so the AVX2 target feature is present.
    unsafe {
        score_beams(
            field,
            end_x,
            end_y,
            model.r_max(),
            model.log_normalizer(),
            denom,
            x,
            y,
            &sin_t,
            &cos_t,
            out,
        );
    }
}

/// The register-resident beam loop of [`score_pose_group`]: scores every
/// end point `(end_x[i], end_y[i])` in order.
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // the full lane-group register set
unsafe fn score_beams<D: DistanceField + ?Sized>(
    field: &D,
    end_x: &[f32],
    end_y: &[f32],
    r_max: f32,
    log_normalizer: f32,
    denom: f32,
    x: &[f32; LANES],
    y: &[f32; LANES],
    sin_t: &[f32; LANES],
    cos_t: &[f32; LANES],
    out: &mut [f32; LANES],
) {
    let x_v = _mm256_loadu_ps(x.as_ptr());
    let y_v = _mm256_loadu_ps(y.as_ptr());
    let sin_v = _mm256_loadu_ps(sin_t.as_ptr());
    let cos_v = _mm256_loadu_ps(cos_t.as_ptr());
    let rmax_v = _mm256_set1_ps(r_max);
    let norm_v = _mm256_set1_ps(log_normalizer);
    let denom_v = _mm256_set1_ps(denom);
    let mut log_sum = _mm256_setzero_ps();
    let mut ex = [0.0f32; LANES];
    let mut ey = [0.0f32; LANES];
    let mut edt = [0.0f32; LANES];
    for (&x_body, &y_body) in end_x.iter().zip(end_y) {
        let bx = _mm256_set1_ps(x_body);
        let by = _mm256_set1_ps(y_body);
        // ex = (x + cos·bx) − sin·by and ey = (y + sin·bx) + cos·by, with the
        // scalar body's association and one rounding per op — no FMA.
        let ex_v = _mm256_sub_ps(
            _mm256_add_ps(x_v, _mm256_mul_ps(cos_v, bx)),
            _mm256_mul_ps(sin_v, by),
        );
        let ey_v = _mm256_add_ps(
            _mm256_add_ps(y_v, _mm256_mul_ps(sin_v, bx)),
            _mm256_mul_ps(cos_v, by),
        );
        _mm256_storeu_ps(ex.as_mut_ptr(), ex_v);
        _mm256_storeu_ps(ey.as_mut_ptr(), ey_v);
        field.distances_at_world_lanes_avx2(&ex, &ey, &mut edt);
        let edt_v = _mm256_loadu_ps(edt.as_ptr());
        // `min(edt, r_max)`: matches `f32::min` — on a NaN lane (which the
        // field never produces) `minps` returns the second operand, r_max,
        // exactly like the scalar min.
        let d = _mm256_min_ps(edt_v, rmax_v);
        // log_normalizer − d² / denom, accumulated in beam order per lane.
        let term = _mm256_sub_ps(norm_v, _mm256_div_ps(_mm256_mul_ps(d, d), denom_v));
        log_sum = _mm256_add_ps(log_sum, term);
    }
    _mm256_storeu_ps(out.as_mut_ptr(), log_sum);
}
