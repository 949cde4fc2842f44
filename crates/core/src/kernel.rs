//! The four MCL steps as data-parallel kernels over particle index ranges.
//!
//! On GAP9 every filter step is one kernel dispatched to the 8 worker cores:
//! each core receives a contiguous range of the structure-of-arrays particle
//! buffers and runs the same loop body over it. This module is the host-side
//! mirror of that design — four free functions plus a pair of reduction
//! accumulators, all operating on [`ParticleSlice`] / [`ParticleSliceMut`]
//! views so [`crate::parallel::ClusterLayout`] can hand each worker its slice:
//!
//! | kernel | paper step | input | output |
//! |---|---|---|---|
//! | [`motion_predict`] | prediction | particle chunk + odometry | poses in place |
//! | [`observation_log_likelihoods`] | correction (Eq. 1) | particle chunk + [`BeamBatch`] | per-particle log-likelihoods |
//! | [`anchor_log_likelihoods`] | correction (UWB fusion) | particle chunk + [`ObservationBatch`] anchors | log-likelihoods accumulated in place |
//! | [`reweight`] | correction | weight chunk + log-likelihoods | weights in place |
//! | [`resample_scatter`] | resampling | source set + index chunk | new generation chunk |
//! | [`PosePartials`] / [`SpreadPartials`] | pose computation | particle chunk | partial reductions |
//!
//! Determinism: the motion kernel derives every particle's noise from the
//! counter-based RNG stream `(seed, update, global index)`, so any chunking
//! produces bit-identical particles. The pose reduction is folded over
//! **fixed-size blocks** (independent of the worker count, see
//! [`ClusterLayout::map_index_blocks`](crate::parallel::ClusterLayout::map_index_blocks)),
//! so estimates are bit-identical across worker counts too.
//!
//! # Kernel backends and the lane-width contract
//!
//! [`KernelBackend`] selects which body each kernel runs. A `lanes` or
//! `avx2` body is kept only where it measurably pays: at least 1.2× faster
//! than the body it would replace. Where no such body exists, the backend
//! runs the next body down (`avx2` → `lanes` → `scalar`):
//!
//! | kernel (`*_with` entry point) | `Scalar` | `Lanes` | `Avx2` |
//! |---|---|---|---|
//! | [`observation_log_likelihoods_with`] | scalar | lanes | avx2 |
//! | [`anchor_log_likelihoods_with`] | scalar | lanes | lanes |
//! | [`reweight_with`] | scalar | lanes | lanes |
//! | [`motion_predict_with`] | scalar | lanes | lanes, AVX2 build |
//! | [`resample_scatter_with`] | scalar | scalar | scalar |
//! | [`pose_estimate_with`] ([`PosePartials`] / [`SpreadPartials`]) | scalar | scalar | scalar |
//!
//! The traced benchmark (`perfbench --trace 1`) times every row on the real
//! workloads. These are the rows that decided the table, in µs per
//! full-population call, as `onboard` / `fused_adaptive` ranges over seeds
//! 1–3 on a 2-core AVX2 x86-64 host, measured while every kernel still had
//! three bodies (`onboard`: 4096 fp32 particles; `fused_adaptive`: F16
//! particles on the quantized map, adaptive population, UWB anchors):
//!
//! | kernel | scalar | lanes | avx2 |
//! |---|---|---|---|
//! | observation | 647–705 / 99–137 | 322–369 / 66–81 | 135–157 / 47–54 |
//! | anchor | — / 33–46 | — / 20–22 | — / 22–23 |
//! | reweight | 37–46 / 44–55 | 34–40 / 38–44 | 34–55 / 41–48 |
//! | motion | 214–232 / 138–150 | 94–105 / 84–95 | 61–68 / 73–78 |
//! | resample scatter | 22–29 / 10–13 | 17–20 / 7.7–7.8 | 15–17 / 6.9–7.1 |
//! | estimate | 105–119 / 227–262 | 106–121 / 231–274 | 103–110 / 231–272 |
//!
//! The motion row is from its libm-free polynomial body (6 s runs, measured
//! after the others). Its `lanes` groups run 2.2× / 1.6× faster than its
//! scalar loop, and the AVX2 build of the same source a further 1.5× /
//! 1.1–1.2× over `lanes`; the `onboard` gap is well above the leg-order
//! bias described next, so the AVX2 build stays. On `fused_adaptive` the
//! binary16 load and store conversions, scalar calls per lane, take most of
//! the time left.
//!
//! The legs run scalar → lanes → avx2 on the same inputs, so later legs find
//! warmer caches. The `lanes` and `avx2` scatter bodies were the same code,
//! yet their rows differ by up to 1.2×; and once every scatter and estimate
//! leg ran the same scalar body, the later legs still read up to 1.26×
//! faster than the first. Gaps of that size are this ordering effect and
//! noise, not a body that pays. By that measure the reweight `lanes` body
//! (1.05–1.25× over scalar here) is borderline; it is kept on its seed-7
//! rows (1.26× / 1.33×).
//!
//! The observation kernel decides which beams count once per call:
//! [`BeamBatch::in_range_slices`] resolves the end points of the beams
//! measuring below the model's `r_max` (borrowing the prefix of a batch
//! [partitioned](BeamBatch::partition_in_range) for it, copying otherwise),
//! and each of its three bodies scores every resolved end point with the
//! model's one Eq. 1 log-term — no body reads a range or tests one.
//!
//! * `Lanes` bodies process the SoA component arrays in fixed [`LANES`]-wide
//!   groups of straight-line array arithmetic the compiler can autovectorize
//!   (the shape of the paper's GAP9 fp16-SIMD inner loops), followed by a
//!   **scalar-reference tail** for the `len % LANES` leftover particles.
//! * The `Avx2` observation body issues explicit `core::arch::x86_64`
//!   intrinsics: the same [`LANES`]-wide groups as 8×f32 register ops,
//!   including the gather-based quantized/fp16 EDT lookups of
//!   [`DistanceField::distances_at_world_lanes_avx2`]. It is runtime-gated
//!   behind `is_x86_feature_detected!("avx2")`; on any host where the probe
//!   fails, and on non-x86 builds, `Avx2` runs the `Lanes` body, so selecting
//!   it is always safe and always bit-identical.
//! * The `Avx2` motion body is no separate code: it is the `Lanes` group
//!   loop compiled under `#[target_feature(enable = "avx2")]`, behind the
//!   same runtime probe, so the autovectorizer issues its lanes 8 wide
//!   instead of at the build's baseline width.
//!
//! The lane-width contract: lane grouping is an *execution* detail, never a
//! *numeric* one. Each lane performs exactly the per-particle op sequence of
//! the scalar kernel (same operands, same order, same roundings — SIMD and
//! scalar IEEE 754 ops round identically), so for every storage precision
//! every backend is **bit-identical** to `Scalar`, for every chunk length and
//! therefore every tail length `len % LANES` ∈ `0..LANES`.
//!
//! For the intrinsic body the contract additionally pins the instruction
//! selection: only single-rounding IEEE 754 ops (`vaddps`, `vsubps`,
//! `vmulps`, `vdivps`, `vminps`, exact converts/gathers) are permitted, and
//! **FMA is never used** — a fused multiply-add rounds once where the scalar
//! body rounds twice, which would silently break bit-identity even though the
//! host advertises the `fma` feature. Masked lanes (out-of-bounds lookups,
//! loop tails) replay the scalar select order, and the observation body's
//! `sin_cos` of the pose yaw stays a scalar libm call per lane. The motion
//! body calls no libm function at all: its `ln` and `sin_cos` are the
//! fixed polynomials of [`mcl_num::poly`], built from the same
//! single-rounding ops, so the autovectorized lanes match the scalar
//! reference by construction.
//!
//! All of this is pinned by `tests/kernel_backend_equivalence.rs` across tail
//! lengths, cluster layouts and warm-pool reruns; the `MCL_KERNEL_BACKEND`
//! environment variable (`scalar` / `lanes` / `avx2`, read by
//! [`MclConfig::default`](crate::config::MclConfig)) flips whole test runs
//! between the backends.

use crate::estimate::PoseEstimate;
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::{AnchorRangeModel, BeamEndPointModel};
use crate::parallel::ClusterLayout;
use crate::particle::{ParticleBuffer, ParticleSlice, ParticleSliceMut};
use crate::rng::CounterRng;
use mcl_gridmap::{DistanceField, Pose2};
use mcl_num::{angular_difference, normalize_angle, Scalar};
use mcl_sensor::{anchor_is_usable, BeamBatch, ObservationBatch};
use serde::{Deserialize, Serialize};

/// Number of `f32` lanes one lane-group body of the [`KernelBackend::Lanes`]
/// kernels processes at a time. Pinned to
/// [`mcl_gridmap::DISTANCE_LANES`] so the correction kernel's lane groups and
/// the lane-batched distance-field lookup agree; 8 lanes fill one 256-bit
/// SIMD register of `f32` on the host and mirror the paper's 8-worker GAP9
/// cluster geometry.
pub const LANES: usize = mcl_gridmap::DISTANCE_LANES;

/// Selects which body of each MCL kernel the filter dispatches.
///
/// All backends are numerically interchangeable — see the
/// [lane-width contract](self#kernel-backends-and-the-lane-width-contract).
/// Only the kernels where a lane-shaped body measurably pays have one; the
/// [body table](self#kernel-backends-and-the-lane-width-contract) lists
/// which kernel runs which body under each backend, with the traced rows
/// behind it. The selection is threaded through
/// [`MclConfig::kernel_backend`](crate::config::MclConfig::kernel_backend)
/// into every [`ClusterLayout`] kernel dispatch of
/// [`MonteCarloLocalization`](crate::filter::MonteCarloLocalization), and
/// honoured by `mcl_sim::run_batch` jobs; tests and benches flip it globally
/// with the `MCL_KERNEL_BACKEND` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelBackend {
    /// Per-particle reference loops for every kernel — the simplest correct
    /// implementation, kept as the equivalence baseline and the tail body of
    /// the lane kernels. Resample scatter and the pose/spread reduction run
    /// this body under every backend.
    Scalar,
    /// Lane-batched loops: fixed [`LANES`]-wide, autovectorizer-friendly
    /// group bodies plus a scalar-reference tail, for the observation, anchor,
    /// reweight and motion kernels; every other kernel runs the scalar body.
    /// Bit-identical to `Scalar`; the portable default.
    #[default]
    Lanes,
    /// Explicit AVX2 intrinsics (x86-64, runtime-detected) for the
    /// observation kernel: the pose groups issued as 8×f32 register ops with
    /// gather-based EDT lookups. The motion kernel runs its `Lanes` source
    /// compiled with AVX2 enabled, the anchor and reweight kernels run their
    /// `Lanes` body, every other kernel the scalar body. Bit-identical to
    /// `Scalar` (single-rounding ops only, no FMA); the observation and
    /// motion kernels fall back to `Lanes` when the host lacks AVX2, so
    /// selecting it is safe everywhere. [`KernelBackend::detect`] picks it by
    /// default on capable hosts.
    Avx2,
}

impl KernelBackend {
    /// All backends, scalar first (the reference order used by the
    /// equivalence tests and the bench groups).
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Lanes,
        KernelBackend::Avx2,
    ];

    /// The label used in experiment output and bench group names.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Lanes => "lanes",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name as accepted by the `MCL_KERNEL_BACKEND`
    /// environment override (case-insensitive, surrounding whitespace
    /// ignored).
    pub fn parse(value: &str) -> Option<KernelBackend> {
        match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "lanes" => Some(KernelBackend::Lanes),
            "avx2" => Some(KernelBackend::Avx2),
            _ => None,
        }
    }

    /// Whether this backend's dedicated kernel bodies can run on this host.
    /// `Scalar` and `Lanes` are portable; `Avx2` requires a runtime-detected
    /// x86-64 AVX2 CPU. Dispatching an unavailable backend is still valid —
    /// it runs the `Lanes` observation and motion bodies — so this only
    /// reports whether selecting it changes the instructions executed.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar | KernelBackend::Lanes => true,
            KernelBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    crate::simd::available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The best backend for the running host: [`KernelBackend::Avx2`] where
    /// the CPU supports it, otherwise the portable default. This is what
    /// [`MclConfig::default`](crate::config::MclConfig) resolves when the
    /// `MCL_KERNEL_BACKEND` override is absent.
    pub fn detect() -> KernelBackend {
        if KernelBackend::Avx2.is_available() {
            KernelBackend::Avx2
        } else {
            KernelBackend::default()
        }
    }

    /// The `MCL_KERNEL_BACKEND` environment override, or `None` when the
    /// variable is unset, empty or unrecognized. This is how the CI backend
    /// matrix and the bench-smoke job flip whole runs between the backends
    /// without touching configuration structs.
    ///
    /// An unrecognized value logs one `eprintln!` warning naming the accepted
    /// values (once per process) and resolves to `None`, so a typo in a CI
    /// matrix is visible in the log instead of silently panicking the whole
    /// suite or masquerading as a real backend choice.
    pub fn from_env() -> Option<KernelBackend> {
        Self::resolve_env(std::env::var("MCL_KERNEL_BACKEND").ok().as_deref())
    }

    /// The pure resolution rule behind [`KernelBackend::from_env`], factored
    /// out so the unrecognized-value warning path is unit-testable without
    /// mutating process-global environment state.
    fn resolve_env(raw: Option<&str>) -> Option<KernelBackend> {
        let raw = raw?;
        if raw.trim().is_empty() {
            return None;
        }
        let parsed = Self::parse(raw);
        if parsed.is_none() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: unrecognized MCL_KERNEL_BACKEND value {raw:?} \
                     (accepted values: \"scalar\", \"lanes\", \"avx2\"); \
                     falling back to the default backend"
                );
            });
        }
        parsed
    }
}

/// Particles per reduction block of the pose-computation kernel. Fixed (rather
/// than derived from the worker count) so the block partials — and therefore
/// the folded estimate — are bit-identical for every [`ClusterLayout`].
pub const POSE_REDUCTION_BLOCK: usize = 256;

/// Prediction kernel: samples every particle of the chunk through the odometry
/// motion model. `first_index` is the chunk's global start index, which anchors
/// the per-particle RNG streams `(seed, update_index, first_index + i)`.
pub fn motion_predict<S: Scalar>(
    mut particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    for i in 0..particles.len() {
        let p = particles.get(i);
        particles.set(
            i,
            model.sample(&p, delta, seed, update_index, first_index + i as u64),
        );
    }
}

/// The lane-group loop of the prediction kernel: [`LANES`]-wide groups of
/// [`MotionModel::predict_lane`] over `f32` copies of the pose arrays, then
/// the `len % LANES` tail through the per-particle [`MotionModel::predict`].
/// The group body is branch-free straight-line arithmetic (no libm call, no
/// FMA), so the compiler vectorizes it across the lanes; a lane whose
/// heading left the one-step wrap window is redone with
/// [`MotionModel::predict_wrapped`] after the group, which is exactly what
/// [`MotionModel::predict`] does for it. Every particle therefore gets the
/// bits of [`motion_predict`] for any chunking.
#[inline(always)]
pub(crate) fn motion_lane_groups<S: Scalar>(
    particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    let stream = |i: usize| CounterRng::for_particle(seed, update_index, first_index + i as u64);
    let n = particles.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let group_x = &mut particles.x[i..i + LANES];
        let group_y = &mut particles.y[i..i + LANES];
        let group_theta = &mut particles.theta[i..i + LANES];
        let mut pose = [[0.0f32; 3]; LANES];
        for (l, p) in pose.iter_mut().enumerate() {
            *p = [
                group_x[l].to_f32(),
                group_y[l].to_f32(),
                group_theta[l].to_f32(),
            ];
        }
        let mut xs = [0.0f32; LANES];
        let mut ys = [0.0f32; LANES];
        let mut thetas = [0.0f32; LANES];
        let mut in_window = [false; LANES];
        for l in 0..LANES {
            let ([x, y, theta], ok) = model.predict_lane(pose[l], delta, stream(i + l));
            xs[l] = x;
            ys[l] = y;
            thetas[l] = theta;
            in_window[l] = ok;
        }
        for l in 0..LANES {
            if !in_window[l] {
                [xs[l], ys[l], thetas[l]] = model.predict_wrapped(pose[l], delta, stream(i + l));
            }
            group_x[l] = S::from_f32(xs[l]);
            group_y[l] = S::from_f32(ys[l]);
            group_theta[l] = S::from_f32(thetas[l]);
        }
        i += LANES;
    }
    for j in i..n {
        let [x, y, theta] = model.predict(
            [
                particles.x[j].to_f32(),
                particles.y[j].to_f32(),
                particles.theta[j].to_f32(),
            ],
            delta,
            stream(j),
        );
        particles.x[j] = S::from_f32(x);
        particles.y[j] = S::from_f32(y);
        particles.theta[j] = S::from_f32(theta);
    }
}

/// The prediction kernel behind a [`KernelBackend`] selection: `Scalar` runs
/// the per-particle [`motion_predict`], `Lanes` the lane-group loop, and
/// `Avx2` the same lane-group loop compiled for AVX2 (on hosts without it,
/// the `Lanes` build). Each particle's body is four counter-based uniforms
/// forming two paired Box–Muller draws plus a polynomial `sin_cos` pose
/// composition (see the [body table](self#kernel-backends-and-the-lane-width-contract));
/// all three give the same bits.
pub fn motion_predict_with<S: Scalar>(
    backend: KernelBackend,
    particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    match backend {
        KernelBackend::Scalar => {
            motion_predict(particles, model, delta, seed, update_index, first_index)
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 if crate::simd::available() => crate::simd::motion_lane_groups(
            particles,
            model,
            delta,
            seed,
            update_index,
            first_index,
        ),
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            motion_lane_groups(particles, model, delta, seed, update_index, first_index)
        }
    }
}

/// Correction kernel, part 1: evaluates the batched beam-end-point model
/// (Eq. 1) for every particle of the chunk, writing one log-likelihood per
/// particle into `out` — the scalar body of
/// [`observation_log_likelihoods_with`].
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn observation_log_likelihoods<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    observation_log_likelihoods_with(KernelBackend::Scalar, particles, field, model, batch, out)
}

/// The lane-group loop shared by the `Lanes` and `Avx2` observation bodies:
/// gathers each [`LANES`]-wide pose group out of the SoA arrays, hands it to
/// `score_group`, and scores the `len % LANES` tail with the scalar body.
/// The two backends differ only in the group scorer.
fn observation_lane_groups<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    (end_x, end_y): (&[f32], &[f32]),
    out: &mut [f32],
    score_group: impl Fn(&[f32; LANES], &[f32; LANES], &[f32; LANES], &mut [f32; LANES]),
) {
    let n = particles.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let mut xs = [0.0f32; LANES];
        let mut ys = [0.0f32; LANES];
        let mut thetas = [0.0f32; LANES];
        for l in 0..LANES {
            xs[l] = particles.x[i + l].to_f32();
            ys[l] = particles.y[i + l].to_f32();
            thetas[l] = particles.theta[i + l].to_f32();
        }
        let mut lane_out = [0.0f32; LANES];
        score_group(&xs, &ys, &thetas, &mut lane_out);
        out[i..i + LANES].copy_from_slice(&lane_out);
        i += LANES;
    }
    for (j, slot) in out[..n].iter_mut().enumerate().skip(i) {
        *slot = model.end_points_log_likelihood(
            field,
            particles.x[j].to_f32(),
            particles.y[j].to_f32(),
            particles.theta[j].to_f32(),
            end_x,
            end_y,
        );
    }
}

/// The `Lanes` group body of the observation kernel: scores one
/// [`LANES`]-wide group of particle poses against every in-range end point.
///
/// Per lane the arithmetic is the exact op order of the scalar body — one
/// `sin_cos` of the lane's yaw, then per beam the body→world rotation, the
/// distance-field lookup and [`BeamEndPointModel::log_term`] accumulated in
/// beam order — so every lane's score is **bit-identical** to it. The lane
/// structure only changes what the compiler can do with it: the rotation,
/// the lookup's world→cell divisions
/// ([`DistanceField::distances_at_world_lanes`]) and the accumulation become
/// straight-line loops over fixed-width arrays that vectorize.
#[allow(clippy::too_many_arguments)] // the full lane-group register set
fn score_lane_group<D: DistanceField + ?Sized>(
    model: &BeamEndPointModel,
    field: &D,
    x: &[f32; LANES],
    y: &[f32; LANES],
    theta: &[f32; LANES],
    end_x: &[f32],
    end_y: &[f32],
    out: &mut [f32; LANES],
) {
    let mut sin_t = [0.0f32; LANES];
    let mut cos_t = [0.0f32; LANES];
    for l in 0..LANES {
        let (s, c) = theta[l].sin_cos();
        sin_t[l] = s;
        cos_t[l] = c;
    }
    let mut log_sum = [0.0f32; LANES];
    for (&bx, &by) in end_x.iter().zip(end_y) {
        let mut ex = [0.0f32; LANES];
        let mut ey = [0.0f32; LANES];
        for l in 0..LANES {
            ex[l] = x[l] + cos_t[l] * bx - sin_t[l] * by;
            ey[l] = y[l] + sin_t[l] * bx + cos_t[l] * by;
        }
        let mut edt = [0.0f32; LANES];
        field.distances_at_world_lanes(&ex, &ey, &mut edt);
        for l in 0..LANES {
            log_sum[l] += model.log_term(edt[l]);
        }
    }
    *out = log_sum;
}

/// The first correction kernel behind a [`KernelBackend`] selection — the
/// one kernel with all three bodies. The chunk's in-range end points are
/// resolved once per call through [`BeamBatch::in_range_slices`] (borrowed
/// when the batch was [partitioned](BeamBatch::partition_in_range) for the
/// model's `r_max`, an owned copy otherwise), and every body scores each of
/// them with no range test:
///
/// * `Scalar` runs one per-particle loop (the body of
///   [`BeamEndPointModel::batch_log_likelihood`]);
/// * `Lanes` scores each [`LANES`]-wide pose group at once, which vectorizes
///   the body→world rotation, the world→cell divisions of the EDT lookup and
///   the log-term accumulation across the lanes, and scores the
///   `len % LANES` tail with the scalar body;
/// * `Avx2` keeps the pose registers, the per-beam rotation and the Eq. 1
///   accumulation in 8×f32 AVX2 registers and gathers the EDT lookups on
///   AVX2-capable fields. Without AVX2 (checked at runtime) and on non-x86
///   builds it runs the `Lanes` body.
///
/// All three are bit-identical: the lane bodies perform the scalar body's
/// single-rounding IEEE ops in the scalar order and never fuse a
/// multiply-add.
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn observation_log_likelihoods_with<S: Scalar, D: DistanceField + ?Sized>(
    backend: KernelBackend,
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    assert!(out.len() >= particles.len(), "output chunk too short");
    let (end_x, end_y) = batch.in_range_slices(model.r_max());
    let ends = (&*end_x, &*end_y);
    match backend {
        KernelBackend::Scalar => {
            for (i, slot) in out[..particles.len()].iter_mut().enumerate() {
                *slot = model.end_points_log_likelihood(
                    field,
                    particles.x[i].to_f32(),
                    particles.y[i].to_f32(),
                    particles.theta[i].to_f32(),
                    ends.0,
                    ends.1,
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 if crate::simd::available() => {
            observation_lane_groups(particles, field, model, ends, out, |x, y, theta, group| {
                crate::simd::score_pose_group(model, field, x, y, theta, ends.0, ends.1, group)
            })
        }
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            observation_lane_groups(particles, field, model, ends, out, |x, y, theta, group| {
                score_lane_group(model, field, x, y, theta, ends.0, ends.1, group)
            })
        }
    }
}

/// Correction kernel, part 1b (sensor fusion): evaluates the UWB
/// [`AnchorRangeModel`] for every particle of the chunk and **adds** the
/// anchor log-likelihood onto the per-particle slot of `out` — the
/// per-sensor log-likelihoods sum into the particle weights, so the beam
/// kernel writes and the anchor kernel accumulates (one add per particle,
/// identical association on every backend).
///
/// The filter only dispatches this kernel when the observation carries at
/// least one anchor; a beam-only update never touches it, which keeps the
/// beam-only floating-point op sequence byte-for-byte what it was before the
/// fusion pipeline existed.
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn anchor_log_likelihoods<S: Scalar>(
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    assert!(out.len() >= particles.len(), "output chunk too short");
    for (i, slot) in out[..particles.len()].iter_mut().enumerate() {
        *slot +=
            model.batch_log_likelihood(particles.x[i].to_f32(), particles.y[i].to_f32(), batch);
    }
}

/// Lane-batched body of [`anchor_log_likelihoods`]: scores the chunk in
/// [`LANES`]-wide position groups, each lane summing
/// [`AnchorRangeModel::residual_log_term`] over the usable anchors in anchor
/// order (the straight-line residual arithmetic vectorizes across the
/// lanes), with a scalar-reference tail. Bit-identical to
/// [`anchor_log_likelihoods`].
fn anchor_log_likelihoods_lanes<S: Scalar>(
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    let n = particles.len();
    assert!(out.len() >= n, "output chunk too short");
    let anchor_x = batch.anchor_x_m();
    let anchor_y = batch.anchor_y_m();
    let mut i = 0usize;
    while i + LANES <= n {
        let mut xs = [0.0f32; LANES];
        let mut ys = [0.0f32; LANES];
        for l in 0..LANES {
            xs[l] = particles.x[i + l].to_f32();
            ys[l] = particles.y[i + l].to_f32();
        }
        let mut log_sum = [0.0f32; LANES];
        for (k, &z) in batch.anchor_range_m().iter().enumerate() {
            let (ax, ay) = (anchor_x[k], anchor_y[k]);
            if !anchor_is_usable(ax, ay, z) {
                continue;
            }
            for l in 0..LANES {
                log_sum[l] += model.residual_log_term(xs[l], ys[l], ax, ay, z);
            }
        }
        for l in 0..LANES {
            out[i + l] += log_sum[l];
        }
        i += LANES;
    }
    for (j, slot) in out[..n].iter_mut().enumerate().skip(i) {
        *slot +=
            model.batch_log_likelihood(particles.x[j].to_f32(), particles.y[j].to_f32(), batch);
    }
}

/// The anchor-range correction kernel behind a [`KernelBackend`] selection:
/// `Scalar` runs [`anchor_log_likelihoods`], `Lanes` and `Avx2` run the
/// lane-batched body (an explicit-AVX2 body measured no faster than it).
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn anchor_log_likelihoods_with<S: Scalar>(
    backend: KernelBackend,
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    match backend {
        KernelBackend::Scalar => anchor_log_likelihoods(particles, model, batch, out),
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            anchor_log_likelihoods_lanes(particles, model, batch, out)
        }
    }
}

/// The contract [`reweight`] holds its caller to, checked in debug builds:
/// `max_log` must dominate every log-likelihood of the chunk and must not be
/// NaN or +∞. `−∞` is permitted — together with the domination check it
/// implies *every* entry is `−∞` (the weights-collapsed observation), which
/// the kernel resolves by zeroing the chunk instead of computing the
/// indeterminate `−∞ − −∞`.
fn debug_assert_reweight_contract(log_likelihoods: &[f32], max_log: f32) {
    debug_assert!(!max_log.is_nan(), "max_log must not be NaN");
    debug_assert!(max_log < f32::INFINITY, "max_log must be finite or -inf");
    debug_assert!(
        log_likelihoods.iter().all(|&l| l <= max_log),
        "max_log must be at least the chunk's maximum log-likelihood"
    );
}

/// Correction kernel, part 2: multiplies each weight by its likelihood,
/// rescaled by the set-wide maximum log-likelihood so a sharp observation model
/// cannot underflow `f32`.
///
/// `max_log` must dominate the chunk (debug-asserted; the filter passes the
/// set-wide maximum, which does by construction) and must not be NaN or +∞.
/// When `max_log` is `−∞` — every particle scored impossible, the collapsed
/// observation — the exponent `log_lik − max_log` would be NaN; the kernel
/// zeroes the weights instead, and the pose kernel's
/// [`PosePartials::weights_collapsed`] fallback plus the resampler's uniform
/// reset recover, exactly as for weights that underflowed to zero.
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight<S: Scalar>(weights: &mut [S], log_likelihoods: &[f32], max_log: f32) {
    assert_eq!(
        weights.len(),
        log_likelihoods.len(),
        "chunk length mismatch"
    );
    debug_assert_reweight_contract(log_likelihoods, max_log);
    if max_log == f32::NEG_INFINITY {
        weights.fill(S::from_f32(0.0));
        return;
    }
    for (w, &log_lik) in weights.iter_mut().zip(log_likelihoods.iter()) {
        let scaled = (log_lik - max_log).exp();
        *w = S::from_f32(w.to_f32() * scaled);
    }
}

/// Lane-batched correction kernel, part 2: [`LANES`]-wide groups of the
/// rescale-and-store body (the subtraction, the multiply and the storage
/// rounding vectorize; the `exp` stays a scalar call per lane) with a
/// scalar-reference tail. Bit-identical to [`reweight`], including the
/// collapsed-observation zeroing.
fn reweight_lanes<S: Scalar>(weights: &mut [S], log_likelihoods: &[f32], max_log: f32) {
    assert_eq!(
        weights.len(),
        log_likelihoods.len(),
        "chunk length mismatch"
    );
    debug_assert_reweight_contract(log_likelihoods, max_log);
    if max_log == f32::NEG_INFINITY {
        weights.fill(S::from_f32(0.0));
        return;
    }
    let mut weight_groups = weights.chunks_exact_mut(LANES);
    let mut log_groups = log_likelihoods.chunks_exact(LANES);
    for (wg, lg) in (&mut weight_groups).zip(&mut log_groups) {
        let mut scaled = [0.0f32; LANES];
        for l in 0..LANES {
            scaled[l] = (lg[l] - max_log).exp();
        }
        for l in 0..LANES {
            wg[l] = S::from_f32(wg[l].to_f32() * scaled[l]);
        }
    }
    for (w, &log_lik) in weight_groups
        .into_remainder()
        .iter_mut()
        .zip(log_groups.remainder().iter())
    {
        let scaled = (log_lik - max_log).exp();
        *w = S::from_f32(w.to_f32() * scaled);
    }
}

/// The second correction kernel behind a [`KernelBackend`] selection:
/// `Scalar` runs [`reweight`], `Lanes` and `Avx2` run the lane-batched body
/// (the `exp` is a scalar libm call per lane either way, so an 8-wide AVX2
/// subtraction measured no faster).
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight_with<S: Scalar>(
    backend: KernelBackend,
    weights: &mut [S],
    log_likelihoods: &[f32],
    max_log: f32,
) {
    match backend {
        KernelBackend::Scalar => reweight(weights, log_likelihoods, max_log),
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            reweight_lanes(weights, log_likelihoods, max_log)
        }
    }
}

/// Resampling kernel: gathers `source[indices[i]]` into slot `i` of the target
/// chunk and stamps the post-resampling uniform weight — the per-worker half of
/// the paper's Fig. 4 decomposition (the plan itself comes from
/// [`crate::resampling::PartialSumResampler`]).
///
/// # Panics
///
/// Panics when `indices` and the target chunk differ in length.
pub fn resample_scatter<S: Scalar>(
    source: ParticleSlice<'_, S>,
    target: ParticleSliceMut<'_, S>,
    indices: &[usize],
    uniform_weight: S,
) {
    assert_eq!(target.len(), indices.len(), "chunk length mismatch");
    // One tight pass per component: each loop streams exactly one source and
    // one target array (systematic-resampling indices are non-decreasing, so
    // the gather side is near-sequential too), and the weight reset is a fill
    // instead of a strided store — the layout win SoA buys the scatter.
    for (dst, &src) in target.x.iter_mut().zip(indices) {
        *dst = source.x[src];
    }
    for (dst, &src) in target.y.iter_mut().zip(indices) {
        *dst = source.y[src];
    }
    for (dst, &src) in target.theta.iter_mut().zip(indices) {
        *dst = source.theta[src];
    }
    target.weight.fill(uniform_weight);
}

/// The resampling kernel behind a [`KernelBackend`] selection. Every backend
/// runs [`resample_scatter`]: the scatter is memory-bound index-driven copies
/// with no arithmetic to vectorize.
///
/// # Panics
///
/// Panics when `indices` and the target chunk differ in length.
pub fn resample_scatter_with<S: Scalar>(
    _backend: KernelBackend,
    source: ParticleSlice<'_, S>,
    target: ParticleSliceMut<'_, S>,
    indices: &[usize],
    uniform_weight: S,
) {
    resample_scatter(source, target, indices, uniform_weight)
}

/// First-pass partial sums of the pose-computation kernel: weighted position /
/// heading-vector sums plus their unweighted counterparts (the fallback when
/// every weight has collapsed to zero).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PosePartials {
    count: usize,
    sum_w: f64,
    sum_w_sq: f64,
    sum_wx: f64,
    sum_wy: f64,
    sum_w_sin: f64,
    sum_w_cos: f64,
    sum_x: f64,
    sum_y: f64,
    sum_sin: f64,
    sum_cos: f64,
}

impl PosePartials {
    /// Accumulates one particle chunk, in particle order (the f64
    /// association the bit-identical fixed-block reduction depends on).
    pub fn accumulate<S: Scalar>(particles: ParticleSlice<'_, S>) -> Self {
        let mut p = PosePartials::default();
        for i in 0..particles.len() {
            let w = f64::from(particles.weight[i].to_f32().max(0.0));
            let x = f64::from(particles.x[i].to_f32());
            let y = f64::from(particles.y[i].to_f32());
            let theta = particles.theta[i].to_f32();
            let (sin_t, cos_t) = (f64::from(theta.sin()), f64::from(theta.cos()));
            p.count += 1;
            p.sum_w += w;
            p.sum_w_sq += w * w;
            p.sum_wx += w * x;
            p.sum_wy += w * y;
            p.sum_w_sin += w * sin_t;
            p.sum_w_cos += w * cos_t;
            p.sum_x += x;
            p.sum_y += y;
            p.sum_sin += sin_t;
            p.sum_cos += cos_t;
        }
        p
    }

    /// Merges another partial into this one. Merging must happen in block
    /// order for bit-identical results (f64 addition is order-sensitive).
    pub fn merge(&mut self, other: &PosePartials) {
        self.count += other.count;
        self.sum_w += other.sum_w;
        self.sum_w_sq += other.sum_w_sq;
        self.sum_wx += other.sum_wx;
        self.sum_wy += other.sum_wy;
        self.sum_w_sin += other.sum_w_sin;
        self.sum_w_cos += other.sum_w_cos;
        self.sum_x += other.sum_x;
        self.sum_y += other.sum_y;
        self.sum_sin += other.sum_sin;
        self.sum_cos += other.sum_cos;
    }

    /// Whether the weights have collapsed (the estimate falls back to the
    /// unweighted mean, as the filter recovers by resetting to uniform).
    pub fn weights_collapsed(&self) -> bool {
        self.sum_w <= f64::from(f32::MIN_POSITIVE)
    }

    /// The mean pose implied by the partials; `fallback_theta` is used when the
    /// heading vectors cancel (no meaningful circular mean).
    pub fn mean(&self, fallback_theta: f32) -> Pose2 {
        let (sum_w, sum_x, sum_y, sum_sin, sum_cos) = if self.weights_collapsed() {
            (
                self.count as f64,
                self.sum_x,
                self.sum_y,
                self.sum_sin,
                self.sum_cos,
            )
        } else {
            (
                self.sum_w,
                self.sum_wx,
                self.sum_wy,
                self.sum_w_sin,
                self.sum_w_cos,
            )
        };
        let mean_x = (sum_x / sum_w) as f32;
        let mean_y = (sum_y / sum_w) as f32;
        // Same resultant-length cutoff as mcl_num::weighted_circular_mean.
        let norm = (sum_sin * sum_sin + sum_cos * sum_cos).sqrt();
        let mean_theta = if sum_w <= 0.0 || norm < 1e-6 * sum_w {
            fallback_theta
        } else {
            normalize_angle(sum_sin.atan2(sum_cos) as f32)
        };
        Pose2 {
            x: mean_x,
            y: mean_y,
            theta: normalize_angle(mean_theta),
        }
    }

    /// Effective sample size `(Σw)² / Σw²` of the accumulated weights.
    pub fn effective_sample_size(&self) -> f32 {
        let (sum_w, sum_w_sq) = if self.weights_collapsed() {
            (self.count as f64, self.count as f64)
        } else {
            (self.sum_w, self.sum_w_sq)
        };
        if sum_w_sq <= 0.0 {
            0.0
        } else {
            (sum_w * sum_w / sum_w_sq) as f32
        }
    }

    /// The accumulated weight sum used for normalizing the spread pass.
    pub fn spread_norm(&self) -> f64 {
        if self.weights_collapsed() {
            self.count as f64
        } else {
            self.sum_w
        }
    }
}

/// Second-pass partial sums of the pose-computation kernel: weighted squared
/// deviations from the mean pose.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpreadPartials {
    var_pos: f64,
    var_yaw: f64,
}

impl SpreadPartials {
    /// Accumulates one particle chunk against the set-wide mean pose.
    /// `unweighted` selects the collapsed-weights fallback.
    pub fn accumulate<S: Scalar>(
        particles: ParticleSlice<'_, S>,
        mean: &Pose2,
        unweighted: bool,
    ) -> Self {
        let mut p = SpreadPartials::default();
        for i in 0..particles.len() {
            let w = if unweighted {
                1.0
            } else {
                f64::from(particles.weight[i].to_f32().max(0.0))
            };
            let dx = f64::from(particles.x[i].to_f32() - mean.x);
            let dy = f64::from(particles.y[i].to_f32() - mean.y);
            let dt = f64::from(angular_difference(particles.theta[i].to_f32(), mean.theta));
            p.var_pos += w * (dx * dx + dy * dy);
            p.var_yaw += w * dt * dt;
        }
        p
    }

    /// Merges another partial into this one (in block order, see
    /// [`PosePartials::merge`]).
    pub fn merge(&mut self, other: &SpreadPartials) {
        self.var_pos += other.var_pos;
        self.var_yaw += other.var_yaw;
    }

    /// Position / yaw standard deviations given the weight normalizer.
    pub fn finish(&self, norm: f64) -> (f32, f32) {
        if norm <= 0.0 {
            return (0.0, 0.0);
        }
        (
            (self.var_pos / norm).sqrt() as f32,
            (self.var_yaw / norm).sqrt() as f32,
        )
    }
}

/// Pose-computation kernel: the weighted-average pose plus dispersion figures,
/// reduced over fixed [`POSE_REDUCTION_BLOCK`]-particle blocks distributed over
/// `layout`'s workers. The block partials are folded in block order, so the
/// estimate is **bit-identical for every worker count** — the determinism
/// contract the integration tests pin down.
///
/// # Panics
///
/// Panics when `particles` is empty.
pub fn pose_estimate<S: Scalar>(
    particles: &ParticleBuffer<S>,
    layout: &ClusterLayout,
) -> PoseEstimate {
    pose_estimate_with(particles, layout, KernelBackend::Scalar)
}

/// [`pose_estimate`] behind a [`KernelBackend`] selection. Every backend
/// runs the scalar [`PosePartials`] / [`SpreadPartials`] accumulation: the
/// f64 folds must stay serial per accumulator, so a lane-shaped body could
/// only vectorize the widening and measured no faster.
///
/// # Panics
///
/// Panics when `particles` is empty.
pub fn pose_estimate_with<S: Scalar>(
    particles: &ParticleBuffer<S>,
    layout: &ClusterLayout,
    backend: KernelBackend,
) -> PoseEstimate {
    pose_estimate_prefix_with(particles, particles.len(), layout, backend)
}

/// [`pose_estimate_with`] restricted to the first `n` particles. The filter
/// uses this to publish a pose that excludes freshly injected recovery
/// particles (the buffer suffix): they are drawn uniformly over free space
/// and carry no posterior support until the next observation weighs them, so
/// including them would bias the estimate toward the map centroid for the
/// whole injection episode. Same fixed block geometry, so the result is
/// bit-identical across worker counts.
///
/// # Panics
///
/// Panics when `n` is zero or exceeds the buffer length.
pub fn pose_estimate_prefix_with<S: Scalar>(
    particles: &ParticleBuffer<S>,
    n: usize,
    layout: &ClusterLayout,
    _backend: KernelBackend,
) -> PoseEstimate {
    assert!(
        n > 0 && n <= particles.len(),
        "estimate prefix must be non-empty and within the particle set"
    );
    let view = particles.as_slice();
    let slice_of = |start: usize, end: usize| {
        let (_, tail) = view.split_at(start);
        let (mid, _) = tail.split_at(end - start);
        mid
    };

    let mut first_pass = PosePartials::default();
    for partial in layout.map_index_blocks(n, POSE_REDUCTION_BLOCK, |start, end| {
        PosePartials::accumulate(slice_of(start, end))
    }) {
        first_pass.merge(&partial);
    }
    let mean = first_pass.mean(particles.theta()[0].to_f32());
    let unweighted = first_pass.weights_collapsed();

    let mut second_pass = SpreadPartials::default();
    for partial in layout.map_index_blocks(n, POSE_REDUCTION_BLOCK, |start, end| {
        SpreadPartials::accumulate(slice_of(start, end), &mean, unweighted)
    }) {
        second_pass.merge(&partial);
    }
    let (position_std_m, yaw_std_rad) = second_pass.finish(first_pass.spread_norm());

    PoseEstimate {
        pose: mean,
        position_std_m,
        yaw_std_rad,
        neff: first_pass.effective_sample_size(),
    }
}

/// Weighted mean-shift refinement of a pose estimate onto the dominant mode
/// of the cloud, considering only the first `n` particles.
///
/// The plain weighted average is the wrong statistic for a multi-modal
/// belief: with the cloud split across two aisles of a symmetric world it
/// lands *between* the modes, and the filter looks unconverged even while
/// two thirds of the mass sits on the true pose. Each iteration recenters on
/// the weighted mean of the particles within `radius_m` (xy) of the current
/// center — the window walks toward the heavier mode and sheds the lighter
/// one, exactly the "report the dominant cluster" convention of deployed MCL
/// stacks. Yaw is the circular mean of the in-window particles.
///
/// Serial `f64` accumulation in index order, so the result is bit-identical
/// for every backend and worker count. Returns the refined pose together
/// with the fraction of the total prefix weight the final window holds —
/// the caller should only *publish* the refined pose when that fraction is a
/// majority, otherwise the refinement confidently reports one of several
/// live hypotheses and the estimate jumps between modes. Returns `start`
/// with fraction `0.0` when no particle falls inside the window.
pub fn refine_mode_estimate<S: Scalar>(
    particles: &ParticleBuffer<S>,
    n: usize,
    start: Pose2,
    radius_m: f32,
    iterations: usize,
) -> (Pose2, f64) {
    let view = particles.as_slice();
    let r2 = f64::from(radius_m) * f64::from(radius_m);
    let total: f64 = view.weight[..n].iter().map(|w| f64::from(w.to_f32())).sum();
    if total <= 0.0 {
        return (start, 0.0);
    }
    let mut center = start;
    let mut window_mass = 0.0f64;
    for _ in 0..iterations {
        let cx = f64::from(center.x);
        let cy = f64::from(center.y);
        let (mut sw, mut sx, mut sy, mut ssin, mut scos) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for i in 0..n {
            let x = f64::from(view.x[i].to_f32());
            let y = f64::from(view.y[i].to_f32());
            let (dx, dy) = (x - cx, y - cy);
            if dx * dx + dy * dy <= r2 {
                let w = f64::from(view.weight[i].to_f32());
                let theta = f64::from(view.theta[i].to_f32());
                sw += w;
                sx += w * x;
                sy += w * y;
                ssin += w * theta.sin();
                scos += w * theta.cos();
            }
        }
        if sw <= 0.0 {
            break;
        }
        window_mass = sw;
        let next = Pose2::new((sx / sw) as f32, (sy / sw) as f32, ssin.atan2(scos) as f32);
        if next.x == center.x && next.y == center.y && next.theta == center.theta {
            break;
        }
        center = next;
    }
    (center, window_mass / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::Particle;
    use mcl_gridmap::{EuclideanDistanceField, MapBuilder};
    use mcl_sensor::{Beam, SensorConfig, SensorRig};
    use rand::SeedableRng;

    fn buffer(n: usize) -> ParticleBuffer<f32> {
        (0..n)
            .map(|i| {
                Particle::from_pose(
                    &Pose2::new(
                        1.0 + (i % 13) as f32 * 0.05,
                        1.0 + (i % 7) as f32 * 0.04,
                        (i % 17) as f32 * 0.3,
                    ),
                    (1 + i % 5) as f32 / n as f32,
                )
            })
            .collect()
    }

    #[test]
    fn pose_estimate_prefix_matches_a_truncated_buffer() {
        let full = buffer(513);
        let prefix: ParticleBuffer<f32> = full.iter().take(300).collect();
        let truncated = pose_estimate_with(&prefix, &ClusterLayout::GAP9, KernelBackend::Scalar);
        for backend in [KernelBackend::Scalar, KernelBackend::Lanes] {
            let limited = pose_estimate_prefix_with(&full, 300, &ClusterLayout::GAP9, backend);
            assert_eq!(limited.pose.x.to_bits(), truncated.pose.x.to_bits());
            assert_eq!(limited.pose.y.to_bits(), truncated.pose.y.to_bits());
            assert_eq!(limited.pose.theta.to_bits(), truncated.pose.theta.to_bits());
            assert_eq!(
                limited.position_std_m.to_bits(),
                truncated.position_std_m.to_bits()
            );
        }
        // The full-length prefix is exactly the whole-buffer estimate.
        let whole = pose_estimate_with(&full, &ClusterLayout::GAP9, KernelBackend::Scalar);
        let all = pose_estimate_prefix_with(
            &full,
            full.len(),
            &ClusterLayout::GAP9,
            KernelBackend::Scalar,
        );
        assert_eq!(whole.pose.x.to_bits(), all.pose.x.to_bits());
        assert_eq!(whole.neff.to_bits(), all.neff.to_bits());
    }

    #[test]
    fn motion_kernel_matches_per_particle_sampling_for_any_chunking() {
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        let reference: Vec<Particle<f32>> = buffer(100)
            .iter()
            .enumerate()
            .map(|(i, p)| model.sample(&p, &delta, 9, 2, i as u64))
            .collect();
        for workers in [1usize, 3, 8] {
            let mut soa = buffer(100);
            ClusterLayout::new(workers).for_each_split(soa.as_mut_slice(), |start, chunk| {
                motion_predict(chunk, &model, &delta, 9, 2, start as u64);
            });
            assert_eq!(soa.to_particles(), reference, "workers={workers}");
        }
    }

    #[test]
    fn motion_backends_agree_on_out_of_window_lanes() {
        // Out-of-range stored yaws and huge or non-finite turns, placed both
        // inside lane groups and in the tail (27 = 3 × 8 + 3), take the
        // normalize_angle path; every backend must write the scalar bits.
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let bits = |b: &ParticleBuffer<f32>| {
            b.iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.theta.to_bits()])
                .collect::<Vec<_>>()
        };
        let deltas = [
            MotionDelta::new(0.1, 0.02, 0.05),
            MotionDelta::new(0.1, 0.02, 1e20),
            MotionDelta::new(f32::NAN, 0.0, f32::NAN),
        ];
        for delta in deltas {
            let start = || {
                let mut b = buffer(27);
                let view = b.as_mut_slice();
                for (slot, yaw) in [(3, 100.0), (9, -1e9), (17, f32::NAN), (25, 40.0)] {
                    view.theta[slot] = yaw;
                }
                b
            };
            let mut reference = start();
            motion_predict(reference.as_mut_slice(), &model, &delta, 9, 2, 0);
            for backend in KernelBackend::ALL {
                let mut moved = start();
                motion_predict_with(backend, moved.as_mut_slice(), &model, &delta, 9, 2, 0);
                assert_eq!(bits(&moved), bits(&reference), "{backend:?} {delta:?}");
            }
            assert!(reference.theta()[17].is_nan());
            for (i, &theta) in reference.theta().iter().enumerate() {
                assert!(
                    theta.is_nan() || (0.0..core::f32::consts::TAU).contains(&theta),
                    "{i}: {theta}"
                );
            }
        }
    }

    #[test]
    fn observation_kernel_fills_one_log_likelihood_per_particle() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let rig = SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let batch = BeamBatch::from_beams(&beams);
        let particles = buffer(64);
        let mut sequential = vec![0.0f32; 64];
        observation_log_likelihoods(particles.as_slice(), &edt, &model, &batch, &mut sequential);
        // Chunked execution writes exactly the same values.
        let mut chunked = vec![0.0f32; 64];
        ClusterLayout::GAP9.for_each_split(
            (particles.as_slice(), chunked.as_mut_slice()),
            |_, (chunk, out)| observation_log_likelihoods(chunk, &edt, &model, &batch, out),
        );
        assert_eq!(sequential, chunked);
        // And they match the scalar model entry point.
        for (i, &value) in sequential.iter().enumerate() {
            let p = particles.get(i);
            let direct = model.batch_log_likelihood(&edt, p.x, p.y, p.theta, &batch);
            assert_eq!(value, direct);
        }
    }

    #[test]
    fn reweight_kernel_rescales_against_the_maximum() {
        let mut weights = vec![0.5f32; 4];
        let logs = [0.0f32, -1.0, -2.0, f32::NEG_INFINITY];
        reweight(&mut weights, &logs, 0.0);
        assert_eq!(weights[0], 0.5);
        assert!((weights[1] - 0.5 * (-1.0f32).exp()).abs() < 1e-7);
        assert_eq!(weights[3], 0.0);
    }

    #[test]
    fn backend_names_parse_back_to_themselves() {
        for backend in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(backend.name()), Some(backend));
        }
        assert_eq!(KernelBackend::parse(" LANES\n"), Some(KernelBackend::Lanes));
        assert_eq!(KernelBackend::parse("Scalar"), Some(KernelBackend::Scalar));
        assert_eq!(KernelBackend::parse("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::parse("simd"), None);
        assert_eq!(KernelBackend::parse(""), None);
        assert_eq!(KernelBackend::default(), KernelBackend::Lanes);
    }

    #[test]
    fn unrecognized_env_values_warn_and_fall_back_instead_of_panicking() {
        // `resolve_env` is `from_env` minus the process-global variable read:
        // unset and empty resolve to None (the caller's default applies), any
        // recognized spelling resolves case-insensitively, and an unrecognized
        // value warns on stderr once and falls back to None rather than
        // panicking (a typo in MCL_KERNEL_BACKEND must not take the filter
        // down).
        assert_eq!(KernelBackend::resolve_env(None), None);
        assert_eq!(KernelBackend::resolve_env(Some("")), None);
        assert_eq!(KernelBackend::resolve_env(Some("  ")), None);
        assert_eq!(
            KernelBackend::resolve_env(Some("AVX2")),
            Some(KernelBackend::Avx2)
        );
        assert_eq!(
            KernelBackend::resolve_env(Some(" scalar ")),
            Some(KernelBackend::Scalar)
        );
        assert_eq!(KernelBackend::resolve_env(Some("simd")), None);
        assert_eq!(KernelBackend::resolve_env(Some("avx512")), None);
    }

    #[test]
    fn detect_prefers_avx2_only_when_it_is_available() {
        let detected = KernelBackend::detect();
        if KernelBackend::Avx2.is_available() {
            assert_eq!(detected, KernelBackend::Avx2);
        } else {
            assert_eq!(detected, KernelBackend::default());
        }
        // Scalar and Lanes are portable and always available.
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::Lanes.is_available());
    }

    #[test]
    fn collapsed_observation_zeroes_the_weights_on_every_backend() {
        // Every particle scored −∞ (the weights-collapsed observation): the
        // naive exponent would be NaN (−∞ − −∞) and poison the filter. Every
        // backend must zero the chunk instead, for both storage precisions.
        use mcl_num::F16;
        let logs = vec![f32::NEG_INFINITY; 11];
        for backend in KernelBackend::ALL {
            let mut weights = vec![0.25f32; 11];
            reweight_with(backend, &mut weights, &logs, f32::NEG_INFINITY);
            assert_eq!(weights, vec![0.0f32; 11], "{backend:?}");
            let mut halves = vec![F16::from_f32(0.25); 11];
            reweight_with(backend, &mut halves, &logs, f32::NEG_INFINITY);
            assert!(halves.iter().all(|w| w.to_f32() == 0.0), "{backend:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "max_log must be at least")]
    fn reweight_rejects_a_dominated_max_log_in_debug_builds() {
        let mut weights = vec![0.5f32; 2];
        reweight(&mut weights, &[0.0, 1.0], 0.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn reweight_rejects_a_nan_max_log_in_debug_builds() {
        let mut weights = vec![0.5f32; 1];
        reweight(&mut weights, &[f32::NAN], f32::NAN);
    }

    /// Runs every kernel on `backend` and on Scalar through the `_with` entry
    /// points and asserts bit-identical results. A quick in-module sanity
    /// check (the exhaustive tail/layout sweep lives in
    /// tests/kernel_backend_equivalence.rs): 1003 = 125 × 8 + 3 forces a
    /// scalar tail in every lane body.
    fn assert_backend_matches_scalar_on_a_tailed_chunk(backend: KernelBackend) {
        let n = 1003usize;
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let obs = BeamEndPointModel::new(0.3, 1.5);
        let rig = SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let indices: Vec<usize> = (0..n).map(|i| (i * 13) % n).collect();

        let run = |backend: KernelBackend| {
            let mut particles = buffer(n);
            motion_predict_with(backend, particles.as_mut_slice(), &model, &delta, 9, 2, 0);
            // Score through both batch shapes: the raw batch is scored from
            // an owned in-range copy, the partitioned batch from the
            // borrowed in-range prefix.
            let mut logs = vec![0.0f32; 2 * n];
            for (partitioned, out) in [false, true].into_iter().zip(logs.chunks_mut(n)) {
                let mut batch = BeamBatch::from_beams(&beams);
                if partitioned {
                    batch.partition_in_range(obs.r_max());
                }
                observation_log_likelihoods_with(
                    backend,
                    particles.as_slice(),
                    &edt,
                    &obs,
                    &batch,
                    out,
                );
            }
            let partitioned_logs = &logs[n..];
            let max_log = partitioned_logs
                .iter()
                .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            reweight_with(backend, particles.weight_mut(), partitioned_logs, max_log);
            let mut target = buffer(n);
            resample_scatter_with(
                backend,
                particles.as_slice(),
                target.as_mut_slice(),
                &indices,
                0.125f32,
            );
            let estimate = pose_estimate_with(&target, &ClusterLayout::GAP9, backend);
            (particles, logs, target, estimate)
        };

        let (particles, logs, target, estimate) = run(KernelBackend::Scalar);
        let (b_particles, b_logs, b_target, b_estimate) = run(backend);
        assert_eq!(particles, b_particles, "{backend:?}");
        for (a, b) in logs.iter().zip(&b_logs) {
            assert_eq!(a.to_bits(), b.to_bits(), "{backend:?}");
        }
        assert_eq!(target, b_target, "{backend:?}");
        let pairs = [
            (estimate.pose.x, b_estimate.pose.x),
            (estimate.pose.y, b_estimate.pose.y),
            (estimate.pose.theta, b_estimate.pose.theta),
            (estimate.position_std_m, b_estimate.position_std_m),
            (estimate.yaw_std_rad, b_estimate.yaw_std_rad),
            (estimate.neff, b_estimate.neff),
        ];
        for (a, b) in pairs {
            assert_eq!(a.to_bits(), b.to_bits(), "{backend:?}");
        }
    }

    #[test]
    fn lanes_kernels_match_scalar_on_a_tailed_chunk() {
        assert_backend_matches_scalar_on_a_tailed_chunk(KernelBackend::Lanes);
    }

    #[test]
    fn avx2_kernels_match_scalar_on_a_tailed_chunk() {
        // On non-AVX2 hosts the Avx2 backend runs the Lanes bodies, so the
        // assertions still hold — the test then pins the fallback rather than
        // the intrinsics.
        assert_backend_matches_scalar_on_a_tailed_chunk(KernelBackend::Avx2);
    }

    #[test]
    fn anchor_kernel_accumulates_and_matches_scalar_on_a_tailed_chunk() {
        // 1003 = 125 × 8 + 3 forces the scalar tail in the lane body. The
        // kernel *accumulates* — pre-seed `out` with beam-style values and
        // check every backend adds the identical anchor contribution.
        use mcl_sensor::{AnchorRange, ObservationBatch};
        let n = 1003usize;
        let particles = buffer(n);
        let model = AnchorRangeModel::new(0.17);
        let batch = ObservationBatch::new().with_anchors(&[
            AnchorRange::new(0.2, 0.2, 1.1),
            AnchorRange::new(3.8, 0.2, f32::NAN),
            AnchorRange::new(3.8, 3.8, 2.3),
            AnchorRange::new(0.2, 3.8, 0.4),
        ]);
        let seed: Vec<f32> = (0..n).map(|i| -0.01 * i as f32).collect();
        let mut scalar_logs = seed.clone();
        anchor_log_likelihoods(particles.as_slice(), &model, &batch, &mut scalar_logs);
        for (i, &value) in scalar_logs.iter().enumerate() {
            let direct = model.batch_log_likelihood(particles.x()[i], particles.y()[i], &batch);
            assert_eq!(value.to_bits(), (seed[i] + direct).to_bits());
        }
        for backend in KernelBackend::ALL {
            let mut whole = seed.clone();
            anchor_log_likelihoods_with(backend, particles.as_slice(), &model, &batch, &mut whole);
            for i in 0..n {
                assert_eq!(
                    scalar_logs[i].to_bits(),
                    whole[i].to_bits(),
                    "{backend:?} {i}"
                );
            }
            // Chunked dispatch writes exactly the sequential values.
            let mut chunked = seed.clone();
            ClusterLayout::GAP9.for_each_split(
                (particles.as_slice(), chunked.as_mut_slice()),
                |_, (chunk, out)| anchor_log_likelihoods_with(backend, chunk, &model, &batch, out),
            );
            assert_eq!(scalar_logs, chunked, "{backend:?}");
        }
        // An anchor-free (or all-skipped) batch leaves the accumulator
        // untouched: the neutral 0.0 adds nothing.
        let mut untouched = seed.clone();
        anchor_log_likelihoods(
            particles.as_slice(),
            &model,
            &ObservationBatch::new(),
            &mut untouched,
        );
        assert_eq!(untouched, seed);
    }

    #[test]
    fn scatter_kernel_copies_and_stamps_uniform_weights() {
        let source = buffer(16);
        let mut target = buffer(16);
        let indices: Vec<usize> = (0..16).map(|i| (i * 5) % 16).collect();
        resample_scatter(source.as_slice(), target.as_mut_slice(), &indices, 0.25f32);
        for (slot, &src) in indices.iter().enumerate() {
            assert_eq!(target.x()[slot], source.x()[src]);
            assert_eq!(target.theta()[slot], source.theta()[src]);
            assert_eq!(target.weight()[slot], 0.25);
        }
    }

    #[test]
    fn pose_kernel_matches_the_aos_estimate() {
        let particles = buffer(1000);
        let aos = PoseEstimate::from_particles(&particles.to_particles());
        let soa = pose_estimate(&particles, &ClusterLayout::SINGLE);
        // Block-wise f64 reduction vs. one sequential stream: equal to float
        // tolerance (the reductions associate differently).
        assert!((aos.pose.x - soa.pose.x).abs() < 1e-5);
        assert!((aos.pose.y - soa.pose.y).abs() < 1e-5);
        assert!(angular_difference(aos.pose.theta, soa.pose.theta).abs() < 1e-5);
        assert!((aos.position_std_m - soa.position_std_m).abs() < 1e-5);
        assert!((aos.yaw_std_rad - soa.yaw_std_rad).abs() < 1e-5);
        assert!((aos.neff - soa.neff).abs() < 1e-2);
    }

    #[test]
    fn pose_kernel_is_bit_identical_across_worker_counts() {
        // 1000 particles do not tile the 256-particle reduction blocks evenly,
        // exercising the partial last block.
        let particles = buffer(1000);
        let single = pose_estimate(&particles, &ClusterLayout::SINGLE);
        for workers in [2usize, 3, 8] {
            let multi = pose_estimate(&particles, &ClusterLayout::new(workers));
            assert_eq!(single.pose.x.to_bits(), multi.pose.x.to_bits());
            assert_eq!(single.pose.y.to_bits(), multi.pose.y.to_bits());
            assert_eq!(single.pose.theta.to_bits(), multi.pose.theta.to_bits());
            assert_eq!(
                single.position_std_m.to_bits(),
                multi.position_std_m.to_bits()
            );
            assert_eq!(single.yaw_std_rad.to_bits(), multi.yaw_std_rad.to_bits());
            assert_eq!(single.neff.to_bits(), multi.neff.to_bits());
        }
    }

    #[test]
    fn collapsed_weights_fall_back_to_the_unweighted_mean() {
        let mut particles = buffer(10);
        for w in particles.weight_mut() {
            *w = 0.0;
        }
        let estimate = pose_estimate(&particles, &ClusterLayout::GAP9);
        let mean_x: f32 = particles.x().iter().sum::<f32>() / 10.0;
        assert!((estimate.pose.x - mean_x).abs() < 1e-5);
        assert!((estimate.neff - 10.0).abs() < 1e-3);
    }

    #[test]
    fn empty_batch_scores_neutrally() {
        let map = MapBuilder::new(2.0, 2.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let particles = buffer(4);
        let mut out = vec![9.0f32; 4];
        let empty = BeamBatch::from_beams(&[] as &[Beam]);
        observation_log_likelihoods(particles.as_slice(), &edt, &model, &empty, &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }
}
