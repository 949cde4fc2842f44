//! Golden-trace fixture: one fixed-seed corridor sequence with the per-step
//! pose estimates pinned as hex-encoded `f32` bit patterns.
//!
//! The determinism suites compare two live code paths against each other
//! (SoA vs AoS, pool vs sequential, lanes vs scalar) — a numeric change that hits
//! *both* sides identically slips through all of them. This fixture is the
//! absolute anchor: any future kernel change that silently shifts the
//! filter's numerics (a re-associated sum, a "harmless" fused multiply-add, a
//! different rounding in the f16 converter) fails this test loudly, under
//! **both** kernel backends.
//!
//! The trace exercises every kernel: gated motion accumulation, the
//! branch-free partitioned correction (plus beams beyond `r_max` that take
//! the skip predicate), systematic resampling and the fixed-block pose
//! reduction, on a particle count (197) that is not a multiple of the lane
//! width or the reduction block.
//!
//! The pinned bits depend on the host libm's `sin`/`cos`/`exp`/`ln` (the
//! filter is otherwise pure IEEE 754 arithmetic); they are valid for the
//! x86-64 Linux/glibc toolchain this repository builds and tests on. If a
//! *deliberate* numeric change (or a platform change) moves the trace, verify
//! the shift is intended and re-bless the fixture:
//!
//! ```sh
//! MCL_BLESS=1 cargo test -q --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN_POSE_BITS`.

use tof_mcl::core::kernel::KernelBackend;
use tof_mcl::core::{MclConfig, MonteCarloLocalization, MotionDelta};
use tof_mcl::gridmap::{EuclideanDistanceField, MapBuilder, Pose2};
use tof_mcl::sensor::{AnchorRange, ObservationBatch, SensorConfig, SensorRig};

use rand::SeedableRng;

/// `(x, y, theta)` estimate bits after each applied update, in step order.
const GOLDEN_POSE_BITS: [[u32; 3]; 8] = [
    [0x3F29E0D3, 0x3F23AE1A, 0x3E0EA0D4],
    [0x3F4B7AAA, 0x3F30CAA3, 0x3E30B5DC],
    [0x3F6D6FCB, 0x3F42D79F, 0x3E68839E],
    [0x3F8811AA, 0x3F4C79D1, 0x3E4431E0],
    [0x3F99EDD3, 0x3F54C4C1, 0x3E4449FF],
    [0x3FAC14F6, 0x3F498587, 0x3E52EFFD],
    [0x3FBBFF4C, 0x3F5062AE, 0x3E68CF7A],
    [0x3FCA4FF1, 0x3F57293E, 0x3E840D8E],
];

/// `(x, y, theta)` estimate bits of the *fused* replay (same corridor, same
/// beams, plus three UWB anchors per step — one denied with a NaN range, so
/// the non-finite skip predicate is on the pinned path too).
const GOLDEN_FUSED_POSE_BITS: [[u32; 3]; 8] = [
    [0x3F27DCF1, 0x3F19AAE0, 0x3E1E580A],
    [0x3F4BC135, 0x3F1B9577, 0x3E2E9458],
    [0x3F6DF9D8, 0x3F2B642F, 0x3E30A1D8],
    [0x3F87AC50, 0x3F38F517, 0x3E3E2A95],
    [0x3F991FD9, 0x3F45FF57, 0x3E54D813],
    [0x3FA9E0EA, 0x3F4891EA, 0x3E6CB919],
    [0x3FB9D249, 0x3F54624C, 0x3E6B88F7],
    [0x3FC69FAE, 0x3F5323D9, 0x3E86E0F0],
];

/// The fixed UWB anchors of the fused replay: two corridor corners plus one
/// permanently denied anchor (its measured range is always NaN).
const TRACE_ANCHORS: [[f32; 2]; 3] = [[0.2, 0.2], [3.8, 1.4], [2.0, 0.2]];

/// Deterministic measured range to `TRACE_ANCHORS[k]` from `truth`: true
/// distance plus a small step-indexed ripple (no RNG draws, so the beam
/// noise stream is untouched by the fused variant). Anchor 2 is denied.
fn trace_range(truth: &Pose2, k: usize, step: usize) -> f32 {
    if k == 2 {
        return f32::NAN;
    }
    let dx = truth.x - TRACE_ANCHORS[k][0];
    let dy = truth.y - TRACE_ANCHORS[k][1];
    let ripple = 0.04 * (step as f32 * 0.9 + k as f32).sin();
    (dx * dx + dy * dy).sqrt() + ripple
}

/// Replays the fixed corridor sequence under `backend` and returns the
/// per-step estimate bits. With `fused`, every update also scores the
/// [`TRACE_ANCHORS`] ranges through the anchor kernel; without it, the replay
/// scores a beam-only batch — pinning that the beam-only path still
/// reproduces the pre-redesign numerics bit for bit.
fn trace(backend: KernelBackend, fused: bool) -> Vec<[u32; 3]> {
    // A 4 m × 1.6 m corridor with a mid pillar: walls near enough that most
    // beams land within r_max, far corridor axis beams beyond it.
    let map = MapBuilder::new(4.0, 1.6, 0.05)
        .border_walls()
        .filled_rect((2.4, 0.6), (2.6, 1.0))
        .build();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let config = MclConfig::default()
        .with_particles(197)
        .with_seed(42)
        .with_workers(3)
        .with_kernel_backend(backend);
    let mut filter = MonteCarloLocalization::<f32, _>::new(config, edt).unwrap();
    let mut truth = Pose2::new(0.5, 0.6, 0.1);
    filter.initialize_gaussian(&truth, 0.15, 0.2, 7).unwrap();
    let rig = SensorRig::front_and_rear(
        SensorConfig::default()
            .with_range_noise(0.01)
            .with_interference_probability(0.0),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut bits = Vec::new();
    for step in 0..GOLDEN_POSE_BITS.len() {
        let next = truth.compose(&Pose2::new(0.13, 0.005, 0.03));
        let delta = MotionDelta::between(&truth, &next);
        truth = next;
        filter.predict(delta);
        let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
        let mut observations = ObservationBatch::from_beams(&beams);
        observations.partition_in_range(filter.config().r_max);
        if fused {
            for (k, [ax, ay]) in TRACE_ANCHORS.iter().enumerate() {
                observations.push_anchor(AnchorRange::new(*ax, *ay, trace_range(&truth, k, step)));
            }
        }
        let outcome = filter.update_observations(&observations).unwrap();
        let estimate = outcome.estimate().expect("0.13 m step opens the gate");
        bits.push([
            estimate.pose.x.to_bits(),
            estimate.pose.y.to_bits(),
            estimate.pose.theta.to_bits(),
        ]);
    }
    bits
}

fn check_trace(fused: bool, golden: &[[u32; 3]; 8]) {
    for backend in KernelBackend::ALL {
        let got = trace(backend, fused);
        if std::env::var("MCL_BLESS").is_ok_and(|v| !v.is_empty()) {
            println!(
                "// {} backend ({}):",
                backend.name(),
                if fused { "fused" } else { "beam-only" }
            );
            for step in &got {
                println!(
                    "    [0x{:08X}, 0x{:08X}, 0x{:08X}],",
                    step[0], step[1], step[2]
                );
            }
            continue;
        }
        for (step, (got, want)) in got.iter().zip(golden.iter()).enumerate() {
            assert_eq!(
                got,
                want,
                "{} backend drifted at step {step}: got [{:#010X}, {:#010X}, {:#010X}] \
                 = ({}, {}, {})",
                backend.name(),
                got[0],
                got[1],
                got[2],
                f32::from_bits(got[0]),
                f32::from_bits(got[1]),
                f32::from_bits(got[2]),
            );
        }
    }
}

#[test]
fn corridor_trace_matches_the_pinned_estimates_under_both_backends() {
    check_trace(false, &GOLDEN_POSE_BITS);
}

#[test]
fn fused_corridor_trace_matches_the_pinned_estimates_under_both_backends() {
    check_trace(true, &GOLDEN_FUSED_POSE_BITS);
}

#[test]
fn fused_trace_differs_from_the_beam_only_trace() {
    // The anchor kernel must actually perturb the weights: a fused batch
    // whose anchors silently score zero would leave the trace unchanged.
    assert_ne!(GOLDEN_FUSED_POSE_BITS[0], GOLDEN_POSE_BITS[0]);
}

#[test]
fn the_trace_tracks_the_corridor_truth() {
    // Sanity: the pinned trajectory is a *converged* tracking run, not frozen
    // garbage — the last pinned estimate sits near where the truth ends up
    // (start 0.5 + 8 steps of ~0.13 m forward motion).
    let last = GOLDEN_POSE_BITS[GOLDEN_POSE_BITS.len() - 1];
    let (x, y) = (f32::from_bits(last[0]), f32::from_bits(last[1]));
    assert!((1.0..2.2).contains(&x), "final x {x}");
    assert!((0.4..1.2).contains(&y), "final y {y}");
}
