//! Monte Carlo Localization for nano-UAVs with multizone ToF sensors.
//!
//! This crate is the reproduction of the paper's primary contribution: a particle
//! filter that localizes a nano-UAV on a 2D occupancy grid map using the sparse
//! range measurements of one or two VL53L5CX multizone ToF sensors, designed to
//! run in real time on the GAP9 parallel ultra-low-power SoC.
//!
//! The filter follows the classic MCL structure (Fig. 3 of the paper) with the
//! paper's embedded-specific adaptations:
//!
//! 1. **Prediction** — sample each particle through the odometry motion model
//!    with noise `σ_odom` ([`motion`]).
//! 2. **Correction** — re-weight each particle with the beam-end-point
//!    observation model of Eq. 1, looking the beam end points up in a truncated
//!    Euclidean distance transform ([`observation`]).
//! 3. **Resampling** — systematic ("wheel") resampling, decomposed over per-core
//!    partial weight sums exactly like the paper's Fig. 4 so it parallelizes over
//!    the 8 cluster cores ([`resampling`]).
//! 4. **Pose computation** — weighted average over all particles, with a circular
//!    mean for the yaw ([`estimate`]).
//!
//! Updates are asynchronous and gated: observations are only processed after the
//! drone moved more than `d_xy` or rotated more than `d_θ` ([`filter`]).
//!
//! # Kernel architecture and SoA memory layout
//!
//! Each of the four steps is implemented as a **batch kernel** over a particle
//! index range ([`kernel`]): [`kernel::motion_predict`],
//! [`kernel::observation_log_likelihoods`] + [`kernel::reweight`],
//! [`kernel::resample_scatter`] and the [`kernel::PosePartials`] /
//! [`kernel::SpreadPartials`] reductions behind [`kernel::pose_estimate`].
//! [`ClusterLayout`] dispatches every kernel to its workers — each worker runs
//! the same loop body on its contiguous slice, exactly like the 8 GAP9 cluster
//! cores — and the counter-based RNG ([`rng::CounterRng`]) keys every random
//! draw on `(seed, update, particle index)`, so the filter state is
//! bit-identical for every worker count. The workers themselves live in a
//! persistent [`pool::WorkerPool`] ([`pool::shared`]): resident threads park
//! between dispatches and claim kernel invocations from jobs they pop off one
//! shared FIFO queue, mirroring the resident GAP9 cluster instead of spawning
//! OS threads per update — and, beyond the single-chip paper setup, letting
//! many independent filter instances dispatch concurrently onto one pool.
//!
//! Particles are stored as a **structure of arrays** ([`ParticleBuffer`]): four
//! contiguous component arrays `x[]`, `y[]`, `theta[]`, `weight[]`, double
//! buffered ([`ParticleSet`]). The byte budget is unchanged from the paper's
//! Table I accounting — 4 scalars × 2 buffers, i.e. 32 B/particle at fp32 and
//! 16 B/particle at binary16 ([`ParticleSet::memory_bytes`]) — only the element
//! order differs, which is what lets each kernel stream exactly the components
//! it touches and opens the layout to SIMD and fp16 vectorization. The
//! observation additionally arrives pre-flattened as a
//! [`mcl_sensor::BeamBatch`], built once per update.
//!
//! The memory/precision design space of the paper is captured by two generic
//! parameters: the particle storage scalar (`f32` or binary16, see
//! [`mcl_num::Scalar`]) and the distance-field storage
//! ([`mcl_gridmap::DistanceField`]: `f32`, binary16 or 8-bit quantized). The
//! [`precision`] module names the paper's configurations (`fp32`, `fp32qm`,
//! `fp16qm`, single-ToF) and [`precision::MemoryFootprint`] reproduces the
//! memory accounting behind Fig. 9.
//!
//! # Example
//!
//! ```
//! use mcl_core::{MclConfig, MonteCarloLocalization};
//! use mcl_gridmap::{EuclideanDistanceField, MapBuilder, Pose2};
//! use mcl_sensor::{AnchorRange, ObservationBatch, SensorConfig, SensorRig};
//! use rand::SeedableRng;
//!
//! // Map and its distance transform.
//! let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls()
//!     .wall((2.0, 0.0), (2.0, 2.5)).build();
//! let edt = EuclideanDistanceField::compute(&map, 1.5);
//!
//! // Filter with 512 particles spread over the free space.
//! let config = MclConfig { num_particles: 512, ..MclConfig::default() };
//! let mut mcl = MonteCarloLocalization::<f32, _>::new(config, edt).unwrap();
//! mcl.initialize_uniform(&map, 7);
//!
//! // One simulated observation from the true pose re-weights the particles:
//! // ToF beams plus an optional UWB anchor range, fused in one batch.
//! let rig = SensorRig::front_and_rear(SensorConfig::default());
//! let truth = Pose2::new(1.0, 2.0, 0.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut batch = ObservationBatch::from_beams(&rig.observe(&map, &truth, 0.0, &mut rng));
//! batch.push_anchor(AnchorRange::new(0.2, 0.2, 1.97));
//! mcl.force_update_observations(&batch);
//! let estimate = mcl.estimate();
//! assert!(estimate.neff > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive;
pub mod config;
pub mod estimate;
pub mod filter;
pub mod kernel;
pub mod motion;
pub mod observation;
pub mod parallel;
pub mod particle;
pub mod pool;
pub mod precision;
pub mod resampling;
pub mod rng;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use adaptive::{AdaptiveConfig, AdaptiveState, KldSampler, LikelihoodMonitor};
pub use config::{MclConfig, MclError};
pub use estimate::PoseEstimate;
pub use filter::{FilterCounters, MonteCarloLocalization, UpdateOutcome};
pub use kernel::{KernelBackend, LANES};
pub use motion::{MotionDelta, MotionModel};
pub use observation::{AnchorRangeModel, BeamEndPointModel};
pub use parallel::{ClusterLayout, Subdivide};
pub use particle::{Particle, ParticleBuffer, ParticleSet, ParticleSlice, ParticleSliceMut};
pub use pool::WorkerPool;
pub use precision::{MapPrecision, MemoryFootprint, ParticlePrecision, PipelineConfig};
pub use resampling::{
    multinomial_resample, systematic_resample, PartialSumResampler, ResamplePlan,
};
