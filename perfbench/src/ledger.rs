//! The per-stage ledger of the traced run, measured from outside the
//! program.
//!
//! Every applied update of a traced flight is replayed as a *shadow
//! decomposition*: starting from a snapshot of the filter taken just before
//! the update, the benchmark re-runs the update stage by stage through the
//! public kernel calls (`kernel::*_with`, `PartialSumResampler`,
//! `KldSampler`, `adaptive::temper_beta`, …) on a copy of the particles,
//! timing each stage. The adaptive decisions (population, injection count,
//! whether the ESS gate skipped resampling) are read back from the real
//! update's counters. The shadow's published estimate and particle set must
//! equal the real update's bit for bit; a mismatch fails the run.
//!
//! On every [`ROW_EVERY`]-th shadowed update each kernel stage is also run
//! under every available `KernelBackend` on the same inputs, timed per
//! backend, and its outputs compared across backends.

use crate::filters::{observe, Frame};
use crate::report::Report;
use crate::stats::{mean, percentile};
use mcl_core::adaptive::{self, AdaptiveState};
use mcl_core::pool::PoolStats;
use mcl_core::rng::CounterRng;
use mcl_core::{kernel, AnchorRangeModel, BeamEndPointModel, ClusterLayout, FilterCounters};
use mcl_core::{pool, ResamplePlan};
use mcl_core::{KernelBackend, MonteCarloLocalization, MotionDelta, MotionModel};
use mcl_core::{PartialSumResampler, Particle, ParticleBuffer, ParticleSet, PoseEstimate};
use mcl_gridmap::{CellState, DistanceField, OccupancyGrid, Pose2};
use mcl_num::Scalar;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every this many shadowed updates, the kernel stages run under all
/// backends.
pub const ROW_EVERY: u64 = 4;

/// Self-time stages of one update, in execution order.
#[derive(Clone, Copy)]
enum Stage {
    Batch,
    Motion,
    Observation,
    Anchor,
    Reweight,
    Adaptive,
    Plan,
    Scatter,
    Estimate,
}

const STAGE_METRICS: [&str; 9] = [
    "sensor.batch.us",
    "core.motion.us",
    "core.observation.us",
    "core.anchor.us",
    "core.reweight.us",
    "core.adaptive.us",
    "core.resample.plan_us",
    "core.resample.scatter_us",
    "core.estimate.us",
];

/// Kernels with one implementation per backend.
#[derive(Clone, Copy)]
enum Row {
    Motion,
    Observation,
    Anchor,
    Reweight,
    Resample,
    Estimate,
}

const ROW_NAMES: [&str; 6] = [
    "motion",
    "observation",
    "anchor",
    "reweight",
    "resample",
    "estimate",
];

/// The filter state an update starts from.
pub struct PreUpdate<S: Scalar> {
    particles: ParticleSet<S>,
    adaptive: Option<AdaptiveState>,
    delta: MotionDelta,
    counters: FilterCounters,
}

impl<S: Scalar> PreUpdate<S> {
    pub fn take<D: DistanceField>(filter: &MonteCarloLocalization<S, D>) -> Self {
        PreUpdate {
            particles: filter.particles().clone(),
            adaptive: filter.adaptive_state().cloned(),
            delta: filter.pending_motion(),
            counters: filter.counters(),
        }
    }
}

/// The map's free-cell centres, which recovery injection draws from (the
/// same table `initialize_uniform` captures inside the filter).
struct FreeSpace {
    cells: Vec<(f32, f32)>,
    jitter: f32,
}

impl FreeSpace {
    fn of(map: &OccupancyGrid) -> Self {
        FreeSpace {
            cells: map
                .indices()
                .filter(|&i| map.state(i) == CellState::Free)
                .map(|i| {
                    let centre = map.cell_to_world(i);
                    (centre.x, centre.y)
                })
                .collect(),
            jitter: map.resolution() * 0.5,
        }
    }
}

/// Lap timer: each lap is charged to one stage; time spent on backend rows
/// and checks is skipped.
struct Clock {
    mark: Instant,
    laps: [Duration; 9],
}

impl Clock {
    fn start() -> Self {
        Clock {
            mark: Instant::now(),
            laps: [Duration::ZERO; 9],
        }
    }

    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.laps[stage as usize] += now - self.mark;
        self.mark = now;
    }

    fn skip(&mut self) {
        self.mark = Instant::now();
    }
}

/// Accumulated stage times, work counts and backend rows.
pub struct Ledger {
    backend: KernelBackend,
    free_space: FreeSpace,
    stage_us: [f64; 9],
    shadowed: u64,
    /// Shadow wall time per update (sum of its laps), µs.
    traced_us: Vec<f64>,
    /// Real `update_observations` wall time per update, batch included, µs.
    real_us: Vec<f64>,
    particles_moved: u64,
    beam_evals: u64,
    anchor_evals: u64,
    pool_tasks: u64,
    pool_stolen: u64,
    /// Updates the pool counts cover, when not the ledger's own.
    pool_updates: Option<u64>,
    /// `[row][backend]` summed µs and call counts.
    row_us: [[f64; 3]; 6],
    row_calls: [[u64; 3]; 6],
    row_mismatches: Vec<String>,
    shadow_mismatches: u64,
}

fn pool_totals(stats: &PoolStats) -> (u64, u64) {
    (stats.total_executed(), stats.total_stolen())
}

fn buffer_bits<S: Scalar>(buffer: &ParticleBuffer<S>) -> Vec<u32> {
    [buffer.x(), buffer.y(), buffer.theta(), buffer.weight()]
        .iter()
        .flat_map(|column| column.iter().map(|v| v.to_f32().to_bits()))
        .collect()
}

/// The weights as `f32`, as the filter widens them for tempering and for
/// the resampling plan.
fn widened<S: Scalar>(buffer: &ParticleBuffer<S>) -> Vec<f32> {
    buffer.weight().iter().map(|w| w.to_f32()).collect()
}

fn estimate_bits(e: &PoseEstimate) -> Vec<u32> {
    [
        e.pose.x,
        e.pose.y,
        e.pose.theta,
        e.position_std_m,
        e.yaw_std_rad,
        e.neff,
    ]
    .map(f32::to_bits)
    .to_vec()
}

fn timed(work: impl FnOnce()) -> Duration {
    let start = Instant::now();
    work();
    start.elapsed()
}

impl Ledger {
    pub fn new(backend: KernelBackend, map: &OccupancyGrid) -> Self {
        Ledger {
            backend,
            free_space: FreeSpace::of(map),
            stage_us: [0.0; 9],
            shadowed: 0,
            traced_us: Vec::new(),
            real_us: Vec::new(),
            particles_moved: 0,
            beam_evals: 0,
            anchor_evals: 0,
            pool_tasks: 0,
            pool_stolen: 0,
            pool_updates: None,
            row_us: [[0.0; 3]; 6],
            row_calls: [[0; 3]; 6],
            row_mismatches: Vec::new(),
            shadow_mismatches: 0,
        }
    }

    /// Records one real (untraced) update and the pool work it caused.
    pub fn real_update(&mut self, took: Duration, pool_before: PoolStats) {
        self.real_us.push(took.as_secs_f64() * 1e6);
        let (tasks0, stolen0) = pool_totals(&pool_before);
        let (tasks1, stolen1) = pool_totals(&pool::stats());
        self.pool_tasks += tasks1.saturating_sub(tasks0);
        self.pool_stolen += stolen1.saturating_sub(stolen0);
    }

    /// Replaces the pool counts with those of a loop the ledger did not
    /// see (the fleet's shards dispatch on the pool, not the replays).
    pub fn set_pool(&mut self, tasks: u64, stolen: u64, updates: u64) {
        self.pool_tasks = tasks;
        self.pool_stolen = stolen;
        self.pool_updates = Some(updates);
    }

    /// Runs `leg` under every available backend, timing each and checking
    /// that all produce the same output bits.
    fn row(&mut self, row: Row, mut leg: impl FnMut(KernelBackend) -> (Duration, Vec<u32>)) {
        let mut reference: Option<Vec<u32>> = None;
        for (slot, backend) in KernelBackend::ALL.into_iter().enumerate() {
            if !backend.is_available() {
                continue;
            }
            let (took, bits) = leg(backend);
            self.row_us[row as usize][slot] += took.as_secs_f64() * 1e6;
            self.row_calls[row as usize][slot] += 1;
            match &reference {
                None => reference = Some(bits),
                Some(expected) if *expected != bits => self.row_mismatches.push(format!(
                    "{} kernel: {} output differs from scalar",
                    ROW_NAMES[row as usize],
                    backend.name()
                )),
                Some(_) => {}
            }
        }
    }

    /// Replays the update that turned `pre` into `post` stage by stage and
    /// checks it against the real update's `published` estimate.
    pub fn shadow<S: Scalar, D: DistanceField>(
        &mut self,
        pre: PreUpdate<S>,
        post: &MonteCarloLocalization<S, D>,
        published: &PoseEstimate,
        frame: &Frame,
    ) {
        let config = *post.config();
        let field = post.distance_field();
        let backend = config.kernel_backend;
        let cluster = ClusterLayout::new(config.workers);
        let seed = config.seed;
        let update_index = pre.counters.updates_applied + 1;
        let rows = self.shadowed.is_multiple_of(ROW_EVERY);
        self.shadowed += 1;
        let mut particles = pre.particles;
        let n = particles.len();
        let mut clock = Clock::start();

        // sensor: flatten + partition + anchors.
        let observations = observe(frame, config.r_max);
        clock.lap(Stage::Batch);

        // Motion.
        let motion = MotionModel::new(config.sigma_odom);
        let delta = pre.delta;
        let predict = |backend, buffer: &mut ParticleBuffer<S>| {
            cluster.for_each_split(buffer.as_mut_slice(), |start, chunk| {
                kernel::motion_predict_with(
                    backend,
                    chunk,
                    &motion,
                    &delta,
                    seed,
                    update_index,
                    start as u64,
                );
            });
        };
        if rows {
            let input = particles.current().clone();
            self.row(Row::Motion, |backend| {
                let mut buffer = input.clone();
                let took = timed(|| predict(backend, &mut buffer));
                (took, buffer_bits(&buffer))
            });
            clock.skip();
        }
        predict(backend, particles.current_mut());
        clock.lap(Stage::Motion);
        self.particles_moved += n as u64;

        // Beam scoring.
        let beam_model = BeamEndPointModel::new(config.sigma_obs, config.r_max);
        let beams = observations.beams();
        let score = |backend, buffer: &ParticleBuffer<S>, logs: &mut Vec<f32>| {
            logs.clear();
            logs.resize(n, 0.0);
            cluster.for_each_split(
                (buffer.as_slice(), logs.as_mut_slice()),
                |_, (chunk, out)| {
                    kernel::observation_log_likelihoods_with(
                        backend,
                        chunk,
                        field,
                        &beam_model,
                        beams,
                        out,
                    );
                },
            );
        };
        if rows {
            let input = particles.current();
            self.row(Row::Observation, |backend| {
                let mut logs = Vec::with_capacity(n);
                let took = timed(|| score(backend, input, &mut logs));
                (took, logs.iter().map(|l| l.to_bits()).collect())
            });
            clock.skip();
        }
        let mut logs = Vec::with_capacity(n);
        score(backend, particles.current(), &mut logs);
        clock.lap(Stage::Observation);
        let in_range = beams
            .in_range_prefix(config.r_max)
            .unwrap_or_else(|| beams.len());
        self.beam_evals += (n * in_range) as u64;

        // Anchor scoring, added into the same accumulator.
        if observations.has_anchors() {
            let anchor_model = AnchorRangeModel::new(config.sigma_uwb);
            let add_anchors = |backend, buffer: &ParticleBuffer<S>, logs: &mut [f32]| {
                cluster.for_each_split((buffer.as_slice(), logs), |_, (chunk, out)| {
                    kernel::anchor_log_likelihoods_with(
                        backend,
                        chunk,
                        &anchor_model,
                        &observations,
                        out,
                    );
                });
            };
            if rows {
                let input = particles.current();
                let base = logs.clone();
                self.row(Row::Anchor, |backend| {
                    let mut out = base.clone();
                    let took = timed(|| add_anchors(backend, input, &mut out));
                    (took, out.iter().map(|l| l.to_bits()).collect())
                });
                clock.skip();
            }
            add_anchors(backend, particles.current(), &mut logs);
            clock.lap(Stage::Anchor);
            self.anchor_evals += (n * observations.anchor_count()) as u64;
        }

        let mut max_log = logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        clock.lap(Stage::Reweight);

        // Adaptive pre-processing: the monitor's per-beam mean likelihood and
        // ESS-targeted tempering, exactly as the filter computes them.
        if let Some(state) = &pre.adaptive {
            let used = in_range + observations.usable_anchor_count();
            let mean_likelihood = if max_log.is_finite() {
                let mean_rel = logs
                    .iter()
                    .map(|&l| (f64::from(l) - f64::from(max_log)).exp())
                    .sum::<f64>()
                    / n as f64;
                ((f64::from(max_log) + mean_rel.ln()) / used.max(1) as f64).exp()
            } else {
                0.0
            };
            black_box(mean_likelihood);
            let mut temper = f64::from(config.adaptive.temper_ess);
            if state.recovery_updates_left > 0 {
                temper *= 0.5;
            }
            if temper > 0.0 && max_log.is_finite() {
                let weights = widened(particles.current());
                let beta = adaptive::temper_beta(&weights, &logs, max_log, temper * n as f64)
                    .max(f64::from(config.adaptive.temper_beta_floor));
                if beta < 1.0 {
                    for l in &mut logs {
                        *l = (f64::from(*l) * beta) as f32;
                    }
                    max_log = (f64::from(max_log) * beta) as f32;
                }
            }
            clock.lap(Stage::Adaptive);
        }

        // Reweight + normalize.
        let reweight = |backend, weights: &mut [S], logs: &[f32]| {
            cluster.for_each_split((weights, logs), |_, (weights, logs)| {
                kernel::reweight_with(backend, weights, logs, max_log)
            });
        };
        if rows {
            let input = particles.current().weight().to_vec();
            self.row(Row::Reweight, |backend| {
                let mut weights = input.clone();
                let took = timed(|| reweight(backend, &mut weights, &logs));
                (took, weights.iter().map(|w| w.to_f32().to_bits()).collect())
            });
            clock.skip();
        }
        reweight(backend, particles.current_mut().weight_mut(), &logs);
        particles.normalize_weights();
        clock.lap(Stage::Reweight);
        let offset = CounterRng::for_update(seed, update_index).uniform();
        clock.lap(Stage::Plan);

        // The adaptive decision inputs (KLD bins, ESS); the decision itself is
        // read back from the real update.
        let after = post.counters();
        let skipped = after.resamples_skipped > pre.counters.resamples_skipped;
        let injected = (after.particles_injected - pre.counters.particles_injected) as usize;
        let target_n = post.particles().len();
        if let Some(mut state) = pre.adaptive {
            black_box(state.kld.population_bound(particles.current().as_slice()));
            black_box(particles.effective_sample_size());
            clock.lap(Stage::Adaptive);
        }
        let refine = config.adaptive.enabled;
        let estimate = |backend, buffer: &ParticleBuffer<S>, kept: usize| {
            let mut estimate = kernel::pose_estimate_prefix_with(buffer, kept, &cluster, backend);
            if refine {
                let (pose, mass) = kernel::refine_mode_estimate(
                    buffer,
                    kept,
                    estimate.pose,
                    adaptive::MODE_REFINE_RADIUS_M,
                    adaptive::MODE_REFINE_ITERATIONS,
                );
                if mass >= adaptive::MODE_REFINE_MIN_MASS {
                    estimate.pose = pose;
                }
            }
            estimate
        };

        let kept = if skipped {
            n
        } else {
            let kept = target_n - injected;
            let resampler = PartialSumResampler::new(config.workers);
            let mut plan = ResamplePlan {
                indices: Vec::with_capacity(kept),
                worker_output_ranges: Vec::with_capacity(config.workers),
            };
            match S::f32_slice(particles.current().weight()) {
                Some(direct) => resampler.plan_resize_into(direct, offset, kept, &mut plan),
                None => {
                    let weights = widened(particles.current());
                    resampler.plan_resize_into(&weights, offset, kept, &mut plan);
                }
            }
            clock.lap(Stage::Plan);

            let uniform_weight = S::from_f32(1.0 / target_n as f32);
            let scatter = |backend, source: &ParticleBuffer<S>, target: &mut ParticleBuffer<S>| {
                let (kept_slots, _) = target.as_mut_slice().split_at_mut(kept);
                cluster.for_each_range(
                    (kept_slots, plan.indices.as_slice()),
                    &plan.worker_output_ranges,
                    |_, (target, indices)| {
                        kernel::resample_scatter_with(
                            backend,
                            source.as_slice(),
                            target,
                            indices,
                            uniform_weight,
                        );
                    },
                );
            };
            if rows {
                let source = particles.current().clone();
                self.row(Row::Resample, |backend| {
                    let mut target = ParticleBuffer::with_capacity(target_n);
                    target.resize(target_n);
                    let took = timed(|| scatter(backend, &source, &mut target));
                    (took, buffer_bits(&target))
                });
                clock.skip();
            }
            {
                let (current, scratch) = particles.buffers_mut();
                scratch.resize(target_n);
                scatter(backend, current, scratch);
            }
            clock.lap(Stage::Scatter);

            if injected > 0 {
                let weight = 1.0 / target_n as f32;
                let free_space = &self.free_space;
                let cells = free_space.cells.len() as u64;
                let jitter = free_space.jitter;
                let (_, scratch) = particles.buffers_mut();
                for slot in kept..target_n {
                    let mut rng = adaptive::injection_rng(seed, update_index, slot as u64);
                    let (cx, cy) = free_space.cells[(rng.next_u64() % cells) as usize];
                    let pose = Pose2::new(
                        cx + rng.uniform_range(-jitter, jitter),
                        cy + rng.uniform_range(-jitter, jitter),
                        rng.uniform_range(0.0, core::f32::consts::TAU),
                    );
                    scratch.set(slot, Particle::from_pose(&pose, weight));
                }
                clock.lap(Stage::Adaptive);
            }
            particles.swap_buffers();
            clock.lap(Stage::Scatter);
            kept
        };

        if rows {
            let input = particles.current();
            self.row(Row::Estimate, |backend| {
                let mut result = None;
                let took = timed(|| result = Some(estimate(backend, input, kept)));
                (took, estimate_bits(&result.expect("set by the timed leg")))
            });
            clock.skip();
        }
        let shadow_estimate = estimate(backend, particles.current(), kept);
        clock.lap(Stage::Estimate);

        let mut wall = Duration::ZERO;
        for (stage, lap) in clock.laps.iter().enumerate() {
            self.stage_us[stage] += lap.as_secs_f64() * 1e6;
            wall += *lap;
        }
        self.traced_us.push(wall.as_secs_f64() * 1e6);
        if estimate_bits(&shadow_estimate) != estimate_bits(published)
            || buffer_bits(particles.current()) != buffer_bits(post.particles().current())
        {
            self.shadow_mismatches += 1;
        }
    }

    /// Fills the per-layer metrics of the traced run.
    pub fn report(&self, report: &mut Report, counters: &FilterCounters) {
        let updates = self.shadowed.max(1) as f64;
        report.samples("shadowed_updates", self.shadowed as usize);
        if self.shadowed == 0 {
            report.error("the traced run shadowed no update");
        }
        if self.shadow_mismatches > 0 {
            report.error(format!(
                "{} of {} shadow decompositions differ from the filter's update",
                self.shadow_mismatches, self.shadowed
            ));
            report.failed += self.shadow_mismatches;
        }
        for mismatch in &self.row_mismatches {
            report.error(mismatch.clone());
        }
        for (name, total) in STAGE_METRICS.iter().zip(self.stage_us) {
            report.metric(*name, total / updates, "us");
        }
        report.metric(
            "core.motion.particles",
            self.particles_moved as f64 / updates,
            "1/update",
        );
        report.metric(
            "core.observation.beam_evals",
            self.beam_evals as f64 / updates,
            "1/update",
        );
        report.metric(
            "core.anchor.evals",
            self.anchor_evals as f64 / updates,
            "1/update",
        );

        let applied = counters.updates_applied.max(1) as f64;
        report.metric(
            "core.adaptive.mean_particles",
            counters.resampled_particles as f64 / applied,
            "count",
        );
        report.metric(
            "core.adaptive.updates_tempered",
            counters.updates_tempered as f64 / applied,
            "1/update",
        );
        report.metric(
            "core.adaptive.resamples_skipped",
            counters.resamples_skipped as f64 / applied,
            "1/update",
        );
        report.metric(
            "core.adaptive.particles_injected",
            counters.particles_injected as f64 / applied,
            "1/update",
        );
        report.metric(
            "core.filter.updates_applied",
            counters.updates_applied as f64,
            "count",
        );
        report.metric(
            "core.filter.updates_skipped",
            counters.updates_skipped as f64,
            "count",
        );
        report.metric(
            "core.pool.tasks_per_update",
            self.pool_tasks as f64
                / self
                    .pool_updates
                    .unwrap_or(self.real_us.len() as u64)
                    .max(1) as f64,
            "1/update",
        );
        report.metric(
            "core.pool.stolen_share",
            self.pool_stolen as f64 / self.pool_tasks.max(1) as f64,
            "share",
        );

        if !KernelBackend::Avx2.is_available() {
            report
                .notes
                .push("avx2 leg skipped: this host has no AVX2 (its rows read 0)".into());
        }
        for (row, name) in ROW_NAMES.iter().enumerate() {
            let per_call = |slot: usize| {
                let calls = self.row_calls[row][slot];
                if calls == 0 {
                    0.0
                } else {
                    self.row_us[row][slot] / calls as f64
                }
            };
            let scalar = per_call(0);
            report.samples(
                format!("core.{name}.row_calls"),
                self.row_calls[row][0] as usize,
            );
            for (slot, backend) in KernelBackend::ALL.into_iter().enumerate() {
                let us = per_call(slot);
                report.metric(format!("core.{name}.{}_us", backend.name()), us, "us");
                if slot > 0 {
                    let speedup = if us > 0.0 { scalar / us } else { 0.0 };
                    report.metric(
                        format!("core.{name}.{}_speedup_vs_scalar", backend.name()),
                        speedup,
                        "x",
                    );
                }
            }
        }

        // Coverage: the stage means must add up to the real update's mean.
        let stage_sum: f64 = self.stage_us.iter().sum::<f64>() / updates;
        report.metric(
            "trace.coverage",
            stage_sum / mean(&self.real_us).max(1e-9),
            "ratio",
        );
        let overhead = match (
            percentile(&self.traced_us, 50.0),
            percentile(&self.real_us, 50.0),
        ) {
            (Some(traced), Some(real)) => Some(traced - real),
            _ => None,
        };
        report.required("trace.overhead_us", overhead, "us");
        report.notes.push(format!(
            "ledger: {} updates shadowed under backend {}, rows on every {ROW_EVERY}th",
            self.shadowed,
            self.backend.name()
        ));
    }
}
