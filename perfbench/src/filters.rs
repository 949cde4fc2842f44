//! The single-drone workloads, `onboard` and `fused_adaptive`: one filter
//! flies recorded sequences in a closed loop (each frame is offered only
//! after the previous `update_observations` returned).
//!
//! All inputs — sequences (ray casting), per-step beams and synthesized UWB
//! ranges — are built from the seed before the clock starts. A run first
//! flies every sequence once (pass 1, which the accuracy metrics and the
//! `run_sequence` correctness replay cover), then keeps re-flying them until
//! `--seconds` is used up; each later flight must end bit-identical to its
//! pass-1 flight. The traced run replaces pass 1's fixed length with the
//! deadline and decomposes every applied update through the ledger.

use crate::ledger::{Ledger, PreUpdate};
use crate::report::Report;
use crate::stats::{median, Windows};
use mcl_core::{pool, AdaptiveConfig, KernelBackend, MclConfig, MonteCarloLocalization};
use mcl_core::{FilterCounters, MclError, MotionDelta, PoseEstimate};
use mcl_gridmap::QuantizedDistanceField;
use mcl_gridmap::{DistanceField, EuclideanDistanceField, OccupancyGrid, Pose2};
use mcl_num::{Scalar, F16};
use mcl_sensor::{model::gaussian, AnchorRange, Beam, BeamBatch, ObservationBatch};
use mcl_sim::{run_sequence, sequence_traffic, PaperScenario, RunnerConfig, ScenarioSuite};
use mcl_sim::{Sequence, SequenceResult, TrajectoryErrorTracker};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Sequences per run and their length: enough applied updates for a p99
/// (over 1000 samples) and enough sequences for a median ATE and a success
/// share, within the run's time budget.
const ONBOARD_SEQUENCES: usize = 24;
const FUSED_SEQUENCES: usize = 24;
const SEQUENCE_S: f32 = 60.0;

/// The paper's cluster layout: 8 workers over the shared pool.
const WORKERS: usize = 8;

/// Back-to-back set-ups before each pass-1 flight, the last of which the
/// flight uses; `setup_s` is their median. Spread over pass 1, they sample
/// the host across seconds rather than one moment. Set-ups of later flights
/// are left out: how many fit in a run depends on the update speed, which
/// would leak into `setup_s`.
const SETUPS_PER_FLIGHT: usize = 4;

/// One step of a flight in wire form, plus what scores it.
#[derive(Debug, Clone)]
pub struct Frame {
    pub t_s: f64,
    pub truth: Pose2,
    pub delta: MotionDelta,
    pub beams: Vec<Beam>,
    pub anchors: Vec<AnchorRange>,
}

/// Flattens `sequence` into frames: the beams of `sequence_traffic` and, when
/// the runner senses UWB, the anchor ranges `run_sequence` synthesizes (the
/// same noise stream, keyed on rig and sequence seed).
pub fn frames(sequence: &Sequence, runner: &RunnerConfig) -> Vec<Frame> {
    let use_uwb = runner.sensing.uses_uwb() && !runner.uwb.is_empty();
    let mut uwb_rng = rand::rngs::StdRng::seed_from_u64(
        runner.uwb.seed ^ sequence.seed.rotate_left(17) ^ 0x05B5_EED0,
    );
    let samples = sequence.steps.len().max(1);
    sequence
        .steps
        .iter()
        .zip(sequence_traffic(sequence, runner))
        .enumerate()
        .map(|(index, (step, traffic))| {
            let mut anchors = Vec::new();
            if use_uwb {
                let denied = runner.uwb.denied_at(index as f32 / samples as f32);
                for &[ax, ay] in runner.uwb.anchor_positions() {
                    let range = if denied {
                        f32::NAN
                    } else {
                        let dx = step.ground_truth.x - ax;
                        let dy = step.ground_truth.y - ay;
                        (dx * dx + dy * dy).sqrt()
                            + gaussian(&mut uwb_rng, 0.0, runner.uwb.range_noise_std_m)
                    };
                    anchors.push(AnchorRange::new(ax, ay, range));
                }
            }
            Frame {
                t_s: step.timestamp_s,
                truth: step.ground_truth,
                delta: traffic.delta,
                beams: if runner.sensing.uses_tof() {
                    traffic.beams
                } else {
                    Vec::new()
                },
                anchors,
            }
        })
        .collect()
}

/// The observation batch of one frame, built the way the on-board pipeline
/// builds it: flatten, partition at `r_max`, append the anchor ranges.
pub fn observe(frame: &Frame, r_max: f32) -> ObservationBatch {
    let mut beams = BeamBatch::from_beams(&frame.beams);
    beams.partition_in_range(r_max);
    let mut observations = ObservationBatch::from_beam_batch(beams);
    for anchor in &frame.anchors {
        observations.push_anchor(*anchor);
    }
    observations
}

/// A distance-field storage the workload builds at set-up.
pub trait FieldKind: DistanceField + Clone + Sized {
    /// Builds the field for `map`, returning it with the seconds spent in
    /// `EuclideanDistanceField::compute` and in the precision conversion.
    fn build(map: &OccupancyGrid, r_max: f32) -> (Self, f64, f64);
}

impl FieldKind for EuclideanDistanceField {
    fn build(map: &OccupancyGrid, r_max: f32) -> (Self, f64, f64) {
        let start = Instant::now();
        let field = EuclideanDistanceField::compute(map, r_max);
        (field, start.elapsed().as_secs_f64(), 0.0)
    }
}

impl FieldKind for QuantizedDistanceField {
    fn build(map: &OccupancyGrid, r_max: f32) -> (Self, f64, f64) {
        let start = Instant::now();
        let exact = EuclideanDistanceField::compute(map, r_max);
        let computed = Instant::now();
        let field = exact.quantize();
        (
            field,
            (computed - start).as_secs_f64(),
            computed.elapsed().as_secs_f64(),
        )
    }
}

/// One recorded flight and its frames.
pub struct Flight {
    pub sequence: Sequence,
    pub frames: Vec<Frame>,
}

/// A single-drone workload: its world, flights and filter settings.
pub struct FilterWorkload {
    pub map: OccupancyGrid,
    pub flights: Vec<Flight>,
    pub runner: RunnerConfig,
    /// The filter settings; each flight gets its own seed.
    pub config: MclConfig,
    pub seed: u64,
}

impl FilterWorkload {
    /// `onboard`: paper-maze sequences, global init, 4096 fp32 particles on
    /// the fp32 EDT, 8 workers, fixed population.
    pub fn onboard(seed: u64) -> Self {
        let scenario = PaperScenario::with_settings(seed, ONBOARD_SEQUENCES, SEQUENCE_S);
        let config = MclConfig::default()
            .with_particles(4096)
            .with_workers(WORKERS)
            .with_kernel_backend(KernelBackend::detect())
            .with_adaptive(AdaptiveConfig::default());
        Self::from_scenario(&scenario, RunnerConfig::default(), config, seed)
    }

    /// `fused_adaptive`: the suite's `warehouse-nlos-fused` world (ToF + UWB,
    /// a dust window and an NLOS window), F16 particles on the quantized EDT,
    /// KLD-adaptive population from 2048, 8 workers.
    pub fn fused_adaptive(seed: u64) -> Self {
        let suite = ScenarioSuite::with_settings(FUSED_SEQUENCES, SEQUENCE_S);
        let spec = suite
            .get("warehouse-nlos-fused")
            .expect("the suite registers warehouse-nlos-fused");
        let scenario = spec.build(seed);
        let runner = RunnerConfig {
            sensing: scenario.sensing(),
            uwb: *scenario.uwb_rig(),
            ..RunnerConfig::default()
        };
        let config = scenario
            .mcl_config(2048, seed)
            .with_workers(WORKERS)
            .with_kernel_backend(KernelBackend::detect())
            .with_adaptive(PaperScenario::adaptive_config(2048));
        Self::from_scenario(&scenario, runner, config, seed)
    }

    fn from_scenario(
        scenario: &PaperScenario,
        runner: RunnerConfig,
        config: MclConfig,
        seed: u64,
    ) -> Self {
        let flights = scenario
            .sequences()
            .iter()
            .map(|sequence| Flight {
                frames: frames(sequence, &runner),
                sequence: sequence.clone(),
            })
            .collect();
        FilterWorkload {
            map: scenario.map().clone(),
            flights,
            runner,
            config,
            seed,
        }
    }

    fn flight_config(&self, index: usize) -> MclConfig {
        self.config
            .with_seed(self.seed.wrapping_mul(1000).wrapping_add(index as u64))
    }
}

/// What one flight produced.
#[derive(Debug, Clone)]
pub struct FlightRun {
    pub result: SequenceResult,
    pub final_estimate: PoseEstimate,
}

impl FlightRun {
    /// Whether two flights ended bit for bit in the same state.
    pub fn same_as(&self, other: &FlightRun) -> bool {
        let bits = |r: &FlightRun| {
            let e = &r.final_estimate;
            (
                [
                    e.pose.x,
                    e.pose.y,
                    e.pose.theta,
                    e.position_std_m,
                    e.yaw_std_rad,
                    e.neff,
                ]
                .map(f32::to_bits),
                r.result.ate_m.map(f64::to_bits),
                r.result.convergence_time_s.map(f64::to_bits),
                r.result.success,
                r.result.steps,
            )
        };
        bits(self) == bits(other)
    }
}

/// One frame through the filter.
pub struct Step {
    /// The published pose: the applied update's, or the current estimate
    /// when the motion gate skipped the update.
    pub estimate: PoseEstimate,
    pub applied: bool,
    /// Wall time of building the observation batch plus the update call.
    pub took: Duration,
}

/// Offers one frame to `filter` the way the on-board pipeline does. With a
/// ledger, an applied update is also decomposed stage by stage.
pub fn step<S: Scalar, D: DistanceField>(
    filter: &mut MonteCarloLocalization<S, D>,
    frame: &Frame,
    ledger: Option<&mut Ledger>,
) -> Result<Step, MclError> {
    filter.predict(frame.delta);
    let traced = match ledger {
        Some(ledger) if filter.gate_open() => {
            Some((ledger, PreUpdate::take(filter), pool::stats()))
        }
        _ => None,
    };
    let start = Instant::now();
    let observations = observe(frame, filter.config().r_max);
    let outcome = filter.update_observations(&observations)?;
    let took = start.elapsed();
    let estimate = match outcome.estimate() {
        Some(published) => *published,
        None => filter.estimate(),
    };
    if let Some((ledger, pre, pool_before)) = traced {
        ledger.real_update(took, pool_before);
        ledger.shadow(pre, filter, &estimate, frame);
    }
    Ok(Step {
        estimate,
        applied: outcome.is_applied(),
        took,
    })
}

/// Flies `frames` through `filter` (already initialized), scoring each
/// published pose against the ground truth and timing applied updates into
/// `windows`. Returns the failed and the gate-skipped updates.
pub fn fly<S: Scalar, D: DistanceField>(
    filter: &mut MonteCarloLocalization<S, D>,
    flight_frames: &[Frame],
    tracker: &mut TrajectoryErrorTracker,
    windows: &mut Windows,
    mut ledger: Option<&mut Ledger>,
) -> (u64, u64) {
    let (mut failed, mut skipped) = (0, 0);
    windows.start();
    for frame in flight_frames {
        windows.operation();
        match step(filter, frame, ledger.as_deref_mut()) {
            Err(_) => failed += 1,
            Ok(step) => {
                if step.applied {
                    windows.record(step.took);
                } else {
                    skipped += 1;
                }
                let pose = step.estimate.pose;
                if !(pose.x.is_finite() && pose.y.is_finite() && pose.theta.is_finite()) {
                    failed += 1;
                }
                tracker.record(frame.t_s, &step.estimate, &frame.truth);
            }
        }
        windows.tick();
    }
    windows.stop();
    (failed, skipped)
}

/// Set-up times of a run, seconds: the whole set-up and its EDT parts.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    compute: Vec<f64>,
    convert: Vec<f64>,
}

impl SetupTimes {
    fn push<S: Scalar, D: FieldKind>(&mut self, setup: &Setup<S, D>) {
        self.total.push(setup.total_s);
        self.compute.push(setup.compute_s);
        self.convert.push(setup.convert_s);
    }
}

/// Set-up of one flight: field build, filter construction, uniform init.
struct Setup<S: Scalar, D: FieldKind> {
    filter: MonteCarloLocalization<S, D>,
    field: D,
    total_s: f64,
    compute_s: f64,
    convert_s: f64,
}

fn set_up<S: Scalar, D: FieldKind>(
    workload: &FilterWorkload,
    config: MclConfig,
) -> Result<Setup<S, D>, String> {
    let start = Instant::now();
    let (field, compute_s, convert_s) = D::build(&workload.map, config.r_max);
    let mut filter =
        MonteCarloLocalization::<S, D>::new(config, field).map_err(|e| e.to_string())?;
    filter
        .initialize_uniform(&workload.map, config.seed)
        .map_err(|e| e.to_string())?;
    let total_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        field: filter.distance_field().clone(),
        filter,
        total_s,
        compute_s,
        convert_s,
    })
}

/// Runs a single-drone workload and fills `report`.
pub fn run<S: Scalar, D: FieldKind>(
    workload: &FilterWorkload,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) {
    let flights = workload.flights.len();
    let mut ledger = Ledger::new(workload.config.kernel_backend, &workload.map);
    let mut windows = Windows::new();
    let mut skipped = 0;
    let mut setups = SetupTimes::default();
    let mut first_pass: Vec<FlightRun> = Vec::new();
    let mut replay_fields: Vec<D> = Vec::new();
    let mut first_frames: Vec<u64> = Vec::new();
    let mut counters = FilterCounters::default();
    let mut mismatched = 0u64;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for index in 0.. {
        let slot = index % flights;
        let pass_one = index < flights;
        let out_of_time = Instant::now() >= deadline;
        if out_of_time && (!pass_one || (trace && index > 0)) {
            break;
        }
        let flight = &workload.flights[slot];
        let config = workload.flight_config(slot);
        let repeats = if pass_one { SETUPS_PER_FLIGHT } else { 1 };
        let mut setup = None;
        for _ in 0..repeats {
            match set_up::<S, D>(workload, config) {
                Ok(fresh) => {
                    if pass_one {
                        setups.push(&fresh);
                    }
                    setup = Some(fresh);
                }
                Err(error) => {
                    report.error(format!("flight {slot}: set-up failed: {error}"));
                    return;
                }
            }
        }
        let mut setup = setup.expect("at least one set-up per flight");
        let mut tracker = TrajectoryErrorTracker::with_timeline(
            workload.runner.criterion,
            flight.sequence.stress.clone(),
        );
        let (failed, flight_skipped) = fly(
            &mut setup.filter,
            &flight.frames,
            &mut tracker,
            &mut windows,
            trace.then_some(&mut ledger),
        );
        skipped += flight_skipped;
        let frames = flight.frames.len() as u64;
        let run = FlightRun {
            result: tracker.finish(),
            final_estimate: setup.filter.estimate(),
        };
        add_counters(&mut counters, &setup.filter.counters());
        report.attempted += frames;
        report.failed += failed;
        if pass_one {
            first_pass.push(run);
            replay_fields.push(setup.field);
            first_frames.push(frames);
        } else if !run.same_as(&first_pass[slot]) {
            report.error(format!(
                "flight {slot}: a repeat flight differs from pass 1"
            ));
            mismatched += frames;
        }
    }
    // The correctness replay, after the clock: each pass-1 flight again
    // through `mcl_sim::run_sequence` on a fresh filter with the same config.
    for (slot, (run, field)) in first_pass.iter().zip(replay_fields).enumerate() {
        let config = workload.flight_config(slot);
        let mut replay = MonteCarloLocalization::<S, D>::new(config, field)
            .expect("the config was accepted above");
        replay
            .initialize_uniform(&workload.map, config.seed)
            .expect("the map was accepted above");
        let result = run_sequence(
            &mut replay,
            &workload.flights[slot].sequence,
            &workload.runner,
        );
        let reference = FlightRun {
            result,
            final_estimate: replay.estimate(),
        };
        if !run.same_as(&reference) {
            report.error(format!(
                "flight {slot}: differs from the run_sequence replay"
            ));
            mismatched += first_frames[slot];
        }
    }
    report.failed += mismatched;

    let measured = report.timed_windows(&windows);
    report.samples("update_latency", measured.latency.len() as usize);
    report.samples("gate_skipped_updates", skipped as usize);
    report.quartiles_note("set-up", &setups.total, "s");
    report.samples("setup", setups.total.len());
    report.samples("sequences_scored", first_pass.len());
    if trace {
        ledger.report(report, &counters);
        report.metric(
            "gridmap.edt.compute_s",
            median(&setups.compute).unwrap_or(0.0),
            "s",
        );
        report.metric(
            "gridmap.edt.convert_s",
            median(&setups.convert).unwrap_or(0.0),
            "s",
        );
        crate::fleet::absent_metrics(report);
        return;
    }
    report.required("setup_s", median(&setups.total), "s");
    report.latency("update latency", measured);
    report.metric("frames_per_s", measured.rate(), "1/s");
    let results: Vec<&SequenceResult> = first_pass.iter().map(|run| &run.result).collect();
    accuracy_figures(report, &results);
}

/// The paper's accuracy figures over scored flights: median ATE, success
/// share and median convergence time. They are printed, not gated: across
/// seeds they spread wider than any bound the benchmark may set (see
/// `perfbench/README.md`).
pub fn accuracy_figures(report: &mut Report, results: &[&SequenceResult]) {
    let ates: Vec<f64> = results.iter().filter_map(|r| r.ate_m).collect();
    let times: Vec<f64> = results
        .iter()
        .filter_map(|r| r.convergence_time_s)
        .collect();
    let successes = results.iter().filter(|r| r.success).count();
    report.samples("converged_sequences", ates.len());
    report.figure("ate_m", median(&ates), "m");
    report.figure(
        "success_pct",
        Some(100.0 * successes as f64 / results.len().max(1) as f64),
        "%",
    );
    report.figure("convergence_s", median(&times), "s");
}

pub fn add_counters(total: &mut FilterCounters, more: &FilterCounters) {
    total.updates_applied += more.updates_applied;
    total.updates_skipped += more.updates_skipped;
    total.predictions += more.predictions;
    total.resampled_particles += more.resampled_particles;
    total.particles_injected += more.particles_injected;
    total.resamples_skipped += more.resamples_skipped;
    total.updates_tempered += more.updates_tempered;
}

/// Runs `onboard`.
pub fn onboard(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let workload = FilterWorkload::onboard(seed);
    run::<f32, EuclideanDistanceField>(&workload, seconds, trace, report);
}

/// Runs `fused_adaptive`.
pub fn fused_adaptive(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let workload = FilterWorkload::fused_adaptive(seed);
    run::<F16, QuantizedDistanceField>(&workload, seconds, trace, report);
}
