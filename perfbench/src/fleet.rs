//! The `fleet` workload: 1024 drones with 128 fp32 particles each on the
//! paper maze, served by an in-process `FleetServer` over loopback TCP.
//!
//! One connection and one generator thread run a closed loop with 1024
//! clients: every drone keeps exactly one frame in flight and sends its next
//! frame when its pose arrives. Drone `d` flies traffic template `d mod 8`
//! (from `sequence_traffic`), looping it; the first pass of every drone is
//! scored against the template's ground truth. A sample of drones is replayed
//! afterwards through solo `update_observations` calls, and their pose
//! streams must match bit for bit.
//!
//! The traced run adds the attribution legs: protocol encode/decode on the
//! workload's frames, the same closed loop over an in-process `FleetHandle`
//! (no sockets), the same traffic through solo filters on one thread (no
//! shards), the shard counters, and the stage ledger over the sample
//! replays.

use crate::filters::{accuracy_figures, add_counters, frames, step, Frame};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::stats::{median, Windows};
use mcl_core::{pool, AdaptiveConfig, KernelBackend, MclConfig, MonteCarloLocalization};
use mcl_fleet::protocol::{decode_request, decode_response, encode_request, read_frame};
use mcl_fleet::protocol::{PoseUpdate, Request, Response};
use mcl_fleet::{DroneConfig, Fleet, FleetConfig, FleetServer, FleetStats, FleetWorld};
use mcl_gridmap::{EuclideanDistanceField, OccupancyGrid};
use mcl_sim::{PaperScenario, RunnerConfig, SequenceResult, TrajectoryErrorTracker};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DRONES: usize = 1024;
const PARTICLES: usize = 128;
const TEMPLATES: usize = 8;
const TEMPLATE_S: f32 = 30.0;
/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 15;
/// Every this many drones, one is replayed solo for the correctness check.
const SAMPLE_EVERY: usize = 64;
/// How long the generator waits for a pose before declaring it lost.
const POSE_TIMEOUT: Duration = Duration::from_secs(30);

struct Inputs {
    map: OccupancyGrid,
    templates: Vec<Vec<Frame>>,
    runner: RunnerConfig,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let scenario = PaperScenario::with_settings(seed, TEMPLATES, TEMPLATE_S);
        let runner = RunnerConfig::default();
        Inputs {
            map: scenario.map().clone(),
            templates: scenario
                .sequences()
                .iter()
                .map(|sequence| frames(sequence, &runner))
                .collect(),
            runner,
            seed,
        }
    }

    fn frame(&self, drone: usize, k: usize) -> &Frame {
        let template = &self.templates[drone % TEMPLATES];
        &template[k % template.len()]
    }

    fn drone_config(&self, drone: usize) -> DroneConfig {
        DroneConfig {
            particles: PARTICLES,
            seed: self.seed.wrapping_mul(1_000_003).wrapping_add(drone as u64),
            backend: Some(KernelBackend::detect()),
            adaptive: false,
        }
    }
}

fn fleet_config() -> FleetConfig {
    let workers = pool::shared().workers();
    FleetConfig {
        shards: workers.clamp(1, 8),
        queue_capacity: 1024,
        outbox_capacity: 4096,
        dispatch_workers: workers,
        max_drones: 16384,
        base: MclConfig::default()
            .with_kernel_backend(KernelBackend::detect())
            .with_adaptive(AdaptiveConfig::default()),
    }
}

/// One TCP connection driven by the generator thread.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    payload: Vec<u8>,
}

impl Connection {
    fn open(server: &FleetServer) -> io::Result<Self> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POSE_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
            scratch: Vec::new(),
            payload: Vec::new(),
        })
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.scratch.clear();
        encode_request(request, &mut self.scratch);
        self.writer.write_all(&self.scratch)
    }

    /// The next response; flushes pending requests first when the read
    /// would have to wait on the socket.
    fn recv(&mut self) -> io::Result<Response> {
        if self.reader.buffer().is_empty() {
            self.writer.flush()?;
        }
        if !read_frame(&mut self.reader, &mut self.payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        decode_response(&self.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn close(self) {
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// A started fleet with its server, one connection and every drone
/// registered.
struct Served {
    fleet: Arc<Fleet>,
    server: FleetServer,
    connection: Connection,
    edt_s: f64,
}

fn set_up(inputs: &Inputs) -> Result<Served, String> {
    let edt_start = Instant::now();
    let world = FleetWorld::new(inputs.map.clone(), 1.5);
    let edt_s = edt_start.elapsed().as_secs_f64();
    let fleet = Fleet::start(world, fleet_config());
    let server =
        FleetServer::serve(Arc::clone(&fleet), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut connection = Connection::open(&server).map_err(|e| e.to_string())?;
    for drone in 0..DRONES {
        let config = inputs.drone_config(drone);
        connection
            .send(&Request::Register {
                drone_id: drone as u64,
                particles: config.particles as u32,
                seed: config.seed,
                backend: config.backend,
                adaptive: config.adaptive,
            })
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..DRONES {
        match connection.recv().map_err(|e| e.to_string())? {
            Response::Registered { .. } => {}
            other => return Err(format!("registration answered with {other:?}")),
        }
    }
    Ok(Served {
        fleet,
        server,
        connection,
        edt_s,
    })
}

fn tear_down(served: Served) {
    let Served {
        fleet,
        mut server,
        connection,
        ..
    } = served;
    connection.close();
    server.shutdown();
    fleet.shutdown();
}

fn frame_request(drone: usize, frame: &Frame) -> Request {
    Request::Frame {
        drone_id: drone as u64,
        delta: frame.delta,
        beams: frame.beams.clone(),
        ranges: frame.anchors.clone(),
    }
}

/// What the closed loop measured.
struct LoopOutcome {
    /// Frames offered, including any whose send failed.
    attempted: u64,
    /// Pose latency and poses per second.
    windows: Windows,
    poses: u64,
    failed: u64,
    elapsed: Duration,
    /// First-pass scores, one per drone.
    results: Vec<SequenceResult>,
    /// Full pose streams of the sampled drones.
    streams: Vec<(usize, Vec<PoseUpdate>)>,
}

/// Per-drone state of the closed loop.
struct Drone {
    sent: u64,
    sent_at: Instant,
    tracker: TrajectoryErrorTracker,
}

/// The closed loop over any transport: `send(drone, frame index)` offers a
/// frame, `recv()` yields the next response. Runs until `seconds` have passed
/// and every drone completed one template pass, then drains.
fn closed_loop(
    inputs: &Inputs,
    seconds: f64,
    mut send: impl FnMut(usize, &Frame) -> Result<(), String>,
    mut recv: impl FnMut() -> Result<Response, String>,
) -> LoopOutcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut drones: Vec<Drone> = (0..DRONES)
        .map(|_| Drone {
            sent: 0,
            sent_at: start,
            tracker: TrajectoryErrorTracker::new(inputs.runner.criterion),
        })
        .collect();
    let mut streams: Vec<(usize, Vec<PoseUpdate>)> = (0..DRONES)
        .step_by(SAMPLE_EVERY)
        .map(|drone| (drone, Vec::new()))
        .collect();
    let template_len = |drone: usize| inputs.templates[drone % TEMPLATES].len() as u64;
    let mut outcome = LoopOutcome {
        attempted: 0,
        windows: Windows::new(),
        poses: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        results: Vec::new(),
        streams: Vec::new(),
    };
    let mut in_flight = 0usize;
    // Drones still in their first template pass; the loop may stop only
    // once this reaches 0. A drone whose frame failed leaves the loop.
    let mut behind = DRONES;
    let mut offer = |drone: usize, state: &mut Drone, outcome: &mut LoopOutcome| {
        outcome.attempted += 1;
        state.sent_at = Instant::now();
        match send(drone, inputs.frame(drone, state.sent as usize)) {
            Ok(()) => {
                state.sent += 1;
                true
            }
            Err(error) => {
                eprintln!("fleet: send to drone {drone} failed: {error}");
                outcome.failed += 1;
                false
            }
        }
    };
    for (drone, state) in drones.iter_mut().enumerate() {
        if offer(drone, state, &mut outcome) {
            in_flight += 1;
        } else {
            behind -= 1;
        }
    }
    let mut stopping = false;
    outcome.windows.start();
    while in_flight > 0 {
        let response = match recv() {
            Ok(response) => response,
            Err(error) => {
                eprintln!("fleet: {error}; {in_flight} frame(s) lost");
                outcome.failed += in_flight as u64;
                break;
            }
        };
        let (drone_id, pose) = match response {
            Response::Pose(pose) => (pose.drone_id, Some(pose)),
            Response::Error { drone_id, .. } => {
                eprintln!("fleet: drone {drone_id} answered with {response:?}");
                (drone_id, None)
            }
            other => {
                eprintln!("fleet: unexpected response {other:?}");
                outcome.failed += 1;
                continue;
            }
        };
        let drone = drone_id as usize;
        let Some(state) = drones.get_mut(drone) else {
            eprintln!("fleet: response for unknown drone {drone_id}");
            outcome.failed += 1;
            continue;
        };
        in_flight -= 1;
        let k = state.sent - 1; // the frame this response answers
        let Some(pose) = pose else {
            outcome.failed += 1;
            if k < template_len(drone) {
                behind -= 1;
            }
            continue;
        };
        outcome.windows.record(state.sent_at.elapsed());
        outcome.windows.operation();
        outcome.windows.tick();
        outcome.poses += 1;
        if u64::from(pose.update) != state.sent
            || !(pose.x.is_finite() && pose.y.is_finite() && pose.theta.is_finite())
        {
            outcome.failed += 1;
        }
        if k < template_len(drone) {
            let frame = inputs.frame(drone, k as usize);
            let estimate = mcl_core::PoseEstimate {
                pose: mcl_gridmap::Pose2::new(pose.x, pose.y, pose.theta),
                position_std_m: pose.position_std_m,
                yaw_std_rad: pose.yaw_std_rad,
                neff: pose.neff,
            };
            state.tracker.record(frame.t_s, &estimate, &frame.truth);
            if k + 1 == template_len(drone) {
                behind -= 1;
            }
        }
        if drone.is_multiple_of(SAMPLE_EVERY) {
            streams[drone / SAMPLE_EVERY].1.push(pose);
        }
        stopping = stopping || (behind == 0 && Instant::now() >= deadline);
        if stopping {
            continue;
        }
        if offer(drone, state, &mut outcome) {
            in_flight += 1;
        } else if k + 1 < template_len(drone) {
            behind -= 1;
        }
    }
    outcome.windows.stop();
    outcome.elapsed = start.elapsed();
    outcome.results = drones.iter().map(|d| d.tracker.finish()).collect();
    outcome.streams = streams;
    outcome
}

/// A stand-alone filter configured and initialized exactly as the fleet
/// configures and initializes `drone`'s.
fn solo_filter(
    inputs: &Inputs,
    fleet: &Fleet,
    drone: usize,
) -> MonteCarloLocalization<f32, Arc<EuclideanDistanceField>> {
    let config = fleet.filter_config(&inputs.drone_config(drone));
    let mut filter = MonteCarloLocalization::new(config, Arc::clone(fleet.world().field()))
        .expect("the fleet accepted this config");
    filter
        .initialize_uniform(&inputs.map, config.seed)
        .expect("the fleet accepted this map");
    filter
}

fn pose_bits(pose: &PoseUpdate) -> [u32; 6] {
    [
        pose.x,
        pose.y,
        pose.theta,
        pose.position_std_m,
        pose.yaw_std_rad,
        pose.neff,
    ]
    .map(f32::to_bits)
}

/// Replays each sampled drone's traffic through a solo filter and compares
/// its pose stream; returns the number of mismatching poses. With a ledger,
/// every applied update of the replays is decomposed.
fn replay_samples(
    inputs: &Inputs,
    fleet: &Fleet,
    streams: &[(usize, Vec<PoseUpdate>)],
    mut ledger: Option<&mut Ledger>,
    counters: &mut mcl_core::FilterCounters,
) -> u64 {
    let mut mismatches = 0;
    for (drone, stream) in streams {
        let mut filter = solo_filter(inputs, fleet, *drone);
        for (k, pose) in stream.iter().enumerate() {
            let Ok(step) = step(&mut filter, inputs.frame(*drone, k), ledger.as_deref_mut()) else {
                mismatches += 1;
                continue;
            };
            let e = &step.estimate;
            let expected = PoseUpdate {
                drone_id: *drone as u64,
                update: k as u32 + 1,
                applied: step.applied,
                x: e.pose.x,
                y: e.pose.y,
                theta: e.pose.theta,
                position_std_m: e.position_std_m,
                yaw_std_rad: e.yaw_std_rad,
                neff: e.neff,
            };
            if pose_bits(pose) != pose_bits(&expected)
                || pose.update != expected.update
                || pose.applied != expected.applied
            {
                mismatches += 1;
            }
        }
        add_counters(counters, &filter.counters());
    }
    mismatches
}

fn shard_metrics(report: &mut Report, stats: &FleetStats) {
    report.metric("fleet.shard.mean_batch", stats.mean_batch(), "count");
    report.metric(
        "fleet.shard.max_batch",
        stats.shards.iter().map(|s| s.max_batch).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric(
        "fleet.shard.peak_queue_depth",
        stats
            .shards
            .iter()
            .map(|s| s.peak_queue_depth)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    report.metric(
        "fleet.shard.enqueue_waits",
        stats.shards.iter().map(|s| s.enqueue_waits).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "fleet.outbox.poses_dropped",
        stats.poses_dropped as f64,
        "count",
    );
}

/// The fleet per-layer metrics, zero on the workloads that never enter the
/// fleet layer.
pub fn absent_metrics(report: &mut Report) {
    for (name, unit) in [
        ("fleet.protocol.encode_us", "us"),
        ("fleet.protocol.decode_us", "us"),
        ("fleet.protocol.frame_bytes", "bytes"),
        ("fleet.server.inproc_poses_per_s", "1/s"),
        ("fleet.compute_only_poses_per_s", "1/s"),
        ("fleet.shard.mean_batch", "count"),
        ("fleet.shard.max_batch", "count"),
        ("fleet.shard.peak_queue_depth", "count"),
        ("fleet.shard.enqueue_waits", "count"),
        ("fleet.outbox.poses_dropped", "count"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// Encodes and decodes every template frame once per drone slot of one
/// template pass; returns (encode µs, decode µs, bytes) per frame.
fn protocol_costs(inputs: &Inputs) -> (f64, f64, f64) {
    let requests: Vec<Request> = inputs
        .templates
        .iter()
        .enumerate()
        .flat_map(|(t, template)| template.iter().map(move |frame| frame_request(t, frame)))
        .collect();
    let mut encoded = Vec::with_capacity(requests.len());
    let mut bytes = 0usize;
    let start = Instant::now();
    for request in &requests {
        let mut out = Vec::new();
        encode_request(request, &mut out);
        bytes += out.len();
        encoded.push(out);
    }
    let encode = start.elapsed();
    let start = Instant::now();
    let mut decoded_ok = 0usize;
    for frame in &encoded {
        // Skip the 4-byte length prefix, as the server's reader does.
        if std::hint::black_box(decode_request(&frame[4..])).is_ok() {
            decoded_ok += 1;
        }
    }
    let decode = start.elapsed();
    assert_eq!(decoded_ok, requests.len(), "every encoded frame decodes");
    let n = requests.len().max(1) as f64;
    (
        encode.as_secs_f64() * 1e6 / n,
        decode.as_secs_f64() * 1e6 / n,
        bytes as f64 / n,
    )
}

/// The closed loop over an in-process handle: same drones and traffic, no
/// sockets or protocol.
fn inproc_poses_per_s(inputs: &Inputs, fleet: &Arc<Fleet>, seconds: f64) -> Result<f64, String> {
    let mut handle = fleet.handle();
    for drone in 0..DRONES {
        handle
            .register(drone as u64, inputs.drone_config(drone), POSE_TIMEOUT)
            .map_err(|e| e.to_string())?;
    }
    let cell = std::cell::RefCell::new(handle);
    let outcome = closed_loop(
        inputs,
        seconds,
        |drone, frame| {
            cell.borrow_mut()
                .push_frame(drone as u64, frame.delta, frame.beams.clone())
                .map_err(|e| e.to_string())
        },
        || {
            cell.borrow_mut()
                .recv_timeout(POSE_TIMEOUT)
                .ok_or_else(|| "in-process pose timed out".to_string())
        },
    );
    if outcome.failed > 0 {
        return Err(format!("{} in-process frames failed", outcome.failed));
    }
    Ok(outcome.poses as f64 / outcome.elapsed.as_secs_f64().max(1e-9))
}

/// The same traffic through solo filters on this thread: one filter per
/// drone, round-robin one frame each — compute without shards, dispatch or
/// outboxes.
fn compute_only_poses_per_s(inputs: &Inputs, fleet: &Fleet, seconds: f64) -> f64 {
    let mut filters: Vec<_> = (0..DRONES)
        .map(|drone| solo_filter(inputs, fleet, drone))
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut poses = 0u64;
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        for (drone, filter) in filters.iter_mut().enumerate() {
            let step = step(filter, inputs.frame(drone, k), None).expect("initialized");
            std::hint::black_box(step.estimate);
            poses += 1;
        }
    }
    poses as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs `fleet` and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let inputs = Inputs::new(seed);
    let mut setup_s = Vec::new();
    let mut edt_s = Vec::new();
    let mut served = None;
    for round in 0..SETUPS {
        let start = Instant::now();
        let fresh = match set_up(&inputs) {
            Ok(fresh) => fresh,
            Err(error) => {
                report.error(format!("fleet set-up failed: {error}"));
                return;
            }
        };
        setup_s.push(start.elapsed().as_secs_f64());
        edt_s.push(fresh.edt_s);
        if round + 1 < SETUPS {
            tear_down(fresh);
        } else {
            served = Some(fresh);
        }
    }
    let mut served = served.expect("the last set-up is kept");
    report.fleet_shards = served.fleet.config().shards;

    let pool_before = pool::stats();
    let outcome = {
        let connection = std::cell::RefCell::new(&mut served.connection);
        closed_loop(
            &inputs,
            seconds,
            |drone, frame| {
                connection
                    .borrow_mut()
                    .send(&frame_request(drone, frame))
                    .map_err(|e| e.to_string())
            },
            || connection.borrow_mut().recv().map_err(|e| e.to_string()),
        )
    };
    let pool_after = pool::stats();
    let fleet_stats = served.fleet.stats();
    report.attempted += outcome.attempted;
    report.failed += outcome.failed;
    if fleet_stats.poses_dropped > 0 {
        report.error(format!(
            "{} poses dropped by outboxes",
            fleet_stats.poses_dropped
        ));
    }

    let mut ledger = Ledger::new(KernelBackend::detect(), &inputs.map);
    let mut counters = mcl_core::FilterCounters::default();
    let mismatches = replay_samples(
        &inputs,
        &served.fleet,
        &outcome.streams,
        trace.then_some(&mut ledger),
        &mut counters,
    );
    if mismatches > 0 {
        report.error(format!(
            "{mismatches} poses of the sampled drones differ from solo replays"
        ));
        report.failed += mismatches;
    }
    let measured = report.timed_windows(&outcome.windows);
    report.samples("pose_latency", measured.latency.len() as usize);
    report.quartiles_note("set-up", &setup_s, "s");
    report.samples("setup", setup_s.len());
    report.samples("replayed_drones", outcome.streams.len());

    if trace {
        let tasks = pool_after.total_executed() - pool_before.total_executed();
        let stolen = pool_after.total_stolen() - pool_before.total_stolen();
        ledger.set_pool(tasks, stolen, outcome.poses);
        ledger.report(report, &counters);
        report.metric("gridmap.edt.compute_s", median(&edt_s).unwrap_or(0.0), "s");
        report.metric("gridmap.edt.convert_s", 0.0, "s");
        let (encode_us, decode_us, frame_bytes) = protocol_costs(&inputs);
        report.metric("fleet.protocol.encode_us", encode_us, "us");
        report.metric("fleet.protocol.decode_us", decode_us, "us");
        report.metric("fleet.protocol.frame_bytes", frame_bytes, "bytes");
        shard_metrics(report, &fleet_stats);
        // The TCP connection's drones go with it; the in-process leg
        // registers its own.
        let Served {
            fleet,
            mut server,
            connection,
            ..
        } = served;
        connection.close();
        server.shutdown();
        match inproc_poses_per_s(&inputs, &fleet, seconds / 4.0) {
            Ok(rate) => report.metric("fleet.server.inproc_poses_per_s", rate, "1/s"),
            Err(error) => report.error(error),
        }
        fleet.shutdown();
        report.metric(
            "fleet.compute_only_poses_per_s",
            compute_only_poses_per_s(&inputs, &fleet, seconds / 4.0),
            "1/s",
        );
        return;
    }

    tear_down(served);
    report.required("setup_s", median(&setup_s), "s");
    report.latency("pose latency", measured);
    report.metric("frames_per_s", measured.rate(), "1/s");
    let results: Vec<&SequenceResult> = outcome.results.iter().collect();
    accuracy_figures(report, &results);
}
