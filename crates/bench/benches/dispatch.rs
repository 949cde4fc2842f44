//! Scheduler-level benchmarks of the pool's dispatch layer.
//!
//! Two groups:
//!
//! * `contended_dispatch` — the headline of concurrent dispatch: two
//!   `run_batch` sweeps executed **concurrently** from two threads versus the
//!   same two sweeps executed back to back (the behaviour the single-slot
//!   scheduler's `dispatch_queued` forced on every contending study). Each
//!   sweep holds fewer jobs than the pool has workers, so under the old
//!   scheduler the surplus workers idled twice over; the shared job queue lets
//!   the two sweeps interleave across all workers and lets each job's nested
//!   kernel dispatches soak up the rest. The aggregate-throughput ratio
//!   (serialized time / concurrent time) is the ≥1.5× acceptance number on a
//!   multi-core 8-worker runner — on a single-core host both variants
//!   time-slice one core and the ratio sits near 1×, which the archived JSON
//!   reports honestly.
//! * `dispatch_overhead` — the publish/claim round trip of one pool dispatch
//!   against the same loop run inline: the host-side cost the
//!   `mcl_gap9::DispatchModel::WorkStealing` constants
//!   (`injector_publish_cycles`, `steal_cycles_per_worker`) are calibrated
//!   from (host ns × 0.4 GHz ≈ GAP9 cycles at 400 MHz, same scaling as the
//!   spawn-model calibration).
//!
//! Both groups emit JSON lines under `MCL_BENCH_JSON` and are archived into
//! `BENCH_kernels.json` by the CI bench-smoke job, which runs them with
//! `MCL_TEST_WORKERS=8`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::pool;
use mcl_core::precision::PipelineConfig;
use mcl_sim::{run_batch, BatchJob, PaperScenario};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn sweep_jobs(seeds: &[u64]) -> Vec<BatchJob> {
    // Two jobs per sweep — fewer jobs than the 8-worker pool, so the sweep
    // only fills the pool through nested kernel stealing and through running
    // concurrently with the other sweep.
    BatchJob::grid(&[0], &[PipelineConfig::FP32], &[192], seeds)
}

fn bench_contended_dispatch(c: &mut Criterion) {
    let scenario = PaperScenario::quick(23);
    let sweep_a = sweep_jobs(&[1, 2]);
    let sweep_b = sweep_jobs(&[3, 4]);
    let threads = sweep_a.len();

    let mut group = c.benchmark_group("contended_dispatch");
    group.sample_size(10);
    // Two sweeps, one after the other, from one thread: the single-slot
    // scheduler's contention behaviour (a sweep waited in dispatch_queued
    // until the other released the pool).
    group.bench_with_input(
        BenchmarkId::new("serialized", "2x2jobs"),
        &scenario,
        |b, scenario| {
            b.iter(|| {
                let first = run_batch(scenario, &sweep_a, threads);
                let second = run_batch(scenario, &sweep_b, threads);
                black_box((first.len(), second.len()))
            })
        },
    );
    // The same two sweeps dispatched simultaneously from two threads: their
    // jobs (and the jobs' nested kernel dispatches) share the pool's workers.
    group.bench_with_input(
        BenchmarkId::new("concurrent", "2x2jobs"),
        &scenario,
        |b, scenario| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let a = scope.spawn(|| run_batch(scenario, &sweep_a, threads));
                    let b = scope.spawn(|| run_batch(scenario, &sweep_b, threads));
                    black_box((a.join().unwrap().len(), b.join().unwrap().len()))
                })
            })
        },
    );
    group.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    let pool = pool::shared();
    let workers = pool.workers();
    let mut group = c.benchmark_group("dispatch_overhead");
    group.sample_size(30);
    // One near-empty task per worker: the measured time is dominated by the
    // publish + wakeup + per-worker claim round trip, the quantity the
    // WorkStealing cost-model constants are calibrated from.
    let sink = AtomicU64::new(0);
    group.bench_with_input(
        BenchmarkId::new("pool_publish_claim", workers),
        &workers,
        |b, &workers| {
            b.iter(|| {
                pool.dispatch(workers, &|i| {
                    sink.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
                black_box(sink.load(Ordering::Relaxed))
            })
        },
    );
    // The same loop inline on the calling thread: the zero-dispatch baseline
    // to subtract.
    group.bench_with_input(
        BenchmarkId::new("inline_baseline", workers),
        &workers,
        |b, &workers| {
            b.iter(|| {
                for i in 0..workers {
                    sink.fetch_add(i as u64 + 1, Ordering::Relaxed);
                }
                black_box(sink.load(Ordering::Relaxed))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_contended_dispatch, bench_dispatch_overhead);
criterion_main!(benches);
