//! Harness for the shared job-queue scheduler: concurrency that the
//! single-slot pool could not express, pinned both for liveness (parallelism
//! actually happens) and for determinism (it is unobservable in the results).
//!
//! Three properties:
//!
//! * **Nested kernel parallelism.** A kernel dispatch issued from *inside* a
//!   pool task — the shape of a filter update inside a `run_batch` job — is
//!   advertised on the pool's job queue and picked up by idle workers, not
//!   starved into inline execution as the single-slot scheduler did. The
//!   regression test asserts that nested tasks run on more than one thread
//!   and that the steal counters provably moved.
//! * **Concurrent sweeps are bit-identical.** N simultaneous `run_batch`
//!   sweeps from separate threads return exactly what their serial
//!   evaluations return, for every `MCL_TEST_WORKERS` the CI matrix injects
//!   (the shared pool is sized by it) and for both kernel backends.
//! * **Stealing is exercised.** Under a contended dispatch on the shared
//!   pool, `pool::stats()` shows non-zero steal counts — idle workers really
//!   join published jobs, rather than everything running behind an inline
//!   fallback.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tof_mcl::core::pool::{self, WorkerPool};
use tof_mcl::core::precision::PipelineConfig;
use tof_mcl::core::KernelBackend;
use tof_mcl::sim::{run_batch, BatchJob, PaperScenario, SequenceResult};

/// Regression for the nested-dispatch starvation edge: a dispatch from inside
/// a pool task used to always run inline when the pool was busy (the single
/// slot was taken by the outer job). Now the nested job is advertised on the
/// pool's job queue, so idle workers pick its tasks up — kernel-level
/// parallelism inside job-level parallelism.
#[test]
fn nested_dispatch_tasks_run_on_multiple_threads() {
    let pool = WorkerPool::new(4);
    let before_stolen: u64 = {
        let stats = pool.stats();
        stats.total_stolen()
    };
    let nested_threads = Mutex::new(HashSet::new());
    // Two outer "jobs"; job 0 nested-dispatches a sleepy kernel, exactly the
    // run_batch shape. The sleeps give every other thread time to steal even
    // on a single-core host (a sleeping thread always yields the core).
    pool.dispatch(2, &|outer| {
        if outer == 0 {
            pool.dispatch(16, &|_| {
                nested_threads
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }
    });
    let distinct = nested_threads.lock().unwrap().len();
    assert!(
        distinct >= 2,
        "nested kernel dispatch stayed on one thread (starved inline): {distinct} thread(s)"
    );
    assert!(
        pool.stats().total_stolen() > before_stolen,
        "no steal was recorded while nested work was available"
    );
}

/// The steal/execute counters of the shared pool move under contention, and
/// the executed totals account for every dispatched task.
#[test]
fn shared_pool_stats_expose_live_stealing_under_contention() {
    let pool = pool::shared();
    if pool.workers() < 2 {
        // A 1-worker pool (MCL_TEST_WORKERS=1 leg) runs everything inline;
        // there is nobody to steal from. The shape is still checked.
        assert!(pool.stats().workers.is_empty());
        return;
    }
    let before = pool::stats();
    let tasks = AtomicUsize::new(0);
    pool.dispatch(48, &|_| {
        tasks.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    let after = pool::stats();
    assert_eq!(tasks.load(Ordering::Relaxed), 48);
    assert_eq!(after.total_executed() - before.total_executed(), 48);
    // A top-level dispatch is published on the job queue; with sleepy tasks
    // the resident workers must have popped it, and every task they run from
    // a popped job counts as a steal.
    assert!(
        after.total_stolen() > before.total_stolen(),
        "steal counters did not move under a contended dispatch"
    );
}

fn serial_reference(scenario: &PaperScenario, jobs: &[BatchJob]) -> Vec<SequenceResult> {
    jobs.iter()
        .map(|job| {
            scenario.evaluate_with_backend(
                &scenario.sequences()[job.sequence_index],
                job.pipeline,
                job.particles,
                job.seed,
                job.kernel_backend,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N simultaneous `run_batch` sweeps from separate threads are
    /// bit-identical to their serial executions — across the
    /// `MCL_TEST_WORKERS` matrix (which sizes the shared pool) and with both
    /// kernel backends in flight at once. Under the single-slot scheduler
    /// the sweeps serialized behind `dispatch_queued`; now they interleave
    /// across the workers, and the interleaving must stay unobservable.
    #[test]
    fn simultaneous_run_batch_sweeps_match_their_serial_executions(
        scenario_seed in 1u64..50,
        job_seed in 1u64..1000,
    ) {
        let scenario = PaperScenario::quick(scenario_seed);
        let sweeps: Vec<Vec<BatchJob>> = [KernelBackend::Scalar, KernelBackend::Lanes, KernelBackend::default()]
            .iter()
            .enumerate()
            .map(|(i, &backend)| {
                BatchJob::grid(&[0], &[PipelineConfig::FP32], &[48 + 16 * i], &[job_seed, job_seed + 1])
                    .into_iter()
                    .map(|job| job.with_kernel_backend(backend))
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<SequenceResult>> = sweeps
            .iter()
            .map(|jobs| serial_reference(&scenario, jobs))
            .collect();
        // All three sweeps dispatch concurrently from their own threads onto
        // the shared pool.
        let concurrent: Vec<Vec<SequenceResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sweeps
                .iter()
                .map(|jobs| {
                    let scenario = &scenario;
                    scope.spawn(move || {
                        run_batch(scenario, jobs, jobs.len())
                            .into_iter()
                            .map(|outcome| outcome.result)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (sweep, (got, want)) in concurrent.iter().zip(expected.iter()).enumerate() {
            prop_assert_eq!(got, want, "sweep {} diverged from serial evaluation", sweep);
        }
    }
}
