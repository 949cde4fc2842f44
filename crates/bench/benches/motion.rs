//! Host micro-benchmark of the motion (prediction) step: the seed's
//! array-of-structs `MotionModel::apply` loop vs. the SoA
//! [`mcl_core::kernel::motion_predict`] kernel on 1 and 8 workers, plus the
//! `motion_dispatch` group timing the kernel dispatched on the persistent
//! worker pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::kernel;
use mcl_core::{ClusterLayout, MotionDelta, MotionModel, Particle, ParticleBuffer};
use mcl_gridmap::Pose2;

fn particles(n: usize) -> Vec<Particle<f32>> {
    (0..n)
        .map(|i| Particle::from_pose(&Pose2::new(i as f32 * 0.001, 0.5, 0.1), 1.0 / n as f32))
        .collect()
}

fn bench_motion(c: &mut Criterion) {
    let model = MotionModel::new([0.1, 0.1, 0.1]);
    let delta = MotionDelta::new(0.1, 0.02, 0.05);
    let mut group = c.benchmark_group("motion_step");
    group.sample_size(20);
    for &n in &[64usize, 1024, 4096, 16_384] {
        let aos = particles(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &aos, |b, aos| {
            b.iter_batched(
                || aos.clone(),
                |mut batch| {
                    model.apply(&mut batch, &delta, 7, 3, 0);
                    batch
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    let mut kernel_group = c.benchmark_group("motion_kernel");
    kernel_group.sample_size(20);
    for &n in &[4096usize, 16_384] {
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("soa_kernel_{workers}w"), n),
                &soa,
                |b, soa| {
                    b.iter_batched(
                        || soa.clone(),
                        |mut batch| {
                            cluster.for_each_split(batch.as_mut_slice(), |start, chunk| {
                                kernel::motion_predict(chunk, &model, &delta, 7, 3, start as u64);
                            });
                            batch
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    kernel_group.finish();

    // The motion kernel dispatched on the persistent shared pool, with the
    // per-dispatch batch clone outside the timed region. At one worker the
    // dispatch runs inline on the caller; at eight it fans out to the pool.
    let mut dispatch_group = c.benchmark_group("motion_dispatch");
    dispatch_group.sample_size(30);
    let soa: ParticleBuffer<f32> = particles(4096).into_iter().collect();
    for workers in [1usize, 8] {
        let cluster = ClusterLayout::new(workers);
        dispatch_group.bench_with_input(
            BenchmarkId::new(format!("pool_{workers}w"), 4096usize),
            &soa,
            |b, soa| {
                b.iter_batched(
                    || soa.clone(),
                    |mut batch| {
                        cluster.for_each_split(batch.as_mut_slice(), |start, chunk| {
                            kernel::motion_predict(chunk, &model, &delta, 7, 3, start as u64);
                        });
                        batch
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    dispatch_group.finish();
}

criterion_group!(benches, bench_motion);
criterion_main!(benches);
