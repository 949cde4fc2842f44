//! Host micro-benchmark of the resampling step: sequential wheel vs. the
//! partial-sum decomposition used for the 8-core cluster (`resampling_step`),
//! plus the full step — plan + particle scatter + weight reset — on the seed's
//! array-of-structs path vs. the SoA scatter kernel (`resampling_kernel`),
//! plus the `resampling_dispatch` group running the plan's per-worker scatter
//! ranges on the persistent pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::kernel;
use mcl_core::{
    systematic_resample, ClusterLayout, PartialSumResampler, Particle, ParticleBuffer, ResamplePlan,
};
use mcl_gridmap::Pose2;

fn weights(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32 * 0.37).sin().abs() + 0.01) / n as f32)
        .collect()
}

fn particles(n: usize) -> Vec<Particle<f32>> {
    let w = weights(n);
    (0..n)
        .map(|i| {
            Particle::from_pose(
                &Pose2::new((i % 64) as f32 * 0.05, (i / 64) as f32 * 0.05, 0.2),
                w[i],
            )
        })
        .collect()
}

fn bench_resampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("resampling_step");
    group.sample_size(20);
    for &n in &[64usize, 1024, 4096, 16_384] {
        let w = weights(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &w, |b, w| {
            b.iter(|| systematic_resample(w, 0.37))
        });
        let resampler = PartialSumResampler::new(8);
        group.bench_with_input(BenchmarkId::new("partial_sums_8", n), &w, |b, w| {
            b.iter(|| resampler.plan(w, 0.37))
        });
    }
    group.finish();

    // The full resampling step as the paper defines it (weight normalization +
    // systematic resampling, cf. `mcl_gap9::McStep::Resampling`) and as the
    // filter runs it. `aos_seed_*` replays the seed filter's data path exactly:
    // normalize over the particle structs (stride-16 weight access), gather a
    // fresh `Vec<f32>` of weights, allocate a fresh plan, struct scatter via
    // `ClusterLayout::scatter_resample`, then a separate uniform-weight pass.
    // `soa_kernel_*` is the new hot path: normalize over the contiguous weight
    // array, feed it to an allocation-reusing `plan_into` with no gather, and
    // scatter through the component-pass kernel with the weight reset fused.
    let mut kernel_group = c.benchmark_group("resampling_kernel");
    kernel_group.sample_size(20);
    for &n in &[1024usize, 4096, 16_384] {
        let uniform = 1.0 / n as f32;
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            let resampler = PartialSumResampler::new(workers);

            let aos = particles(n);
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("aos_seed_{workers}w"), n),
                &aos,
                |b, aos| {
                    b.iter_batched(
                        || (aos.clone(), aos.clone()),
                        |(mut aos, mut scratch)| {
                            let sum: f32 = aos.iter().map(|p| p.weight).sum();
                            for p in aos.iter_mut() {
                                p.weight /= sum;
                            }
                            let w: Vec<f32> = aos.iter().map(|p| p.weight_f32()).collect();
                            let plan = resampler.plan(&w, 0.37);
                            cluster.scatter_resample(
                                &aos,
                                &mut scratch,
                                &plan.indices,
                                &plan.worker_output_ranges,
                            );
                            for p in scratch.iter_mut() {
                                p.weight = uniform;
                            }
                            scratch[0]
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );

            let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("soa_kernel_{workers}w"), n),
                &soa,
                |b, soa| {
                    let mut plan = ResamplePlan {
                        indices: Vec::new(),
                        worker_output_ranges: Vec::new(),
                    };
                    b.iter_batched(
                        || (soa.clone(), soa.clone()),
                        |(mut soa, mut scratch)| {
                            let sum: f32 = soa.weight().iter().sum();
                            for w in soa.weight_mut() {
                                *w /= sum;
                            }
                            // Weights are already a contiguous array (no
                            // gather) and the plan reuses its allocations, as
                            // the filter's hot path does.
                            resampler.plan_into(soa.weight(), 0.37, &mut plan);
                            cluster.for_each_range(
                                (scratch.as_mut_slice(), plan.indices.as_slice()),
                                &plan.worker_output_ranges,
                                |_, (target, indices)| {
                                    kernel::resample_scatter(
                                        soa.as_slice(),
                                        target,
                                        indices,
                                        uniform,
                                    );
                                },
                            );
                            scratch.get(0)
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    kernel_group.finish();

    // The scatter on the persistent pool: the plan's per-worker output ranges
    // dispatched on 1 and 8 workers.
    let mut dispatch_group = c.benchmark_group("resampling_dispatch");
    dispatch_group.sample_size(30);
    {
        let n = 4096usize;
        let uniform = 1.0 / n as f32;
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            let plan = PartialSumResampler::new(workers).plan(soa.weight(), 0.37);
            dispatch_group.bench_with_input(
                BenchmarkId::new(format!("pool_{workers}w"), n),
                &soa,
                |b, soa| {
                    b.iter_batched(
                        || soa.clone(),
                        |mut scratch| {
                            cluster.for_each_range(
                                (scratch.as_mut_slice(), plan.indices.as_slice()),
                                &plan.worker_output_ranges,
                                |_, (target, indices)| {
                                    kernel::resample_scatter(
                                        soa.as_slice(),
                                        target,
                                        indices,
                                        uniform,
                                    );
                                },
                            );
                            scratch.get(0)
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    dispatch_group.finish();
}

criterion_group!(benches, bench_resampling);
criterion_main!(benches);
