//! Host micro-benchmark of the observation (correction) step.
//!
//! Complements Table I: the GAP9 numbers come from the analytic cost model,
//! this bench measures the same per-particle work on the host. Two families:
//!
//! * `observation_step` — the seed's array-of-structs path: per particle, score
//!   a `&[Beam]` list with [`BeamEndPointModel::observation_log_likelihood`]
//!   (recomputing the beam trigonometry per particle per beam).
//! * `observation_kernel` — the SoA path: particles in a [`ParticleBuffer`],
//!   beams pre-flattened into a [`BeamBatch`] (partitioned for `r_max`, so the
//!   per-particle loop body is branch-free), scored by
//!   [`mcl_core::kernel::observation_log_likelihoods`] on 1 and 8 workers.
//! * `observation_dispatch` — the same kernel over the same chunks
//!   dispatched on the persistent worker pool.
//! * `observation_backend` — every kernel backend through
//!   [`mcl_core::kernel::observation_log_likelihoods_with`], on the fp32 and
//!   the quantized map.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::kernel;
use mcl_core::{BeamEndPointModel, ClusterLayout, Particle, ParticleBuffer};
use mcl_gridmap::{EuclideanDistanceField, Pose2};
use mcl_sensor::BeamBatch;
use mcl_sim::PaperScenario;

fn particles_aos(n: usize) -> Vec<Particle<f32>> {
    (0..n)
        .map(|i| {
            Particle::from_pose(
                &Pose2::new(
                    1.0 + (i % 50) as f32 * 0.05,
                    1.0 + (i / 50) as f32 * 0.02,
                    0.3,
                ),
                1.0 / n as f32,
            )
        })
        .collect()
}

fn bench_observation(c: &mut Criterion) {
    let scenario = PaperScenario::quick(1);
    let sequence = &scenario.sequences()[0];
    let beams = sequence.beams(sequence.len() / 2);
    let model = BeamEndPointModel::new(0.1, 1.5);
    let mut group = c.benchmark_group("observation_step");
    group.sample_size(20);

    for &n in &[64usize, 1024, 4096] {
        let particles = particles_aos(n);
        group.bench_with_input(
            BenchmarkId::new("fp32_edt", n),
            &particles,
            |b, particles| {
                b.iter(|| {
                    let mut acc = 0.0f32;
                    for p in particles {
                        acc += model.observation_log_likelihood(
                            scenario.edt_fp32(),
                            &p.pose(),
                            &beams,
                        );
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("quantized_edt", n),
            &particles,
            |b, particles| {
                b.iter(|| {
                    let mut acc = 0.0f32;
                    for p in particles {
                        acc += model.observation_log_likelihood(
                            scenario.edt_quantized(),
                            &p.pose(),
                            &beams,
                        );
                    }
                    acc
                })
            },
        );
    }
    group.finish();

    // SoA kernel path vs. the AoS loop above, including the batched-beam
    // preprocessing win and the 8-worker dispatch.
    let mut kernel_group = c.benchmark_group("observation_kernel");
    kernel_group.sample_size(20);
    for &n in &[1024usize, 4096] {
        let soa: ParticleBuffer<f32> = particles_aos(n).into_iter().collect();
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(model.r_max());
        let aos = particles_aos(n);
        kernel_group.bench_with_input(BenchmarkId::new("aos_per_particle", n), &aos, |b, aos| {
            b.iter(|| {
                let mut out = vec![0.0f32; aos.len()];
                for (i, p) in aos.iter().enumerate() {
                    out[i] =
                        model.observation_log_likelihood(scenario.edt_fp32(), &p.pose(), &beams);
                }
                out
            })
        });
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("soa_batch_{workers}w"), n),
                &soa,
                |b, soa| {
                    b.iter(|| {
                        let mut out = vec![0.0f32; soa.len()];
                        cluster.for_each_split(
                            (soa.as_slice(), out.as_mut_slice()),
                            |_, (chunk, logs)| {
                                kernel::observation_log_likelihoods(
                                    chunk,
                                    scenario.edt_fp32(),
                                    &model,
                                    &batch,
                                    logs,
                                );
                            },
                        );
                        out
                    })
                },
            );
        }
    }
    kernel_group.finish();

    // The dominating kernel of the update dispatched on the persistent pool.
    // One worker runs inline on the caller; eight fan out to the pool.
    let mut dispatch_group = c.benchmark_group("observation_dispatch");
    dispatch_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles_aos(n).into_iter().collect();
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(model.r_max());
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            dispatch_group.bench_with_input(
                BenchmarkId::new(format!("pool_{workers}w"), n),
                &soa,
                |b, soa| {
                    b.iter(|| {
                        let mut out = vec![0.0f32; soa.len()];
                        cluster.for_each_split(
                            (soa.as_slice(), out.as_mut_slice()),
                            |_, (chunk, logs)| {
                                kernel::observation_log_likelihoods(
                                    chunk,
                                    scenario.edt_fp32(),
                                    &model,
                                    &batch,
                                    logs,
                                );
                            },
                        );
                        out
                    })
                },
            );
        }
    }
    dispatch_group.finish();

    // Every backend of the observation kernel (the one kernel with scalar,
    // lanes and avx2 bodies) on one full-population invocation, with no
    // dispatch, so the group isolates the loop shape: identical results bit
    // for bit. The quantized map (the fp32qm/fp16qm configurations) pays the
    // same lookup shape, so the `_qm` entries measure the FP16_QM speedup
    // rather than infer it; the `avx2_qm` / `scalar_qm` ratio is what the
    // GAP9 cost-model fixture (mcl_gap9::cost) checks `simd_speedup`
    // against. The avx2 entries are skipped (visibly) when the host cannot
    // run the intrinsics — archiving the Lanes fallback under the avx2 label
    // would poison the comparison.
    let mut backend_group = c.benchmark_group("observation_backend");
    backend_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles_aos(n).into_iter().collect();
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(model.r_max());
        for backend in kernel::KernelBackend::ALL {
            if !backend.is_available() {
                eprintln!(
                    "observation_backend: host lacks {} — skipping its entries",
                    backend.name()
                );
                continue;
            }
            backend_group.bench_with_input(BenchmarkId::new(backend.name(), n), &soa, |b, soa| {
                b.iter(|| {
                    let mut out = vec![0.0f32; soa.len()];
                    kernel::observation_log_likelihoods_with(
                        backend,
                        soa.as_slice(),
                        scenario.edt_fp32(),
                        &model,
                        &batch,
                        &mut out,
                    );
                    out
                })
            });
            let label = format!("{}_qm", backend.name());
            backend_group.bench_with_input(BenchmarkId::new(label, n), &soa, |b, soa| {
                b.iter(|| {
                    let mut out = vec![0.0f32; soa.len()];
                    kernel::observation_log_likelihoods_with(
                        backend,
                        soa.as_slice(),
                        scenario.edt_quantized(),
                        &model,
                        &batch,
                        &mut out,
                    );
                    out
                })
            });
        }
    }
    backend_group.finish();

    // Per-beam cost in isolation, with a locally computed field.
    let edt = EuclideanDistanceField::compute(scenario.map(), 1.5);
    c.bench_function("observation_single_beam", |b| {
        let pose = Pose2::new(1.5, 1.5, 0.7);
        b.iter(|| model.beam_log_likelihood(&edt, &pose, &beams[0]))
    });
}

criterion_group!(benches, bench_observation);
criterion_main!(benches);
