//! Micro-benchmarks of the dense DLRM training step (bottom MLP →
//! interaction → top MLP → BCE, forward + backward + SGD), whole and per
//! layer.
//!
//! The `ceiling` and `linear_*` groups annotate each case with its FLOP
//! count, so the printed `Melem/s` is MFLOP/s (÷ 1000 = GFLOP/s):
//! `docs/perf.md` "Dense step" sets each layer against `ceiling`, what
//! this build's separate multiply + add reach with everything in
//! registers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm::{DlrmConfig, DlrmModel, DlrmScratch, Mlp, MlpActivations};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A small model, and the benchmark's `train_bound` model
/// (benchmark/src/workloads.rs) at its batch.
fn step_cases() -> [(&'static str, DlrmConfig, usize); 3] {
    let small = DlrmConfig {
        dense_dim: 13,
        bottom_widths: vec![13, 128, 32],
        top_widths: vec![dlrm::interaction::output_dim(4, 32), 128, 1],
        emb_dim: 32,
        num_tables: 4,
    };
    let train_bound = DlrmConfig {
        dense_dim: 13,
        bottom_widths: vec![13, 128, 64, 64],
        top_widths: vec![dlrm::interaction::output_dim(4, 64), 256, 128, 1],
        emb_dim: 64,
        num_tables: 4,
    };
    [
        ("small/16", small.clone(), 16),
        ("small/64", small, 64),
        ("train_bound/256", train_bound, 256),
    ]
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dlrm_train_step");
    for (name, cfg, batch) in step_cases() {
        let mut model = DlrmModel::seeded(&cfg, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let dense: Vec<f32> = (0..batch * cfg.dense_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let pooled: Vec<f32> = (0..cfg.num_tables * batch * cfg.emb_dim)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let mut grads = vec![0.0f32; pooled.len()];
        let mut scratch = DlrmScratch::new();
        let labels: Vec<f32> = (0..batch).map(|_| f32::from(rng.gen_bool(0.5))).collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &batch, |b, _| {
            b.iter(|| {
                model.train_step_with(&mut scratch, &dense, &pooled, &labels, 0.01, &mut grads)
            });
        });
    }
    group.finish();
}

/// `N` independent 8-lane chains `acc[n] += x[n] · w[k]`: a register
/// tile's inner loop without its broadcasts, loads of `x` and epilogue.
/// `x` stays in registers; `w[k]` is one L1-resident load per `k`, so the
/// products are not loop-invariant.
fn chains<const N: usize>(x: &[[f32; 8]; N], w: &[f32]) -> [[f32; 8]; N] {
    let mut acc = [[0.0f32; 8]; N];
    for &wk in w {
        for (acc, x) in acc.iter_mut().zip(x) {
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += xv * wk;
            }
        }
    }
    acc
}

/// The most a dense kernel could reach on this host under this build: one
/// multiply and one add per lane per step, nothing else in the loop.
fn bench_ceiling(c: &mut Criterion) {
    const K: usize = 4096;
    fn case<const N: usize>(group: &mut criterion::BenchmarkGroup<'_>) {
        let mut rng = StdRng::seed_from_u64(6);
        let x: [[f32; 8]; N] = std::array::from_fn(|_| [rng.gen_range(-1.0..1.0); 8]);
        let w: Vec<f32> = (0..K).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.throughput(Throughput::Elements((2 * N * 8 * K) as u64));
        group.bench_function(format!("{N}_chains"), |b| {
            b.iter(|| chains(black_box(&x), black_box(&w)));
        });
    }
    let mut group = c.benchmark_group("ceiling");
    case::<4>(&mut group);
    case::<8>(&mut group);
    case::<12>(&mut group);
    group.finish();
}

/// `train_bound`'s six layers, each as the one-layer ReLU `Mlp` the model
/// runs it as (forward = kernel + activation epilogue; backward = ReLU
/// mask + `dx` + SGD update, at `lr = 0` so every iteration sees the same
/// weights), batch 256, over reused buffers.
fn bench_layers(c: &mut Criterion) {
    const BATCH: usize = 256;
    const SHAPES: [(usize, usize); 6] = [
        (13, 128),
        (128, 64),
        (64, 64),
        (74, 256),
        (256, 128),
        (128, 1),
    ];
    let mut rng = StdRng::seed_from_u64(4);
    let mut forward = c.benchmark_group("linear_forward");
    for (in_dim, out_dim) in SHAPES {
        let mlp = Mlp::seeded(&[in_dim, out_dim], true, 5);
        let x: Vec<f32> = (0..BATCH * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut acts = MlpActivations::new();
        forward.throughput(Throughput::Elements((2 * BATCH * in_dim * out_dim) as u64));
        forward.bench_function(format!("{in_dim}x{out_dim}"), |b| {
            b.iter(|| mlp.forward_into(&x, &mut acts));
        });
    }
    forward.finish();

    let mut backward = c.benchmark_group("linear_backward");
    for (in_dim, out_dim) in SHAPES {
        let mut mlp = Mlp::seeded(&[in_dim, out_dim], true, 5);
        let x: Vec<f32> = (0..BATCH * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut acts = mlp.forward(&x);
        let dy: Vec<f32> = (0..BATCH * out_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut grad = Vec::new();
        // dx and the weight update: two multiply-adds per weight per sample.
        backward.throughput(Throughput::Elements((4 * BATCH * in_dim * out_dim) as u64));
        backward.bench_function(format!("{in_dim}x{out_dim}"), |b| {
            b.iter(|| {
                grad.clear();
                grad.extend_from_slice(&dy);
                mlp.backward_into(&mut acts, 0.0, &mut grad);
            });
        });
    }
    backward.finish();
}

fn bench_interaction(c: &mut Criterion) {
    let dim = 64;
    let tables = 8;
    let batch = 128;
    let mut rng = StdRng::seed_from_u64(3);
    let bottom: Vec<f32> = (0..batch * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let pooled: Vec<f32> = (0..tables * batch * dim)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut group = c.benchmark_group("feature_interaction");
    group.throughput(Throughput::Elements(batch as u64));
    let mut z = Vec::new();
    group.bench_function("forward_8tables_64d", |b| {
        b.iter(|| dlrm::interaction::forward_into(&bottom, &pooled, tables, dim, &mut z));
    });
    let out = dlrm::interaction::forward(&bottom, &pooled, tables, dim);
    let dout = vec![0.1f32; out.len()];
    let mut d_pooled = vec![0.0f32; pooled.len()];
    group.bench_function("backward_8tables_64d", |b| {
        b.iter(|| dlrm::interaction::backward(&bottom, &pooled, tables, dim, &dout, &mut d_pooled));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_train_step,
    bench_ceiling,
    bench_layers,
    bench_interaction
);
criterion_main!(benches);
