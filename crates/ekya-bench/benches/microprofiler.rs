//! Criterion benchmarks for the micro-profiler (§4.3).
//!
//! Measures the wall-clock cost of micro-profiling a window (with and
//! without history pruning) against exhaustive profiling — the simulated
//! GPU-time version of this comparison (the paper's ~100x claim) is
//! asserted in tests; here we measure the real compute.

use criterion::{criterion_group, criterion_main, Criterion};
use ekya_core::{
    default_retrain_grid, exhaustive_profile, MicroProfiler, MicroProfilerParams, TrainHyper,
};
use ekya_nn::cost::CostModel;
use ekya_nn::fit::{nnls, LearningCurve};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};
use std::hint::black_box;

fn bench_profiling(c: &mut Criterion) {
    let ds = VideoDataset::generate(DatasetSpec {
        val_samples: 200,
        ..DatasetSpec::new(DatasetKind::Cityscapes, 2, 7)
    });
    let model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), 5);
    let w = ds.window(0);
    let grid = default_retrain_grid();

    c.bench_function("micro_profile_18cfg", |b| {
        b.iter(|| {
            let mut p = MicroProfiler::new(
                MicroProfilerParams { prune: false, ..MicroProfilerParams::default() },
                CostModel::default(),
                9,
            );
            black_box(p.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 1))
        })
    });

    c.bench_function("micro_profile_18cfg_pruned", |b| {
        b.iter(|| {
            let mut p = MicroProfiler::new(
                MicroProfilerParams { prune: true, ..MicroProfilerParams::default() },
                CostModel::default(),
                9,
            );
            // Two passes: the second benefits from pruning history.
            let _ = p.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 1);
            black_box(p.profile(&model, &w.train_pool, &w.val, &grid, ds.num_classes, 2))
        })
    });

    // Exhaustive profiling of a *subset* (full grid would dominate the
    // benchmark wall time; 6 configs suffice for the per-config rate).
    let subset = &grid[..6];
    c.bench_function("exhaustive_profile_6cfg", |b| {
        b.iter(|| {
            black_box(exhaustive_profile(
                &model,
                &w.train_pool,
                &w.val,
                subset,
                TrainHyper::default(),
                &CostModel::default(),
                1,
            ))
        })
    });
}

fn bench_fitting(c: &mut Criterion) {
    // Learning-curve fit on 6 observed points (the per-variant cost the
    // micro-profiler pays each window).
    let truth = LearningCurve { a: 0.9, b: 1.4, c: 0.88 };
    let points: Vec<(f64, f64)> =
        (0..6).map(|i| (i as f64 * 0.1, truth.predict(i as f64 * 0.1))).collect();
    c.bench_function("curve_fit_6pts", |b| {
        b.iter(|| black_box(LearningCurve::fit_capped(&points, 0.9)))
    });

    // NNLS on the linearised system.
    let a: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.1, 1.0]).collect();
    let y: Vec<f64> = (0..6).map(|i| 1.0 + 0.5 * i as f64).collect();
    c.bench_function("nnls_6x2", |b| b.iter(|| black_box(nnls(&a, &y))));
}

criterion_group!(benches, bench_profiling, bench_fitting);
criterion_main!(benches);
