//! Per-layer timings: each times direct calls into one layer's public
//! API on the workload's own window-0 inputs, untraced.

use crate::serve::{ServeSpec, REQUEST_FRAMES};
use crate::stats::{median, time_median};
use ekya_actors::{spawn_bounded, Actor};
use ekya_core::{
    build_inference_profiles, thief_schedule, MicroProfiler, RetrainProfile, StreamInput,
};
use ekya_nn::{DataView, Mlp, MlpArch, PredictScratch, Sample, Sgd};
use ekya_video::{StreamId, VideoDataset};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pool size for the `ekya-nn` timings.
const NN_POOL: usize = 600;

/// Time each repeated timing runs for, at the least.
const BUDGET: Duration = Duration::from_millis(300);

/// The layer timings of one workload.
pub struct Ladder {
    pub classify_rtt_us: f64,
    pub pump_round_us: f64,
    pub profile_ms: f64,
    pub thief_schedule_ms: f64,
    pub scheduler_evaluations: f64,
    pub predict_ns_per_frame: f64,
    pub train_epoch_ms: f64,
    pub ask_rtt_us: f64,
}

/// A model of the shape the daemon admits streams with.
fn serving_model(ds: &VideoDataset, seed: u64) -> Mlp {
    Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), seed)
}

/// `NN_POOL` samples cycled from the stream's window-0 training pool.
fn nn_pool(ds: &VideoDataset) -> Vec<Sample> {
    ds.window(0).train_pool.iter().cycle().take(NN_POOL).cloned().collect()
}

struct Noop;

impl Actor for Noop {
    type Msg = u64;
    type Reply = u64;
    fn handle(&mut self, msg: u64) -> u64 {
        msg
    }
}

/// Measures every layer timing for `spec`'s fleet. `fleet` holds at
/// least window 0 of every stream.
pub fn measure(spec: &ServeSpec, fleet: Vec<VideoDataset>) -> Ladder {
    let cfg = &spec.cfg;

    // ekya-core: micro-profile each stream (at most 16) on window 0.
    let mut profile_s = Vec::new();
    let mut profiles: Vec<Vec<RetrainProfile>> = Vec::new();
    for (s, ds) in fleet.iter().take(16).enumerate() {
        let model = serving_model(ds, spec.seed.wrapping_add(s as u64));
        let w = ds.window(0);
        let mut profiler = MicroProfiler::new(cfg.profiler, cfg.cost.clone(), spec.seed ^ 0xB00);
        let t = Instant::now();
        let out = profiler.profile(
            &model,
            &w.train_pool,
            &w.val,
            &cfg.retrain_grid,
            ds.num_classes,
            spec.seed.wrapping_add(s as u64),
        );
        profile_s.push(t.elapsed().as_secs_f64());
        profiles.push(out.profiles);
    }

    // ekya-core: one thief-scheduler call at the workload's stream
    // count, on those profiles (cycled over the fleet).
    let first = &fleet[0];
    let infer = build_inference_profiles(
        &cfg.cost,
        cfg.cost.size_factor(&serving_model(first, spec.seed)),
        first.spec.fps,
        &cfg.inference_grid,
    );
    let inputs: Vec<StreamInput<'_>> = (0..fleet.len())
        .map(|s| StreamInput {
            id: StreamId(s as u32),
            serving_accuracy: 0.3 + 0.4 * (s % 7) as f64 / 7.0,
            retrain_profiles: &profiles[s % profiles.len()],
            infer_profiles: &infer,
            in_progress: None,
        })
        .collect();
    let mut evaluations = 0usize;
    let thief_s = time_median(1, BUDGET, || {
        evaluations = thief_schedule(&inputs, first.spec.window_secs, &cfg.scheduler).evaluations;
    });

    // ekya-nn: forward pass and one SGD epoch on a 600-sample pool.
    let pool = nn_pool(first);
    let model = serving_model(first, spec.seed);
    let mut scratch = PredictScratch::new();
    let predict_s = time_median(5, BUDGET, || {
        black_box(model.predict_into(&pool, &mut scratch));
    });
    let mut trained = serving_model(first, spec.seed);
    let mut opt = Sgd::new(&trained, cfg.hyper.lr, cfg.hyper.momentum);
    let mut epoch = 0u64;
    let epoch_s = time_median(5, BUDGET, || {
        epoch += 1;
        black_box(trained.train_epoch(
            DataView::new(&pool, first.num_classes),
            &mut opt,
            32,
            epoch,
        ));
    });

    // ekya-actors: bounded-mailbox ask round trip on a no-op actor.
    let noop = spawn_bounded("noop", Noop, cfg.shard_mailbox);
    let ask_s = time_median(5, BUDGET, || {
        for i in 0..100 {
            black_box(noop.ask(i).expect("noop actor alive"));
        }
    }) / 100.0;
    noop.stop();

    // ekya-server: classify round trip and pump rounds on an idle
    // daemon serving the whole fleet.
    let frames: Vec<Sample> =
        first.window(0).val.iter().cycle().take(REQUEST_FRAMES).cloned().collect();
    let (mut daemon, _) = spec.boot(fleet);
    let client = daemon.client();
    let rtt_s = time_median(5, BUDGET, || {
        for _ in 0..20 {
            let (preds, _) = client.classify(StreamId(0), frames.clone()).expect("idle daemon");
            assert_eq!(preds.len(), REQUEST_FRAMES, "one prediction per frame");
        }
    }) / 20.0;
    let rounds = 8;
    let pump_s = time_median(3, BUDGET, || {
        black_box(daemon.pump_rounds(rounds));
    }) / rounds as f64;
    daemon.shutdown();

    Ladder {
        classify_rtt_us: rtt_s * 1e6,
        pump_round_us: pump_s * 1e6,
        profile_ms: median(&profile_s) * 1e3,
        thief_schedule_ms: thief_s * 1e3,
        scheduler_evaluations: evaluations as f64,
        predict_ns_per_frame: predict_s * 1e9 / NN_POOL as f64,
        train_epoch_ms: epoch_s * 1e3,
        ask_rtt_us: ask_s * 1e6,
    }
}
