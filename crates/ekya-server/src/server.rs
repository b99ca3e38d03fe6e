//! The edge-server controller: wires per-stream inference and trainer
//! actors to the micro-profiler and thief scheduler, window by window.
//!
//! This is the wall-clock *deployment* half of the reproduction (§5's
//! modular implementation): inference actors keep serving frames while
//! trainer actors run SGD on other threads, checkpoints hot-swap into
//! serving, and every window starts with micro-profiling + thief
//! scheduling. Timing fidelity (fractional GPU shares, retraining
//! durations) lives in `ekya-sim`'s virtual-time runner; this crate
//! demonstrates that the paper's architecture — and the liveness it
//! promises — holds under real concurrency.

use crate::inference::{InferenceActor, InferenceMsg, InferenceReply, InferenceStats};
use crate::trainer::{
    SwapTarget, TrainJobSpec, TrainOutcome, TrainerActor, TrainerMsg, TrainerReply,
};
use ekya_actors::{spawn, spawn_bounded, ActorHandle};
use ekya_core::{
    build_inference_profiles, default_inference_grid, default_retrain_grid, EkyaPolicy,
    InferenceConfig, MicroProfiler, MicroProfilerParams, Policy, PolicyCtx, PolicyStream,
    RetrainConfig, RetrainProfile, SchedulerParams, TrainHyper,
};
use ekya_nn::continual::ExemplarMemory;
use ekya_nn::cost::CostModel;
use ekya_nn::data::DataView;
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{StreamId, StreamSet};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the actor-based edge server.
#[derive(Clone)]
pub struct EdgeServerConfig {
    /// Total GPUs assumed by the scheduler.
    pub total_gpus: f64,
    /// Thief-scheduler parameters.
    pub scheduler: SchedulerParams,
    /// Micro-profiler parameters.
    pub profiler: MicroProfilerParams,
    /// GPU cost model (drives the scheduler's duration estimates).
    pub cost: CostModel,
    /// Candidate retraining configurations.
    pub retrain_grid: Vec<RetrainConfig>,
    /// Candidate inference configurations.
    pub inference_grid: Vec<InferenceConfig>,
    /// SGD hyperparameters.
    pub hyper: TrainHyper,
    /// Golden-model label error rate.
    pub teacher_error_rate: f64,
    /// Checkpoint cadence for trainer hot-swaps.
    pub checkpoint_every: Option<u32>,
    /// Simulated weight-reload time per swap.
    pub swap_reload: Duration,
    /// iCaRL exemplar capacity per class.
    pub exemplar_per_class: usize,
    /// Base seed.
    pub seed: u64,
}

impl EdgeServerConfig {
    /// Paper-default configuration for a given GPU count.
    pub fn new(total_gpus: f64) -> Self {
        Self {
            total_gpus,
            scheduler: SchedulerParams::new(total_gpus),
            profiler: MicroProfilerParams::default(),
            cost: CostModel::default(),
            retrain_grid: default_retrain_grid(),
            inference_grid: default_inference_grid(),
            hyper: TrainHyper::default(),
            teacher_error_rate: 0.02,
            checkpoint_every: Some(5),
            swap_reload: Duration::from_millis(5),
            exemplar_per_class: 20,
            seed: 0,
        }
    }
}

/// Measured outcome of one stream in one wall-clock window.
#[derive(Debug, Clone)]
pub struct StreamWindowOutcome {
    /// Stream identity.
    pub id: StreamId,
    /// Ground-truth accuracy of the serving model at window start.
    pub start_accuracy: f64,
    /// Ground-truth accuracy of the serving model at window end.
    pub end_accuracy: f64,
    /// Whether the scheduler chose to retrain this stream.
    pub retrained: bool,
    /// The chosen retraining configuration.
    pub config: Option<RetrainConfig>,
    /// The chosen inference configuration.
    pub infer_config: InferenceConfig,
    /// Frames classified while retraining ran (the liveness signal).
    pub frames_served_during_training: u64,
    /// Checkpoints hot-swapped into serving by the trainer.
    pub checkpoints_swapped: u32,
}

struct StreamRuntime {
    id: StreamId,
    infer: ActorHandle<InferenceActor>,
    trainer: ActorHandle<TrainerActor>,
    teacher: OracleTeacher,
    memory: ExemplarMemory,
    profiler: MicroProfiler,
}

/// Mailbox capacity of each inference actor — the default
/// `ServeConfig::shard_mailbox`. [`EdgeServer::run_window`] sends frames
/// to the inference actors for as long as its trainers run; the bound
/// makes it wait for the actors to drain instead of queueing without
/// limit.
const INFERENCE_MAILBOX: usize = 128;

/// The actor-based edge server.
pub struct EdgeServer {
    streams: StreamSet,
    cfg: EdgeServerConfig,
    runtimes: Vec<StreamRuntime>,
    window_idx: usize,
}

impl EdgeServer {
    /// Boots the server: one inference actor and one trainer actor per
    /// stream, with freshly initialised models.
    pub fn new(streams: StreamSet, cfg: EdgeServerConfig) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        let runtimes = streams
            .iter()
            .enumerate()
            .map(|(s, (id, ds))| {
                let seed = cfg.seed.wrapping_add(7919 * s as u64);
                let model = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), seed);
                StreamRuntime {
                    id,
                    infer: spawn_bounded(
                        format!("inference-{id}"),
                        InferenceActor::new(model, ds.num_classes),
                        INFERENCE_MAILBOX,
                    ),
                    trainer: spawn(format!("trainer-{id}"), TrainerActor),
                    teacher: OracleTeacher::new(
                        cfg.teacher_error_rate,
                        ds.num_classes,
                        seed ^ 0xC0,
                    ),
                    memory: ExemplarMemory::new(ds.num_classes, cfg.exemplar_per_class),
                    profiler: MicroProfiler::new(cfg.profiler, cfg.cost.clone(), seed ^ 0xB00),
                }
            })
            .collect();
        Self { streams, cfg, runtimes, window_idx: 0 }
    }

    /// Index of the next window to run.
    pub fn window_idx(&self) -> usize {
        self.window_idx
    }

    /// Runs one retraining window end to end and advances the window
    /// cursor.
    ///
    /// # Panics
    /// Panics when the datasets have no more windows.
    pub fn run_window(&mut self) -> Vec<StreamWindowOutcome> {
        let w_idx = self.window_idx;
        assert!(
            w_idx < self.streams.num_windows(),
            "no window {w_idx}: datasets hold {}",
            self.streams.num_windows()
        );
        let n = self.runtimes.len();
        let datasets: Vec<_> = self.streams.iter().map(|(_, ds)| ds).collect();

        // ---- Label, measure, profile. ----
        let mut pools = Vec::with_capacity(n);
        let mut sys_vals = Vec::with_capacity(n);
        let mut models = Vec::with_capacity(n);
        let mut serving_sys = Vec::with_capacity(n);
        let mut start_true = Vec::with_capacity(n);
        let mut profiles: Vec<Vec<RetrainProfile>> = Vec::with_capacity(n);
        for (s, rt) in self.runtimes.iter_mut().enumerate() {
            let ds = datasets[s];
            let w = ds.window(w_idx);
            let fresh = distill_labels(&mut rt.teacher, &w.train_pool);
            let pool = Arc::new(rt.memory.training_mix(&fresh));
            let sys_val = Arc::new(distill_labels(&mut rt.teacher, &w.val));

            let InferenceReply::Model(model) =
                rt.infer.ask(InferenceMsg::GetModel).expect("inference actor alive")
            else {
                unreachable!("GetModel answers Model")
            };
            let InferenceReply::Accuracy(sys_acc) = rt
                .infer
                .ask(InferenceMsg::Evaluate(Arc::clone(&sys_val)))
                .expect("inference actor alive")
            else {
                unreachable!("Evaluate answers Accuracy")
            };
            start_true.push(model.accuracy(DataView::new(&w.val, ds.num_classes)));
            let out = rt.profiler.profile(
                &model,
                &pool,
                &sys_val,
                &self.cfg.retrain_grid,
                ds.num_classes,
                self.cfg.seed.wrapping_add((w_idx as u64) << 16).wrapping_add(s as u64),
            );
            profiles.push(out.profiles);
            pools.push(pool);
            sys_vals.push(sys_val);
            serving_sys.push(sys_acc);
            models.push(model);
            rt.memory.update(&fresh);
        }

        // ---- Plan. ----
        let infer_profiles: Vec<_> = (0..n)
            .map(|s| {
                build_inference_profiles(
                    &self.cfg.cost,
                    self.cfg.cost.size_factor(&models[s]),
                    datasets[s].spec.fps,
                    &self.cfg.inference_grid,
                )
            })
            .collect();
        let window_secs = datasets[0].spec.window_secs;
        let ctx = PolicyCtx {
            window_idx: w_idx,
            window_secs,
            total_gpus: self.cfg.total_gpus,
            streams: (0..n)
                .map(|s| PolicyStream {
                    id: self.runtimes[s].id,
                    fps: datasets[s].spec.fps,
                    serving_accuracy: serving_sys[s],
                    class_dist: &datasets[s].window(w_idx).class_dist,
                    drift_magnitude: datasets[s].window(w_idx).drift_from_prev,
                    retrain_profiles: &profiles[s],
                    infer_profiles: &infer_profiles[s],
                })
                .collect(),
        };
        let mut policy = EkyaPolicy::new(self.cfg.scheduler);
        let plan = policy.plan_window(&ctx);

        // ---- Execute: dispatch trainers, keep serving live traffic. ----
        for (s, rt) in self.runtimes.iter().enumerate() {
            let _ = rt.infer.ask(InferenceMsg::SetConfig(plan.streams[s].infer_config));
        }
        let mut served_before = Vec::with_capacity(n);
        for rt in &self.runtimes {
            let InferenceReply::Stats(st) = rt.infer.ask(InferenceMsg::Stats).unwrap() else {
                unreachable!()
            };
            served_before.push(st);
        }

        // One blocking `ask` per retraining stream, each on its own thread;
        // the inference actors keep serving concurrently.
        let mut waiters: Vec<(usize, std::thread::JoinHandle<Option<TrainOutcome>>)> = Vec::new();
        for s in 0..n {
            let Some(planned) = plan.streams[s].retrain else { continue };
            let spec = TrainJobSpec {
                base_model: Arc::clone(&models[s]),
                pool: Arc::clone(&pools[s]),
                config: planned.config,
                num_classes: datasets[s].num_classes,
                hyper: self.cfg.hyper,
                seed: self.cfg.seed.wrapping_add((w_idx as u64) << 20).wrapping_add(s as u64),
                checkpoint_every: self.cfg.checkpoint_every,
                swap_target: Some(SwapTarget::Actor(self.runtimes[s].infer.address())),
                swap_reload: self.cfg.swap_reload,
                val: Arc::clone(&sys_vals[s]),
                fail_after_epochs: None,
            };
            let trainer = self.runtimes[s].trainer.address();
            waiters.push((
                s,
                std::thread::spawn(move || match trainer.ask(TrainerMsg::Run(Box::new(spec))) {
                    Ok(TrainerReply::Done(out)) => Some(*out),
                    Err(_) => None,
                }),
            ));
        }

        // Pump live traffic at every inference actor until all trainers
        // are done (batches of frames from the current window).
        let mut cursor = 0usize;
        while waiters.iter().any(|(_, j)| !j.is_finished()) {
            for (s, rt) in self.runtimes.iter().enumerate() {
                let ds = datasets[s];
                let w = ds.window(w_idx);
                let chunk: Vec<_> = w
                    .val
                    .iter()
                    .cycle()
                    .skip(cursor % w.val.len().max(1))
                    .take(16)
                    .cloned()
                    .collect();
                let _ = rt.infer.tell(InferenceMsg::ClassifyBatch(chunk));
            }
            cursor += 16;
        }
        let mut outcomes_by_stream: Vec<Option<TrainOutcome>> = (0..n).map(|_| None).collect();
        for (s, j) in waiters {
            outcomes_by_stream[s] = j.join().expect("trainer waiter thread");
        }

        // ---- Measure and report. ----
        let mut results = Vec::with_capacity(n);
        for (s, rt) in self.runtimes.iter().enumerate() {
            let ds = datasets[s];
            let w = ds.window(w_idx);
            let InferenceReply::Model(model) = rt.infer.ask(InferenceMsg::GetModel).unwrap() else {
                unreachable!()
            };
            let end_accuracy = model.accuracy(DataView::new(&w.val, ds.num_classes));
            let InferenceReply::Stats(st) = rt.infer.ask(InferenceMsg::Stats).unwrap() else {
                unreachable!()
            };
            let served = st.served - served_before[s].served;
            let out = &outcomes_by_stream[s];
            results.push(StreamWindowOutcome {
                id: rt.id,
                start_accuracy: start_true[s],
                end_accuracy,
                retrained: plan.streams[s].retrain.is_some(),
                config: plan.streams[s].retrain.map(|r| r.config),
                infer_config: plan.streams[s].infer_config,
                frames_served_during_training: served,
                checkpoints_swapped: out.as_ref().map(|o| o.checkpoints_swapped).unwrap_or(0),
            });
            let _ = InferenceStats::default(); // (type referenced for docs)
        }
        self.window_idx += 1;
        results
    }

    /// Graceful shutdown: stops every actor and joins their threads.
    pub fn shutdown(self) {
        for rt in self.runtimes {
            rt.infer.stop();
            rt.trainer.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekya_video::DatasetKind;

    #[test]
    fn server_runs_windows_and_improves() {
        let streams = StreamSet::generate(DatasetKind::UrbanTraffic, 2, 3, 61);
        let mut server =
            EdgeServer::new(streams, EdgeServerConfig { seed: 5, ..EdgeServerConfig::new(2.0) });
        let w0 = server.run_window();
        assert_eq!(w0.len(), 2);
        // Bootstrap window: models start random, so retraining should run
        // and end accuracy should beat start accuracy.
        for o in &w0 {
            assert!(o.retrained, "bootstrap window should retrain");
            assert!(
                o.end_accuracy > o.start_accuracy,
                "retraining should improve: {:.3} -> {:.3}",
                o.start_accuracy,
                o.end_accuracy
            );
        }
        let w1 = server.run_window();
        assert_eq!(server.window_idx(), 2);
        assert!(w1.iter().all(|o| o.end_accuracy > 0.3));
        server.shutdown();
    }

    #[test]
    fn inference_stays_live_during_retraining() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 2, 67);
        let mut server =
            EdgeServer::new(streams, EdgeServerConfig { seed: 7, ..EdgeServerConfig::new(2.0) });
        let outcomes = server.run_window();
        let served: u64 = outcomes.iter().map(|o| o.frames_served_during_training).sum();
        assert!(
            served > 0,
            "inference actors must keep serving while trainers run (served {served})"
        );
        server.shutdown();
    }

    #[test]
    fn checkpoints_swap_into_serving() {
        let streams = StreamSet::generate(DatasetKind::Waymo, 1, 2, 71);
        let mut server = EdgeServer::new(
            streams,
            EdgeServerConfig { seed: 9, checkpoint_every: Some(3), ..EdgeServerConfig::new(1.0) },
        );
        let outcomes = server.run_window();
        // The bootstrap retraining improves monotonically, so at least one
        // checkpoint (or the final model) must have swapped in.
        assert!(outcomes[0].checkpoints_swapped >= 1);
        server.shutdown();
    }
}
