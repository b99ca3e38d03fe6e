//! Actor-based edge server (the paper's §5 implementation shape).
//!
//! Ekya's real implementation runs every module as a long-running Ray
//! actor: inference jobs keep serving while a retraining actor works, and
//! requests queue while a model's new weights load. This example wires
//! the `ekya-actors` runtime to real models: per-stream inference actors
//! answer classification requests, a trainer actor retrains on the next
//! window's data, and the updated weights are hot-swapped in — with the
//! mid-swap requests transparently queued. A supervised actor also
//! demonstrates restart-on-panic recovery.
//!
//! Run with: `cargo run --release --example edge_server_actors`

use ekya::actors::{spawn, spawn_supervised, Actor};
use ekya::core::{RetrainConfig, RetrainExecution, TrainHyper};
use ekya::nn::data::{DataView, Sample};
use ekya::nn::golden::{distill_labels, OracleTeacher};
use ekya::nn::mlp::{Mlp, MlpArch};
use ekya::video::{DatasetKind, DatasetSpec, VideoDataset};

/// Messages understood by a per-stream inference actor.
enum InferMsg {
    /// Classify one frame's feature vector.
    Classify(Vec<f32>),
    /// Replace the serving model (checkpoint / retrained weights).
    SwapModel(Box<Mlp>),
    /// Measure accuracy on a labelled batch.
    Evaluate(Vec<Sample>),
}

enum InferReply {
    Class(usize),
    Swapped,
    Accuracy(f64),
}

struct InferenceActor {
    model: Mlp,
    served: u64,
}

impl Actor for InferenceActor {
    type Msg = InferMsg;
    type Reply = InferReply;

    fn handle(&mut self, msg: InferMsg) -> InferReply {
        match msg {
            InferMsg::Classify(x) => {
                self.served += 1;
                let s = Sample::new(x, 0);
                InferReply::Class(self.model.predict(std::slice::from_ref(&s))[0])
            }
            InferMsg::SwapModel(m) => {
                // Weight loading takes a moment; requests queue meanwhile.
                std::thread::sleep(std::time::Duration::from_millis(20));
                self.model = *m;
                InferReply::Swapped
            }
            InferMsg::Evaluate(batch) => {
                InferReply::Accuracy(self.model.accuracy(DataView::new(&batch, 6)))
            }
        }
    }
}

fn main() {
    let ds = VideoDataset::generate(DatasetSpec::new(DatasetKind::UrbanBuilding, 3, 55));
    let mut teacher = OracleTeacher::new(0.02, ds.num_classes, 9);
    let model = {
        // Bootstrap on window 0.
        let pool = distill_labels(&mut teacher, &ds.window(0).train_pool);
        let base = Mlp::new(MlpArch::edge(ds.feature_dim, ds.num_classes, 16), 1);
        let mut exec = RetrainExecution::new(
            &base,
            &pool,
            RetrainConfig {
                epochs: 30,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            TrainHyper::default(),
            2,
        );
        exec.run_to_completion();
        exec.model().clone()
    };

    // Serve window 1 with the window-0 model while retraining for it.
    let infer = spawn("inference-0", InferenceActor { model: model.clone(), served: 0 });
    let w1 = ds.window(1);
    let InferReply::Accuracy(before) = infer.ask(InferMsg::Evaluate(w1.val.clone())).unwrap()
    else {
        unreachable!()
    };
    println!("serving accuracy before retraining: {before:.3}");

    // Retrain on window 1's labelled data in a trainer "actor" thread.
    let pool = distill_labels(&mut teacher, &w1.train_pool);
    let trainer_model = model.clone();
    let trainer = std::thread::spawn(move || {
        let mut exec = RetrainExecution::new(
            &trainer_model,
            &pool,
            RetrainConfig {
                epochs: 15,
                batch_size: 32,
                last_layer_neurons: 16,
                layers_trained: 3,
                data_fraction: 1.0,
            },
            TrainHyper::default(),
            3,
        );
        exec.run_to_completion();
        exec.model().clone()
    });

    // Meanwhile inference keeps serving live frames.
    let mut classified = 0;
    for s in w1.val.iter().take(200) {
        let InferReply::Class(_) = infer.ask(InferMsg::Classify(s.x.clone())).unwrap() else {
            unreachable!()
        };
        classified += 1;
    }
    println!("classified {classified} frames while retraining ran");

    // Hot-swap the retrained weights; queued requests drain afterwards.
    let retrained = trainer.join().expect("trainer finished");
    infer.ask(InferMsg::SwapModel(Box::new(retrained))).unwrap();
    let InferReply::Accuracy(after) = infer.ask(InferMsg::Evaluate(w1.val.clone())).unwrap() else {
        unreachable!()
    };
    println!("serving accuracy after hot-swap:    {after:.3}");
    infer.stop();

    // Failure recovery: a supervised actor rebuilt from its factory.
    let flaky = spawn_supervised("flaky-profiler", || InferenceActor {
        model: Mlp::new(MlpArch::edge(16, 6, 8), 4),
        served: 0,
    });
    // Poison one request by sending an empty feature vector (panics in
    // the matrix shape check); the supervisor restarts the actor. The
    // panic hook is muted so the expected panic does not clutter output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let poisoned = flaky.ask(InferMsg::Classify(vec![]));
    std::panic::set_hook(default_hook);
    println!(
        "poisoned request -> {:?}; actor restarted {} time(s)",
        poisoned.err(),
        flaky.stats().restarts
    );
    let InferReply::Class(c) = flaky.ask(InferMsg::Classify(vec![0.1; 16])).unwrap() else {
        unreachable!()
    };
    println!("post-restart classification still works (class {c})");
    flaky.stop();
}
