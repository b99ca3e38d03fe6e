//! Live edge server: the full actor deployment (`ekya-server`).
//!
//! Boots an `EdgeDaemon` with one inference shard and one trainer per
//! camera, then runs three retraining windows end to end in wall-clock
//! time: the micro-profiler and thief scheduler plan each window,
//! trainers run real SGD on their own threads, checkpoints hot-swap into
//! serving, and — crucially — the inference shards never stop
//! classifying frames while all of that happens.
//!
//! Window 0 also injects one trainer fault: that camera's retrain panics,
//! supervision rebuilds the trainer, its serving carries on with the old
//! model, and window 1 retrains it cleanly.
//!
//! Run with: `cargo run --release --example live_edge_server`

use ekya::nn::data::Sample;
use ekya::prelude::*;
use ekya::server::DaemonClient;
use ekya::video::StreamId;

/// Fraction of `frames` the daemon currently classifies correctly,
/// measured through the live serving path.
fn served_accuracy(client: &DaemonClient, id: StreamId, frames: &[Sample]) -> f64 {
    let (preds, _) = client.classify(id, frames.to_vec()).expect("admitted stream serves");
    let correct = preds.iter().zip(frames).filter(|(p, s)| **p == s.y).count();
    correct as f64 / frames.len().max(1) as f64
}

fn main() {
    let cameras = 3;
    let windows = 3;
    let streams = StreamSet::generate(DatasetKind::UrbanBuilding, cameras, windows, 99);
    let mut daemon = EdgeDaemon::new(ServeConfig {
        infer_shards: cameras,
        trainer_shards: cameras,
        seed: 5,
        ..ServeConfig::new(2.0)
    });
    let ids: Vec<_> =
        streams.iter().map(|(_, ds)| daemon.admit(ds.clone()).expect("within capacity")).collect();
    let client = daemon.client();

    println!("edge server up: {cameras} cameras, 2 GPUs, one inference shard + trainer each\n");
    for w in 0..windows {
        let start: Vec<f64> = streams
            .iter()
            .zip(&ids)
            .map(|((_, ds), &id)| served_accuracy(&client, id, &ds.window(w).val))
            .collect();
        if w == 0 {
            daemon.inject_trainer_fault(ids[0]);
        }
        let reports = daemon.run_window();
        println!("window {w}:");
        for (r, start) in reports.iter().zip(&start) {
            let retrain = if r.retrain_failed {
                "retrain failed, trainer restarted"
            } else if r.retrained {
                "retrained"
            } else {
                "no retraining"
            };
            println!(
                "  {}: {start:.3} -> {:.3}  {retrain}  served {} frames during retraining ({} swaps)",
                r.id, r.accuracy, r.live_served_during_training, r.checkpoints_swapped,
            );
        }
    }
    println!("\ntrainer restarts absorbed by supervision: {}", daemon.trainer_restarts());
    daemon.shutdown();
    println!("server shut down cleanly");
}
