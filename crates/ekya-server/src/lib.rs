#![warn(missing_docs)]

//! # ekya-server — the wall-clock actor deployment
//!
//! The paper's evaluation has two halves: a real system implementation on
//! Ray actors (§5) and a trace-driven simulator (§6.1). `ekya-sim` covers
//! the simulator; this crate covers the deployment: [`EdgeDaemon`], one
//! serving shape for one camera or hundreds. A fixed pool of
//! bounded-mailbox **inference shards** keeps classifying live frames
//! for every admitted stream while a supervised pool of **trainer
//! actors** runs real SGD on other threads, hot-swapping improved
//! checkpoints into serving, with the micro-profiler and thief scheduler
//! planning every window. With `infer_shards = trainer_shards =
//! streams` every stream gets its own inference shard and, within a
//! window, its own trainer.
//!
//! Implemented: inference shards and trainer actors, checkpoint hot-swaps
//! with reload-time queueing, end-to-end windowed operation, liveness
//! metrics (frames served during retraining), typed admission control,
//! per-stream serving ledgers and a deterministic status snapshot
//! ([`StatusSnapshot`]). Omitted: real GPU binding and fractional-share
//! enforcement — wall-clock threads share CPU, so timing fidelity
//! (retraining durations under fractional allocations) is the job of
//! `ekya-sim`'s virtual-time runner. Use this crate to validate the
//! architecture; use `ekya-sim` to evaluate scheduling policy.

pub mod metrics;
pub mod serve;
pub mod trainer;

#[cfg(test)]
mod inference;
#[cfg(test)]
mod server;

pub use metrics::{StatusSnapshot, StatusView, StreamStatus};
pub use serve::{
    AdmissionError, ArrivalPattern, ClassifyJob, DaemonClient, EdgeDaemon, InferenceShard,
    ServeConfig, ServeError, ServeWindowReport, ShardLive, ShardMsg, ShardReply,
};
pub use trainer::{SwapTarget, TrainJobSpec, TrainOutcome, TrainerActor, TrainerMsg, TrainerReply};
