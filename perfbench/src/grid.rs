//! The offline workload: whole passes of an experiment grid through
//! `GridExec::run_with(…, run_scenario)`.

use crate::stats::secs;
use ekya_baselines::PolicyBuildCtx;
use ekya_bench::{run_scenario, Grid, GridExec};
use ekya_video::StreamSet;
use std::sync::Mutex;
use std::time::Instant;

/// One pass over every cell of the grid.
pub struct GridPass {
    /// Wall time of the `run_with` call, in s.
    pub wall_s: f64,
    /// Time inside each `run_scenario` call, in ms.
    pub cell_ms: Vec<f64>,
    /// Poisoned cells.
    pub failed: usize,
    /// The serialised report (deterministic: no wall time in it).
    pub report: String,
    /// Mean `mean_accuracy` of the Ekya cells.
    pub ekya_accuracy: f64,
    /// Σ streams × windows over the cells.
    pub stream_windows: usize,
}

/// The grid's set-up: the stream synthesis and hold-out derivation that
/// `run_scenario` memoises for the life of the process, done ahead of
/// the first pass through the same calls it makes (`StreamSet::cached`,
/// `PolicySpec::build`). Without it the first pass in a process pays for
/// them and runs slower than every later one. Returns its wall time, s.
pub fn prefill(grid: &Grid) -> f64 {
    let t = Instant::now();
    for sc in grid.cells() {
        StreamSet::cached(sc.dataset, sc.streams, sc.windows, sc.seed);
        sc.policy.build(&PolicyBuildCtx::new(sc.dataset, sc.gpus, grid.holdout_seed(sc.dataset)));
    }
    secs(t.elapsed())
}

/// Runs every cell of `grid` once on `exec`'s workers.
pub fn run_pass(exec: &GridExec, grid: &Grid) -> GridPass {
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    let run = exec.run_with(grid, |sc| {
        let t = Instant::now();
        let cell = run_scenario(sc, grid.holdout_seed(sc.dataset));
        samples.lock().expect("sample lock").push(secs(t.elapsed()) * 1e3);
        cell
    });
    let wall_s = secs(started.elapsed());
    let cell_ms = samples.into_inner().expect("sample lock");
    let ekya: Vec<f64> =
        run.report.cells.iter().filter(|c| c.policy == "Ekya").map(|c| c.mean_accuracy).collect();
    GridPass {
        wall_s,
        cell_ms,
        failed: run.report.failed,
        report: serde_json::to_string(&run.report).expect("report serialises"),
        ekya_accuracy: ekya.iter().sum::<f64>() / ekya.len().max(1) as f64,
        stream_windows: run
            .report
            .cells
            .iter()
            .map(|c| c.scenario.streams * c.scenario.windows)
            .sum(),
    }
}
