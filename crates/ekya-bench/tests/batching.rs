//! Integration tests for per-cell grid dispatch — the guarantees the
//! harness documents:
//!
//! 1. parallel execution is **byte-identical** to serial at any worker
//!    count, and to a 2-shard merged run;
//! 2. a poisoned cell fails alone;
//! 3. resume from a prior covering any subset of the cells changes
//!    nothing, including after a real killed-process run (crash
//!    injection, then `EKYA_RESUME=1`);
//! 4. checkpoints are written about twice per worker per run, not once
//!    per cell.

use ekya_baselines::PolicySpec;
use ekya_bench::{fig06_grid, merge_reports, Grid, GridExec, HarnessReport, ShardSpec};
use ekya_video::DatasetKind;

/// A small but real grid: every cell runs actual retraining windows.
fn tiny_grid() -> Grid {
    Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[1, 2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya, PolicySpec::FixedRes { inference_share: 0.5 }])
}

fn bytes(report: &HarnessReport) -> String {
    serde_json::to_string_pretty(report).expect("serialise report")
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    let grid = tiny_grid();
    let reference = GridExec::new("tiny", 1).run(&grid);
    assert_eq!(reference.report.failed, 0);
    let expect = bytes(&reference.report);

    for workers in [2, 3, 8] {
        let run = GridExec::new("tiny", workers).run(&grid);
        assert_eq!(bytes(&run.report), expect, "workers={workers} diverged from serial dispatch");
    }
}

#[test]
fn sharded_union_matches_unsharded() {
    let grid = tiny_grid();
    let reference = GridExec::new("tiny", 1).run(&grid);

    let shard = |index| GridExec::new("tiny", 2).shard(Some(ShardSpec { index, count: 2 }));
    let merged =
        merge_reports(&[shard(1).run(&grid).report, shard(0).run(&grid).report]).expect("merge");
    assert_eq!(
        bytes(&merged),
        bytes(&reference.report),
        "2-shard union must be byte-identical to the unsharded run"
    );
}

#[test]
fn poisoned_cell_fails_alone() {
    // streams = 0 makes the runner panic; the panic must be contained to
    // its own cell at any worker count.
    let grid = Grid::new(2, 42)
        .datasets(&[DatasetKind::Waymo])
        .stream_counts(&[0, 1, 2])
        .gpu_counts(&[1.0])
        .policies(vec![PolicySpec::Ekya]);
    for workers in [1, 2] {
        let report = GridExec::new("tiny", workers).run(&grid).report;

        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.failed, 1);
        let poisoned = report.cells.iter().find(|c| c.scenario.streams == 0).unwrap();
        assert!(
            poisoned.error.as_deref().unwrap_or_default().contains("need at least one stream"),
            "poisoned cell should carry the panic message, got {:?}",
            poisoned.error
        );
        for healthy in report.cells.iter().filter(|c| c.scenario.streams > 0) {
            assert!(healthy.error.is_none(), "a neighbour of the poisoned cell failed too");
            assert!(healthy.mean_accuracy > 0.0);
        }
    }
}

#[test]
fn resume_from_any_subset_prior_is_byte_identical() {
    let grid = tiny_grid();
    let full = GridExec::new("tiny", 2).run(&grid);
    let n = full.report.cells.len();

    // Every subset of the 4 cells as the prior — the empty one, the
    // full one, and every gappy shape a kill can leave behind.
    for mask in 0..(1u32 << n) {
        let kept = |i: usize| mask & (1 << i) != 0;
        let prior = HarnessReport {
            cells: (0..n).filter(|&i| kept(i)).map(|i| full.report.cells[i].clone()).collect(),
            ..full.report.clone()
        };
        let resumed = GridExec::new("tiny", 2).prior(prior.prior_cells()).run(&grid);
        let hits = mask.count_ones() as usize;
        assert_eq!((resumed.stats.resumed, resumed.stats.executed), (hits, n - hits));
        assert_eq!(
            bytes(&resumed.report),
            bytes(&full.report),
            "resume from prior mask {mask:#06b} must not change a byte"
        );
    }
}

/// Per-cell dispatch must not multiply checkpoint writes: each write
/// re-serialises every completed cell. The cost-weighted chunking it
/// replaced wrote one checkpoint per chunk — 4 for the fig06-quick grid
/// on 2 workers (chunks of 7, 4, 7 and 2 cells).
#[test]
fn checkpoint_writes_stay_at_two_per_worker() {
    let grid = fig06_grid(true, 1, 42);
    let dir = std::env::temp_dir().join(format!("ekya_ckpt_count_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig06.partial.json");

    let run = GridExec::new("fig06", 2).checkpoint(Some(path.clone())).run(&grid);
    assert_eq!(run.report.cells.len(), 20);
    assert!(
        (1..=4).contains(&run.stats.checkpoints),
        "{} checkpoint writes for 20 cells on 2 workers (chunked dispatch wrote 4)",
        run.stats.checkpoints
    );
    // The last write holds every cell.
    let last: HarnessReport =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(bytes(&last), bytes(&run.report));

    // Without a checkpoint path nothing is written.
    assert_eq!(GridExec::new("fig06", 2).run(&tiny_grid()).stats.checkpoints, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real kill: run the fig06 bin as a subprocess with crash injection
/// two cells in, then resume it. The checkpoint flushed before the
/// injected exit must hold exactly the two completed cells, and the
/// resumed run's report must be byte-identical to an undisturbed run's.
#[test]
fn killed_run_resumes_to_byte_identical_report() {
    let bin = env!("CARGO_BIN_EXE_fig06_streams");
    let base: &[(&str, &str)] =
        &[("EKYA_QUICK", "1"), ("EKYA_WINDOWS", "1"), ("EKYA_SEED", "42"), ("EKYA_WORKERS", "2")];
    let run = |dir: &std::path::Path, extra: &[(&str, &str)]| {
        let mut cmd = std::process::Command::new(bin);
        for var in ["EKYA_SHARD", "EKYA_RESUME", "EKYA_ORCH_CRASH_AFTER"] {
            cmd.env_remove(var);
        }
        cmd.envs(base.iter().copied())
            .env("EKYA_RESULTS_DIR", dir)
            .envs(extra.iter().copied())
            .status()
            .expect("fig06_streams spawns")
    };
    let temp = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("ekya_kill_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };

    // Undisturbed reference run.
    let ref_dir = temp("ref");
    assert!(run(&ref_dir, &[]).success(), "reference run failed");
    let reference = std::fs::read(ref_dir.join("fig06_streams.json")).expect("reference report");

    // Killed run: injected exit after 2 completed cells.
    let run_dir = temp("kill");
    let status = run(&run_dir, &[("EKYA_ORCH_CRASH_AFTER", "2")]);
    assert_eq!(status.code(), Some(17), "crash injection must exit 17");
    let partial: HarnessReport = serde_json::from_str(
        &std::fs::read_to_string(run_dir.join("fig06_streams.partial.json"))
            .expect("a kill must leave a checkpoint"),
    )
    .expect("checkpoint parses");
    assert_eq!(partial.cells.len(), 2, "checkpoint must hold exactly the completed cells");

    // Resume and converge.
    assert!(run(&run_dir, &[("EKYA_RESUME", "1")]).success(), "resumed run failed");
    let resumed = std::fs::read(run_dir.join("fig06_streams.json")).expect("resumed report");
    assert_eq!(resumed, reference, "killed+resumed report must be byte-identical");
    assert!(
        !run_dir.join("fig06_streams.partial.json").exists(),
        "checkpoint must be removed once the final report lands"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
}
