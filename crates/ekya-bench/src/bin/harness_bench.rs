//! Harness throughput benchmark + determinism guard.
//!
//! Measures the five gated quick workloads — the quick-mode Figure 6
//! scenario grid, the quick-mode fig03 configuration sweep, the
//! quick-mode fig07 trace-replay grid, the quick serving-path fleet
//! (`serve_quick`: a 200-stream EdgeDaemon run), and the serving hot
//! path in isolation (`serve_throughput`: steady-state frames/sec
//! through the daemon's live pump at 1000 streams, gated by
//! `EKYA_MIN_FPS`) — each twice: serial (1 worker / 1 shard) and
//! parallel (≥4 workers), asserting the two passes
//! produce **byte-identical** results. The run's records are appended as one
//! entry (stamped with `git describe`) to the perf trajectory
//! `results/BENCH_series.json`; the CI perf gate (`ci/check_bench.sh` /
//! `perf_gate`) gates the latest entry against `ci/bench_baseline.json`,
//! and `bench_series` prints the trajectory.
//!
//! Run: `cargo run --release -p ekya-bench --bin harness_bench`
//! Knobs: EKYA_WINDOWS (default 2), EKYA_SEED, EKYA_WORKERS (floored at
//! 4 so the parallel path is exercised even on small machines),
//! EKYA_BENCH_FULL=1 to additionally measure and gate the full-size
//! fig06 grid (`fig06_full_grid`, nightly lane), and EKYA_MIN_SPEEDUP —
//! when set, assert `serial/parallel >= floor` on **every** record,
//! where the floor is the knob value derated for machines with fewer
//! hardware threads than workers (see
//! `ekya_bench::knob::effective_min_speedup`; a single core cannot beat
//! serial by 2x, so it is held to ~0.8x instead).

use ekya_baselines::{PolicyBuildCtx, PolicySpec};
use ekya_bench::{
    append_bench_series, bench_baseline_path, config_grid, fig06_grid, fig07_grid,
    read_bench_baseline, run_fleet, run_grid, BenchRecord, ConfigSweep, FleetConfig, Grid,
    GridExec, Knobs, ReplayTraces,
};
use ekya_video::StreamSet;
use std::time::Instant;

/// Warm the process-wide hold-out config cache for `grid` before timing
/// — otherwise the first pass pays the one-off derivation and the
/// speedup/throughput numbers measure the cache, not the harness.
fn warm_holdout_cache(grid: &Grid) {
    for &dataset in &grid.datasets {
        for spec in &grid.policies {
            if matches!(spec, PolicySpec::Uniform { .. } | PolicySpec::FixedConfig { .. }) {
                let ctx = PolicyBuildCtx::new(dataset, 1.0, grid.holdout_seed(dataset));
                let _ = spec.build(&ctx);
            }
        }
    }
}

/// Warm the process-wide stream cache for every distinct workload of
/// `grid`, for the same reason as [`warm_holdout_cache`] — and for
/// fairness: the serial pass runs first, and must not be the one to
/// derive the streams the parallel pass then gets from the cache.
fn warm_stream_cache(grid: &Grid) {
    for sc in grid.cells() {
        let _ = StreamSet::cached(sc.dataset, sc.streams, sc.windows, sc.seed);
    }
}

/// Measures `grid` twice — serial, then parallel on `workers` threads —
/// asserts the passes are byte-identical and failure-free, prints the
/// one-line summary, and returns the named [`BenchRecord`].
fn measure_grid(name: &str, label: &str, grid: &Grid, workers: usize) -> BenchRecord {
    let n = grid.cells().len();
    eprintln!("[harness_bench: {label} — {n} cells, serial pass]");
    let serial = run_grid(grid, 1);
    eprintln!("[harness_bench: {label} — parallel pass on {workers} workers]");
    let parallel = run_grid(grid, workers);

    // Determinism: parallel fan-out must not change a single byte of the
    // results. The serialized report is fully deterministic (timing
    // lives in the unserialized RunStats), so compare it whole.
    let serial_json = serde_json::to_string_pretty(&serial.report).expect("serialise");
    let parallel_json = serde_json::to_string_pretty(&parallel.report).expect("serialise");
    assert_eq!(
        serial.report, parallel.report,
        "{label}: parallel run diverged from serial run (structural)"
    );
    assert_eq!(
        serial_json, parallel_json,
        "{label}: parallel run diverged from serial run (serialized)"
    );
    assert_eq!(serial.report.failed, 0, "{label}: serial run had poisoned cells");

    let speedup = serial.stats.wall_secs / parallel.stats.wall_secs.max(1e-9);
    let record = BenchRecord {
        name: name.into(),
        cells: n,
        workers,
        serial_wall_secs: serial.stats.wall_secs,
        parallel_wall_secs: parallel.stats.wall_secs,
        speedup,
        cells_per_sec: parallel.stats.cells_per_sec,
    };
    println!(
        "harness_bench: {label} {n} cells · serial {:.2} s · parallel {:.2} s on {workers} \
         workers · speedup {speedup:.2}x · {:.2} cells/s · serial ≡ parallel ✓",
        record.serial_wall_secs, record.parallel_wall_secs, record.cells_per_sec
    );
    record
}

/// Boots a daemon for `cfg`, warms the pump (slot scratch sizing + the
/// carrier free list), then times `rounds` rounds of pure live pumping.
/// Returns `(wall secs, frames classified, snapshot bytes before,
/// snapshot bytes after)` — the two snapshot strings must be equal (the
/// pump is wall plane only) and identical across daemon shapes.
fn measure_pump(cfg: &FleetConfig, rounds: usize) -> (f64, u64, String, String) {
    let mut daemon = ekya_bench::build_daemon(cfg);
    let warm = daemon.pump_rounds(2);
    assert!(warm > 0, "warmup pump must classify frames");
    let before = serde_json::to_string_pretty(&daemon.status_view()).expect("serialise");
    let started = Instant::now();
    let frames = daemon.pump_rounds(rounds);
    let secs = started.elapsed().as_secs_f64();
    let after = serde_json::to_string_pretty(&daemon.status_view()).expect("serialise");
    daemon.shutdown();
    (secs, frames, before, after)
}

/// Measures the `serve_throughput` shape pair (serial 1-shard daemon vs
/// parallel shape) at `streams` streams, asserts the logical plane is
/// untouched and shape-independent, prints the frames/sec line with its
/// ratio to the committed baseline's record of the same name, and applies
/// the `EKYA_MIN_FPS` gate.
fn measure_serve_throughput(
    name: &str,
    streams: usize,
    rounds: usize,
    seed: u64,
    workers: usize,
) -> BenchRecord {
    eprintln!("[harness_bench: {name} — {streams} streams, serial shape]");
    let (serial_secs, serial_frames, s_before, s_after) =
        measure_pump(&FleetConfig::serial(streams, 1, seed), rounds);
    eprintln!("[harness_bench: {name} — parallel shape]");
    let (parallel_secs, parallel_frames, p_before, p_after) =
        measure_pump(&FleetConfig::parallel(streams, 1, seed, workers), rounds);
    assert_eq!(s_before, s_after, "{name}: serial-shape pump moved the logical plane");
    assert_eq!(p_before, p_after, "{name}: parallel-shape pump moved the logical plane");
    assert_eq!(s_before, p_before, "{name}: daemon shapes disagree on the status snapshot");
    assert_eq!(serial_frames, parallel_frames, "{name}: shapes classified different frame counts");

    let fps = parallel_frames as f64 / parallel_secs.max(1e-9);
    let record = BenchRecord {
        name: name.into(),
        cells: parallel_frames as usize,
        workers,
        serial_wall_secs: serial_secs,
        parallel_wall_secs: parallel_secs,
        speedup: serial_secs / parallel_secs.max(1e-9),
        cells_per_sec: fps,
    };
    let baseline_path = bench_baseline_path();
    let reference = match read_bench_baseline(&baseline_path) {
        Ok(records) => match records.iter().find(|r| r.name == name) {
            Some(b) => format!(
                "{} baseline {:.0} frames/s → {:.2}x",
                baseline_path.display(),
                b.cells_per_sec,
                fps / b.cells_per_sec
            ),
            None => format!("no `{name}` record in {}", baseline_path.display()),
        },
        Err(e) => e,
    };
    println!(
        "harness_bench: {name} {streams} streams × {rounds} rounds · {parallel_frames} frames · \
         serial shape {serial_secs:.3} s · parallel shape {parallel_secs:.3} s · {fps:.0} \
         frames/s ({reference}) · snapshot byte-identity ✓"
    );
    if let Some(floor) = ekya_bench::knob::min_fps() {
        assert!(fps >= floor, "{name}: {fps:.0} frames/s below the EKYA_MIN_FPS={floor:.0} floor");
        println!("harness_bench: {name} fps gate {fps:.0} >= {floor:.0} ✓");
    }
    record
}

fn main() {
    let knobs = Knobs::from_env();
    let grid = fig06_grid(true, knobs.windows(2), knobs.seed());
    let workers = knobs.workers().max(4);

    warm_holdout_cache(&grid);
    warm_stream_cache(&grid);
    let fig06 = measure_grid("fig06_quick_grid", "fig06 quick grid", &grid, workers);

    // Telemetry overhead guard: the same parallel pass again, with a
    // live in-memory trace session, must stay within the perf-gate
    // tolerance of the untraced pass — the observability layer's "off
    // by default, cheap when on" contract, enforced where a hot-path
    // regression would land first. The pass also proves the trace it
    // recorded is well-formed.
    eprintln!("[harness_bench: fig06 quick grid — traced parallel pass (telemetry overhead)]");
    ekya_telemetry::start(None);
    let traced = run_grid(&grid, workers);
    let trace_text = ekya_telemetry::render();
    ekya_telemetry::stop();
    assert_eq!(traced.report.failed, 0, "traced run had poisoned cells");
    assert!(!trace_text.is_empty(), "traced pass recorded nothing");
    let problems = ekya_telemetry::validate_trace(&trace_text);
    assert!(problems.is_empty(), "traced pass produced an invalid trace: {problems:?}");
    let tolerance = ekya_bench::knob::bench_tolerance();
    let floor = fig06.cells_per_sec * (1.0 - tolerance);
    assert!(
        traced.stats.cells_per_sec >= floor,
        "telemetry overhead: traced parallel pass ran at {:.2} cells/s, below the {:.2} floor \
         ({:.0}% tolerance of the untraced {:.2} cells/s)",
        traced.stats.cells_per_sec,
        floor,
        tolerance * 100.0,
        fig06.cells_per_sec
    );
    println!(
        "harness_bench: telemetry overhead — traced {:.2} cells/s vs untraced {:.2} cells/s \
         ({} trace records, within {:.0}% tolerance) ✓",
        traced.stats.cells_per_sec,
        fig06.cells_per_sec,
        trace_text.lines().count(),
        tolerance * 100.0
    );

    // Second gated workload: the quick fig03 configuration sweep — the
    // other shape of parallel cell (per-config seeding instead of
    // per-scenario), gated so a regression in either fan-out path trips
    // CI, not just the scenario grids.
    let configs = config_grid(true);
    let m = configs.len();
    eprintln!("[harness_bench: fig03 quick sweep — preparing warm model]");
    let sweep = ConfigSweep::prepare(knobs.seed());
    eprintln!("[harness_bench: fig03 quick sweep — {m} configs, serial pass]");
    let started = Instant::now();
    let serial_points = sweep.measure(&configs, 1);
    let serial_secs = started.elapsed().as_secs_f64();
    eprintln!("[harness_bench: fig03 quick sweep — parallel pass on {workers} workers]");
    let started = Instant::now();
    let parallel_points = sweep.measure(&configs, workers);
    let parallel_secs = started.elapsed().as_secs_f64();
    assert_eq!(serial_points, parallel_points, "parallel config sweep diverged from serial sweep");
    assert!(
        serial_points.iter().all(|p| p.error.is_none()),
        "serial config sweep had poisoned configs"
    );

    let fig03 = BenchRecord {
        name: "fig03_quick_configs".into(),
        cells: m,
        workers,
        serial_wall_secs: serial_secs,
        parallel_wall_secs: parallel_secs,
        speedup: serial_secs / parallel_secs.max(1e-9),
        cells_per_sec: m as f64 / parallel_secs.max(1e-9),
    };
    println!(
        "harness_bench: fig03 {m} configs · serial {:.2} s · parallel {:.2} s on {workers} \
         workers · speedup {:.2}x · {:.2} configs/s · serial ≡ parallel ✓",
        fig03.serial_wall_secs, fig03.parallel_wall_secs, fig03.speedup, fig03.cells_per_sec
    );

    // Third gated workload: the quick fig07 trace-replay grid — the
    // record/replay cell shape (shared ReplayTraces, custom evaluator
    // through GridExec::run_with). The traces are recorded once, outside
    // the timed region (recording is the workload's one-off cost, replay
    // throughput is the gated metric), and each pass replays the grid
    // REPS times: a single quick replay finishes in milliseconds, far
    // inside timer noise at a 25% gate.
    const REPS: usize = 64;
    let grid07 = fig07_grid(true, knobs.windows(2), knobs.streams(4), knobs.seed());
    let k = grid07.cells().len();
    warm_holdout_cache(&grid07);
    eprintln!("[harness_bench: fig07 quick replay — recording {} traces]", grid07.datasets.len());
    let traces = ReplayTraces::for_grid(&grid07);
    for &kind in &grid07.datasets {
        let _ = traces.trace(kind);
    }
    let replay_pass = |pass_workers: usize| {
        let mut wall = 0.0;
        let mut report = None;
        for _ in 0..REPS {
            let run = GridExec::new("fig07_quick_replay", pass_workers)
                .run_with(&grid07, |sc| traces.replay(&grid07, sc));
            wall += run.stats.wall_secs;
            report = Some(run.report);
        }
        (report.expect("at least one repetition"), wall)
    };
    eprintln!("[harness_bench: fig07 quick replay — {k} cells x{REPS}, serial pass]");
    let (serial07, serial07_secs) = replay_pass(1);
    eprintln!("[harness_bench: fig07 quick replay — parallel pass on {workers} workers]");
    let (parallel07, parallel07_secs) = replay_pass(workers);
    assert_eq!(serial07, parallel07, "parallel fig07 replay diverged from serial replay");
    assert_eq!(serial07.failed, 0, "serial fig07 replay had poisoned cells");

    let fig07 = BenchRecord {
        name: "fig07_quick_replay".into(),
        // The record's fields must reconcile with each other: the wall
        // clocks cover all REPS repetitions, so `cells` does too.
        cells: k * REPS,
        workers,
        serial_wall_secs: serial07_secs,
        parallel_wall_secs: parallel07_secs,
        speedup: serial07_secs / parallel07_secs.max(1e-9),
        cells_per_sec: (k * REPS) as f64 / parallel07_secs.max(1e-9),
    };
    println!(
        "harness_bench: fig07 {k} replay cells x{REPS} · serial {:.2} s · parallel {:.2} s on \
         {workers} workers · speedup {:.2}x · {:.2} cells/s · serial ≡ parallel ✓",
        fig07.serial_wall_secs, fig07.parallel_wall_secs, fig07.speedup, fig07.cells_per_sec
    );

    // Fourth gated workload: the serving path — a full quick fleet
    // (default 200 concurrent streams) driven through the EdgeDaemon for
    // EKYA_WINDOWS retraining windows, serial shape (1 shard / 1 trainer
    // / 1 planner thread) vs parallel shape. The daemon's report carries
    // only the logical serving plane, so the two shapes must agree byte
    // for byte; throughput is stream-windows per second.
    let live_streams = ekya_bench::knob::streams_live().unwrap_or(200);
    let live_windows = knobs.windows(2);
    let units = live_streams * live_windows;
    eprintln!("[harness_bench: serve quick fleet — {live_streams} streams, serial pass]");
    let started = Instant::now();
    let (serial_serve, _) =
        run_fleet(&FleetConfig::serial(live_streams, live_windows, knobs.seed()));
    let serve_serial_secs = started.elapsed().as_secs_f64();
    eprintln!("[harness_bench: serve quick fleet — parallel pass on {workers} workers]");
    let started = Instant::now();
    let (parallel_serve, _) =
        run_fleet(&FleetConfig::parallel(live_streams, live_windows, knobs.seed(), workers));
    let serve_parallel_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        serial_serve, parallel_serve,
        "parallel serving daemon diverged from serial daemon (structural)"
    );
    assert_eq!(
        serde_json::to_string_pretty(&serial_serve).expect("serialise"),
        serde_json::to_string_pretty(&parallel_serve).expect("serialise"),
        "parallel serving daemon diverged from serial daemon (serialized)"
    );

    let serve = BenchRecord {
        name: "serve_quick".into(),
        cells: units,
        workers,
        serial_wall_secs: serve_serial_secs,
        parallel_wall_secs: serve_parallel_secs,
        speedup: serve_serial_secs / serve_parallel_secs.max(1e-9),
        cells_per_sec: units as f64 / serve_parallel_secs.max(1e-9),
    };
    println!(
        "harness_bench: serve {live_streams} streams × {live_windows} windows · serial {:.2} s · \
         parallel {:.2} s on {workers} workers · speedup {:.2}x · {:.2} stream-windows/s · \
         serial ≡ parallel ✓",
        serve.serial_wall_secs, serve.parallel_wall_secs, serve.speedup, serve.cells_per_sec
    );

    // Fifth gated workload: the serving hot path in isolation — the
    // daemon's live pump (Arc-shared models, per-slot scratch reuse,
    // coalesced `ClassifyMany` dispatch) driven for pure steady-state
    // rounds at quick scale. The logical plane must not move a byte and
    // must agree across daemon shapes; the gated metric is frames/sec
    // (`EKYA_MIN_FPS`), not speedup — a 1-shard → 2-shard shape pair has
    // a hard 2x ceiling below the grid records' speedup floor.
    let pump_streams = ekya_bench::knob::streams_live().unwrap_or(1000);
    let throughput =
        measure_serve_throughput("serve_throughput", pump_streams, 30, knobs.seed(), workers);

    let mut records = vec![fig06, fig03, fig07, serve, throughput];

    // Nightly-lane extras (EKYA_BENCH_FULL=1): the full-size fig06 grid —
    // the quick records prove every fan-out path; this one proves the
    // speedup holds at real cell sizes and counts, where per-cell work
    // dwarfs dispatch overhead — and the serving hot path at double
    // scale with longer steady state.
    if ekya_bench::knob::bench_full() {
        let full = fig06_grid(false, knobs.windows(2), knobs.seed());
        warm_holdout_cache(&full);
        warm_stream_cache(&full);
        records.push(measure_grid("fig06_full_grid", "fig06 full grid", &full, workers));
        records.push(measure_serve_throughput(
            "serve_throughput_full",
            pump_streams * 2,
            60,
            knobs.seed(),
            workers,
        ));
    }

    match append_bench_series(records.clone()) {
        Ok(path) => println!("\n[perf trajectory appended to {}]", path.display()),
        Err(e) => {
            eprintln!("harness_bench: cannot append the perf trajectory — {e}");
            std::process::exit(1);
        }
    }

    // The speedup gate covers every measured record except the
    // serve_throughput pair (its shapes differ by shard count with a
    // hard 2x ceiling; its gate is EKYA_MIN_FPS above): a fan-out
    // regression in any cell shape — scenario grid, config sweep,
    // trace replay, or the full-size grid — trips it. The floor is
    // derated when the box has fewer hardware threads than workers
    // (a single core cannot beat serial by 2x).
    if let Some(gate) = ekya_bench::knob::effective_min_speedup(workers) {
        if gate.effective < gate.requested {
            println!(
                "harness_bench: speedup floor derated to {:.2}x (EKYA_MIN_SPEEDUP={:.2} \
                 requested, but only {} hardware thread(s) for {workers} workers)",
                gate.effective, gate.requested, gate.hw
            );
        }
        for record in records.iter().filter(|r| !r.name.starts_with("serve_throughput")) {
            assert!(
                record.speedup >= gate.effective,
                "{}: parallel speedup {:.2}x below required {:.2}x (EKYA_MIN_SPEEDUP={:.2}; \
                 machine has {} hardware threads for {workers} workers)",
                record.name,
                record.speedup,
                gate.effective,
                gate.requested,
                gate.hw
            );
            println!(
                "harness_bench: {} speedup gate {:.2}x >= {:.2}x ✓",
                record.name, record.speedup, gate.effective
            );
        }
    }
}
