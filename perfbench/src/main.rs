//! The repository benchmark. One run executes one workload, checks its
//! outputs and prints its metrics as the last line of standard output:
//!
//! ```text
//! ekya-perfbench --workload <serve_retrain|serve_fleet|sim_grid> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced;
//! `--trace 1` prints the per-layer metrics. `--tiny` shrinks every
//! workload to a smoke size (the benchmark's own tests use it). See
//! README.md for the workloads, the metrics and why each exists.

mod grid;
mod ladder;
mod serve;
mod stats;

use ekya_bench::{fig06_grid, GridExec};
use ekya_server::ServeConfig;
use ekya_video::DatasetKind;
use serde::Value;
use serve::{FleetKind, ServeRun, ServeSpec};
use stats::{interquartile_mean, max, median, per_block, quantile, secs, Metric, Outcome};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("stream_windows_per_s", "1/s"), ("mean_accuracy", "ratio")];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [(&str, &str); 34] = [
    ("video.generate_ms", "ms"),
    ("server.admit_ms", "ms"),
    ("server.window_s.p50", "s"),
    ("server.window_s.max", "s"),
    ("server.phase_a_s", "s"),
    ("server.train_wait_s", "s"),
    ("server.window_other_s", "s"),
    ("server.pump_rounds", "count"),
    ("server.shard_mailbox_depth.max", "count"),
    ("server.pump_round_us", "us"),
    ("server.classify_rtt_us", "us"),
    ("server.live_frames_per_s", "1/s"),
    ("server.retrains", "count"),
    ("server.swaps", "count"),
    ("server.retrains_failed", "count"),
    ("server.swaps_per_retrain", "ratio"),
    ("core.profile_ms", "ms"),
    ("core.configs_pruned_frac", "ratio"),
    ("core.thief_schedule_ms", "ms"),
    ("core.scheduler_evaluations", "count"),
    ("nn.predict_ns_per_frame", "ns"),
    ("nn.train_epoch_ms", "ms"),
    ("actors.ask_rtt_us", "us"),
    ("sim.cell_ms.p50", "ms"),
    ("sim.cell_ms.max", "ms"),
    ("grid.busy_frac", "ratio"),
    ("grid.cells_per_s", "1/s"),
    ("loadgen.latency_iqm_ms", "ms"),
    ("loadgen.latency_p50_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("residual_frac", "ratio"),
];

/// Client request rate on the serving workloads, requests/s. At 500/s
/// the one synchronous client runs at its own limit while trainers hold
/// both cores of a 2-vCPU box (mean latency ≈ the 2 ms period), so its
/// lateness compounds and the tail swings run to run; 200/s leaves it
/// headroom.
const CLIENT_RATE: f64 = 200.0;

/// Client requests per latency block (5 s at `CLIENT_RATE`): latency
/// figures are medians over blocks of each block's figure.
const LATENCY_BLOCK: usize = 1000;

/// The 99th percentile, by nearest rank.
fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// Paper-size `serve_retrain` windows per measured second. A window
/// takes ~80 ms on a 2-vCPU box, so the windows fill about half the run's
/// seconds; set-up (generating every window of 16 streams, three times)
/// is most of the rest.
const RETRAIN_WINDOWS_PER_S: f64 = 6.0;

/// Streams in `serve_fleet`.
const FLEET_STREAMS: usize = 128;

/// Seconds per `serve_fleet` window on a 2-vCPU box.
const FLEET_WINDOW_S: f64 = 0.3;

/// Measured seconds per `sim_grid` base seed: two passes of ~4.5 s each
/// on a 2-vCPU box.
const GRID_SEED_S: f64 = 10.0;

/// Windows of `sim_grid`'s serving probe (~3 s, ~600 client requests).
const PROBE_WINDOWS: usize = 40;

/// Set-ups per serving run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ServeRetrain,
    ServeFleet,
    SimGrid,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_retrain" => Workload::ServeRetrain,
                    "serve_fleet" => Workload::ServeFleet,
                    "sim_grid" => Workload::SimGrid,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Concurrency sized to the machine: shards, trainers and planner
/// workers each `nproc`.
fn sized(cfg: ServeConfig, capacity: usize, seed: u64) -> ServeConfig {
    let n = nproc();
    ServeConfig { capacity, infer_shards: n, trainer_shards: n, planner_workers: n, seed, ..cfg }
}

/// The fleet and daemon of a serving workload, or of the serving probe
/// `sim_grid`'s traced run uses.
fn serve_spec(workload: Workload, seed: u64, tiny: bool) -> ServeSpec {
    match workload {
        Workload::ServeRetrain => {
            let streams = if tiny { 4 } else { 16 };
            ServeSpec {
                kind: FleetKind::Paper(&DatasetKind::ALL),
                streams,
                seed,
                cfg: sized(ServeConfig::new(4.0), streams, seed),
            }
        }
        Workload::ServeFleet => {
            // One GPU per 8 streams. At 256 streams the scheduler's
            // working set outgrows the cache and its time swings with the
            // shared machine's memory traffic (1.4–2.0 s for one call on
            // the same input); at 128 it holds within ±4%.
            let streams = if tiny { 16 } else { FLEET_STREAMS };
            ServeSpec {
                kind: FleetKind::Quick,
                streams,
                seed,
                cfg: sized(ServeConfig::quick(streams as f64 / 8.0), streams, seed),
            }
        }
        Workload::SimGrid => {
            // fig06's largest cell: 8 paper-size streams on 2 GPUs.
            let streams = if tiny { 2 } else { 8 };
            ServeSpec {
                kind: FleetKind::Paper(&[DatasetKind::Cityscapes, DatasetKind::Waymo]),
                streams,
                seed,
                cfg: sized(ServeConfig::new(2.0), streams, seed),
            }
        }
    }
}

/// The windows of a serving stretch that measures `share` of the run's
/// seconds. A quarter of them always run; the rest only while time
/// remains.
fn serve_plan(args: &Args, share: f64) -> serve::Plan {
    let nominal = match args.workload {
        Workload::ServeRetrain => args.seconds * RETRAIN_WINDOWS_PER_S,
        _ => args.seconds / FLEET_WINDOW_S,
    };
    let windows = (if args.tiny { 2.0 } else { nominal } * share).ceil().max(1.0) as usize;
    serve::Plan {
        windows,
        fixed: if args.tiny { windows } else { (windows / 4).max(1) },
        budget: Duration::from_secs_f64(args.seconds * share),
    }
}

/// Orders `values` by `spec`, failing loudly on a missing name so the
/// printed set can never drift from the declared one.
fn in_order(spec: &[(&'static str, &'static str)], values: Vec<(&str, f64)>) -> Vec<Metric> {
    spec.iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} not measured"))
                .1;
            Metric { name, unit, value: v }
        })
        .collect()
}

fn print_info(args: &Args, fingerprint: u64, accuracy: f64, extra: &str) {
    let name = match args.workload {
        Workload::ServeRetrain => "serve_retrain",
        Workload::ServeFleet => "serve_fleet",
        Workload::SimGrid => "sim_grid",
    };
    println!(
        "# {name} seed={} fingerprint={fingerprint:016x} mean_accuracy={accuracy:.12} {extra}",
        args.seed
    );
}

// ---------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------

/// Generates and boots `spec`'s fleet `setups` times; returns the last
/// daemon, the client's frame pools and the median set-up time, in s.
fn serve_setup(
    spec: &ServeSpec,
    windows: usize,
    setups: usize,
) -> (ekya_server::EdgeDaemon, std::sync::Arc<Vec<Vec<ekya_nn::Sample>>>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        if let Some((daemon, _)) = last.take() {
            ekya_server::EdgeDaemon::shutdown(daemon);
        }
        let t = Instant::now();
        let (fleet, _) = spec.generate(windows);
        // The client's frames are the benchmark's, not the program's,
        // set-up: copied outside the timed span.
        let copy = Instant::now();
        let pools = serve::client_pools(&fleet);
        let copy_s = secs(copy.elapsed());
        let (daemon, _) = spec.boot(fleet);
        times.push(secs(t.elapsed()) - copy_s);
        last = Some((daemon, pools));
    }
    let (daemon, pools) = last.expect("at least one set-up");
    (daemon, pools, median(&times))
}

fn serve_checks(run: &ServeRun, plan: serve::Plan) -> bool {
    run.snapshot_errors.is_empty()
        && run.load.failed == 0
        && run.window_s.len() >= plan.fixed
        && run.reports.len() == run.window_s.len() * run.streams()
        && run.streams() > 0
}

fn serve_end_to_end(args: &Args) -> Outcome {
    let spec = serve_spec(args.workload, args.seed, args.tiny);
    let plan = serve_plan(args, 1.0);
    let (daemon, pools, setup_s) = serve_setup(&spec, plan.windows, SETUPS);
    let run = serve::run(daemon, plan, pools, CLIENT_RATE);
    for e in &run.snapshot_errors {
        eprintln!("snapshot error: {e}");
    }
    let correct = serve_checks(&run, plan);
    let blocks: Vec<String> = run
        .load
        .latency_ms
        .chunks_exact(LATENCY_BLOCK)
        .map(|b| format!("{:.2}/{:.2}", quantile(b, 0.5), quantile(b, 0.99)))
        .collect();
    eprintln!("latency p50/p99 per block of {LATENCY_BLOCK} requests (ms): {}", blocks.join(" "));
    print_info(
        args,
        run.fingerprint,
        run.mean_accuracy,
        &format!(
            "windows={} live_frames_per_s={:.0} requests={} latency_iqm_ms={:.3} \
             latency_p50_ms={:.3} latency_p99_ms={:.3}",
            run.window_s.len(),
            run.live_frames_per_s(),
            run.load.latency_ms.len(),
            per_block(&run.load.latency_ms, LATENCY_BLOCK, interquartile_mean),
            median(&run.load.latency_ms),
            per_block(&run.load.latency_ms, LATENCY_BLOCK, p99)
        ),
    );
    Outcome {
        correct,
        attempted: run.load.latency_ms.len() as u64,
        failed: run.load.failed,
        metrics: in_order(
            &END_TO_END,
            vec![
                ("setup_s", setup_s),
                ("stream_windows_per_s", run.stream_windows_per_s()),
                ("mean_accuracy", run.mean_accuracy),
            ],
        ),
    }
}

/// Wall-plane figures of one traced stretch, read from the sidecar.
struct Sidecar(Value);

impl Sidecar {
    fn take() -> Self {
        let doc = ekya_telemetry::timing::sidecar_json();
        Self(serde_json::from_str(&doc).expect("sidecar is JSON"))
    }

    fn num(v: Option<&Value>) -> f64 {
        match v {
            Some(Value::I64(n)) => *n as f64,
            Some(Value::U64(n)) => *n as f64,
            Some(Value::F64(n)) => *n,
            _ => 0.0,
        }
    }

    /// (count, total seconds) of a wall span family.
    fn span(&self, key: &str) -> (f64, f64) {
        let agg = self.0.get("wall_spans").and_then(|s| s.get(key));
        (
            Self::num(agg.and_then(|a| a.get("count"))),
            Self::num(agg.and_then(|a| a.get("total_ns"))) * 1e-9,
        )
    }

    fn gauge(&self, key: &str) -> f64 {
        Self::num(self.0.get("gauges").and_then(|g| g.get(key)))
    }
}

/// Sum of a logical-plane counter over every context.
fn counter(records: &[ekya_telemetry::TraceRecord], layer: &str, name: &str) -> f64 {
    records
        .iter()
        .filter(|r| r.kind == "counter" && r.layer == layer && r.name == name)
        .map(|r| r.count as f64)
        .sum()
}

/// Runs `f` inside an in-memory tracing session; returns its result,
/// the wall sidecar and the logical records.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Sidecar, Vec<ekya_telemetry::TraceRecord>) {
    ekya_telemetry::start(None);
    let out = f();
    let side = Sidecar::take();
    let records = ekya_telemetry::parse_trace(&ekya_telemetry::render()).expect("trace parses");
    ekya_telemetry::stop();
    (out, side, records)
}

fn pruned_frac(records: &[ekya_telemetry::TraceRecord]) -> f64 {
    let pruned = counter(records, "core.profiler", "configs_pruned");
    let profiled = counter(records, "core.profiler", "configs_profiled");
    pruned / (pruned + profiled).max(1.0)
}

/// The serving layers' figures from one traced stretch.
struct ServeLayers {
    values: Vec<(&'static str, f64)>,
    /// Σ of the window time the daemon's wall spans attribute to a phase.
    attributed_s: f64,
    correct: bool,
}

fn serve_layers(
    run: &ServeRun,
    side: &Sidecar,
    plan: serve::Plan,
    gen_s: &[f64],
    admit_s: &[f64],
) -> ServeLayers {
    let n_windows = run.window_s.len() as f64;
    let (chunks, chunk_total) = side.span("server.daemon/phase_a_chunk");
    let (_, train_wait_total) = side.span("server.daemon/train_wait");
    let phase_a_s = chunk_total / chunks.max(1.0);
    let train_wait_s = train_wait_total / n_windows;
    let mean_window = run.window_s.iter().sum::<f64>() / n_windows;
    let retrains = run.reports.iter().filter(|r| r.retrained).count() as f64;
    let swaps = run.reports.iter().map(|r| r.checkpoints_swapped).sum::<u64>() as f64;
    ServeLayers {
        values: vec![
            ("video.generate_ms", median(gen_s) * 1e3),
            ("server.admit_ms", median(admit_s) * 1e3),
            ("server.window_s.p50", median(&run.window_s)),
            ("server.window_s.max", max(&run.window_s)),
            ("server.phase_a_s", phase_a_s),
            ("server.train_wait_s", train_wait_s),
            ("server.window_other_s", mean_window - phase_a_s - train_wait_s),
            ("server.pump_rounds", side.gauge("server.daemon/live_pump_rounds")),
            ("server.shard_mailbox_depth.max", side.gauge("server.daemon/shard_mailbox_depth")),
            ("server.live_frames_per_s", run.live_frames_per_s()),
            ("server.retrains", retrains),
            ("server.swaps", swaps),
            (
                "server.retrains_failed",
                run.reports.iter().filter(|r| r.retrain_failed).count() as f64,
            ),
            ("server.swaps_per_retrain", swaps / retrains.max(1.0)),
            (
                "loadgen.latency_iqm_ms",
                per_block(&run.load.latency_ms, LATENCY_BLOCK, interquartile_mean),
            ),
            ("loadgen.latency_p50_ms", median(&run.load.latency_ms)),
            ("loadgen.latency_p99_ms", per_block(&run.load.latency_ms, LATENCY_BLOCK, p99)),
            ("loadgen.late_p99_ms", quantile(&run.load.late_ms, 0.99)),
            ("loadgen.sent", run.load.latency_ms.len() as f64),
        ],
        attributed_s: (phase_a_s + train_wait_s) * n_windows,
        correct: serve_checks(run, plan),
    }
}

/// Σ cell time ÷ (wall × workers): the share of the pool's capacity
/// spent inside cells.
fn busy_frac(pass: &grid::GridPass) -> f64 {
    pass.cell_ms.iter().sum::<f64>() * 1e-3 / (pass.wall_s * nproc() as f64)
}

/// The grid layers' figures from one traced pass.
fn grid_layers(pass: &grid::GridPass) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.cell_ms.p50", median(&pass.cell_ms)),
        ("sim.cell_ms.max", max(&pass.cell_ms)),
        ("grid.busy_frac", busy_frac(pass)),
        ("grid.cells_per_s", pass.cell_ms.len() as f64 / pass.wall_s),
    ]
}

fn ladder_values(l: &ladder::Ladder) -> Vec<(&'static str, f64)> {
    vec![
        ("server.classify_rtt_us", l.classify_rtt_us),
        ("server.pump_round_us", l.pump_round_us),
        ("core.profile_ms", l.profile_ms),
        ("core.thief_schedule_ms", l.thief_schedule_ms),
        ("core.scheduler_evaluations", l.scheduler_evaluations),
        ("nn.predict_ns_per_frame", l.predict_ns_per_frame),
        ("nn.train_epoch_ms", l.train_epoch_ms),
        ("actors.ask_rtt_us", l.ask_rtt_us),
    ]
}

/// A traced pass of the quick fig06 grid (20 cells, 2 windows) after an
/// untraced one: the grid layers' figures for the serving workloads,
/// which do not use them.
fn grid_probe(args: &Args) -> (grid::GridPass, bool) {
    let grid = fig06_grid(true, 2, args.seed);
    let exec = GridExec::new("grid_probe", nproc());
    grid::prefill(&grid);
    let plain = grid::run_pass(&exec, &grid);
    let (pass, ..) = traced(|| grid::run_pass(&exec, &grid));
    let ok = plain.failed == 0 && pass.failed == 0 && pass.report == plain.report;
    (pass, ok)
}

fn serve_layered(args: &Args) -> Outcome {
    let spec = serve_spec(args.workload, args.seed, args.tiny);
    let plan = serve_plan(args, 0.5);
    // The same fleet twice: untraced, then traced, so the difference is
    // the cost of tracing alone.
    let (plain_daemon, pools, _) = serve_setup(&spec, plan.windows, 1);
    let plain = serve::run(plain_daemon, plan, std::sync::Arc::clone(&pools), CLIENT_RATE);
    let (fleet, gen_s) = spec.generate(plan.windows);
    let ((run, admit_s), side, records) = traced(|| {
        let (daemon, admit_s) = spec.boot(fleet);
        (serve::run(daemon, plan, pools, CLIENT_RATE), admit_s)
    });
    let layers = serve_layers(&run, &side, plan, &gen_s, &admit_s);
    let (pass, grid_ok) = grid_probe(args);
    let (window0, _) = spec.generate(1);
    let ladder = ladder::measure(&spec, window0);

    let window_total: f64 = run.window_s.iter().sum();
    let planned_s = ladder.thief_schedule_ms * 1e-3 * run.window_s.len() as f64;
    let mut values = layers.values;
    values.extend(grid_layers(&pass));
    values.extend(ladder_values(&ladder));
    values.extend([
        ("core.configs_pruned_frac", pruned_frac(&records)),
        (
            "telemetry.overhead_frac",
            1.0 - run.stream_windows_per_s() / plain.stream_windows_per_s(),
        ),
        ("residual_frac", 1.0 - (layers.attributed_s + planned_s) / window_total),
    ]);
    let same_plane = plain.fingerprint == run.fingerprint;
    if !same_plane {
        eprintln!("traced and untraced snapshots differ");
    }
    print_info(
        args,
        run.fingerprint,
        run.mean_accuracy,
        &format!("windows={} traced", run.window_s.len()),
    );
    Outcome {
        correct: layers.correct && serve_checks(&plain, plan) && grid_ok && same_plane,
        attempted: (plain.load.latency_ms.len() + run.load.latency_ms.len()) as u64,
        failed: plain.load.failed + run.load.failed,
        metrics: in_order(&PER_LAYER, values),
    }
}

// ---------------------------------------------------------------------
// Offline grid workload
// ---------------------------------------------------------------------

/// The grids one `sim_grid` run may execute: fig06 under several base
/// seeds drawn from the workload seed. A grid's cost depends on its seed
/// (it sets which configurations the cells retrain with), so one grid
/// per run would make cells/s follow the seed; pooling several averages
/// that out.
fn sim_grids(args: &Args) -> Vec<ekya_bench::Grid> {
    let (count, windows) =
        if args.tiny { (1, 2) } else { (((args.seconds / GRID_SEED_S).round() as u64).max(1), 4) };
    // Full fig06 (80 cells), or the quick one (20 cells) at `--tiny`.
    (0..count)
        .map(|i| fig06_grid(args.tiny, windows, args.seed.wrapping_mul(16).wrapping_add(i)))
        .collect()
}

fn grid_end_to_end(args: &Args) -> Outcome {
    let exec = GridExec::new("sim_grid", nproc());
    let grids = sim_grids(args);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut passes: Vec<grid::GridPass> = Vec::new();
    let mut correct = true;
    for (i, g) in grids.iter().enumerate() {
        // Past the first grid, none starts once the run's time is up: a
        // slowed machine shortens the run instead of stretching it.
        if i > 0 && started.elapsed() >= budget {
            break;
        }
        setup_s.push(grid::prefill(g));
        let first = grid::run_pass(&exec, g);
        let second = grid::run_pass(&exec, g);
        eprintln!("grid pass: {:.3} s, {:.3} s", first.wall_s, second.wall_s);
        correct &= first.failed == 0 && second.failed == 0 && second.report == first.report;
        passes.extend([first, second]);
    }
    let cells: usize = passes.iter().map(|p| p.cell_ms.len()).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    // Per-pass figures, then their median: a pass slowed by the shared
    // machine does not stand for the run.
    let rates: Vec<f64> = passes.iter().map(|p| p.stream_windows as f64 / p.wall_s).collect();
    // The first grid always runs in full: the fingerprint and accuracy
    // are its, so they never depend on the clock.
    let accuracy = passes[0].ekya_accuracy;
    print_info(
        args,
        ekya_core::fnv1a(passes[0].report.as_bytes()),
        accuracy,
        &format!(
            "grids={} passes={} cells_per_s={:.3}",
            setup_s.len(),
            passes.len(),
            cells as f64 / wall
        ),
    );
    Outcome {
        correct,
        attempted: cells as u64,
        failed: passes.iter().map(|p| p.failed as u64).sum(),
        metrics: in_order(
            &END_TO_END,
            vec![
                ("setup_s", median(&setup_s)),
                ("stream_windows_per_s", median(&rates)),
                ("mean_accuracy", accuracy),
            ],
        ),
    }
}

fn grid_layered(args: &Args) -> Outcome {
    // One grid, passes alternating untraced and traced, so the
    // difference is the cost of tracing alone and drift of the shared
    // machine falls on both sides.
    let grid = sim_grids(args).swap_remove(0);
    let exec = GridExec::new("sim_grid", nproc());
    grid::prefill(&grid);
    let (mut plain, mut traced_passes, mut records) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(grid::run_pass(&exec, &grid));
        let (pass, _, r) = traced(|| grid::run_pass(&exec, &grid));
        traced_passes.push(pass);
        records.extend(r);
    }
    let cells_per_s = |ps: &[grid::GridPass]| {
        ps.iter().map(|p| p.cell_ms.len()).sum::<usize>() as f64
            / ps.iter().map(|p| p.wall_s).sum::<f64>()
    };

    // The serving layers, which this workload does not use, come from a
    // short traced probe daemon on fig06's largest cell.
    let spec = serve_spec(Workload::SimGrid, args.seed, args.tiny);
    let windows = if args.tiny { 2 } else { PROBE_WINDOWS };
    let plan = serve::Plan { windows, fixed: windows, budget: Duration::ZERO };
    let (fleet, gen_s) = spec.generate(windows);
    let pools = serve::client_pools(&fleet);
    let ((run, admit_s), side, _) = traced(|| {
        let (daemon, admit_s) = spec.boot(fleet);
        (serve::run(daemon, plan, pools, CLIENT_RATE), admit_s)
    });
    let layers = serve_layers(&run, &side, plan, &gen_s, &admit_s);
    let (window0, _) = spec.generate(1);
    let ladder = ladder::measure(&spec, window0);

    let mut values = layers.values;
    values.extend(grid_layers(&traced_passes[1]));
    values.extend(ladder_values(&ladder));
    values.extend([
        ("core.configs_pruned_frac", pruned_frac(&records)),
        ("telemetry.overhead_frac", 1.0 - cells_per_s(&traced_passes) / cells_per_s(&plain)),
        ("residual_frac", 1.0 - busy_frac(&traced_passes[1])),
    ]);
    let all = || plain.iter().chain(&traced_passes);
    let correct = all().all(|p| p.failed == 0 && p.report == plain[0].report) && layers.correct;
    print_info(
        args,
        ekya_core::fnv1a(plain[0].report.as_bytes()),
        plain[0].ekya_accuracy,
        "traced",
    );
    Outcome {
        correct,
        attempted: all().map(|p| p.cell_ms.len() as u64).sum(),
        failed: all().map(|p| p.failed as u64).sum(),
        metrics: in_order(&PER_LAYER, values),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ekya-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let out = match (args.workload, args.trace) {
        (Workload::SimGrid, false) => grid_end_to_end(&args),
        (Workload::SimGrid, true) => grid_layered(&args),
        (_, false) => serve_end_to_end(&args),
        (_, true) => serve_layered(&args),
    };
    eprintln!("ekya-perfbench: finished in {:.1} s", secs(started.elapsed()));
    println!("{}", out.to_json());
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
