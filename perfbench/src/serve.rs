//! The serving workloads: a fleet of camera streams admitted into one
//! `EdgeDaemon`, retraining window by window while one open-loop client
//! thread sends `classify` requests.

use crate::stats::{median, secs};
use ekya_bench::quick_fleet;
use ekya_nn::Sample;
use ekya_server::{DaemonClient, EdgeDaemon, ServeConfig, ServeWindowReport};
use ekya_video::{DatasetKind, DatasetSpec, StreamId, VideoDataset};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames per client `classify` request.
pub const REQUEST_FRAMES: usize = 8;

/// Which stream generator a fleet uses.
#[derive(Clone, Copy)]
pub enum FleetKind {
    /// Paper-size streams (`DatasetSpec::new`: 6000 frames per 200 s
    /// window, 10% labelled, 300 validation frames), cycling `kinds`.
    Paper(&'static [DatasetKind]),
    /// `ekya_bench::quick_fleet` streams (40 frames per 10 s window).
    Quick,
}

/// A fleet and the daemon configuration that serves it.
#[derive(Clone)]
pub struct ServeSpec {
    pub kind: FleetKind,
    pub streams: usize,
    pub seed: u64,
    pub cfg: ServeConfig,
}

impl ServeSpec {
    /// Generates the fleet with `windows` windows per stream, timing
    /// each stream's generation.
    pub fn generate(&self, windows: usize) -> (Vec<VideoDataset>, Vec<f64>) {
        match self.kind {
            FleetKind::Paper(kinds) => (0..self.streams)
                .map(|i| {
                    let spec = DatasetSpec::new(
                        kinds[i % kinds.len()],
                        windows,
                        self.seed.wrapping_add(1000 * i as u64),
                    );
                    let t = Instant::now();
                    let ds = VideoDataset::generate(spec);
                    (ds, secs(t.elapsed()))
                })
                .unzip(),
            FleetKind::Quick => {
                // `quick_fleet` generates the whole fleet in one call, so
                // its per-stream time is the mean.
                let t = Instant::now();
                let fleet = quick_fleet(self.streams, windows, self.seed);
                let each = secs(t.elapsed()) / self.streams.max(1) as f64;
                (fleet, vec![each; self.streams])
            }
        }
    }

    /// Boots a daemon and admits `fleet`, timing each admission.
    ///
    /// # Panics
    /// Panics when a stream is rejected: every fleet here fits the
    /// daemon's capacity.
    pub fn boot(&self, fleet: Vec<VideoDataset>) -> (EdgeDaemon, Vec<f64>) {
        let mut daemon = EdgeDaemon::new(self.cfg.clone());
        let admit_s = fleet
            .into_iter()
            .map(|ds| {
                let t = Instant::now();
                daemon.admit(ds).expect("fleet fits the daemon's capacity");
                secs(t.elapsed())
            })
            .collect();
        (daemon, admit_s)
    }
}

/// The frames the client sends: each stream's window-0 validation set.
pub fn client_pools(fleet: &[VideoDataset]) -> Arc<Vec<Vec<Sample>>> {
    Arc::new(fleet.iter().map(|ds| ds.window(0).val.clone()).collect())
}

/// What the open-loop client saw.
#[derive(Default)]
pub struct LoadReport {
    /// Per-request latency from its due time, in ms (infinite when the
    /// request failed).
    pub latency_ms: Vec<f64>,
    /// How far behind schedule each request was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Requests that failed or came back with the wrong number of
    /// predictions.
    pub failed: u64,
}

/// Starts the open-loop client: request `k` is due at `k / rate`
/// seconds after start and goes to stream `k mod streams`, whatever
/// happened to earlier requests. It runs until `stop` is set.
pub fn spawn_client(
    client: DaemonClient,
    pools: Arc<Vec<Vec<Sample>>>,
    rate: f64,
    stop: Arc<AtomicBool>,
) -> JoinHandle<LoadReport> {
    std::thread::spawn(move || {
        let mut out = LoadReport::default();
        let mut cursors = vec![0usize; pools.len()];
        let start = Instant::now();
        let mut k = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_ms.push(secs(Instant::now().saturating_duration_since(due)) * 1e3);
            let s = k as usize % pools.len();
            let pool = &pools[s];
            let frames: Vec<Sample> =
                (0..REQUEST_FRAMES).map(|i| pool[(cursors[s] + i) % pool.len()].clone()).collect();
            cursors[s] += REQUEST_FRAMES;
            let ok = matches!(
                client.classify(StreamId(s as u32), frames),
                Ok((preds, _)) if preds.len() == REQUEST_FRAMES
            );
            out.latency_ms.push(if ok {
                secs(Instant::now().saturating_duration_since(due)) * 1e3
            } else {
                out.failed += 1;
                f64::INFINITY
            });
            k += 1;
        }
        out
    })
}

/// How much of a serving stretch to run.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Windows generated, and the most run.
    pub windows: usize,
    /// Windows always run. The fingerprint and `mean_accuracy` cover
    /// exactly these, so they never depend on the clock.
    pub fixed: usize,
    /// Past `fixed` windows, no new window starts once this much time has
    /// passed: a slowed machine shortens the run instead of stretching it.
    pub budget: Duration,
}

/// One measured stretch of serving: `run_window` calls under client
/// load.
pub struct ServeRun {
    /// Wall time of each `run_window` call, in s.
    pub window_s: Vec<f64>,
    pub reports: Vec<ServeWindowReport>,
    /// Mean `ServeWindowReport::accuracy` over the plan's fixed windows.
    pub mean_accuracy: f64,
    /// FNV-1a of the serialised status snapshot after the fixed windows.
    pub fingerprint: u64,
    /// `live_stats().served` at the end (client and pump frames).
    pub served: u64,
    pub load: LoadReport,
    /// `StatusSnapshot::validate()` errors, after the fixed windows and at
    /// the end.
    pub snapshot_errors: Vec<String>,
}

impl ServeRun {
    pub fn streams(&self) -> usize {
        self.reports.len() / self.window_s.len().max(1)
    }

    /// Streams ÷ the median `run_window` wall time: the median window
    /// stands for the run, so a stall of the shared machine during a few
    /// windows does not.
    pub fn stream_windows_per_s(&self) -> f64 {
        self.streams() as f64 / median(&self.window_s)
    }

    pub fn live_frames_per_s(&self) -> f64 {
        self.served as f64 / self.window_s.iter().sum::<f64>()
    }
}

/// Runs `plan` on `daemon` while the client sends `rate` requests per
/// second, then shuts the daemon down.
pub fn run(
    mut daemon: EdgeDaemon,
    plan: Plan,
    pools: Arc<Vec<Vec<Sample>>>,
    rate: f64,
) -> ServeRun {
    let stop = Arc::new(AtomicBool::new(false));
    let client = spawn_client(daemon.client(), pools, rate, Arc::clone(&stop));
    let started = Instant::now();
    let mut window_s = Vec::with_capacity(plan.windows);
    let mut reports = Vec::new();
    let mut fixed = None;
    for w in 0..plan.windows {
        if w >= plan.fixed && started.elapsed() >= plan.budget {
            break;
        }
        let t = Instant::now();
        let r = daemon.run_window();
        window_s.push(secs(t.elapsed()));
        reports.extend(r);
        if w + 1 == plan.fixed {
            let snapshot = daemon.status_snapshot();
            let json = serde_json::to_string(&snapshot).expect("snapshot serialises");
            let accuracy = reports.iter().map(|r| r.accuracy).sum::<f64>() / reports.len() as f64;
            fixed = Some((snapshot.validate(), ekya_core::fnv1a(json.as_bytes()), accuracy));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let load = client.join().expect("client thread");
    let served = daemon.live_stats().served;
    let (mut snapshot_errors, fingerprint, mean_accuracy) =
        fixed.expect("the plan runs at least one window");
    snapshot_errors.extend(daemon.status_snapshot().validate());
    daemon.shutdown();
    ServeRun { window_s, reports, mean_accuracy, fingerprint, served, load, snapshot_errors }
}
