//! The sanctioned home of every environment knob that is *not* one of
//! the shared grid knobs parsed by [`crate::Knobs::from_env`].
//!
//! Determinism contract: `plan.json` pins the environment a supervised
//! run executes under, and `ekya-lint`'s `ambient-env` rule forbids
//! `std::env::var` anywhere outside `Knobs::from_env`, `results_dir`,
//! and this module — an env read that lives here is documented, listed
//! in the operator guide's env-knob table (`crates/ekya-bench/README.md`),
//! and therefore coverable by a plan. One accessor per knob; callers
//! never spell the variable name themselves.

/// Reads a float environment knob (used by bin-specific knobs like
/// `EKYA_THRESHOLD`; the shared grid knobs all live in [`crate::Knobs`]).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `EKYA_MIN_SPEEDUP` — when set, `harness_bench` asserts the measured
/// parallel speedup reaches this floor (CI perf-sanity gate; unset means
/// no gate, e.g. on single-core runners).
pub fn min_speedup() -> Option<f64> {
    std::env::var("EKYA_MIN_SPEEDUP").ok().and_then(|v| v.parse().ok())
}

/// `EKYA_BENCH_FULL=1` — `harness_bench` additionally measures (and
/// gates) the full-size fig06 grid as the `fig06_full_grid` record. Off
/// by default: the full grid is minutes of work, so only the nightly CI
/// lane turns it on.
pub fn bench_full() -> bool {
    std::env::var("EKYA_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The speedup floor [`min_speedup`] actually enforces for a run at
/// `workers` threads, derated for the measuring machine's hardware.
///
/// A parallel run cannot beat serial by the configured multiple when the
/// box has fewer hardware threads than the pool has workers — on a
/// single core the theoretical ceiling is 1.0×, and work-stealing
/// dispatch overhead on an oversubscribed core costs a further
/// ~10–20% on microsecond-scale cells. So when
/// `available_parallelism() < workers` the floor becomes
/// `min(requested, 0.8 × hw_threads)`: still failing on pathological
/// parallel slowdowns (a 1-core box is held to 0.8×), while full-size
/// machines (hardware ≥ workers) enforce the requested floor untouched.
/// Returns `None` (no gate) when `EKYA_MIN_SPEEDUP` is unset.
pub fn effective_min_speedup(workers: usize) -> Option<SpeedupGate> {
    let requested = min_speedup()?;
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Some(SpeedupGate { requested, effective: derate_speedup(requested, workers, hw), hw })
}

/// A resolved speedup gate: what the environment asked for and what this
/// machine is held to (see [`effective_min_speedup`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupGate {
    /// The `EKYA_MIN_SPEEDUP` value as configured.
    pub requested: f64,
    /// The floor enforced on this machine.
    pub effective: f64,
    /// Hardware threads detected on this machine.
    pub hw: usize,
}

/// The derating rule of [`effective_min_speedup`], split out pure so it
/// is unit-testable without touching the environment.
fn derate_speedup(requested: f64, workers: usize, hw_threads: usize) -> f64 {
    if hw_threads >= workers.max(1) {
        requested
    } else {
        requested.min(0.8 * hw_threads as f64)
    }
}

/// `EKYA_BENCH_TOLERANCE` — fractional throughput regression the
/// `perf_gate` bin tolerates against its pinned baseline before failing
/// (default 0.25, i.e. a 25% slowdown fails the gate).
pub fn bench_tolerance() -> f64 {
    env_f64("EKYA_BENCH_TOLERANCE", 0.25)
}

/// `EKYA_ORCH_CRASH_AFTER` — fault injection for the orchestrator
/// tests: a grid bin aborts after executing this many cells, so
/// supervise/retry/resume paths can be exercised deterministically.
/// Unset (the production state) means never crash.
pub fn orch_crash_after() -> Option<usize> {
    std::env::var("EKYA_ORCH_CRASH_AFTER").ok().and_then(|v| v.parse().ok())
}

/// `EKYA_STREAMS_LIVE` — fleet size for the serving-path bins
/// (`ekya_serve`, `ekya_loadgen`): how many concurrent camera streams
/// the daemon admits. Unset means each bin's documented default.
pub fn streams_live() -> Option<usize> {
    std::env::var("EKYA_STREAMS_LIVE").ok().and_then(|v| v.parse().ok())
}

/// `EKYA_ARRIVAL` — frame-arrival pattern for the serving-path bins:
/// `uniform` (default), `bursty`, or `staggered`. The raw string is
/// returned so the bin can reject typos with a proper usage error.
pub fn arrival() -> String {
    std::env::var("EKYA_ARRIVAL").unwrap_or_else(|_| "uniform".to_string())
}

/// `EKYA_TRACE` — two-plane telemetry (`ekya-telemetry`). Unset, empty,
/// or `0` (the production state) disables tracing entirely: every
/// instrumented hot path costs one relaxed atomic load. `1` writes the
/// logical-plane trace to `results/TRACE_<bin>.jsonl` (plus a
/// `.wall.json` sidecar); any other value is used as the trace file
/// path verbatim. The logical trace is byte-identical across runs,
/// worker counts, and shard merges — see the operator guide's
/// "Observability" section.
pub fn trace() -> Option<String> {
    match std::env::var("EKYA_TRACE") {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) => Some(v),
        Err(_) => None,
    }
}

/// `EKYA_MIN_FPS` — when set, `harness_bench` asserts the
/// `serve_throughput` record's steady-state frames/sec reaches this
/// floor (CI perf-sanity gate for the serving hot path; unset means no
/// gate, e.g. on slow or heavily shared runners).
pub fn min_fps() -> Option<f64> {
    std::env::var("EKYA_MIN_FPS").ok().and_then(|v| v.parse().ok())
}

/// `EKYA_SERVE_CRASH_AFTER` — fault injection for the serving daemon:
/// `ekya_serve` kills its own process (exit 17) in the middle of this
/// window index, after retraining has been dispatched, so the
/// crash-injection test can assert the last on-disk status snapshot is
/// still a consistent prefix of the run. Unset (the production state)
/// means never crash.
pub fn serve_crash_after() -> Option<usize> {
    std::env::var("EKYA_SERVE_CRASH_AFTER").ok().and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_f64_falls_back_on_absent_or_garbage() {
        assert_eq!(env_f64("EKYA_TEST_KNOB_ABSENT", 1.5), 1.5);
        std::env::set_var("EKYA_TEST_KNOB_GARBAGE", "not-a-number");
        assert_eq!(env_f64("EKYA_TEST_KNOB_GARBAGE", 2.5), 2.5);
        std::env::remove_var("EKYA_TEST_KNOB_GARBAGE");
    }

    #[test]
    fn unset_knobs_mean_no_gate_and_no_crash() {
        // The test runner environment must not carry these; if it does,
        // every assertion about "production state" below is void.
        assert_eq!(std::env::var_os("EKYA_MIN_SPEEDUP"), None);
        assert_eq!(std::env::var_os("EKYA_MIN_FPS"), None);
        assert_eq!(std::env::var_os("EKYA_ORCH_CRASH_AFTER"), None);
        assert_eq!(std::env::var_os("EKYA_SERVE_CRASH_AFTER"), None);
        assert_eq!(std::env::var_os("EKYA_STREAMS_LIVE"), None);
        assert_eq!(std::env::var_os("EKYA_ARRIVAL"), None);
        assert_eq!(std::env::var_os("EKYA_BENCH_FULL"), None);
        assert_eq!(std::env::var_os("EKYA_TRACE"), None);
        assert_eq!(min_speedup(), None);
        assert_eq!(min_fps(), None);
        assert_eq!(trace(), None);
        assert_eq!(orch_crash_after(), None);
        assert_eq!(serve_crash_after(), None);
        assert_eq!(streams_live(), None);
        assert_eq!(arrival(), "uniform");
        assert_eq!(bench_tolerance(), 0.25);
        assert!(!bench_full());
        assert_eq!(effective_min_speedup(4), None);
    }

    #[test]
    fn speedup_derating_tracks_hardware() {
        // Enough hardware: the requested floor applies untouched.
        assert_eq!(derate_speedup(2.0, 4, 4), 2.0);
        assert_eq!(derate_speedup(2.0, 4, 16), 2.0);
        // Single core: parallel cannot beat serial — floor near 1x
        // (with margin for dispatch overhead on the oversubscribed core).
        assert!((derate_speedup(2.0, 4, 1) - 0.8).abs() < 1e-12);
        // Two cores, four workers: held to 1.6x, not 2x.
        assert!((derate_speedup(2.0, 4, 2) - 1.6).abs() < 1e-12);
        // Derating never raises the floor above the request.
        assert_eq!(derate_speedup(1.2, 4, 3), 1.2);
    }
}
