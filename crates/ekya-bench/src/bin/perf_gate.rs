//! CI perf-regression gate for the experiment harness.
//!
//! Reads the **latest entry** of the perf trajectory
//! `results/BENCH_series.json` (appended by `harness_bench`) and
//! compares the baseline records in `ci/bench_baseline.json` — the three
//! quick records plus the nightly-only `fig06_full_grid` — against the
//! current record of the same name, exiting nonzero when any gated
//! throughput regressed by more than the tolerance (default 25%).
//!
//! By default the gate covers the **intersection**: a baseline record
//! the current run did not measure (the full-size record on a quick
//! lane) is skipped with a loud notice instead of failing — but at
//! least one record must overlap, and a *measured* name missing from
//! the baseline is never gated silently either way. The nightly lane
//! passes `--all` to require every baseline record to be present.
//!
//! Usage:
//!   perf_gate [--update [--force]] [--all] [baseline.json] [series.json]
//!
//! * `--update` — rewrite the baseline from the latest series entry
//!   (use after an intentional perf change, commit the result). Refused
//!   when any current record itself regresses beyond the tolerance
//!   against the existing baseline — rebasing away a regression must be
//!   explicit: pass `--force` to accept the lower numbers;
//! * `--all` — fail when any baseline record has no current counterpart
//!   (instead of skipping it) — for the lane that measures everything;
//! * `EKYA_BENCH_TOLERANCE` — allowed fractional regression
//!   (default 0.25).
//!
//! The baseline file is a JSON array of records; a legacy single-record
//! baseline is read as a one-record array, so old runner caches gate
//! what they know and `--update` upgrades them in place.
//!
//! Run: `cargo run --release -p ekya-bench --bin perf_gate`

use ekya_bench::knob::bench_tolerance as tolerance;
use ekya_bench::{
    bench_baseline_path, bench_series_path, latest_bench_entry, read_bench_baseline, BenchRecord,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// The baseline records whose current counterpart falls below the gate
/// floor, as `(name, current, floor, baseline)` rows — empty when the
/// gate passes. A baseline name missing from the current records is an
/// error: silence must never pass the gate.
fn regressions(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    tolerance: f64,
) -> Result<Vec<(String, f64, f64, f64)>, String> {
    let mut out = Vec::new();
    for b in baseline {
        let c = current.iter().find(|c| c.name == b.name).ok_or_else(|| {
            format!(
                "baseline record `{}` has no counterpart in the current measurement — \
                 did harness_bench stop measuring it?",
                b.name
            )
        })?;
        let floor = b.cells_per_sec * (1.0 - tolerance);
        if c.cells_per_sec < floor {
            out.push((b.name.clone(), c.cells_per_sec, floor, b.cells_per_sec));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let update = args.iter().any(|a| a == "--update");
    let force = args.iter().any(|a| a == "--force");
    let require_all = args.iter().any(|a| a == "--all");
    args.retain(|a| a != "--update" && a != "--force" && a != "--all");
    if force && !update {
        // --force only qualifies --update; it never bypasses the gate
        // itself, and silently ignoring it would let CI believe it did.
        eprintln!("perf_gate: --force is only valid together with --update");
        return ExitCode::FAILURE;
    }

    let baseline_path = args.first().map(PathBuf::from).unwrap_or_else(bench_baseline_path);
    let series_path = args.get(1).map(PathBuf::from).unwrap_or_else(bench_series_path);

    let entry = match latest_bench_entry(&series_path) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("perf_gate: {e} (run `harness_bench` first)");
            return ExitCode::FAILURE;
        }
    };
    let current = entry.records;

    if update {
        // Refuse to quietly rebase a regression away: if the existing
        // baseline is readable and any current record falls below its
        // gate floor, updating would hide exactly what the gate exists
        // to catch. `--force` records the lower numbers deliberately.
        // A baseline name the current run no longer measures is exactly
        // what --update is for — drop those records from the check (not
        // from the refusal of the ones that *are* measured and
        // regressed) and let the rewrite proceed.
        if let Ok(old) = read_bench_baseline(&baseline_path) {
            let comparable: Vec<BenchRecord> =
                old.into_iter().filter(|b| current.iter().any(|c| c.name == b.name)).collect();
            let regressed = regressions(&comparable, &current, tolerance())
                .expect("every comparable record has a current counterpart");
            if !regressed.is_empty() && !force {
                for (name, cur, floor, base) in &regressed {
                    eprintln!(
                        "perf_gate: REFUSED — `{name}` current {cur:.2} cells/s regresses \
                         below the existing baseline's floor {floor:.2} cells/s \
                         (baseline {base:.2} in {}); fix the regression or pass --force \
                         to rebase anyway",
                        baseline_path.display()
                    );
                }
                return ExitCode::FAILURE;
            }
        }
        let json = serde_json::to_string_pretty(&current).expect("serialise");
        if let Err(e) = std::fs::write(&baseline_path, json + "\n") {
            eprintln!("perf_gate: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "perf_gate: baseline updated from series entry `{}` — {} record(s) ({})",
            entry.git,
            current.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match read_bench_baseline(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_gate: {e} (seed it with `perf_gate --update`)");
            return ExitCode::FAILURE;
        }
    };

    // Intersection gating: a baseline record this run did not measure
    // (e.g. the nightly-only full-size record on a quick lane) is
    // skipped — loudly, so the gap never reads as coverage. `--all`
    // turns the skip into a failure, and an empty intersection is a
    // failure in both modes: gating nothing must never pass.
    let (gated, skipped): (Vec<BenchRecord>, Vec<BenchRecord>) =
        baseline.into_iter().partition(|b| current.iter().any(|c| c.name == b.name));
    if !skipped.is_empty() {
        if require_all {
            for b in &skipped {
                eprintln!(
                    "perf_gate: FAIL — baseline record `{}` has no counterpart in the current \
                     measurement and --all requires every record (did harness_bench run without \
                     EKYA_BENCH_FULL, or stop measuring it?)",
                    b.name
                );
            }
            return ExitCode::FAILURE;
        }
        for b in &skipped {
            println!(
                "perf_gate: SKIP — baseline record `{}` was not measured in this run \
                 (the nightly lane gates it with --all)",
                b.name
            );
        }
    }
    if gated.is_empty() {
        eprintln!(
            "perf_gate: FAIL — no baseline record overlaps the current measurement; \
             nothing would be gated"
        );
        return ExitCode::FAILURE;
    }
    let baseline = gated;

    let tolerance = tolerance();
    for b in &baseline {
        if let Some(c) = current.iter().find(|c| c.name == b.name) {
            let ratio = c.cells_per_sec / b.cells_per_sec.max(1e-12);
            println!(
                "perf_gate: `{}` current {:.2} cells/s vs baseline {:.2} cells/s ({:+.1}%), \
                 floor {:.2} (tolerance {:.0}%)",
                b.name,
                c.cells_per_sec,
                b.cells_per_sec,
                (ratio - 1.0) * 100.0,
                b.cells_per_sec * (1.0 - tolerance),
                tolerance * 100.0
            );
        }
    }
    match regressions(&baseline, &current, tolerance) {
        Err(e) => {
            eprintln!("perf_gate: FAIL — {e}");
            ExitCode::FAILURE
        }
        Ok(regressed) if !regressed.is_empty() => {
            // Self-contained failure message: stderr alone (e.g. a CI
            // log grep) names the measurements and both files.
            for (name, cur, floor, base) in &regressed {
                eprintln!(
                    "perf_gate: FAIL — `{name}` current {cur:.2} cells/s ({}) is below floor \
                     {floor:.2} cells/s (baseline {base:.2} cells/s in {}, tolerance {:.0}%)",
                    series_path.display(),
                    baseline_path.display(),
                    tolerance * 100.0
                );
            }
            ExitCode::FAILURE
        }
        Ok(_) => {
            let skipped_note = if skipped.is_empty() {
                String::new()
            } else {
                format!(", {} skipped", skipped.len())
            };
            println!("perf_gate: OK ({} record(s) gated{skipped_note})", baseline.len());
            ExitCode::SUCCESS
        }
    }
}
