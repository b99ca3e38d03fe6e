//! Small statistics and output helpers: percentiles, medians and the
//! one-line JSON result the benchmark ends with.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank method.
/// `NaN`-free input is assumed; infinities (failed requests) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half of `values` (ranks from the first to the
/// third quartile): the interquartile mean. Unlike the median it does not
/// jump when the median sits on a knee of a two-mode distribution, and
/// unlike the mean it does not follow the few slowest samples.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The median over consecutive blocks of `block` samples of `stat` of
/// each block. A statistic over a whole run follows the run's single
/// worst stretch; the median over blocks reports the typical stretch. A
/// trailing partial block is dropped unless it is the only one.
pub fn per_block(values: &[f64], block: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let blocks: Vec<f64> = values.chunks_exact(block.max(1)).map(&stat).collect();
    if blocks.is_empty() {
        stat(values)
    } else {
        median(&blocks)
    }
}

/// The largest of `values` (`NaN` when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `f` over repeated calls until at least `budget` has elapsed
/// and `min_reps` calls were made; returns the median per-call time in
/// seconds. Each call is timed on its own, so one slow call (a page
/// fault, a preemption) moves the median by at most one rank.
pub fn time_median<F: FnMut()>(min_reps: usize, budget: Duration, mut f: F) -> f64 {
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < budget {
        let t = std::time::Instant::now();
        f();
        samples.push(secs(t.elapsed()));
    }
    median(&samples)
}

/// One named metric of a result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The run's result: the last line of standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Renders the one-line JSON object. Non-finite values (a failed
    /// request counts as an infinite latency) are written as `1e300`,
    /// since JSON has no infinity; such a run is never `correct`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 1e300 };
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
        let p99 = |b: &[f64]| quantile(b, 0.99);
        let two_blocks: Vec<f64> = (1..=100).chain(1..=100).map(f64::from).collect();
        assert_eq!(per_block(&two_blocks, 100, p99), 99.0);
        assert_eq!(per_block(&[1.0, 2.0, 3.0], 10, p99), 3.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 3.0, 0.0, 4.0, -50.0, 5.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric { name: "a", unit: "s", value: 0.25 },
                Metric { name: "b", unit: "ms", value: f64::INFINITY },
            ],
        };
        let line = out.to_json();
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("attempted"), Some(&serde::Value::I64(3)));
        assert!(!line.contains('\n'));
    }
}
