//! One-shot training comparisons (Fig 2b).
//!
//! The motivation experiment: on one stream, compare per-window accuracy
//! of (1) a model continuously retrained on the most recent data, (2) a
//! model trained once on the stream's first windows, and (3) a model
//! trained once on *other* streams ("other cities" in the Cityscapes
//! analysis). The paper reports continuous retraining winning by up to
//! 22%.

use ekya_core::{RetrainConfig, RetrainExecution, TrainHyper};
use ekya_nn::cost::CostModel;
use ekya_nn::data::{DataView, Sample};
use ekya_nn::golden::{distill_labels, OracleTeacher};
use ekya_nn::mlp::{Mlp, MlpArch};
use ekya_video::{DatasetKind, DatasetSpec, VideoDataset};
use serde::{Deserialize, Serialize};

/// Per-window accuracies of the three training options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2bResult {
    /// Evaluated window indices (the second half of the stream).
    pub windows: Vec<usize>,
    /// Continuous retraining on the most recent window's data.
    pub continuous: Vec<f64>,
    /// Trained once on the first half of this stream's windows.
    pub once_first_half: Vec<f64>,
    /// Trained once on other streams' data.
    pub other_streams: Vec<f64>,
}

impl Fig2bResult {
    /// Maximum advantage of continuous retraining over the best one-shot
    /// option in any window (the paper's "up to 22%" number).
    pub fn max_advantage(&self) -> f64 {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, _)| self.continuous[i] - self.once_first_half[i].max(self.other_streams[i]))
            .fold(f64::MIN, f64::max)
    }

    /// Mean advantage over the evaluation windows.
    pub fn mean_advantage(&self) -> f64 {
        let n = self.windows.len().max(1) as f64;
        self.windows
            .iter()
            .enumerate()
            .map(|(i, _)| self.continuous[i] - self.once_first_half[i].max(self.other_streams[i]))
            .sum::<f64>()
            / n
    }
}

fn full_config() -> RetrainConfig {
    RetrainConfig {
        epochs: 30,
        batch_size: 32,
        last_layer_neurons: 16,
        layers_trained: 3,
        data_fraction: 1.0,
    }
}

fn train_on(base: &Mlp, pool: &[Sample], seed: u64) -> Mlp {
    let mut exec = RetrainExecution::new(base, pool, full_config(), TrainHyper::default(), seed);
    exec.run_to_completion();
    let mut m = exec.model().clone();
    m.set_layers_trained(usize::MAX);
    m
}

/// Runs the Fig 2b experiment on `num_windows` windows of one stream of
/// `kind` (evaluating the second half).
pub fn run_fig2b(
    kind: DatasetKind,
    num_windows: usize,
    seed: u64,
    _cost: &CostModel,
) -> Fig2bResult {
    assert!(num_windows >= 4, "need at least 4 windows");
    let ds = VideoDataset::generate(DatasetSpec::new(kind, num_windows, seed));
    let half = num_windows / 2;
    let num_classes = ds.num_classes;
    let mut teacher = OracleTeacher::new(0.02, num_classes, seed ^ 0xC0);

    let base = Mlp::new(MlpArch::edge(ds.feature_dim, num_classes, 16), seed);

    // (2) Trained once on the stream's first half.
    let first_half_pool = distill_labels(&mut teacher, &ds.pooled_train_data(0..half));
    let once_model = train_on(&base, &first_half_pool, seed ^ 1);

    // (3) Trained once on other streams ("other cities"): three other
    // streams of the same kind with different seeds.
    let mut other_pool = Vec::new();
    for i in 1..=3u64 {
        let other =
            VideoDataset::generate(DatasetSpec::new(kind, half, seed.wrapping_add(i * 5000)));
        other_pool.extend(other.pooled_train_data(0..half));
    }
    let other_pool = distill_labels(&mut teacher, &other_pool);
    let other_model = train_on(&base, &other_pool, seed ^ 2);

    // (1) Continuous: warm on the first half, then retrain per window on
    // the previous window's data.
    let mut continuous_model = train_on(&base, &first_half_pool, seed ^ 3);

    let mut result = Fig2bResult {
        windows: Vec::new(),
        continuous: Vec::new(),
        once_first_half: Vec::new(),
        other_streams: Vec::new(),
    };
    for w_idx in half..num_windows {
        // Retrain continuous on the most recent (previous) window.
        let prev = distill_labels(&mut teacher, &ds.window(w_idx - 1).train_pool);
        continuous_model = train_on(&continuous_model, &prev, seed.wrapping_add(w_idx as u64));

        let val = DataView::new(&ds.window(w_idx).val, num_classes);
        result.windows.push(w_idx);
        result.continuous.push(continuous_model.accuracy(val));
        result.once_first_half.push(once_model.accuracy(val));
        result.other_streams.push(other_model.accuracy(val));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_wins_on_average() {
        let r = run_fig2b(DatasetKind::Cityscapes, 10, 81, &CostModel::default());
        assert_eq!(r.windows.len(), 5);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&r.continuous) > mean(&r.once_first_half),
            "continuous {:.3} must beat one-shot {:.3}",
            mean(&r.continuous),
            mean(&r.once_first_half)
        );
        assert!(
            mean(&r.continuous) > mean(&r.other_streams),
            "continuous {:.3} must beat other-streams {:.3}",
            mean(&r.continuous),
            mean(&r.other_streams)
        );
        assert!(r.max_advantage() > 0.0);
    }

    #[test]
    fn other_streams_training_is_weakest_or_close() {
        // Training on other cities should generally not beat training on
        // this stream's own history (Fig 2b's ordering).
        let r = run_fig2b(DatasetKind::Cityscapes, 10, 82, &CostModel::default());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&r.other_streams) <= mean(&r.once_first_half) + 0.05);
    }
}
