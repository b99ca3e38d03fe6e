//! Unit tests of one [`InferenceShard`](crate::InferenceShard)'s serving
//! contract: classification, live counters, hot-swaps and model reads.
//! Test-only; the shard itself lives in [`serve`](crate::serve).

mod tests {
    use crate::{InferenceShard, ShardMsg, ShardReply};
    use ekya_actors::{spawn_bounded, ActorHandle};
    use ekya_nn::data::Sample;
    use ekya_nn::mlp::{Mlp, MlpArch};
    use std::sync::Arc;
    use std::time::Duration;

    /// A shard with one admitted stream (id 0) serving a 4-feature,
    /// 3-class model.
    fn shard() -> ActorHandle<InferenceShard> {
        let h = spawn_bounded("inf", InferenceShard::default(), 16);
        let model = Arc::new(Mlp::new(MlpArch::edge(4, 3, 8), 1));
        assert!(matches!(
            h.ask(ShardMsg::Admit { stream: 0, model, num_classes: 3 }).unwrap(),
            ShardReply::Admitted
        ));
        h
    }

    fn classify(h: &ActorHandle<InferenceShard>, x: Vec<f32>) -> (usize, u64) {
        let frames = vec![Sample::new(x, 0)];
        let ShardReply::Predictions { preds, version } =
            h.ask(ShardMsg::ClassifyBatch { stream: 0, frames }).unwrap()
        else {
            panic!("wrong reply")
        };
        assert_eq!(preds.len(), 1);
        (preds[0], version)
    }

    fn live(h: &ActorHandle<InferenceShard>) -> crate::ShardLive {
        let ShardReply::Live(st) = h.ask(ShardMsg::LiveStats).unwrap() else {
            panic!("wrong reply")
        };
        st
    }

    #[test]
    fn classify_and_stats() {
        let h = shard();
        for _ in 0..5 {
            let (p, version) = classify(&h, vec![0.1; 4]);
            assert!(p < 3);
            assert_eq!(version, 0);
        }
        let st = live(&h);
        assert_eq!(st.served, 5);
        assert_eq!(st.swaps, 0);
        h.stop();
    }

    #[test]
    fn swap_changes_predictions_source() {
        let h = shard();
        let other = Mlp::new(MlpArch::edge(4, 3, 8), 99);
        let x = vec![0.5, -0.5, 0.3, 0.1];
        let expected = other.predict(&[Sample::new(x.clone(), 0)])[0];
        let reply = h
            .ask(ShardMsg::Swap { stream: 0, model: Arc::new(other), reload: Duration::ZERO })
            .unwrap();
        assert!(matches!(reply, ShardReply::Swapped { version: 1 }));
        assert_eq!(classify(&h, x), (expected, 1));
        assert_eq!(live(&h).swaps, 1);
        h.stop();
    }

    #[test]
    fn get_model_roundtrip() {
        let h = shard();
        let ShardReply::Model { model, version } = h.ask(ShardMsg::GetModel { stream: 0 }).unwrap()
        else {
            panic!("wrong reply")
        };
        assert_eq!(model.arch().num_classes, 3);
        assert_eq!(version, 0);
        h.stop();
    }
}
