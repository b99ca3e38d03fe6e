//! Unit tests of [`EdgeDaemon`](crate::EdgeDaemon)'s window loop end to
//! end: retraining lifts accuracy, serving stays live while trainers
//! run, and checkpoints swap into serving. Test-only; the daemon itself
//! lives in [`serve`](crate::serve).

mod tests {
    use crate::{EdgeDaemon, ServeConfig};
    use ekya_video::{DatasetKind, StreamId, StreamSet};

    fn admit_all(daemon: &mut EdgeDaemon, streams: &StreamSet) -> Vec<StreamId> {
        streams.iter().map(|(_, ds)| daemon.admit(ds.clone()).expect("within capacity")).collect()
    }

    #[test]
    fn server_runs_windows_and_improves() {
        let streams = StreamSet::generate(DatasetKind::UrbanTraffic, 2, 3, 61);
        let mut daemon = EdgeDaemon::new(ServeConfig { seed: 5, ..ServeConfig::new(2.0) });
        let ids = admit_all(&mut daemon, &streams);
        // Start accuracy: what each stream serves on window 0 before any
        // retraining, measured through the live serving path.
        let client = daemon.client();
        let start: Vec<f64> = streams
            .iter()
            .zip(&ids)
            .map(|((_, ds), &id)| {
                let val = &ds.window(0).val;
                let (preds, _) = client.classify(id, val.clone()).expect("admitted stream serves");
                let correct = preds.iter().zip(val).filter(|(p, s)| **p == s.y).count();
                correct as f64 / val.len() as f64
            })
            .collect();

        let w0 = daemon.run_window();
        assert_eq!(w0.len(), 2);
        // Bootstrap window: models start random, so retraining should run
        // and end accuracy should beat start accuracy.
        for (r, start) in w0.iter().zip(&start) {
            assert!(r.retrained, "bootstrap window should retrain");
            assert!(
                r.accuracy > *start,
                "retraining should improve: {start:.3} -> {:.3}",
                r.accuracy
            );
        }
        let w1 = daemon.run_window();
        assert_eq!(daemon.window_idx(), 2);
        assert!(w1.iter().all(|r| r.accuracy > 0.3));
        daemon.shutdown();
    }

    #[test]
    fn inference_stays_live_during_retraining() {
        let streams = StreamSet::generate(DatasetKind::Cityscapes, 2, 2, 67);
        let mut daemon = EdgeDaemon::new(ServeConfig { seed: 7, ..ServeConfig::new(2.0) });
        admit_all(&mut daemon, &streams);
        let reports = daemon.run_window();
        let served: u64 = reports.iter().map(|r| r.live_served_during_training).sum();
        assert!(
            served > 0,
            "inference shards must keep serving while trainers run (served {served})"
        );
        daemon.shutdown();
    }

    #[test]
    fn checkpoints_swap_into_serving() {
        let streams = StreamSet::generate(DatasetKind::Waymo, 1, 2, 71);
        let mut daemon = EdgeDaemon::new(ServeConfig {
            seed: 9,
            checkpoint_every: Some(3),
            ..ServeConfig::new(1.0)
        });
        admit_all(&mut daemon, &streams);
        let reports = daemon.run_window();
        // The bootstrap retraining improves monotonically, so at least one
        // checkpoint (or the final model) must have swapped in.
        assert!(reports[0].checkpoints_swapped >= 1);
        daemon.shutdown();
    }
}
