//! Partition invariance of the sharded scale-scene kernel.
//!
//! The contract `repro scale` and CI rely on: every metric of a scene
//! run except the (partition-dependent) trace hash is byte-identical for
//! every shard count, and so is the observer's merged event stream.

use proptest::prelude::*;
use sdds::{run_scale, run_scale_observed, ScaleSceneConfig};
use sdds_runtime::ShardPolicy;
use simkit::shard::merge_events;

/// The digest with its partition-dependent fields (`shards`,
/// `trace_hash`) removed, for comparisons across different shard counts.
fn partition_free(digest: &str) -> String {
    let shards = digest
        .find(",\"shards\":")
        .expect("digest has a shards field");
    let after = shards
        + 1
        + digest[shards + 1..]
            .find(',')
            .expect("a field follows shards");
    let hash = digest
        .find(",\"trace_hash\"")
        .expect("digest has a trace_hash field");
    format!("{}{}}}", &digest[..shards], &digest[after..hash])
}

#[test]
fn mid_size_scene_metrics_survive_any_partition() {
    let auto = run_scale(&ScaleSceneConfig {
        factor: 3.0,
        ..ScaleSceneConfig::default()
    })
    .expect("scene runs");
    assert!(auto.events > 0 && auto.clients > 0);
    let digest = auto.digest();
    assert!(digest.contains("\"schema\":\"sdds-scale-digest-v1\""));
    let reference = partition_free(&digest);
    for shards in [1, 5, 13] {
        let cfg = ScaleSceneConfig {
            factor: 3.0,
            shards: ShardPolicy::Fixed(shards),
            ..ScaleSceneConfig::default()
        };
        let digest = partition_free(&run_scale(&cfg).expect("scene runs").digest());
        assert_eq!(digest, reference, "metrics diverged at shards={shards}");
    }
}

/// Renders a merged shard-event stream as one line per event, so runs
/// can be compared byte-for-byte rather than structurally.
fn render_stream(obs: &[simkit::shard::ShardObs]) -> String {
    let mut out = String::new();
    for e in merge_events(obs) {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            e.at.as_micros(),
            e.kind,
            e.slot,
            e.src,
            e.seq
        ));
    }
    out
}

#[test]
fn merged_observer_stream_is_byte_identical_across_partitions() {
    // Telemetry-on runs: the observer's merged span stream from any
    // sharded run must be byte-identical to the single-shard stream, and
    // the run's own digest must be unchanged by observation.
    let base = ScaleSceneConfig {
        factor: 1.0,
        shards: ShardPolicy::Fixed(1),
        ..ScaleSceneConfig::default()
    };
    let (one, obs_one) = run_scale_observed(&base).expect("scene runs");
    let reference = render_stream(&obs_one);
    assert!(!reference.is_empty());
    assert_eq!(
        one.digest(),
        run_scale(&base).expect("scene runs").digest(),
        "observer must not perturb the simulated outcome"
    );
    for shards in [7usize, 13] {
        let cfg = ScaleSceneConfig {
            factor: 1.0,
            shards: ShardPolicy::Fixed(shards),
            ..ScaleSceneConfig::default()
        };
        let (r, obs) = run_scale_observed(&cfg).expect("scene runs");
        assert_eq!(obs.len(), shards);
        assert_eq!(
            render_stream(&obs),
            reference,
            "merged stream diverged at shards={shards}"
        );
        // Per-epoch deltas reconcile with the kernel's event counters.
        let epoch_events: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.events).sum();
        assert_eq!(epoch_events, r.events);
    }
}

proptest! {
    // Full scene runs per case: keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any small scene and shard count, the partition-free digest
    /// equals the single-shard one.
    #[test]
    fn any_partition_agrees_with_one_shard(
        scale in 1u32..8,
        shards in 1usize..16,
    ) {
        let factor = f64::from(scale) * 0.25;
        let base = ScaleSceneConfig {
            factor,
            shards: ShardPolicy::Fixed(1),
            ..ScaleSceneConfig::default()
        };
        let reference = partition_free(&run_scale(&base).expect("scene runs").digest());
        let cfg = ScaleSceneConfig {
            factor,
            shards: ShardPolicy::Fixed(shards),
            ..ScaleSceneConfig::default()
        };
        let digest = partition_free(&run_scale(&cfg).expect("scene runs").digest());
        prop_assert_eq!(digest, reference);
    }
}
