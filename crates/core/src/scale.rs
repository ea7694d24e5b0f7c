//! Datacenter-scale scene runs: configuration and entry point.
//!
//! The `repro scale` experiment grows the simulated system with a scale
//! factor `F` (client processes and I/O groups grow linearly, shared-link
//! fan-in grows with `F`) and runs it on the sharded time-domain kernel.
//! [`ScaleSceneConfig`] picks the factor, shard policy and epoch window;
//! [`run_scale`] validates, builds the scene and runs it, returning its
//! [`SceneResult`].

use sdds_runtime::{SceneResult, ShardPolicy};
use sdds_workloads::{scaled_scene, SceneSpec};
use simkit::SimDuration;

use crate::error::{ConfigError, SddsError};

/// Configuration of one scale-scene run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSceneConfig {
    /// Scene scale factor (`1.0` ≈ 32 clients / 128 disks, `100.0` ≈
    /// 3.2k clients / 12.8k disks).
    pub factor: f64,
    /// How many shards to partition the scene into.
    pub shards: ShardPolicy,
    /// Epoch window; `None` uses the scene's hop latency (the largest
    /// window the lookahead contract allows).
    pub epoch: Option<SimDuration>,
}

impl Default for ScaleSceneConfig {
    fn default() -> Self {
        ScaleSceneConfig {
            factor: 1.0,
            shards: ShardPolicy::Auto,
            epoch: None,
        }
    }
}

impl ScaleSceneConfig {
    /// Rejects non-finite, non-positive or absurd scale factors and a
    /// zero epoch window before any scene is built.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.factor.is_finite() || self.factor <= 0.0 || self.factor > 100_000.0 {
            return Err(ConfigError::BadScaleFactor {
                field: "scene scale",
                value: self.factor,
            });
        }
        if let Some(e) = self.epoch {
            if e.is_zero() {
                return Err(ConfigError::BadScaleFactor {
                    field: "epoch window (us)",
                    value: 0.0,
                });
            }
        }
        Ok(())
    }

    /// The scene spec this configuration generates.
    #[must_use]
    pub fn spec(&self) -> SceneSpec {
        scaled_scene(self.factor)
    }

    /// The effective epoch window for `spec`.
    #[must_use]
    pub fn epoch_for(&self, spec: &SceneSpec) -> SimDuration {
        self.epoch.unwrap_or(spec.hop_latency)
    }
}

/// Builds the scaled scene and runs it on the calling thread.
///
/// The returned metrics are a pure function of `cfg`; wall-clock
/// throughput is the caller's to measure around this call.
pub fn run_scale(cfg: &ScaleSceneConfig) -> Result<SceneResult, SddsError> {
    cfg.validate().map_err(SddsError::Config)?;
    let spec = cfg.spec();
    let window = cfg.epoch_for(&spec);
    sdds_runtime::run_scene(&spec, cfg.shards, window, 1).map_err(|source| SddsError::Scene {
        scale: cfg.factor,
        source,
    })
}

/// Like [`run_scale`], but with the sharded kernel's per-shard observer
/// enabled: additionally returns one [`simkit::shard::ShardObs`] per
/// shard for load-imbalance accounting. The metrics are bitwise
/// identical to [`run_scale`].
pub fn run_scale_observed(
    cfg: &ScaleSceneConfig,
) -> Result<(SceneResult, Vec<simkit::shard::ShardObs>), SddsError> {
    cfg.validate().map_err(SddsError::Config)?;
    let spec = cfg.spec();
    let window = cfg.epoch_for(&spec);
    sdds_runtime::run_scene_observed(&spec, cfg.shards, window, 1).map_err(|source| {
        SddsError::Scene {
            scale: cfg.factor,
            source,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_runtime::SceneError;

    /// The process-wide `--jobs` setting sizes the experiment pool only;
    /// the scene runs on the calling thread and never reads it.
    #[test]
    fn default_config_runs_and_matches_across_jobs() {
        let cfg = ScaleSceneConfig {
            factor: 0.2,
            ..ScaleSceneConfig::default()
        };
        simkit::pool::set_jobs(1);
        let a = run_scale(&cfg).unwrap();
        simkit::pool::set_jobs(4);
        let b = run_scale(&cfg).unwrap();
        simkit::pool::set_jobs(0);
        assert_eq!(a.digest(), b.digest());
        assert!(a.events > 0);
    }

    #[test]
    fn bad_factor_is_a_config_error() {
        for f in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e9] {
            let cfg = ScaleSceneConfig {
                factor: f,
                ..ScaleSceneConfig::default()
            };
            match run_scale(&cfg) {
                Err(e @ SddsError::Config(_)) => assert_eq!(e.exit_code(), 3),
                other => panic!("factor {f}: expected config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_epoch_is_a_scene_error() {
        let cfg = ScaleSceneConfig {
            factor: 0.1,
            epoch: Some(SimDuration::from_secs(1)),
            ..ScaleSceneConfig::default()
        };
        match run_scale(&cfg) {
            Err(
                e @ SddsError::Scene {
                    source: SceneError::BadEpoch { .. },
                    ..
                },
            ) => {
                assert_eq!(e.exit_code(), 6);
            }
            other => panic!("expected BadEpoch, got {other:?}"),
        }
    }
}
