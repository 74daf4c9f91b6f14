//! The one-place system registry.
//!
//! Everything that varies *by system* — which loop drives a simulated run,
//! which GAR a server builds on the gradient path, which systems the live
//! runtime can host, and how a `--system` CLI argument reads — resolves
//! through this module. Adding a system means extending the enums here (and
//! giving it a loop if its topology is new); no other crate carries a
//! `SystemKind` match for these decisions.

use crate::apps::{run_single_server, CrashTolerantApp, DecentralizedApp, MsmwApp};
use crate::{CoreError, CoreResult, Deployment, ExperimentConfig, SystemKind, TrainingTrace};
use garfield_aggregation::GarKind;
use std::str::FromStr;

/// Runs `system` on a fresh deployment of `config` (the simulated substrate)
/// and returns its training trace.
///
/// This is the single constructor the [`Controller`](crate::Controller) and
/// every bench/example path resolve through. The single-server systems
/// (vanilla, SSMW, AggregaThor, speculative) share one loop; the replicated
/// and peer-to-peer topologies keep their own.
///
/// # Errors
///
/// Returns configuration errors (invalid `(n, f)` pairs for the chosen GARs,
/// too few nodes, …) or runtime errors from the deployment.
pub fn run_system(config: &ExperimentConfig, system: SystemKind) -> CoreResult<TrainingTrace> {
    config.validate(system)?;
    let deploy = || Deployment::new(config.clone());
    match system {
        SystemKind::Vanilla
        | SystemKind::Ssmw
        | SystemKind::AggregaThor
        | SystemKind::Speculative => run_single_server(&mut deploy()?, system),
        SystemKind::CrashTolerant => CrashTolerantApp::new(deploy()?).run(),
        SystemKind::Msmw => MsmwApp::new(deploy()?).run(),
        SystemKind::Decentralized => DecentralizedApp::from_config(config.clone())?.run(),
    }
}

/// AggregaThor's communication-time factor relative to Garfield's SSMW: the
/// older runtime's shared-graph design and serialization path add overhead
/// to every pull (the paper's Fig. 4a / Fig. 8a show Garfield slightly ahead
/// for those reasons).
pub(crate) const AGGREGATHOR_COMM_OVERHEAD: f64 = 1.25;

/// The GAR a server of `system` builds on its gradient path, with the `f` it
/// must tolerate: the single source of truth shared by the simulated apps and
/// the live runtime's `ServerActor`.
///
/// * vanilla and the crash-tolerant strawman average (Byzantine workers are
///   out of their model);
/// * AggregaThor is pinned to Multi-Krum like the original system;
/// * the speculative system wraps the configured robust rule as the fallback
///   of a [`GarKind::Speculative`] composite;
/// * everything else aggregates with the configured `gradient_gar`.
pub fn gradient_gar(system: SystemKind, config: &ExperimentConfig) -> (GarKind, usize) {
    match system {
        SystemKind::Vanilla | SystemKind::CrashTolerant => (GarKind::Average, 0),
        SystemKind::AggregaThor => (GarKind::MultiKrum, config.fw),
        SystemKind::Speculative => (
            GarKind::Speculative {
                fallback: Box::new(config.gradient_gar.clone()),
            },
            config.fw,
        ),
        SystemKind::Ssmw | SystemKind::Msmw | SystemKind::Decentralized => {
            (config.gradient_gar.clone(), config.fw)
        }
    }
}

/// Whether the live (threaded / multi-process) runtime can host `system`.
///
/// The strawmen (AggregaThor, crash-tolerant) and the decentralized topology
/// only exist on the simulated substrate.
pub fn live_supported(system: SystemKind) -> bool {
    matches!(
        system,
        SystemKind::Vanilla | SystemKind::Ssmw | SystemKind::Msmw | SystemKind::Speculative
    )
}

/// A parsed `--system` argument: the system, plus the gradient-GAR override
/// the `speculative(<gar>)` form carries.
///
/// `"ssmw"` → SSMW with the config's GARs; `"speculative"` → speculative
/// falling back to the config's `gradient_gar`; `"speculative(multi-krum)"` →
/// speculative with the config's `gradient_gar` overridden to Multi-Krum.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The system to run.
    pub system: SystemKind,
    /// Gradient-GAR override carried by the argument, if any.
    pub gradient_gar: Option<GarKind>,
}

impl SystemSpec {
    /// Writes the override (if any) into `config`.
    pub fn apply(&self, config: &mut ExperimentConfig) {
        if let Some(gar) = &self.gradient_gar {
            config.gradient_gar = gar.clone();
        }
    }
}

impl std::fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.gradient_gar {
            Some(gar) => write!(f, "{}({gar})", self.system),
            None => write!(f, "{}", self.system),
        }
    }
}

impl FromStr for SystemSpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if let Some(inner) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("speculative")
            .filter(|rest| !rest.is_empty())
        {
            let gar = inner
                .trim()
                .strip_prefix('(')
                .and_then(|r| r.strip_suffix(')'))
                .ok_or_else(|| {
                    CoreError::InvalidConfig(format!(
                        "unknown system '{trimmed}' (speculative takes its fallback as \
                         'speculative(<gar>)')"
                    ))
                })?
                .parse::<GarKind>()
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
            if matches!(gar, GarKind::Average | GarKind::Speculative { .. }) {
                return Err(CoreError::InvalidConfig(format!(
                    "speculative needs a primitive Byzantine-resilient fallback, not '{gar}'"
                )));
            }
            return Ok(SystemSpec {
                system: SystemKind::Speculative,
                gradient_gar: Some(gar),
            });
        }
        let system = trimmed
            .parse::<SystemKind>()
            .map_err(CoreError::InvalidConfig)?;
        Ok(SystemSpec {
            system,
            gradient_gar: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_system() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 2;
        cfg.eval_every = 0;
        for system in SystemKind::all() {
            let trace = run_system(&cfg, system).unwrap();
            assert_eq!(trace.system, system.as_str());
            assert_eq!(trace.len(), 2);
        }
    }

    #[test]
    fn gradient_gar_selection_matches_each_systems_contract() {
        let cfg = ExperimentConfig::small();
        assert_eq!(
            gradient_gar(SystemKind::Vanilla, &cfg),
            (GarKind::Average, 0)
        );
        assert_eq!(
            gradient_gar(SystemKind::CrashTolerant, &cfg),
            (GarKind::Average, 0)
        );
        assert_eq!(
            gradient_gar(SystemKind::AggregaThor, &cfg),
            (GarKind::MultiKrum, cfg.fw)
        );
        assert_eq!(
            gradient_gar(SystemKind::Ssmw, &cfg),
            (cfg.gradient_gar.clone(), cfg.fw)
        );
        assert_eq!(
            gradient_gar(SystemKind::Speculative, &cfg),
            (
                GarKind::Speculative {
                    fallback: Box::new(cfg.gradient_gar.clone())
                },
                cfg.fw
            )
        );
    }

    #[test]
    fn live_support_covers_the_runtime_topologies() {
        assert!(live_supported(SystemKind::Vanilla));
        assert!(live_supported(SystemKind::Ssmw));
        assert!(live_supported(SystemKind::Msmw));
        assert!(live_supported(SystemKind::Speculative));
        assert!(!live_supported(SystemKind::AggregaThor));
        assert!(!live_supported(SystemKind::CrashTolerant));
        assert!(!live_supported(SystemKind::Decentralized));
    }

    #[test]
    fn system_specs_parse_apply_and_round_trip() {
        let plain: SystemSpec = "msmw".parse().unwrap();
        assert_eq!(plain.system, SystemKind::Msmw);
        assert_eq!(plain.gradient_gar, None);
        assert_eq!(plain.to_string(), "msmw");

        let bare: SystemSpec = "speculative".parse().unwrap();
        assert_eq!(bare.system, SystemKind::Speculative);
        assert_eq!(bare.gradient_gar, None);

        let spec: SystemSpec = "speculative(median)".parse().unwrap();
        assert_eq!(spec.system, SystemKind::Speculative);
        assert_eq!(spec.gradient_gar, Some(GarKind::Median));
        assert_eq!(spec.to_string(), "speculative(median)");
        assert_eq!(spec.to_string().parse::<SystemSpec>().unwrap(), spec);

        let mut cfg = ExperimentConfig::small();
        spec.apply(&mut cfg);
        assert_eq!(cfg.gradient_gar, GarKind::Median);

        assert!("speculative(average)".parse::<SystemSpec>().is_err());
        assert!("speculative(speculative(median))"
            .parse::<SystemSpec>()
            .is_err());
        assert!("speculative(".parse::<SystemSpec>().is_err());
        assert!("warp-drive".parse::<SystemSpec>().is_err());
    }
}
