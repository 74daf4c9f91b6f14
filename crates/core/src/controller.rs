//! The Controller: builds deployments and launches experiments (§3.2).
//!
//! In the paper the controller parses the cluster description, starts every
//! node over SSH and passes the experiment parameters along. Here the cluster
//! is simulated, so the controller's job reduces to validating a
//! configuration, instantiating the corresponding [`Deployment`] and running
//! the requested [`SystemKind`]'s training loop. The controller is also the
//! **sim** [`Executor`]: real math, simulated time.

use crate::{CoreResult, Deployment, Executor, ExperimentConfig, SystemKind, TrainingTrace};

/// Builds and runs Garfield experiments from configurations; the analytic,
/// single-threaded [`Executor`] (`"sim"`).
#[derive(Debug, Clone)]
pub struct Controller {
    config: ExperimentConfig,
}

impl Controller {
    /// Creates a controller for the given experiment configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Controller { config }
    }

    /// The configuration this controller launches.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Instantiates the deployment for the configured experiment.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`Deployment::new`].
    pub fn deploy(&self) -> CoreResult<Deployment> {
        Deployment::new(self.config.clone())
    }

    /// Runs the named system on a fresh deployment and returns its trace,
    /// resolving through the one-place [`run_system`](crate::run_system)
    /// registry.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (invalid `(n, f)` pairs for the chosen
    /// GARs, too few nodes, …) or runtime errors from the deployment.
    pub fn run(&self, system: SystemKind) -> CoreResult<TrainingTrace> {
        crate::system::run_system(&self.config, system)
    }

    /// Runs every requested system on identical configurations, returning
    /// `(system, trace)` pairs — the building block of the comparison figures.
    ///
    /// # Errors
    ///
    /// Fails on the first system whose run fails.
    pub fn run_all(&self, systems: &[SystemKind]) -> CoreResult<Vec<(SystemKind, TrainingTrace)>> {
        systems
            .iter()
            .map(|&system| self.run(system).map(|trace| (system, trace)))
            .collect()
    }
}

impl Executor for Controller {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, system: SystemKind) -> CoreResult<TrainingTrace> {
        Controller::run(self, system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_runs_every_system_on_a_small_config() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 8;
        cfg.eval_every = 4;
        let controller = Controller::new(cfg);
        for system in SystemKind::all() {
            let trace = controller.run(system).unwrap();
            assert_eq!(trace.len(), 8, "{system} should record every iteration");
            assert!(trace.updates_per_second() > 0.0);
        }
    }

    #[test]
    fn run_all_preserves_order_and_configs() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 4;
        cfg.eval_every = 0;
        let controller = Controller::new(cfg);
        let systems = [SystemKind::Vanilla, SystemKind::Ssmw];
        let results = controller.run_all(&systems).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, SystemKind::Vanilla);
        assert_eq!(results[1].0, SystemKind::Ssmw);
        assert_eq!(controller.config().iterations, 4);
    }

    #[test]
    fn invalid_configuration_is_rejected_before_deployment() {
        let mut cfg = ExperimentConfig::small();
        cfg.fw = 3; // needs 9 inputs for Multi-Krum, nw is 7
        let controller = Controller::new(cfg);
        assert!(controller.run(SystemKind::Msmw).is_err());
    }
}
