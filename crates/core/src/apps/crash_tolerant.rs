//! The crash-tolerant primary/backup baseline (§6.2).

use crate::apps::{gradient_step, maybe_evaluate};
use crate::{CoreError, CoreResult, Deployment, IterationTiming, SystemKind, TrainingTrace};
use garfield_aggregation::{build_gar, GarKind};

/// The strawman crash-fault-tolerant protocol the paper compares against:
/// the parameter server is replicated on `nps` machines, every replica
/// receives all workers' gradients and *averages* them, but workers read the
/// model only from the current primary. When the primary crashes (signalled by
/// a timeout), workers fail over to the next replica, whose model may lag by a
/// few updates — which is acceptable because SGD converges anyway.
pub struct CrashTolerantApp {
    deployment: Deployment,
    crash_primary_at: Option<usize>,
}

impl CrashTolerantApp {
    /// Wraps a deployment.
    pub fn new(deployment: Deployment) -> Self {
        CrashTolerantApp {
            deployment,
            crash_primary_at: None,
        }
    }

    /// Schedules a crash of the current primary at the given iteration, to
    /// exercise the fail-over path.
    pub fn with_primary_crash_at(mut self, iteration: usize) -> Self {
        self.crash_primary_at = Some(iteration);
        self
    }

    /// Access to the underlying deployment.
    pub fn deployment_mut(&mut self) -> &mut Deployment {
        &mut self.deployment
    }

    /// Index of the replica currently acting as primary (first live replica).
    pub fn primary(&self) -> usize {
        (0..self.deployment.server_count())
            .find(|&s| !self.deployment.server_crashed(s))
            .unwrap_or(0)
    }

    /// Runs the protocol and returns the trace observed at the primary path.
    ///
    /// # Errors
    ///
    /// Propagates configuration and runtime errors from the deployment, and
    /// returns [`CoreError::Net`] when every replica is down.
    pub fn run(&mut self) -> CoreResult<TrainingTrace> {
        let config = self.deployment.config().clone();
        config.validate(SystemKind::CrashTolerant)?;
        let quorum = config.gradient_quorum(SystemKind::CrashTolerant);
        let average = build_gar(&GarKind::Average, quorum, 0)?;
        let nps = self.deployment.server_count();
        let mut trace =
            TrainingTrace::new(SystemKind::CrashTolerant.as_str(), config.effective_batch());

        for iteration in 0..config.iterations {
            if self.crash_primary_at == Some(iteration) {
                let victim = self.primary();
                self.deployment.crash_server(victim);
            }
            let primary = self.primary();

            // Every live replica ingests all workers' gradients and averages them.
            let mut primary_round = None;
            for server in 0..nps {
                if self.deployment.server_crashed(server) {
                    continue;
                }
                let round = gradient_step(
                    &mut self.deployment,
                    server,
                    iteration,
                    quorum,
                    nps,
                    average.as_ref(),
                )?;
                if server == primary {
                    primary_round = Some(round);
                }
            }
            let round = primary_round.ok_or_else(|| {
                CoreError::Net(format!(
                    "crash-tolerant: all {nps} server replicas are down at iteration {iteration}"
                ))
            })?;

            // Workers fetch the model from the primary only; the backups'
            // pulls are off the critical path. A primary change costs one
            // extra model broadcast to inform the workers.
            let failover_penalty = if self.crash_primary_at == Some(iteration) {
                self.deployment.cost_model().parallel_pull_time(
                    self.deployment.dimension(),
                    config.nw,
                    config.device,
                )
            } else {
                0.0
            };

            trace.iterations.push(IterationTiming {
                computation: round.computation_time,
                communication: round.communication_time + failover_penalty,
                aggregation: self.deployment.aggregation_cost(quorum, false),
            });
            maybe_evaluate(
                &mut trace,
                &self.deployment,
                primary,
                iteration,
                round.mean_loss,
            );
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use garfield_attacks::AttackKind;

    fn config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 40;
        cfg.eval_every = 10;
        cfg
    }

    #[test]
    fn crash_tolerant_learns_without_faults() {
        let mut app = CrashTolerantApp::new(Deployment::new(config()).unwrap());
        let trace = app.run().unwrap();
        assert!(
            trace.final_accuracy() > 0.5,
            "accuracy {}",
            trace.final_accuracy()
        );
    }

    #[test]
    fn crash_tolerant_survives_a_primary_crash() {
        let mut app =
            CrashTolerantApp::new(Deployment::new(config()).unwrap()).with_primary_crash_at(10);
        let trace = app.run().unwrap();
        assert_eq!(
            app.primary(),
            1,
            "fail-over should promote the next replica"
        );
        assert!(
            trace.final_accuracy() > 0.5,
            "training should keep converging after fail-over, got {}",
            trace.final_accuracy()
        );
    }

    #[test]
    fn losing_the_last_replica_is_an_error_naming_the_iteration() {
        let mut cfg = config();
        cfg.nps = 1;
        let mut app = CrashTolerantApp::new(Deployment::new(cfg).unwrap()).with_primary_crash_at(1);
        match app.run() {
            Err(CoreError::Net(message)) => {
                assert!(message.contains("iteration 1"), "{message}");
            }
            other => panic!("expected a Net error, got {other:?}"),
        }
    }

    #[test]
    fn crash_tolerant_fails_to_learn_under_a_byzantine_attack() {
        // The paper's Fig. 5: crash tolerance is not Byzantine resilience.
        let mut cfg = config();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(AttackKind::Reversed);
        let mut app = CrashTolerantApp::new(Deployment::new(cfg).unwrap());
        let trace = app.run().unwrap();
        assert!(
            trace.final_accuracy() < 0.6,
            "averaging replicas should not survive a reversed-gradient attack, got {}",
            trace.final_accuracy()
        );
    }

    #[test]
    fn crash_tolerant_costs_more_communication_than_ssmw() {
        let cfg = config();
        let crash = CrashTolerantApp::new(Deployment::new(cfg.clone()).unwrap())
            .run()
            .unwrap();
        let ssmw = crate::run_system(&cfg, SystemKind::Ssmw).unwrap();
        assert!(crash.mean_timing().communication > ssmw.mean_timing().communication);
    }
}
