//! MSMW — Multiple Servers, Multiple Workers (§5.2, Listing 2).

use crate::apps::{gradient_step, maybe_evaluate};
use crate::{AlignmentSample, CoreResult, Deployment, IterationTiming, SystemKind, TrainingTrace};
use garfield_aggregation::build_gar;

/// The fully Byzantine setting: the parameter server is replicated on `nps`
/// machines, up to `fps` of which may be Byzantine, in addition to up to `fw`
/// Byzantine workers. Each replica robustly aggregates worker gradients,
/// applies the update, then pulls its peers' models and robustly aggregates
/// those too to keep the replicas from diverging (ByzSGD-style).
pub struct MsmwApp {
    deployment: Deployment,
    alignment_every: usize,
    alignment: Vec<AlignmentSample>,
}

impl MsmwApp {
    /// Wraps a deployment.
    pub fn new(deployment: Deployment) -> Self {
        MsmwApp {
            deployment,
            alignment_every: 0,
            alignment: Vec::new(),
        }
    }

    /// Enables recording of the parameter-vector alignment study (Table 2)
    /// every `every` iterations.
    pub fn with_alignment_sampling(mut self, every: usize) -> Self {
        self.alignment_every = every;
        self
    }

    /// Access to the underlying deployment.
    pub fn deployment_mut(&mut self) -> &mut Deployment {
        &mut self.deployment
    }

    /// The alignment samples recorded during the last run.
    pub fn alignment_samples(&self) -> &[AlignmentSample] {
        &self.alignment
    }

    /// Runs the training loop of Listing 2 and returns the trace of the first
    /// *honest* replica (the paper reports the fastest correct machine).
    ///
    /// # Errors
    ///
    /// Propagates configuration and runtime errors from the deployment.
    pub fn run(&mut self) -> CoreResult<TrainingTrace> {
        let config = self.deployment.config().clone();
        config.validate(SystemKind::Msmw)?;
        let gradient_quorum = config.gradient_quorum(SystemKind::Msmw);
        let model_quorum = config.model_quorum();
        let gradient_gar = build_gar(&config.gradient_gar, gradient_quorum, config.fw)?;
        let nps = self.deployment.server_count();
        let honest_servers = nps - config.actual_byzantine_servers.min(nps);
        let mut trace = TrainingTrace::new(SystemKind::Msmw.as_str(), config.effective_batch());
        self.alignment.clear();

        for iteration in 0..config.iterations {
            let mut observer_timing = IterationTiming::default();
            let mut observer_loss = 0.0f32;

            // Phase 1 — every *honest* replica pulls gradients, aggregates and
            // updates its local state. All replicas run this phase "in
            // parallel" (before any of them serves its new model), matching
            // the real deployment.
            for server in 0..honest_servers {
                // gradients = ps.get_gradients(i, q); update_model(gar(gradients))
                let round = gradient_step(
                    &mut self.deployment,
                    server,
                    iteration,
                    gradient_quorum,
                    nps,
                    gradient_gar.as_ref(),
                )?;

                if server == 0 {
                    observer_timing = IterationTiming {
                        computation: round.computation_time,
                        communication: round.communication_time,
                        aggregation: self.deployment.aggregation_cost(gradient_quorum, true),
                    };
                    observer_loss = round.mean_loss;
                }
            }

            // The Table 2 alignment study samples the states the correct
            // replicas are about to exchange, i.e. after the gradient update
            // and before the model contraction.
            if self.alignment_every > 0 && iteration % self.alignment_every == 0 {
                let params: Vec<_> = (0..honest_servers)
                    .map(|s| self.deployment.server(s).honest().parameters())
                    .collect();
                if let Some(sample) = crate::alignment::alignment_sample(iteration, &params) {
                    self.alignment.push(sample);
                }
            }

            // Phase 2 — every honest replica pulls its peers' (now updated)
            // models, robustly aggregates them together with its own state and
            // rewrites its model. Byzantine replicas serve corrupted vectors
            // (the corruption happens inside Deployment::model_round).
            let mut merged_models = Vec::with_capacity(honest_servers);
            for server in 0..honest_servers {
                // models = ps.get_models(nps - fps); write_model(gar(models))
                let models = self.deployment.model_round(server, model_quorum)?;
                let mut inputs = models.models;
                inputs.push(self.deployment.server(server).honest().parameters());
                let model_rule = build_gar(&config.model_gar, inputs.len(), config.fps)?;
                let merged = self
                    .deployment
                    .server(server)
                    .honest()
                    .aggregate(model_rule.as_ref(), &inputs)?;
                merged_models.push(merged);

                if server == 0 {
                    observer_timing.communication += models.communication_time;
                    observer_timing.aggregation +=
                        self.deployment.aggregation_cost(model_quorum + 1, false);
                }
            }
            for (server, merged) in merged_models.into_iter().enumerate() {
                self.deployment
                    .server_mut(server)
                    .honest_mut()
                    .write_model(&merged)?;
            }
            trace.iterations.push(observer_timing);
            maybe_evaluate(&mut trace, &self.deployment, 0, iteration, observer_loss);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use garfield_aggregation::GarKind;
    use garfield_attacks::AttackKind;

    fn config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 40;
        cfg.eval_every = 10;
        cfg.gradient_gar = GarKind::MultiKrum;
        cfg.model_gar = GarKind::Median;
        cfg.nps = 3;
        cfg.fps = 1;
        cfg
    }

    #[test]
    fn msmw_learns_without_faults() {
        let mut app = MsmwApp::new(Deployment::new(config()).unwrap());
        let trace = app.run().unwrap();
        assert!(
            trace.final_accuracy() > 0.5,
            "accuracy {}",
            trace.final_accuracy()
        );
        assert_eq!(trace.system, "msmw");
    }

    #[test]
    fn msmw_survives_byzantine_servers_and_workers() {
        let mut cfg = config();
        cfg.actual_byzantine_workers = 1;
        cfg.worker_attack = Some(AttackKind::Random);
        cfg.actual_byzantine_servers = 1;
        cfg.server_attack = Some(AttackKind::Random);
        let mut app = MsmwApp::new(Deployment::new(cfg).unwrap());
        let trace = app.run().unwrap();
        assert!(
            trace.final_accuracy() > 0.5,
            "MSMW should survive 1 Byzantine worker + 1 Byzantine server, got {}",
            trace.final_accuracy()
        );
    }

    #[test]
    fn msmw_communicates_more_than_ssmw() {
        let cfg = config();
        let msmw = MsmwApp::new(Deployment::new(cfg.clone()).unwrap())
            .run()
            .unwrap();
        let ssmw = crate::run_system(&cfg, SystemKind::Ssmw).unwrap();
        assert!(msmw.mean_timing().communication > ssmw.mean_timing().communication);
    }

    #[test]
    fn alignment_sampling_records_cosines_near_one() {
        let mut cfg = config();
        cfg.iterations = 30;
        // Asynchronous quorums make different replicas aggregate different
        // worker subsets, so their post-update states actually diverge
        // (otherwise every difference vector is zero and there is nothing to
        // sample). Median makes the aggregate sensitive to the excluded worker.
        cfg.synchronous = false;
        cfg.gradient_gar = GarKind::Median;
        let mut app = MsmwApp::new(Deployment::new(cfg).unwrap()).with_alignment_sampling(10);
        app.run().unwrap();
        let samples = app.alignment_samples();
        assert!(!samples.is_empty());
        for s in samples {
            assert!(s.cosine <= 1.0 + 1e-5);
        }
    }
}
