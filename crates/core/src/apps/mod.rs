//! The Byzantine ML applications of §5 and the baselines of §6.2.
//!
//! Every application drives a [`Deployment`](crate::Deployment) through
//! iterations of the paper's training loops (Listings 1–3), records a
//! [`TrainingTrace`](crate::TrainingTrace) with the per-iteration
//! computation / communication / aggregation breakdown, and evaluates
//! accuracy on the held-out test set at the configured cadence.

mod crash_tolerant;
mod decentralized;
mod msmw;
mod single_server;

pub use crash_tolerant::CrashTolerantApp;
pub use decentralized::DecentralizedApp;
pub use msmw::MsmwApp;
pub(crate) use single_server::run_single_server;

use crate::{AccuracyPoint, CoreResult, Deployment, GradientRound, TrainingTrace};
use garfield_aggregation::Gar;

/// One `get_gradients → gar → update_model` step at `server`: pulls the
/// fastest `quorum` gradients of `iteration`, aggregates them with `gar` and
/// applies the update. Returns the round for its timing and loss.
pub(crate) fn gradient_step(
    deployment: &mut Deployment,
    server: usize,
    iteration: usize,
    quorum: usize,
    fanout: usize,
    gar: &dyn Gar,
) -> CoreResult<GradientRound> {
    let round = deployment.gradient_round(server, iteration, quorum, fanout)?;
    let aggregated = deployment
        .server(server)
        .honest()
        .aggregate(gar, &round.gradients)?;
    deployment
        .server_mut(server)
        .honest_mut()
        .update_model(&aggregated)?;
    Ok(round)
}

/// Records an accuracy point on `trace` if the evaluation cadence says so.
pub(crate) fn maybe_evaluate(
    trace: &mut TrainingTrace,
    deployment: &Deployment,
    server_index: usize,
    iteration: usize,
    loss: f32,
) {
    let every = deployment.config().eval_every;
    let last = iteration + 1 == deployment.config().iterations;
    if every == 0 || (!iteration.is_multiple_of(every) && !last) {
        return;
    }
    let (accuracy, _) = deployment.evaluate(server_index);
    let sim_time = trace.total_time();
    trace.accuracy.push(AccuracyPoint {
        iteration,
        sim_time,
        accuracy,
        loss,
    });
}

/// Runs `system` through [`run_single_server`] on a fresh deployment of
/// `cfg`, returning the trace and the bits of the model it trained.
#[cfg(test)]
fn run_single_server_fresh(
    system: crate::SystemKind,
    cfg: &crate::ExperimentConfig,
) -> (TrainingTrace, Vec<u32>) {
    cfg.validate(system).unwrap();
    let mut deployment = Deployment::new(cfg.clone()).unwrap();
    let trace = run_single_server(&mut deployment, system).unwrap();
    let bits = deployment
        .server(0)
        .honest()
        .parameters()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (trace, bits)
}

// The checks of the single-server loop, one module per system it runs.

#[cfg(test)]
mod vanilla {
    mod tests {
        use crate::apps::run_single_server_fresh as run;
        use crate::{ExperimentConfig, SystemKind};
        use garfield_attacks::AttackKind;

        #[test]
        fn vanilla_learns_the_synthetic_task_without_faults() {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 40;
            cfg.eval_every = 10;
            let (trace, _) = run(SystemKind::Vanilla, &cfg);
            assert_eq!(trace.len(), 40);
            assert!(
                trace.final_accuracy() > 0.5,
                "accuracy {}",
                trace.final_accuracy()
            );
            assert!(trace.updates_per_second() > 0.0);
        }

        #[test]
        fn vanilla_collapses_under_a_byzantine_worker() {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 30;
            cfg.actual_byzantine_workers = 1;
            cfg.worker_attack = Some(AttackKind::Reversed);
            let (trace, _) = run(SystemKind::Vanilla, &cfg);
            assert!(
                trace.final_accuracy() < 0.6,
                "vanilla averaging should not survive a reversed-gradient attack, got {}",
                trace.final_accuracy()
            );
        }
    }
}

#[cfg(test)]
mod ssmw {
    mod tests {
        use crate::apps::run_single_server_fresh as run;
        use crate::{ExperimentConfig, SystemKind};
        use garfield_aggregation::GarKind;
        use garfield_attacks::AttackKind;

        fn config() -> ExperimentConfig {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 40;
            cfg.eval_every = 10;
            cfg.gradient_gar = GarKind::MultiKrum;
            cfg
        }

        #[test]
        fn ssmw_learns_without_faults() {
            let (trace, _) = run(SystemKind::Ssmw, &config());
            assert!(
                trace.final_accuracy() > 0.5,
                "accuracy {}",
                trace.final_accuracy()
            );
            assert_eq!(trace.system, "ssmw");
        }

        #[test]
        fn ssmw_survives_byzantine_workers_up_to_fw() {
            let mut cfg = config();
            cfg.actual_byzantine_workers = cfg.fw;
            cfg.worker_attack = Some(AttackKind::Reversed);
            let (trace, _) = run(SystemKind::Ssmw, &cfg);
            assert!(
                trace.final_accuracy() > 0.5,
                "robust aggregation should survive fw Byzantine workers, got {}",
                trace.final_accuracy()
            );
        }

        #[test]
        fn ssmw_is_slower_than_vanilla_due_to_robust_aggregation() {
            let cfg = config();
            let (ssmw, _) = run(SystemKind::Ssmw, &cfg);
            let (vanilla, _) = run(SystemKind::Vanilla, &cfg);
            assert!(ssmw.mean_timing().aggregation >= vanilla.mean_timing().aggregation);
        }
    }
}

#[cfg(test)]
mod aggregathor {
    mod tests {
        use crate::apps::run_single_server_fresh as run;
        use crate::{ExperimentConfig, SystemKind};

        fn config() -> ExperimentConfig {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 30;
            cfg.eval_every = 10;
            cfg
        }

        #[test]
        fn aggregathor_learns_the_task() {
            let (trace, _) = run(SystemKind::AggregaThor, &config());
            assert!(
                trace.final_accuracy() > 0.5,
                "accuracy {}",
                trace.final_accuracy()
            );
            assert_eq!(trace.system, "aggregathor");
        }

        #[test]
        fn aggregathor_is_slower_than_garfield_ssmw() {
            let cfg = config();
            let (aggregathor, _) = run(SystemKind::AggregaThor, &cfg);
            let (ssmw, _) = run(SystemKind::Ssmw, &cfg);
            assert!(aggregathor.mean_timing().communication > ssmw.mean_timing().communication);
            assert!(aggregathor.updates_per_second() < ssmw.updates_per_second());
        }
    }
}

#[cfg(test)]
mod speculative {
    mod tests {
        use crate::apps::run_single_server_fresh as run;
        use crate::{ExperimentConfig, SystemKind};
        use garfield_aggregation::GarKind;
        use garfield_attacks::AttackKind;

        fn config() -> ExperimentConfig {
            let mut cfg = ExperimentConfig::small();
            cfg.iterations = 12;
            cfg.eval_every = 6;
            cfg.gradient_gar = GarKind::MultiKrum;
            cfg
        }

        #[test]
        fn fault_free_speculative_is_bit_identical_to_vanilla() {
            let cfg = config();
            let (_, speculative) = run(SystemKind::Speculative, &cfg);
            let (_, vanilla) = run(SystemKind::Vanilla, &cfg);
            assert_eq!(speculative, vanilla);
        }

        #[test]
        fn every_attack_falls_back_to_the_exact_robust_run() {
            for attack in AttackKind::all() {
                let mut cfg = config();
                cfg.actual_byzantine_workers = cfg.fw;
                cfg.worker_attack = Some(attack);
                let (_, speculative) = run(SystemKind::Speculative, &cfg);
                let (_, robust) = run(SystemKind::Ssmw, &cfg);
                assert_eq!(
                    speculative, robust,
                    "{attack:?} did not land the pure-robust model"
                );
            }
        }
    }
}
