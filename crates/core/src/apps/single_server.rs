//! The single-server systems: vanilla, SSMW (§5.1, Listing 1), AggregaThor
//! and speculative fast-path aggregation (arXiv:1911.07537).

use crate::apps::{gradient_step, maybe_evaluate};
use crate::system::{gradient_gar, AGGREGATHOR_COMM_OVERHEAD};
use crate::{CoreResult, Deployment, IterationTiming, SystemKind, TrainingTrace};
use garfield_aggregation::build_gar;

/// Runs the training loop of Listing 1 on server 0 of `deployment`, a single
/// trusted parameter server, and returns the trace. The caller has validated
/// the configuration for `system`.
///
/// The four single-server systems differ only in what the
/// [registry](crate::system) decides:
/// * the GAR comes from [`gradient_gar`]: vanilla averages, SSMW uses the
///   configured robust rule, AggregaThor is pinned to Multi-Krum, and
///   speculative wraps the configured rule as its fallback;
/// * a round is costed as robust aggregation for every system but vanilla,
///   except that a speculative system's round is costed for what it was:
///   the cheap path until its latch trips, the robust rule afterwards (an
///   SSMW run whose configured rule is `speculative(<gar>)` still costs
///   every round as robust);
/// * AggregaThor's older runtime pays [`AGGREGATHOR_COMM_OVERHEAD`] on
///   communication.
///
/// Speculative's determinism contract (see
/// `garfield_aggregation::SpeculativeGar`): a run in which the check never
/// trips is bit-identical to a vanilla run; from the fallback round onward
/// the run is bit-identical to an SSMW run of the fallback rule on the same
/// seed.
pub(crate) fn run_single_server(
    deployment: &mut Deployment,
    system: SystemKind,
) -> CoreResult<TrainingTrace> {
    let config = deployment.config().clone();
    let quorum = config.gradient_quorum(system);
    let (gar_kind, gar_f) = gradient_gar(system, &config);
    let gar = build_gar(&gar_kind, quorum, gar_f)?;
    let comm_overhead = if system == SystemKind::AggregaThor {
        AGGREGATHOR_COMM_OVERHEAD
    } else {
        1.0
    };
    let mut trace = TrainingTrace::new(system.as_str(), config.effective_batch());

    for iteration in 0..config.iterations {
        // gradients = ps.get_gradients(i, nw)
        // ps.update_model(gar(gradients, f = fw))
        let round = gradient_step(deployment, 0, iteration, quorum, 1, gar.as_ref())?;
        let robust = match system {
            SystemKind::Vanilla => false,
            SystemKind::Speculative => gar.fell_back() == Some(true),
            _ => true,
        };
        trace.iterations.push(IterationTiming {
            computation: round.computation_time,
            communication: round.communication_time * comm_overhead,
            aggregation: deployment.aggregation_cost(quorum, robust),
        });
        maybe_evaluate(&mut trace, deployment, 0, iteration, round.mean_loss);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::run_single_server;
    use crate::{Deployment, ExperimentConfig, SystemKind};
    use garfield_aggregation::GarKind;

    #[test]
    fn ssmw_with_a_speculative_rule_costs_every_round_as_robust() {
        let mut cfg = ExperimentConfig::small();
        cfg.iterations = 6;
        cfg.gradient_gar = GarKind::Speculative {
            fallback: Box::new(GarKind::Median),
        };
        cfg.validate(SystemKind::Ssmw).unwrap();
        let mut deployment = Deployment::new(cfg.clone()).unwrap();
        let trace = run_single_server(&mut deployment, SystemKind::Ssmw).unwrap();
        let quorum = cfg.gradient_quorum(SystemKind::Ssmw);
        let robust = deployment.aggregation_cost(quorum, true);
        assert!(robust > deployment.aggregation_cost(quorum, false));
        // Fault-free, so the latch never trips: the costing must not read it.
        assert!(trace.iterations.iter().all(|t| t.aggregation == robust));
    }
}
