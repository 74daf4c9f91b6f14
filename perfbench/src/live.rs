//! The three workloads and one live training run ("rep") of each.
//!
//! Every workload is a closed loop at the paper's PyTorch setup
//! (`nw = 10, fw = 3, nps = 3, fps = 1`): each server round pulls from all
//! ten workers and waits for its full quorum before the next round starts.
//! All node threads are the program's own; the benchmark thread only builds
//! the deployment, waits for the run and reads its report.

use crate::stats::quantile;
use garfield_aggregation::GarKind;
use garfield_attacks::AttackKind;
use garfield_core::{
    CoreError, CoreResult, Deployment, ExperimentConfig, RuntimeTelemetry, SystemKind,
};
use garfield_net::Transport;
use garfield_runtime::node::fault_rng_streams;
use garfield_runtime::{LiveExecutor, LiveOptions, NodeLayout, ServerNode, WorkerNode};
use garfield_tensor::Tensor;
use garfield_transport::{ClusterSpec, TcpOptions, TcpTransport};
use std::time::Instant;

/// Which substrate carries the workload's messages.
pub enum Substrate {
    /// `LiveExecutor`: one thread per node over the in-process `Router`.
    Router,
    /// `ServerNode`/`WorkerNode` threads over `TcpTransport` on localhost.
    Tcp,
}

/// A named benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub system: SystemKind,
    pub substrate: Substrate,
    /// Whether every same-seed run must end with a bit-identical model (the
    /// full-quorum contract). Off only where a known defect breaks it.
    pub deterministic: bool,
    /// The experiment, without its seed (see [`Workload::config`]).
    config: ExperimentConfig,
}

impl Workload {
    /// The experiment with its inputs (data set, initial model, attack
    /// streams) derived from `seed`.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            ..self.config.clone()
        }
    }
}

/// Builds workload `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let base = ExperimentConfig {
        nw: 10,
        fw: 3,
        nps: 3,
        fps: 1,
        // Accuracy is scored after the run, on the final model; evaluating
        // inside the run would add observer work between rounds.
        eval_every: 0,
        ..ExperimentConfig::default()
    };
    let workload = match name {
        "ssmw-lie-cifar" => Workload {
            name: "ssmw-lie-cifar",
            system: SystemKind::Ssmw,
            substrate: Substrate::Router,
            deterministic: true,
            config: ExperimentConfig {
                model: "cifarnet-lite".into(),
                batch_size: 32,
                actual_byzantine_workers: 3,
                worker_attack: Some(AttackKind::LittleIsEnough),
                gradient_gar: GarKind::MultiKrum,
                iterations: 100,
                ..base
            },
        },
        "ssmw-median-cifar" => Workload {
            name: "ssmw-median-cifar",
            system: SystemKind::Ssmw,
            substrate: Substrate::Router,
            deterministic: true,
            config: ExperimentConfig {
                model: "cifarnet-lite".into(),
                batch_size: 8,
                actual_byzantine_workers: 3,
                worker_attack: Some(AttackKind::SignFlip),
                gradient_gar: GarKind::Median,
                iterations: 100,
                ..base
            },
        },
        // A Byzantine replica breaks same-seed bit-identity here (a replica
        // that outruns a peer serves it a newer snapshot); the benchmark
        // reports the number of distinct final models instead of requiring 1.
        "msmw-tcp-mnist" => Workload {
            name: "msmw-tcp-mnist",
            system: SystemKind::Msmw,
            substrate: Substrate::Tcp,
            deterministic: false,
            config: ExperimentConfig {
                model: "mnist-cnn-lite".into(),
                batch_size: 8,
                actual_byzantine_servers: 1,
                server_attack: Some(AttackKind::Reversed),
                gradient_gar: GarKind::MultiKrum,
                model_gar: GarKind::Median,
                iterations: 200,
                ..base
            },
        },
        _ => return None,
    };
    Some(workload)
}

/// What one live training run produced.
pub struct Rep {
    /// Wall time of the whole run: build, spawn or bind, rounds, join.
    pub wall_s: f64,
    /// The observer's per-round wall times.
    pub latencies: Vec<f64>,
    /// Per-node counters of the run.
    pub telemetry: RuntimeTelemetry,
    /// The observer replica's final model.
    pub final_model: Tensor,
    /// Peak resident set of the process so far (`VmHWM`), in MB. For the
    /// first run of a process, this is the peak of that training run alone.
    pub peak_rss_mb: f64,
}

impl Rep {
    /// Run wall time spent outside the training rounds.
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.latencies.iter().sum::<f64>()
    }

    /// Rounds completed per second of round time.
    pub fn updates_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.latencies.iter().sum::<f64>()
    }

    /// The `q`-quantile of the round latencies, in milliseconds.
    pub fn round_ms(&self, q: f64) -> f64 {
        1e3 * quantile(&self.latencies, q)
    }
}

/// Runs one full training of `workload` and times it.
///
/// # Errors
///
/// Propagates the run's error, e.g. a quorum that missed its deadline.
pub fn run(workload: &Workload, config: &ExperimentConfig) -> CoreResult<Rep> {
    let start = Instant::now();
    let (latencies, telemetry, final_model) = match workload.substrate {
        Substrate::Router => {
            let report = LiveExecutor::new(config.clone()).run_live(workload.system)?;
            let model = report
                .final_models
                .into_iter()
                .next()
                .ok_or_else(|| CoreError::Net("live run returned no model".into()))?;
            (
                report.telemetry.round_latencies.clone(),
                report.telemetry,
                model,
            )
        }
        Substrate::Tcp => run_tcp(workload.system, config)?,
    };
    Ok(Rep {
        wall_s: start.elapsed().as_secs_f64(),
        latencies,
        telemetry,
        final_model,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs every node of the workload as a thread over its own `TcpTransport`
/// on localhost, wired exactly as `garfield-node` processes wire themselves:
/// server 0 evaluates and winds the workers down when it exits.
fn run_tcp(
    system: SystemKind,
    config: &ExperimentConfig,
) -> CoreResult<(Vec<f64>, RuntimeTelemetry, Tensor)> {
    config.validate(system)?;
    let parts = Deployment::new(config.clone())?.into_live_parts();
    let layout = NodeLayout::of(system, config);
    let spec = ClusterSpec::localhost(layout.len()).map_err(CoreError::from)?;
    // Every endpoint listens before any node starts dialing.
    let mut worker_transports = spec
        .ids()
        .into_iter()
        .map(|id| -> CoreResult<Box<dyn Transport>> {
            Ok(Box::new(TcpTransport::bind(
                &spec,
                id,
                TcpOptions::default(),
            )?))
        })
        .collect::<CoreResult<Vec<_>>>()?;
    let server_transports: Vec<_> = worker_transports.drain(..layout.server_ids.len()).collect();
    let (worker_rngs, server_rngs) = fault_rng_streams(config, layout.server_ids.len());
    let options = LiveOptions::default();

    let workers: Vec<_> = parts
        .workers
        .into_iter()
        .zip(worker_transports)
        .zip(worker_rngs)
        .map(|((worker, transport), fault_rng)| {
            let node = WorkerNode {
                worker,
                fault: None,
                fault_rng,
                idle_timeout: options.idle_timeout,
                shards: 1,
                dimension: parts.dimension,
            };
            std::thread::spawn(move || node.run(transport))
        })
        .collect();
    let servers: Vec<_> = parts
        .servers
        .into_iter()
        .zip(server_transports)
        .zip(server_rngs)
        .enumerate()
        .map(|(i, ((server, transport), fault_rng))| {
            let node = ServerNode {
                index: i,
                server,
                system,
                config: config.clone(),
                worker_ids: layout.worker_ids.clone(),
                peer_ids: layout
                    .server_ids
                    .iter()
                    .copied()
                    .filter(|&p| p != layout.server_ids[i])
                    .collect(),
                shard: None,
                shard_siblings: Vec::new(),
                gradient_quorum: config.gradient_quorum(system),
                round_deadline: options.round_deadline,
                fault: None,
                fault_rng,
                // Accuracy is scored after the run (`eval_every` is 0).
                test_batch: None,
                shutdown_targets: if i == 0 {
                    layout.worker_ids.clone()
                } else {
                    Vec::new()
                },
                request_retry: options.request_retry,
                checkpoint: None,
                resume: None,
            };
            std::thread::spawn(move || node.run(transport))
        })
        .collect();

    let mut runs = Vec::with_capacity(servers.len());
    let mut first_error = None;
    for thread in servers {
        match thread.join() {
            Ok(Ok(run)) => runs.push(run),
            Ok(Err(e)) => {
                first_error.get_or_insert(e);
            }
            Err(_) => {
                first_error.get_or_insert(CoreError::Net("a server thread panicked".into()));
            }
        }
    }
    let mut nodes: Vec<_> = runs.iter().map(|run| run.telemetry.clone()).collect();
    for thread in workers {
        match thread.join() {
            Ok(telemetry) => nodes.push(telemetry),
            Err(_) => {
                first_error.get_or_insert(CoreError::Net("a worker thread panicked".into()));
            }
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    let observer = runs.swap_remove(0);
    Ok((
        observer.round_latencies.clone(),
        RuntimeTelemetry {
            nodes,
            round_latencies: observer.round_latencies,
        },
        observer.final_model,
    ))
}
