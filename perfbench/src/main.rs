//! End-to-end and per-layer benchmark of live Byzantine training.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload (see `live::workload`) with inputs derived from
//! `--seed`, repeating full training runs for about `--seconds` seconds,
//! checks the outputs and prints one JSON object as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced runs (`garfield_obs::enable()` plus the
//! benchmark's own spans), replays each layer's public calls at the
//! workload's shapes, decomposes the round, and writes its spans as JSONL
//! under `perfbench/out/`. Exits 1 when a correctness check fails and 2 on
//! bad arguments.

mod layers;
mod live;
mod spans;
mod stats;

use garfield_core::{Deployment, ExperimentConfig, SystemKind};
use garfield_obs::HistogramSnapshot;
use live::{Rep, Workload};
use spans::Spans;
use stats::{fnv1a, median};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Every run of a set must end at least this accurate, attack or not.
const MIN_ACCURACY: f32 = 0.9;
/// Leading runs left out of the timing metrics: the first training run of
/// a process also pays for page faults, allocator growth and first
/// connections. Its model is still checked and scored.
const WARMUP_RUNS: usize = 1;
/// Share of a traced run's time given to the live runs; the rest replays
/// the layer calls.
const TRACED_LIVE_SHARE: f64 = 0.85;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result of a benchmark run.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs trainings of one seed, scores every final model, checks it, and
/// accounts the rounds attempted and failed.
struct Checker<'a> {
    workload: &'a Workload,
    config: ExperimentConfig,
    outcome: Outcome,
    runs: Vec<Rep>,
    /// Final test loss of each run.
    losses: Vec<f64>,
    /// Distinct final-model hashes across the runs.
    models: BTreeSet<u64>,
}

impl<'a> Checker<'a> {
    fn new(workload: &'a Workload, seed: u64) -> Self {
        Checker {
            workload,
            config: workload.config(seed),
            outcome: Outcome {
                attempted: 0,
                failed: 0,
                problems: Vec::new(),
                metrics: Vec::new(),
            },
            runs: Vec::new(),
            losses: Vec::new(),
            models: BTreeSet::new(),
        }
    }

    /// Trains once and accounts the run; returns whether it completed.
    fn run(&mut self) -> bool {
        let index = self.runs.len();
        let result = live::run(self.workload, &self.config);
        let iterations = self.config.iterations as u64;
        self.outcome.attempted += iterations;
        let rep = match result {
            Ok(rep) => rep,
            Err(e) => {
                self.outcome.failed += iterations;
                self.outcome
                    .problems
                    .push(format!("training run failed: {e}"));
                return false;
            }
        };
        let completed = rep.latencies.len() as u64;
        if completed != iterations {
            self.outcome.failed += iterations.saturating_sub(completed);
            self.outcome
                .problems
                .push(format!("{completed} of {iterations} rounds completed"));
        }
        // Scored in a fresh deployment of the same seed, dropped right after
        // so the benchmark's own memory stays out of the next run's peak.
        let scored = Deployment::new(self.config.clone()).and_then(|mut scorer| {
            scorer
                .server_mut(0)
                .honest_mut()
                .write_model(&rep.final_model)?;
            Ok(scorer.evaluate(0))
        });
        let (accuracy, loss) = match scored {
            Ok(scores) => scores,
            Err(e) => {
                self.outcome
                    .problems
                    .push(format!("scoring the final model: {e}"));
                return false;
            }
        };
        if accuracy.is_nan() || accuracy < MIN_ACCURACY {
            self.outcome
                .problems
                .push(format!("final accuracy {accuracy} < {MIN_ACCURACY}"));
        }
        if !loss.is_finite() {
            self.outcome.problems.push(format!("final loss {loss}"));
        }
        let hash = fnv1a(rep.final_model.data());
        eprintln!(
            "perfbench: run {index}: {completed} rounds in {:.3} s, setup {:.3} s, \
             accuracy {accuracy}, loss {loss}, model {hash:016x}",
            rep.latencies.iter().sum::<f64>(),
            rep.setup_s(),
        );
        self.losses.push(f64::from(loss));
        self.models.insert(hash);
        self.runs.push(rep);
        completed == iterations
    }

    /// Applies the same-seed check and returns the outcome.
    fn finish(mut self) -> (Outcome, Vec<Rep>, Vec<f64>, usize) {
        if self.workload.deterministic && self.models.len() > 1 {
            self.outcome.problems.push(format!(
                "{} same-seed runs ended with {} different final models",
                self.runs.len(),
                self.models.len()
            ));
        }
        (self.outcome, self.runs, self.losses, self.models.len())
    }
}

/// The median over `runs` of a per-run figure. Each run's own figure is
/// taken first, so one run disturbed by outside load moves the result by
/// at most one rank.
fn median_over<'r>(runs: impl Iterator<Item = &'r Rep>, figure: impl Fn(&Rep) -> f64) -> f64 {
    median(&runs.map(figure).collect::<Vec<_>>())
}

/// Whether another run of about the mean length still fits the budget
/// once `min_runs` are done.
fn another_fits(start: Instant, runs: usize, min_runs: usize, budget_s: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    runs < min_runs || elapsed + elapsed / runs as f64 <= budget_s
}

/// End-to-end metrics, with tracing off.
fn untraced(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut checker = Checker::new(workload, args.seed);
    let start = Instant::now();
    // The warm-up run plus two timed runs, which also make the same-seed
    // set of the bit-identity check.
    while another_fits(start, checker.runs.len(), WARMUP_RUNS + 2, args.seconds) {
        if !checker.run() {
            break;
        }
    }
    let (mut outcome, runs, _, _) = checker.finish();
    let timed = || runs.iter().skip(WARMUP_RUNS);
    outcome.metric(
        "updates_per_s",
        median_over(timed(), Rep::updates_per_s),
        "1/s",
    );
    outcome.metric(
        "round_p50_ms",
        median_over(timed(), |r| r.round_ms(0.5)),
        "ms",
    );
    outcome.metric(
        "round_p90_ms",
        median_over(timed(), |r| r.round_ms(0.9)),
        "ms",
    );
    outcome.metric(
        "bytes_per_round",
        median_over(timed(), |r| {
            r.telemetry.total_wire_bytes() as f64 / r.latencies.len() as f64
        }),
        "bytes",
    );
    outcome.metric("setup_s", median_over(timed(), Rep::setup_s), "s");
    // The warm-up run is the first of a fresh process: its peak is that of
    // one training run, without the memory later runs leave behind.
    outcome.metric(
        "peak_rss_mb",
        runs.first().map_or(f64::NAN, |r| r.peak_rss_mb),
        "MB",
    );
    outcome.metric(
        "completed_round_share",
        (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    Ok(outcome)
}

/// The `garfield-obs` phase histograms the runtime's actors record into.
fn phase_snapshots() -> [HistogramSnapshot; 3] {
    ["compute", "communication", "aggregation"].map(|phase| {
        garfield_obs::metrics::histogram(
            "garfield_phase_seconds",
            "Per-round phase latency (the paper's compute/communication/\
             aggregation breakdown, plus checkpointing), by phase.",
            &[("phase", phase)],
        )
        .snapshot()
    })
}

/// Per-layer metrics: untraced and traced runs of one training seed
/// alternate, then every layer's calls are replayed alone and the round is
/// decomposed.
fn traced(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let root = spans.open("perfbench.run", None, None);
    let mut checker = Checker::new(workload, args.seed);
    // Phase sums and counts accumulated over the traced runs only.
    let mut phase_sum = [0.0f64; 3];
    let mut phase_count = [0u64; 3];
    let start = Instant::now();
    let live_budget = TRACED_LIVE_SHARE * args.seconds;
    let mut run = 0;
    // The warm-up run plus two untraced and two traced runs at least.
    while another_fits(start, run, WARMUP_RUNS + 4, live_budget) {
        let trace = run % 2 == 1;
        let before = phase_snapshots();
        if trace {
            garfield_obs::enable();
        }
        let name = if trace {
            "live.traced"
        } else {
            "live.untraced"
        };
        // The span covers the training run and the scoring of its model.
        let (ok, _) = spans.time(name, Some(root), Some(run as u64), || checker.run());
        garfield_obs::disable();
        if trace {
            for (k, (after, before)) in phase_snapshots().iter().zip(&before).enumerate() {
                let delta = after.since(before);
                phase_sum[k] += delta.sum();
                phase_count[k] += delta.count();
            }
        }
        run += 1;
        if !ok {
            break;
        }
    }
    let layer_span = spans.open("layers", Some(root), None);
    let mut replay_problems = Vec::new();
    let config = workload.config(args.seed);
    let layers = layers::replay(
        workload,
        &config,
        &mut spans,
        layer_span,
        &mut replay_problems,
    )
    .map_err(|e| format!("layer replay failed: {e}"))?;
    spans.close(layer_span);
    spans.close(root);

    let (mut outcome, runs, losses, distinct_models) = checker.finish();
    outcome.problems.extend(replay_problems);
    // Runs alternate untraced (even) and traced (odd); the warm-up is even.
    let timed = |traced: usize| {
        runs.iter()
            .enumerate()
            .skip(WARMUP_RUNS)
            .filter(move |(i, _)| i % 2 == traced)
            .map(|(_, r)| r)
    };
    let rounds: f64 = runs.iter().map(|r| r.latencies.len() as f64).sum();
    let sum_of = |f: fn(&Rep) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let messages = sum_of(|r| r.telemetry.total_messages()) / rounds;
    let payload_bytes = sum_of(|r| r.telemetry.total_bytes()) / rounds;
    let retried = sum_of(|r| r.telemetry.total_requests_retried());
    let dropped = sum_of(|r| r.telemetry.total_dropped()) + layers.dropped as f64;

    // The round's blocking path, from per-call medians: the request encode;
    // the workers' decode, gradient (and corruption) and reply encode, in
    // as many waves as the cores force; the server's decodes, GAR and
    // update; on MSMW the model served to a peer and the merge of the
    // model quorum.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let waves = config.nw.div_ceil(cores.min(config.nw)) as f64;
    let corrupt = if config.actual_byzantine_workers > 0 {
        layers.corrupt_ms
    } else {
        0.0
    };
    let worker = layers.decode_ms + layers.grad_ms + corrupt + layers.encode_ms;
    let mut blocking = layers.encode_ms
        + waves * worker
        + config.nw as f64 * layers.decode_ms
        + layers.gar_ms
        + layers.update_ms;
    if workload.system == SystemKind::Msmw {
        blocking += layers.encode_ms
            + config.model_quorum() as f64 * layers.decode_ms
            + layers.model_gar_ms;
    }
    let round_p50 = median_over(timed(0), |r| r.round_ms(0.5));
    let residual = round_p50 - blocking;
    let mean_ms = |k: usize| 1e3 * phase_sum[k] / phase_count[k].max(1) as f64;

    outcome.metric("ml.grad_ms", layers.grad_ms, "ms");
    outcome.metric("ml.update_ms", layers.update_ms, "ms");
    outcome.metric("ml.final_test_loss", median(&losses), "loss");
    outcome.metric("attacks.corrupt_ms", layers.corrupt_ms, "ms");
    outcome.metric("aggregation.gar_ms", layers.gar_ms, "ms");
    outcome.metric("aggregation.gar_seq_ms", layers.gar_seq_ms, "ms");
    outcome.metric("aggregation.model_gar_ms", layers.model_gar_ms, "ms");
    outcome.metric("tensor.sq_l2_gbps", layers.sq_l2_gbps, "GB/s");
    outcome.metric("net.encode_ms", layers.encode_ms, "ms");
    outcome.metric("net.decode_ms", layers.decode_ms, "ms");
    outcome.metric("net.router_us", layers.router_us, "us");
    outcome.metric("net.msgs_per_round", messages, "count");
    outcome.metric("transport.rtt_us", layers.rtt_us, "us");
    outcome.metric("transport.mb_s", layers.mb_s, "MB/s");
    outcome.metric(
        "transport.frame_bytes_per_round",
        payload_bytes + messages * layers.frame_overhead_bytes,
        "bytes",
    );
    outcome.metric("transport.dropped", dropped, "count");
    outcome.metric("core.deployment_s", layers.deployment_s, "s");
    outcome.metric("transport.bind_s", layers.bind_s, "s");
    outcome.metric("runtime.phase_compute_ms", mean_ms(0), "ms");
    outcome.metric("runtime.phase_communication_ms", mean_ms(1), "ms");
    outcome.metric("runtime.phase_aggregation_ms", mean_ms(2), "ms");
    outcome.metric("runtime.retried", retried, "count");
    outcome.metric("runtime.round_p50_ms", round_p50, "ms");
    outcome.metric("runtime.blocking_path_ms", blocking, "ms");
    outcome.metric("runtime.residual_ms", residual, "ms");
    outcome.metric("runtime.residual_pct", 100.0 * residual / round_p50, "%");
    outcome.metric(
        "runtime.distinct_final_models",
        distinct_models as f64,
        "count",
    );
    outcome.metric(
        "obs.overhead_pct",
        100.0
            * (median_over(timed(0), Rep::updates_per_s)
                / median_over(timed(1), Rep::updates_per_s)
                - 1.0),
        "%",
    );

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ssmw-lie-cifar|ssmw-median-cifar|msmw-tcp-mnist> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(workload) = live::workload(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    let result = if args.trace {
        traced(&workload, &args)
    } else {
        untraced(&workload, &args)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.problems.is_empty() { 0 } else { 1 });
}
