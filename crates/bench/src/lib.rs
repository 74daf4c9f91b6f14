//! # garfield-bench
//!
//! The evaluation harness of Garfield-rs: one entry point per table and
//! figure of the paper's evaluation (§6 and the appendix), shared between the
//! `expfig` binary, which prints the rows the paper reports and writes CSV
//! files under `results/`.
//!
//! The convergence and attack experiments (Figs. 4, 5, 11, 12, Table 2) run
//! the real training stack on scaled-down settings; the throughput sweeps over
//! the paper's large Table 1 models (Figs. 6–10, 13–16) use the same
//! [`CostModel`](garfield_net::CostModel) formulas the training runtime
//! charges, evaluated at the paper's exact parameter counts — see `DESIGN.md`
//! for the substitution rationale and `EXPERIMENTS.md` for paper-vs-measured
//! notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod perf;
pub mod report;
pub mod runtime_throughput;
pub mod throughput;
pub mod trace;
pub mod watch;

pub use perf::{PerfConfig, PerfPoint};
pub use report::{write_csv, Row};
pub use runtime_throughput::{measure as measure_runtime, runtime_report, RuntimePoint};
pub use throughput::{iteration_time, throughput, ThroughputPoint};

/// Serializes tests that toggle or read the process-global `garfield-obs`
/// enabled flag (the default test runner is multi-threaded).
#[cfg(test)]
pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
