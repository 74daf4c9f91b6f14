//! The executor abstraction: one training API, two execution substrates.
//!
//! A Garfield experiment can run on two substrates that share every node
//! object (workers, servers, attacks, GARs) but differ in *how iterations
//! execute*:
//!
//! * the **sim** executor (the [`Controller`](crate::Controller)) drives every node sequentially
//!   from one thread and charges an analytic
//!   [`CostModel`](garfield_net::CostModel) for data movement — this is the
//!   substrate behind the paper's throughput sweeps, where per-iteration
//!   time is a deterministic function of model size and cluster shape;
//! * the **live** executor (`garfield_runtime::LiveExecutor`) runs each node
//!   as its own OS thread exchanging real byte messages over the
//!   [`Router`](garfield_net::Router), with wall-clock deadlines standing in
//!   for the paper's RPC timeouts — this is the substrate that demonstrates
//!   the *system* claims: pull-based `get_gradients()` / `get_models()` that
//!   stay live despite crashed, delayed or Byzantine nodes.
//!
//! Examples and tests pick a substrate through the shared [`Executor`] trait
//! (often via an [`ExecMode`] parsed from the command line), so the same
//! experiment can be validated analytically and executed for real.

use crate::{CoreError, CoreResult, SystemKind, TrainingTrace};
use std::str::FromStr;

/// A substrate that can run a configured Garfield system to completion.
pub trait Executor {
    /// Short name of the substrate (`"sim"` or `"live"`).
    fn name(&self) -> &'static str;

    /// Runs the named system and returns its training trace.
    ///
    /// # Errors
    ///
    /// Returns configuration or runtime errors from the underlying substrate.
    fn run(&mut self, system: SystemKind) -> CoreResult<TrainingTrace>;
}

/// Which execution substrate to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Sequential, cost-modelled execution ([`Controller`](crate::Controller)).
    Sim,
    /// Threaded execution over real messages (`garfield_runtime::LiveExecutor`).
    Live,
}

impl ExecMode {
    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Sim => "sim",
            ExecMode::Live => "live",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExecMode {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(ExecMode::Sim),
            "live" => Ok(ExecMode::Live),
            other => Err(CoreError::InvalidConfig(format!(
                "unknown execution mode '{other}' (expected 'sim' or 'live')"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses_and_prints() {
        assert_eq!("sim".parse::<ExecMode>().unwrap(), ExecMode::Sim);
        assert_eq!("live".parse::<ExecMode>().unwrap(), ExecMode::Live);
        assert!("grpc".parse::<ExecMode>().is_err());
        assert_eq!(ExecMode::Live.to_string(), "live");
    }
}
