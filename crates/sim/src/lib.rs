//! # xrbench-sim
//!
//! The XRBench benchmark runtime (paper Figure 2): a discrete-event
//! simulator that replays a scenario's jittered inference-request
//! stream against a set of compute engines (sub-accelerators),
//! honoring model dependencies, applying the frame-freshness drop
//! policy, and recording a full execution timeline.
//!
//! The runtime is decoupled from any particular hardware model through
//! the [`CostProvider`] trait — the evaluated "ML system" may be an
//! analytical cost model (as in the paper's XRBench-MAESTRO artifact),
//! a table of measured latencies, or anything else that can answer
//! *"how long / how much energy does model µ take on engine h?"*.
//!
//! Scheduling is pluggable via the [`Scheduler`] trait; five policies
//! ship with the crate — the paper's default latency-greedy policy
//! ([`LatencyGreedy`]), the round-robin policy for real systems
//! ([`RoundRobin`]), a slack-aware EDF that triages lost causes
//! ([`SlackAwareEdf`]), a least-loaded load balancer
//! ([`LeastLoaded`]), and a churn-hardened failover policy
//! ([`FailoverAware`]) — and users can replace them (the yellow
//! "user-customizable" boxes in Figure 2). Every impl must pass the
//! scheduler conformance harness (`tests/scheduler_conformance.rs`).
//!
//! Dynamic fleets (PR 7) add a deterministic availability process
//! ([`FaultProcess`]): engine churn, preemption, and thermal
//! throttling injected as timeline events, with in-flight work on a
//! lost engine dropped, requeued, or migrated per [`RecoveryPolicy`].
//!
//! Multi-user sessions ([`xrbench_workload::SessionSpec`]) run through
//! [`Simulator::run_session`]: the merged request stream of all users
//! shares the engines concurrently, and the result splits back into
//! per-user [`SimResult`]s inside a [`SessionSimResult`].
//!
//! ## Example
//!
//! ```
//! use xrbench_sim::{Simulator, SimConfig, LatencyGreedy, UniformProvider};
//! use xrbench_workload::UsageScenario;
//!
//! // Two engines that run every model in 1 ms / 1 mJ.
//! let provider = UniformProvider::new(2, 0.001, 0.001);
//! let sim = Simulator::new(SimConfig::default());
//! let result = sim.run(
//!     &UsageScenario::VrGaming.spec(),
//!     &provider,
//!     &mut LatencyGreedy::new(),
//! );
//! assert!(result.records.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod engine;
mod fault;
mod naive;
mod provider;
mod result;
mod scheduler;
mod simulator;
pub mod trace;

pub use fault::{
    fault_seed, FaultAction, FaultEvent, FaultKind, FaultProcess, FaultTimeline, RecoveryPolicy,
    ThrottleSpec, FAULT_SEED_SALT,
};
pub use provider::{CostProvider, DenseCostCache, InferenceCost, TableProvider, UniformProvider};
pub use result::{DropCounts, DropReason, ExecRecord, ModelStats, SessionSimResult, SimResult};
pub use scheduler::{
    DispatchKernel, FailoverAware, LatencyGreedy, LeastLoaded, PendingView, RoundRobin, Scheduler,
    SlackAwareEdf,
};
pub use simulator::{SimConfig, Simulator};
