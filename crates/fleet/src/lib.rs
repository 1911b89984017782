//! # xrbench-fleet
//!
//! Fleet-scale execution for the XRBench reproduction: thousands of
//! independent XR device sessions (each a multi-user
//! [`xrbench_workload::SessionSpec`] simulated by the discrete-event
//! engine) executed across a bounded work-stealing worker pool,
//! with results folded into a **streaming, exactly-mergeable
//! aggregate** instead of materialized per-request vectors.
//!
//! The paper deploys its cascaded multi-model scenarios on fleets of
//! headsets; this crate is the scale axis of the reproduction — the
//! ROADMAP's "heavy traffic from millions of users" — engineered so
//! that:
//!
//! * **memory is O(workers × groups)**, not O(requests): every
//!   completed inference is scored and folded the moment it is
//!   dispatched ([`xrbench_sim::Simulator::run_session_folded`]);
//! * **the report is bit-identical for any worker count**: the
//!   [`FleetAccumulator`] stores only integer counters, fixed-point
//!   sums, histogram buckets, and min/max, so merging is associative,
//!   commutative, and exact (see `DESIGN.md`);
//! * **every device is independently seeded** via
//!   [`replica_seed`]`(base, group, replica)`, so replicas
//!   de-correlate exactly like distinct physical devices while the
//!   whole fleet stays reproducible from one base seed.
//!
//! Fleets may be **dynamic**: a device group can carry a
//! [`xrbench_sim::FaultProcess`] (engine churn, preemption, thermal
//! throttling), expanded per replica from its replica seed, with
//! in-flight work on a lost engine handled by the configured
//! [`xrbench_sim::RecoveryPolicy`]. [`compare_recovery_policies`]
//! replays the identical outage schedule once per policy and
//! tabulates the outcomes.
//!
//! Beyond one process, the **shard-plan layer** splits a fleet along
//! `(group, replica-range)` boundaries ([`plan_shards`]), runs each
//! shard in its own OS process ([`run_fleet_shard`] on the child
//! side, [`supervise`] on the coordinator side), ships partial state
//! as [`ShardState`] JSON, and merges byte-exactly back into the
//! single-process report ([`merge_fleet_shards`]) — replica seeding
//! is a pure function of the global `(group, replica)` coordinate,
//! so the shard cut cannot change any device's behavior. The pieces
//! design-space sweeps shard with live here too: the weighted [`cut`],
//! the [`check_partition`] every merge runs, and the [`wire`] envelope
//! codec that carries fleet states, sweep states and sweep
//! checkpoints.
//!
//! ## Example
//!
//! ```
//! use xrbench_fleet::{run_fleet, FleetRunConfig, FleetSpec};
//! use xrbench_sim::UniformProvider;
//! use xrbench_workload::{SessionSpec, UsageScenario};
//!
//! // 8 devices × 4-user VR parties = a 32-user fleet.
//! let fleet = FleetSpec::uniform(
//!     "vr-arcade",
//!     SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 4, 0.002),
//!     8,
//! );
//! let system = UniformProvider::new(4, 0.001, 0.001);
//! let report = run_fleet(&fleet, &system, &FleetRunConfig::default());
//! assert_eq!(report.num_users, 32);
//! assert!(report.fleet_score > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod compare;
mod executor;
mod report;
mod scoring;
mod shard;
mod spec;
pub mod specfile;
mod supervisor;
pub mod wire;

pub use accumulator::{
    DropCounts, FleetAccumulator, ModelAccumulator, ScenarioAccumulator, StatAgg, ENERGY_SCALE,
    SCORE_SCALE, TIME_SCALE,
};
pub use compare::{
    compare_recovery_policies, compare_recovery_policies_with, PolicyComparisonReport,
    PolicyOutcome,
};
pub use executor::{default_workers, run_fleet, run_fleet_with, FleetRunConfig};
pub use report::{
    DistributionReport, FleetDropReport, FleetReport, GroupFleetReport, ModelFleetReport,
    ScenarioFleetReport,
};
pub use scoring::InferenceScorer;
pub use shard::{
    check_partition, cut, fleet_fingerprint, merge_fleet_shards, plan_shards, run_fleet_shard,
    run_fleet_shard_with, ShardPiece, ShardPlan, ShardState,
};
pub use spec::{replica_seed, DeviceGroup, FleetSpec};
pub use specfile::{fleet_from_str, fleet_to_json};
pub use supervisor::{supervise, ShardError};
