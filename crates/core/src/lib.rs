//! # hpcc-core
//!
//! The high-level experiment API of the HPCC reproduction. It glues the
//! substrates together — topologies (`hpcc-topology`), traffic
//! (`hpcc-workload`), the packet-level simulator (`hpcc-sim`), congestion
//! control (`hpcc-cc`) and metrics (`hpcc-stats`) — behind three things:
//!
//! * [`scenario`] — the declarative [`ScenarioSpec`]: scenarios as plain,
//!   serializable data (topology, scheme, workloads — including rack
//!   locality, heavy-hitter skew and trace replay — duration, seed,
//!   measurement options); [`ScenarioSpec::try_build`] is the one, total
//!   function from a spec to a runnable [`Experiment`] (anything it rejects
//!   is a typed [`BuildError`]), [`ScenarioSpec::freeze`] exports a
//!   trace artifact,
//! * [`campaign`] — the [`Campaign`] runner: execute batches of scenarios
//!   across OS threads with deterministic, bit-identical-to-serial results,
//!   and shard them across processes with [`ShardPlan`],
//! * [`wire`] — the JSONL wire format distributed campaigns stream their
//!   per-scenario results through, and the one [`ResultLedger`] they meet in,
//! * [`fabric`] — the elastic cross-host campaign fabric: a TCP
//!   coordinator serving scenario indices as a dynamic work queue
//!   (EWMA-sized leases, heartbeat failure detection, digest-deduped
//!   retries, JSONL checkpoint/resume) to [`fabric::join`] workers, with
//!   merged reports bit-identical to serial execution,
//! * [`Experiment`] / [`ExperimentResults`] — run and analyse one resolved
//!   simulation,
//! * [`presets`] — ready-made scenario builders for every figure in the
//!   paper's evaluation (§5.2–§5.4).

pub mod campaign;
pub mod codec;
pub mod experiment;
pub mod fabric;
pub mod json;
pub mod presets;
pub mod report;
pub mod scenario;
pub mod timing;
pub mod wire;

pub use campaign::{Campaign, CampaignReport, FaultSummary, ScenarioResult, ShardPlan};
pub use experiment::{Experiment, ExperimentResults};
pub use fabric::{
    Coordinator, FabricConfig, FabricError, FabricReport, WorkerConfig, WorkerSummary,
};
pub use presets::SCHEME_SET_FIG11;
pub use scenario::{
    BackendSpec, BuildError, CcSpec, CdfSpec, FaultSpec, FlowDecl, MeasurementSpec, QueueingSpec,
    ScenarioSpec, SchedulerSpec, SlowdownBuckets, TopologyChoice, WorkloadSpec,
};
pub use wire::ResultLedger;
