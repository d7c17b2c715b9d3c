//! # hpcc-sim
//!
//! A packet-level discrete-event network simulator purpose-built to
//! reproduce "HPCC: High Precision Congestion Control" (SIGCOMM 2019). It
//! plays the role ns-3 plays in the paper's evaluation:
//!
//! * **switches** with a shared buffer, multi-class egress queues behind a
//!   pluggable scheduler (`sched`: strict priority or DWRR; PIAS-style
//!   dynamic demotion tags at the sender), WRED/ECN marking with per-class
//!   thresholds, dynamic-threshold PFC (per-class pause/resume frames),
//!   dynamic drop thresholds for lossy configurations, destination-based
//!   ECMP and INT stamping at dequeue (§4.1),
//! * **host NICs** with per-flow rate pacing and window limiting driven by a
//!   pluggable congestion-control algorithm (`hpcc-cc`), per-packet ACKs
//!   echoing INT, CNP generation for DCQCN, go-back-N and IRN-style loss
//!   recovery (§4.2),
//! * a deterministic, seeded event engine in integer picoseconds.
//!
//! The top-level entry point is [`Simulator`]: build a topology with
//! `hpcc-topology`, describe the host behaviour with [`SimConfig`], add
//! flows, call [`Simulator::run`], and read the raw measurement records from
//! the returned [`SimOutput`].

pub mod appendix_a;
pub mod backend;
pub mod config;
pub mod engine;
pub mod fault;
pub mod fluid;
pub mod output;

mod host;
mod link;
mod sched;
mod simulator;
mod switch;

pub use appendix_a::{ai_equilibrium_rate, ai_equilibrium_utilization, FluidNetwork};
pub use backend::{
    backend_for, Backend, BackendKind, CompiledScenario, PacketBackend, PARALLEL_PACKET_REMOVED,
};
pub use config::{
    EcnConfig, FlowControlMode, MeasurementSpec, QueueingConfig, SchedulerSpec, SimConfig,
    SlowdownBuckets,
};
pub use engine::Event;
pub use fault::{DegradedLink, FaultConfig, FaultTimeline, LinkDownMode, LinkFault, StragglerHost};
pub use fluid::FluidBackend;
pub use output::{FlowRecord, PortKey, SimOutput};
pub use simulator::Simulator;
