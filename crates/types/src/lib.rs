//! # hpcc-types
//!
//! Foundation types shared by every crate in the HPCC reproduction
//! ("HPCC: High Precision Congestion Control", Li et al., SIGCOMM 2019).
//!
//! The crate is deliberately dependency-free: it defines
//!
//! * [`SimTime`] / [`Duration`] — integer picosecond simulated time, so that
//!   packet serialization times at 25/100/400 Gbps are exact and the
//!   simulator stays deterministic,
//! * [`Bandwidth`] and byte-count helpers,
//! * identifier newtypes ([`NodeId`], [`PortId`], [`FlowId`], [`Priority`]),
//! * the on-wire model: [`Packet`], [`PacketKind`], and the INT header of the
//!   paper's Figure 7 ([`IntHeader`], [`IntHopRecord`]) and the per-flow
//!   source [`Route`] packets are forwarded by,
//! * flow descriptions ([`FlowSpec`]) used by workload generators and the
//!   simulator.

pub mod bandwidth;
pub mod flow;
pub mod ids;
pub mod packet;
pub mod rng;
pub mod time;

pub use bandwidth::Bandwidth;
pub use flow::{FlowPriority, FlowSpec};
pub use ids::{FlowId, NodeId, PortId, Priority};
pub use packet::{
    data_wire_size, AckFlags, IntHeader, IntHopRecord, Packet, PacketKind, Route, ACK_BASE_SIZE,
    DATA_HEADER_SIZE, INT_BUDGET_SIZE, INT_HOP_SIZE, MAX_INT_HOPS, MTU_PAYLOAD, PFC_FRAME_SIZE,
};
pub use rng::SplitMix64;
pub use time::{Duration, SimTime};
