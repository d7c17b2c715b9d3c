//! # hpcc-cc
//!
//! Congestion-control algorithms evaluated in "HPCC: High Precision
//! Congestion Control" (Li et al., SIGCOMM 2019):
//!
//! * [`hpcc::Hpcc`] — the paper's Algorithm 1 (window-based, INT-driven),
//!   including the ablations used in §3.4 and §5.4 (per-ACK-only,
//!   per-RTT-only reaction, and the rxRate signal variant of Figure 6),
//! * [`dcqcn::Dcqcn`] — the production baseline (ECN/CNP driven rate control
//!   with fast recovery, additive and hyper increase),
//! * [`timely::Timely`] — RTT-gradient rate control,
//! * [`dctcp::Dctcp`] — ECN-fraction window control (slow start removed, as
//!   in the paper's comparison),
//! * [`windowed::Windowed`] — the paper's "DCQCN+win" / "TIMELY+win"
//!   variants: a rate-based scheme wrapped with a static BDP sending window.
//!
//! Every algorithm implements the [`CongestionControl`] trait. The simulator
//! drives a trait object per flow: it reports ACKs (with echoed INT records),
//! CNPs, NACK/loss events and timer expirations, and reads back the sending
//! window (inflight-byte limit) and pacing rate.

pub mod api;
pub mod config;
pub mod dcqcn;
pub mod dctcp;
pub mod hpcc;
pub mod timely;
pub mod windowed;

pub use api::{AckEvent, CongestionControl, FlowRateState};
pub use config::{build_cc, CcAlgorithm};
pub use dcqcn::{Dcqcn, DcqcnConfig};
pub use dctcp::{Dctcp, DctcpConfig};
pub use hpcc::{Hpcc, HpccConfig, HpccReactionMode};
pub use timely::{Timely, TimelyConfig};
pub use windowed::Windowed;
