//! # hpcc-topology
//!
//! Network topologies used by the HPCC reproduction, plus the ECMP routing
//! tables the simulator forwards with.
//!
//! * [`TopologyBuilder`] / [`TopologySpec`] — generic graph description
//!   (hosts, switches, links) with all-shortest-path ECMP routes computed at
//!   build time,
//! * [`star`] — a single switch with N hosts (incast, fairness and 2-to-1
//!   micro-benchmarks of §5.2/§5.4),
//! * [`dumbbell`] — two switches joined by a bottleneck link,
//! * [`testbed_pod`] — the 32-server / 4-ToR / 1-Agg PoD used for the paper's
//!   testbed experiments (§5.1, single-homed simplification),
//! * [`fat_tree`] — the three-tier Clos used for the paper's large-scale
//!   simulations (§5.1: 16 Core, 20 Agg, 20 ToR, 320 servers), parameterised
//!   so that scaled-down variants preserve the same structure,
//! * [`leaf_spine`] — the two-tier Clos,
//! * [`corpus`] — a dependency-free importer for external topology files
//!   (edge lists) into [`TopologySpec`].

pub mod builders;
pub mod corpus;
pub mod routing;
pub mod spec;

pub use builders::{dumbbell, fat_tree, leaf_spine, star, testbed_pod, FatTreeParams};
pub use corpus::{CorpusError, CorpusTopology};
pub use spec::{LinkSpec, NodeKind, PortDesc, TopologyBuilder, TopologySpec};
