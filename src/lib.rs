//! # hpcc — High Precision Congestion Control, reproduced in Rust
//!
//! This is the umbrella crate of a from-scratch reproduction of
//! *"HPCC: High Precision Congestion Control"* (Li et al., SIGCOMM 2019).
//! It re-exports the workspace crates so applications can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hpcc-types` | simulated time, bandwidth, packets, the INT header |
//! | [`cc`] | `hpcc-cc` | HPCC (Algorithm 1) and the DCQCN / TIMELY / DCTCP baselines |
//! | [`sim`] | `hpcc-sim` | the packet-level discrete-event simulator (switches with PFC/ECN/INT, host NICs) |
//! | [`topology`] | `hpcc-topology` | star / dumbbell / testbed PoD / FatTree builders with ECMP routes |
//! | [`workload`] | `hpcc-workload` | WebSearch & FB_Hadoop CDFs, Poisson load, incast bursts, locality/skew pair samplers, flow-trace replay |
//! | [`stats`] | `hpcc-stats` | FCT slowdowns, queue percentiles, PFC summaries, fairness |
//! | [`core`] | `hpcc-core` | the experiment API, per-figure presets, reports, Appendix-A fluid model |
//!
//! ## Quick start
//!
//! Scenarios are declared as plain data ([`ScenarioSpec`]), built into
//! experiments, and run — one at a time or as a parallel [`Campaign`]:
//!
//! ```
//! use hpcc::prelude::*;
//!
//! // An 8-to-1 incast on a single switch, HPCC vs DCQCN, as a campaign.
//! let bw = Bandwidth::from_gbps(25);
//! let campaign = Campaign::from_scenarios(
//!     ["HPCC", "DCQCN"]
//!         .map(|label| hpcc::core::presets::incast_on_star(
//!             label, CcSpec::by_label(label), 8, 100_000, bw, Duration::from_ms(5)))
//!         .to_vec(),
//! );
//! let report = campaign.run(); // one OS thread per core
//! assert_eq!(report.results.len(), 2);
//! let hpcc_run = &report.results[0];
//! assert_eq!(hpcc_run.completion, 1.0);
//! assert_eq!(hpcc_run.pfc.pause_frames, 0);
//! // Bit-identical to a serial run of the same specs:
//! assert_eq!(campaign.run_serial().digests(), report.digests());
//! ```
//!
//! [`ScenarioSpec`]: crate::core::ScenarioSpec
//! [`Campaign`]: crate::core::Campaign

pub use hpcc_cc as cc;
pub use hpcc_core as core;
pub use hpcc_sim as sim;
pub use hpcc_stats as stats;
pub use hpcc_topology as topology;
pub use hpcc_types as types;
pub use hpcc_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hpcc_cc::{
        CcAlgorithm, CongestionControl, DcqcnConfig, DctcpConfig, HpccConfig, HpccReactionMode,
        TimelyConfig,
    };
    pub use hpcc_core::{
        BuildError, Campaign, CampaignReport, CcSpec, CdfSpec, Coordinator, Experiment,
        ExperimentResults, FabricConfig, FabricError, FlowDecl, MeasurementSpec, ResultLedger,
        ScenarioResult, ScenarioSpec, ShardPlan, TopologyChoice, WorkerConfig, WorkloadSpec,
    };
    pub use hpcc_sim::{EcnConfig, FlowControlMode, SimConfig, SimOutput, Simulator};
    pub use hpcc_stats::{FctAnalyzer, Percentiles};
    pub use hpcc_topology::{
        dumbbell, fat_tree, leaf_spine, star, testbed_pod, FatTreeParams, TopologyBuilder,
        TopologySpec,
    };
    pub use hpcc_types::{Bandwidth, Duration, FlowId, FlowSpec, NodeId, Packet, SimTime};
    pub use hpcc_workload::{
        fb_hadoop, fixed_size, incast, websearch, IncastGenerator, LoadGenerator, LocalitySpec,
        PairSpec, SkewSpec, Trace, TraceRecord, TraceSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        let bw = Bandwidth::from_gbps(100);
        let cc = CcAlgorithm::hpcc_default();
        assert_eq!(cc.label(), "HPCC");
        assert_eq!(bw.as_gbps_f64(), 100.0);
        let topo = star(4, bw, Duration::from_us(1));
        assert_eq!(topo.hosts().len(), 4);
    }
}
