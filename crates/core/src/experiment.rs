//! Running and analysing one simulation.
//!
//! [`Experiment`] is deliberately opaque: the only way to one is
//! [`crate::ScenarioSpec::try_build`], so its invariants — a `SimConfig`
//! consistent with the congestion-control scheme and the topology's base
//! RTT, every index in range for the topology — hold by construction
//! instead of by caller discipline.

use hpcc_sim::{backend_for, BackendKind, CompiledScenario, SimConfig, SimOutput, SlowdownBuckets};
use hpcc_stats::fct::{FlowFct, SizeBucketStats};
use hpcc_stats::pfc::{pause_burst_spread, PfcSummary};
use hpcc_stats::queue::queue_percentile;
use hpcc_stats::{FctAnalyzer, FctBucket, Percentiles};
use hpcc_topology::TopologySpec;
use hpcc_types::{data_wire_size, Bandwidth, Duration, FlowSpec, NodeId, SimTime};

/// Wire size of a full data packet with the INT budget — the MTU the base-RTT
/// suggestion is computed against throughout the workspace.
pub const MTU_WIRE_SIZE: u64 = data_wire_size(true);

/// One resolved simulation: the [`CompiledScenario`] an engine answers
/// (topology, behavioural configuration, flow list) plus what the analysis
/// needs beside it — a label for reports, the NIC rate ideal FCTs are
/// computed against, and which engine runs it.
///
/// ```
/// use hpcc_core::{CcSpec, FlowDecl, ScenarioSpec, TopologyChoice, WorkloadSpec};
/// use hpcc_types::{Bandwidth, Duration};
///
/// let exp = ScenarioSpec::new(
///     "2-to-1",
///     TopologyChoice::star(3, Bandwidth::from_gbps(100)),
///     CcSpec::by_label("HPCC"),
///     Duration::from_ms(1),
/// )
/// .with_workload(WorkloadSpec::Explicit(vec![
///     FlowDecl::new(1, 0, 2, 100_000, Duration::ZERO),
///     FlowDecl::new(2, 1, 2, 100_000, Duration::ZERO),
/// ]))
/// .with_queue_sampling(Duration::from_us(2))
/// .try_build()
/// .expect("every member is in range");
/// assert_eq!(exp.flows().len(), 2);
/// let res = exp.run();
/// assert_eq!(res.completion_fraction(), 1.0);
/// ```
pub struct Experiment {
    pub(crate) label: String,
    pub(crate) scenario: CompiledScenario,
    pub(crate) host_bw: Bandwidth,
    pub(crate) backend: BackendKind,
    pub(crate) slowdown_buckets: SlowdownBuckets,
}

impl Experiment {
    /// Human-readable label ("HPCC", "DCQCN Kmin=100K", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The network to simulate.
    pub fn topology(&self) -> &TopologySpec {
        &self.scenario.topo
    }

    /// Host/switch behaviour.
    pub fn config(&self) -> &SimConfig {
        &self.scenario.cfg
    }

    /// Flows to inject.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.scenario.flows
    }

    /// Host NIC rate (used for ideal-FCT computation).
    pub fn host_bw(&self) -> Bandwidth {
        self.host_bw
    }

    /// The flow-size buckets the campaign reports slowdowns in, resolved
    /// from the spec's `trace.slowdown_buckets` or its workloads.
    pub fn slowdown_buckets(&self) -> SlowdownBuckets {
        self.slowdown_buckets
    }

    /// Run the simulation and wrap the raw output with analysis helpers.
    ///
    /// Dispatches through the [`hpcc_sim::Backend`] boundary: the default
    /// [`BackendKind::Packet`] path issues exactly the calls the pre-boundary
    /// code made (golden digests are pinned on it), while
    /// [`BackendKind::Fluid`] answers the same scenario with the Appendix A.2
    /// fluid model.
    pub fn run(self) -> ExperimentResults {
        let cfg = &self.scenario.cfg;
        let analyzer = FctAnalyzer::new(self.host_bw, cfg.base_rtt, cfg.int_enabled);
        let host_count = self.scenario.topo.hosts().len();
        let flow_count = self.scenario.flows.len();
        let out = backend_for(self.backend).run(self.scenario);
        ExperimentResults {
            label: self.label,
            analyzer,
            out,
            flow_count,
            host_count,
        }
    }
}

/// The outcome of one experiment plus derived-metric helpers.
pub struct ExperimentResults {
    /// Label copied from the experiment.
    pub label: String,
    /// Ideal-FCT model used for slowdowns.
    pub analyzer: FctAnalyzer,
    /// Raw simulator output.
    pub out: SimOutput,
    /// Number of flows that were injected.
    pub flow_count: usize,
    /// Number of hosts in the topology.
    pub host_count: usize,
}

impl ExperimentResults {
    /// Per-flow (size, FCT) records.
    pub fn flow_fcts(&self) -> Vec<FlowFct> {
        self.out
            .flows
            .iter()
            .map(|f| FlowFct {
                size: f.size,
                fct: f.fct(),
            })
            .collect()
    }

    /// FCT-slowdown summary per flow-size bucket.
    pub fn slowdown_buckets(&self, buckets: &[FctBucket]) -> Vec<SizeBucketStats> {
        self.analyzer.bucketed_slowdowns(&self.flow_fcts(), buckets)
    }

    /// Overall FCT-slowdown percentiles.
    pub fn slowdown_overall(&self) -> Option<Percentiles> {
        self.analyzer.overall(&self.flow_fcts())
    }

    /// Slowdown percentiles restricted to flows of at most `max_size` bytes
    /// (the paper's "flows shorter than 3KB" style claims).
    pub fn slowdown_for_sizes_up_to(&self, max_size: u64) -> Option<Percentiles> {
        let flows: Vec<FlowFct> = self
            .flow_fcts()
            .into_iter()
            .filter(|f| f.size <= max_size)
            .collect();
        self.analyzer.overall(&flows)
    }

    /// Queue length at a percentile of the sampled histogram.
    pub fn queue_percentile(&self, p: f64) -> Option<u64> {
        queue_percentile(&self.out.queue_histogram, self.out.queue_histogram_bin, p)
    }

    /// Queue length at a percentile of one data class's sampled histogram
    /// (`None` when the run was single-class or the class saw no samples).
    pub fn class_queue_percentile(&self, class: usize, p: f64) -> Option<u64> {
        let hist = self.out.class_queue_histograms.get(class)?;
        queue_percentile(hist, self.out.queue_histogram_bin, p)
    }

    /// FCT-slowdown percentiles grouped by the flows' application priority
    /// (keyed by [`hpcc_types::FlowPriority`] wire code, ascending). A
    /// single-class legacy run reports one group with code 0.
    pub fn slowdown_by_priority(&self) -> Vec<(u8, Option<Percentiles>)> {
        let flows: Vec<(u8, FlowFct)> = self
            .out
            .flows
            .iter()
            .map(|f| {
                (
                    f.prio,
                    FlowFct {
                        size: f.size,
                        fct: f.fct(),
                    },
                )
            })
            .collect();
        self.analyzer.grouped(&flows)
    }

    /// PFC summary over every port in the run.
    pub fn pfc_summary(&self) -> PfcSummary {
        let pauses: Vec<Duration> = self.out.ports.values().map(|c| c.pause_duration).collect();
        let frames: u64 = self.out.ports.values().map(|c| c.pause_frames_sent).sum();
        PfcSummary::new(
            &pauses,
            frames,
            self.out.elapsed.saturating_since(SimTime::ZERO),
        )
    }

    /// Per-burst count of distinct switches that emitted PFC pauses (the
    /// propagation-spread proxy for Figure 1a).
    pub fn pfc_burst_spread(&self, gap: Duration) -> Vec<usize> {
        let events: Vec<(SimTime, NodeId)> = self
            .out
            .pfc_events
            .iter()
            .map(|e| (e.time, e.node))
            .collect();
        pause_burst_spread(&events, gap)
    }

    /// Fraction of injected flows that completed within the horizon.
    pub fn completion_fraction(&self) -> f64 {
        if self.flow_count == 0 {
            return 1.0;
        }
        self.out.flows.len() as f64 / self.flow_count as f64
    }

    /// Total goodput delivered to receivers divided by elapsed time and host
    /// capacity (an average utilization figure).
    pub fn average_utilization(&self, host_bw: Bandwidth) -> f64 {
        let bytes: u64 = self.out.flows.iter().map(|f| f.size).sum();
        let secs = self.out.elapsed.as_secs_f64();
        if secs == 0.0 || self.host_count == 0 {
            return 0.0;
        }
        (bytes as f64 * 8.0) / (secs * self.host_count as f64 * host_bw.as_bps() as f64)
    }

    /// [`ExperimentResults::average_utilization`] with the denominator
    /// reduced by the host-NIC downtime fault injection imposed: goodput is
    /// divided by the host-seconds the NICs were actually *up*. On a
    /// fault-free run (zero downtime) this equals the legacy figure exactly.
    pub fn utilization_while_up(&self, host_bw: Bandwidth) -> f64 {
        let bytes: u64 = self.out.flows.iter().map(|f| f.size).sum();
        let host_secs = self.out.elapsed.as_secs_f64() * self.host_count as f64
            - self.out.host_nic_downtime.as_secs_f64();
        if host_secs <= 0.0 {
            return 0.0;
        }
        (bytes as f64 * 8.0) / (host_secs * host_bw.as_bps() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CcSpec, FlowDecl, ScenarioSpec, TopologyChoice, WorkloadSpec};

    fn tiny_experiment() -> Experiment {
        ScenarioSpec::new(
            "tiny",
            TopologyChoice::star(3, Bandwidth::from_gbps(100)),
            CcSpec::by_label("HPCC"),
            Duration::from_ms(5),
        )
        .with_workload(WorkloadSpec::Explicit(vec![
            FlowDecl::new(1, 0, 2, 500_000, Duration::ZERO),
            FlowDecl::new(2, 1, 2, 500_000, Duration::ZERO),
            FlowDecl::new(3, 0, 1, 2_000, Duration::from_us(50)),
        ]))
        .with_queue_sampling(Duration::from_us(2))
        .with_goodput_bin(Duration::from_us(50))
        .build()
    }

    #[test]
    fn experiment_runs_and_derives_metrics() {
        let res = tiny_experiment().run();
        assert_eq!(res.label, "tiny");
        assert_eq!(res.out.flows.len(), 3);
        assert_eq!(res.completion_fraction(), 1.0);
        // Slowdowns exist and are at least 1.
        let overall = res.slowdown_overall().unwrap();
        assert_eq!(overall.count, 3);
        assert!(overall.p50 >= 1.0);
        // The small flow has a small slowdown bucketed separately.
        let small = res.slowdown_for_sizes_up_to(3_000).unwrap();
        assert_eq!(small.count, 1);
        assert!(res.queue_percentile(50.0).is_some());
        // No PFC with HPCC here.
        let pfc = res.pfc_summary();
        assert_eq!(pfc.pause_time_fraction(), 0.0);
        assert!(res.pfc_burst_spread(Duration::from_us(100)).is_empty());
        let util = res.average_utilization(Bandwidth::from_gbps(100));
        assert!(util > 0.0 && util < 1.0);
    }
}
