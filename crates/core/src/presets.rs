//! Ready-made scenario builders for every figure in the paper's evaluation
//! (§5.2–§5.4). Each builder takes explicit scale parameters (durations,
//! sizes, topology scale) so that the figure harnesses can run laptop-sized
//! versions by default and paper-sized versions on demand.
//!
//! Every preset returns a declarative [`ScenarioSpec`]: call
//! [`ScenarioSpec::build`] for the concrete [`crate::Experiment`],
//! [`ScenarioSpec::run`] to execute it directly, or queue specs into a
//! [`Campaign`] to run them in parallel.

use crate::campaign::Campaign;
use crate::scenario::{
    BuildError, CcSpec, CdfSpec, FaultSpec, FlowDecl, QueueingSpec, ScenarioSpec, TopologyChoice,
    WorkloadSpec,
};
use hpcc_cc::{CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, TimelyConfig};
use hpcc_sim::{DegradedLink, EcnConfig, FlowControlMode, LinkDownMode, LinkFault};
use hpcc_topology::{FatTreeParams, NodeKind, TopologySpec};
use hpcc_types::{Bandwidth, Duration};
use hpcc_workload::{LocalitySpec, PairSpec, PrioritySpec, SkewSpec};

/// The six schemes compared in Figure 11, built for a given line rate and
/// base RTT.
pub const SCHEME_SET_FIG11: [&str; 6] = [
    "DCQCN",
    "TIMELY",
    "DCQCN+win",
    "TIMELY+win",
    "DCTCP",
    "HPCC",
];

/// Build one of the Figure 11 schemes by label. Any other label — a
/// manifest's `cc.label` is an open string — is an error naming it and the
/// six known ones.
pub fn scheme_by_label(
    label: &str,
    line_rate: Bandwidth,
    base_rtt: Duration,
) -> Result<CcAlgorithm, BuildError> {
    Ok(match label {
        "DCQCN" => CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(line_rate)),
        "DCQCN+win" => CcAlgorithm::DcqcnWin(DcqcnConfig::vendor_default(line_rate)),
        "TIMELY" => CcAlgorithm::Timely(TimelyConfig::recommended(line_rate, base_rtt)),
        "TIMELY+win" => CcAlgorithm::TimelyWin(TimelyConfig::recommended(line_rate, base_rtt)),
        "DCTCP" => CcAlgorithm::Dctcp(DctcpConfig::default()),
        "HPCC" => CcAlgorithm::Hpcc(HpccConfig::default()),
        other => {
            return Err(BuildError(format!(
                "cc.label: unknown scheme {other:?} (known: {})",
                SCHEME_SET_FIG11.join(", ")
            )))
        }
    })
}

/// Figure 6: 2-to-1 congestion on a star, tracing the bottleneck queue.
/// `use_rx_rate` selects the HPCC-rxRate ablation.
pub fn two_to_one(
    use_rx_rate: bool,
    host_bw: Bandwidth,
    flow_size: u64,
    end: Duration,
) -> ScenarioSpec {
    let label = if use_rx_rate {
        "HPCC-rxRate"
    } else {
        "HPCC (txRate)"
    };
    ScenarioSpec::new(
        label,
        TopologyChoice::star(3, host_bw),
        CcSpec::Hpcc(HpccConfig {
            use_rx_rate,
            ..HpccConfig::default()
        }),
        end,
    )
    .with_workload(WorkloadSpec::Explicit(vec![
        FlowDecl::new(1, 0, 2, flow_size, Duration::ZERO),
        FlowDecl::new(2, 1, 2, flow_size, Duration::ZERO),
    ]))
    .with_bottleneck_trace(2, Duration::from_us(1))
    .with_queue_sampling(Duration::from_us(1))
}

/// Figures 13/14 (and 9c/9d): an N-to-1 incast on a star topology, with the
/// bottleneck queue traced and per-flow goodput recorded.
pub fn incast_on_star(
    label: impl Into<String>,
    cc: impl Into<CcSpec>,
    n_senders: usize,
    flow_size: u64,
    host_bw: Bandwidth,
    end: Duration,
) -> ScenarioSpec {
    let flows = (0..n_senders)
        .map(|i| FlowDecl::new(1 + i as u64, i, n_senders, flow_size, Duration::ZERO))
        .collect();
    ScenarioSpec::new(label, TopologyChoice::star(n_senders + 1, host_bw), cc, end)
        .with_workload(WorkloadSpec::Explicit(flows))
        .with_bottleneck_trace(n_senders, Duration::from_us(1))
        .with_queue_sampling(Duration::from_us(1))
        .with_goodput_bin(Duration::from_us(10))
}

/// Figure 9a/9b: a long flow at line rate, a 1 MB short flow joins on the
/// same bottleneck and leaves; goodput of both is recorded.
pub fn long_short(cc: impl Into<CcSpec>, host_bw: Bandwidth, end: Duration) -> ScenarioSpec {
    let cc = cc.into();
    // The long flow occupies the whole run; the short 1 MB flow joins at 25%
    // of the horizon.
    let long_size = host_bw.bytes_in(end);
    ScenarioSpec::new(
        format!("long-short {}", cc.scheme_label()),
        TopologyChoice::star(3, host_bw),
        cc,
        end,
    )
    .with_workload(WorkloadSpec::Explicit(vec![
        FlowDecl::new(1, 0, 2, long_size, Duration::ZERO),
        FlowDecl::new(2, 1, 2, 1_000_000, end.mul_f64(0.25)),
    ]))
    .with_bottleneck_trace(2, Duration::from_us(2))
    .with_queue_sampling(Duration::from_us(2))
    .with_goodput_bin(Duration::from_us(20))
}

/// Figure 9e/9f: two elephant flows saturate a link while a third host sends
/// a stream of 1 KB mice through it; the mice FCTs give the latency CDF.
pub fn elephant_mice(
    cc: impl Into<CcSpec>,
    host_bw: Bandwidth,
    mice_interval: Duration,
    end: Duration,
) -> ScenarioSpec {
    let cc = cc.into();
    let elephant_size = host_bw.bytes_in(end);
    let mut flows = vec![
        FlowDecl::new(1, 0, 3, elephant_size, Duration::ZERO),
        FlowDecl::new(2, 1, 3, elephant_size, Duration::ZERO),
    ];
    let mut t = Duration::from_us(50);
    let mut id = 100;
    while t < end {
        flows.push(FlowDecl::new(id, 2, 3, 1_000, t));
        id += 1;
        t += mice_interval;
    }
    ScenarioSpec::new(
        format!("elephant-mice {}", cc.scheme_label()),
        TopologyChoice::star(4, host_bw),
        cc,
        end,
    )
    .with_workload(WorkloadSpec::Explicit(flows))
    .with_queue_sampling(Duration::from_us(1))
}

/// Figure 9g/9h: four flows join a bottleneck one after another; their
/// goodput over time shows (or fails to show) fair sharing.
pub fn fairness(
    cc: impl Into<CcSpec>,
    host_bw: Bandwidth,
    join_interval: Duration,
    end: Duration,
) -> ScenarioSpec {
    let cc = cc.into();
    let mut flows = Vec::new();
    for i in 0..4u64 {
        // Each flow is sized so that, under a fair share, it stays active
        // until roughly the end of the run.
        let start = join_interval * i;
        let active = end.saturating_sub(start);
        let size = (host_bw.bytes_in(active) as f64 * 0.4) as u64;
        flows.push(FlowDecl::new(
            i + 1,
            i as usize,
            4,
            size.max(1_000_000),
            start,
        ));
    }
    ScenarioSpec::new(
        format!("fairness {}", cc.scheme_label()),
        TopologyChoice::star(5, host_bw),
        cc,
        end,
    )
    .with_workload(WorkloadSpec::Explicit(flows))
    .with_queue_sampling(Duration::from_us(2))
    .with_goodput_bin(join_interval / 20)
}

/// Background + optional incast workload on the testbed PoD (§5.1/§5.2,
/// Figures 2, 3, 9, 10): 32 servers with 25 Gbps NICs behind 4 ToRs and one
/// Agg switch, driven by the WebSearch trace.
#[allow(clippy::too_many_arguments)]
pub fn testbed_websearch(
    label: impl Into<String>,
    cc: impl Into<CcSpec>,
    load: f64,
    end: Duration,
    incast_fan_in: Option<usize>,
    ecn_override: Option<EcnConfig>,
    flow_control: FlowControlMode,
    seed: u64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(label, TopologyChoice::testbed_pod(), cc, end)
        .with_seed(seed)
        .with_flow_control(flow_control)
        .with_queue_sampling(Duration::from_us(5))
        .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, load));
    if let Some(fan_in) = incast_fan_in {
        spec = spec.with_workload(WorkloadSpec::incast(fan_in, 500_000, 0.02));
    }
    if let Some(ecn) = ecn_override {
        spec = spec.with_ecn(ecn);
    }
    spec
}

/// Background + optional incast workload on the three-tier Clos fabric
/// (§5.3, Figures 11/12), driven by the FB_Hadoop trace.
#[allow(clippy::too_many_arguments)]
pub fn fattree_fb_hadoop(
    label: impl Into<String>,
    cc: impl Into<CcSpec>,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    with_incast: bool,
    flow_control: FlowControlMode,
    seed: u64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(label, TopologyChoice::FatTree(params), cc, end)
        .with_seed(seed)
        .with_flow_control(flow_control)
        .with_queue_sampling(Duration::from_us(5))
        .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, load));
    if with_incast {
        let fan_in = 60.min(params.total_hosts().saturating_sub(1));
        spec = spec.with_workload(WorkloadSpec::incast(fan_in, 500_000, 0.02));
    }
    spec
}

/// The Figure 11 comparison as a campaign: the six-scheme set on the Clos
/// fabric under FB_Hadoop background load (optionally plus 2% incast), one
/// scenario per scheme, sharing one seed. Run it with
/// [`Campaign::run`] for a parallel sweep or [`Campaign::run_serial`] for
/// the reference execution — the results are bit-identical.
pub fn fig11_campaign(
    params: FatTreeParams,
    load: f64,
    end: Duration,
    with_incast: bool,
    seed: u64,
) -> Campaign {
    Campaign::from_scenarios(
        SCHEME_SET_FIG11
            .iter()
            .map(|label| {
                fattree_fb_hadoop(
                    *label,
                    CcSpec::by_label(*label),
                    params,
                    load,
                    end,
                    with_incast,
                    FlowControlMode::Lossless,
                    seed,
                )
            })
            .collect(),
    )
}

/// Figure 1 (production PFC telemetry, reproduced in simulation): DCQCN on
/// the testbed PoD with a small buffer and repeated large incasts, so that
/// PFC pauses propagate from the ToRs towards hosts and the Agg switch.
pub fn pfc_storm(load: f64, fan_in: usize, end: Duration, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "PFC storm (DCQCN)",
        TopologyChoice::testbed_pod(),
        CcSpec::by_label("DCQCN"),
        end,
    )
    .with_seed(seed)
    .with_buffer_bytes(4_000_000)
    .with_queue_sampling(Duration::from_us(5))
    .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, load))
    .with_workload(WorkloadSpec::incast(fan_in, 500_000, 0.05))
}

/// A rack-locality sweep on the Clos fabric: one scenario per intra-rack
/// fraction, same scheme, seed and load throughout, so the only variable is
/// how much traffic stays inside the source rack. Sweeping from 0 (all
/// cross-rack) towards 1 (all intra-rack) moves load off the
/// oversubscribed ToR uplinks — exactly the realism axis the paper's
/// uniform workloads cannot express.
pub fn fattree_locality_sweep(
    cc: impl Into<CcSpec> + Clone,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    intra_fractions: &[f64],
    seed: u64,
) -> Campaign {
    Campaign::from_scenarios(
        intra_fractions
            .iter()
            .map(|&fraction| {
                ScenarioSpec::new(
                    format!("locality intra={fraction:.2}"),
                    TopologyChoice::FatTree(params),
                    cc.clone(),
                    end,
                )
                .with_seed(seed)
                .with_queue_sampling(Duration::from_us(5))
                .with_workload(WorkloadSpec::poisson_with_pairs(
                    CdfSpec::FbHadoop,
                    load,
                    PairSpec::Locality(LocalitySpec::IntraRack { fraction }),
                ))
            })
            .collect(),
    )
}

/// A heavy-hitter skew sweep on the Clos fabric: one scenario per Zipf
/// exponent (0 = uniform endpoints, 1.0–1.5 = typical datacenter fits).
/// Which hosts are hot is a deterministic function of the seed.
pub fn fattree_skew_sweep(
    cc: impl Into<CcSpec> + Clone,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    exponents: &[f64],
    seed: u64,
) -> Campaign {
    Campaign::from_scenarios(
        exponents
            .iter()
            .map(|&exponent| {
                ScenarioSpec::new(
                    format!("skew zipf={exponent:.2}"),
                    TopologyChoice::FatTree(params),
                    cc.clone(),
                    end,
                )
                .with_seed(seed)
                .with_queue_sampling(Duration::from_us(5))
                .with_workload(WorkloadSpec::poisson_with_pairs(
                    CdfSpec::FbHadoop,
                    load,
                    PairSpec::Skew(SkewSpec::new(exponent)),
                ))
            })
            .collect(),
    )
}

/// A PIAS sweep on the Clos fabric: the legacy single-queue baseline plus
/// one scenario per demotion-threshold set, everything else (scheme, seed,
/// load, trace) held fixed. PIAS tags packets at the sender by bytes already
/// sent — flows start in the top class and are demoted as they grow — so the
/// sweep isolates how multi-queue scheduling reshapes the per-priority and
/// short-flow FCT distributions under one congestion-control scheme.
pub fn fattree_pias_sweep(
    cc: impl Into<CcSpec> + Clone,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    threshold_sets: &[Vec<u64>],
    seed: u64,
) -> Campaign {
    let base = |name: String| {
        ScenarioSpec::new(name, TopologyChoice::FatTree(params), cc.clone(), end)
            .with_seed(seed)
            .with_queue_sampling(Duration::from_us(5))
            // The mice/elephant tags don't steer PIAS (bytes-sent demotion
            // overrides static mapping); they key the per-priority FCT
            // breakdown so the sweep's effect on mice is directly readable.
            .with_workload(WorkloadSpec::poisson_with_prio(
                CdfSpec::FbHadoop,
                load,
                PrioritySpec::ShortFlows { threshold: 100_000 },
            ))
    };
    let mut scenarios = vec![base("queueing SP-1 (legacy)".into())];
    for thresholds in threshold_sets {
        let q = QueueingSpec::pias(thresholds.clone());
        scenarios.push(base(format!("queueing {}", q.label())).with_queueing(q));
    }
    Campaign::from_scenarios(scenarios)
}

/// The first switch–switch (fabric) link of a topology, by index into
/// [`TopologySpec::links`]. The fault presets flap or degrade this link so
/// the faulted element is a deterministic function of the topology alone —
/// on the Clos fabrics it is a ToR uplink, the oversubscribed tier where a
/// failure hurts the most.
pub fn first_fabric_link(topo: &TopologySpec) -> usize {
    topo.links()
        .iter()
        .position(|l| {
            matches!(topo.kind(l.a), NodeKind::Switch) && matches!(topo.kind(l.b), NodeKind::Switch)
        })
        .expect("topology has no switch-switch link")
}

/// A link-flap sweep on the Clos fabric: one scenario per flap count, with
/// the first fabric uplink (see [`first_fabric_link`]) going down for 4% of
/// the horizon starting at 20%, repeating every 10% of the horizon. Pause
/// mode holds frames at the egress while the link is down, so each outage is
/// a burst of head-of-line blocking — and, because routing stays static, the
/// ECMP paths crossing the link blackhole until it returns. Everything else
/// (scheme, seed, load, trace) is held fixed, so the sweep isolates how much
/// FCT/pause damage each additional flap inflicts.
pub fn fattree_linkflap_sweep(
    cc: impl Into<CcSpec> + Clone,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    flap_counts: &[u32],
    seed: u64,
) -> Campaign {
    let link = first_fabric_link(&TopologyChoice::FatTree(params).build());
    Campaign::from_scenarios(
        flap_counts
            .iter()
            .map(|&flaps| {
                fattree_fb_hadoop(
                    format!("linkflap x{}", flaps as u64 + 1),
                    cc.clone(),
                    params,
                    load,
                    end,
                    false,
                    FlowControlMode::Lossless,
                    seed,
                )
                .with_faults(FaultSpec::new().with_link_fault(LinkFault {
                    link,
                    at: end.mul_f64(0.2),
                    down_for: end.mul_f64(0.04),
                    flaps,
                    period: end.mul_f64(0.1),
                    mode: LinkDownMode::Pause,
                }))
            })
            .collect(),
    )
}

/// The Figure 11 matrix under a degraded fabric link: the six-scheme set on
/// the Clos fabric, every scenario carrying one identical fault timeline —
/// the first fabric uplink gains 5 µs of extra latency and 1% iid loss over
/// the middle half of the run. The fabric runs IRN (lossy, selective
/// retransmission) so the loss is recovered rather than fatal, and the only
/// variable across scenarios is the congestion-control scheme: how each one
/// misreads fault loss/delay as congestion is exactly what separates them.
pub fn degraded_link_cc_matrix(
    params: FatTreeParams,
    load: f64,
    end: Duration,
    seed: u64,
) -> Campaign {
    let link = first_fabric_link(&TopologyChoice::FatTree(params).build());
    let faults = FaultSpec::new().with_degraded_link(DegradedLink {
        link,
        from: end.mul_f64(0.25),
        until: end.mul_f64(0.75),
        extra_delay: Duration::from_us(5),
        loss: 0.01,
    });
    Campaign::from_scenarios(
        SCHEME_SET_FIG11
            .iter()
            .map(|label| {
                fattree_fb_hadoop(
                    format!("degraded {label}"),
                    CcSpec::by_label(*label),
                    params,
                    load,
                    end,
                    false,
                    FlowControlMode::LossyIrn,
                    seed,
                )
                .with_faults(faults.clone())
            })
            .collect(),
    )
}

/// A scheduler comparison under a mice/elephant priority mix: the same
/// FB_Hadoop background load, with flows below `mice_threshold` bytes tagged
/// latency-sensitive, run through (a) the legacy single queue, (b) strict
/// priority over `classes` data classes, and (c) DWRR with uniform weights.
/// The priority tags are a pure size function, so all three scenarios inject
/// the bit-identical flow list — only the switches schedule it differently.
pub fn priority_mix(
    cc: impl Into<CcSpec> + Clone,
    params: FatTreeParams,
    load: f64,
    end: Duration,
    mice_threshold: u64,
    classes: u8,
    seed: u64,
) -> Campaign {
    let base = |name: String| {
        ScenarioSpec::new(name, TopologyChoice::FatTree(params), cc.clone(), end)
            .with_seed(seed)
            .with_queue_sampling(Duration::from_us(5))
            .with_workload(WorkloadSpec::poisson_with_prio(
                CdfSpec::FbHadoop,
                load,
                PrioritySpec::ShortFlows {
                    threshold: mice_threshold,
                },
            ))
    };
    Campaign::from_scenarios(vec![
        base("prio-mix SP-1 (legacy)".into()),
        base(format!("prio-mix SP-{classes}"))
            .with_queueing(QueueingSpec::strict_priority(classes)),
        base(format!("prio-mix DWRR-{classes}"))
            .with_queueing(QueueingSpec::dwrr(vec![1; classes as usize])),
    ])
}

/// A trace-replay scenario: drive `topology` with the flows recorded in a
/// CSV trace file (see `hpcc_workload::trace` for the format). The
/// replay is deterministic, so two runs of the same file are bit-identical.
pub fn trace_replay(
    name: impl Into<String>,
    topology: TopologyChoice,
    cc: impl Into<CcSpec>,
    trace_path: impl Into<String>,
    end: Duration,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(name, topology, cc, end)
        .with_seed(seed)
        .with_queue_sampling(Duration::from_us(5))
        .with_workload(WorkloadSpec::trace_file(trace_path))
}

/// Custom flow-size distribution variant of [`testbed_websearch`] used by
/// sensitivity studies.
pub fn testbed_with_cdf(
    label: impl Into<String>,
    cc: impl Into<CcSpec>,
    cdf: CdfSpec,
    load: f64,
    end: Duration,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(label, TopologyChoice::testbed_pod(), cc, end)
        .with_seed(seed)
        .with_queue_sampling(Duration::from_us(5))
        .with_workload(WorkloadSpec::poisson(cdf, load))
}

/// The four schemes the fluid backend models with distinct steady states.
pub const SCHEME_SET_FLUID: [&str; 4] = ["DCQCN", "TIMELY", "DCTCP", "HPCC"];

/// The curated corpus topologies committed under `corpus/` at the repo
/// root, as repo-relative paths. Resolve them against the repo root (or
/// pass your own absolute paths to [`corpus_sweep`]) when the working
/// directory differs.
pub const CORPUS_FILES: [&str; 4] = [
    "corpus/abilene.edges",
    "corpus/dragonfly_9.edges",
    "corpus/jellyfish_12.edges",
    "corpus/rocketfuel_pop.edges",
];

/// One scenario shape swept across a set of corpus topology files (see
/// `corpus/` at the repo root and [`hpcc_topology::corpus`] for the
/// format): the same scheme, load and seed on every imported graph, so the
/// only variable is the topology itself. `host_bw` is the reference NIC
/// rate declared for slowdown computation on heterogeneous graphs.
pub fn corpus_sweep(
    paths: &[&str],
    cc: impl Into<CcSpec> + Clone,
    host_bw: Bandwidth,
    load: f64,
    end: Duration,
    seed: u64,
) -> Campaign {
    Campaign::from_scenarios(
        paths
            .iter()
            .map(|path| {
                let stem = path
                    .rsplit('/')
                    .next()
                    .unwrap_or(path)
                    .trim_end_matches(".edges");
                ScenarioSpec::new(
                    format!("corpus {stem}"),
                    TopologyChoice::Corpus {
                        path: (*path).to_string(),
                        host_bw,
                    },
                    cc.clone(),
                    end,
                )
                .with_seed(seed)
                .with_queue_sampling(Duration::from_us(5))
                .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, load))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::FlowId;

    #[test]
    fn scheme_labels_round_trip() {
        let bw = Bandwidth::from_gbps(100);
        let rtt = Duration::from_us(13);
        for label in SCHEME_SET_FIG11 {
            let cc = scheme_by_label(label, bw, rtt).unwrap();
            assert_eq!(cc.label(), label);
        }
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let err =
            scheme_by_label("BBR", Bandwidth::from_gbps(100), Duration::from_us(13)).unwrap_err();
        assert_eq!(
            err.0,
            "cc.label: unknown scheme \"BBR\" (known: DCQCN, TIMELY, DCQCN+win, TIMELY+win, DCTCP, HPCC)"
        );
    }

    #[test]
    fn two_to_one_preset_shape() {
        let spec = two_to_one(
            false,
            Bandwidth::from_gbps(100),
            1_000_000,
            Duration::from_ms(1),
        );
        let e = spec.build();
        assert_eq!(e.flows().len(), 2);
        assert_eq!(e.topology().hosts().len(), 3);
        assert!(e.config().measure.traced_port(e.topology()).is_some());
        assert!(e.config().int_enabled);
        let rx = two_to_one(
            true,
            Bandwidth::from_gbps(100),
            1_000_000,
            Duration::from_ms(1),
        );
        assert_eq!(rx.name, "HPCC-rxRate");
    }

    #[test]
    fn incast_preset_has_n_flows_to_one_receiver() {
        let e = incast_on_star(
            "HPCC",
            CcSpec::by_label("HPCC"),
            16,
            500_000,
            Bandwidth::from_gbps(100),
            Duration::from_ms(1),
        )
        .build();
        assert_eq!(e.flows().len(), 16);
        let recv = e.flows()[0].dst;
        assert!(e.flows().iter().all(|f| f.dst == recv));
        assert_eq!(e.flows()[0].id, FlowId(1));
    }

    #[test]
    fn testbed_preset_generates_background_and_incast() {
        let plain = testbed_websearch(
            "DCQCN",
            CcSpec::by_label("DCQCN"),
            0.3,
            Duration::from_ms(20),
            None,
            None,
            FlowControlMode::Lossless,
            7,
        )
        .build();
        assert!(plain.flows().len() > 10);
        let with_incast = testbed_websearch(
            "DCQCN+incast",
            CcSpec::by_label("DCQCN"),
            0.3,
            Duration::from_ms(20),
            Some(16),
            None,
            FlowControlMode::Lossless,
            7,
        )
        .build();
        assert!(with_incast.flows().len() > plain.flows().len());
        // The background workload is unchanged by adding the incast.
        let background = |e: &crate::Experiment| {
            e.flows()
                .iter()
                .filter(|f| f.id.raw() < 10_000_000)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(background(&plain), background(&with_incast));
        // ECN thresholds can be swept (Figure 3).
        let swept = testbed_websearch(
            "DCQCN Kmin=12K",
            CcSpec::by_label("DCQCN"),
            0.3,
            Duration::from_ms(10),
            None,
            Some(EcnConfig::thresholds_kb(12, 50)),
            FlowControlMode::Lossless,
            7,
        )
        .build();
        assert_eq!(swept.config().ecn.unwrap().kmin_bytes, 12_000);
    }

    #[test]
    fn fattree_preset_small_scale() {
        let e = fattree_fb_hadoop(
            "HPCC",
            CcSpec::by_label("HPCC"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(10),
            true,
            FlowControlMode::Lossless,
            3,
        )
        .build();
        assert_eq!(
            e.topology().hosts().len(),
            FatTreeParams::small().total_hosts()
        );
        assert!(e.flows().len() > 10);
        assert!(
            e.flows().iter().any(|f| f.size == 500_000),
            "incast flows present"
        );
    }

    #[test]
    fn fig11_campaign_covers_the_scheme_set() {
        let campaign = fig11_campaign(FatTreeParams::small(), 0.3, Duration::from_ms(1), true, 5);
        assert_eq!(campaign.len(), SCHEME_SET_FIG11.len());
        for (spec, label) in campaign.scenarios().iter().zip(SCHEME_SET_FIG11) {
            assert_eq!(spec.name, label);
            assert_eq!(spec.scheme_label(), label);
            assert_eq!(spec.seed, 5);
            assert_eq!(spec.workloads.len(), 2);
        }
    }

    #[test]
    fn locality_and_skew_sweeps_declare_one_scenario_per_point() {
        let sweep = fattree_locality_sweep(
            CcSpec::by_label("HPCC"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(1),
            &[0.0, 0.5, 0.9],
            4,
        );
        assert_eq!(sweep.len(), 3);
        for (spec, frac) in sweep.scenarios().iter().zip([0.0, 0.5, 0.9]) {
            assert_eq!(spec.name, format!("locality intra={frac:.2}"));
            assert_eq!(spec.seed, 4);
            match &spec.workloads[0] {
                WorkloadSpec::Poisson { pairs, .. } => {
                    assert_eq!(
                        *pairs,
                        PairSpec::Locality(LocalitySpec::IntraRack { fraction: frac })
                    );
                }
                other => panic!("{other:?}"),
            }
            // Every point resolves into a runnable experiment.
            assert!(!spec.build().flows().is_empty());
        }
        let skew = fattree_skew_sweep(
            CcSpec::by_label("DCQCN"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(1),
            &[0.0, 1.2],
            4,
        );
        assert_eq!(skew.len(), 2);
        assert_eq!(skew.scenarios()[1].name, "skew zipf=1.20");
        // The sweep serializes into a manifest and back.
        let back = Campaign::from_json_str(&skew.to_json_string()).unwrap();
        assert_eq!(back, skew);
    }

    #[test]
    fn fault_presets_declare_identical_timelines() {
        let params = FatTreeParams::small();
        let topo = TopologyChoice::FatTree(params).build();
        let link = first_fabric_link(&topo);
        assert!(matches!(topo.kind(topo.links()[link].a), NodeKind::Switch));
        assert!(matches!(topo.kind(topo.links()[link].b), NodeKind::Switch));

        let sweep = fattree_linkflap_sweep(
            CcSpec::by_label("HPCC"),
            params,
            0.3,
            Duration::from_ms(2),
            &[0, 2],
            9,
        );
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep.scenarios()[0].name, "linkflap x1");
        assert_eq!(sweep.scenarios()[1].name, "linkflap x3");
        for spec in sweep.scenarios() {
            let faults = spec.faults.as_ref().unwrap();
            assert_eq!(faults.link_faults[0].link, link);
            assert_eq!(faults.link_faults[0].mode, LinkDownMode::Pause);
            // Every point resolves into a runnable experiment.
            assert!(spec.try_build().is_ok());
        }

        let matrix = degraded_link_cc_matrix(params, 0.3, Duration::from_ms(2), 9);
        assert_eq!(matrix.len(), SCHEME_SET_FIG11.len());
        let reference = matrix.scenarios()[0].faults.clone().unwrap();
        for (spec, label) in matrix.scenarios().iter().zip(SCHEME_SET_FIG11) {
            assert_eq!(spec.scheme_label(), label);
            // The fault timeline is bit-identical across all six schemes.
            assert_eq!(spec.faults.as_ref(), Some(&reference));
            assert_eq!(spec.flow_control, FlowControlMode::LossyIrn);
        }
    }

    #[test]
    fn micro_benchmark_presets_build() {
        let bw = Bandwidth::from_gbps(100);
        let ls = long_short(CcSpec::by_label("HPCC"), bw, Duration::from_ms(2)).build();
        assert_eq!(ls.flows().len(), 2);
        assert!(ls.flows()[1].start > ls.flows()[0].start);
        let em = elephant_mice(
            CcSpec::by_label("HPCC"),
            bw,
            Duration::from_us(100),
            Duration::from_ms(1),
        )
        .build();
        assert!(em.flows().len() > 5);
        let fair = fairness(
            CcSpec::by_label("HPCC"),
            bw,
            Duration::from_ms(1),
            Duration::from_ms(5),
        )
        .build();
        assert_eq!(fair.flows().len(), 4);
        let storm = pfc_storm(0.3, 16, Duration::from_ms(5), 1).build();
        assert!(!storm.flows().is_empty());
        assert_eq!(storm.config().buffer_bytes, 4_000_000);
        let custom = testbed_with_cdf(
            "custom",
            CcSpec::by_label("HPCC"),
            CdfSpec::Fixed(10_000),
            0.2,
            Duration::from_ms(5),
            2,
        )
        .build();
        assert!(custom.flows().iter().all(|f| f.size == 10_000));
    }
}
