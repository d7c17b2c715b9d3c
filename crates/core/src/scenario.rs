//! The declarative scenario API.
//!
//! A [`ScenarioSpec`] is a plain-data description of one simulation — which
//! network ([`TopologyChoice`]), which congestion control ([`CcSpec`]), which
//! traffic ([`WorkloadSpec`]), for how long, under which seed, with which
//! measurement options ([`MeasurementSpec`]). Because it is data, a scenario
//! can be cloned, swept over, serialized to JSON (campaign manifests), queued
//! into a [`crate::campaign::Campaign`] and executed on any thread — the
//! paper's whole evaluation grid (six schemes × topologies × workloads ×
//! parameter sweeps) becomes a list of values.
//!
//! [`ScenarioSpec::try_build`] is the one function from a description to a
//! runnable [`Experiment`]: it instantiates the topology, resolves the CC
//! scheme against the line rate and the topology's suggested base RTT,
//! writes the [`SimConfig`], and generates every workload from its own
//! deterministic seed stream derived from the scenario seed — so the same
//! spec always yields the bit-identical experiment, no matter where or when
//! it is built. It is total: whatever it cannot resolve comes back as a
//! [`BuildError`] naming the offending member, never as a panic or a run
//! that does not end.

use crate::codec::{
    from_label, wire_labels, wire_struct, wire_tagged, Fields, Members, Obj, Path, Wire,
};
use crate::experiment::{Experiment, ExperimentResults, MTU_WIRE_SIZE};
use crate::json::{write_str, JsonError, JsonValue};
use crate::presets::scheme_by_label;
use hpcc_cc::{CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, HpccReactionMode, TimelyConfig};
use hpcc_sim::{
    CompiledScenario, DegradedLink, EcnConfig, FlowControlMode, LinkDownMode, LinkFault, SimConfig,
    StragglerHost,
};
use hpcc_topology::{
    dumbbell, fat_tree, leaf_spine, star, testbed_pod, FatTreeParams, TopologySpec,
};
use hpcc_types::rng::derive_seed;
use hpcc_types::{Bandwidth, Duration, FlowId, FlowPriority, FlowSpec, SimTime};
use hpcc_workload::trace::{TraceRecord, TraceSpec};
use hpcc_workload::{
    fb_hadoop, fixed_size, websearch, FlowSizeCdf, IncastGenerator, LoadGenerator, LocalitySpec,
    PairSpec, PrioritySpec, SkewSpec,
};
use std::fmt;

/// Error produced when a [`ScenarioSpec`] cannot be resolved into an
/// [`Experiment`] — an unknown scheme label, an out-of-range member, an
/// invalid locality matrix, an unreadable or malformed trace file, a trace
/// record referencing hosts the topology lacks.
///
/// The message names the offending member (`cc.label`,
/// `trace.bottleneck_host`, `workload 1: …`) and, for trace problems,
/// carries the file's 1-based line number (see
/// [`hpcc_workload::TraceError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Which network a scenario runs on, as plain data.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyChoice {
    /// A single switch with `hosts` hosts.
    Star {
        /// Number of hosts.
        hosts: usize,
        /// Host NIC bandwidth.
        host_bw: Bandwidth,
        /// One-way propagation delay of every link.
        link_delay: Duration,
    },
    /// Two switches joined by one bottleneck link.
    Dumbbell {
        /// Hosts on the left switch.
        left: usize,
        /// Hosts on the right switch.
        right: usize,
        /// Host NIC bandwidth.
        host_bw: Bandwidth,
        /// Bandwidth of the switch-to-switch bottleneck.
        core_bw: Bandwidth,
        /// One-way propagation delay of every link.
        link_delay: Duration,
    },
    /// The paper's 32-server / 4-ToR / 1-Agg testbed PoD (§5.1), 25 Gbps
    /// NICs.
    TestbedPod {
        /// One-way propagation delay of every link.
        link_delay: Duration,
    },
    /// A two-tier leaf-spine fabric.
    LeafSpine {
        /// Number of leaf (ToR) switches.
        leaves: usize,
        /// Number of spine switches.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host NIC bandwidth.
        host_bw: Bandwidth,
        /// Leaf-spine link bandwidth.
        fabric_bw: Bandwidth,
        /// One-way propagation delay of every link.
        link_delay: Duration,
    },
    /// The three-tier Clos fabric of §5.1 ("FatTree" in the paper).
    FatTree(FatTreeParams),
    /// A topology imported from a corpus edge-list file (see
    /// [`hpcc_topology::corpus`]). `host_bw` declares the NIC rate used
    /// for ideal-FCT computation — corpus files may be heterogeneous, so the
    /// spec author states the reference rate explicitly.
    Corpus {
        /// Path to the corpus file, relative to the process working
        /// directory (campaign manifests conventionally use repo-relative
        /// paths like `corpus/rocketfuel_pop.edges`).
        path: String,
        /// Reference host NIC bandwidth for slowdown computation.
        host_bw: Bandwidth,
    },
}

impl TopologyChoice {
    /// A star with the conventional 1 µs link delay.
    pub fn star(hosts: usize, host_bw: Bandwidth) -> Self {
        TopologyChoice::Star {
            hosts,
            host_bw,
            link_delay: Duration::from_us(1),
        }
    }

    /// The testbed PoD with the conventional 1 µs link delay.
    pub fn testbed_pod() -> Self {
        TopologyChoice::TestbedPod {
            link_delay: Duration::from_us(1),
        }
    }

    /// Instantiate the topology.
    ///
    /// # Panics
    /// Panics when a [`TopologyChoice::Corpus`] file cannot be read or
    /// parsed — use [`TopologyChoice::try_build`] for the typed-error form.
    pub fn build(&self) -> TopologySpec {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`TopologyChoice::build`]: corpus-file I/O and
    /// parse problems come back as typed [`BuildError`]s naming the file.
    pub fn try_build(&self) -> Result<TopologySpec, BuildError> {
        Ok(match self {
            TopologyChoice::Star {
                hosts,
                host_bw,
                link_delay,
            } => star(*hosts, *host_bw, *link_delay),
            TopologyChoice::Dumbbell {
                left,
                right,
                host_bw,
                core_bw,
                link_delay,
            } => dumbbell(*left, *right, *host_bw, *core_bw, *link_delay),
            TopologyChoice::TestbedPod { link_delay } => testbed_pod(*link_delay),
            TopologyChoice::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                host_bw,
                fabric_bw,
                link_delay,
            } => leaf_spine(
                *leaves,
                *spines,
                *hosts_per_leaf,
                *host_bw,
                *fabric_bw,
                *link_delay,
            ),
            TopologyChoice::FatTree(params) => fat_tree(*params),
            TopologyChoice::Corpus { path, .. } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| BuildError(format!("corpus topology {path:?}: {e}")))?;
                hpcc_topology::corpus::parse(&text)
                    .map_err(|e| BuildError(format!("corpus topology {path:?}: {e}")))?
                    .build()
            }
        })
    }

    /// Host NIC bandwidth of this topology.
    pub fn host_bw(&self) -> Bandwidth {
        match self {
            TopologyChoice::Star { host_bw, .. }
            | TopologyChoice::Dumbbell { host_bw, .. }
            | TopologyChoice::LeafSpine { host_bw, .. }
            | TopologyChoice::Corpus { host_bw, .. } => *host_bw,
            TopologyChoice::TestbedPod { .. } => Bandwidth::from_gbps(25),
            TopologyChoice::FatTree(params) => params.host_bw,
        }
    }
}

/// Which engine answers a scenario, as plain data — the simulator's own
/// [`hpcc_sim::BackendKind`] under the name scenario specs use for it.
///
/// The JSON form is the optional `"backend"` member: a label string
/// (`"packet"` | `"fluid"`). An omitted member is canonical for
/// [`BackendSpec::Packet`] and keeps every pre-existing manifest
/// bit-identical. Fluid is a steady-state model: scenarios
/// combining it with features it cannot answer (fault injection,
/// multi-class/PIAS queueing) are rejected with a typed [`BuildError`] at
/// `try_build` time. A scenario uses one core; campaigns use the rest
/// ([`crate::Campaign::run`], the fabric). The inert
/// [`BackendSpec::ParallelPacket`] is rejected the same way.
pub use hpcc_sim::BackendKind as BackendSpec;

/// Which congestion control the hosts run, as plain data.
///
/// `Label` names one of the paper's six schemes and is resolved against the
/// scenario's line rate and base RTT at build time; the other variants carry
/// the explicit parameters the paper's sweeps vary.
#[derive(Clone, Debug, PartialEq)]
pub enum CcSpec {
    /// A scheme from [`crate::presets::SCHEME_SET_FIG11`] with paper-default
    /// parameters.
    Label(String),
    /// HPCC with explicit parameters (the §3.4/§5.4 ablations and the W_AI
    /// sweep).
    Hpcc(HpccConfig),
    /// DCQCN with explicit rate-timer settings (the Figure 2 sweep).
    DcqcnTimers {
        /// Rate-increase timer `Ti`.
        ti: Duration,
        /// Rate-decrease minimum interval `Td`.
        td: Duration,
    },
    /// TIMELY with explicit gradient-band parameters (sweeps over the
    /// `Tlow`/`Thigh` thresholds, the multiplicative-decrease factor and the
    /// HAI threshold); the remaining fields keep the recommended defaults
    /// for the line rate and base RTT.
    Timely {
        /// Add the paper's window bound (the "TIMELY+win" variant).
        window: bool,
        /// Gradient band lower RTT threshold `Tlow`.
        t_low: Duration,
        /// Gradient band upper RTT threshold `Thigh`.
        t_high: Duration,
        /// Multiplicative decrease factor `beta`.
        beta: f64,
        /// Completion events of negative gradient before hyper-active
        /// increase.
        hai_threshold: u32,
    },
    /// DCTCP with an explicit ECN-fraction EWMA gain `g` (the convergence
    /// sweep); everything else keeps the defaults.
    Dctcp {
        /// EWMA gain of the marked-fraction estimator.
        g: f64,
    },
}

impl CcSpec {
    /// Scheme by Figure-11 label ("HPCC", "DCQCN", "DCQCN+win", "TIMELY",
    /// "TIMELY+win", "DCTCP").
    pub fn by_label(label: impl Into<String>) -> Self {
        CcSpec::Label(label.into())
    }

    /// The display label this spec resolves to.
    pub fn scheme_label(&self) -> String {
        match self {
            CcSpec::Label(l) => l.clone(),
            CcSpec::Hpcc(cfg) => CcAlgorithm::Hpcc(*cfg).label().to_string(),
            CcSpec::DcqcnTimers { .. } => "DCQCN".to_string(),
            CcSpec::Timely { window: true, .. } => "TIMELY+win".to_string(),
            CcSpec::Timely { window: false, .. } => "TIMELY".to_string(),
            CcSpec::Dctcp { .. } => "DCTCP".to_string(),
        }
    }

    /// Resolve into a concrete algorithm for the given line rate and base
    /// RTT. A [`CcSpec::Label`] outside the six Figure-11 schemes is the
    /// only failure.
    pub fn resolve(
        &self,
        line_rate: Bandwidth,
        base_rtt: Duration,
    ) -> Result<CcAlgorithm, BuildError> {
        Ok(match self {
            CcSpec::Label(label) => scheme_by_label(label, line_rate, base_rtt)?,
            CcSpec::Hpcc(cfg) => CcAlgorithm::Hpcc(*cfg),
            CcSpec::DcqcnTimers { ti, td } => {
                CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(line_rate).with_timers(*ti, *td))
            }
            CcSpec::Timely {
                window,
                t_low,
                t_high,
                beta,
                hai_threshold,
            } => {
                let cfg = TimelyConfig {
                    t_low: *t_low,
                    t_high: *t_high,
                    beta: *beta,
                    hai_threshold: *hai_threshold,
                    ..TimelyConfig::recommended(line_rate, base_rtt)
                };
                if *window {
                    CcAlgorithm::TimelyWin(cfg)
                } else {
                    CcAlgorithm::Timely(cfg)
                }
            }
            CcSpec::Dctcp { g } => CcAlgorithm::Dctcp(DctcpConfig {
                g: *g,
                ..DctcpConfig::default()
            }),
        })
    }
}

impl From<&str> for CcSpec {
    fn from(label: &str) -> Self {
        CcSpec::by_label(label)
    }
}

impl From<HpccConfig> for CcSpec {
    fn from(cfg: HpccConfig) -> Self {
        CcSpec::Hpcc(cfg)
    }
}

/// A flow-size distribution, as plain data.
#[derive(Clone, Debug, PartialEq)]
pub enum CdfSpec {
    /// The DCTCP WebSearch trace (§5.1).
    WebSearch,
    /// The FB_Hadoop trace (§5.1).
    FbHadoop,
    /// Every flow has the same size.
    Fixed(u64),
    /// Explicit `(size, cumulative probability)` knee points.
    Custom(Vec<(u64, f64)>),
}

impl CdfSpec {
    /// Instantiate the sampler. A malformed [`CdfSpec::Custom`] point list
    /// (empty, non-monotone, not ending at probability 1) or a distribution
    /// whose mean is not positive (`Fixed(0)`, every knee at 0 bytes — the
    /// Poisson arrival rate divides by it) is an error, so untrusted
    /// manifests can neither abort a worker nor make it generate forever.
    pub fn try_build(&self) -> Result<FlowSizeCdf, String> {
        let cdf = match self {
            CdfSpec::WebSearch => websearch(),
            CdfSpec::FbHadoop => fb_hadoop(),
            CdfSpec::Fixed(0) => return Err("fixed CDF size must be >= 1 byte".into()),
            CdfSpec::Fixed(size) => fixed_size(*size),
            CdfSpec::Custom(points) => {
                let Some(&(_, last)) = points.last() else {
                    return Err("custom CDF needs at least one point".into());
                };
                for (i, w) in points.windows(2).enumerate() {
                    // NaN probabilities fail the check too (is_nan, not just >).
                    if w[0].0 > w[1].0 || w[0].1.is_nan() || w[1].1.is_nan() || w[0].1 > w[1].1 {
                        return Err(format!(
                            "custom CDF points {i} and {} are not non-decreasing",
                            i + 1
                        ));
                    }
                }
                if last.is_nan() || (last - 1.0).abs() >= 1e-9 {
                    return Err(format!(
                        "custom CDF must end at probability 1.0, ends at {last}"
                    ));
                }
                FlowSizeCdf::new("Custom", points.clone())
            }
        };
        let mean = cdf.mean();
        if mean > 0.0 {
            Ok(cdf)
        } else {
            Err(format!(
                "{} CDF has mean flow size {mean}, must be > 0",
                self.name()
            ))
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CdfSpec::WebSearch => "WebSearch",
            CdfSpec::FbHadoop => "FB_Hadoop",
            CdfSpec::Fixed(_) => "Fixed",
            CdfSpec::Custom(_) => "Custom",
        }
    }
}

/// One explicitly placed flow, endpoints given as host *indices* into the
/// topology's host list (so the declaration stays valid before the topology
/// is instantiated).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowDecl {
    /// Flow identifier.
    pub id: u64,
    /// Index of the sending host.
    pub src_host: usize,
    /// Index of the receiving host.
    pub dst_host: usize,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time, relative to the scenario start.
    pub start: Duration,
}

impl FlowDecl {
    /// Declare one flow.
    pub fn new(id: u64, src_host: usize, dst_host: usize, size: u64, start: Duration) -> Self {
        FlowDecl {
            id,
            src_host,
            dst_host,
            size,
            start,
        }
    }
}

/// Traffic injected into a scenario, as plain data. A scenario carries a
/// list of workloads whose flows are merged; each workload draws from its
/// own seed stream derived from the scenario seed.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Poisson flow arrivals between sampled host pairs at a target fraction
    /// of aggregate host capacity. Pairs are uniform by default
    /// ([`PairSpec::Uniform`]); rack-level locality and Zipf heavy-hitter
    /// skew plug in through `pairs`.
    Poisson {
        /// Flow-size distribution.
        cdf: CdfSpec,
        /// Target average load in `(0, 1]`.
        load: f64,
        /// First flow id assigned.
        first_flow_id: u64,
        /// How src/dst host pairs are drawn.
        pairs: PairSpec,
        /// How generated flows are priority-tagged (default: all normal).
        /// Assignment is a pure size function after generation, so it never
        /// perturbs the flow list itself.
        prio: PrioritySpec,
    },
    /// Repeating N-to-1 bursts at a target fraction of network capacity
    /// (§5.3's "incast traffic load is 2% of the network capacity").
    Incast {
        /// Senders per burst.
        fan_in: usize,
        /// Bytes per sender per burst.
        flow_size: u64,
        /// Fraction of aggregate host capacity consumed by incast traffic.
        capacity_fraction: f64,
        /// First flow id assigned.
        first_flow_id: u64,
    },
    /// Explicitly placed flows (micro-benchmarks).
    Explicit(Vec<FlowDecl>),
    /// Deterministic replay of a flow trace (a file on disk or records
    /// inlined in the manifest); see [`hpcc_workload::trace`]. Record `k`
    /// becomes flow `first_flow_id + k`.
    Trace {
        /// Where the records come from.
        trace: TraceSpec,
        /// First flow id assigned.
        first_flow_id: u64,
    },
}

impl WorkloadSpec {
    /// Poisson background load with uniform pairs and the conventional id
    /// range (from 0).
    pub fn poisson(cdf: CdfSpec, load: f64) -> Self {
        WorkloadSpec::Poisson {
            cdf,
            load,
            first_flow_id: 0,
            pairs: PairSpec::Uniform,
            prio: PrioritySpec::default(),
        }
    }

    /// Poisson background load with an explicit pair-sampling stage
    /// (locality matrix or heavy-hitter skew).
    pub fn poisson_with_pairs(cdf: CdfSpec, load: f64, pairs: PairSpec) -> Self {
        WorkloadSpec::Poisson {
            cdf,
            load,
            first_flow_id: 0,
            pairs,
            prio: PrioritySpec::default(),
        }
    }

    /// Poisson background load with a priority-assignment stage (e.g.
    /// mice-vs-elephants tagging for multi-queue studies).
    pub fn poisson_with_prio(cdf: CdfSpec, load: f64, prio: PrioritySpec) -> Self {
        WorkloadSpec::Poisson {
            cdf,
            load,
            first_flow_id: 0,
            pairs: PairSpec::Uniform,
            prio,
        }
    }

    /// Repeating incast bursts with the conventional id range (from 10M, so
    /// ids never collide with background flows).
    pub fn incast(fan_in: usize, flow_size: u64, capacity_fraction: f64) -> Self {
        WorkloadSpec::Incast {
            fan_in,
            flow_size,
            capacity_fraction,
            first_flow_id: 10_000_000,
        }
    }

    /// Replay a CSV trace file (see [`hpcc_workload::trace`] for the
    /// format) with the conventional id range (from 0).
    pub fn trace_file(path: impl Into<String>) -> Self {
        WorkloadSpec::Trace {
            trace: TraceSpec::Path(path.into()),
            first_flow_id: 0,
        }
    }

    /// Replay records carried inline in the spec/manifest itself, with the
    /// conventional id range (from 0).
    pub fn trace_inline(records: Vec<TraceRecord>) -> Self {
        WorkloadSpec::Trace {
            trace: TraceSpec::Inline(records),
            first_flow_id: 0,
        }
    }

    /// Generate this workload's flows for a concrete host list. Every
    /// manifest-supplied parameter is range-checked here first, so untrusted
    /// input surfaces as a typed error naming the member — never as a
    /// generator assert aborting the process or a loop that cannot advance.
    fn generate(
        &self,
        topo: &TopologySpec,
        host_bw: Bandwidth,
        duration: Duration,
        seed: u64,
    ) -> Result<Vec<FlowSpec>, BuildError> {
        let hosts = topo.hosts();
        match self {
            WorkloadSpec::Poisson {
                cdf,
                load,
                first_flow_id,
                pairs,
                prio,
            } => {
                if !(*load > 0.0 && *load <= 1.0) {
                    return Err(BuildError(format!("load {load} not in (0, 1]")));
                }
                let cdf = cdf
                    .try_build()
                    .map_err(|e| BuildError(format!("cdf: {e}")))?;
                let sampler = pairs
                    .build(hosts.len(), &topo.host_rack_ids(), seed)
                    .map_err(|e| BuildError(e.to_string()))?;
                Ok(
                    LoadGenerator::new(hosts.to_vec(), host_bw, *load, cdf, seed)
                        .with_first_flow_id(*first_flow_id)
                        .with_pair_sampler(sampler)
                        .with_priority(*prio)
                        .generate(duration),
                )
            }
            WorkloadSpec::Incast {
                fan_in,
                flow_size,
                capacity_fraction,
                first_flow_id,
            } => {
                if *fan_in == 0 {
                    return Err(BuildError("incast fan_in must be >= 1".into()));
                }
                if hosts.len() < 2 {
                    return Err(BuildError(format!(
                        "incast needs at least 2 hosts, got {}",
                        hosts.len()
                    )));
                }
                if !(*capacity_fraction > 0.0 && *capacity_fraction <= 1.0) {
                    return Err(BuildError(format!(
                        "incast capacity fraction {capacity_fraction} not in (0, 1]"
                    )));
                }
                let bursts = IncastGenerator::paper_default(hosts.to_vec(), host_bw, seed)
                    .with_fan_in(*fan_in)
                    .with_flow_size(*flow_size)
                    .with_capacity_fraction(*capacity_fraction)
                    .with_first_flow_id(*first_flow_id);
                // Bursts repeat every `burst_period()`; at 0 ps the
                // generator would never reach the horizon.
                if bursts.burst_period().is_zero() {
                    return Err(BuildError(format!(
                        "incast flow_size {flow_size} gives a zero burst period \
                         (fan_in x flow_size bytes must take >= 1 ps at the capacity fraction)"
                    )));
                }
                Ok(bursts.generate(duration))
            }
            WorkloadSpec::Explicit(decls) => decls
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let host = |index: usize, what: &str| {
                        hosts.get(index).copied().ok_or_else(|| {
                            BuildError(format!(
                                "explicit flow {i}: {what} index {index} out of range ({} hosts)",
                                hosts.len()
                            ))
                        })
                    };
                    Ok(FlowSpec::new(
                        FlowId(d.id),
                        host(d.src_host, "src_host")?,
                        host(d.dst_host, "dst_host")?,
                        d.size,
                        SimTime::ZERO + d.start,
                    ))
                })
                .collect(),
            WorkloadSpec::Trace {
                trace,
                first_flow_id,
            } => {
                let loaded = trace.load().map_err(|e| BuildError(e.to_string()))?;
                loaded
                    .replay(hosts, *first_flow_id)
                    .map_err(|e| BuildError(e.to_string()))
            }
        }
    }
}

/// Multi-class switch queueing of a scenario, as plain data (JSON key
/// `"queueing"`; omitted from manifests ⇒ the legacy single-class default,
/// so every pre-existing manifest parses — and stays canonical — unchanged)
/// — the simulator's own [`hpcc_sim::QueueingConfig`] under the name
/// scenario specs use for it, with its [`SchedulerSpec`] (which implies the
/// class count). [`ScenarioSpec::try_build`] validates it and hands it to
/// the engine as it is.
pub use hpcc_sim::{QueueingConfig as QueueingSpec, SchedulerSpec};

/// The fault plan of a scenario, as plain data (JSON key `"faults"`;
/// omitted from manifests ⇒ a healthy network) — the simulator's own
/// [`hpcc_sim::FaultConfig`] under the name scenario specs use for it, so a
/// plan is sweepable like any other scenario field and reaches the engine
/// without a copy. [`ScenarioSpec::try_build`] validates its link/host
/// indices and window shapes against the built topology.
pub use hpcc_sim::FaultConfig as FaultSpec;

/// Measurement options of a scenario, as plain data (JSON key `"trace"`) —
/// the simulator's own [`hpcc_sim::MeasurementSpec`], which
/// [`ScenarioSpec::try_build`] checks against the built topology and hands
/// to the engine as it is.
pub use hpcc_sim::MeasurementSpec;

/// The flow-size buckets a scenario's slowdowns are reported in (the
/// `"trace"` object's `"slowdown_buckets"` member).
pub use hpcc_sim::SlowdownBuckets;

/// The buckets `workloads` imply when a scenario names none: FB_Hadoop's
/// when a Poisson workload draws FB_Hadoop sizes, WebSearch's otherwise (the
/// paper's figure convention).
fn implied_buckets(workloads: &[WorkloadSpec]) -> SlowdownBuckets {
    let fb_hadoop = workloads.iter().any(|w| {
        matches!(
            w,
            WorkloadSpec::Poisson {
                cdf: CdfSpec::FbHadoop,
                ..
            }
        )
    });
    if fb_hadoop {
        SlowdownBuckets::FbHadoop
    } else {
        SlowdownBuckets::WebSearch
    }
}

/// A complete, declarative, serializable description of one simulation.
///
/// See the [module docs](self) for the design rationale. Construct with
/// [`ScenarioSpec::new`] plus the `with_*` helpers, or deserialize a
/// campaign manifest with [`ScenarioSpec::from_json_str`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Label used in reports.
    pub name: String,
    /// The network.
    pub topology: TopologyChoice,
    /// The congestion control scheme.
    pub cc: CcSpec,
    /// Traffic; flows of all workloads are merged.
    pub workloads: Vec<WorkloadSpec>,
    /// Simulation horizon.
    pub duration: Duration,
    /// Master seed; workload and switch randomness derive from it.
    pub seed: u64,
    /// Loss prevention / recovery mode.
    pub flow_control: FlowControlMode,
    /// Shared buffer per switch in bytes (`None` keeps the 32 MB default).
    pub buffer_bytes: Option<u64>,
    /// ECN threshold override (`None` keeps the scheme's default).
    pub ecn: Option<EcnConfig>,
    /// Multi-class switch queueing (`None` keeps the legacy single-class
    /// strict-priority path, bit-identically).
    pub queueing: Option<QueueingSpec>,
    /// Fault injection plan (`None` keeps the healthy network,
    /// bit-identically: no timeline is allocated).
    pub faults: Option<FaultSpec>,
    /// Which engine answers the scenario ([`BackendSpec::Packet`] is the
    /// default and serializes as an omitted key, bit-identically to specs
    /// predating the backend boundary).
    pub backend: BackendSpec,
    /// Measurement options.
    pub trace: MeasurementSpec,
}

impl ScenarioSpec {
    /// A scenario with no workloads yet, seed 1, lossless fabric, default
    /// buffers and no tracing.
    pub fn new(
        name: impl Into<String>,
        topology: TopologyChoice,
        cc: impl Into<CcSpec>,
        duration: Duration,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology,
            cc: cc.into(),
            workloads: Vec::new(),
            duration,
            seed: 1,
            flow_control: FlowControlMode::Lossless,
            buffer_bytes: None,
            ecn: None,
            queueing: None,
            faults: None,
            backend: BackendSpec::Packet,
            trace: MeasurementSpec::default(),
        }
    }

    /// Append a workload.
    pub fn with_workload(mut self, w: WorkloadSpec) -> Self {
        self.workloads.push(w);
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the flow-control mode.
    pub fn with_flow_control(mut self, mode: FlowControlMode) -> Self {
        self.flow_control = mode;
        self
    }

    /// Override the per-switch shared buffer.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// Override the ECN thresholds.
    pub fn with_ecn(mut self, ecn: EcnConfig) -> Self {
        self.ecn = Some(ecn);
        self
    }

    /// Configure multi-class switch queueing (scheduler, class count, PIAS
    /// thresholds, per-class ECN scaling).
    pub fn with_queueing(mut self, queueing: QueueingSpec) -> Self {
        self.queueing = Some(queueing);
        self
    }

    /// Attach a fault-injection plan (link outages/flaps, degraded links,
    /// straggler hosts).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Select the engine that answers the scenario.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Enable queue-histogram sampling.
    pub fn with_queue_sampling(mut self, interval: Duration) -> Self {
        self.trace.queue_sample_interval = Some(interval);
        self
    }

    /// Trace the bottleneck egress towards a host index.
    pub fn with_bottleneck_trace(mut self, host_index: usize, interval: Duration) -> Self {
        self.trace.bottleneck_host = Some(host_index);
        self.trace.trace_interval = Some(interval);
        self
    }

    /// Enable per-flow goodput accumulation.
    pub fn with_goodput_bin(mut self, bin: Duration) -> Self {
        self.trace.goodput_bin = Some(bin);
        self
    }

    /// The display label of the congestion control scheme.
    pub fn scheme_label(&self) -> String {
        self.cc.scheme_label()
    }

    /// [`ScenarioSpec::try_build`] for specs known to be valid (presets,
    /// tests, examples).
    ///
    /// # Panics
    /// Panics with the [`BuildError`] when the spec cannot be resolved.
    pub fn build(&self) -> Experiment {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolve the declaration into a runnable [`Experiment`] — the only
    /// place a scenario is assembled, and so the only place a member's valid
    /// range is checked (`docs/ARCHITECTURE.md` § Scenario resolution lists
    /// the steps and every rejection).
    ///
    /// Deterministic: the same spec always produces the bit-identical
    /// experiment (topology, config, flow list), regardless of thread or
    /// process. Total: a spec it cannot resolve is a [`BuildError`] naming
    /// the offending member (and, for trace input, the line).
    pub fn try_build(&self) -> Result<Experiment, BuildError> {
        if self.backend == BackendSpec::ParallelPacket {
            return Err(BuildError(hpcc_sim::PARALLEL_PACKET_REMOVED.into()));
        }
        // A zero sampling period re-arms its event at `now + 0`: the run
        // would never end. Zero is not a spelling of "off" either — that is
        // the omitted member.
        for (member, period) in [
            ("queue_sample_interval_ps", self.trace.queue_sample_interval),
            ("trace_interval_ps", self.trace.trace_interval),
            ("goodput_bin_ps", self.trace.goodput_bin),
        ] {
            if period.is_some_and(Duration::is_zero) {
                return Err(BuildError(format!(
                    "trace.{member}: must be >= 1 (omit the member to turn it off)"
                )));
            }
        }

        let topo = self.topology.try_build()?;
        let host_bw = self.topology.host_bw();
        // Nothing is ever sent at 0 bps, and serialization times saturate.
        if host_bw.as_bps() == 0 {
            return Err(BuildError("topology.host_bw_bps: must be >= 1".into()));
        }
        if let Some(link) = topo.links().iter().position(|l| l.bandwidth.as_bps() == 0) {
            return Err(BuildError(format!(
                "topology: link {link} has a bandwidth of 0 bps"
            )));
        }
        let base_rtt = topo.suggested_base_rtt(MTU_WIRE_SIZE);
        let cc = self.cc.resolve(host_bw, base_rtt)?;

        let mut cfg = SimConfig::for_cc(cc, host_bw, base_rtt);
        cfg.end_time = SimTime::ZERO + self.duration;
        cfg.seed = self.seed;
        cfg.flow_control = self.flow_control;
        if let Some(bytes) = self.buffer_bytes {
            cfg.buffer_bytes = bytes;
        }
        if self.ecn.is_some() {
            cfg.ecn = self.ecn;
        }
        if let Some(q) = &self.queueing {
            q.validate()
                .map_err(|e| BuildError(format!("queueing: {e}")))?;
            cfg.queueing = q.clone();
        }
        if let Some(f) = &self.faults {
            f.validate(topo.links().len(), topo.hosts().len())
                .map_err(|e| BuildError(format!("faults: {e}")))?;
            cfg.faults = Some(f.clone());
        }
        if self.backend == BackendSpec::Fluid {
            if cfg.faults.is_some() {
                return Err(BuildError(
                    "the fluid backend does not support fault injection \
                     (steady-state model has no fault timeline); \
                     use \"backend\": \"packet\" or drop \"faults\""
                        .into(),
                ));
            }
            if !cfg.queueing.is_legacy() {
                return Err(BuildError(
                    "the fluid backend does not support multi-class/PIAS \
                     queueing (steady-state model has a single data class); \
                     use \"backend\": \"packet\" or drop \"queueing\""
                        .into(),
                ));
            }
        }
        let implied = implied_buckets(&self.workloads);
        if self.trace.slowdown_buckets == Some(implied) {
            return Err(BuildError(format!(
                "trace.slowdown_buckets: the workloads imply {:?} already (omit the member)",
                implied.label()
            )));
        }
        if let (Some(index), None) = (self.trace.bottleneck_host, self.trace.traced_port(&topo)) {
            return Err(BuildError(format!(
                "trace.bottleneck_host: no egress from the first switch to host {index} \
                 ({} hosts, {} switches)",
                topo.hosts().len(),
                topo.switches().len()
            )));
        }
        cfg.measure = self.trace.clone();

        let mut flows = Vec::new();
        for stream in 0..self.workloads.len() {
            flows.extend(self.generate_stream(&topo, stream)?);
        }
        Ok(Experiment {
            label: self.name.clone(),
            scenario: CompiledScenario { topo, cfg, flows },
            host_bw,
            backend: self.backend,
            slowdown_buckets: self.trace.slowdown_buckets.unwrap_or(implied),
        })
    }

    /// The flows of workload `stream`, drawn from its own seed stream; errors
    /// name the workload by position.
    fn generate_stream(
        &self,
        topo: &TopologySpec,
        stream: usize,
    ) -> Result<Vec<FlowSpec>, BuildError> {
        self.workloads[stream]
            .generate(
                topo,
                self.topology.host_bw(),
                self.duration,
                derive_seed(self.seed, stream as u64),
            )
            .map_err(|e| BuildError(format!("workload {stream}: {}", e.0)))
    }

    /// Build and run in one step.
    pub fn run(&self) -> ExperimentResults {
        self.build().run()
    }

    /// Freeze the scenario into a trace-replay artifact: every *generated*
    /// workload (Poisson, Incast) is executed once and replaced by an
    /// inline [`WorkloadSpec::Trace`] carrying the exact flows it produced;
    /// [`WorkloadSpec::Explicit`] and existing trace workloads are already
    /// plain data and pass through unchanged.
    ///
    /// The frozen spec builds the bit-identical experiment (the in-tree
    /// generators assign flow ids sequentially from their `first_flow_id`,
    /// which is exactly how replay re-assigns them), so its campaign digests
    /// equal the original's — but it no longer depends on the generator
    /// code: it is a self-contained, shippable reproduction artifact. Its
    /// slowdowns are reported in the original's buckets: the frozen spec
    /// names them when its trace workloads would imply another set.
    pub fn freeze(&self) -> Result<ScenarioSpec, BuildError> {
        let topo = self.topology.try_build()?;
        let mut frozen = self.clone();
        for (stream, workload) in self.workloads.iter().enumerate() {
            let first_flow_id = match workload {
                WorkloadSpec::Poisson { first_flow_id, .. }
                | WorkloadSpec::Incast { first_flow_id, .. } => *first_flow_id,
                WorkloadSpec::Explicit(_) | WorkloadSpec::Trace { .. } => continue,
            };
            let flows = self.generate_stream(&topo, stream)?;
            let trace = hpcc_workload::Trace::from_flows(&flows, topo.hosts())
                .map_err(|e| BuildError(format!("workload {stream}: {e}")))?;
            frozen.workloads[stream] = WorkloadSpec::Trace {
                trace: TraceSpec::Inline(trace.records),
                first_flow_id,
            };
        }
        let buckets = self
            .trace
            .slowdown_buckets
            .unwrap_or_else(|| implied_buckets(&self.workloads));
        frozen.trace.slowdown_buckets =
            (buckets != implied_buckets(&frozen.workloads)).then_some(buckets);
        Ok(frozen)
    }

    /// Serialize to a JSON value: [`ScenarioSpec::to_json_string`], parsed.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.text()
    }

    /// Deserialize from a JSON value.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Self::decode(v, &Path::Root)
    }

    /// Deserialize from a JSON string.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&JsonValue::parse(text)?)
    }
}

// The manifest schema (`docs/WIRE.md` § Manifest objects): one row per
// member, in byte order. See `crate::codec` for the row forms.

wire_struct!(ScenarioSpec {
    name: "name",
    topology: "topology",
    cc: "cc",
    workloads: "workloads",
    duration: "duration_ps",
    seed: "seed",
    flow_control: "flow_control",
    buffer_bytes: "buffer_bytes" = None,
    ecn: "ecn" = None,
    queueing: "queueing" = None,
    faults: "faults" = None,
    backend: "backend" = BackendSpec::Packet,
    trace: "trace",
});

wire_tagged!(TopologyChoice, "kind" {
    "Star" => Star { hosts: "hosts", host_bw: "host_bw_bps", link_delay: "link_delay_ps" },
    "Dumbbell" => Dumbbell {
        left: "left",
        right: "right",
        host_bw: "host_bw_bps",
        core_bw: "core_bw_bps",
        link_delay: "link_delay_ps",
    },
    "TestbedPod" => TestbedPod { link_delay: "link_delay_ps" },
    "LeafSpine" => LeafSpine {
        leaves: "leaves",
        spines: "spines",
        hosts_per_leaf: "hosts_per_leaf",
        host_bw: "host_bw_bps",
        fabric_bw: "fabric_bw_bps",
        link_delay: "link_delay_ps",
    },
    "FatTree" => FatTree(..),
    "Corpus" => Corpus { path: "path", host_bw: "host_bw_bps" },
});

wire_struct!(FatTreeParams {
    pods: "pods",
    tors_per_pod: "tors_per_pod",
    aggs_per_pod: "aggs_per_pod",
    cores: "cores",
    hosts_per_tor: "hosts_per_tor",
    host_bw: "host_bw_bps",
    fabric_bw: "fabric_bw_bps",
    link_delay: "link_delay_ps",
});

wire_tagged!(CcSpec, "kind" {
    "Label" => Label("label"),
    "Hpcc" => Hpcc(..),
    "DcqcnTimers" => DcqcnTimers { ti: "ti_ps", td: "td_ps" },
    "Timely" => Timely {
        window: "window",
        t_low: "t_low_ps",
        t_high: "t_high_ps",
        beta: "beta",
        hai_threshold: "hai_threshold",
    },
    "Dctcp" => Dctcp { g: "g" },
});

wire_struct!(HpccConfig {
    eta: "eta",
    max_stage: "max_stage",
    wai: "wai",
    mode: "mode",
    use_rx_rate: "use_rx_rate",
    min_rate: "min_rate_bps",
});

fn hpcc_mode_label(mode: HpccReactionMode) -> &'static str {
    match mode {
        HpccReactionMode::Combined => "Combined",
        HpccReactionMode::PerAck => "PerAck",
        HpccReactionMode::PerRtt => "PerRtt",
    }
}

wire_labels!(
    HpccReactionMode,
    hpcc_mode_label {
        Combined,
        PerAck,
        PerRtt
    }
);
wire_labels!(
    FlowControlMode,
    FlowControlMode::label {
        Lossless,
        LossyGoBackN,
        LossyIrn
    }
);
wire_labels!(LinkDownMode, LinkDownMode::label { Drop, Pause });

wire_struct!(EcnConfig {
    kmin_bytes: "kmin_bytes",
    kmax_bytes: "kmax_bytes",
    pmax: "pmax"
});

/// A backend is a bare label. The removed parallel engine, as that label
/// or in its old object form, is an error that says so rather than an
/// unknown label.
impl Wire for BackendSpec {
    fn write(&self, out: &mut String) {
        write_str(self.label(), out)
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        let removed = BackendSpec::ParallelPacket.label();
        match v {
            JsonValue::Str(label) if label != removed => {
                from_label(label, at, &[BackendSpec::Packet, BackendSpec::Fluid], |b| {
                    b.label()
                })
            }
            _ if v.as_str().is_ok() || v.get(removed).is_some() => {
                Err(at.error(hpcc_sim::PARALLEL_PACKET_REMOVED))
            }
            other => Err(at.error(format!("expected a backend label, got {}", other.kind()))),
        }
    }
}

wire_tagged!(WorkloadSpec, "kind" {
    "Poisson" => Poisson {
        cdf: "cdf",
        load: "load",
        first_flow_id: "first_flow_id",
        pairs: "pairs" = PairSpec::Uniform,
        prio: "prio" = PrioritySpec::Normal,
    },
    "Incast" => Incast {
        fan_in: "fan_in",
        flow_size: "flow_size",
        capacity_fraction: "capacity_fraction",
        first_flow_id: "first_flow_id",
    },
    "Explicit" => Explicit("flows"),
    "Trace" => Trace { first_flow_id: "first_flow_id", trace: .. },
});

/// A CDF is a bare name, `{"fixed": bytes}` or `{"custom": [[size, p], …]}`.
impl Wire for CdfSpec {
    fn write(&self, out: &mut String) {
        match self {
            CdfSpec::WebSearch | CdfSpec::FbHadoop => write_str(self.name(), out),
            CdfSpec::Fixed(size) => {
                let mut obj = Obj::open(out);
                obj.put("fixed", size);
                obj.close();
            }
            CdfSpec::Custom(points) => {
                let mut obj = Obj::open(out);
                obj.put("custom", points);
                obj.close();
            }
        }
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        if let JsonValue::Str(name) = v {
            return from_label(
                name,
                at,
                &[CdfSpec::WebSearch, CdfSpec::FbHadoop],
                CdfSpec::name,
            );
        }
        let mut m = Members::open(v, at)?;
        let cdf = match m.defaulted("fixed", None)? {
            Some(size) => CdfSpec::Fixed(size),
            None => CdfSpec::Custom(m.required("custom")?),
        };
        m.finish()?;
        Ok(cdf)
    }

    fn keys(out: &mut Vec<&'static str>) {
        out.extend(["fixed", "custom"]);
    }
}

/// A CDF knee point is the pair `[size, cumulative probability]`.
impl Wire for (u64, f64) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        match at.locate(v.as_array())? {
            [size, p] => Ok((
                u64::decode(size, &at.index(0))?,
                f64::decode(p, &at.index(1))?,
            )),
            _ => Err(at.error("expected [size, probability]")),
        }
    }
}

wire_struct!(FlowDecl {
    id: "id",
    src_host: "src_host",
    dst_host: "dst_host",
    size: "size",
    start: "start_ps",
});

wire_tagged!(PairSpec, "kind" {
    "Uniform" => Uniform {},
    "Skew" => Skew(..),
    else => Locality
});

wire_tagged!(LocalitySpec, "kind" {
    "IntraRack" => IntraRack { fraction: "fraction" },
    "Matrix" => Matrix { rows: "rows" },
});

wire_struct!(SkewSpec {
    exponent: "exponent"
});

wire_tagged!(PrioritySpec, "kind" {
    "Normal" => Normal {},
    "Uniform" => Uniform("prio"),
    "ShortFlows" => ShortFlows { threshold: "threshold" },
});

/// A priority is its wire code: 0 = normal, 1 = latency-sensitive, `2 + c`
/// = data class `c`.
impl Wire for FlowPriority {
    fn write(&self, out: &mut String) {
        self.wire_code().write(out)
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        let code = u8::decode(v, at)?;
        if usize::from(code) > 1 + hpcc_types::Priority::MAX_DATA_CLASSES {
            return Err(at.error(format!("unknown priority code {code}")));
        }
        Ok(FlowPriority::from_wire_code(code))
    }
}

/// A trace is exactly one of `"path"` (a file read at build time) or
/// `"records"` (inline).
impl Fields for TraceSpec {
    fn write_fields(&self, obj: &mut Obj<'_>) {
        match self {
            TraceSpec::Path(path) => obj.put("path", path),
            TraceSpec::Inline(records) => obj.put("records", records),
        }
    }

    fn decode_fields(m: &mut Members<'_>) -> Result<Self, JsonError> {
        match (m.defaulted("path", None)?, m.defaulted("records", None)?) {
            (Some(path), None) => Ok(TraceSpec::Path(path)),
            (None, Some(records)) => Ok(TraceSpec::Inline(records)),
            _ => Err(m.at().error("needs exactly one of \"path\" or \"records\"")),
        }
    }

    fn field_keys(out: &mut Vec<&'static str>) {
        out.extend(["path", "records"]);
    }
}

/// A trace record is the compact array `[start_ps, src, dst, bytes, prio]`.
impl Wire for TraceRecord {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.start.write(out);
        out.push(',');
        self.src.write(out);
        out.push(',');
        self.dst.write(out);
        out.push(',');
        self.bytes.write(out);
        out.push(',');
        self.prio.write(out);
        out.push(']');
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        match at.locate(v.as_array())? {
            [start, src, dst, bytes, prio] => Ok(TraceRecord {
                start: Duration::decode(start, &at.index(0))?,
                src: usize::decode(src, &at.index(1))?,
                dst: usize::decode(dst, &at.index(2))?,
                bytes: u64::decode(bytes, &at.index(3))?,
                prio: FlowPriority::decode(prio, &at.index(4))?,
            }),
            _ => Err(at.error("expected [start_ps, src, dst, bytes, prio]")),
        }
    }
}

wire_struct!(QueueingSpec {
    scheduler: ..,
    ecn_scale: "ecn_scale" = Vec::new()
});

wire_tagged!(SchedulerSpec, "kind" {
    "SP" => StrictPriority { classes: "classes" },
    "DWRR" => Dwrr { weights: "weights" },
    "PIAS" => Pias { thresholds: "thresholds" },
});

wire_struct!(FaultSpec {
    link_faults: "links" = Vec::new(),
    degraded_links: "degraded" = Vec::new(),
    stragglers: "stragglers" = Vec::new(),
});

wire_struct!(LinkFault {
    link: "link",
    at: "at_ps",
    down_for: "down_for_ps",
    flaps: "flaps",
    period: "period_ps",
    mode: "mode",
});

wire_struct!(DegradedLink {
    link: "link",
    from: "from_ps",
    until: "until_ps",
    extra_delay: "extra_delay_ps",
    loss: "loss",
});

wire_struct!(StragglerHost {
    host: "host",
    from: "from_ps",
    until: "until_ps",
    rate_factor: "rate_factor",
});

wire_struct!(MeasurementSpec {
    queue_sample_interval: "queue_sample_interval_ps" = None,
    bottleneck_host: "bottleneck_host" = None,
    trace_interval: "trace_interval_ps" = None,
    goodput_bin: "goodput_bin_ps" = None,
    slowdown_buckets: "slowdown_buckets" = None,
});

wire_labels!(
    SlowdownBuckets,
    SlowdownBuckets::label {
        WebSearch,
        FbHadoop
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed campaign whose scenarios between them use every
    /// `TopologyChoice`, `CcSpec`, `WorkloadSpec`, `PairSpec`,
    /// `PrioritySpec`, `CdfSpec` and `SchedulerSpec` variant and every
    /// optional member. `crates/core/tests/wire_fixtures.rs` holds it to the
    /// tables' key list.
    const EVERY_MEMBER: &str = include_str!("../tests/fixtures/every_member.json");

    /// The source of [`EVERY_MEMBER`].
    fn every_member() -> Vec<ScenarioSpec> {
        let mut specs = vec![
            ScenarioSpec::new(
                "fig11 HPCC",
                TopologyChoice::FatTree(FatTreeParams::small()),
                CcSpec::by_label("HPCC"),
                Duration::from_ms(10),
            )
            .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, 0.3))
            .with_workload(WorkloadSpec::incast(16, 500_000, 0.02))
            .with_seed(42)
            .with_flow_control(FlowControlMode::LossyIrn)
            .with_buffer_bytes(16_000_000)
            .with_ecn(EcnConfig::thresholds_kb(12, 50))
            .with_queue_sampling(Duration::from_us(5))
            .with_goodput_bin(Duration::from_us(50)),
            ScenarioSpec::new(
                "2-to-1",
                TopologyChoice::star(3, Bandwidth::from_gbps(100)),
                CcSpec::Hpcc(HpccConfig {
                    use_rx_rate: true,
                    ..HpccConfig::default()
                }),
                Duration::from_ms(2),
            )
            .with_workload(WorkloadSpec::Explicit(vec![
                FlowDecl::new(1, 0, 2, 4_000_000, Duration::ZERO),
                FlowDecl::new(2, 1, 2, 4_000_000, Duration::from_us(50)),
            ]))
            .with_bottleneck_trace(2, Duration::from_us(1)),
            ScenarioSpec::new(
                "dcqcn timers",
                TopologyChoice::testbed_pod(),
                CcSpec::DcqcnTimers {
                    ti: Duration::from_us(300),
                    td: Duration::from_us(4),
                },
                Duration::from_ms(5),
            )
            .with_workload(WorkloadSpec::poisson(CdfSpec::Fixed(10_000), 0.2))
            .with_workload(WorkloadSpec::poisson(
                CdfSpec::Custom(vec![(1_000, 0.5), (2_000, 1.0)]),
                0.1,
            ))
            .with_flow_control(FlowControlMode::LossyGoBackN)
            .with_queueing(QueueingSpec::strict_priority(4)),
            ScenarioSpec::new(
                "locality+skew+trace",
                TopologyChoice::LeafSpine {
                    leaves: 4,
                    spines: 2,
                    hosts_per_leaf: 4,
                    host_bw: Bandwidth::from_gbps(25),
                    fabric_bw: Bandwidth::from_gbps(100),
                    link_delay: Duration::from_us(1),
                },
                CcSpec::Timely {
                    window: true,
                    t_low: Duration::from_us(50),
                    t_high: Duration::from_us(500),
                    beta: 0.8,
                    hai_threshold: 5,
                },
                Duration::from_ms(2),
            )
            .with_workload(WorkloadSpec::poisson_with_pairs(
                CdfSpec::FbHadoop,
                0.3,
                PairSpec::Locality(LocalitySpec::IntraRack { fraction: 0.8 }),
            ))
            .with_workload(WorkloadSpec::Poisson {
                cdf: CdfSpec::WebSearch,
                load: 0.1,
                first_flow_id: 5_000_000,
                pairs: PairSpec::Locality(LocalitySpec::Matrix {
                    rows: vec![vec![0.5, 0.5, 0.0, 0.0]; 4],
                }),
                prio: PrioritySpec::ShortFlows { threshold: 30_000 },
            })
            .with_workload(WorkloadSpec::poisson_with_pairs(
                CdfSpec::Fixed(1_000),
                0.05,
                PairSpec::Skew(SkewSpec::new(1.25)),
            ))
            .with_workload(WorkloadSpec::Trace {
                trace: TraceSpec::Path("flows.csv".into()),
                first_flow_id: 20_000_000,
            })
            .with_workload(WorkloadSpec::trace_inline(vec![
                TraceRecord::new(Duration::from_ps(1_500_250), 0, 3, 64_000),
                TraceRecord {
                    start: Duration::from_us(2),
                    src: 2,
                    dst: 1,
                    bytes: 500,
                    prio: FlowPriority::LatencySensitive,
                },
            ]))
            .with_queueing(QueueingSpec::dwrr(vec![2, 1]).with_ecn_scale(vec![1.0, 0.25])),
            ScenarioSpec::new(
                "faults",
                TopologyChoice::Dumbbell {
                    left: 2,
                    right: 2,
                    host_bw: Bandwidth::from_gbps(25),
                    core_bw: Bandwidth::from_gbps(10),
                    link_delay: Duration::from_us(2),
                },
                CcSpec::Hpcc(HpccConfig {
                    eta: 0.9,
                    max_stage: 0,
                    wai: 40,
                    mode: HpccReactionMode::PerAck,
                    ..HpccConfig::default()
                }),
                Duration::from_ms(1),
            )
            .with_workload(WorkloadSpec::poisson_with_prio(
                CdfSpec::WebSearch,
                0.4,
                PrioritySpec::Uniform(FlowPriority::Class(1)),
            ))
            .with_queueing(QueueingSpec::pias(vec![50_000, 1_000_000]))
            .with_faults(
                FaultSpec::link_down(
                    4,
                    Duration::from_us(100),
                    Duration::from_us(50),
                    LinkDownMode::Pause,
                )
                .with_link_fault(LinkFault {
                    link: 0,
                    at: Duration::from_us(200),
                    down_for: Duration::from_us(20),
                    flaps: 3,
                    period: Duration::from_us(100),
                    mode: LinkDownMode::Drop,
                })
                .with_degraded_link(DegradedLink {
                    link: 1,
                    from: Duration::from_us(10),
                    until: Duration::from_us(900),
                    extra_delay: Duration::from_us(5),
                    loss: 0.001,
                })
                .with_straggler(StragglerHost {
                    host: 3,
                    from: Duration::ZERO,
                    until: Duration::from_us(500),
                    rate_factor: 0.25,
                }),
            ),
            ScenarioSpec::new(
                "corpus fluid",
                TopologyChoice::Corpus {
                    path: "corpus/rocketfuel_pop.edges".into(),
                    host_bw: Bandwidth::from_gbps(10),
                },
                CcSpec::Dctcp { g: 0.0625 },
                Duration::from_ms(3),
            )
            .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, 0.5))
            .with_backend(BackendSpec::Fluid),
            ScenarioSpec::new(
                "per-RTT",
                TopologyChoice::star(4, Bandwidth::from_gbps(25)),
                CcSpec::Hpcc(HpccConfig {
                    mode: HpccReactionMode::PerRtt,
                    ..HpccConfig::default()
                }),
                Duration::from_ms(1),
            ),
        ];
        specs[1].trace.slowdown_buckets = Some(SlowdownBuckets::FbHadoop);
        specs
    }

    /// The first scenario of [`every_member`]: a buildable Figure 11 run.
    fn rich_spec() -> ScenarioSpec {
        every_member().swap_remove(0)
    }

    fn decode_err(text: &str) -> String {
        match crate::Campaign::from_json_str(text) {
            Err(e) => e.0,
            Ok(_) => panic!("{text} must not decode"),
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let specs = every_member();
        let text = crate::Campaign::from_scenarios(specs.clone()).to_json_string() + "\n";
        assert_eq!(
            text, EVERY_MEMBER,
            "regenerate the fixture from every_member()"
        );
        let back = crate::Campaign::from_json_str(&text).unwrap();
        assert_eq!(back.scenarios(), specs);
    }

    #[test]
    fn integers_wider_than_their_field_are_decode_errors_not_truncations() {
        // `"max_stage": 4294967301` (2^32 + 5) used to run, and re-encode, as 5.
        // One case per nesting form: a flattened variant, an array index, a
        // defaulted member inside an array of objects, a plain object member.
        for (member, wide, error) in [
            (
                "\"max_stage\":5",
                "\"max_stage\":4294967301",
                "[1].cc.max_stage: 4294967301 out of range for u32",
            ),
            (
                "\"weights\":[2,1]",
                "\"weights\":[2,4294967301]",
                "[3].queueing.weights[1]: 4294967301 out of range for u32",
            ),
            (
                "\"prio\":{\"kind\":\"Uniform\",\"prio\":3}",
                "\"prio\":{\"kind\":\"Uniform\",\"prio\":300}",
                "[4].workloads[0].prio.prio: 300 out of range for u8",
            ),
            (
                "\"flaps\":3",
                "\"flaps\":4294967301",
                "[4].faults.links[1].flaps: 4294967301 out of range for u32",
            ),
        ] {
            assert!(EVERY_MEMBER.contains(member), "{member} not in the fixture");
            assert_eq!(decode_err(&EVERY_MEMBER.replacen(member, wide, 1)), error);
        }
    }

    #[test]
    fn decode_errors_carry_the_path_and_the_kind_never_the_value() {
        for (member, broken, error) in [
            (
                "\"load\":0.3",
                "\"load\":\"0.3\"".to_string(),
                "[0].workloads[0].load: expected number, got string",
            ),
            (
                "[0.5,0.5,0.0,0.0]",
                "[0.5,0.5,null,0.0]".to_string(),
                "[3].workloads[1].pairs.rows[0][2]: expected number, got null",
            ),
            (
                "\"hosts\":3",
                "\"hosts\":-3".to_string(),
                "[1].topology.hosts: expected unsigned integer, got -3",
            ),
            (
                "\"trace\":{\"queue_sample_interval_ps\"",
                "\"fualts\":{},\"trace\":{\"queue_sample_interval_ps\"".to_string(),
                "[0].fualts: unknown member",
            ),
            (
                "\"seed\":42",
                "\"seed\":42,\"seed\":43".to_string(),
                "[0].seed: repeated member",
            ),
            ("\"seed\":42,", String::new(), "[0].seed: missing member"),
            (
                "\"kind\":\"TestbedPod\"",
                format!("\"kind\":\"{}\"", "Pod".repeat(3_000_000)),
                "[2].topology.kind: unknown label \"PodPodPodPodPodPodPodPodPodPodPodPodPodP\"…",
            ),
            (
                "\"records\":[[1500250,0,3,64000,0]",
                format!("\"records\":[[{}]", "7,".repeat(4_000_000) + "7"),
                "[3].workloads[4].records[0]: expected [start_ps, src, dst, bytes, prio]",
            ),
            (
                "[1500250,0,3,64000,0]",
                "[1500250,0,3,64000,7]".to_string(),
                "[3].workloads[4].records[0][4]: unknown priority code 7",
            ),
            (
                "\"path\":\"flows.csv\"",
                "\"path\":\"flows.csv\",\"records\":[]".to_string(),
                "[3].workloads[3]: needs exactly one of \"path\" or \"records\"",
            ),
            (
                "\"backend\":\"fluid\"",
                "\"backend\":{\"parallel_packet\":{\"threads\":2}}".to_string(),
                &format!("[5].backend: {}", hpcc_sim::PARALLEL_PACKET_REMOVED),
            ),
        ] {
            assert!(EVERY_MEMBER.contains(member), "{member} not in the fixture");
            let err = decode_err(&EVERY_MEMBER.replacen(member, &broken, 1));
            assert_eq!(err, error);
            assert!(err.len() < 200, "{} bytes", err.len());
        }
        // Outside a campaign the path starts at the scenario.
        let alone = rich_spec()
            .to_json_string()
            .replace("\"seed\":42", "\"seed\":true");
        let err = ScenarioSpec::from_json_str(&alone).unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error: seed: expected unsigned integer, got bool"
        );
    }

    #[test]
    fn pair_and_trace_workloads_round_trip_through_json() {
        // Uniform pairs are canonical-omitted: the key only appears for the
        // non-default samplers.
        let uniform = rich_spec().to_json_string();
        assert!(!uniform.contains("\"pairs\""), "{uniform}");
        let text = every_member()[3].to_json_string();
        assert_eq!(text.matches("\"pairs\"").count(), 3, "{text}");
    }

    #[test]
    fn queueing_specs_round_trip_through_json() {
        let base = || {
            ScenarioSpec::new(
                "multi-class",
                TopologyChoice::star(4, Bandwidth::from_gbps(25)),
                CcSpec::by_label("HPCC"),
                Duration::from_ms(1),
            )
        };
        for q in [
            QueueingSpec::legacy(),
            QueueingSpec::strict_priority(4),
            QueueingSpec::dwrr(vec![4, 2, 1]),
            QueueingSpec::pias(vec![50_000, 1_000_000]),
            QueueingSpec::dwrr(vec![2, 1]).with_ecn_scale(vec![1.0, 0.25]),
        ] {
            let spec = base().with_queueing(q.clone());
            let text = spec.to_json_string();
            assert!(text.contains("\"queueing\""), "{text}");
            let back = ScenarioSpec::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{e} while parsing {text}"));
            assert_eq!(back, spec, "round trip changed {text}");
            assert_eq!(back.queueing.as_ref().unwrap().label(), q.label());
        }
        // Omitted queueing is canonical-omitted: no key in the JSON, and a
        // manifest without the key parses back to None.
        let plain = base();
        let text = plain.to_json_string();
        assert!(!text.contains("queueing"), "{text}");
        assert_eq!(ScenarioSpec::from_json_str(&text).unwrap().queueing, None);
    }

    #[test]
    fn queueing_labels_and_class_counts() {
        assert_eq!(QueueingSpec::legacy().label(), "SP-1");
        assert_eq!(QueueingSpec::legacy().classes(), 1);
        assert_eq!(QueueingSpec::strict_priority(3).label(), "SP-3");
        assert_eq!(QueueingSpec::dwrr(vec![1, 1]).classes(), 2);
        assert_eq!(QueueingSpec::pias(vec![10, 20]).label(), "PIAS-3");
        assert_eq!(QueueingSpec::pias(vec![10, 20]).classes(), 3);
    }

    #[test]
    fn malformed_queueing_specs_are_typed_build_errors() {
        let base = |q: QueueingSpec| {
            ScenarioSpec::new(
                "bad queueing",
                TopologyChoice::star(3, Bandwidth::from_gbps(25)),
                CcSpec::by_label("HPCC"),
                Duration::from_ms(1),
            )
            .with_workload(WorkloadSpec::poisson(CdfSpec::Fixed(1_000), 0.1))
            .with_queueing(q)
        };
        let cases: Vec<(QueueingSpec, &str)> = vec![
            (QueueingSpec::strict_priority(0), "data_classes"),
            (QueueingSpec::strict_priority(9), "data_classes"),
            (QueueingSpec::dwrr(vec![]), "data_classes"),
            // The count is the weights' length, not saturated to a `u8`.
            (QueueingSpec::dwrr(vec![1; 300]), "got 300"),
            (QueueingSpec::dwrr(vec![1, 0]), ">= 1"),
            (QueueingSpec::pias(vec![200, 100]), "increasing"),
            (
                QueueingSpec::strict_priority(2).with_ecn_scale(vec![1.0]),
                "ecn_scale",
            ),
            (
                QueueingSpec::strict_priority(2).with_ecn_scale(vec![1.0, f64::NAN]),
                "positive",
            ),
        ];
        for (q, needle) in cases {
            let err = match base(q.clone()).try_build() {
                Err(e) => e,
                Ok(_) => panic!("{q:?} must fail"),
            };
            assert!(err.to_string().contains("queueing"), "{q:?} -> {err}");
            assert!(err.to_string().contains(needle), "{q:?} -> {err}");
        }
        // A valid multi-class spec resolves and runs.
        let ok = base(QueueingSpec::pias(vec![10_000]));
        assert_eq!(ok.try_build().unwrap().config().queueing.classes(), 2);
    }

    #[test]
    fn queueing_and_measurement_reach_the_engine_unchanged() {
        for mut spec in every_member() {
            // Neither member depends on the traffic, and one workload names
            // a file; the corpus path is relative to the repository root.
            spec.workloads.clear();
            if let TopologyChoice::Corpus { path, .. } = &mut spec.topology {
                *path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
            }
            let exp = spec
                .try_build()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let cfg = exp.config();
            let queueing = spec.queueing.clone().unwrap_or_default();
            assert_eq!(cfg.queueing, queueing, "{}", spec.name);
            assert_eq!(cfg.measure, spec.trace, "{}", spec.name);
        }
    }

    #[test]
    fn manifests_without_a_pairs_key_parse_as_uniform() {
        // A pre-locality manifest (the exact shape older versions emitted)
        // must keep parsing — and keep meaning uniform pairs.
        let old = r#"{"name":"legacy","topology":{"kind":"Star","hosts":4,"host_bw_bps":25000000000,"link_delay_ps":1000000},"cc":{"kind":"Label","label":"HPCC"},"workloads":[{"kind":"Poisson","cdf":"WebSearch","load":0.3,"first_flow_id":0}],"duration_ps":1000000000,"seed":1,"flow_control":"PFC","trace":{}}"#;
        let spec = ScenarioSpec::from_json_str(old).unwrap();
        match &spec.workloads[0] {
            WorkloadSpec::Poisson { pairs, .. } => assert_eq!(*pairs, PairSpec::Uniform),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_workloads_are_typed_build_errors_not_panics() {
        // A locality matrix whose shape cannot match the topology's racks.
        let bad_matrix = ScenarioSpec::new(
            "bad",
            TopologyChoice::star(4, Bandwidth::from_gbps(25)),
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::poisson_with_pairs(
            CdfSpec::Fixed(1_000),
            0.1,
            PairSpec::Locality(LocalitySpec::Matrix {
                rows: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            }),
        ));
        let err = match bad_matrix.try_build() {
            Err(e) => e,
            Ok(_) => panic!("must fail"),
        };
        assert!(err.to_string().contains("workload 0"), "{err}");
        assert!(err.to_string().contains("rows"), "{err}");
        // A missing trace file.
        let missing = ScenarioSpec::new(
            "missing",
            TopologyChoice::star(4, Bandwidth::from_gbps(25)),
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::trace_file("/nonexistent/p.csv"));
        let err = match missing.try_build() {
            Err(e) => e,
            Ok(_) => panic!("must fail"),
        };
        assert!(err.to_string().contains("cannot read"), "{err}");
        // A trace record pointing outside the host list, with its line.
        let out_of_range = ScenarioSpec::new(
            "oor",
            TopologyChoice::star(3, Bandwidth::from_gbps(25)),
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::trace_inline(vec![
            TraceRecord::new(Duration::ZERO, 0, 1, 10),
            TraceRecord::new(Duration::ZERO, 0, 9, 10),
        ]));
        let err = match out_of_range.try_build() {
            Err(e) => e,
            Ok(_) => panic!("must fail"),
        };
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        // Manifest-supplied generator parameters that used to hit asserts
        // are typed errors too: load range, malformed custom CDFs, incast
        // parameters, and out-of-range explicit host indices.
        let base = |w: WorkloadSpec| {
            ScenarioSpec::new(
                "param",
                TopologyChoice::star(4, Bandwidth::from_gbps(25)),
                CcSpec::by_label("HPCC"),
                Duration::from_ms(1),
            )
            .with_workload(w)
        };
        let cases: Vec<(WorkloadSpec, &str)> = vec![
            (
                WorkloadSpec::poisson(CdfSpec::WebSearch, 1.5),
                "not in (0, 1]",
            ),
            (
                WorkloadSpec::poisson(CdfSpec::WebSearch, 0.0),
                "not in (0, 1]",
            ),
            (
                WorkloadSpec::poisson(CdfSpec::Custom(vec![(10, 0.5)]), 0.3),
                "end at probability 1.0",
            ),
            (
                WorkloadSpec::poisson(CdfSpec::Custom(vec![(10, 0.6), (20, 0.4), (30, 1.0)]), 0.3),
                "non-decreasing",
            ),
            (
                WorkloadSpec::poisson(CdfSpec::Custom(vec![]), 0.3),
                "at least one point",
            ),
            (WorkloadSpec::incast(0, 500_000, 0.02), "fan_in"),
            (WorkloadSpec::incast(8, 500_000, 0.0), "capacity fraction"),
            (
                WorkloadSpec::Explicit(vec![FlowDecl::new(1, 0, 9, 100, Duration::ZERO)]),
                "dst_host index 9 out of range",
            ),
        ];
        for (w, needle) in cases {
            let err = match base(w.clone()).try_build() {
                Err(e) => e,
                Ok(_) => panic!("{w:?} must fail"),
            };
            assert!(err.to_string().contains(needle), "{w:?} -> {err}");
        }
    }

    #[test]
    fn try_build_is_total() {
        // Each row is a decodable manifest that used to abort the process
        // (panic) or never return (a period of zero); `try_build` now answers
        // each with an error naming the member. Nothing here is built from
        // Rust values: the text is what a coordinator or `hpcc run
        // --manifest` would be handed.
        const BASE: &str = r#"{"name":"total","topology":{"kind":"Star","hosts":4,"host_bw_bps":25000000000,"link_delay_ps":1000000},"cc":{"kind":"Label","label":"HPCC"},"workloads":[{"kind":"Incast","fan_in":3,"flow_size":500000,"capacity_fraction":0.02,"first_flow_id":10000000},{"kind":"Poisson","cdf":{"fixed":1000},"load":0.3,"first_flow_id":0}],"duration_ps":100000000,"seed":1,"flow_control":"PFC","trace":{"queue_sample_interval_ps":5000000,"bottleneck_host":0,"trace_interval_ps":1000000,"goodput_bin_ps":50000000}}"#;
        const STAR: &str =
            r#"{"kind":"Star","hosts":4,"host_bw_bps":25000000000,"link_delay_ps":1000000}"#;
        let built = ScenarioSpec::from_json_str(BASE).unwrap().try_build();
        assert!(built.is_ok(), "the base must build: {:?}", built.err());
        // A corpus file of two hosts on one cable: no switch to trace.
        let edges =
            std::env::temp_dir().join(format!("hpcc_switchless_{}.edges", std::process::id()));
        std::fs::write(&edges, "node a host\nnode b host\nlink a b 25Gbps 1us\n").unwrap();
        let corpus = |path: &std::path::Path| {
            format!(
                r#"{{"kind":"Corpus","path":{:?},"host_bw_bps":25000000000}}"#,
                path.to_str().unwrap()
            )
        };
        let switchless = corpus(&edges);
        // A corpus host on two links, and one on none: the host model has
        // one NIC, so the file is refused instead of the simulator panicking.
        let dual = edges.with_extension("dual.edges");
        std::fs::write(
            &dual,
            "node s switch\nnode t switch\nnode a host\nnode b host\n\
             link a s 25Gbps 1us\nlink a t 25Gbps 1us\nlink b s 25Gbps 1us\n",
        )
        .unwrap();
        let unplugged = edges.with_extension("unplugged.edges");
        std::fs::write(
            &unplugged,
            "node s switch\nnode a host\nnode b host\nnode c host\n\
             link a s 25Gbps 1us\nlink b s 25Gbps 1us\n",
        )
        .unwrap();
        let (dual_host, unplugged_host) = (corpus(&dual), corpus(&unplugged));
        for (member, hostile, names) in [
            (
                r#""label":"HPCC""#,
                r#""label":"HPCCX""#,
                r#"cc.label: unknown scheme "HPCCX""#,
            ),
            (
                r#""bottleneck_host":0"#,
                r#""bottleneck_host":99"#,
                "trace.bottleneck_host",
            ),
            (STAR, switchless.as_str(), "trace.bottleneck_host"),
            (
                STAR,
                dual_host.as_str(),
                r#"line 3: host "a" has 2 links (a host has exactly one)"#,
            ),
            (
                STAR,
                unplugged_host.as_str(),
                r#"line 4: host "c" has 0 links (a host has exactly one)"#,
            ),
            (
                r#""queue_sample_interval_ps":5000000"#,
                r#""queue_sample_interval_ps":0"#,
                "trace.queue_sample_interval_ps",
            ),
            (
                r#""trace_interval_ps":1000000"#,
                r#""trace_interval_ps":0"#,
                "trace.trace_interval_ps",
            ),
            (
                r#""goodput_bin_ps":50000000"#,
                r#""goodput_bin_ps":0"#,
                "trace.goodput_bin_ps",
            ),
            (
                r#""goodput_bin_ps":50000000"#,
                r#""goodput_bin_ps":50000000,"slowdown_buckets":"WebSearch""#,
                r#"trace.slowdown_buckets: the workloads imply "WebSearch" already"#,
            ),
            (
                r#""flow_size":500000"#,
                r#""flow_size":0"#,
                "workload 0: incast flow_size 0",
            ),
            (
                r#"{"fixed":1000}"#,
                r#"{"custom":[[0,1.0]]}"#,
                "workload 1: cdf: Custom CDF has mean",
            ),
            (
                r#"{"fixed":1000}"#,
                r#"{"fixed":0}"#,
                "workload 1: cdf: fixed CDF size",
            ),
            (
                r#""host_bw_bps":25000000000"#,
                r#""host_bw_bps":0"#,
                "topology.host_bw_bps",
            ),
            (
                r#""hosts":4"#,
                r#""hosts":1"#,
                "workload 0: incast needs at least 2 hosts",
            ),
        ] {
            assert!(BASE.contains(member), "{member} not in the base manifest");
            let spec = ScenarioSpec::from_json_str(&BASE.replacen(member, hostile, 1))
                .unwrap_or_else(|e| panic!("{hostile} must decode: {e}"));
            match spec.try_build() {
                Err(e) => assert!(e.0.contains(names), "{hostile} -> {e}"),
                Ok(_) => panic!("{hostile} must not build"),
            }
        }
        for path in [edges, dual, unplugged] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn freezing_a_generated_scenario_reproduces_its_flows() {
        let spec = rich_spec();
        let frozen = spec.freeze().unwrap();
        // Generators became inline traces; nothing else moved.
        assert_eq!(frozen.workloads.len(), spec.workloads.len());
        for w in &frozen.workloads {
            assert!(matches!(w, WorkloadSpec::Trace { .. }), "{w:?}");
        }
        assert_eq!(frozen.seed, spec.seed);
        // The frozen spec builds the bit-identical flow list (ids included)…
        let original = spec.build();
        let replayed = frozen.build();
        assert_eq!(original.flows(), replayed.flows());
        // …and survives a manifest round trip intact.
        let back = ScenarioSpec::from_json_str(&frozen.to_json_string()).unwrap();
        assert_eq!(back, frozen);
        assert_eq!(back.build().flows(), original.flows());
    }

    #[test]
    fn locality_pairs_change_flows_but_stay_deterministic() {
        let base = |pairs: PairSpec| {
            ScenarioSpec::new(
                "loc",
                TopologyChoice::FatTree(FatTreeParams::small()),
                CcSpec::by_label("HPCC"),
                Duration::from_ms(2),
            )
            .with_seed(9)
            .with_workload(WorkloadSpec::poisson_with_pairs(
                CdfSpec::FbHadoop,
                0.3,
                pairs,
            ))
        };
        let uniform = base(PairSpec::Uniform).build();
        let local = base(PairSpec::Locality(LocalitySpec::IntraRack {
            fraction: 1.0,
        }))
        .build();
        assert_ne!(uniform.flows(), local.flows());
        // Determinism: building twice is identical.
        assert_eq!(
            local.flows(),
            base(PairSpec::Locality(LocalitySpec::IntraRack {
                fraction: 1.0
            }))
            .build()
            .flows()
        );
        // All-intra-rack flows never leave their ToR: with 4 hosts per rack
        // in the small Clos fabric, src/dst indices share the rack of 4.
        let topo = local.topology();
        let rack_of = topo.host_rack_ids();
        let index_of = |n: hpcc_types::NodeId| topo.hosts().iter().position(|&h| h == n).unwrap();
        for f in local.flows() {
            assert_eq!(rack_of[index_of(f.src)], rack_of[index_of(f.dst)]);
        }
    }

    #[test]
    fn build_is_deterministic_across_calls() {
        let spec = rich_spec();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.flows(), b.flows());
        assert_eq!(a.label(), b.label());
        assert_eq!(a.config().seed, 42);
        assert_eq!(a.config().buffer_bytes, 16_000_000);
        assert_eq!(a.config().ecn.unwrap().kmin_bytes, 12_000);
        assert!(!a.flows().is_empty());
    }

    #[test]
    fn workload_streams_are_independent() {
        // Each workload draws from its own seed stream (derived from the
        // scenario seed and the workload's index), so changing the *content*
        // of workload 0 must not perturb the flows workload 1 generates.
        let incast_flows = |background_load: f64| {
            let mut s = rich_spec();
            s.workloads = vec![
                WorkloadSpec::poisson(CdfSpec::FbHadoop, background_load),
                WorkloadSpec::incast(16, 500_000, 0.02),
            ];
            let exp = s.build();
            let mut flows: Vec<_> = exp
                .flows()
                .iter()
                .filter(|f| f.id.raw() >= 10_000_000)
                .copied()
                .collect();
            flows.sort_by_key(|f| f.id);
            flows
        };
        let a = incast_flows(0.3);
        let b = incast_flows(0.5);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn label_resolution_uses_topology_line_rate() {
        let spec = ScenarioSpec::new(
            "dcqcn",
            TopologyChoice::testbed_pod(),
            CcSpec::by_label("DCQCN"),
            Duration::from_ms(1),
        );
        let exp = spec.build();
        // DCQCN on a 25G pod gets the 25G-scaled ECN thresholds.
        assert_eq!(exp.config().ecn.unwrap().kmin_bytes, 100_000);
        assert_eq!(spec.scheme_label(), "DCQCN");
    }

    #[test]
    fn explicit_flows_resolve_host_indices() {
        let spec = ScenarioSpec::new(
            "pair",
            TopologyChoice::star(4, Bandwidth::from_gbps(25)),
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::Explicit(vec![FlowDecl::new(
            7,
            1,
            3,
            1_000,
            Duration::from_us(3),
        )]));
        let exp = spec.build();
        let hosts = exp.topology().hosts();
        assert_eq!(exp.flows().len(), 1);
        let f = exp.flows()[0];
        assert_eq!(f.id, FlowId(7));
        assert_eq!(f.src, hosts[1]);
        assert_eq!(f.dst, hosts[3]);
        assert_eq!(f.start, SimTime::ZERO + Duration::from_us(3));
    }
}
