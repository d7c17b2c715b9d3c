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
//! [`ScenarioSpec::build`] resolves the description into a concrete
//! [`Experiment`] through [`ExperimentBuilder`]: the topology is
//! instantiated, the CC label is resolved against the line rate and the
//! topology's suggested base RTT, and every workload draws from its own
//! deterministic seed stream derived from the scenario seed — so the same
//! spec always yields the bit-identical experiment, no matter where or when
//! it is built.

use crate::experiment::{Experiment, ExperimentBuilder, ExperimentResults, MTU_WIRE_SIZE};
use crate::json::{obj, JsonError, JsonValue};
use crate::presets::scheme_by_label;
use hpcc_cc::{CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, HpccReactionMode, TimelyConfig};
use hpcc_sim::{
    DegradedLink, EcnConfig, FaultConfig, FlowControlMode, LinkDownMode, LinkFault, StragglerHost,
};
use hpcc_topology::{
    dumbbell, fat_tree, leaf_spine, star, testbed_pod, FatTreeParams, TopologySpec,
};
use hpcc_types::rng::derive_seed;
use hpcc_types::{Bandwidth, Duration, FlowId, FlowSpec, SimTime};
use hpcc_workload::trace::{TraceRecord, TraceSpec};
use hpcc_workload::{
    fb_hadoop, fixed_size, websearch, FlowSizeCdf, IncastGenerator, LoadGenerator, LocalitySpec,
    PairSpec, PrioritySpec, SkewSpec,
};
use std::fmt;

/// Error produced when a [`ScenarioSpec`] cannot be resolved into an
/// [`Experiment`] — an invalid locality matrix, an unreadable or malformed
/// trace file, a trace record referencing hosts the topology lacks.
///
/// The message names the failing workload (by position) and, for trace
/// problems, carries the file's 1-based line number (see
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
    /// A topology imported from a corpus file (edge-list or GraphML subset,
    /// see [`hpcc_topology::corpus`]). `host_bw` declares the NIC rate used
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
/// The JSON form is the optional `"backend"` key: a label string (`"packet"`
/// | `"fluid"`, see [`crate::wire::backend_to_json`]). An omitted key is
/// canonical for [`BackendSpec::Packet`] and keeps every pre-existing
/// manifest bit-identical. Fluid is a steady-state model: scenarios
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
    /// RTT.
    pub fn resolve(&self, line_rate: Bandwidth, base_rtt: Duration) -> CcAlgorithm {
        match self {
            CcSpec::Label(label) => scheme_by_label(label, line_rate, base_rtt),
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
        }
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
    /// Instantiate the sampler.
    ///
    /// # Panics
    /// Panics when a [`CdfSpec::Custom`] point list is invalid; scenario
    /// resolution goes through [`CdfSpec::try_build`] instead, so manifest
    /// input cannot reach the panic.
    pub fn build(&self) -> FlowSizeCdf {
        match self {
            CdfSpec::WebSearch => websearch(),
            CdfSpec::FbHadoop => fb_hadoop(),
            CdfSpec::Fixed(size) => fixed_size(*size),
            CdfSpec::Custom(points) => FlowSizeCdf::new("Custom", points.clone()),
        }
    }

    /// Fallible form of [`CdfSpec::build`]: a malformed
    /// [`CdfSpec::Custom`] point list (empty, non-monotone, not ending at
    /// probability 1) is a typed error instead of a panic, so untrusted
    /// manifests cannot abort a worker.
    pub fn try_build(&self) -> Result<FlowSizeCdf, String> {
        if let CdfSpec::Custom(points) = self {
            if points.is_empty() {
                return Err("custom CDF needs at least one point".into());
            }
            for (i, w) in points.windows(2).enumerate() {
                // NaN probabilities fail the check too (is_nan, not just >).
                if w[0].0 > w[1].0 || w[0].1.is_nan() || w[1].1.is_nan() || w[0].1 > w[1].1 {
                    return Err(format!(
                        "custom CDF points {i} and {} are not non-decreasing",
                        i + 1
                    ));
                }
            }
            let last = points.last().unwrap().1;
            if last.is_nan() || (last - 1.0).abs() >= 1e-9 {
                return Err(format!(
                    "custom CDF must end at probability 1.0, ends at {last}"
                ));
            }
        }
        Ok(self.build())
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

    /// Replay a trace file (CSV or JSONL; see [`hpcc_workload::trace`] for
    /// the formats) with the conventional id range (from 0).
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

    /// Generate this workload's flows for a concrete host list.
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
                // Validate manifest-supplied parameters here so untrusted
                // input surfaces as a typed error, never as a generator
                // assert aborting the process.
                if !(*load > 0.0 && *load <= 1.0) {
                    return Err(BuildError(format!("load {load} not in (0, 1]")));
                }
                let cdf = cdf.try_build().map_err(BuildError)?;
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
                if !(*capacity_fraction > 0.0 && *capacity_fraction <= 1.0) {
                    return Err(BuildError(format!(
                        "incast capacity fraction {capacity_fraction} not in (0, 1]"
                    )));
                }
                Ok(
                    IncastGenerator::paper_default(hosts.to_vec(), host_bw, seed)
                        .with_fan_in(*fan_in)
                        .with_flow_size(*flow_size)
                        .with_capacity_fraction(*capacity_fraction)
                        .with_first_flow_id(*first_flow_id)
                        .generate(duration),
                )
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

/// The egress scheduling discipline of a scenario's switches, as plain data.
///
/// Together with [`QueueingSpec::ecn_scale`] this resolves into the
/// simulator's [`hpcc_sim::QueueingConfig`]. The number of data classes is
/// implied: explicit for strict priority, the weight count for DWRR, one
/// more than the threshold count for PIAS.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerSpec {
    /// Strict priority over `classes` data classes (class 0 first). One
    /// class is the paper's deployment and the legacy default.
    StrictPriority {
        /// Number of data classes (`1..=Priority::MAX_DATA_CLASSES`).
        classes: u8,
    },
    /// Deficit-weighted round robin, one weight per data class.
    Dwrr {
        /// Per-class DWRR weights (all `>= 1`); the length is the class
        /// count.
        weights: Vec<u32>,
    },
    /// PIAS-style dynamic demotion: senders tag packets by the bytes their
    /// flow has already sent (crossing threshold `i` demotes to class
    /// `i + 1`) and switches serve the classes in strict priority.
    Pias {
        /// Strictly increasing bytes-sent demotion thresholds; the class
        /// count is `thresholds.len() + 1`.
        thresholds: Vec<u64>,
    },
}

/// Multi-class switch queueing of a scenario, as plain data (JSON key
/// `"queueing"`; omitted from manifests ⇒ the legacy single-class default,
/// so every pre-existing manifest parses — and stays canonical — unchanged).
#[derive(Clone, Debug, PartialEq)]
pub struct QueueingSpec {
    /// The egress scheduling discipline (and implied class count).
    pub scheduler: SchedulerSpec,
    /// Optional per-class multipliers on the base ECN thresholds (empty =
    /// every class marks at the base `Kmin`/`Kmax`).
    pub ecn_scale: Vec<f64>,
}

impl QueueingSpec {
    /// The explicit legacy default: one data class under strict priority.
    /// Building with this spec is bit-identical to omitting it.
    pub fn legacy() -> Self {
        QueueingSpec {
            scheduler: SchedulerSpec::StrictPriority { classes: 1 },
            ecn_scale: Vec::new(),
        }
    }

    /// Strict priority over `classes` data classes.
    pub fn strict_priority(classes: u8) -> Self {
        QueueingSpec {
            scheduler: SchedulerSpec::StrictPriority { classes },
            ecn_scale: Vec::new(),
        }
    }

    /// DWRR with the given per-class weights.
    pub fn dwrr(weights: Vec<u32>) -> Self {
        QueueingSpec {
            scheduler: SchedulerSpec::Dwrr { weights },
            ecn_scale: Vec::new(),
        }
    }

    /// PIAS with the given bytes-sent demotion thresholds.
    pub fn pias(thresholds: Vec<u64>) -> Self {
        QueueingSpec {
            scheduler: SchedulerSpec::Pias { thresholds },
            ecn_scale: Vec::new(),
        }
    }

    /// Attach per-class ECN threshold scaling.
    pub fn with_ecn_scale(mut self, scale: Vec<f64>) -> Self {
        self.ecn_scale = scale;
        self
    }

    /// The number of data classes this spec configures.
    pub fn classes(&self) -> usize {
        match &self.scheduler {
            SchedulerSpec::StrictPriority { classes } => *classes as usize,
            SchedulerSpec::Dwrr { weights } => weights.len(),
            SchedulerSpec::Pias { thresholds } => thresholds.len() + 1,
        }
    }

    /// A short label for scenario names and reports ("SP-1", "DWRR-4",
    /// "PIAS-3").
    pub fn label(&self) -> String {
        match &self.scheduler {
            SchedulerSpec::StrictPriority { classes } => format!("SP-{classes}"),
            SchedulerSpec::Dwrr { weights } => format!("DWRR-{}", weights.len()),
            SchedulerSpec::Pias { thresholds } => format!("PIAS-{}", thresholds.len() + 1),
        }
    }

    /// Resolve into the simulator's [`hpcc_sim::QueueingConfig`], validating
    /// every invariant on the way (class counts, weight/threshold/scale
    /// shapes) so malformed manifests surface as typed [`BuildError`]s.
    pub fn resolve(&self) -> Result<hpcc_sim::QueueingConfig, BuildError> {
        let classes = self.classes();
        let cfg = hpcc_sim::QueueingConfig {
            data_classes: classes.min(u8::MAX as usize) as u8,
            scheduler: match self.scheduler {
                SchedulerSpec::Dwrr { .. } => hpcc_sim::SchedulerKind::Dwrr,
                _ => hpcc_sim::SchedulerKind::StrictPriority,
            },
            weights: match &self.scheduler {
                SchedulerSpec::Dwrr { weights } => weights.clone(),
                _ => Vec::new(),
            },
            pias_thresholds: match &self.scheduler {
                SchedulerSpec::Pias { thresholds } => thresholds.clone(),
                _ => Vec::new(),
            },
            ecn_scale: self.ecn_scale.clone(),
        };
        cfg.validate()
            .map_err(|e| BuildError(format!("queueing: {e}")))?;
        Ok(cfg)
    }
}

/// The fault plan of a scenario, as plain data (JSON key `"faults"`;
/// omitted from manifests ⇒ a healthy network: no timeline is allocated and
/// every pre-existing manifest parses — and stays canonical — unchanged).
///
/// The three fault families are the simulator's own plain-data records
/// ([`LinkFault`], [`DegradedLink`], [`StragglerHost`]), so a spec is
/// sweepable exactly like any other scenario field: clone, mutate one knob,
/// queue into a campaign. Resolution validates link/host indices and window
/// shapes against the built topology and surfaces violations as typed
/// [`BuildError`]s — malformed manifests never panic a worker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Scheduled link outages / flaps.
    pub link_faults: Vec<LinkFault>,
    /// Degraded-link windows (added latency, iid loss).
    pub degraded_links: Vec<DegradedLink>,
    /// Straggler-host windows (reduced NIC rate).
    pub stragglers: Vec<StragglerHost>,
}

impl FaultSpec {
    /// An empty fault plan (attachable, but resolves to a healthy network).
    pub fn new() -> Self {
        FaultSpec::default()
    }

    /// A single outage of `link` at `at` lasting `down_for`, in `mode`.
    pub fn link_down(link: usize, at: Duration, down_for: Duration, mode: LinkDownMode) -> Self {
        FaultSpec::new().with_link_fault(LinkFault {
            link,
            at,
            down_for,
            flaps: 0,
            period: Duration::ZERO,
            mode,
        })
    }

    /// Append a link outage / flap.
    pub fn with_link_fault(mut self, f: LinkFault) -> Self {
        self.link_faults.push(f);
        self
    }

    /// Append a degraded-link window.
    pub fn with_degraded_link(mut self, d: DegradedLink) -> Self {
        self.degraded_links.push(d);
        self
    }

    /// Append a straggler-host window.
    pub fn with_straggler(mut self, s: StragglerHost) -> Self {
        self.stragglers.push(s);
        self
    }

    /// True when no fault of any kind is declared.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.degraded_links.is_empty() && self.stragglers.is_empty()
    }

    /// Resolve into the simulator's [`FaultConfig`], validating every link
    /// and host index and every window shape against a topology with
    /// `links` links and `hosts` hosts.
    pub fn resolve(&self, links: usize, hosts: usize) -> Result<FaultConfig, BuildError> {
        let cfg = FaultConfig {
            link_faults: self.link_faults.clone(),
            degraded_links: self.degraded_links.clone(),
            stragglers: self.stragglers.clone(),
        };
        cfg.validate(links, hosts)
            .map_err(|e| BuildError(format!("faults: {e}")))?;
        Ok(cfg)
    }
}

/// Measurement options of a scenario, as plain data.
///
/// (Formerly named `TraceSpec`; renamed so that "trace" unambiguously means
/// a *flow trace* ([`hpcc_workload::trace`]) — this type is about sampling
/// queues and goodput, not about traffic. The JSON key remains `"trace"`.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeasurementSpec {
    /// Sample all switch data queues into a histogram at this period.
    pub queue_sample_interval: Option<Duration>,
    /// Trace the first switch's egress queue towards this host index (the
    /// bottleneck port of star micro-benchmarks).
    pub bottleneck_host: Option<usize>,
    /// Sampling period of traced ports (defaults to 1 µs).
    pub trace_interval: Option<Duration>,
    /// Accumulate per-flow goodput into bins of this width.
    pub goodput_bin: Option<Duration>,
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

    /// Resolve the declaration into a runnable [`Experiment`].
    ///
    /// Deterministic: the same spec always produces the bit-identical
    /// experiment (topology, config, flow list), regardless of thread or
    /// process.
    ///
    /// # Panics
    /// Panics when the spec cannot be resolved — see
    /// [`ScenarioSpec::try_build`] for the fallible form and [`BuildError`]
    /// for what can go wrong.
    pub fn build(&self) -> Experiment {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`ScenarioSpec::build`]: workload resolution
    /// failures (invalid locality matrices, unreadable or malformed trace
    /// files, out-of-range trace endpoints) come back as typed
    /// [`BuildError`]s naming the workload and — for trace input — the
    /// offending line.
    pub fn try_build(&self) -> Result<Experiment, BuildError> {
        if self.backend == BackendSpec::Fluid {
            if self.faults.is_some() {
                return Err(BuildError(
                    "the fluid backend does not support fault injection \
                     (steady-state model has no fault timeline); \
                     use \"backend\": \"packet\" or drop \"faults\""
                        .into(),
                ));
            }
            if let Some(q) = &self.queueing {
                if !q.resolve()?.is_legacy() {
                    return Err(BuildError(
                        "the fluid backend does not support multi-class/PIAS \
                         queueing (steady-state model has a single data class); \
                         use \"backend\": \"packet\" or drop \"queueing\""
                            .into(),
                    ));
                }
            }
        }
        if self.backend == BackendSpec::ParallelPacket {
            return Err(BuildError(hpcc_sim::PARALLEL_PACKET_REMOVED.into()));
        }
        let topo = self.topology.try_build()?;
        let host_bw = self.topology.host_bw();
        let base_rtt = topo.suggested_base_rtt(MTU_WIRE_SIZE);
        let cc = self.cc.resolve(host_bw, base_rtt);
        let mut flows = Vec::new();
        for (stream, workload) in self.workloads.iter().enumerate() {
            flows.extend(
                workload
                    .generate(
                        &topo,
                        host_bw,
                        self.duration,
                        derive_seed(self.seed, stream as u64),
                    )
                    .map_err(|e| BuildError(format!("workload {stream}: {}", e.0)))?,
            );
        }
        let mut b: ExperimentBuilder = Experiment::builder(self.name.clone(), topo, cc, host_bw)
            .duration(self.duration)
            .seed(self.seed)
            .flow_control(self.flow_control)
            .backend(self.backend);
        if let Some(bytes) = self.buffer_bytes {
            b = b.buffer_bytes(bytes);
        }
        if let Some(ecn) = self.ecn {
            b = b.ecn(ecn);
        }
        if let Some(q) = &self.queueing {
            b = b.queueing(q.resolve()?);
        }
        if let Some(f) = &self.faults {
            let (links, hosts) = (b.topology().links().len(), b.topology().hosts().len());
            b = b.faults(f.resolve(links, hosts)?);
        }
        if let Some(interval) = self.trace.queue_sample_interval {
            b = b.queue_sampling(interval);
        }
        if let Some(host) = self.trace.bottleneck_host {
            let interval = self.trace.trace_interval.unwrap_or(Duration::from_us(1));
            b = b.trace_bottleneck_to(host, interval);
        }
        if let Some(bin) = self.trace.goodput_bin {
            b = b.goodput_bin(bin);
        }
        Ok(b.flows(flows).build())
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
    /// code: it is a self-contained, shippable reproduction artifact.
    pub fn freeze(&self) -> Result<ScenarioSpec, BuildError> {
        let topo = self.topology.try_build()?;
        let host_bw = self.topology.host_bw();
        let mut frozen = self.clone();
        for (stream, workload) in self.workloads.iter().enumerate() {
            let first_flow_id = match workload {
                WorkloadSpec::Poisson { first_flow_id, .. }
                | WorkloadSpec::Incast { first_flow_id, .. } => *first_flow_id,
                WorkloadSpec::Explicit(_) | WorkloadSpec::Trace { .. } => continue,
            };
            let flows = workload
                .generate(
                    &topo,
                    host_bw,
                    self.duration,
                    derive_seed(self.seed, stream as u64),
                )
                .map_err(|e| BuildError(format!("workload {stream}: {}", e.0)))?;
            let trace = hpcc_workload::Trace::from_flows(&flows, topo.hosts())
                .map_err(|e| BuildError(format!("workload {stream}: {e}")))?;
            frozen.workloads[stream] = WorkloadSpec::Trace {
                trace: TraceSpec::Inline(trace.records),
                first_flow_id,
            };
        }
        Ok(frozen)
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("topology", topology_to_json(&self.topology)),
            ("cc", cc_to_json(&self.cc)),
            (
                "workloads",
                JsonValue::Array(self.workloads.iter().map(workload_to_json).collect()),
            ),
            ("duration_ps", JsonValue::UInt(self.duration.as_ps())),
            ("seed", JsonValue::UInt(self.seed)),
            (
                "flow_control",
                JsonValue::Str(self.flow_control.label().to_string()),
            ),
        ];
        if let Some(bytes) = self.buffer_bytes {
            pairs.push(("buffer_bytes", JsonValue::UInt(bytes)));
        }
        if let Some(ecn) = self.ecn {
            pairs.push((
                "ecn",
                obj(vec![
                    ("kmin_bytes", JsonValue::UInt(ecn.kmin_bytes)),
                    ("kmax_bytes", JsonValue::UInt(ecn.kmax_bytes)),
                    ("pmax", JsonValue::Float(ecn.pmax)),
                ]),
            ));
        }
        if let Some(q) = &self.queueing {
            pairs.push(("queueing", queueing_to_json(q)));
        }
        if let Some(f) = &self.faults {
            pairs.push(("faults", faults_to_json(f)));
        }
        if let Some(b) = crate::wire::backend_to_json(self.backend) {
            pairs.push(("backend", b));
        }
        pairs.push(("trace", trace_to_json(&self.trace)));
        obj(pairs)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Deserialize from a JSON value.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let mut spec = ScenarioSpec::new(
            v.require("name")?.as_str()?,
            topology_from_json(v.require("topology")?)?,
            cc_from_json(v.require("cc")?)?,
            Duration::from_ps(v.require("duration_ps")?.as_u64()?),
        );
        for w in v.require("workloads")?.as_array()? {
            spec.workloads.push(workload_from_json(w)?);
        }
        spec.seed = v.require("seed")?.as_u64()?;
        spec.flow_control = match v.require("flow_control")?.as_str()? {
            "PFC" => FlowControlMode::Lossless,
            "GBN" => FlowControlMode::LossyGoBackN,
            "IRN" => FlowControlMode::LossyIrn,
            other => return Err(JsonError(format!("unknown flow control {other:?}"))),
        };
        if let Some(bytes) = v.get("buffer_bytes") {
            spec.buffer_bytes = Some(bytes.as_u64()?);
        }
        if let Some(ecn) = v.get("ecn") {
            spec.ecn = Some(EcnConfig {
                kmin_bytes: ecn.require("kmin_bytes")?.as_u64()?,
                kmax_bytes: ecn.require("kmax_bytes")?.as_u64()?,
                pmax: ecn.require("pmax")?.as_f64()?,
            });
        }
        if let Some(q) = v.get("queueing") {
            spec.queueing = Some(queueing_from_json(q)?);
        }
        if let Some(f) = v.get("faults") {
            spec.faults = Some(faults_from_json(f)?);
        }
        if let Some(b) = v.get("backend") {
            spec.backend = crate::wire::backend_from_json(b)?;
        }
        if let Some(trace) = v.get("trace") {
            spec.trace = trace_from_json(trace)?;
        }
        Ok(spec)
    }

    /// Deserialize from a JSON string.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&JsonValue::parse(text)?)
    }
}

fn bw_json(bw: Bandwidth) -> JsonValue {
    JsonValue::UInt(bw.as_bps())
}

fn bw_from(v: &JsonValue) -> Result<Bandwidth, JsonError> {
    Ok(Bandwidth::from_bps(v.as_u64()?))
}

/// An unsigned JSON integer narrowed to its field's type: one too wide is a
/// decode error naming `what`, never a truncation.
fn narrow<T: TryFrom<u64>>(v: &JsonValue, what: &str) -> Result<T, JsonError> {
    let n = v.as_u64()?;
    T::try_from(n).map_err(|_| JsonError(format!("{what} {n} out of range")))
}

fn dur_json(d: Duration) -> JsonValue {
    JsonValue::UInt(d.as_ps())
}

fn dur_from(v: &JsonValue) -> Result<Duration, JsonError> {
    Ok(Duration::from_ps(v.as_u64()?))
}

fn topology_to_json(t: &TopologyChoice) -> JsonValue {
    match *t {
        TopologyChoice::Corpus { ref path, host_bw } => obj(vec![
            ("kind", JsonValue::Str("Corpus".into())),
            ("path", JsonValue::Str(path.clone())),
            ("host_bw_bps", bw_json(host_bw)),
        ]),
        TopologyChoice::Star {
            hosts,
            host_bw,
            link_delay,
        } => obj(vec![
            ("kind", JsonValue::Str("Star".into())),
            ("hosts", JsonValue::UInt(hosts as u64)),
            ("host_bw_bps", bw_json(host_bw)),
            ("link_delay_ps", dur_json(link_delay)),
        ]),
        TopologyChoice::Dumbbell {
            left,
            right,
            host_bw,
            core_bw,
            link_delay,
        } => obj(vec![
            ("kind", JsonValue::Str("Dumbbell".into())),
            ("left", JsonValue::UInt(left as u64)),
            ("right", JsonValue::UInt(right as u64)),
            ("host_bw_bps", bw_json(host_bw)),
            ("core_bw_bps", bw_json(core_bw)),
            ("link_delay_ps", dur_json(link_delay)),
        ]),
        TopologyChoice::TestbedPod { link_delay } => obj(vec![
            ("kind", JsonValue::Str("TestbedPod".into())),
            ("link_delay_ps", dur_json(link_delay)),
        ]),
        TopologyChoice::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
            host_bw,
            fabric_bw,
            link_delay,
        } => obj(vec![
            ("kind", JsonValue::Str("LeafSpine".into())),
            ("leaves", JsonValue::UInt(leaves as u64)),
            ("spines", JsonValue::UInt(spines as u64)),
            ("hosts_per_leaf", JsonValue::UInt(hosts_per_leaf as u64)),
            ("host_bw_bps", bw_json(host_bw)),
            ("fabric_bw_bps", bw_json(fabric_bw)),
            ("link_delay_ps", dur_json(link_delay)),
        ]),
        TopologyChoice::FatTree(p) => obj(vec![
            ("kind", JsonValue::Str("FatTree".into())),
            ("pods", JsonValue::UInt(p.pods as u64)),
            ("tors_per_pod", JsonValue::UInt(p.tors_per_pod as u64)),
            ("aggs_per_pod", JsonValue::UInt(p.aggs_per_pod as u64)),
            ("cores", JsonValue::UInt(p.cores as u64)),
            ("hosts_per_tor", JsonValue::UInt(p.hosts_per_tor as u64)),
            ("host_bw_bps", bw_json(p.host_bw)),
            ("fabric_bw_bps", bw_json(p.fabric_bw)),
            ("link_delay_ps", dur_json(p.link_delay)),
        ]),
    }
}

fn topology_from_json(v: &JsonValue) -> Result<TopologyChoice, JsonError> {
    match v.require("kind")?.as_str()? {
        "Star" => Ok(TopologyChoice::Star {
            hosts: v.require("hosts")?.as_usize()?,
            host_bw: bw_from(v.require("host_bw_bps")?)?,
            link_delay: dur_from(v.require("link_delay_ps")?)?,
        }),
        "Dumbbell" => Ok(TopologyChoice::Dumbbell {
            left: v.require("left")?.as_usize()?,
            right: v.require("right")?.as_usize()?,
            host_bw: bw_from(v.require("host_bw_bps")?)?,
            core_bw: bw_from(v.require("core_bw_bps")?)?,
            link_delay: dur_from(v.require("link_delay_ps")?)?,
        }),
        "TestbedPod" => Ok(TopologyChoice::TestbedPod {
            link_delay: dur_from(v.require("link_delay_ps")?)?,
        }),
        "LeafSpine" => Ok(TopologyChoice::LeafSpine {
            leaves: v.require("leaves")?.as_usize()?,
            spines: v.require("spines")?.as_usize()?,
            hosts_per_leaf: v.require("hosts_per_leaf")?.as_usize()?,
            host_bw: bw_from(v.require("host_bw_bps")?)?,
            fabric_bw: bw_from(v.require("fabric_bw_bps")?)?,
            link_delay: dur_from(v.require("link_delay_ps")?)?,
        }),
        "FatTree" => Ok(TopologyChoice::FatTree(FatTreeParams {
            pods: v.require("pods")?.as_usize()?,
            tors_per_pod: v.require("tors_per_pod")?.as_usize()?,
            aggs_per_pod: v.require("aggs_per_pod")?.as_usize()?,
            cores: v.require("cores")?.as_usize()?,
            hosts_per_tor: v.require("hosts_per_tor")?.as_usize()?,
            host_bw: bw_from(v.require("host_bw_bps")?)?,
            fabric_bw: bw_from(v.require("fabric_bw_bps")?)?,
            link_delay: dur_from(v.require("link_delay_ps")?)?,
        })),
        "Corpus" => Ok(TopologyChoice::Corpus {
            path: v.require("path")?.as_str()?.to_string(),
            host_bw: bw_from(v.require("host_bw_bps")?)?,
        }),
        other => Err(JsonError(format!("unknown topology kind {other:?}"))),
    }
}

fn cc_to_json(cc: &CcSpec) -> JsonValue {
    match cc {
        CcSpec::Label(label) => obj(vec![
            ("kind", JsonValue::Str("Label".into())),
            ("label", JsonValue::Str(label.clone())),
        ]),
        CcSpec::Hpcc(cfg) => obj(vec![
            ("kind", JsonValue::Str("Hpcc".into())),
            ("eta", JsonValue::Float(cfg.eta)),
            ("max_stage", JsonValue::UInt(cfg.max_stage as u64)),
            ("wai", JsonValue::UInt(cfg.wai)),
            (
                "mode",
                JsonValue::Str(
                    match cfg.mode {
                        HpccReactionMode::Combined => "Combined",
                        HpccReactionMode::PerAck => "PerAck",
                        HpccReactionMode::PerRtt => "PerRtt",
                    }
                    .into(),
                ),
            ),
            ("use_rx_rate", JsonValue::Bool(cfg.use_rx_rate)),
            ("min_rate_bps", bw_json(cfg.min_rate)),
        ]),
        CcSpec::DcqcnTimers { ti, td } => obj(vec![
            ("kind", JsonValue::Str("DcqcnTimers".into())),
            ("ti_ps", dur_json(*ti)),
            ("td_ps", dur_json(*td)),
        ]),
        CcSpec::Timely {
            window,
            t_low,
            t_high,
            beta,
            hai_threshold,
        } => obj(vec![
            ("kind", JsonValue::Str("Timely".into())),
            ("window", JsonValue::Bool(*window)),
            ("t_low_ps", dur_json(*t_low)),
            ("t_high_ps", dur_json(*t_high)),
            ("beta", JsonValue::Float(*beta)),
            ("hai_threshold", JsonValue::UInt(*hai_threshold as u64)),
        ]),
        CcSpec::Dctcp { g } => obj(vec![
            ("kind", JsonValue::Str("Dctcp".into())),
            ("g", JsonValue::Float(*g)),
        ]),
    }
}

fn cc_from_json(v: &JsonValue) -> Result<CcSpec, JsonError> {
    match v.require("kind")?.as_str()? {
        "Label" => Ok(CcSpec::Label(v.require("label")?.as_str()?.to_string())),
        "Hpcc" => Ok(CcSpec::Hpcc(HpccConfig {
            eta: v.require("eta")?.as_f64()?,
            max_stage: narrow(v.require("max_stage")?, "max_stage")?,
            wai: v.require("wai")?.as_u64()?,
            mode: match v.require("mode")?.as_str()? {
                "Combined" => HpccReactionMode::Combined,
                "PerAck" => HpccReactionMode::PerAck,
                "PerRtt" => HpccReactionMode::PerRtt,
                other => return Err(JsonError(format!("unknown HPCC mode {other:?}"))),
            },
            use_rx_rate: v.require("use_rx_rate")?.as_bool()?,
            min_rate: bw_from(v.require("min_rate_bps")?)?,
        })),
        "DcqcnTimers" => Ok(CcSpec::DcqcnTimers {
            ti: dur_from(v.require("ti_ps")?)?,
            td: dur_from(v.require("td_ps")?)?,
        }),
        "Timely" => Ok(CcSpec::Timely {
            window: v.require("window")?.as_bool()?,
            t_low: dur_from(v.require("t_low_ps")?)?,
            t_high: dur_from(v.require("t_high_ps")?)?,
            beta: v.require("beta")?.as_f64()?,
            hai_threshold: narrow(v.require("hai_threshold")?, "hai_threshold")?,
        }),
        "Dctcp" => Ok(CcSpec::Dctcp {
            g: v.require("g")?.as_f64()?,
        }),
        other => Err(JsonError(format!("unknown cc kind {other:?}"))),
    }
}

fn cdf_to_json(cdf: &CdfSpec) -> JsonValue {
    match cdf {
        CdfSpec::WebSearch => JsonValue::Str("WebSearch".into()),
        CdfSpec::FbHadoop => JsonValue::Str("FB_Hadoop".into()),
        CdfSpec::Fixed(size) => obj(vec![("fixed", JsonValue::UInt(*size))]),
        CdfSpec::Custom(points) => obj(vec![(
            "custom",
            JsonValue::Array(
                points
                    .iter()
                    .map(|(size, p)| {
                        JsonValue::Array(vec![JsonValue::UInt(*size), JsonValue::Float(*p)])
                    })
                    .collect(),
            ),
        )]),
    }
}

fn cdf_from_json(v: &JsonValue) -> Result<CdfSpec, JsonError> {
    if let Ok(name) = v.as_str() {
        return match name {
            "WebSearch" => Ok(CdfSpec::WebSearch),
            "FB_Hadoop" => Ok(CdfSpec::FbHadoop),
            other => Err(JsonError(format!("unknown cdf {other:?}"))),
        };
    }
    if let Some(size) = v.get("fixed") {
        return Ok(CdfSpec::Fixed(size.as_u64()?));
    }
    if let Some(points) = v.get("custom") {
        let mut out = Vec::new();
        for p in points.as_array()? {
            let pair = p.as_array()?;
            if pair.len() != 2 {
                return Err(JsonError("cdf point must be [size, prob]".into()));
            }
            out.push((pair[0].as_u64()?, pair[1].as_f64()?));
        }
        return Ok(CdfSpec::Custom(out));
    }
    Err(JsonError("unrecognized cdf spec".into()))
}

fn pair_to_json(p: &PairSpec) -> JsonValue {
    // `PairSpec::name` is the single source of the kind tags, shared with
    // display code; `pair_from_json` matches the same strings.
    let kind = ("kind", JsonValue::Str(p.name().into()));
    match p {
        PairSpec::Uniform => obj(vec![kind]),
        PairSpec::Locality(LocalitySpec::IntraRack { fraction }) => {
            obj(vec![kind, ("fraction", JsonValue::Float(*fraction))])
        }
        PairSpec::Locality(LocalitySpec::Matrix { rows }) => obj(vec![
            kind,
            (
                "rows",
                JsonValue::Array(
                    rows.iter()
                        .map(|row| {
                            JsonValue::Array(row.iter().map(|p| JsonValue::Float(*p)).collect())
                        })
                        .collect(),
                ),
            ),
        ]),
        PairSpec::Skew(s) => obj(vec![kind, ("exponent", JsonValue::Float(s.exponent))]),
    }
}

fn pair_from_json(v: &JsonValue) -> Result<PairSpec, JsonError> {
    match v.require("kind")?.as_str()? {
        "Uniform" => Ok(PairSpec::Uniform),
        "IntraRack" => Ok(PairSpec::Locality(LocalitySpec::IntraRack {
            fraction: v.require("fraction")?.as_f64()?,
        })),
        "Matrix" => {
            let mut rows = Vec::new();
            for row in v.require("rows")?.as_array()? {
                let mut out = Vec::new();
                for p in row.as_array()? {
                    out.push(p.as_f64()?);
                }
                rows.push(out);
            }
            Ok(PairSpec::Locality(LocalitySpec::Matrix { rows }))
        }
        "Skew" => Ok(PairSpec::Skew(SkewSpec::new(
            v.require("exponent")?.as_f64()?,
        ))),
        other => Err(JsonError(format!("unknown pair kind {other:?}"))),
    }
}

/// A trace record as the compact array `[start_ps, src, dst, bytes, prio]`
/// (exact picosecond integers; `prio` is the [`hpcc_types::FlowPriority`]
/// wire code: 0 = normal, 1 = latency-sensitive, 2+c = data class c).
fn trace_record_to_json(r: &TraceRecord) -> JsonValue {
    JsonValue::Array(vec![
        JsonValue::UInt(r.start.as_ps()),
        JsonValue::UInt(r.src as u64),
        JsonValue::UInt(r.dst as u64),
        JsonValue::UInt(r.bytes),
        JsonValue::UInt(r.prio.wire_code() as u64),
    ])
}

fn trace_record_from_json(v: &JsonValue) -> Result<TraceRecord, JsonError> {
    let parts = v.as_array()?;
    if parts.len() != 5 {
        return Err(JsonError(
            "trace record must be [start_ps, src, dst, bytes, prio]".into(),
        ));
    }
    let mut r = TraceRecord::new(
        Duration::from_ps(parts[0].as_u64()?),
        parts[1].as_usize()?,
        parts[2].as_usize()?,
        parts[3].as_u64()?,
    );
    let code = parts[4].as_u64()?;
    if code > 1 + hpcc_types::Priority::MAX_DATA_CLASSES as u64 {
        return Err(JsonError(format!("unknown trace priority {code}")));
    }
    r.prio = hpcc_types::FlowPriority::from_wire_code(code as u8);
    Ok(r)
}

/// Serialize a [`PrioritySpec`]; the default is canonical-omitted by the
/// caller, so this only sees non-default stages.
fn prio_spec_to_json(p: &PrioritySpec) -> JsonValue {
    match p {
        PrioritySpec::Normal => obj(vec![("kind", JsonValue::Str("Normal".into()))]),
        PrioritySpec::Uniform(fp) => obj(vec![
            ("kind", JsonValue::Str("Uniform".into())),
            ("prio", JsonValue::UInt(fp.wire_code() as u64)),
        ]),
        PrioritySpec::ShortFlows { threshold } => obj(vec![
            ("kind", JsonValue::Str("ShortFlows".into())),
            ("threshold", JsonValue::UInt(*threshold)),
        ]),
    }
}

fn prio_spec_from_json(v: &JsonValue) -> Result<PrioritySpec, JsonError> {
    match v.require("kind")?.as_str()? {
        "Normal" => Ok(PrioritySpec::Normal),
        "Uniform" => {
            let code = v.require("prio")?.as_u64()?;
            if code > 1 + hpcc_types::Priority::MAX_DATA_CLASSES as u64 {
                return Err(JsonError(format!("unknown priority code {code}")));
            }
            Ok(PrioritySpec::Uniform(
                hpcc_types::FlowPriority::from_wire_code(code as u8),
            ))
        }
        "ShortFlows" => Ok(PrioritySpec::ShortFlows {
            threshold: v.require("threshold")?.as_u64()?,
        }),
        other => Err(JsonError(format!("unknown priority kind {other:?}"))),
    }
}

fn workload_to_json(w: &WorkloadSpec) -> JsonValue {
    match w {
        WorkloadSpec::Poisson {
            cdf,
            load,
            first_flow_id,
            pairs,
            prio,
        } => {
            let mut fields = vec![
                ("kind", JsonValue::Str("Poisson".into())),
                ("cdf", cdf_to_json(cdf)),
                ("load", JsonValue::Float(*load)),
                ("first_flow_id", JsonValue::UInt(*first_flow_id)),
            ];
            // Uniform pairs and normal priorities are the defaults and are
            // omitted, so pre-existing manifests and their canonical
            // renderings stay byte-stable.
            if *pairs != PairSpec::Uniform {
                fields.push(("pairs", pair_to_json(pairs)));
            }
            if !prio.is_default() {
                fields.push(("prio", prio_spec_to_json(prio)));
            }
            obj(fields)
        }
        WorkloadSpec::Incast {
            fan_in,
            flow_size,
            capacity_fraction,
            first_flow_id,
        } => obj(vec![
            ("kind", JsonValue::Str("Incast".into())),
            ("fan_in", JsonValue::UInt(*fan_in as u64)),
            ("flow_size", JsonValue::UInt(*flow_size)),
            ("capacity_fraction", JsonValue::Float(*capacity_fraction)),
            ("first_flow_id", JsonValue::UInt(*first_flow_id)),
        ]),
        WorkloadSpec::Explicit(decls) => obj(vec![
            ("kind", JsonValue::Str("Explicit".into())),
            (
                "flows",
                JsonValue::Array(
                    decls
                        .iter()
                        .map(|d| {
                            obj(vec![
                                ("id", JsonValue::UInt(d.id)),
                                ("src_host", JsonValue::UInt(d.src_host as u64)),
                                ("dst_host", JsonValue::UInt(d.dst_host as u64)),
                                ("size", JsonValue::UInt(d.size)),
                                ("start_ps", dur_json(d.start)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        WorkloadSpec::Trace {
            trace,
            first_flow_id,
        } => {
            let mut fields = vec![
                ("kind", JsonValue::Str("Trace".into())),
                ("first_flow_id", JsonValue::UInt(*first_flow_id)),
            ];
            match trace {
                TraceSpec::Path(path) => fields.push(("path", JsonValue::Str(path.clone()))),
                TraceSpec::Inline(records) => fields.push((
                    "records",
                    JsonValue::Array(records.iter().map(trace_record_to_json).collect()),
                )),
            }
            obj(fields)
        }
    }
}

fn workload_from_json(v: &JsonValue) -> Result<WorkloadSpec, JsonError> {
    match v.require("kind")?.as_str()? {
        "Poisson" => Ok(WorkloadSpec::Poisson {
            cdf: cdf_from_json(v.require("cdf")?)?,
            load: v.require("load")?.as_f64()?,
            first_flow_id: v.require("first_flow_id")?.as_u64()?,
            pairs: match v.get("pairs") {
                Some(p) => pair_from_json(p)?,
                None => PairSpec::Uniform,
            },
            prio: match v.get("prio") {
                Some(p) => prio_spec_from_json(p)?,
                None => PrioritySpec::default(),
            },
        }),
        "Incast" => Ok(WorkloadSpec::Incast {
            fan_in: v.require("fan_in")?.as_usize()?,
            flow_size: v.require("flow_size")?.as_u64()?,
            capacity_fraction: v.require("capacity_fraction")?.as_f64()?,
            first_flow_id: v.require("first_flow_id")?.as_u64()?,
        }),
        "Explicit" => {
            let mut decls = Vec::new();
            for d in v.require("flows")?.as_array()? {
                decls.push(FlowDecl::new(
                    d.require("id")?.as_u64()?,
                    d.require("src_host")?.as_usize()?,
                    d.require("dst_host")?.as_usize()?,
                    d.require("size")?.as_u64()?,
                    dur_from(d.require("start_ps")?)?,
                ));
            }
            Ok(WorkloadSpec::Explicit(decls))
        }
        "Trace" => {
            let first_flow_id = v.require("first_flow_id")?.as_u64()?;
            let trace = match (v.get("path"), v.get("records")) {
                (Some(path), None) => TraceSpec::Path(path.as_str()?.to_string()),
                (None, Some(records)) => {
                    let mut out = Vec::new();
                    for r in records.as_array()? {
                        out.push(trace_record_from_json(r)?);
                    }
                    TraceSpec::Inline(out)
                }
                _ => {
                    return Err(JsonError(
                        "trace workload needs exactly one of \"path\" or \"records\"".into(),
                    ))
                }
            };
            Ok(WorkloadSpec::Trace {
                trace,
                first_flow_id,
            })
        }
        other => Err(JsonError(format!("unknown workload kind {other:?}"))),
    }
}

fn queueing_to_json(q: &QueueingSpec) -> JsonValue {
    let mut fields = match &q.scheduler {
        SchedulerSpec::StrictPriority { classes } => vec![
            ("kind", JsonValue::Str("SP".into())),
            ("classes", JsonValue::UInt(*classes as u64)),
        ],
        SchedulerSpec::Dwrr { weights } => vec![
            ("kind", JsonValue::Str("DWRR".into())),
            (
                "weights",
                JsonValue::Array(weights.iter().map(|&w| JsonValue::UInt(w as u64)).collect()),
            ),
        ],
        SchedulerSpec::Pias { thresholds } => vec![
            ("kind", JsonValue::Str("PIAS".into())),
            (
                "thresholds",
                JsonValue::Array(thresholds.iter().map(|&t| JsonValue::UInt(t)).collect()),
            ),
        ],
    };
    if !q.ecn_scale.is_empty() {
        fields.push((
            "ecn_scale",
            JsonValue::Array(q.ecn_scale.iter().map(|&s| JsonValue::Float(s)).collect()),
        ));
    }
    obj(fields)
}

fn queueing_from_json(v: &JsonValue) -> Result<QueueingSpec, JsonError> {
    let scheduler = match v.require("kind")?.as_str()? {
        "SP" => SchedulerSpec::StrictPriority {
            classes: narrow(v.require("classes")?, "queueing classes")?,
        },
        "DWRR" => {
            let mut weights = Vec::new();
            for w in v.require("weights")?.as_array()? {
                weights.push(narrow(w, "DWRR weight")?);
            }
            SchedulerSpec::Dwrr { weights }
        }
        "PIAS" => {
            let mut thresholds = Vec::new();
            for t in v.require("thresholds")?.as_array()? {
                thresholds.push(t.as_u64()?);
            }
            SchedulerSpec::Pias { thresholds }
        }
        other => return Err(JsonError(format!("unknown queueing kind {other:?}"))),
    };
    let mut ecn_scale = Vec::new();
    if let Some(scale) = v.get("ecn_scale") {
        for s in scale.as_array()? {
            ecn_scale.push(s.as_f64()?);
        }
    }
    Ok(QueueingSpec {
        scheduler,
        ecn_scale,
    })
}

fn faults_to_json(f: &FaultSpec) -> JsonValue {
    let mut fields = Vec::new();
    if !f.link_faults.is_empty() {
        fields.push((
            "links",
            JsonValue::Array(
                f.link_faults
                    .iter()
                    .map(|f| {
                        obj(vec![
                            ("link", JsonValue::UInt(f.link as u64)),
                            ("at_ps", dur_json(f.at)),
                            ("down_for_ps", dur_json(f.down_for)),
                            ("flaps", JsonValue::UInt(f.flaps as u64)),
                            ("period_ps", dur_json(f.period)),
                            ("mode", JsonValue::Str(f.mode.label().into())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !f.degraded_links.is_empty() {
        fields.push((
            "degraded",
            JsonValue::Array(
                f.degraded_links
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("link", JsonValue::UInt(d.link as u64)),
                            ("from_ps", dur_json(d.from)),
                            ("until_ps", dur_json(d.until)),
                            ("extra_delay_ps", dur_json(d.extra_delay)),
                            ("loss", JsonValue::Float(d.loss)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !f.stragglers.is_empty() {
        fields.push((
            "stragglers",
            JsonValue::Array(
                f.stragglers
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("host", JsonValue::UInt(s.host as u64)),
                            ("from_ps", dur_json(s.from)),
                            ("until_ps", dur_json(s.until)),
                            ("rate_factor", JsonValue::Float(s.rate_factor)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

fn faults_from_json(v: &JsonValue) -> Result<FaultSpec, JsonError> {
    let mut spec = FaultSpec::new();
    if let Some(links) = v.get("links") {
        for f in links.as_array()? {
            spec.link_faults.push(LinkFault {
                link: f.require("link")?.as_usize()?,
                at: dur_from(f.require("at_ps")?)?,
                down_for: dur_from(f.require("down_for_ps")?)?,
                flaps: narrow(f.require("flaps")?, "flap count")?,
                period: dur_from(f.require("period_ps")?)?,
                mode: match f.require("mode")?.as_str()? {
                    "Drop" => LinkDownMode::Drop,
                    "Pause" => LinkDownMode::Pause,
                    other => {
                        return Err(JsonError(format!("unknown link-down mode {other:?}")));
                    }
                },
            });
        }
    }
    if let Some(degraded) = v.get("degraded") {
        for d in degraded.as_array()? {
            spec.degraded_links.push(DegradedLink {
                link: d.require("link")?.as_usize()?,
                from: dur_from(d.require("from_ps")?)?,
                until: dur_from(d.require("until_ps")?)?,
                extra_delay: dur_from(d.require("extra_delay_ps")?)?,
                loss: d.require("loss")?.as_f64()?,
            });
        }
    }
    if let Some(stragglers) = v.get("stragglers") {
        for s in stragglers.as_array()? {
            spec.stragglers.push(StragglerHost {
                host: s.require("host")?.as_usize()?,
                from: dur_from(s.require("from_ps")?)?,
                until: dur_from(s.require("until_ps")?)?,
                rate_factor: s.require("rate_factor")?.as_f64()?,
            });
        }
    }
    Ok(spec)
}

fn trace_to_json(t: &MeasurementSpec) -> JsonValue {
    let mut pairs = Vec::new();
    if let Some(d) = t.queue_sample_interval {
        pairs.push(("queue_sample_interval_ps", dur_json(d)));
    }
    if let Some(h) = t.bottleneck_host {
        pairs.push(("bottleneck_host", JsonValue::UInt(h as u64)));
    }
    if let Some(d) = t.trace_interval {
        pairs.push(("trace_interval_ps", dur_json(d)));
    }
    if let Some(d) = t.goodput_bin {
        pairs.push(("goodput_bin_ps", dur_json(d)));
    }
    obj(pairs)
}

fn trace_from_json(v: &JsonValue) -> Result<MeasurementSpec, JsonError> {
    let mut t = MeasurementSpec::default();
    if let Some(d) = v.get("queue_sample_interval_ps") {
        t.queue_sample_interval = Some(dur_from(d)?);
    }
    if let Some(h) = v.get("bottleneck_host") {
        t.bottleneck_host = Some(h.as_usize()?);
    }
    if let Some(d) = v.get("trace_interval_ps") {
        t.trace_interval = Some(dur_from(d)?);
    }
    if let Some(d) = v.get("goodput_bin_ps") {
        t.goodput_bin = Some(dur_from(d)?);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> ScenarioSpec {
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
        .with_goodput_bin(Duration::from_us(50))
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let specs = vec![
            rich_spec(),
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
            )),
        ];
        for spec in specs {
            let text = spec.to_json_string();
            let back = ScenarioSpec::from_json_str(&text).unwrap_or_else(|e| {
                panic!("{e} while parsing {text}");
            });
            assert_eq!(back, spec, "round trip changed {text}");
        }
    }

    #[test]
    fn integers_wider_than_their_field_are_decode_errors_not_truncations() {
        // `"max_stage": 4294967301` (2^32 + 5) used to run, and re-encode, as 5.
        let hpcc = ScenarioSpec::new(
            "wide",
            TopologyChoice::star(3, Bandwidth::from_gbps(100)),
            CcSpec::Hpcc(HpccConfig::default()),
            Duration::from_ms(1),
        )
        .with_queueing(QueueingSpec::dwrr(vec![2, 1]));
        let text = hpcc.to_json_string();
        for (member, wide, what) in [
            ("\"max_stage\":5", "\"max_stage\":4294967301", "max_stage"),
            ("[2,1]", "[4294967301,1]", "DWRR weight"),
        ] {
            assert!(text.contains(member), "{member} not in {text}");
            let wide = text.replace(member, wide);
            let err = ScenarioSpec::from_json_str(&wide).expect_err("must not truncate");
            let expect = format!("{what} 4294967301 out of range");
            assert!(err.to_string().contains(&expect), "{err}");
        }
    }

    #[test]
    fn pair_and_trace_workloads_round_trip_through_json() {
        let spec = ScenarioSpec::new(
            "locality+skew+trace",
            TopologyChoice::FatTree(FatTreeParams::small()),
            CcSpec::by_label("HPCC"),
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
                prio: hpcc_types::FlowPriority::LatencySensitive,
            },
        ]));
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{e} while parsing {text}"));
        assert_eq!(back, spec, "round trip changed {text}");
        // Uniform pairs are canonical-omitted: the key only appears for the
        // non-default samplers.
        let uniform = rich_spec().to_json_string();
        assert!(!uniform.contains("\"pairs\""), "{uniform}");
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
        assert_eq!(ok.try_build().unwrap().config().queueing.data_classes, 2);
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
