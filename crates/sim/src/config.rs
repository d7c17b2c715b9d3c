//! Simulation configuration: everything about host and switch behaviour that
//! is not part of the topology or the workload.

use hpcc_cc::CcAlgorithm;
use hpcc_topology::TopologySpec;
use hpcc_types::{Bandwidth, Duration, FlowPriority, NodeId, PortId, Priority, SimTime};

/// How losses are prevented or recovered (§5.3, Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlowControlMode {
    /// Lossless fabric: PFC enabled, go-back-N as the (rarely exercised)
    /// recovery mechanism. This is the paper's default deployment model.
    #[default]
    Lossless,
    /// Lossy fabric: no PFC, switches drop on buffer pressure, go-back-N
    /// retransmission from the first lost byte.
    LossyGoBackN,
    /// Lossy fabric with IRN-style selective retransmission: the receiver
    /// keeps out-of-order data and NACKs only the missing range.
    LossyIrn,
}

impl FlowControlMode {
    /// Whether switches generate PFC pause frames.
    pub fn pfc_enabled(self) -> bool {
        matches!(self, FlowControlMode::Lossless)
    }
    /// Whether the receiver keeps out-of-order data (selective repeat).
    pub fn selective_repeat(self) -> bool {
        matches!(self, FlowControlMode::LossyIrn)
    }
    /// Whether switches may drop data packets under buffer pressure.
    pub fn lossy(self) -> bool {
        !self.pfc_enabled()
    }
    /// Display label used in figures ("PFC", "GBN", "IRN").
    pub fn label(self) -> &'static str {
        match self {
            FlowControlMode::Lossless => "PFC",
            FlowControlMode::LossyGoBackN => "GBN",
            FlowControlMode::LossyIrn => "IRN",
        }
    }
}

/// WRED/ECN marking thresholds of the switch egress queues (the `Kmin`,
/// `Kmax`, `Pmax` of DCQCN / DCTCP; Figure 3 sweeps these).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EcnConfig {
    /// Queue length below which nothing is marked.
    pub kmin_bytes: u64,
    /// Queue length above which every packet is marked.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax`.
    pub pmax: f64,
}

impl EcnConfig {
    /// The DCQCN setting used in §5.1, scaled with the line rate:
    /// `Kmin = 100 KB × B/25G`, `Kmax = 400 KB × B/25G`, `Pmax = 0.2`.
    pub fn dcqcn_default(line_rate: Bandwidth) -> Self {
        let scale = line_rate.as_bps() as f64 / 25e9;
        EcnConfig {
            kmin_bytes: (100_000.0 * scale) as u64,
            kmax_bytes: (400_000.0 * scale) as u64,
            pmax: 0.2,
        }
    }

    /// The DCTCP setting used in §5.1: `Kmin = Kmax = 30 KB × B/10G`
    /// (step marking).
    pub fn dctcp_default(line_rate: Bandwidth) -> Self {
        let scale = line_rate.as_bps() as f64 / 10e9;
        EcnConfig {
            kmin_bytes: (30_000.0 * scale) as u64,
            kmax_bytes: (30_000.0 * scale) as u64,
            pmax: 1.0,
        }
    }

    /// An explicit threshold pair in kilobytes (Figure 3 sweeps).
    pub fn thresholds_kb(kmin_kb: u64, kmax_kb: u64) -> Self {
        EcnConfig {
            kmin_bytes: kmin_kb * 1000,
            kmax_bytes: kmax_kb * 1000,
            pmax: 0.2,
        }
    }
}

/// The egress scheduling discipline of every switch, and with it the number
/// of data classes: explicit for strict priority, the weight count for DWRR,
/// one more than the threshold count for PIAS. The control class is outside
/// the scheduler: it is always served first (the paper's never-pause,
/// never-drop invariant for ACK/NACK/CNP).
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerSpec {
    /// Strict priority over `classes` data classes: the lowest-numbered
    /// non-empty, non-paused class always transmits. One class is the
    /// paper's FIFO and the default.
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
    /// PIAS-style dynamic demotion: senders tag each data packet by the
    /// bytes its flow has already sent — a packet starting at byte `seq`
    /// travels in class `#{t : t <= seq}`, so new flows start in the top
    /// class and are demoted as they grow, approximating shortest-job-first
    /// without size information — and switches serve the classes in strict
    /// priority.
    Pias {
        /// Strictly increasing bytes-sent demotion thresholds; the class
        /// count is `thresholds.len() + 1`.
        thresholds: Vec<u64>,
    },
}

/// Multi-class queueing of every switch egress (and of the host-side packet
/// tagging that feeds it). Scenario specs name it `QueueingSpec` (JSON key
/// `"queueing"`) and hand it to the engine as it is.
///
/// The default — one data class under strict priority, no per-class ECN
/// scaling — reproduces the paper's two-class deployment bit for bit, and so
/// does every other one-class discipline.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueingConfig {
    /// The egress scheduling discipline (and implied class count).
    pub scheduler: SchedulerSpec,
    /// Per-class multipliers applied to the base ECN thresholds
    /// (`kmin`/`kmax`), one per data class. Empty = all classes use the base
    /// thresholds unchanged.
    pub ecn_scale: Vec<f64>,
}

impl Default for QueueingConfig {
    fn default() -> Self {
        QueueingConfig::legacy()
    }
}

impl QueueingConfig {
    /// The paper's deployment: a single data class under strict priority.
    pub fn legacy() -> Self {
        QueueingConfig::strict_priority(1)
    }

    /// Strict priority over `classes` data classes.
    pub fn strict_priority(classes: u8) -> Self {
        QueueingConfig {
            scheduler: SchedulerSpec::StrictPriority { classes },
            ecn_scale: Vec::new(),
        }
    }

    /// DWRR with the given per-class weights.
    pub fn dwrr(weights: Vec<u32>) -> Self {
        QueueingConfig {
            scheduler: SchedulerSpec::Dwrr { weights },
            ecn_scale: Vec::new(),
        }
    }

    /// PIAS with the given bytes-sent demotion thresholds.
    pub fn pias(thresholds: Vec<u64>) -> Self {
        QueueingConfig {
            scheduler: SchedulerSpec::Pias { thresholds },
            ecn_scale: Vec::new(),
        }
    }

    /// Attach per-class ECN threshold scaling.
    pub fn with_ecn_scale(mut self, scale: Vec<f64>) -> Self {
        self.ecn_scale = scale;
        self
    }

    /// The number of data classes the discipline configures.
    #[inline]
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
        let kind = match self.scheduler {
            SchedulerSpec::StrictPriority { .. } => "SP",
            SchedulerSpec::Dwrr { .. } => "DWRR",
            SchedulerSpec::Pias { .. } => "PIAS",
        };
        format!("{kind}-{}", self.classes())
    }

    /// True when this configuration is behaviourally the legacy single-class
    /// path.
    pub fn is_legacy(&self) -> bool {
        self.classes() == 1
    }

    /// The data class a sender stamps on the packet of `prio`'s flow whose
    /// first payload byte is `seq`: PIAS bytes-sent demotion under
    /// [`SchedulerSpec::Pias`], the static [`FlowPriority::initial_class`]
    /// mapping otherwise.
    #[inline]
    pub fn tag_class(&self, prio: FlowPriority, seq: u64) -> u8 {
        match &self.scheduler {
            SchedulerSpec::Pias { thresholds } => {
                thresholds.iter().take_while(|&&t| seq >= t).count() as u8
            }
            _ => prio.initial_class(self.classes() as u8),
        }
    }

    /// The ECN thresholds of one data class: the base config scaled by this
    /// class's `ecn_scale` entry (identity when no scaling is configured).
    #[inline]
    pub fn class_ecn(&self, base: &EcnConfig, class: u8) -> EcnConfig {
        match self.ecn_scale.get(class as usize) {
            None => *base,
            Some(&s) => EcnConfig {
                kmin_bytes: (base.kmin_bytes as f64 * s) as u64,
                kmax_bytes: (base.kmax_bytes as f64 * s) as u64,
                pmax: base.pmax,
            },
        }
    }

    /// Check what the type cannot express: the class count, DWRR weights,
    /// PIAS threshold order and the `ecn_scale` shape; returns a
    /// human-readable reason on failure. Scenario resolution calls this so
    /// malformed manifests surface as typed errors, never as panics in the
    /// hot path.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.classes();
        if n == 0 || n > Priority::MAX_DATA_CLASSES {
            return Err(format!(
                "data_classes must be in 1..={}, got {n}",
                Priority::MAX_DATA_CLASSES
            ));
        }
        match &self.scheduler {
            SchedulerSpec::Dwrr { weights } if weights.contains(&0) => {
                return Err("DWRR weights must be >= 1".into());
            }
            SchedulerSpec::Pias { thresholds } if !thresholds.windows(2).all(|w| w[0] < w[1]) => {
                return Err("PIAS thresholds must be strictly increasing".into());
            }
            _ => {}
        }
        if !self.ecn_scale.is_empty() {
            if self.ecn_scale.len() != n {
                return Err(format!(
                    "ecn_scale has {} entries for {n} data classes",
                    self.ecn_scale.len()
                ));
            }
            if self.ecn_scale.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                return Err("ecn_scale entries must be positive and finite".into());
            }
        }
        Ok(())
    }
}

/// What a run measures besides its flow records and port counters.
/// Scenario specs carry it as their `"trace"` member and hand it to the
/// engine as it is (the JSON key predates the name: this is about sampling
/// queues and goodput, not about flow traces).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeasurementSpec {
    /// If set, all switch data queues are sampled into a histogram at this
    /// period (the queue-length CDFs of Figures 9/10).
    pub queue_sample_interval: Option<Duration>,
    /// If set, the first switch's egress queue towards this host index — the
    /// bottleneck port of the star micro-benchmarks — is traced as a time
    /// series (Figures 6, 13, 14); see [`MeasurementSpec::traced_port`].
    pub bottleneck_host: Option<usize>,
    /// Sampling period of the traced port ([`MeasurementSpec::trace_period`]
    /// when omitted).
    pub trace_interval: Option<Duration>,
    /// If set, per-flow goodput is accumulated into bins of this width
    /// (Figures 9a–9d, 13a, 14a).
    pub goodput_bin: Option<Duration>,
    /// The flow-size buckets slowdowns are reported in. `None` ⇒ the set the
    /// scenario's workloads imply; the engine does not read it.
    pub slowdown_buckets: Option<SlowdownBuckets>,
}

/// A flow-size bucket set of the paper's slowdown figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowdownBuckets {
    /// The WebSearch buckets of Figures 2, 3 and 10.
    WebSearch,
    /// The FB_Hadoop buckets of Figures 11 and 12.
    FbHadoop,
}

impl SlowdownBuckets {
    /// The wire label, the name of the workload CDF the set was drawn for.
    pub fn label(self) -> &'static str {
        match self {
            SlowdownBuckets::WebSearch => "WebSearch",
            SlowdownBuckets::FbHadoop => "FB_Hadoop",
        }
    }
}

impl MeasurementSpec {
    /// The traced egress port: the first switch's next hop towards
    /// `bottleneck_host`. `None` when no port is traced or `topo` has no
    /// such egress.
    pub fn traced_port(&self, topo: &TopologySpec) -> Option<(NodeId, PortId)> {
        let host = *topo.hosts().get(self.bottleneck_host?)?;
        let sw = *topo.switches().first()?;
        Some((sw, *topo.next_hops(sw, host).first()?))
    }

    /// The sampling period of the traced port: `trace_interval`, 1 µs when
    /// omitted.
    pub fn trace_period(&self) -> Duration {
        self.trace_interval.unwrap_or(Duration::from_us(1))
    }
}

/// Full behavioural configuration of a simulation run. Scenario resolution
/// fills it; `queueing`, `measure` and `faults` are the spec's own values.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Congestion-control algorithm every host runs.
    pub cc: CcAlgorithm,
    /// Whether switches stamp INT and data packets reserve the 42-byte INT
    /// budget (§5.1 accounts this overhead explicitly).
    pub int_enabled: bool,
    /// Base RTT `T` given to the congestion-control algorithms (set slightly
    /// above the topology's maximum base RTT, as in §5.1).
    pub base_rtt: Duration,
    /// Loss prevention / recovery mode.
    pub flow_control: FlowControlMode,
    /// Shared buffer per switch in bytes (32 MB in §5.1).
    pub buffer_bytes: u64,
    /// ECN marking configuration (`None` disables marking).
    pub ecn: Option<EcnConfig>,
    /// Simulation horizon: events after this time are not processed.
    pub end_time: SimTime,
    /// Seed for the deterministic per-switch RNG (ECN marking).
    pub seed: u64,
    /// Queue sampling, the traced bottleneck port and goodput binning.
    pub measure: MeasurementSpec,
    /// Multi-class queueing: the egress scheduler (and with it the class
    /// count and PIAS tagging) and per-class ECN scaling. The default
    /// reproduces the paper's single-data-class deployment bit for bit.
    pub queueing: QueueingConfig,
    /// Fault-injection plan: scheduled link outages/flaps, degraded links
    /// and straggler hosts (see [`crate::fault`]). `None` (the default)
    /// allocates no fault timeline and reproduces the healthy-network run
    /// bit for bit.
    pub faults: Option<crate::fault::FaultConfig>,
}

impl SimConfig {
    /// A configuration with sensible paper defaults for the given congestion
    /// control algorithm, host line rate and base RTT. ECN / CNP / INT are
    /// enabled according to what the algorithm needs.
    pub fn for_cc(cc: CcAlgorithm, line_rate: Bandwidth, base_rtt: Duration) -> Self {
        let ecn = if cc.needs_ecn() {
            Some(match cc {
                CcAlgorithm::Dctcp(_) => EcnConfig::dctcp_default(line_rate),
                _ => EcnConfig::dcqcn_default(line_rate),
            })
        } else {
            None
        };
        SimConfig {
            int_enabled: cc.needs_int(),
            cc,
            base_rtt,
            flow_control: FlowControlMode::Lossless,
            buffer_bytes: 32_000_000,
            ecn,
            end_time: SimTime::from_ms(50),
            seed: 1,
            measure: MeasurementSpec::default(),
            queueing: QueueingConfig::legacy(),
            faults: None,
        }
    }

    /// Wire size of a full data packet under this configuration.
    pub fn data_wire_size(&self) -> u64 {
        hpcc_types::data_wire_size(self.int_enabled)
    }

    /// Minimum gap between go-back-N NACKs a receiver generates: one base
    /// RTT.
    pub fn nack_interval(&self) -> Duration {
        self.base_rtt
    }

    /// Retransmission timeout of the lossy modes: 64 base RTTs.
    pub fn rto(&self) -> Duration {
        self.base_rtt * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_cc::{DcqcnConfig, DctcpConfig};

    const LINE: Bandwidth = Bandwidth::from_gbps(100);
    const RTT: Duration = Duration::from_us(13);

    #[test]
    fn flow_control_modes() {
        assert!(FlowControlMode::Lossless.pfc_enabled());
        assert!(!FlowControlMode::Lossless.lossy());
        assert!(FlowControlMode::LossyGoBackN.lossy());
        assert!(!FlowControlMode::LossyGoBackN.selective_repeat());
        assert!(FlowControlMode::LossyIrn.selective_repeat());
        assert_eq!(FlowControlMode::Lossless.label(), "PFC");
        assert_eq!(FlowControlMode::LossyGoBackN.label(), "GBN");
        assert_eq!(FlowControlMode::LossyIrn.label(), "IRN");
    }

    #[test]
    fn ecn_defaults_scale_with_line_rate() {
        let d = EcnConfig::dcqcn_default(LINE);
        assert_eq!(d.kmin_bytes, 400_000);
        assert_eq!(d.kmax_bytes, 1_600_000);
        let d25 = EcnConfig::dcqcn_default(Bandwidth::from_gbps(25));
        assert_eq!(d25.kmin_bytes, 100_000);
        let t = EcnConfig::dctcp_default(Bandwidth::from_gbps(10));
        assert_eq!(t.kmin_bytes, 30_000);
        assert_eq!(t.kmin_bytes, t.kmax_bytes);
        let s = EcnConfig::thresholds_kb(12, 50);
        assert_eq!((s.kmin_bytes, s.kmax_bytes), (12_000, 50_000));
    }

    #[test]
    fn for_cc_enables_the_right_features() {
        let hpcc = SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, RTT);
        assert!(hpcc.int_enabled);
        assert!(hpcc.ecn.is_none());
        assert!(!hpcc.cc.needs_cnp());

        let dcqcn = SimConfig::for_cc(
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
            LINE,
            RTT,
        );
        assert!(!dcqcn.int_enabled);
        assert!(dcqcn.cc.needs_cnp());
        assert_eq!(dcqcn.ecn.unwrap().kmin_bytes, 400_000);

        let dctcp = SimConfig::for_cc(CcAlgorithm::Dctcp(DctcpConfig::default()), LINE, RTT);
        assert_eq!(dctcp.ecn.unwrap().kmin_bytes, 300_000);
        assert!(!dctcp.cc.needs_cnp());
    }

    #[test]
    fn queueing_legacy_tags_everything_into_class_zero() {
        let q = QueueingConfig::legacy();
        assert!(q.is_legacy());
        q.validate().unwrap();
        for prio in [
            FlowPriority::Normal,
            FlowPriority::LatencySensitive,
            FlowPriority::Class(3),
        ] {
            for seq in [0, 1_000_000] {
                assert_eq!(q.tag_class(prio, seq), 0);
            }
        }
        // No ECN scaling: thresholds pass through untouched.
        let base = EcnConfig::thresholds_kb(12, 50);
        assert_eq!(q.class_ecn(&base, 0), base);
    }

    #[test]
    fn pias_tagging_demotes_by_bytes_sent() {
        let q = QueueingConfig::pias(vec![100_000, 1_000_000]);
        q.validate().unwrap();
        assert!(!q.is_legacy());
        // Tag ignores the static priority: PIAS is purely bytes-sent.
        for prio in [FlowPriority::Normal, FlowPriority::LatencySensitive] {
            assert_eq!(q.tag_class(prio, 0), 0);
            assert_eq!(q.tag_class(prio, 99_999), 0);
            assert_eq!(q.tag_class(prio, 100_000), 1);
            assert_eq!(q.tag_class(prio, 999_999), 1);
            assert_eq!(q.tag_class(prio, 1_000_000), 2);
            assert_eq!(q.tag_class(prio, u64::MAX), 2);
        }
    }

    #[test]
    fn queueing_validation_rejects_malformed_configs() {
        let cases = vec![
            (QueueingConfig::strict_priority(0), "data_classes"),
            (QueueingConfig::strict_priority(9), "data_classes"),
            (QueueingConfig::dwrr(vec![0, 1]), ">= 1"),
            (QueueingConfig::pias(vec![200, 100]), "increasing"),
            (
                QueueingConfig::strict_priority(2).with_ecn_scale(vec![1.0]),
                "ecn_scale",
            ),
            (
                QueueingConfig::strict_priority(2).with_ecn_scale(vec![1.0, -0.5]),
                "positive",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(&format!("{cfg:?} must fail"));
            assert!(err.contains(needle), "{cfg:?} -> {err}");
        }
        // Per-class ECN scaling scales both thresholds, not pmax.
        let scaled = QueueingConfig::strict_priority(2).with_ecn_scale(vec![1.0, 0.5]);
        scaled.validate().unwrap();
        let b = EcnConfig::thresholds_kb(100, 400);
        assert_eq!(scaled.class_ecn(&b, 0), b);
        let half = scaled.class_ecn(&b, 1);
        assert_eq!(half.kmin_bytes, 50_000);
        assert_eq!(half.kmax_bytes, 200_000);
        assert_eq!(half.pmax, b.pmax);
    }

    #[test]
    fn data_wire_size_includes_int_budget_only_when_enabled() {
        let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, RTT);
        assert_eq!(cfg.data_wire_size(), 64 + 42 + 1000);
        cfg.int_enabled = false;
        assert_eq!(cfg.data_wire_size(), 64 + 1000);
    }
}
