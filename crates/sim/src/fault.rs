//! Fault injection: deterministic timelines of link and host faults.
//!
//! A [`FaultConfig`] is plain data describing *what goes wrong and when*:
//! scheduled link outages (optionally flapping), degraded links (added
//! latency and/or iid loss), and straggler hosts (NIC rate reduced over an
//! interval). The simulator compiles it into a [`FaultTimeline`] — a
//! time-sorted list of state transitions — and applies each transition to
//! the `Link` at either end of the affected link (`link.rs`: the one egress
//! a switch port and a host NIC share), or to the straggling host, as
//! simulation time passes.
//!
//! Design invariants:
//!
//! * **Zero delta when absent.** A simulation whose `SimConfig::faults` is
//!   `None` allocates no timeline, schedules no events and draws from no
//!   extra RNG stream: its output is bit-identical to a build that predates
//!   this module.
//! * **Dedicated RNG stream.** The iid loss of a degraded link draws from a
//!   per-node `SplitMix64` seeded from the scenario seed on a separate
//!   stream constant, never from the switch's ECN-marking RNG, so enabling
//!   faults on one link perturbs no marking decision anywhere.
//! * **Static routing.** Routes are computed once from the healthy topology
//!   and never recomputed. A downed link on a multi-path Clos therefore
//!   creates an ECMP blackhole / imbalance — deliberately, because that is
//!   the production failure mode worth measuring.
//!
//! Link outage semantics, by [`LinkDownMode`]:
//!
//! * [`Drop`](LinkDownMode::Drop) — the link behaves like a wire that
//!   corrupts every frame: the egress keeps serializing at line rate, but
//!   each frame vanishes instead of arriving, counted as fault-drop bytes.
//!   Queues drain, and senders see silence (lossless mode) or loss recovery
//!   (lossy modes).
//! * [`Pause`](LinkDownMode::Pause) — the egress holds: nothing serializes
//!   while the link is down and queued packets wait in place (building
//!   queues and, in lossless mode, PFC backpressure). On the up transition
//!   both endpoint ports are kicked and transmission resumes.
//!
//! In both modes frames already on the wire at the down transition still
//! arrive: propagation is not interrupted, only (de)serialization.

use hpcc_types::rng::SplitMix64;
use hpcc_types::{Duration, NodeId, SimTime};

/// What happens to traffic at an administratively-down link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkDownMode {
    /// The egress keeps serializing but every frame is lost on the wire
    /// (counted as fault drops). Models a corrupting / black-holing link.
    Drop,
    /// The egress holds: nothing serializes while the link is down; queued
    /// packets wait and are retransmitted onto the wire after the up
    /// transition. Models an administratively drained port.
    #[default]
    Pause,
}

impl LinkDownMode {
    /// Stable wire label ("Drop" / "Pause").
    pub fn label(self) -> &'static str {
        match self {
            LinkDownMode::Drop => "Drop",
            LinkDownMode::Pause => "Pause",
        }
    }
}

/// One scheduled outage of a topology link, optionally flapping.
///
/// The link is identified by its index into `TopologySpec::links()`; both
/// directions of the link fail together. The outage starts at `at`, lasts
/// `down_for`, and when `flaps > 0` repeats `flaps` additional times at
/// `period` intervals (so `flaps = 2` yields three down/up cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Index of the faulted link in `TopologySpec::links()`.
    pub link: usize,
    /// Time of the first down transition.
    pub at: Duration,
    /// Length of each outage; must be non-zero.
    pub down_for: Duration,
    /// Number of additional down/up cycles after the first.
    pub flaps: u32,
    /// Cycle period when `flaps > 0`; must exceed `down_for`.
    pub period: Duration,
    /// Drop or pause-and-requeue semantics while down.
    pub mode: LinkDownMode,
}

/// A degraded-link window: added one-way latency and/or iid frame loss on
/// both directions of a link over `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedLink {
    /// Index of the degraded link in `TopologySpec::links()`.
    pub link: usize,
    /// Start of the degradation window.
    pub from: Duration,
    /// End of the degradation window; must exceed `from`.
    pub until: Duration,
    /// Extra one-way propagation delay added to every frame in the window.
    pub extra_delay: Duration,
    /// Probability in `[0, 1)` that a frame serialized in the window is
    /// lost (drawn on the dedicated fault RNG stream).
    pub loss: f64,
}

/// A straggler host: NIC serialization rate reduced to `rate_factor` of the
/// configured line rate over `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerHost {
    /// Index of the straggling host in `TopologySpec::hosts()`.
    pub host: usize,
    /// Start of the straggle window.
    pub from: Duration,
    /// End of the straggle window; must exceed `from`.
    pub until: Duration,
    /// NIC rate multiplier in `(0, 1)` while straggling.
    pub rate_factor: f64,
}

/// The full fault plan of one simulation run, as plain data — the one fault
/// type of the workspace: scenario specs carry it (as `FaultSpec`, JSON key
/// `"faults"`), sweeps clone and mutate it, and `SimConfig::faults` hands
/// the same value to the engine.
///
/// `None` on either (the default; the key omitted from a manifest) means a
/// healthy network: no timeline is allocated and the run is bit-identical to
/// one without the fault machinery.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Scheduled link outages / flaps.
    pub link_faults: Vec<LinkFault>,
    /// Degraded-link windows (added latency, iid loss).
    pub degraded_links: Vec<DegradedLink>,
    /// Straggler-host windows (reduced NIC rate).
    pub stragglers: Vec<StragglerHost>,
}

impl FaultConfig {
    /// An empty fault plan (attachable, but a healthy network).
    pub fn new() -> Self {
        FaultConfig::default()
    }

    /// A single outage of `link` at `at` lasting `down_for`, in `mode`.
    pub fn link_down(link: usize, at: Duration, down_for: Duration, mode: LinkDownMode) -> Self {
        FaultConfig::new().with_link_fault(LinkFault {
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

    /// True when no fault of any kind is configured.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.degraded_links.is_empty() && self.stragglers.is_empty()
    }

    /// Validate the plan against a topology with `links` links and `hosts`
    /// hosts. Returns a human-readable reason on failure; scenario
    /// resolution wraps this in a typed error so malformed manifests never
    /// panic.
    pub fn validate(&self, links: usize, hosts: usize) -> Result<(), String> {
        let mut outages: Vec<(usize, SimTime, SimTime)> = Vec::new();
        for f in &self.link_faults {
            if f.link >= links {
                return Err(format!(
                    "link fault references link {} but the topology has {links} links",
                    f.link
                ));
            }
            if f.down_for.as_ps() == 0 {
                return Err(format!(
                    "link {}: zero-length outage (down_for = 0)",
                    f.link
                ));
            }
            if f.flaps > 0 && f.period <= f.down_for {
                return Err(format!(
                    "link {}: flap period must exceed the outage length",
                    f.link
                ));
            }
            // The last up transition bounds every instant computed below
            // and in `FaultTimeline::compile`.
            let last_up = (f.period.as_ps().checked_mul(f.flaps as u64))
                .and_then(|ps| ps.checked_add(f.at.as_ps()))
                .and_then(|ps| ps.checked_add(f.down_for.as_ps()));
            if last_up.is_none() {
                return Err(format!(
                    "link {}: the outage schedule overflows the picosecond clock",
                    f.link
                ));
            }
            for cycle in 0..=f.flaps as u64 {
                let start = SimTime::ZERO + f.at + f.period * cycle;
                outages.push((f.link, start, start + f.down_for));
            }
        }
        outages.sort_by_key(|&(link, start, _)| (link, start.as_ps()));
        for w in outages.windows(2) {
            let (la, _, end_a) = w[0];
            let (lb, start_b, _) = w[1];
            if la == lb && start_b < end_a {
                return Err(format!("link {la}: overlapping outage intervals"));
            }
        }
        let mut degraded: Vec<(usize, Duration, Duration)> = Vec::new();
        for d in &self.degraded_links {
            if d.link >= links {
                return Err(format!(
                    "degraded link {} out of range: the topology has {links} links",
                    d.link
                ));
            }
            if d.until <= d.from {
                return Err(format!(
                    "degraded link {}: window end must exceed its start",
                    d.link
                ));
            }
            if !d.loss.is_finite() || d.loss < 0.0 || d.loss >= 1.0 {
                return Err(format!(
                    "degraded link {}: loss probability must be in [0, 1)",
                    d.link
                ));
            }
            degraded.push((d.link, d.from, d.until));
        }
        degraded.sort_by_key(|&(link, from, _)| (link, from.as_ps()));
        for w in degraded.windows(2) {
            if w[0].0 == w[1].0 && w[1].1 < w[0].2 {
                return Err(format!("link {}: overlapping degraded windows", w[0].0));
            }
        }
        let mut straggle: Vec<(usize, Duration, Duration)> = Vec::new();
        for s in &self.stragglers {
            if s.host >= hosts {
                return Err(format!(
                    "straggler host {} out of range: the topology has {hosts} hosts",
                    s.host
                ));
            }
            if s.until <= s.from {
                return Err(format!(
                    "straggler host {}: window end must exceed its start",
                    s.host
                ));
            }
            if !s.rate_factor.is_finite() || s.rate_factor <= 0.0 || s.rate_factor >= 1.0 {
                return Err(format!(
                    "straggler host {}: rate_factor must be in (0, 1)",
                    s.host
                ));
            }
            straggle.push((s.host, s.from, s.until));
        }
        straggle.sort_by_key(|&(host, from, _)| (host, from.as_ps()));
        for w in straggle.windows(2) {
            if w[0].0 == w[1].0 && w[1].1 < w[0].2 {
                return Err(format!("host {}: overlapping straggler windows", w[0].0));
            }
        }
        Ok(())
    }
}

/// One compiled fault-state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Link `link` goes administratively down in `mode`.
    LinkDown {
        /// Topology link index.
        link: usize,
        /// Outage semantics.
        mode: LinkDownMode,
    },
    /// Link `link` comes back up.
    LinkUp {
        /// Topology link index.
        link: usize,
    },
    /// Degradation window `idx` (index into `degraded_links`) starts.
    DegradeOn {
        /// Index into [`FaultConfig::degraded_links`].
        idx: usize,
    },
    /// Degradation window `idx` ends.
    DegradeOff {
        /// Index into [`FaultConfig::degraded_links`].
        idx: usize,
    },
    /// Straggler window `idx` (index into `stragglers`) starts.
    StraggleOn {
        /// Index into [`FaultConfig::stragglers`].
        idx: usize,
    },
    /// Straggler window `idx` ends.
    StraggleOff {
        /// Index into [`FaultConfig::stragglers`].
        idx: usize,
    },
}

/// The compiled, time-sorted transition schedule of a [`FaultConfig`].
///
/// Compilation is a pure function of the config: the same plan always
/// yields the same schedule, and ties at one instant are applied in spec
/// order (stable sort), so fault scenarios are deterministic.
#[derive(Clone, Debug)]
pub struct FaultTimeline {
    transitions: Vec<(SimTime, Transition)>,
    cursor: usize,
}

impl FaultTimeline {
    /// Compile the transition schedule of `cfg`.
    pub fn compile(cfg: &FaultConfig) -> FaultTimeline {
        let mut transitions: Vec<(SimTime, Transition)> = Vec::new();
        for f in &cfg.link_faults {
            for cycle in 0..=f.flaps as u64 {
                let down = SimTime::ZERO + f.at + f.period * cycle;
                transitions.push((
                    down,
                    Transition::LinkDown {
                        link: f.link,
                        mode: f.mode,
                    },
                ));
                transitions.push((down + f.down_for, Transition::LinkUp { link: f.link }));
            }
        }
        for (idx, d) in cfg.degraded_links.iter().enumerate() {
            transitions.push((SimTime::ZERO + d.from, Transition::DegradeOn { idx }));
            transitions.push((SimTime::ZERO + d.until, Transition::DegradeOff { idx }));
        }
        for (idx, s) in cfg.stragglers.iter().enumerate() {
            transitions.push((SimTime::ZERO + s.from, Transition::StraggleOn { idx }));
            transitions.push((SimTime::ZERO + s.until, Transition::StraggleOff { idx }));
        }
        transitions.sort_by_key(|&(t, _)| t.as_ps());
        FaultTimeline {
            transitions,
            cursor: 0,
        }
    }

    /// Time of the next unapplied transition, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.transitions.get(self.cursor).map(|&(t, _)| t)
    }

    /// Pop every transition scheduled at or before `now`, in order.
    pub(crate) fn due(&mut self, now: SimTime) -> impl Iterator<Item = (SimTime, Transition)> + '_ {
        let start = self.cursor;
        while self.cursor < self.transitions.len() && self.transitions[self.cursor].0 <= now {
            self.cursor += 1;
        }
        self.transitions[start..self.cursor].iter().copied()
    }

    /// Total number of transitions in the schedule.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True when the schedule contains no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }
}

/// Stream constant XORed into the scenario seed for the per-node fault-loss
/// RNG, keeping it disjoint from the ECN-marking stream.
const FAULT_RNG_STREAM: u64 = 0xFA17_5EED_0BAD_11FE;

/// The stream `node` draws degraded-link iid loss from, on all of its links
/// (one stream per *link* would reseed it and change every lossy run).
/// Nothing draws from it unless a link of the node has `loss > 0`.
pub(crate) fn fault_rng(seed: u64, node: NodeId) -> SplitMix64 {
    SplitMix64::new(seed ^ FAULT_RNG_STREAM ^ (node.0 as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flap(link: usize, at_us: u64, down_us: u64, flaps: u32, period_us: u64) -> LinkFault {
        LinkFault {
            link,
            at: Duration::from_us(at_us),
            down_for: Duration::from_us(down_us),
            flaps,
            period: Duration::from_us(period_us),
            mode: LinkDownMode::Pause,
        }
    }

    #[test]
    fn empty_config_is_empty_and_valid() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_empty());
        cfg.validate(0, 0).unwrap();
        assert!(FaultTimeline::compile(&cfg).is_empty());
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let cases: Vec<(FaultConfig, &str)> = vec![
            (
                FaultConfig {
                    link_faults: vec![flap(9, 10, 5, 0, 0)],
                    ..Default::default()
                },
                "4 links",
            ),
            (
                FaultConfig {
                    link_faults: vec![flap(0, 10, 0, 0, 0)],
                    ..Default::default()
                },
                "zero-length",
            ),
            (
                FaultConfig {
                    link_faults: vec![flap(0, 10, 5, 2, 5)],
                    ..Default::default()
                },
                "period",
            ),
            (
                // at + flaps × period + down_for passes u64::MAX picoseconds.
                FaultConfig::new().with_link_fault(flap(0, 10, 5, 2, u64::MAX / 2_000_000)),
                "overflows",
            ),
            (
                FaultConfig {
                    link_faults: vec![flap(0, 10, 5, 0, 0), flap(0, 12, 5, 0, 0)],
                    ..Default::default()
                },
                "overlapping outage",
            ),
            (
                FaultConfig {
                    degraded_links: vec![DegradedLink {
                        link: 12,
                        from: Duration::ZERO,
                        until: Duration::from_us(1),
                        extra_delay: Duration::ZERO,
                        loss: 0.0,
                    }],
                    ..Default::default()
                },
                "out of range",
            ),
            (
                FaultConfig {
                    degraded_links: vec![DegradedLink {
                        link: 0,
                        from: Duration::from_us(2),
                        until: Duration::from_us(2),
                        extra_delay: Duration::ZERO,
                        loss: 0.0,
                    }],
                    ..Default::default()
                },
                "window end",
            ),
            (
                FaultConfig {
                    degraded_links: vec![DegradedLink {
                        link: 0,
                        from: Duration::ZERO,
                        until: Duration::from_us(1),
                        extra_delay: Duration::ZERO,
                        loss: 1.0,
                    }],
                    ..Default::default()
                },
                "loss probability",
            ),
            (
                FaultConfig {
                    stragglers: vec![StragglerHost {
                        host: 4,
                        from: Duration::ZERO,
                        until: Duration::from_us(1),
                        rate_factor: 0.5,
                    }],
                    ..Default::default()
                },
                "4 hosts",
            ),
            (
                FaultConfig {
                    stragglers: vec![StragglerHost {
                        host: 0,
                        from: Duration::ZERO,
                        until: Duration::from_us(1),
                        rate_factor: 1.5,
                    }],
                    ..Default::default()
                },
                "rate_factor",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate(4, 4).expect_err(&format!("{cfg:?} must fail"));
            assert!(err.contains(needle), "{cfg:?} -> {err}");
        }
    }

    #[test]
    fn flaps_expand_into_alternating_transitions() {
        let cfg = FaultConfig {
            link_faults: vec![flap(1, 100, 10, 2, 50)],
            ..Default::default()
        };
        cfg.validate(2, 0).unwrap();
        let mut tl = FaultTimeline::compile(&cfg);
        assert_eq!(tl.len(), 6);
        let all: Vec<_> = tl.due(SimTime::from_ms(1)).collect();
        let times: Vec<u64> = all.iter().map(|&(t, _)| t.as_ps() / 1_000_000).collect();
        assert_eq!(times, vec![100, 110, 150, 160, 200, 210]);
        assert!(matches!(all[0].1, Transition::LinkDown { link: 1, .. }));
        assert!(matches!(all[1].1, Transition::LinkUp { link: 1 }));
        assert_eq!(tl.next_time(), None);
    }

    #[test]
    fn due_pops_incrementally_and_in_order() {
        let cfg = FaultConfig {
            link_faults: vec![flap(0, 10, 5, 0, 0)],
            stragglers: vec![StragglerHost {
                host: 0,
                from: Duration::from_us(12),
                until: Duration::from_us(20),
                rate_factor: 0.25,
            }],
            ..Default::default()
        };
        cfg.validate(1, 1).unwrap();
        let mut tl = FaultTimeline::compile(&cfg);
        assert_eq!(tl.next_time(), Some(SimTime::from_us(10)));
        let first: Vec<_> = tl.due(SimTime::from_us(10)).collect();
        assert_eq!(first.len(), 1);
        assert_eq!(tl.next_time(), Some(SimTime::from_us(12)));
        let rest: Vec<_> = tl.due(SimTime::from_ms(1)).collect();
        assert_eq!(rest.len(), 3);
        assert!(matches!(rest[0].1, Transition::StraggleOn { idx: 0 }));
        assert!(matches!(rest[1].1, Transition::LinkUp { link: 0 }));
        assert!(matches!(rest[2].1, Transition::StraggleOff { idx: 0 }));
    }
}
