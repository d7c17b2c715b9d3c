//! The top-level simulator: owns the nodes, the event loop and the raw
//! measurement output.

use crate::config::SimConfig;
use crate::engine::{Effects, Event};
use crate::fault::{FaultConfig, FaultTimeline, Transition};
use crate::host::Host;
use crate::link::Link;
use crate::output::SimOutput;
use crate::switch::{stamped_route, Switch};
use hpcc_topology::{NodeKind, TopologySpec};
use hpcc_types::{Duration, FlowSpec, NodeId, PortId, SimTime};

/// A node in the simulated network. Hosts dominate the node vector in every
/// fat-tree, so the size gap between the variants wastes padding only on the
/// switch minority; boxing `Host` would add a pointer chase to the per-ACK
/// hot path instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Node {
    Host(Host),
    Switch(Switch),
}

impl Node {
    /// The wire of one of the node's ports: everything a fault transition
    /// or the end of the run does to a port, it does here.
    fn link_mut(&mut self, port: PortId) -> &mut Link {
        match self {
            Node::Host(h) => &mut h.link,
            Node::Switch(s) => s.link_mut(port),
        }
    }
}

/// Runtime state of fault injection. Allocated only when the run has a
/// non-empty [`FaultConfig`], so fault-free runs carry a `None` and execute
/// the exact legacy event sequence.
#[derive(Debug)]
struct FaultRuntime {
    /// Compiled transition schedule.
    timeline: FaultTimeline,
    /// The plan the timeline was compiled from (window parameters are read
    /// back when a transition fires).
    plan: FaultConfig,
    /// Number of host endpoints (0..=2) per link, for NIC-downtime
    /// accounting.
    host_ends: Vec<u8>,
    /// When each link last went down (`None` = currently up).
    down_since: Vec<Option<SimTime>>,
    /// Accumulated downtime per link.
    downtime: Vec<Duration>,
    /// Accumulated host-NIC downtime (host endpoints of downed links).
    host_nic_downtime: Duration,
    /// Number of currently-open fault windows (outages, degradations and
    /// straggles); goodput is attributed to the fault window while > 0
    /// ([`Effects::fault_active`]).
    active: u32,
    /// Transitions applied so far.
    events_applied: u64,
}

impl FaultRuntime {
    fn new(plan: &FaultConfig, topo: &TopologySpec) -> FaultRuntime {
        let is_host = |n| (topo.kind(n) == NodeKind::Host) as u8;
        let links = topo.links();
        let n_links = links.len();
        FaultRuntime {
            timeline: FaultTimeline::compile(plan),
            plan: plan.clone(),
            host_ends: links.iter().map(|l| is_host(l.a) + is_host(l.b)).collect(),
            down_since: vec![None; n_links],
            downtime: vec![Duration::ZERO; n_links],
            host_nic_downtime: Duration::ZERO,
            active: 0,
            events_applied: 0,
        }
    }
}

/// A registered flow and what registration resolved for it. The route its
/// packets carry is resolved when it starts, which keeps this record, held
/// for every flow for the whole run, at 48 bytes.
#[derive(Clone, Copy, Debug)]
struct Registered {
    spec: FlowSpec,
    /// Dense index into the destination host's receiver table.
    dst_slot: u32,
}

const _: () = assert!(std::mem::size_of::<Registered>() <= 48);

/// A packet-level discrete-event simulation of one experiment.
///
/// ```
/// use hpcc_sim::{SimConfig, Simulator};
/// use hpcc_cc::CcAlgorithm;
/// use hpcc_topology::star;
/// use hpcc_types::{data_wire_size, Bandwidth, Duration, FlowId, FlowSpec, SimTime};
///
/// let topo = star(4, Bandwidth::from_gbps(100), Duration::from_us(1));
/// let base_rtt = topo.suggested_base_rtt(data_wire_size(true));
/// let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), Bandwidth::from_gbps(100), base_rtt);
/// cfg.end_time = SimTime::from_ms(2);
/// let hosts = topo.hosts().to_vec();
/// let mut sim = Simulator::new(topo, cfg);
/// sim.add_flow(FlowSpec::new(FlowId(1), hosts[0], hosts[1], 100_000, SimTime::ZERO));
/// let out = sim.run();
/// assert_eq!(out.flows.len(), 1);
/// ```
pub struct Simulator {
    nodes: Vec<Node>,
    topo: TopologySpec,
    cfg: SimConfig,
    /// Every flow registered, in registration order ([`Event::FlowStart`]
    /// names one by its index here).
    flows: Vec<Registered>,
    /// Next receiver slot per node (only host entries are used).
    next_dst_slot: Vec<u32>,
    /// The event queue, the kick stack and the run's output: the arena
    /// every handler works in, never dropped, so the steady-state event loop
    /// allocates nothing. It also counts the events handled (events popped
    /// after the horizon are discarded, not processed).
    eff: Effects,
    /// Fault-injection runtime; `None` on healthy (legacy) runs.
    faults: Option<FaultRuntime>,
    /// The egress port whose queue is traced
    /// ([`crate::MeasurementSpec::traced_port`]), if any.
    traced: Option<(NodeId, PortId)>,
}

impl Simulator {
    /// Build a simulator for a topology and behavioural configuration.
    pub fn new(topo: TopologySpec, cfg: SimConfig) -> Self {
        let mut nodes = Vec::with_capacity(topo.node_count());
        for i in 0..topo.node_count() {
            let id = NodeId(i as u32);
            let node = match topo.kind(id) {
                NodeKind::Host => Node::Host(Host::new(id, topo.ports(id), cfg.seed)),
                NodeKind::Switch => Node::Switch(Switch::new(id, topo.ports(id), &cfg)),
            };
            nodes.push(node);
        }
        let mut eff = Effects::default();
        eff.horizon = cfg.end_time;
        if let Some(interval) = cfg.measure.queue_sample_interval {
            eff.schedule(SimTime::ZERO + interval, Event::Sample);
        }
        let traced = cfg.measure.traced_port(&topo);
        if traced.is_some() {
            eff.schedule(
                SimTime::ZERO + cfg.measure.trace_period(),
                Event::TraceSample,
            );
        }
        let faults = match &cfg.faults {
            Some(plan) if !plan.is_empty() => {
                let runtime = FaultRuntime::new(plan, &topo);
                if let Some(first) = runtime.timeline.next_time() {
                    eff.schedule(first, Event::FaultTransition);
                }
                Some(runtime)
            }
            _ => None,
        };
        eff.out = SimOutput::new(1024, cfg.measure.goodput_bin.unwrap_or(Duration::ZERO));
        // Per-class histograms exist only on the multi-class path, so the
        // legacy single-class output (and its digest) is byte-identical.
        if !cfg.queueing.is_legacy() {
            eff.out.class_queue_histograms = vec![Vec::new(); cfg.queueing.classes()];
        }
        let node_count = topo.node_count();
        Simulator {
            nodes,
            topo,
            cfg,
            flows: Vec::new(),
            next_dst_slot: vec![0; node_count],
            eff,
            faults,
            traced,
        }
    }

    /// The topology this simulator runs on.
    pub fn topology(&self) -> &TopologySpec {
        &self.topo
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Register one flow; it starts at `spec.start`.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        let idx = self.flows.len();
        let slot = &mut self.next_dst_slot[spec.dst.index()];
        self.flows.push(Registered {
            spec,
            dst_slot: *slot,
        });
        *slot += 1;
        self.eff.schedule(spec.start, Event::FlowStart(idx));
    }

    /// Register many flows.
    pub fn add_flows<I: IntoIterator<Item = FlowSpec>>(&mut self, specs: I) {
        let specs = specs.into_iter();
        self.flows.reserve_exact(specs.size_hint().0);
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Number of flows registered.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Run until the event queue drains or the configured horizon is passed,
    /// then return the collected measurements.
    pub fn run(mut self) -> SimOutput {
        let mut senders = vec![0; self.nodes.len()];
        for f in &self.flows {
            senders[f.spec.src.index()] += 1;
        }
        for ((node, senders), &receivers) in
            self.nodes.iter_mut().zip(senders).zip(&self.next_dst_slot)
        {
            if let Node::Host(h) = node {
                h.reserve_tables(senders, receivers as usize);
            }
        }
        while self.step() {}
        self.finalize()
    }

    /// Process one event. Returns `false` when the simulation is over.
    fn step(&mut self) -> bool {
        let Some((key, ev)) = self.eff.queue.pop_keyed() else {
            return false;
        };
        let t = key.0;
        if t > self.eff.horizon {
            return false;
        }
        // A `PortReady` was counted when its frame started (`Link::transmit`).
        if !matches!(ev, Event::PortReady { .. }) {
            self.eff.processed += 1;
        }
        self.eff.key = key;
        match ev {
            Event::FlowStart(idx) => {
                let Registered { spec, dst_slot } = self.flows[idx];
                // The route the sender stamps on every packet, from the
                // topology's static route table.
                let route = stamped_route(&self.topo, spec.id.raw(), spec.src, spec.dst);
                if let Node::Host(h) = &mut self.nodes[spec.src.index()] {
                    h.flow_start(t, spec, dst_slot, route, &self.cfg, &mut self.eff);
                }
            }
            // The port is free from this key on (`Link::busy`). A host looks
            // for its next packet; a switch port's `PortReady` is in the
            // queue only if frames wait, and they are still there: only a
            // `try_transmit` takes one, and it returns while the port is busy.
            Event::PortReady { node, port } => self.eff.kicks.push((node, port)),
            Event::PacketArrive { node, port, packet } => match &mut self.nodes[node.index()] {
                Node::Host(h) => h.handle_arrival(t, port, packet, &self.cfg, &mut self.eff),
                Node::Switch(s) => {
                    s.handle_arrival(t, port, packet, &self.cfg, &self.topo, &mut self.eff)
                }
            },
            Event::HostWake { node } => {
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_wake(t, &mut self.eff);
                }
            }
            Event::CcTimer { node, slot } => {
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_cc_timer(t, slot, &mut self.eff);
                }
            }
            Event::RtoCheck { node, slot } => {
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_rto(t, slot, &self.cfg, &mut self.eff);
                }
            }
            Event::Sample => {
                let classes = self.cfg.queueing.classes();
                for node in &self.nodes {
                    if let Node::Switch(s) = node {
                        for port in s.ports() {
                            self.eff.out.record_queue_sample(port.data_queue_bytes());
                            if classes > 1 {
                                for c in 0..classes {
                                    self.eff.out.record_class_queue_sample(
                                        c,
                                        port.class_queue_bytes(c as u8),
                                    );
                                }
                            }
                        }
                    }
                }
                if let Some(interval) = self.cfg.measure.queue_sample_interval {
                    let next = t + interval;
                    if next <= self.eff.horizon {
                        self.eff.schedule(next, Event::Sample);
                    }
                }
            }
            Event::TraceSample => {
                if let Some((n, p)) = self.traced {
                    let qlen = match &self.nodes[n.index()] {
                        Node::Switch(s) => s.ports()[p.index()].data_queue_bytes(),
                        Node::Host(_) => 0,
                    };
                    self.eff
                        .out
                        .port_traces
                        .entry((n, p))
                        .or_default()
                        .push((t, qlen));
                }
                let next = t + self.cfg.measure.trace_period();
                if next <= self.eff.horizon {
                    self.eff.schedule(next, Event::TraceSample);
                }
            }
            Event::FaultTransition => self.fault_transition(t),
        }
        self.apply_effects();
        true
    }

    /// Apply every fault transition due at `now` to the affected nodes, then
    /// schedule the next [`Event::FaultTransition`]. Only reachable on runs
    /// with a fault config.
    fn fault_transition(&mut self, now: SimTime) {
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        for (_, tr) in fr.timeline.due(now) {
            fr.events_applied += 1;
            match tr {
                Transition::LinkDown { link, mode } => {
                    for (n, p) in self.topo.link_ports(link) {
                        self.nodes[n.index()].link_mut(p).set_down(Some(mode));
                    }
                    fr.down_since[link] = Some(now);
                    fr.active += 1;
                }
                Transition::LinkUp { link } => {
                    for (n, p) in self.topo.link_ports(link) {
                        self.nodes[n.index()].link_mut(p).set_down(None);
                        // Kick so a paused egress resumes immediately.
                        self.eff.kicks.push((n, p));
                    }
                    if let Some(since) = fr.down_since[link].take() {
                        let dt = now.saturating_since(since);
                        fr.downtime[link] += dt;
                        fr.host_nic_downtime += dt * fr.host_ends[link] as u64;
                    }
                    fr.active = fr.active.saturating_sub(1);
                }
                Transition::DegradeOn { idx } => {
                    let d = fr.plan.degraded_links[idx];
                    for (n, p) in self.topo.link_ports(d.link) {
                        self.nodes[n.index()]
                            .link_mut(p)
                            .set_degraded(d.extra_delay, d.loss);
                    }
                    fr.active += 1;
                }
                Transition::DegradeOff { idx } => {
                    let d = fr.plan.degraded_links[idx];
                    for (n, p) in self.topo.link_ports(d.link) {
                        self.nodes[n.index()]
                            .link_mut(p)
                            .set_degraded(Duration::ZERO, 0.0);
                    }
                    fr.active = fr.active.saturating_sub(1);
                }
                Transition::StraggleOn { idx } => {
                    let s = fr.plan.stragglers[idx];
                    let id = self.topo.hosts()[s.host];
                    let line = self.topo.ports(id)[0].bandwidth;
                    if let Node::Host(h) = &mut self.nodes[id.index()] {
                        h.set_straggle(Some(line.mul_f64(s.rate_factor)));
                    }
                    fr.active += 1;
                }
                Transition::StraggleOff { idx } => {
                    let s = fr.plan.stragglers[idx];
                    let id = self.topo.hosts()[s.host];
                    if let Node::Host(h) = &mut self.nodes[id.index()] {
                        h.set_straggle(None);
                    }
                    fr.active = fr.active.saturating_sub(1);
                }
            }
        }
        self.eff.fault_active = fr.active > 0;
        if let Some(next) = fr.timeline.next_time() {
            self.eff.schedule(next, Event::FaultTransition);
        }
    }

    /// Work the arena's kick stack (LIFO, matching the original recursive
    /// kick semantics) until it drains — a `try_transmit` pushes the kicks it
    /// causes on top of the ones still pending.
    fn apply_effects(&mut self) {
        let now = self.eff.key.0;
        while let Some((n, p)) = self.eff.kicks.pop() {
            match &mut self.nodes[n.index()] {
                Node::Host(h) => h.try_transmit(now, &self.cfg, &mut self.eff),
                Node::Switch(s) => s.try_transmit(now, p, &self.cfg, &mut self.eff),
            }
        }
    }

    /// Close out per-node accounting and return the measurements.
    fn finalize(mut self) -> SimOutput {
        // The last event handled may be a `PortReady` that was counted but
        // never pushed, so the clock is not just the last key popped.
        let now = self.eff.clock();
        let mut out = std::mem::take(&mut self.eff.out);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let id = NodeId(i as u32);
            if let Node::Host(h) = node {
                out.unfinished_flows += h.unfinished_flows();
            }
            for port in (0..self.topo.ports(id).len() as u32).map(PortId) {
                let link = node.link_mut(port);
                link.finalize(now);
                out.fault_dropped_packets += link.fault_dropped_packets;
                out.fault_dropped_bytes += link.fault_dropped_bytes;
                out.ports.insert((id, port), link.counters);
            }
        }
        if let Some(mut fr) = self.faults.take() {
            // Close outage intervals still open at the horizon.
            for link in 0..fr.down_since.len() {
                if let Some(since) = fr.down_since[link].take() {
                    let dt = now.saturating_since(since);
                    fr.downtime[link] += dt;
                    fr.host_nic_downtime += dt * fr.host_ends[link] as u64;
                }
            }
            out.fault_events = fr.events_applied;
            out.host_nic_downtime = fr.host_nic_downtime;
            out.link_downtime = fr
                .downtime
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.is_zero())
                .map(|(i, &d)| (i, d))
                .collect();
        }
        out.elapsed = now;
        out.events_processed = self.eff.processed;
        out.peak_event_queue = self.eff.queue.peak_len() as u64;
        out
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.eff.clock())
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("pending_events", &self.eff.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowControlMode;
    use hpcc_cc::{CcAlgorithm, DcqcnConfig};
    use hpcc_stats::queue::queue_percentile;
    use hpcc_topology::{star, testbed_pod};
    use hpcc_types::{Bandwidth, FlowId, Packet, Route};

    const LINE: Bandwidth = Bandwidth::from_gbps(100);

    fn star_cfg(cc: CcAlgorithm, n_hosts: usize) -> (TopologySpec, SimConfig) {
        let topo = star(n_hosts, LINE, Duration::from_us(1));
        let base_rtt = topo.suggested_base_rtt(1106);
        let mut cfg = SimConfig::for_cc(cc, LINE, base_rtt);
        cfg.end_time = SimTime::from_ms(20);
        (topo, cfg)
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        let (topo, cfg) = star_cfg(CcAlgorithm::hpcc_default(), 2);
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        let size = 1_000_000u64;
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            size,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert_eq!(out.flows.len(), 1);
        assert_eq!(out.unfinished_flows, 0);
        let fct = out.flows[0].fct();
        // Ideal: 1000 packets * 1106 B at 100 Gbps ≈ 88.5 us, plus the ~4 us
        // RTT and per-hop store-and-forward. HPCC's 95% target utilization
        // costs a further ~5%.
        assert!(fct >= Duration::from_us(88), "too fast: {fct}");
        assert!(fct <= Duration::from_us(140), "too slow: {fct}");
        assert_eq!(out.total_drops(), 0);
        assert!(out.packets_sent >= 1000);
        assert_eq!(out.packets_delivered, out.packets_sent);
    }

    #[test]
    fn hpcc_keeps_queue_near_zero_in_two_to_one() {
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 3);
        cfg.measure.queue_sample_interval = Some(Duration::from_us(1));
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        // Two 2 MB flows into host 2.
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[2],
            2_000_000,
            SimTime::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowId(2),
            hosts[1],
            hosts[2],
            2_000_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert_eq!(out.flows.len(), 2);
        // HPCC's 99th-percentile queue stays far below one BDP (~50 KB here);
        // the paper reports tens of KB for much larger fan-ins.
        let q99 = queue_percentile(&out.queue_histogram, out.queue_histogram_bin, 99.0).unwrap();
        assert!(q99 < 60_000, "99p queue {q99} B too large for HPCC");
        assert_eq!(out.total_drops(), 0);
        assert_eq!(out.total_pause_duration(), Duration::ZERO);
    }

    #[test]
    fn dcqcn_builds_bigger_queues_than_hpcc() {
        let run = |cc: CcAlgorithm| {
            let (topo, mut cfg) = star_cfg(cc, 5);
            cfg.measure.queue_sample_interval = Some(Duration::from_us(1));
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            for i in 0..4u64 {
                sim.add_flow(FlowSpec::new(
                    FlowId(i + 1),
                    hosts[i as usize],
                    hosts[4],
                    2_000_000,
                    SimTime::ZERO,
                ));
            }
            sim.run()
        };
        let hpcc = run(CcAlgorithm::hpcc_default());
        let dcqcn = run(CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)));
        assert_eq!(hpcc.flows.len(), 4);
        assert_eq!(dcqcn.flows.len(), 4);
        // Compare the time-average queue occupancy over the whole run: DCQCN
        // keeps a standing queue near its ECN threshold while the transfer
        // lasts, HPCC only has the first-RTT burst.
        let mean_queue = |out: &SimOutput| {
            let total: u64 = out.queue_histogram.iter().sum();
            let weighted: f64 = out
                .queue_histogram
                .iter()
                .enumerate()
                .map(|(i, c)| i as f64 * out.queue_histogram_bin as f64 * *c as f64)
                .sum();
            weighted / total.max(1) as f64
        };
        let q_hpcc = mean_queue(&hpcc);
        let q_dcqcn = mean_queue(&dcqcn);
        assert!(
            q_dcqcn > 3.0 * q_hpcc.max(1.0),
            "DCQCN mean queue ({q_dcqcn:.0} B) should far exceed HPCC's ({q_hpcc:.0} B)"
        );
        // And DCQCN's worst case is far above one BDP while HPCC's stays in
        // the same order as a BDP burst.
        assert!(dcqcn.max_queue_bytes() > 300_000);
    }

    #[test]
    fn incast_under_pfc_never_drops_and_under_lossy_gbn_recovers() {
        // 8-to-1 incast with a deliberately small buffer.
        let run = |mode: FlowControlMode| {
            let (topo, mut cfg) =
                star_cfg(CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)), 9);
            cfg.flow_control = mode;
            cfg.buffer_bytes = 500_000;
            cfg.end_time = SimTime::from_ms(30);
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            for i in 0..8u64 {
                sim.add_flow(FlowSpec::new(
                    FlowId(i + 1),
                    hosts[i as usize],
                    hosts[8],
                    500_000,
                    SimTime::from_us(i),
                ));
            }
            sim.run()
        };
        let lossless = run(FlowControlMode::Lossless);
        assert_eq!(lossless.total_drops(), 0, "PFC must prevent drops");
        assert!(
            lossless.total_pause_duration() > Duration::ZERO,
            "incast should trigger PFC"
        );
        assert_eq!(lossless.flows.len(), 8);

        let lossy = run(FlowControlMode::LossyGoBackN);
        assert!(
            lossy.total_drops() > 0,
            "small buffer without PFC must drop"
        );
        assert_eq!(
            lossy.flows.len(),
            8,
            "go-back-N must still complete all flows"
        );
        assert_eq!(lossy.total_pause_duration(), Duration::ZERO);

        let irn = run(FlowControlMode::LossyIrn);
        assert_eq!(irn.flows.len(), 8, "IRN must still complete all flows");
        // IRN retransmits selectively, so it sends no more than go-back-N.
        assert!(irn.packets_sent <= lossy.packets_sent);
    }

    #[test]
    fn hpcc_incast_keeps_queue_below_pfc_threshold() {
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 17);
        cfg.measure.queue_sample_interval = Some(Duration::from_us(1));
        cfg.end_time = SimTime::from_ms(10);
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        for i in 0..16u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i + 1),
                hosts[i as usize],
                hosts[16],
                500_000,
                SimTime::ZERO,
            ));
        }
        let out = sim.run();
        assert_eq!(out.flows.len(), 16);
        // No PFC pauses with HPCC even under 16-to-1 incast (the paper's
        // §5.3 observation).
        assert_eq!(out.total_pause_duration(), Duration::ZERO);
        assert_eq!(out.total_drops(), 0);
    }

    #[test]
    fn nested_kicks_run_in_lifo_order() {
        // One arrival kicks two switch ports (the ingress it pauses, then
        // the egress); the egress transmit, run first, resumes another
        // ingress and so kicks a third port, which must run before the kick
        // that was pending underneath: 1, 0, 2. A queue (2, 1, 0) or new
        // kicks slipped under old ones (1, 2, 0) would both serve port 2
        // before port 0.
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 3);
        cfg.measure.queue_sample_interval = None;
        // 9106-byte frames against 11 % of a 250 KB buffer: the third queued
        // frame of an ingress crosses the pause threshold, two sit below it,
        // and one dequeue drains a paused ingress past the resume hysteresis.
        cfg.buffer_bytes = 250_000;
        let hosts = topo.hosts().to_vec();
        let sw = topo.switches()[0];
        let mut sim = Simulator::new(topo, cfg);
        let now = SimTime::from_us(1);
        let data = || Box::new(Packet::data(FlowId(1), hosts[0], hosts[1], 0, 9000, now));
        // Queue three packets from port 0 (pausing it) and two from port 2
        // on the egress to host 1, without letting any port transmit.
        let Node::Switch(s) = &mut sim.nodes[sw.index()] else {
            panic!("the star's last node is its switch");
        };
        for ingress in [0, 0, 0, 2, 2] {
            s.handle_arrival(
                now,
                PortId(ingress),
                data(),
                &sim.cfg,
                &sim.topo,
                &mut sim.eff,
            );
        }
        let pauses = |s: &Switch| [0, 1, 2].map(|p| s.ports()[p].link.counters.pause_frames_sent);
        assert_eq!(pauses(s), [1, 0, 0]);
        sim.eff.kicks.clear();

        let third_from_port_2 = Event::PacketArrive {
            node: sw,
            port: PortId(2),
            packet: data(),
        };
        sim.eff.schedule(now, third_from_port_2);
        assert!(sim.step());
        let Node::Switch(s) = &sim.nodes[sw.index()] else {
            unreachable!()
        };
        assert_eq!(pauses(s), [1, 0, 1]);
        // Each transmit reserved its `PortReady`'s seq as it ran, so the
        // seqs give the order the ports were served. The two PFC frames
        // serialize in the same 64-byte time, so by key their `PortReady`s
        // sort in that order too, ahead of the data frame's.
        let key = |p: &usize| s.ports()[*p].link.ready_key();
        let mut served = [0, 1, 2];
        served.sort_by_key(|p| key(p).1);
        assert_eq!(served, [1, 0, 2]);
        let mut freed = [0, 1, 2];
        freed.sort_by_key(key);
        assert_eq!(freed, [0, 2, 1]);
        assert_eq!(key(&0).0, key(&2).0);
        // In the queue are those of the ports that still hold frames: port 1
        // its other data frames, port 0 the resume behind its pause.
        let pushed: Vec<PortId> = sim
            .eff
            .scheduled()
            .into_iter()
            .filter_map(|(_, ev)| match ev {
                Event::PortReady { port, .. } => Some(port),
                _ => None,
            })
            .collect();
        assert_eq!(pushed, [PortId(0), PortId(1)]);
    }

    #[test]
    fn events_past_the_horizon_are_not_counted_as_processed() {
        // The only pending event (the flow start) lies beyond the horizon, so
        // the run terminates by discarding it. A previous version counted the
        // discarded event because the queue incremented its processed counter
        // inside pop(), before the simulator's horizon check.
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 2);
        cfg.end_time = SimTime::from_us(10);
        cfg.measure.queue_sample_interval = None;
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            1_000,
            SimTime::from_us(20),
        ));
        let out = sim.run();
        assert_eq!(out.events_processed, 0, "discarded event must not count");
        assert!(out.flows.is_empty(), "the flow never started");

        // A horizon cutting a busy run mid-flight still only counts handled
        // events: the run that is stopped by a beyond-horizon event processes
        // strictly fewer events than the run that completes the flow.
        let run_until = |end: SimTime| {
            let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 2);
            cfg.end_time = end;
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            sim.add_flow(FlowSpec::new(
                FlowId(1),
                hosts[0],
                hosts[1],
                1_000_000,
                SimTime::ZERO,
            ));
            sim.run()
        };
        let cut = run_until(SimTime::from_us(30));
        let full = run_until(SimTime::from_ms(20));
        assert!(cut.events_processed > 0);
        assert!(cut.events_processed < full.events_processed);
    }

    #[test]
    fn a_run_cut_after_a_port_ready_that_was_never_pushed_ends_at_it() {
        // One single-packet flow, cut before the packet reaches its
        // receiver: the last event handled is the switch's `PortReady` once
        // it has forwarded the packet, which is never pushed because nothing
        // waits behind it. The run's clock still reaches it: `elapsed`, and
        // the pause and outage intervals open at the end, are read from it.
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 2);
        cfg.end_time = SimTime::from_ns(1500);
        cfg.measure.queue_sample_interval = None;
        let hosts = topo.hosts().to_vec();
        let sw = topo.switches()[0];
        let to_receiver = topo.next_hops(sw, hosts[1])[0];
        let mut sim = Simulator::new(topo, cfg);
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            1_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        let wire = out.ports[&(hosts[0], PortId(0))].tx_bytes;
        assert_eq!(out.ports[&(sw, to_receiver)].tx_bytes, wire);
        let tx = LINE.tx_time(wire);
        assert_eq!(out.elapsed, SimTime::ZERO + tx + Duration::from_us(1) + tx);
        // The flow start, the host's `PortReady`, the arrival at the switch
        // and the switch's `PortReady`.
        assert_eq!(out.events_processed, 4);
        assert_eq!(out.packets_delivered, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (topo, cfg) = star_cfg(CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)), 4);
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            for i in 0..3u64 {
                sim.add_flow(FlowSpec::new(
                    FlowId(i + 1),
                    hosts[i as usize],
                    hosts[3],
                    1_000_000,
                    SimTime::from_us(5 * i),
                ));
            }
            sim.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.flows.len(), b.flows.len());
        for (x, y) in a.flows.iter().zip(b.flows.iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.packets_sent, b.packets_sent);
    }

    #[test]
    fn cross_rack_flows_work_on_the_testbed_pod() {
        let topo = testbed_pod(Duration::from_us(1));
        let base_rtt = topo.suggested_base_rtt(1106);
        let mut cfg = SimConfig::for_cc(
            CcAlgorithm::hpcc_default(),
            Bandwidth::from_gbps(25),
            base_rtt,
        );
        cfg.end_time = SimTime::from_ms(30);
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        // Host 0 (rack 0) to host 31 (rack 3): crosses ToR→Agg→ToR.
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[31],
            2_000_000,
            SimTime::ZERO,
        ));
        // And a same-rack flow.
        sim.add_flow(FlowSpec::new(
            FlowId(2),
            hosts[8],
            hosts[9],
            2_000_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert_eq!(out.flows.len(), 2);
        assert_eq!(out.unfinished_flows, 0);
        let cross = out.flows.iter().find(|f| f.id == FlowId(1)).unwrap();
        let local = out.flows.iter().find(|f| f.id == FlowId(2)).unwrap();
        // Both are bandwidth-bound at 25 Gbps ≈ 680 us for 2 MB + overheads;
        // the cross-rack flow pays a slightly longer RTT.
        assert!(cross.fct() > local.fct());
        assert!(local.fct() > Duration::from_us(600));
        assert!(cross.fct() < Duration::from_ms(2));
    }

    /// Two hosts at the ends of a line of `n` switches.
    fn line_of_switches(n: usize) -> TopologySpec {
        let mut b = hpcc_topology::TopologyBuilder::new();
        let hosts = b.add_hosts(2);
        let switches = b.add_switches(n);
        b.link(hosts[0], switches[0], LINE, Duration::from_us(1));
        for pair in switches.windows(2) {
            b.link(pair[0], pair[1], LINE, Duration::from_us(1));
        }
        b.link(hosts[1], switches[n - 1], LINE, Duration::from_us(1));
        b.build()
    }

    #[test]
    fn a_path_longer_than_the_route_holds_finishes_through_the_table() {
        // Ten switches: the route names the first eight each way, the last
        // two hops of every data packet and every ACK are table lookups.
        let topo = line_of_switches(10);
        let hosts = topo.hosts().to_vec();
        let route = stamped_route(&topo, 1, hosts[0], hosts[1]);
        assert_eq!((route.ahead_len, route.back_len), (8, 8));
        let mut cfg = SimConfig::for_cc(
            CcAlgorithm::hpcc_default(),
            LINE,
            topo.suggested_base_rtt(1106),
        );
        cfg.end_time = SimTime::from_ms(20);
        let mut sim = Simulator::new(topo, cfg);
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            300_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert_eq!(out.flows.len(), 1, "the flow completes");
        assert_eq!(out.total_drops(), 0);
        assert_eq!(out.packets_delivered, out.packets_sent);
    }

    #[test]
    fn an_unroutable_flow_is_dropped_at_the_switch_that_has_no_next_hop() {
        // Two stars with nothing between them: the walk stops at the
        // sender's switch, the stamp is empty, and that switch counts every
        // packet as a drop on the port it came in by.
        let mut b = hpcc_topology::TopologyBuilder::new();
        let hosts = b.add_hosts(2);
        let switches = b.add_switches(2);
        b.link(hosts[0], switches[0], LINE, Duration::from_us(1));
        b.link(hosts[1], switches[1], LINE, Duration::from_us(1));
        let topo = b.build();
        assert_eq!(
            stamped_route(&topo, 1, hosts[0], hosts[1]),
            Route::default()
        );
        let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, Duration::from_us(8));
        cfg.end_time = SimTime::from_us(200);
        let mut sim = Simulator::new(topo, cfg);
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            50_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert!(out.flows.is_empty());
        assert_eq!(out.unfinished_flows, 1);
        assert_eq!(out.packets_delivered, 0);
        let at_ingress = out.ports[&(switches[0], PortId(0))].dropped_packets;
        assert!(out.packets_sent > 0);
        assert_eq!(at_ingress, out.packets_sent);
    }

    #[test]
    fn goodput_and_trace_outputs_are_populated() {
        let (topo, mut cfg) = star_cfg(CcAlgorithm::hpcc_default(), 3);
        let switch = topo.switches()[0];
        let hosts = topo.hosts().to_vec();
        // Trace the egress towards host 2 and bin goodput at 100 us.
        let egress_to_h2 = topo.next_hops(switch, hosts[2])[0];
        cfg.measure.bottleneck_host = Some(2);
        cfg.measure.trace_interval = Some(Duration::from_us(5));
        cfg.measure.goodput_bin = Some(Duration::from_us(100));
        let mut sim = Simulator::new(topo, cfg);
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[2],
            3_000_000,
            SimTime::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowId(2),
            hosts[1],
            hosts[2],
            3_000_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        let trace = &out.port_traces[&(switch, egress_to_h2)];
        assert!(trace.len() > 10);
        assert!(
            trace.windows(2).all(|w| w[0].0 < w[1].0),
            "trace times increase"
        );
        let g1 = &out.flow_goodput[&FlowId(1)];
        let total1: u64 = g1.iter().sum();
        assert_eq!(total1, 3_000_000);
        let g2: u64 = out.flow_goodput[&FlowId(2)].iter().sum();
        assert_eq!(g2, 3_000_000);
    }

    #[test]
    fn int_headers_reach_back_to_senders_through_multiple_hops() {
        let topo = testbed_pod(Duration::from_us(1));
        let base_rtt = topo.suggested_base_rtt(1106);
        let mut cfg = SimConfig::for_cc(
            CcAlgorithm::hpcc_default(),
            Bandwidth::from_gbps(25),
            base_rtt,
        );
        cfg.end_time = SimTime::from_ms(10);
        cfg.measure.queue_sample_interval = Some(Duration::from_us(2));
        let hosts = topo.hosts().to_vec();
        let mut sim = Simulator::new(topo, cfg);
        // Two cross-rack senders share the ToR uplink of the receiver's rack,
        // so HPCC must throttle below line rate without building deep queues.
        sim.add_flow(FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[16],
            1_000_000,
            SimTime::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowId(2),
            hosts[8],
            hosts[17],
            1_000_000,
            SimTime::ZERO,
        ));
        let out = sim.run();
        assert_eq!(out.flows.len(), 2);
        assert_eq!(out.total_drops(), 0);
        assert!(
            queue_percentile(&out.queue_histogram, out.queue_histogram_bin, 99.9).unwrap()
                < 200_000
        );
    }
}
