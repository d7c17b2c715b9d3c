//! The switch model: shared buffer, per-priority egress queues behind a
//! pluggable scheduler, ECN/WRED marking, dynamic-threshold PFC, lossy
//! drops, destination-based ECMP and INT stamping at dequeue.
//!
//! The model follows the paper's deployment (§2.1, §4.1, §5.1):
//!
//! * class 0 of every egress port carries ACK/NACK/CNP/PFC control traffic
//!   (strict priority, never paused, never dropped); classes
//!   `1..=classes()` carry data and are arbitrated by the configured
//!   egress scheduler (strict priority or DWRR — see [`crate::sched`]). The
//!   default single data class reproduces the paper's two-class deployment,
//! * one shared buffer per switch; PFC pauses an upstream sender when the
//!   bytes buffered from that ingress *in one data class* exceed a fraction
//!   of the free buffer, and resumes below a hysteresis (per-class pause
//!   frames; the control class is never paused),
//! * WRED-style ECN marking on the data classes at enqueue, against each
//!   class's (optionally scaled) thresholds,
//! * in lossy configurations, data packets are dropped when their class's
//!   egress queue exceeds the dynamic threshold (α = 1, footnote 6),
//! * INT: when a data packet starts transmission the switch appends
//!   `(B, ts, txBytes, qLen)` for that egress port (Figure 7); `qLen` is the
//!   port's total data occupancy across classes, which an HPCC sender reacts
//!   to regardless of which class queued the bytes.

use crate::config::SimConfig;
use crate::engine::Effects;
use crate::fault::fault_rng;
use crate::link::Link;
use crate::output::PfcEvent;
use crate::sched::{ClassLane, Scheduler};
use hpcc_topology::{NodeKind, PortDesc, TopologySpec};
use hpcc_types::rng::SplitMix64;
use hpcc_types::{
    data_wire_size, IntHopRecord, NodeId, Packet, PacketKind, PortId, Priority, Route, SimTime,
    MAX_INT_HOPS,
};
use std::collections::VecDeque;

/// Share of the free buffer an ingress class may hold before it is paused.
/// §5.1: "PFC is triggered when an ingress queue consumes more than 11% of
/// the free buffer."
const PFC_THRESHOLD_FRACTION: f64 = 0.11;

/// How far below the pause threshold a paused ingress class must drain
/// before it is resumed: two INT-free data frames.
const PFC_RESUME_HYSTERESIS: u64 = 2 * data_wire_size(false);

/// The PFC pause threshold for one ingress class while `buffer_used` bytes
/// of the buffer are taken: [`PFC_THRESHOLD_FRACTION`] of what is free.
fn pause_threshold(cfg: &SimConfig, buffer_used: u64) -> u64 {
    let free = cfg.buffer_bytes.saturating_sub(buffer_used);
    (PFC_THRESHOLD_FRACTION * free as f64) as u64
}

/// The ECMP candidate index a flow hashes to at a node: deterministic per
/// (flow, node) so a flow never reorders, uniform across candidates.
#[inline]
fn ecmp_index(flow: u64, node: NodeId, candidates: usize) -> usize {
    if candidates == 1 {
        // `h % 1 == 0` whatever the hash: skip it on every down-path hop.
        return 0;
    }
    let mut h = flow ^ (node.0 as u64).wrapping_mul(0x9E3779B97F4A7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    (h % candidates as u64) as usize
}

/// Walk the path ECMP gives flow `flow` from `src` towards `dst`, handing
/// `visit` every `(node, egress port)` on it in order, `src`'s own first: a
/// host leaves by its first candidate, a switch by the one [`ecmp_index`]
/// names — the rule [`Switch::handle_arrival`] applies to a packet without a
/// stamped hop. The one walker behind the routes the packet engine stamps and
/// the paths the fluid backend loads. Returns whether the walk reached `dst`;
/// it stops at a node with no next hop and after `node_count` hops (a
/// routing loop).
pub(crate) fn ecmp_path(
    topo: &TopologySpec,
    flow: u64,
    src: NodeId,
    dst: NodeId,
    mut visit: impl FnMut(NodeId, PortId),
) -> bool {
    let mut node = src;
    for _ in 0..topo.node_count() {
        if node == dst {
            break;
        }
        let candidates = topo.next_hops(node, dst);
        if candidates.is_empty() {
            return false;
        }
        let port = match topo.kind(node) {
            NodeKind::Host => candidates[0],
            NodeKind::Switch => candidates[ecmp_index(flow, node, candidates.len())],
        };
        visit(node, port);
        node = topo.ports(node)[port.index()].peer_node;
    }
    node == dst
}

/// The route the sender stamps on every packet of a flow `src → dst`: the
/// egress port at each switch of its ECMP path, out and back (the hosts' own
/// NIC ports are not part of it). A walk that stops short stamps what it
/// found; the switch it stopped at looks the destination up itself and counts
/// the drop.
pub(crate) fn stamped_route(topo: &TopologySpec, flow: u64, src: NodeId, dst: NodeId) -> Route {
    let switch_ports = |from, to| {
        let mut ports = Vec::with_capacity(MAX_INT_HOPS);
        ecmp_path(topo, flow, from, to, |node, port| {
            if topo.kind(node) == NodeKind::Switch {
                ports.push(port);
            }
        });
        ports
    };
    Route::new(&switch_ports(src, dst), &switch_ports(dst, src))
}

/// A packet sitting in an egress queue, remembering the ingress it came from
/// (for PFC accounting) and its wire size. The packet stays in its pooled
/// box from arrival to departure, so queuing moves 24 bytes per entry.
#[derive(Debug)]
struct QueuedPacket {
    pkt: Box<Packet>,
    ingress: Option<PortId>,
    wire: u64,
}

/// One egress port of a switch.
#[derive(Debug)]
pub struct SwitchPort {
    /// The wire: line rate, PFC pause state, fault state, `txBytes` and the
    /// other port counters.
    pub(crate) link: Link,
    queues: [VecDeque<QueuedPacket>; Priority::COUNT],
    queue_bytes: [u64; Priority::COUNT],
    rx_enqueued_cum: u64,
    sched: Scheduler,
    /// Bytes currently buffered anywhere in the switch that arrived through
    /// this port, per class (drives PFC).
    ingress_bytes: [u64; Priority::COUNT],
    /// Whether a PAUSE is outstanding towards this port's peer, per class.
    pause_sent: [bool; Priority::COUNT],
}

// Every egress port of every switch holds one record; a field that fattens
// it fails the build instead of a campaign's RSS bound.
const _: () = assert!(std::mem::size_of::<SwitchPort>() <= 504);

impl SwitchPort {
    fn new(link: Link, sched: Scheduler) -> Self {
        SwitchPort {
            link,
            // Every ring starts empty and grows to its high-water capacity
            // on use: most ports of a run never queue more than a few
            // packets, and many never queue one in some class, so a buffer
            // up front costs resident set for no measurable time.
            queues: std::array::from_fn(|_| VecDeque::new()),
            queue_bytes: [0; Priority::COUNT],
            rx_enqueued_cum: 0,
            sched,
            ingress_bytes: [0; Priority::COUNT],
            pause_sent: [false; Priority::COUNT],
        }
    }

    /// Current data occupancy of this egress in bytes, summed over all data
    /// classes (with one data class: exactly that class's queue).
    pub fn data_queue_bytes(&self) -> u64 {
        self.queue_bytes[1..].iter().sum()
    }

    /// Current occupancy of one data class in bytes.
    pub fn class_queue_bytes(&self, class: u8) -> u64 {
        self.queue_bytes[Priority::data_class(class).index()]
    }

    /// Whether any queue holds a frame, paused or not (every frame has a
    /// non-zero wire size).
    fn holds_frames(&self) -> bool {
        self.queue_bytes.iter().any(|&bytes| bytes != 0)
    }
}

/// A switch node.
#[derive(Debug)]
pub struct Switch {
    /// Node id of this switch.
    pub id: NodeId,
    /// 12-bit identifier XOR-ed into the INT `pathID` field.
    int_id: u16,
    ports: Vec<SwitchPort>,
    buffer_used: u64,
    rng: SplitMix64,
    /// This node's stream for degraded-link iid loss, so the ECN-marking
    /// stream above is never perturbed by fault injection.
    fault_rng: SplitMix64,
}

impl Switch {
    /// Build a switch from its topology port descriptors; `cfg` supplies the
    /// RNG seed and the egress scheduling discipline.
    pub fn new(id: NodeId, ports: &[PortDesc], cfg: &SimConfig) -> Self {
        Switch {
            id,
            // 12-bit INT switch id; +1 so that the id is never zero and a
            // single-hop path always yields a non-trivial pathID.
            int_id: ((id.0 + 1) as u16) & 0x0fff,
            ports: (0..)
                .zip(ports)
                .map(|(i, p)| {
                    SwitchPort::new(Link::new(id, PortId(i), p), Scheduler::new(&cfg.queueing))
                })
                .collect(),
            buffer_used: 0,
            rng: SplitMix64::new(cfg.seed ^ (id.0 as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            fault_rng: fault_rng(cfg.seed, id),
        }
    }

    /// Access the egress ports (read-only, for statistics collection).
    pub fn ports(&self) -> &[SwitchPort] {
        &self.ports
    }

    /// The wire of one egress port.
    pub(crate) fn link_mut(&mut self, port: PortId) -> &mut Link {
        &mut self.ports[port.index()].link
    }

    /// ECMP selection: deterministic per (flow, switch) so a flow never
    /// reorders, uniform across candidates.
    fn ecmp_pick(&self, flow: u64, candidates: &[PortId]) -> PortId {
        candidates[ecmp_index(flow, self.id, candidates.len())]
    }

    /// Handle a packet arriving on `ingress`.
    pub(crate) fn handle_arrival(
        &mut self,
        now: SimTime,
        ingress: PortId,
        mut pkt: Box<Packet>,
        cfg: &SimConfig,
        topo: &TopologySpec,
        eff: &mut Effects,
    ) {
        // PFC frames are link-local: they pause/resume our egress on the
        // port they arrived on and are never forwarded.
        if let PacketKind::Pfc { class, pause } = pkt.kind {
            self.link_mut(ingress).set_paused(now, class, pause, eff);
            eff.recycle(pkt);
            return;
        }

        // Forward out of the port the sender stamped for this hop. A packet
        // without one is forwarded by destination — reverse-direction packets
        // (ACK, NACK, CNP) towards the flow's source host — which is the rule
        // the stamp was computed by (`stamped_route`).
        let egress = match pkt.route.next_port() {
            Some(port) => port,
            None => {
                let dest = if pkt.is_reverse() { pkt.src } else { pkt.dst };
                let candidates = topo.next_hops(self.id, dest);
                if candidates.is_empty() {
                    // No route (misconfigured experiment): count as a drop.
                    let port = &mut self.ports[ingress.index()];
                    port.link.counters.dropped_packets += 1;
                    eff.recycle(pkt);
                    return;
                }
                self.ecmp_pick(pkt.flow.raw(), candidates)
            }
        };
        let wire = pkt.wire_size(cfg.int_enabled);
        let class = pkt.priority;
        let is_data = pkt.is_data();

        // Lossy admission control on the data class: dynamic threshold α = 1
        // (one egress may consume up to the whole free buffer).
        if is_data && cfg.flow_control.lossy() {
            let egress_q = self.ports[egress.index()].queue_bytes[class.index()];
            let free = cfg.buffer_bytes.saturating_sub(self.buffer_used);
            if egress_q + wire > free {
                let port = &mut self.ports[egress.index()];
                port.link.counters.dropped_packets += 1;
                port.link.counters.dropped_bytes += wire;
                eff.recycle(pkt);
                return;
            }
        }
        // Hard cap: even control packets cannot exceed the physical buffer.
        if self.buffer_used + wire > cfg.buffer_bytes {
            let port = &mut self.ports[egress.index()];
            port.link.counters.dropped_packets += 1;
            port.link.counters.dropped_bytes += wire;
            eff.recycle(pkt);
            return;
        }

        // ECN marking at enqueue (data classes only), against the class's
        // own — optionally scaled — thresholds.
        if is_data {
            if let Some(base) = &cfg.ecn {
                let ecn = cfg.queueing.class_ecn(base, class.class().unwrap_or(0));
                let q = self.ports[egress.index()].queue_bytes[class.index()];
                let mark = if q >= ecn.kmax_bytes {
                    true
                } else if q > ecn.kmin_bytes {
                    let span = (ecn.kmax_bytes - ecn.kmin_bytes).max(1) as f64;
                    let p = ecn.pmax * (q - ecn.kmin_bytes) as f64 / span;
                    self.rng.next_f64() < p
                } else {
                    false
                };
                if mark {
                    pkt.ecn_ce = true;
                    self.ports[egress.index()].link.counters.ecn_marked += 1;
                }
            }
        }

        // Enqueue.
        {
            let port = &mut self.ports[egress.index()];
            port.queues[class.index()].push_back(QueuedPacket {
                pkt,
                ingress: Some(ingress),
                wire,
            });
            port.queue_bytes[class.index()] += wire;
            port.rx_enqueued_cum += wire;
            if class.is_data() {
                let queued = port.data_queue_bytes();
                let max = &mut port.link.counters.max_queue_bytes;
                *max = (*max).max(queued);
            }
            port.link.push_ready(eff);
        }
        self.buffer_used += wire;
        let from = &mut self.ports[ingress.index()];
        from.ingress_bytes[class.index()] += wire;

        // PFC: pause the upstream sender when this ingress class holds more
        // than the dynamic threshold.
        if cfg.flow_control.pfc_enabled()
            && class.is_data()
            && from.ingress_bytes[class.index()] > pause_threshold(cfg, self.buffer_used)
            && !from.pause_sent[class.index()]
        {
            from.pause_sent[class.index()] = true;
            self.send_pfc(now, ingress, class, true, eff);
        }

        eff.kicks.push((self.id, egress));
    }

    /// Emit a PFC pause or resume frame out of `port`.
    fn send_pfc(
        &mut self,
        now: SimTime,
        port: PortId,
        class: Priority,
        pause: bool,
        eff: &mut Effects,
    ) {
        let frame = eff.alloc_packet(Packet::pfc(class, pause));
        let wire = frame.wire_size(false);
        let p = &mut self.ports[port.index()];
        p.queues[Priority::CONTROL.index()].push_back(QueuedPacket {
            pkt: frame,
            ingress: None,
            wire,
        });
        p.queue_bytes[Priority::CONTROL.index()] += wire;
        p.link.push_ready(eff);
        self.buffer_used += wire;
        if pause {
            p.link.counters.pause_frames_sent += 1;
            eff.out.record_pfc_event(PfcEvent {
                time: now,
                node: self.id,
                port,
            });
        }
        eff.kicks.push((self.id, port));
    }

    /// Try to start transmitting the next packet on `port`.
    pub(crate) fn try_transmit(
        &mut self,
        now: SimTime,
        port_id: PortId,
        cfg: &SimConfig,
        eff: &mut Effects,
    ) {
        // Select the next packet: control always first (never paused), then
        // whichever data class the port's scheduler grants; paused classes
        // are skipped (strict priority) or retain their credit (DWRR).
        let (entry, class) = {
            let port = &mut self.ports[port_id.index()];
            if port.link.busy(eff) || port.link.held() {
                return;
            }
            let ctrl = Priority::CONTROL.index();
            if !port.queues[ctrl].is_empty() {
                (port.queues[ctrl].pop_front().unwrap(), Priority::CONTROL)
            } else {
                let n = cfg.queueing.classes();
                let mut lanes = [ClassLane::default(); Priority::MAX_DATA_CLASSES];
                for (c, lane) in lanes.iter_mut().enumerate().take(n) {
                    let class = Priority(1 + c as u8);
                    lane.head_wire = port.queues[class.index()].front().map(|e| e.wire);
                    lane.paused = port.link.class_paused(class);
                }
                match port.sched.pick(&lanes[..n]) {
                    Some(c) => (
                        port.queues[c + 1].pop_front().unwrap(),
                        Priority::data_class(c as u8),
                    ),
                    None => return,
                }
            }
        };
        let QueuedPacket {
            mut pkt,
            ingress,
            wire,
        } = entry;

        // Dequeue accounting.
        self.buffer_used = self.buffer_used.saturating_sub(wire);
        self.ports[port_id.index()].queue_bytes[class.index()] -= wire;
        if let Some(ing) = ingress {
            let from = &mut self.ports[ing.index()];
            let bytes = &mut from.ingress_bytes[class.index()];
            *bytes = bytes.saturating_sub(wire);
            // PFC resume once the ingress class drains below the threshold
            // minus the hysteresis.
            if cfg.flow_control.pfc_enabled()
                && class.is_data()
                && from.pause_sent[class.index()]
                && *bytes
                    <= pause_threshold(cfg, self.buffer_used).saturating_sub(PFC_RESUME_HYSTERESIS)
            {
                from.pause_sent[class.index()] = false;
                self.send_pfc(now, ing, class, false, eff);
            }
        }

        // INT stamping at dequeue (Figure 7): data packets only. `txBytes`
        // counts this frame, which `transmit` is about to add; should the
        // link lose the frame, its stamp goes with it.
        let port = &mut self.ports[port_id.index()];
        if cfg.int_enabled && pkt.is_data() {
            pkt.int.push_hop(
                self.int_id,
                IntHopRecord {
                    bandwidth: port.link.bandwidth(),
                    ts: now,
                    tx_bytes: port.link.counters.tx_bytes + wire,
                    rx_bytes: port.rx_enqueued_cum,
                    qlen: port.data_queue_bytes(),
                },
            );
        }
        let tx_time = port.link.tx_time(wire);
        port.link
            .transmit(now, pkt, wire, tx_time, &mut self.fault_rng, eff);
        // Frames wait behind this one: its `PortReady` will serve them. A
        // port left empty gets one only if a frame is queued before it frees.
        if port.holds_frames() {
            port.link.push_ready(eff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowControlMode;
    use crate::engine::{Event, Key};
    use hpcc_cc::CcAlgorithm;
    use hpcc_topology::TopologyBuilder;
    use hpcc_types::{Bandwidth, Duration, FlowId};

    const LINE: Bandwidth = Bandwidth::from_gbps(100);

    /// host0 -- switch -- host1, plus a second host2 on the switch.
    fn topo3() -> TopologySpec {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, s, LINE, Duration::from_us(1));
        }
        b.build()
    }

    fn cfg() -> SimConfig {
        SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, Duration::from_us(13))
    }

    fn data_packet(seq: u64) -> Packet {
        Packet::data(FlowId(7), NodeId(0), NodeId(1), seq, 1000, SimTime::ZERO)
    }

    fn new_switch(topo: &TopologySpec) -> Switch {
        let sw_id = topo.switches()[0];
        Switch::new(sw_id, topo.ports(sw_id), &cfg())
    }

    #[test]
    fn forwards_data_and_stamps_int() {
        let topo = topo3();
        let cfg = cfg();
        let mut sw = new_switch(&topo);
        let mut eff = Effects::default();
        // Arrives from host0 (switch port 0), destined to host1 (port 1).
        sw.handle_arrival(
            SimTime::from_us(5),
            PortId(0),
            Box::new(data_packet(0)),
            &cfg,
            &topo,
            &mut eff,
        );
        assert_eq!(eff.kicks, vec![(sw.id, PortId(1))]);
        let mut eff2 = Effects::default();
        sw.try_transmit(SimTime::from_us(5), PortId(1), &cfg, &mut eff2);
        // The port holds nothing more: its `PortReady` is left out, and the
        // frame occupies the port until its key.
        let ready_at = SimTime::from_us(5) + LINE.tx_time(1106);
        assert_eq!(sw.ports()[1].link.ready_key(), (ready_at, 0));
        let scheduled = eff2.scheduled();
        assert_eq!(scheduled.len(), 1);
        // The arrival event carries the INT-stamped packet towards host1.
        let arrival = scheduled
            .iter()
            .find_map(|(t, e)| match e {
                Event::PacketArrive { node, packet, .. } => Some((*t, *node, **packet)),
                _ => None,
            })
            .unwrap();
        assert_eq!(arrival.1, NodeId(1));
        assert_eq!(arrival.2.int.n_hops, 1);
        let hop = arrival.2.int.hops()[0];
        assert_eq!(hop.bandwidth, LINE);
        assert_eq!(hop.qlen, 0, "queue drained by this dequeue");
        assert_eq!(hop.tx_bytes, arrival.2.wire_size(true));
        // Serialization time of a 1106-byte frame at 100 Gbps plus 1 us of
        // propagation.
        let expected = SimTime::from_us(5) + LINE.tx_time(1106) + Duration::from_us(1);
        assert_eq!(arrival.0, expected);
    }

    #[test]
    fn acks_route_back_to_the_flow_source() {
        let topo = topo3();
        let cfg = cfg();
        let mut sw = new_switch(&topo);
        let mut data = data_packet(0);
        data.int.push_hop(3, IntHopRecord::default());
        let ack = Packet::ack_for(&data, 1000, false);
        let mut eff = Effects::default();
        sw.handle_arrival(
            SimTime::from_us(1),
            PortId(1),
            Box::new(ack),
            &cfg,
            &topo,
            &mut eff,
        );
        // Destination of the ACK is the flow source host0 behind port 0.
        assert_eq!(eff.kicks, vec![(sw.id, PortId(0))]);
        let mut eff2 = Effects::default();
        sw.try_transmit(SimTime::from_us(1), PortId(0), &cfg, &mut eff2);
        let arrived_at = eff2.scheduled().iter().find_map(|(_, e)| match e {
            Event::PacketArrive { node, .. } => Some(*node),
            _ => None,
        });
        assert_eq!(arrived_at, Some(NodeId(0)));
    }

    #[test]
    fn ecn_marks_above_kmax_and_never_below_kmin() {
        let topo = topo3();
        let mut cfg = cfg();
        cfg.ecn = Some(crate::config::EcnConfig {
            kmin_bytes: 3_000,
            kmax_bytes: 6_000,
            pmax: 1.0,
        });
        let mut sw = new_switch(&topo);
        let mut eff = Effects::default();
        // Fill the egress queue towards host1 without draining it (we never
        // call try_transmit).
        let mut marked = 0;
        for i in 0..12 {
            sw.handle_arrival(
                SimTime::from_us(1),
                PortId(0),
                Box::new(data_packet(i * 1000)),
                &cfg,
                &topo,
                &mut eff,
            );
        }
        // Count CE marks sitting in the queue via the counters.
        marked += sw.ports()[1].link.counters.ecn_marked;
        assert!(marked >= 5, "deep queue must mark packets, marked={marked}");
        // The first two packets (queue < kmin at enqueue) are never marked.
        assert!(sw.ports()[1].link.counters.ecn_marked <= 10);
        assert!(sw.ports()[1].data_queue_bytes() > 10_000);
        assert_eq!(
            sw.ports()[1].link.counters.max_queue_bytes,
            sw.ports()[1].data_queue_bytes()
        );
    }

    #[test]
    fn pfc_pause_emitted_when_ingress_exceeds_threshold() {
        let topo = topo3();
        let mut cfg = cfg();
        cfg.buffer_bytes = 100_000;
        let mut sw = new_switch(&topo);
        let mut eff = Effects::default();
        // ~11 KB of free-buffer threshold: 12 packets of 1106 B exceed it.
        let mut pause_seen = false;
        for i in 0..15 {
            sw.handle_arrival(
                SimTime::from_us(1),
                PortId(0),
                Box::new(data_packet(i * 1000)),
                &cfg,
                &topo,
                &mut eff,
            );
        }
        pause_seen |= !eff.out.pfc_events.is_empty();
        assert!(pause_seen, "expected a PFC pause frame");
        assert_eq!(eff.out.pfc_events[0].node, sw.id);
        assert_eq!(
            eff.out.pfc_events[0].port,
            PortId(0),
            "pause goes to the congested ingress"
        );
        assert_eq!(sw.ports()[0].link.counters.pause_frames_sent, 1);
        // The pause frame sits in the control queue of port 0.
        let mut eff2 = Effects::default();
        sw.try_transmit(SimTime::from_us(2), PortId(0), &cfg, &mut eff2);
        let pfc_delivered = eff2.scheduled().iter().any(|(_, e)| {
            matches!(
                e,
                Event::PacketArrive { packet, .. }
                    if matches!(packet.kind, PacketKind::Pfc { pause: true, .. })
            )
        });
        assert!(pfc_delivered);
    }

    #[test]
    fn pfc_pause_received_blocks_data_but_not_control() {
        let topo = topo3();
        let cfg = cfg();
        let mut sw = new_switch(&topo);
        let mut eff = Effects::default();
        sw.handle_arrival(
            SimTime::from_us(1),
            PortId(0),
            Box::new(data_packet(0)),
            &cfg,
            &topo,
            &mut eff,
        );
        // Peer on port 1 pauses us.
        sw.handle_arrival(
            SimTime::from_us(2),
            PortId(1),
            Box::new(Packet::pfc(Priority::DATA, true)),
            &cfg,
            &topo,
            &mut eff,
        );
        assert!(sw.ports()[1].link.any_data_paused());
        let mut eff2 = Effects::default();
        sw.try_transmit(SimTime::from_us(3), PortId(1), &cfg, &mut eff2);
        assert!(
            eff2.scheduled().is_empty(),
            "paused data class must not transmit"
        );
        // Resume unblocks it.
        let mut eff3 = Effects::default();
        sw.handle_arrival(
            SimTime::from_us(10),
            PortId(1),
            Box::new(Packet::pfc(Priority::DATA, false)),
            &cfg,
            &topo,
            &mut eff3,
        );
        assert_eq!(eff3.kicks, vec![(sw.id, PortId(1))]);
        let mut eff4 = Effects::default();
        sw.try_transmit(SimTime::from_us(10), PortId(1), &cfg, &mut eff4);
        assert!(sw.ports()[1].link.busy(&eff4));
        let sent = eff4.scheduled();
        assert!(matches!(&sent[..], [(_, Event::PacketArrive { .. })]));
        // Pause duration was accounted on the data class.
        assert_eq!(sw.ports()[1].link.counters.pause_events, 1);
        assert_eq!(
            sw.ports()[1].link.counters.pause_duration,
            Duration::from_us(8)
        );
    }

    #[test]
    fn lossy_mode_drops_when_buffer_exhausted_and_lossless_does_not() {
        let topo = topo3();
        let mut cfg = cfg();
        cfg.buffer_bytes = 20_000;
        cfg.flow_control = FlowControlMode::LossyGoBackN;
        let mut sw = new_switch(&topo);
        let mut eff = Effects::default();
        for i in 0..40 {
            sw.handle_arrival(
                SimTime::from_us(1),
                PortId(0),
                Box::new(data_packet(i * 1000)),
                &cfg,
                &topo,
                &mut eff,
            );
        }
        assert!(sw.ports()[1].link.counters.dropped_packets > 0);
        assert!(sw.buffer_used <= cfg.buffer_bytes);

        // Same arrival pattern in lossless mode never drops data; it pauses.
        let mut cfg2 = cfg.clone();
        cfg2.flow_control = FlowControlMode::Lossless;
        cfg2.buffer_bytes = 200_000;
        let mut sw2 = new_switch(&topo);
        let mut eff2 = Effects::default();
        for i in 0..40 {
            sw2.handle_arrival(
                SimTime::from_us(1),
                PortId(0),
                Box::new(data_packet(i * 1000)),
                &cfg2,
                &topo,
                &mut eff2,
            );
        }
        assert_eq!(sw2.ports()[1].link.counters.dropped_packets, 0);
        assert!(!eff2.out.pfc_events.is_empty());
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_spreads_flows() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let tor = b.add_switch();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let tor2 = b.add_switch();
        b.link(h0, tor, LINE, Duration::from_us(1));
        b.link(tor, s0, LINE, Duration::from_us(1));
        b.link(tor, s1, LINE, Duration::from_us(1));
        b.link(s0, tor2, LINE, Duration::from_us(1));
        b.link(s1, tor2, LINE, Duration::from_us(1));
        b.link(h1, tor2, LINE, Duration::from_us(1));
        let topo = b.build();
        let sw = Switch::new(tor, topo.ports(tor), &cfg());
        let candidates = topo.next_hops(tor, h1);
        assert_eq!(candidates.len(), 2);
        let mut uses = [0u32; 2];
        for f in 0..256u64 {
            let p = sw.ecmp_pick(f, candidates);
            let again = sw.ecmp_pick(f, candidates);
            assert_eq!(p, again, "must be deterministic per flow");
            let slot = candidates.iter().position(|c| *c == p).unwrap();
            uses[slot] += 1;
        }
        assert!(
            uses[0] > 64 && uses[1] > 64,
            "ECMP should spread flows: {uses:?}"
        );
    }

    /// The six built-in fabrics and the four committed corpus files.
    fn every_topology() -> Vec<(&'static str, TopologySpec)> {
        use hpcc_topology::{
            corpus, dumbbell, fat_tree, leaf_spine, star, testbed_pod, FatTreeParams,
        };
        let d = Duration::from_us(1);
        let fabric = Bandwidth::from_gbps(400);
        let mut all = vec![
            ("star", star(9, LINE, d)),
            ("dumbbell", dumbbell(4, 4, LINE, fabric, d)),
            ("testbed_pod", testbed_pod(d)),
            ("leaf_spine", leaf_spine(4, 3, 4, LINE, fabric, d)),
            ("fat_tree small", fat_tree(FatTreeParams::small())),
            ("fat_tree paper", fat_tree(FatTreeParams::paper())),
        ];
        for (name, text) in [
            ("abilene", include_str!("../../../corpus/abilene.edges")),
            (
                "dragonfly_9",
                include_str!("../../../corpus/dragonfly_9.edges"),
            ),
            (
                "jellyfish_12",
                include_str!("../../../corpus/jellyfish_12.edges"),
            ),
            (
                "rocketfuel_pop",
                include_str!("../../../corpus/rocketfuel_pop.edges"),
            ),
        ] {
            all.push((
                name,
                corpus::parse(text).expect("committed corpus file").build(),
            ));
        }
        all
    }

    /// The egress ports a packet *without* a stamped route takes from the
    /// switch behind `from`'s NIC to `to`: each switch of `switches` (indexed
    /// by node) forwards it by its own table lookup, and the port it kicks is
    /// the port it queued the packet on.
    fn hop_by_hop(
        topo: &TopologySpec,
        switches: &mut [Option<Switch>],
        cfg: &SimConfig,
        pkt: Packet,
        from: NodeId,
        to: NodeId,
    ) -> Vec<PortId> {
        assert_eq!(pkt.route, Route::default());
        let mut ports = Vec::new();
        let nic = topo.ports(from)[0];
        let (mut node, mut ingress) = (nic.peer_node, nic.peer_port);
        while node != to {
            let sw = switches[node.index()]
                .as_mut()
                .expect("paths cross switches");
            let mut eff = Effects::default();
            sw.handle_arrival(SimTime::ZERO, ingress, Box::new(pkt), cfg, topo, &mut eff);
            let (_, egress) = eff.kicks.pop().expect("routable: the packet was queued");
            ports.push(egress);
            let out = topo.ports(node)[egress.index()];
            (node, ingress) = (out.peer_node, out.peer_port);
        }
        ports
    }

    #[test]
    fn stamped_route_is_the_hop_by_hop_table_lookup_in_both_directions() {
        let mut cfg = cfg();
        // Nothing is ever transmitted here: no drop, no pause, whatever
        // piles up.
        cfg.buffer_bytes = u64::MAX / 4;
        for (name, topo) in every_topology() {
            let mut switches: Vec<Option<Switch>> = (0..topo.node_count() as u32)
                .map(NodeId)
                .map(|n| {
                    (topo.kind(n) == NodeKind::Switch).then(|| Switch::new(n, topo.ports(n), &cfg))
                })
                .collect();
            let hosts = topo.hosts();
            let seed = 0x5EED_0023;
            let mut rng = SplitMix64::new(seed);
            let (mut multi_hop, mut ecmp_choices) = (0, 0);
            for i in 0..240 {
                let src = hosts[rng.next_below(hosts.len() as u64) as usize];
                let dst = hosts[rng.next_below(hosts.len() as u64) as usize];
                if src == dst {
                    continue;
                }
                let flow = rng.next_u64();
                let case = format!("{name}, seed {seed:#x}, draw {i}: flow {flow:#x} {src}->{dst}");
                let data = Packet::data(FlowId(flow), src, dst, 0, 1000, SimTime::ZERO);
                let ack = Packet::ack_for(&data, 1000, false);
                let out = hop_by_hop(&topo, &mut switches, &cfg, data, src, dst);
                let back = hop_by_hop(&topo, &mut switches, &cfg, ack, dst, src);
                let route = stamped_route(&topo, flow, src, dst);
                let stamped = |ports: &[u16], len: u8| -> Vec<PortId> {
                    ports[..len as usize]
                        .iter()
                        .map(|&p| PortId(p as u32))
                        .collect()
                };
                assert!(
                    out.len() <= MAX_INT_HOPS && back.len() <= MAX_INT_HOPS,
                    "{case}"
                );
                assert_eq!(stamped(&route.ahead, route.ahead_len), out, "{case}");
                assert_eq!(stamped(&route.back, route.back_len), back, "{case}");
                assert_eq!(route.hop, 0, "{case}");
                multi_hop += (out.len() > 1) as u32;
                ecmp_choices +=
                    topo.switches()
                        .iter()
                        .any(|&sw| topo.next_hops(sw, dst).len() > 1) as u32;
            }
            // The check means something on every fabric but the star and
            // the single-path trees: paths cross several switches, and
            // somewhere ECMP has a choice to make.
            if name != "star" {
                assert!(multi_hop > 100, "{name}: {multi_hop} multi-switch paths");
            }
            if !["star", "dumbbell", "testbed_pod", "abilene"].contains(&name) {
                assert!(
                    ecmp_choices > 100,
                    "{name}: {ecmp_choices} flows with an ECMP choice"
                );
            }
        }
    }

    #[test]
    fn a_packet_follows_its_stamp_and_an_unstamped_hop_falls_back_to_the_table() {
        let topo = topo3();
        let cfg = cfg();
        let mut sw = new_switch(&topo);
        // The table sends flow 7 to host 1 out of port 1; a stamp of port 2
        // wins, and counts the hop.
        let mut stamped = data_packet(0);
        stamped.route = Route::new(&[PortId(2)], &[PortId(0)]);
        let mut eff = Effects::default();
        sw.handle_arrival(
            SimTime::ZERO,
            PortId(0),
            Box::new(stamped),
            &cfg,
            &topo,
            &mut eff,
        );
        assert_eq!(eff.kicks, vec![(sw.id, PortId(2))]);
        let mut out = Effects::default();
        sw.try_transmit(SimTime::ZERO, PortId(2), &cfg, &mut out);
        let forwarded = out
            .scheduled()
            .into_iter()
            .find_map(|(_, e)| match e {
                Event::PacketArrive { packet, .. } => Some(*packet),
                _ => None,
            })
            .unwrap();
        assert_eq!(forwarded.route.hop, 1);
        // The same packet arriving once more has no stamped hop left: the
        // table forwards it, to port 1.
        let mut eff = Effects::default();
        sw.handle_arrival(
            SimTime::ZERO,
            PortId(0),
            Box::new(forwarded),
            &cfg,
            &topo,
            &mut eff,
        );
        assert_eq!(eff.kicks, vec![(sw.id, PortId(1))]);
        // And with no stamped hop and no table entry (node 9 does not
        // exist) it is dropped and counted at the ingress, as ever.
        let mut lost = data_packet(0);
        lost.dst = NodeId(9);
        let mut eff = Effects::default();
        sw.handle_arrival(
            SimTime::ZERO,
            PortId(0),
            Box::new(lost),
            &cfg,
            &topo,
            &mut eff,
        );
        assert!(eff.kicks.is_empty());
        assert_eq!(sw.ports()[0].link.counters.dropped_packets, 1);
    }

    /// Drain `eff`'s queue; the keys of the `PortReady`s of `port` in it.
    fn port_readies(eff: &mut Effects, port: PortId) -> Vec<Key> {
        std::iter::from_fn(|| eff.queue.pop_keyed())
            .filter_map(|(key, ev)| {
                matches!(ev, Event::PortReady { port: p, .. } if p == port).then_some(key)
            })
            .collect()
    }

    #[test]
    fn a_switch_port_pushes_its_port_ready_only_while_frames_wait() {
        use crate::config::QueueingConfig;
        let topo = topo3();
        for queueing in [
            QueueingConfig::strict_priority(2),
            QueueingConfig::dwrr(vec![3, 1]),
        ] {
            let scheduler = queueing.label();
            let mut cfg = cfg();
            cfg.queueing = queueing;
            let sw_id = topo.switches()[0];
            let mut sw = Switch::new(sw_id, topo.ports(sw_id), &cfg);
            let egress = PortId(1);
            // Three packets in each class out of port 1, served until the
            // port is empty: DWRR is left with a moved cursor and credit.
            let mut eff = Effects::default();
            for i in 0..6 {
                let mut pkt = data_packet(i * 1000);
                pkt.priority = Priority::data_class((i % 2) as u8);
                sw.handle_arrival(
                    SimTime::ZERO,
                    PortId(0),
                    Box::new(pkt),
                    &cfg,
                    &topo,
                    &mut eff,
                );
            }
            // Each transmit pushes its `PortReady` exactly when frames wait
            // behind it; the next transmit is handled when the frame ends.
            let mut now = SimTime::ZERO;
            for sent in 1..=6 {
                let mut eff = Effects::at(now);
                assert!(!sw.ports[egress.index()].link.busy(&eff));
                sw.try_transmit(now, egress, &cfg, &mut eff);
                let port = &sw.ports[egress.index()];
                assert!(port.link.busy(&eff));
                assert_eq!(port.holds_frames(), sent < 6);
                let ready = port.link.ready_key();
                let pushed = if sent < 6 { vec![ready] } else { vec![] };
                let case = format!("{scheduler}: after {sent} of 6");
                assert_eq!(port_readies(&mut eff, egress), pushed, "{case}");
                now = ready.0;
            }
            if let Scheduler::Dwrr { deficit, .. } = &sw.ports[egress.index()].sched {
                assert!(deficit.iter().any(|&d| d != 0), "credit left to disturb");
            }
            // A kick on the emptied port changes nothing and produces
            // nothing.
            let before = format!("{sw:?}");
            let mut idle = Effects::at(SimTime::from_us(1));
            sw.try_transmit(SimTime::from_us(1), egress, &cfg, &mut idle);
            assert_eq!(format!("{sw:?}"), before, "{scheduler}");
            assert!(
                idle.kicks.is_empty() && idle.scheduled().is_empty(),
                "{scheduler}"
            );

            // One more frame leaves the port empty and busy. Two frames
            // queued before it frees, into a class the peer has paused,
            // push its `PortReady` once, under the reserved key; its kick
            // finds nothing to send yet.
            let mut eff = Effects::at(now);
            sw.handle_arrival(
                now,
                PortId(0),
                Box::new(data_packet(0)),
                &cfg,
                &topo,
                &mut eff,
            );
            sw.try_transmit(now, egress, &cfg, &mut eff);
            let ready = sw.ports[egress.index()].link.ready_key();
            let pause = Packet::pfc(Priority::DATA, true);
            sw.handle_arrival(now, egress, Box::new(pause), &cfg, &topo, &mut eff);
            for seq in [1000, 2000] {
                let pkt = Box::new(data_packet(seq));
                sw.handle_arrival(now, PortId(0), pkt, &cfg, &topo, &mut eff);
            }
            assert!(sw.ports[egress.index()].link.class_paused(Priority::DATA));
            assert_eq!(port_readies(&mut eff, egress), [ready], "{scheduler}");
            let mut eff = Effects::at(ready.0);
            sw.try_transmit(ready.0, egress, &cfg, &mut eff);
            assert!(eff.scheduled().is_empty(), "{scheduler}: paused");
            assert!(sw.ports[egress.index()].holds_frames());

            // So does a PFC frame queued on a port that sent its last frame
            // with nothing behind it.
            let ctrl = PortId(2);
            let mut eff = Effects::at(now);
            sw.send_pfc(now, ctrl, Priority::DATA, true, &mut eff);
            sw.try_transmit(now, ctrl, &cfg, &mut eff);
            let ready = sw.ports[ctrl.index()].link.ready_key();
            assert_eq!(port_readies(&mut eff, ctrl), []);
            sw.send_pfc(now, ctrl, Priority::DATA, false, &mut eff);
            assert_eq!(port_readies(&mut eff, ctrl), [ready], "{scheduler}");
        }
    }
}
