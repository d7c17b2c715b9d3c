//! The on-wire model: packets and the INT header of the paper's Figure 7.
//!
//! The simulator is packet-level, so a [`Packet`] carries exactly the fields
//! the HPCC design needs: a byte sequence number (RoCE-style PSN expressed in
//! bytes, as in the authors' ns-3 implementation), the per-hop INT records
//! appended by switches, ECN/echo bits, and the timestamp used by RTT-based
//! schemes (TIMELY).

use crate::bandwidth::Bandwidth;
use crate::ids::{FlowId, NodeId, PortId, Priority};
use crate::time::SimTime;

/// Maximum number of INT hop records a packet can carry, and of switches a
/// stamped [`Route`] names per direction. The paper: "path length is often no
/// more than 5 hops" — the fat-tree's longest path, host→ToR→Agg→Core→Agg→
/// ToR→host, crosses five switches; eight leaves room for the imported corpus
/// topologies. A longer path still works: the hops past the eighth carry no
/// INT record and are forwarded by the route table.
pub const MAX_INT_HOPS: usize = 8;

/// Size in bytes of one INT hop record on the wire (Figure 7: 64 bits).
pub const INT_HOP_SIZE: u64 = 8;

/// Bytes of the INT preamble (nHop 4 bits + pathID 12 bits = 2 bytes).
pub const INT_BASE_SIZE: u64 = 2;

/// Data packet header overhead excluding INT: Ethernet + IP + UDP + IB BTH
/// (14 + 20 + 8 + 12 ≈ 54, rounded up to include FCS/preamble effects).
pub const DATA_HEADER_SIZE: u64 = 64;

/// Payload bytes of a full data packet: the paper's 1 KB packets (§5.1).
pub const MTU_PAYLOAD: u64 = 1000;

/// Worst-case INT budget reserved in every data packet when INT is on.
/// §5.1: "we assume each packet in HPCC has an additional 42 bytes in the
/// header. This is a worst-case assumption" — 2-byte preamble + 5 hops × 8
/// bytes.
pub const INT_BUDGET_SIZE: u64 = INT_BASE_SIZE + 5 * INT_HOP_SIZE;

/// Wire size of a full data packet: header, the INT budget when
/// `int_enabled`, and [`MTU_PAYLOAD`].
pub const fn data_wire_size(int_enabled: bool) -> u64 {
    DATA_HEADER_SIZE + if int_enabled { INT_BUDGET_SIZE } else { 0 } + MTU_PAYLOAD
}

/// Base size of an ACK/NACK/CNP before the echoed INT records.
pub const ACK_BASE_SIZE: u64 = 60;

/// Size of a PFC pause/resume frame.
pub const PFC_FRAME_SIZE: u64 = 64;

/// One per-hop telemetry record, written by a switch when the packet is
/// dequeued from the egress port (Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct IntHopRecord {
    /// Egress link capacity `B`.
    pub bandwidth: Bandwidth,
    /// Timestamp `ts` when the packet left the egress port.
    pub ts: SimTime,
    /// Cumulative bytes transmitted by the egress port (`txBytes`).
    pub tx_bytes: u64,
    /// Cumulative bytes received *into* the egress queue (`rxBytes`).
    ///
    /// Not part of the paper's minimal format; carried to support the
    /// HPCC-rxRate ablation of §3.4 (Figure 6).
    pub rx_bytes: u64,
    /// Queue length `qLen` of the egress port at dequeue time, in bytes.
    pub qlen: u64,
}

/// The INT header accumulated along a packet's path (Figure 7). `repr(C)`:
/// `nHop` and `pathID` sit directly ahead of the hop array, so inside a
/// [`Packet`] they close the header line instead of trailing 320 bytes
/// behind it.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct IntHeader {
    /// Number of hops recorded so far (`nHop`).
    pub n_hops: u8,
    /// XOR of switch identifiers along the path (`pathID`); the sender uses a
    /// change in this value to detect rerouting and reset its CC state.
    pub path_id: u16,
    /// Per-hop records, valid for indices `0..n_hops`.
    pub hops: [IntHopRecord; MAX_INT_HOPS],
}

impl IntHeader {
    /// A fresh header as initialised by the sender (`nHop = 0`, `pathID = 0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one hop record, updating `nHop` and `pathID`.
    ///
    /// If the packet has already traversed [`MAX_INT_HOPS`] switches the
    /// record is dropped (mirrors a fixed-size INT budget in hardware).
    pub fn push_hop(&mut self, switch_id: u16, record: IntHopRecord) {
        if (self.n_hops as usize) < MAX_INT_HOPS {
            self.hops[self.n_hops as usize] = record;
            self.n_hops += 1;
        }
        self.path_id ^= switch_id;
    }

    /// The valid hop records.
    pub fn hops(&self) -> &[IntHopRecord] {
        &self.hops[..self.n_hops as usize]
    }

    /// Bytes this header occupies on the wire (Figure 7 / §4.1: 42 bytes for
    /// 5 hops = 2-byte preamble + 8 bytes per hop).
    pub fn wire_size(&self) -> u64 {
        INT_BASE_SIZE + INT_HOP_SIZE * self.n_hops as u64
    }
}

/// The egress port a packet takes at each switch of its path, resolved once
/// when its flow is registered instead of at every hop: a flow keeps one ECMP
/// path for its whole life (the premise of the INT `pathID`, §4.1), so the
/// per-hop route lookup and hash always return what they returned for the
/// flow's first packet.
///
/// A packet carries both directions of its flow. `ahead` is the one it is
/// travelling — a switch forwards out of `ahead[hop]` and counts `hop` up —
/// and `back` is the one its reply will take; turning a data packet into its
/// acknowledgement swaps the two ([`Route::reversed`]). A switch that finds no
/// stamped hop (an empty route, or a path longer than [`MAX_INT_HOPS`]
/// switches) forwards by the route table, which gives the same port.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Route {
    /// Egress ports in the direction of travel, valid for `0..ahead_len`.
    pub ahead: [u16; MAX_INT_HOPS],
    /// Egress ports in the opposite direction, valid for `0..back_len`.
    pub back: [u16; MAX_INT_HOPS],
    /// Switches named in `ahead`.
    pub ahead_len: u8,
    /// Switches named in `back`.
    pub back_len: u8,
    /// Switches of `ahead` already crossed.
    pub hop: u8,
}

impl Route {
    /// A route from the egress ports of the two directions, each cut to the
    /// ports that fit: at the first one above `u16::MAX` and after
    /// [`MAX_INT_HOPS`] of them. What is cut the route table forwards.
    pub fn new(ahead: &[PortId], back: &[PortId]) -> Self {
        fn stamp(ports: &[PortId], into: &mut [u16; MAX_INT_HOPS]) -> u8 {
            let mut n = 0;
            for (slot, port) in into.iter_mut().zip(ports) {
                let Ok(p) = u16::try_from(port.0) else { break };
                *slot = p;
                n += 1;
            }
            n
        }
        let mut route = Route::default();
        route.ahead_len = stamp(ahead, &mut route.ahead);
        route.back_len = stamp(back, &mut route.back);
        route
    }

    /// The stamped egress port at the switch the packet is now at, counting
    /// that switch as crossed; `None` when the route names no port for it.
    #[inline]
    pub fn next_port(&mut self) -> Option<PortId> {
        let hop = self.hop as usize;
        if hop >= self.ahead_len as usize {
            return None;
        }
        let port = *self.ahead.get(hop)?;
        self.hop += 1;
        Some(PortId(port as u32))
    }

    /// The route of the reply: the two directions swapped, no switch
    /// crossed yet.
    #[inline]
    pub fn reversed(&self) -> Route {
        Route {
            ahead: self.back,
            back: self.ahead,
            ahead_len: self.back_len,
            back_len: self.ahead_len,
            hop: 0,
        }
    }
}

/// Flags echoed on acknowledgements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct AckFlags {
    /// The acknowledged data packet carried an ECN CE mark (used by DCQCN's
    /// notification point and DCTCP's fraction estimator).
    pub ecn_echo: bool,
    /// This ACK closes the flow (acknowledges the final byte).
    pub flow_finished: bool,
}

/// What kind of packet this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// Application data from sender to receiver.
    Data,
    /// Per-packet acknowledgement from receiver to sender, echoing INT.
    Ack,
    /// Go-back-N negative acknowledgement: `seq` is the expected byte.
    Nack,
    /// Selective (IRN-style) negative acknowledgement: `seq` is the expected
    /// (cumulative) byte and `sack_start`/`sack_len` describe the
    /// out-of-order block that was received.
    SackNack,
    /// DCQCN congestion notification packet generated by the receiver when
    /// ECN-marked data arrives.
    Cnp,
    /// Priority flow control pause/resume frame (link-local).
    Pfc {
        /// Class being paused or resumed.
        class: Priority,
        /// `true` = pause, `false` = resume.
        pause: bool,
    },
}

/// A simulated packet.
///
/// `repr(C)`, in the order a switch reads it: what forwarding touches — kind,
/// class, marks, the stamped route, the payload length the wire size comes
/// from, and the INT header's `nHop` / `pathID` — fills the first 64 bytes
/// (asserted below), the hop array follows, and what only the two hosts read
/// closes the struct. A switch hop therefore touches that header and the one
/// 40-byte record it writes, wherever the route and the hop count fall.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    /// Kind of packet.
    pub kind: PacketKind,
    /// Priority class this packet travels in.
    pub priority: Priority,
    /// ECN congestion-experienced mark, set by switches on data packets.
    pub ecn_ce: bool,
    /// Acknowledgement flags (ACK/NACK only).
    pub ack_flags: AckFlags,
    /// Egress port at every switch of the flow's path, both directions,
    /// stamped by the sender next to the slots; empty on a hand-built packet,
    /// which switches forward by the route table.
    pub route: Route,
    /// Payload bytes carried (data packets only).
    pub payload: u64,
    /// INT telemetry accumulated along the path (data) or echoed back (ACK).
    pub int: IntHeader,
    /// Flow this packet belongs to (meaningless for PFC frames).
    pub flow: FlowId,
    /// Byte sequence number. For data: offset of the first payload byte.
    /// For ACK/NACK: next expected byte (cumulative acknowledgement).
    pub seq: u64,
    /// Time the corresponding data packet was first emitted by the sender;
    /// echoed on ACKs so the sender can measure the RTT (TIMELY).
    pub ts_sent: SimTime,
    /// Start of the out-of-order block for [`PacketKind::SackNack`].
    pub sack_start: u64,
    /// Length of the out-of-order block for [`PacketKind::SackNack`].
    pub sack_len: u64,
    /// Source host of the *flow* (not of this packet): ACKs for a flow have
    /// the same `src`/`dst` as the data direction, and travel `dst → src`.
    pub src: NodeId,
    /// Destination host of the flow.
    pub dst: NodeId,
    /// Dense index of this flow in the *sending* host's flow table. Stamped
    /// by the sender on data packets and echoed on ACK/NACK/CNP, so the
    /// sender resolves returning control traffic with a direct vector index
    /// instead of a `FlowId` hash lookup (a real NIC's queue-pair number).
    pub src_slot: u32,
    /// Dense index of this flow in the *receiving* host's flow table,
    /// assigned up front by the simulator when the flow is registered and
    /// stamped on every data packet, so the receiver also indexes directly.
    pub dst_slot: u32,
}

// The header a switch reads ends where the hop array begins, at byte 64, and
// the whole packet stays within seven cache lines.
const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(offset_of!(Packet, kind) == 0);
    assert!(offset_of!(Packet, route) + size_of::<Route>() <= offset_of!(Packet, payload));
    assert!(offset_of!(Packet, payload) + 8 <= offset_of!(Packet, int));
    assert!(offset_of!(Packet, int) + offset_of!(IntHeader, path_id) + 2 <= 64);
    assert!(offset_of!(Packet, int) + offset_of!(IntHeader, hops) == 64);
    assert!(size_of::<Packet>() <= 448);
};

impl Packet {
    /// Create a data packet.
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u64,
        ts_sent: SimTime,
    ) -> Self {
        Packet {
            kind: PacketKind::Data,
            flow,
            src,
            dst,
            seq,
            payload,
            priority: Priority::DATA,
            ecn_ce: false,
            int: IntHeader::new(),
            ts_sent,
            ack_flags: AckFlags::default(),
            sack_start: 0,
            sack_len: 0,
            src_slot: 0,
            dst_slot: 0,
            route: Route::default(),
        }
    }

    /// Create an acknowledgement for a data packet, echoing its INT header,
    /// ECN mark and send timestamp, and taking its route the other way.
    pub fn ack_for(data: &Packet, cumulative_ack: u64, flow_finished: bool) -> Self {
        Packet {
            kind: PacketKind::Ack,
            flow: data.flow,
            src: data.src,
            dst: data.dst,
            seq: cumulative_ack,
            payload: 0,
            priority: Priority::CONTROL,
            ecn_ce: false,
            int: data.int,
            ts_sent: data.ts_sent,
            ack_flags: AckFlags {
                ecn_echo: data.ecn_ce,
                flow_finished,
            },
            sack_start: 0,
            sack_len: 0,
            src_slot: data.src_slot,
            dst_slot: data.dst_slot,
            route: data.route.reversed(),
        }
    }

    /// Create a go-back-N NACK requesting retransmission from `expected`.
    pub fn nack_for(data: &Packet, expected: u64) -> Self {
        let mut p = Packet::ack_for(data, expected, false);
        p.kind = PacketKind::Nack;
        p
    }

    /// Create an IRN-style selective NACK: cumulative `expected`, plus the
    /// out-of-order block `[sack_start, sack_start + sack_len)` that arrived.
    pub fn sack_nack_for(data: &Packet, expected: u64, sack_start: u64, sack_len: u64) -> Self {
        let mut p = Packet::ack_for(data, expected, false);
        p.kind = PacketKind::SackNack;
        p.sack_start = sack_start;
        p.sack_len = sack_len;
        p
    }

    /// Re-initialise this packet in place as [`Packet::data`] would build
    /// it, for a pooled box whose previous contents are dead. Every field is
    /// written except the INT hop array, which `n_hops = 0` invalidates — so
    /// the result equals `Packet::data(..)` on everything [`IntHeader::hops`]
    /// exposes, without zeroing and copying the 440-byte struct.
    pub fn reset_to_data(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u64,
        ts_sent: SimTime,
    ) {
        // Destructured without `..` so that a field added to `Packet` or
        // `IntHeader` fails to compile here instead of surviving a reuse.
        let Packet {
            kind,
            flow: p_flow,
            src: p_src,
            dst: p_dst,
            seq: p_seq,
            payload: p_payload,
            priority,
            ecn_ce,
            int:
                IntHeader {
                    n_hops,
                    path_id,
                    hops: _,
                },
            ts_sent: p_ts_sent,
            ack_flags,
            sack_start,
            sack_len,
            src_slot,
            dst_slot,
            route,
        } = self;
        *kind = PacketKind::Data;
        *p_flow = flow;
        *p_src = src;
        *p_dst = dst;
        *p_seq = seq;
        *p_payload = payload;
        *priority = Priority::DATA;
        *ecn_ce = false;
        *n_hops = 0;
        *path_id = 0;
        *p_ts_sent = ts_sent;
        *ack_flags = AckFlags::default();
        *sack_start = 0;
        *sack_len = 0;
        *src_slot = 0;
        *dst_slot = 0;
        *route = Route::default();
    }

    /// Turn this data packet into its acknowledgement in place: the result
    /// equals [`Packet::ack_for`]`(&data, cumulative_ack, flow_finished)`.
    /// Flow, endpoints, INT header, send timestamp and both slots are echoed
    /// as they stand and the route turns round, so the receiver re-emits the
    /// box the data arrived in.
    pub fn become_ack(&mut self, cumulative_ack: u64, flow_finished: bool) {
        self.kind = PacketKind::Ack;
        self.route = self.route.reversed();
        self.seq = cumulative_ack;
        self.payload = 0;
        self.priority = Priority::CONTROL;
        self.ack_flags = AckFlags {
            ecn_echo: self.ecn_ce,
            flow_finished,
        };
        self.ecn_ce = false;
        self.sack_start = 0;
        self.sack_len = 0;
    }

    /// In-place counterpart of [`Packet::nack_for`].
    pub fn become_nack(&mut self, expected: u64) {
        self.become_ack(expected, false);
        self.kind = PacketKind::Nack;
    }

    /// In-place counterpart of [`Packet::sack_nack_for`].
    pub fn become_sack_nack(&mut self, expected: u64, sack_start: u64, sack_len: u64) {
        self.become_ack(expected, false);
        self.kind = PacketKind::SackNack;
        self.sack_start = sack_start;
        self.sack_len = sack_len;
    }

    /// Create a DCQCN CNP for a flow (receiver → sender direction).
    pub fn cnp(flow: FlowId, src: NodeId, dst: NodeId) -> Self {
        Packet {
            kind: PacketKind::Cnp,
            flow,
            src,
            dst,
            seq: 0,
            payload: 0,
            priority: Priority::CONTROL,
            ecn_ce: false,
            int: IntHeader::new(),
            ts_sent: SimTime::ZERO,
            ack_flags: AckFlags::default(),
            sack_start: 0,
            sack_len: 0,
            src_slot: 0,
            dst_slot: 0,
            route: Route::default(),
        }
    }

    /// Create a PFC pause or resume frame for `class`.
    pub fn pfc(class: Priority, pause: bool) -> Self {
        Packet {
            kind: PacketKind::Pfc { class, pause },
            flow: FlowId(u64::MAX),
            src: NodeId(u32::MAX),
            dst: NodeId(u32::MAX),
            seq: 0,
            payload: 0,
            priority: Priority::CONTROL,
            ecn_ce: false,
            int: IntHeader::new(),
            ts_sent: SimTime::ZERO,
            ack_flags: AckFlags::default(),
            sack_start: 0,
            sack_len: 0,
            src_slot: 0,
            dst_slot: 0,
            route: Route::default(),
        }
    }

    /// Bytes this packet occupies on the wire, including headers and any INT
    /// records (`int_enabled` reflects whether the experiment carries INT —
    /// §5.1 accounts the INT overhead explicitly, so size must too).
    pub fn wire_size(&self, int_enabled: bool) -> u64 {
        match self.kind {
            PacketKind::Data => {
                let int = if int_enabled { INT_BUDGET_SIZE } else { 0 };
                DATA_HEADER_SIZE + int + self.payload
            }
            PacketKind::Ack | PacketKind::Nack | PacketKind::SackNack => {
                let int = if int_enabled { self.int.wire_size() } else { 0 };
                ACK_BASE_SIZE + int
            }
            PacketKind::Cnp => ACK_BASE_SIZE,
            PacketKind::Pfc { .. } => PFC_FRAME_SIZE,
        }
    }

    /// True for data packets.
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// True for packets that travel from the flow's receiver back to its
    /// sender (ACK/NACK/CNP), i.e. that are routed `dst → src`.
    pub fn is_reverse(&self) -> bool {
        matches!(
            self.kind,
            PacketKind::Ack | PacketKind::Nack | PacketKind::SackNack | PacketKind::Cnp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(q: u64) -> IntHopRecord {
        IntHopRecord {
            bandwidth: Bandwidth::from_gbps(100),
            ts: SimTime::from_us(3),
            tx_bytes: 1_000_000,
            rx_bytes: 1_100_000,
            qlen: q,
        }
    }

    #[test]
    fn int_header_accumulates_hops_and_path_id() {
        let mut int = IntHeader::new();
        int.push_hop(0x0a0, sample_record(100));
        int.push_hop(0x00b, sample_record(200));
        assert_eq!(int.n_hops, 2);
        assert_eq!(int.path_id, 0x0a0 ^ 0x00b);
        assert_eq!(int.hops()[1].qlen, 200);
    }

    #[test]
    fn int_header_caps_at_max_hops_but_keeps_path_id() {
        let mut int = IntHeader::new();
        for i in 0..(MAX_INT_HOPS + 3) {
            int.push_hop(i as u16 + 1, sample_record(i as u64));
        }
        assert_eq!(int.n_hops as usize, MAX_INT_HOPS);
        let mut expected_path = 0u16;
        for i in 0..(MAX_INT_HOPS + 3) {
            expected_path ^= i as u16 + 1;
        }
        assert_eq!(int.path_id, expected_path);
    }

    #[test]
    fn int_overhead_matches_paper_42_bytes_for_5_hops() {
        let mut int = IntHeader::new();
        for i in 0..5 {
            int.push_hop(i, sample_record(0));
        }
        assert_eq!(int.wire_size(), 42);
        // And the worst-case budget charged on every data packet equals it.
        assert_eq!(INT_BUDGET_SIZE, 42);
    }

    #[test]
    fn data_wire_size_accounts_int_only_when_enabled() {
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        assert_eq!(p.wire_size(true), DATA_HEADER_SIZE + 42 + 1000);
        assert_eq!(p.wire_size(false), DATA_HEADER_SIZE + 1000);
    }

    #[test]
    fn ack_echoes_int_ecn_and_timestamp() {
        let mut data = Packet::data(
            FlowId(7),
            NodeId(2),
            NodeId(5),
            3000,
            1000,
            SimTime::from_us(9),
        );
        data.ecn_ce = true;
        data.int.push_hop(1, sample_record(500));
        let ack = Packet::ack_for(&data, 4000, true);
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.seq, 4000);
        assert_eq!(ack.flow, FlowId(7));
        assert!(ack.ack_flags.ecn_echo);
        assert!(ack.ack_flags.flow_finished);
        assert_eq!(ack.int.n_hops, 1);
        assert_eq!(ack.ts_sent, SimTime::from_us(9));
        assert_eq!(ack.priority, Priority::CONTROL);
        assert!(ack.is_reverse());
    }

    #[test]
    fn nack_and_sack_nack_carry_expected_and_block() {
        let data = Packet::data(FlowId(7), NodeId(2), NodeId(5), 9000, 1000, SimTime::ZERO);
        let nack = Packet::nack_for(&data, 5000);
        assert_eq!(nack.kind, PacketKind::Nack);
        assert_eq!(nack.seq, 5000);
        let sack = Packet::sack_nack_for(&data, 5000, 9000, 1000);
        assert_eq!(sack.kind, PacketKind::SackNack);
        assert_eq!((sack.sack_start, sack.sack_len), (9000, 1000));
    }

    /// `p` with the dead hop records beyond `n_hops` zeroed, so that the
    /// derived `==` compares exactly what `hops()` exposes plus every scalar
    /// field.
    fn visible(mut p: Packet) -> Packet {
        for h in &mut p.int.hops[p.int.n_hops as usize..] {
            *h = IntHopRecord::default();
        }
        p
    }

    #[test]
    fn in_place_replies_equal_the_constructed_ones() {
        for n_hops in [0u16, 5] {
            for (ecn_ce, finished) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut data = Packet::data(
                    FlowId(7),
                    NodeId(2),
                    NodeId(5),
                    9000,
                    1000,
                    SimTime::from_us(9),
                );
                data.priority = Priority::data_class(1);
                data.ecn_ce = ecn_ce;
                data.ack_flags.flow_finished = finished;
                (data.src_slot, data.dst_slot) = (3, 8);
                // Three switches out, two back, all three of the way out
                // crossed when the packet reaches its receiver.
                data.route = Route::new(
                    &[PortId(4), PortId(17), PortId(2)],
                    &[PortId(9), PortId(300)],
                );
                while data.route.next_port().is_some() {}
                for sw in 0..n_hops {
                    data.int.push_hop(sw + 1, sample_record(10 * sw as u64));
                }
                let case = format!("{n_hops} hops, ecn_ce {ecn_ce}, finished {finished}");

                let mut ack = data;
                ack.become_ack(10_000, finished);
                assert_eq!(ack, Packet::ack_for(&data, 10_000, finished), "{case}");
                assert_eq!(ack.int.hops(), data.int.hops(), "{case}");
                // The reply sets out along the data packet's way back.
                assert_eq!(ack.route.hop, 0, "{case}");
                assert_eq!(ack.route.next_port(), Some(PortId(9)), "{case}");
                assert_eq!(ack.route.next_port(), Some(PortId(300)), "{case}");
                assert_eq!(ack.route.next_port(), None, "{case}");
                assert_eq!(ack.route.reversed().ahead, data.route.ahead, "{case}");

                let mut nack = data;
                nack.become_nack(5000);
                assert_eq!(nack, Packet::nack_for(&data, 5000), "{case}");

                let mut sack = data;
                sack.become_sack_nack(5000, 9000, 1000);
                assert_eq!(
                    sack,
                    Packet::sack_nack_for(&data, 5000, 9000, 1000),
                    "{case}"
                );

                // A reply's box that comes back as a data packet: nothing of
                // the SACK-NACK, the marks, the slots or the hops survives.
                sack.reset_to_data(FlowId(1), NodeId(0), NodeId(1), 0, 640, SimTime::from_us(1));
                assert!(sack.int.hops().is_empty(), "{case}");
                let fresh =
                    Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 640, SimTime::from_us(1));
                assert_eq!(visible(sack), fresh, "{case}");
            }
        }
    }

    #[test]
    fn route_hands_out_its_ports_in_order_then_none() {
        let mut route = Route::new(&[PortId(3), PortId(0), PortId(65_535)], &[PortId(1)]);
        assert_eq!((route.ahead_len, route.back_len, route.hop), (3, 1, 0));
        for (crossed, port) in [3, 0, 65_535].into_iter().enumerate() {
            assert_eq!(route.hop as usize, crossed);
            assert_eq!(route.next_port(), Some(PortId(port)));
        }
        // Past the last stamped switch the answer stays `None` and the
        // counter stays put.
        assert_eq!(route.next_port(), None);
        assert_eq!(route.next_port(), None);
        assert_eq!(route.hop, 3);
        let back = route.reversed();
        assert_eq!((back.ahead_len, back.back_len, back.hop), (1, 3, 0));
        assert_eq!(back.reversed().reversed(), back);
        assert_eq!(Route::default().next_port(), None);
    }

    #[test]
    fn route_keeps_only_the_ports_that_fit() {
        // More switches than the route holds: the first eight are stamped.
        let long: Vec<PortId> = (0..MAX_INT_HOPS as u32 + 2).map(PortId).collect();
        let mut route = Route::new(&long, &long[..MAX_INT_HOPS]);
        assert_eq!(route.ahead_len as usize, MAX_INT_HOPS);
        assert_eq!(route.back_len as usize, MAX_INT_HOPS);
        for port in &long[..MAX_INT_HOPS] {
            assert_eq!(route.next_port(), Some(*port));
        }
        assert_eq!(route.next_port(), None);
        // A port index beyond u16 ends the stamp there; nothing after it is
        // stamped either, so no later hop is taken out of turn.
        let wide = Route::new(&[PortId(1), PortId(70_000), PortId(2)], &[]);
        assert_eq!((wide.ahead_len, wide.back_len), (1, 0));
    }

    #[test]
    fn control_packet_sizes() {
        let cnp = Packet::cnp(FlowId(1), NodeId(0), NodeId(1));
        assert_eq!(cnp.wire_size(true), ACK_BASE_SIZE);
        let pfc = Packet::pfc(Priority::DATA, true);
        assert_eq!(pfc.wire_size(true), PFC_FRAME_SIZE);
        match pfc.kind {
            PacketKind::Pfc { class, pause } => {
                assert_eq!(class, Priority::DATA);
                assert!(pause);
            }
            _ => panic!("expected PFC"),
        }
    }
}
