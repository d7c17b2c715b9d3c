//! The host NIC model (§4.2 of the paper).
//!
//! Each host has one NIC port. On the send side a per-flow scheduler mirrors
//! the paper's credit-based flow scheduler: it round-robins over flows whose
//! pacing gap has elapsed and whose sending window has room, and transmits
//! one packet at a time at line rate. ACK/NACK/CNP control packets always
//! take precedence over data. On the receive side, every data packet is
//! acknowledged (echoing the INT records and the ECN mark), DCQCN CNPs are
//! generated at most once per [`CNP_INTERVAL`], and loss recovery is either
//! go-back-N (NACK with the expected byte) or IRN-style selective repeat.
//!
//! Congestion control is a per-flow plug-in (`hpcc-cc`); the host feeds it
//! ACK/CNP/loss/timer events and reads back `(window, rate)`.

use crate::config::SimConfig;
use crate::engine::{Effects, Event};
use crate::fault::fault_rng;
use crate::link::Link;
use crate::output::FlowRecord;
use hpcc_cc::{build_cc, AckEvent, CongestionControl};
use hpcc_topology::PortDesc;
use hpcc_types::rng::SplitMix64;
use hpcc_types::{
    Bandwidth, Duration, FlowSpec, NodeId, Packet, PacketKind, PortId, Priority, Route, SimTime,
    MTU_PAYLOAD,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Minimum gap between two CNPs a receiver sends for one flow: the 50 µs of
/// the DCQCN notification-point specification.
const CNP_INTERVAL: Duration = Duration::from_us(50);

/// Sender-side state of one flow.
///
/// The fields [`Host::may_transmit`] reads for a link with no class paused
/// come first and fill the record's first cache line: the window, the
/// sequence numbers, the pacer, `finished` and `spec.size`. The
/// retransmission queue follows; the check reads it only once every byte has
/// been sent once.
#[repr(C, align(64))]
struct SenderFlow {
    /// Cumulatively acknowledged bytes.
    snd_una: u64,
    /// Next new byte to transmit.
    snd_nxt: u64,
    /// The CC window, cached from `cc.state()`.
    window: u64,
    /// Earliest time the pacer allows the next packet of this flow.
    next_avail: SimTime,
    finished: bool,
    spec: FlowSpec,
    /// IRN: packet offsets queued for retransmission.
    rtx_queue: BTreeSet<u64>,
    /// The CC rate, cached from `cc.state()`.
    rate: Bandwidth,
    cc: Box<dyn CongestionControl>,
    /// IRN: packet offsets known to have been received out of order.
    sacked: BTreeSet<u64>,
    /// Last time a go-back-N rollback was performed (NACK dedup).
    last_rollback: Option<SimTime>,
    /// Last time `snd_una` advanced (RTO reference).
    last_progress: SimTime,
    /// Pending CC timer event time (to avoid duplicate chains).
    timer_at: Option<SimTime>,
    /// Egress port at every switch of the flow's path, out and back (stamped
    /// on every data packet so no switch looks the destination up).
    route: Route,
    /// Dense slot of this flow in the receiver's table (stamped on every
    /// data packet so the receiver indexes without a hash lookup).
    dst_slot: u32,
    /// Whether an RTO check chain is running.
    rto_armed: bool,
}

// `may_transmit`'s fields, `spec.size` the last of them, within the first
// cache line.
const _: () = assert!(
    std::mem::offset_of!(SenderFlow, spec) + std::mem::offset_of!(FlowSpec, size) + 8 <= 64
);
// Every flow a host starts holds one record for the rest of the run; a
// field that fattens it fails the build instead of a campaign's RSS bound.
const _: () = assert!(std::mem::size_of::<SenderFlow>() <= 256);

impl SenderFlow {
    fn new(
        now: SimTime,
        spec: FlowSpec,
        dst_slot: u32,
        route: Route,
        cc: Box<dyn CongestionControl>,
    ) -> SenderFlow {
        let state = cc.state();
        SenderFlow {
            snd_una: 0,
            snd_nxt: 0,
            window: state.window,
            next_avail: now,
            finished: false,
            spec,
            rtx_queue: BTreeSet::new(),
            rate: state.rate,
            cc,
            sacked: BTreeSet::new(),
            last_rollback: None,
            last_progress: now,
            timer_at: None,
            route,
            dst_slot,
            rto_armed: false,
        }
    }
    fn inflight(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }
    fn has_data_to_send(&self) -> bool {
        self.snd_nxt < self.spec.size || !self.rtx_queue.is_empty()
    }
    fn window_open(&self) -> bool {
        self.inflight() < self.window
    }
    fn refresh_cc(&mut self) {
        let s = self.cc.state();
        self.window = s.window;
        self.rate = s.rate;
    }
    /// The data class of the next packet this flow would emit (its head
    /// retransmission, or the next new byte).
    fn next_class(&self, cfg: &SimConfig) -> Priority {
        let seq = self.rtx_queue.first().copied().unwrap_or(self.snd_nxt);
        Priority::data_class(cfg.queueing.tag_class(self.spec.priority, seq))
    }
}

/// Flow `i` has gained data to send: make sure the ascending `active` list
/// holds it.
fn activate(active: &mut Vec<u32>, i: usize) {
    if let Err(at) = active.binary_search(&(i as u32)) {
        active.insert(at, i as u32);
    }
}

/// Receiver-side state of one flow.
#[derive(Default)]
struct ReceiverFlow {
    /// Next in-order byte expected.
    expected: u64,
    /// IRN: out-of-order byte ranges received (`start -> end`).
    ooo: BTreeMap<u64, u64>,
    last_cnp: Option<SimTime>,
    last_nack: Option<SimTime>,
}

/// A host with a single NIC port.
pub struct Host {
    /// Node id of this host.
    pub id: NodeId,
    /// The NIC's wire: line rate, PFC pause state (legacy runs only ever
    /// toggle data class 0), fault state and the port counters.
    pub(crate) link: Link,
    ctrl_queue: VecDeque<Box<Packet>>,
    /// Every flow this host started, in start order: a flow's index here is
    /// the `src_slot` its packets carry and the `slot` of its timer events.
    flows: Vec<SenderFlow>,
    /// Flow indices, ascending: every unfinished flow with data to send, and
    /// perhaps some that no longer have any. An entry is added where a flow
    /// gains data — its start, a go-back-N or RTO rollback, an IRN
    /// retransmission queued — and dropped lazily, when a frame starts
    /// ([`Host::start_wire`]). The scheduler visits it instead of every flow
    /// the host ever started.
    active: Vec<u32>,
    rr_cursor: usize,
    /// Receiver-side flow state, indexed by the packet's `dst_slot` (dense
    /// per-host slots assigned by the simulator at flow registration).
    recv: Vec<ReceiverFlow>,
    wake_at: Option<SimTime>,
    /// Effective NIC rate while straggling (`None` = configured line rate).
    fault_rate: Option<Bandwidth>,
    /// This node's stream for degraded-link iid loss.
    fault_rng: SplitMix64,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("flows", &self.flows.len())
            .field("ready", &self.link.ready_key())
            .finish()
    }
}

impl Host {
    /// Build a host from its (single) topology port descriptor; `seed` is the
    /// run's, for the fault-loss stream.
    pub fn new(id: NodeId, ports: &[PortDesc], seed: u64) -> Self {
        assert_eq!(
            ports.len(),
            1,
            "the host model supports exactly one NIC port (host {id} has {})",
            ports.len()
        );
        Host {
            id,
            link: Link::new(id, PortId(0), &ports[0]),
            ctrl_queue: VecDeque::with_capacity(16),
            flows: Vec::new(),
            active: Vec::new(),
            rr_cursor: 0,
            recv: Vec::new(),
            wake_at: None,
            fault_rate: None,
            fault_rng: fault_rng(seed, id),
        }
    }

    /// Size the sender table for the `senders` flows registered at this
    /// host and the receiver table for the `receivers` flows registered
    /// towards it, before the run: a table grown by doubling holds up to
    /// twice the records it needs, for the rest of the run.
    pub(crate) fn reserve_tables(&mut self, senders: usize, receivers: usize) {
        self.flows.reserve_exact(senders);
        self.recv.reserve_exact(receivers);
    }

    /// Set or clear the straggler NIC rate (`None` restores line rate).
    pub(crate) fn set_straggle(&mut self, rate: Option<Bandwidth>) {
        self.fault_rate = rate;
    }

    /// Number of unfinished sender flows.
    pub(crate) fn unfinished_flows(&self) -> usize {
        self.flows.iter().filter(|f| !f.finished).count()
    }

    /// The current (window, rate) of a flow, if it exists.
    #[cfg(test)]
    fn flow_state(&self, flow: hpcc_types::FlowId) -> Option<(u64, Bandwidth)> {
        let f = self.flows.iter().find(|f| f.spec.id == flow)?;
        Some((f.window, f.rate))
    }

    /// Register a new flow at its start time and try to transmit.
    pub(crate) fn flow_start(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        dst_slot: u32,
        route: Route,
        cfg: &SimConfig,
        eff: &mut Effects,
    ) {
        if spec.src == spec.dst || spec.size == 0 {
            // Degenerate flows complete immediately (the workload generator
            // never produces them, but stay robust).
            eff.out.flows.push(FlowRecord {
                id: spec.id,
                src: spec.src,
                dst: spec.dst,
                size: spec.size,
                start: now,
                finish: now,
                prio: spec.priority.wire_code(),
            });
            return;
        }
        let cc = build_cc(&cfg.cc, self.link.bandwidth(), cfg.base_rtt, MTU_PAYLOAD);
        let idx = self.flows.len();
        self.flows
            .push(SenderFlow::new(now, spec, dst_slot, route, cc));
        // The largest index yet: `active` stays in ascending order.
        self.active.push(idx as u32);
        self.ensure_cc_timer(idx, now, eff);
        eff.kicks.push((self.id, PortId(0)));
    }

    /// Ensure a CC timer event chain exists if the algorithm wants one.
    fn ensure_cc_timer(&mut self, idx: usize, now: SimTime, eff: &mut Effects) {
        let f = &mut self.flows[idx];
        if f.finished {
            return;
        }
        if let Some(t) = f.cc.next_timer() {
            let t = t.max(now + Duration::from_ns(1));
            let need = match f.timer_at {
                None => true,
                Some(cur) => cur <= now || t < cur,
            };
            if need {
                f.timer_at = Some(t);
                eff.schedule(
                    t,
                    Event::CcTimer {
                        node: self.id,
                        slot: idx as u32,
                    },
                );
            }
        }
    }

    /// A previously scheduled CC timer fired.
    pub(crate) fn handle_cc_timer(&mut self, now: SimTime, slot: u32, eff: &mut Effects) {
        let idx = slot as usize;
        let Some(f) = self.flows.get_mut(idx) else {
            return;
        };
        if f.finished {
            return;
        }
        if f.timer_at.is_some_and(|t| t <= now) {
            f.timer_at = None;
        }
        if f.cc.next_timer().is_some_and(|t| t <= now) {
            f.cc.on_timer(now);
            f.refresh_cc();
        }
        self.ensure_cc_timer(idx, now, eff);
        eff.kicks.push((self.id, PortId(0)));
    }

    /// Retransmission-timeout check (lossy modes).
    pub(crate) fn handle_rto(
        &mut self,
        now: SimTime,
        slot: u32,
        cfg: &SimConfig,
        eff: &mut Effects,
    ) {
        let idx = slot as usize;
        let Some(f) = self.flows.get_mut(idx) else {
            return;
        };
        if f.finished {
            f.rto_armed = false;
            return;
        }
        if now.saturating_since(f.last_progress) >= cfg.rto() && f.inflight() > 0 {
            // Timeout: go back to the last acknowledged byte.
            f.snd_nxt = f.snd_una;
            f.rtx_queue.clear();
            f.sacked.clear();
            f.cc.on_loss(now);
            f.last_progress = now;
            f.refresh_cc();
            f.next_avail = now;
            activate(&mut self.active, idx);
        }
        if f.inflight() > 0 || f.has_data_to_send() {
            eff.schedule(
                now + cfg.rto(),
                Event::RtoCheck {
                    node: self.id,
                    slot,
                },
            );
        } else {
            f.rto_armed = false;
        }
        eff.kicks.push((self.id, PortId(0)));
    }

    /// The host asked to be woken (pacing gap elapsed).
    pub(crate) fn handle_wake(&mut self, now: SimTime, eff: &mut Effects) {
        if self.wake_at.is_some_and(|t| t <= now) {
            self.wake_at = None;
        }
        eff.kicks.push((self.id, PortId(0)));
    }

    fn enqueue_ctrl(&mut self, pkt: Box<Packet>, eff: &mut Effects) {
        self.ctrl_queue.push_back(pkt);
        eff.kicks.push((self.id, PortId(0)));
    }

    /// Handle a packet arriving at the NIC. The packet's box is consumed
    /// here: a data packet's box goes back out as its acknowledgement, every
    /// other box is recycled into the arena's pool.
    pub(crate) fn handle_arrival(
        &mut self,
        now: SimTime,
        _port: PortId,
        pkt: Box<Packet>,
        cfg: &SimConfig,
        eff: &mut Effects,
    ) {
        match pkt.kind {
            PacketKind::Pfc { class, pause } => self.link.set_paused(now, class, pause, eff),
            PacketKind::Data => return self.receive_data(now, pkt, cfg, eff),
            PacketKind::Ack | PacketKind::Nack | PacketKind::SackNack | PacketKind::Cnp => {
                self.receive_control(now, &pkt, cfg, eff)
            }
        }
        eff.recycle(pkt);
    }

    /// Receiver role: handle an arriving data packet. A data packet produces
    /// at most one reply (ACK / NACK / SACK-NACK) plus at most one CNP. The
    /// reply is the arrived packet itself, converted in place — it echoes
    /// the flow, endpoints, INT records, timestamp and slots as they stand —
    /// so its box is recycled only when no reply is due.
    fn receive_data(
        &mut self,
        now: SimTime,
        mut pkt: Box<Packet>,
        cfg: &SimConfig,
        eff: &mut Effects,
    ) {
        eff.out.packets_delivered += 1;
        let slot = pkt.dst_slot as usize;
        if self.recv.len() <= slot {
            self.recv.resize_with(slot + 1, ReceiverFlow::default);
        }
        let r = &mut self.recv[slot];
        let (seq, payload, ecn_ce) = (pkt.seq, pkt.payload, pkt.ecn_ce);
        let seq_end = seq + payload;
        // DCQCN notification point: CNP on ECN-marked arrivals, at most one
        // per CNP_INTERVAL. It follows the reply out, in a box of its own,
        // and is built here — before the reply turns the packet's route
        // round in place — so that `reversed()` is its way back either way.
        let mut cnp = None;
        if ecn_ce && cfg.cc.needs_cnp() {
            let due = r
                .last_cnp
                .is_none_or(|t| now.saturating_since(t) >= CNP_INTERVAL);
            if due {
                r.last_cnp = Some(now);
                let mut p = Packet::cnp(pkt.flow, pkt.src, pkt.dst);
                p.src_slot = pkt.src_slot;
                p.dst_slot = pkt.dst_slot;
                p.route = pkt.route.reversed();
                cnp = Some(eff.alloc_packet(p));
            }
        }
        let mut reply = true;
        if cfg.flow_control.selective_repeat() {
            // IRN-style selective repeat: keep out-of-order data.
            if seq <= r.expected {
                r.expected = r.expected.max(seq_end);
                // Absorb any stored blocks now contiguous with `expected`.
                while let Some((&s, &e)) = r.ooo.range(..=r.expected).next_back() {
                    r.ooo.remove(&s);
                    if e > r.expected {
                        r.expected = e;
                    }
                }
                let finished = pkt.ack_flags.flow_finished && r.expected >= seq_end;
                pkt.become_ack(r.expected, finished);
            } else {
                r.ooo.insert(seq, seq_end);
                pkt.become_sack_nack(r.expected, seq, payload);
            }
        } else {
            // Go-back-N: every in-order packet is ACKed; out-of-order data
            // is dropped and NACKed.
            if seq == r.expected {
                r.expected = seq_end;
                let finished = pkt.ack_flags.flow_finished;
                pkt.become_ack(r.expected, finished);
            } else if seq < r.expected {
                // Duplicate (e.g. retransmission overlap): re-ACK.
                pkt.become_ack(r.expected, false);
            } else {
                // Gap: request go-back-N, rate-limited.
                let due = r
                    .last_nack
                    .is_none_or(|t| now.saturating_since(t) >= cfg.nack_interval());
                if due {
                    r.last_nack = Some(now);
                    pkt.become_nack(r.expected);
                } else {
                    reply = false;
                }
            }
        }
        if reply {
            self.enqueue_ctrl(pkt, eff);
        } else {
            eff.recycle(pkt);
        }
        if let Some(cnp) = cnp {
            self.enqueue_ctrl(cnp, eff);
        }
    }

    /// Sender role: handle ACK / NACK / SACK-NACK / CNP for one of our flows.
    fn receive_control(&mut self, now: SimTime, pkt: &Packet, cfg: &SimConfig, eff: &mut Effects) {
        // The control packet echoes the sender-side slot the data packet was
        // stamped with; the id check preserves the old hash-miss semantics
        // for packets that do not belong to any of our flows.
        let idx = pkt.src_slot as usize;
        let Some(f) = self.flows.get_mut(idx) else {
            return;
        };
        if f.spec.id != pkt.flow || f.finished {
            return;
        }
        match pkt.kind {
            PacketKind::Ack => {
                let newly = pkt.seq.saturating_sub(f.snd_una);
                if newly > 0 {
                    f.snd_una = pkt.seq;
                    f.last_progress = now;
                    eff.record_goodput(f.spec.id, now, newly);
                    // Drop retransmission bookkeeping below the new left
                    // edge; on the lossless path there never is any.
                    if !f.rtx_queue.is_empty() {
                        f.rtx_queue = f.rtx_queue.split_off(&pkt.seq);
                    }
                    if !f.sacked.is_empty() {
                        f.sacked = f.sacked.split_off(&pkt.seq);
                    }
                    if f.snd_nxt < f.snd_una {
                        f.snd_nxt = f.snd_una;
                    }
                }
                let rtt = now.saturating_since(pkt.ts_sent);
                let ev = AckEvent {
                    now,
                    ack_seq: pkt.seq,
                    snd_nxt: f.snd_nxt,
                    newly_acked: newly,
                    ecn_echo: pkt.ack_flags.ecn_echo,
                    rtt,
                    int: &pkt.int,
                };
                f.cc.on_ack(&ev);
                f.refresh_cc();
                if f.snd_una >= f.spec.size {
                    f.finished = true;
                    let spec = &f.spec;
                    eff.out.flows.push(FlowRecord {
                        id: spec.id,
                        src: spec.src,
                        dst: spec.dst,
                        size: spec.size,
                        start: spec.start,
                        finish: now,
                        prio: spec.priority.wire_code(),
                    });
                }
            }
            PacketKind::Nack => {
                // Go-back-N: everything before `pkt.seq` is received.
                if pkt.seq > f.snd_una {
                    f.snd_una = pkt.seq;
                    f.last_progress = now;
                    eff.record_goodput(f.spec.id, now, 0);
                }
                let rollback_due = f
                    .last_rollback
                    .is_none_or(|t| now.saturating_since(t) >= cfg.nack_interval());
                if rollback_due && f.snd_nxt > f.snd_una {
                    f.snd_nxt = f.snd_una;
                    f.next_avail = now;
                    f.last_rollback = Some(now);
                    f.cc.on_loss(now);
                    f.refresh_cc();
                    activate(&mut self.active, idx);
                }
            }
            PacketKind::SackNack => {
                // IRN: bytes before `pkt.seq` received in order, the block
                // `[sack_start, sack_start+sack_len)` received out of
                // order; everything in between is missing.
                if pkt.seq > f.snd_una {
                    f.snd_una = pkt.seq;
                    f.last_progress = now;
                }
                f.sacked.insert(pkt.sack_start);
                // Queue the missing packets between snd_una and the
                // sacked block for retransmission (blocks below earlier
                // sacks were already queued when those sacks arrived;
                // the `sacked.contains` check below skips them).
                let mut off = f.snd_una;
                while off < pkt.sack_start {
                    if !f.sacked.contains(&off) && off < f.snd_nxt {
                        f.rtx_queue.insert(off);
                    }
                    off += MTU_PAYLOAD;
                }
                let loss_due = f
                    .last_rollback
                    .is_none_or(|t| now.saturating_since(t) >= cfg.nack_interval());
                if loss_due && !f.rtx_queue.is_empty() {
                    f.last_rollback = Some(now);
                    f.cc.on_loss(now);
                }
                if !f.rtx_queue.is_empty() {
                    activate(&mut self.active, idx);
                    if loss_due {
                        f.refresh_cc();
                    }
                }
            }
            PacketKind::Cnp => {
                f.cc.on_cnp(now);
                f.refresh_cc();
            }
            _ => {}
        }
        self.ensure_cc_timer(idx, now, eff);
        eff.kicks.push((self.id, PortId(0)));
    }

    /// Round-robin pick of a flow that may transmit right now. A flow whose
    /// next packet's data class is PFC-paused is skipped (moot on the legacy
    /// path, where an all-classes pause returns before the pick).
    ///
    /// The scan visits the active flows from the first index at or after
    /// `rr_cursor`, wrapping at the list's end. That is the order in which a
    /// scan of every flow the host ever started visits them — `rr_cursor,
    /// rr_cursor + 1, …`, wrapping at the table's end — and a flow outside
    /// the list has no data, so `may_transmit` is false for it: both scans
    /// pick the same flow.
    fn pick_flow(&mut self, now: SimTime, cfg: &SimConfig) -> Option<usize> {
        let n = self.flows.len();
        let any_paused = self.link.any_data_paused();
        let active = &self.active;
        let from = active.partition_point(|&i| (i as usize) < self.rr_cursor);
        let idx = active[from..]
            .iter()
            .chain(&active[..from])
            .map(|&i| i as usize)
            .find(|&i| self.may_transmit(i, now, any_paused, cfg))?;
        self.rr_cursor = if idx + 1 == n { 0 } else { idx + 1 };
        Some(idx)
    }

    /// Whether flow `idx` has a packet to send that its window, its pacer
    /// and PFC all allow right now.
    #[inline]
    fn may_transmit(&self, idx: usize, now: SimTime, any_paused: bool, cfg: &SimConfig) -> bool {
        let f = &self.flows[idx];
        !f.finished
            && f.has_data_to_send()
            && f.window_open()
            && f.next_avail <= now
            && !(any_paused && self.link.class_paused(f.next_class(cfg)))
    }

    /// Earliest pacing instant among flows that are blocked only by pacing.
    fn earliest_wake(&self, now: SimTime) -> Option<SimTime> {
        self.active
            .iter()
            .map(|&i| &self.flows[i as usize])
            .filter(|f| {
                !f.finished && f.has_data_to_send() && f.window_open() && f.next_avail > now
            })
            .map(|f| f.next_avail)
            .min()
    }

    /// Try to start transmitting the next packet on the NIC.
    pub(crate) fn try_transmit(&mut self, now: SimTime, cfg: &SimConfig, eff: &mut Effects) {
        if self.link.busy(eff) {
            // Whatever kicked the NIC waits for the frame on the wire to end,
            // whose `PortReady` may have been left out (`start_wire`).
            self.link.push_ready(eff);
            return;
        }
        if self.link.held() {
            return;
        }
        // Control traffic (ACK/NACK/CNP) always goes first.
        if let Some(pkt) = self.ctrl_queue.pop_front() {
            self.start_wire(now, pkt, cfg, eff);
            return;
        }
        if self.link.all_data_paused(cfg.queueing.classes()) {
            return;
        }
        let Some(idx) = self.pick_flow(now, cfg) else {
            // Nothing ready: if a flow is only waiting for its pacer, ask to
            // be woken at that instant.
            if let Some(t) = self.earliest_wake(now) {
                let need = match self.wake_at {
                    None => true,
                    Some(cur) => cur <= now || t < cur,
                };
                if need {
                    self.wake_at = Some(t);
                    eff.schedule(t, Event::HostWake { node: self.id });
                }
            }
            return;
        };
        // Build the next data packet of the chosen flow.
        let f = &mut self.flows[idx];
        let seq = f.rtx_queue.pop_first().unwrap_or(f.snd_nxt);
        let payload = (f.spec.size - seq).min(MTU_PAYLOAD);
        let mut pkt = eff.alloc_data(f.spec.id, f.spec.src, f.spec.dst, seq, payload, now);
        // Stamp the data class: PIAS bytes-sent demotion or the static
        // FlowPriority mapping (class 0 — Priority::DATA — on the legacy
        // single-class path, which alloc_data already set).
        pkt.priority = Priority::data_class(cfg.queueing.tag_class(f.spec.priority, seq));
        pkt.src_slot = idx as u32;
        pkt.dst_slot = f.dst_slot;
        pkt.route = f.route;
        if seq + payload >= f.spec.size {
            pkt.ack_flags.flow_finished = true;
        }
        if seq == f.snd_nxt {
            f.snd_nxt = seq + payload;
        }
        // Pace the next packet of this flow at its CC rate.
        let wire = pkt.wire_size(cfg.int_enabled);
        f.next_avail = now + f.rate.tx_time(wire);
        if cfg.flow_control.lossy() && !f.rto_armed {
            f.rto_armed = true;
            eff.schedule(
                now + cfg.rto(),
                Event::RtoCheck {
                    node: self.id,
                    slot: idx as u32,
                },
            );
        }
        eff.out.packets_sent += 1;
        self.start_wire(now, pkt, cfg, eff);
    }

    /// Put one packet on the NIC's wire. Its `PortReady` goes into the queue
    /// at once if the NIC may have something to send when the frame ends: a
    /// reply queued, or a flow with data, which its window, its pacer or PFC
    /// may release exactly then. Otherwise it is left out, and whatever gives
    /// the NIC something to send kicks it: a kick while the frame is on the
    /// wire pushes the event (`try_transmit`).
    fn start_wire(&mut self, now: SimTime, pkt: Box<Packet>, cfg: &SimConfig, eff: &mut Effects) {
        let wire = pkt.wire_size(cfg.int_enabled);
        // Straggler: serialize at the reduced NIC rate while the window is
        // active; fault-free runs take the line rate untouched.
        let tx_time = match self.fault_rate {
            Some(rate) => rate.tx_time(wire),
            None => self.link.tx_time(wire),
        };
        self.link
            .transmit(now, pkt, wire, tx_time, &mut self.fault_rng, eff);
        // Drop the entries of `active` that have nothing left to send.
        let flows = &self.flows;
        self.active.retain(|&i| {
            let f = &flows[i as usize];
            !f.finished && f.has_data_to_send()
        });
        if !self.ctrl_queue.is_empty() || !self.active.is_empty() {
            self.link.push_ready(eff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowControlMode;
    use hpcc_cc::{CcAlgorithm, DcqcnConfig};
    use hpcc_topology::TopologyBuilder;
    use hpcc_types::{FlowId, IntHeader};

    const LINE: Bandwidth = Bandwidth::from_gbps(100);
    const RTT: Duration = Duration::from_us(13);

    fn build_host(id: u32) -> Host {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch();
        b.link(h0, s, LINE, Duration::from_us(1));
        b.link(h1, s, LINE, Duration::from_us(1));
        let topo = b.build();
        Host::new(NodeId(id), topo.ports(NodeId(id)), 1)
    }

    fn hpcc_cfg() -> SimConfig {
        SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, RTT)
    }

    fn flow(id: u64, size: u64) -> FlowSpec {
        FlowSpec::new(FlowId(id), NodeId(0), NodeId(1), size, SimTime::ZERO)
    }

    #[test]
    fn flow_start_sends_at_line_rate_until_window_fills() {
        let cfg = hpcc_cfg();
        let mut h = build_host(0);
        let mut eff = Effects::default();
        let route = Route::new(&[PortId(1)], &[PortId(0)]);
        h.flow_start(SimTime::ZERO, flow(1, 10_000_000), 0, route, &cfg, &mut eff);
        assert_eq!(h.unfinished_flows(), 1);
        // Drive the NIC: kick → transmit → port ready → transmit …
        let mut e = Effects::default();
        let mut now = SimTime::ZERO;
        let mut sent = 0;
        for _ in 0..1000 {
            h.try_transmit(now, &cfg, &mut e);
            if e.out.packets_sent == sent {
                break;
            }
            sent += 1;
            // Every data packet carries the flow's route; the flow still has
            // data, so the NIC's `PortReady` is pushed at once, under the key
            // the transmit reserved, and popping it advances time and frees
            // the NIC.
            let mut ready = None;
            while let Some((key, ev)) = e.queue.pop_keyed() {
                match ev {
                    Event::PortReady { .. } => ready = Some(key),
                    Event::PacketArrive { packet, .. } => assert_eq!(packet.route, route),
                    _ => {}
                }
            }
            let ready = ready.expect("a NIC with data left pushes its PortReady");
            assert_eq!(ready, h.link.ready_key());
            assert!(h.link.busy(&e));
            e.key = ready;
            assert!(!h.link.busy(&e));
            now = ready.0;
        }
        // The HPCC window is one BDP + MTU ≈ 163.5 KB → ~148 packets of 1106 B
        // wire (1000 B payload) before the window closes.
        let winit = LINE.bdp_bytes(RTT) + 1000;
        let expected = winit / 1000;
        assert!(
            (sent as i64 - expected as i64).unsigned_abs() <= 2,
            "sent {sent}, expected about {expected}"
        );
        // While the window is closed nothing more is sent even when paced.
        let mut e = Effects::at(now);
        h.try_transmit(now, &cfg, &mut e);
        assert_eq!(e.out.packets_sent, 0);
    }

    #[test]
    fn ack_opens_window_and_completes_flow() {
        let cfg = hpcc_cfg();
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 2_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        // Send both packets, the second once the first has left the NIC.
        let mut e = Effects::at(SimTime::ZERO);
        h.try_transmit(SimTime::ZERO, &cfg, &mut e);
        h.try_transmit(SimTime::ZERO, &cfg, &mut e);
        assert_eq!(e.out.packets_sent, 1, "the NIC is busy");
        e.key = h.link.ready_key();
        h.try_transmit(e.key.0, &cfg, &mut e);
        assert_eq!(e.out.packets_sent, 2);
        // ACK the full flow.
        let mut data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 1000, 1000, SimTime::ZERO);
        data.ack_flags.flow_finished = true;
        let ack = Packet::ack_for(&data, 2000, true);
        let mut e2 = Effects::default();
        h.handle_arrival(
            SimTime::from_us(10),
            PortId(0),
            Box::new(ack),
            &cfg,
            &mut e2,
        );
        assert_eq!(e2.out.flows.len(), 1);
        let rec = e2.out.flows[0];
        assert_eq!(rec.size, 2000);
        assert_eq!(rec.finish, SimTime::from_us(10));
        assert_eq!(h.unfinished_flows(), 0);
    }

    #[test]
    fn receiver_acks_in_order_data_and_echoes_int_and_ecn() {
        let cfg = hpcc_cfg();
        let mut h = build_host(1);
        let mut pkt = Packet::data(
            FlowId(9),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            SimTime::from_us(1),
        );
        pkt.ecn_ce = true;
        pkt.int.push_hop(
            4,
            hpcc_types::IntHopRecord {
                bandwidth: LINE,
                ts: SimTime::from_us(2),
                tx_bytes: 5000,
                rx_bytes: 5000,
                qlen: 777,
            },
        );
        let mut eff = Effects::default();
        h.handle_arrival(
            SimTime::from_us(3),
            PortId(0),
            Box::new(pkt),
            &cfg,
            &mut eff,
        );
        assert_eq!(eff.out.packets_delivered, 1);
        assert_eq!(h.ctrl_queue.len(), 1);
        let ack = &h.ctrl_queue[0];
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.seq, 1000);
        assert!(ack.ack_flags.ecn_echo);
        assert_eq!(ack.int.n_hops, 1);
        assert_eq!(ack.int.hops()[0].qlen, 777);
        // The data packet's own box, turned around in place, is the ACK the
        // reference constructor builds.
        assert_eq!(**ack, Packet::ack_for(&pkt, 1000, false));
        // The ACK goes out before any data when the port is kicked.
        let mut e2 = Effects::at(SimTime::from_us(3));
        h.try_transmit(SimTime::from_us(3), &cfg, &mut e2);
        let went_out = e2.scheduled().iter().any(|(_, ev)| {
            matches!(ev, Event::PacketArrive { packet, .. } if packet.kind == PacketKind::Ack)
        });
        assert!(went_out);
    }

    #[test]
    fn receiver_nacks_gaps_in_gbn_mode_and_sender_rolls_back() {
        let cfg = hpcc_cfg();
        let mut h = build_host(1);
        // Packet 0 arrives, then packet 2 (gap at 1000..2000).
        let p0 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        let p2 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 2000, 1000, SimTime::ZERO);
        let mut eff = Effects::default();
        h.handle_arrival(SimTime::from_us(1), PortId(0), Box::new(p0), &cfg, &mut eff);
        h.handle_arrival(SimTime::from_us(2), PortId(0), Box::new(p2), &cfg, &mut eff);
        let kinds: Vec<PacketKind> = h.ctrl_queue.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PacketKind::Ack, PacketKind::Nack]);
        assert_eq!(h.ctrl_queue[1].seq, 1000, "NACK carries the expected byte");
        assert_eq!(*h.ctrl_queue[1], Packet::nack_for(&p2, 1000));
        // A second out-of-order packet within the NACK interval does not
        // produce another NACK.
        let p3 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 3000, 1000, SimTime::ZERO);
        h.handle_arrival(SimTime::from_us(3), PortId(0), Box::new(p3), &cfg, &mut eff);
        assert_eq!(h.ctrl_queue.len(), 2);

        // Sender side: a NACK rolls snd_nxt back and notifies CC.
        let mut sender = build_host(0);
        let mut e = Effects::default();
        sender.flow_start(
            SimTime::ZERO,
            flow(9, 100_000),
            0,
            Route::default(),
            &cfg,
            &mut e,
        );
        // Transmit a few packets.
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            let mut e2 = Effects::at(now);
            sender.try_transmit(now, &cfg, &mut e2);
            assert_eq!(e2.out.packets_sent, 1);
            now += Duration::from_ns(100);
        }
        let nack = {
            let d = Packet::data(FlowId(9), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
            Packet::nack_for(&d, 1000)
        };
        let mut e3 = Effects::default();
        sender.handle_arrival(
            SimTime::from_us(5),
            PortId(0),
            Box::new(nack),
            &cfg,
            &mut e3,
        );
        let f = &sender.flows[0];
        assert_eq!(f.snd_una, 1000);
        assert_eq!(f.snd_nxt, 1000, "go-back-N rolls back to the expected byte");
    }

    #[test]
    fn irn_receiver_keeps_out_of_order_data() {
        let mut cfg = hpcc_cfg();
        cfg.flow_control = FlowControlMode::LossyIrn;
        let mut h = build_host(1);
        let p0 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        let p2 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 2000, 1000, SimTime::ZERO);
        let p1 = Packet::data(FlowId(9), NodeId(0), NodeId(1), 1000, 1000, SimTime::ZERO);
        let mut eff = Effects::default();
        h.handle_arrival(SimTime::from_us(1), PortId(0), Box::new(p0), &cfg, &mut eff);
        h.handle_arrival(SimTime::from_us(2), PortId(0), Box::new(p2), &cfg, &mut eff);
        h.handle_arrival(SimTime::from_us(3), PortId(0), Box::new(p1), &cfg, &mut eff);
        let kinds: Vec<PacketKind> = h.ctrl_queue.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PacketKind::Ack, PacketKind::SackNack, PacketKind::Ack]
        );
        assert_eq!(
            *h.ctrl_queue[1],
            Packet::sack_nack_for(&p2, 1000, 2000, 1000)
        );
        // Final cumulative ACK covers all three packets: the stored
        // out-of-order block was absorbed.
        assert_eq!(h.ctrl_queue[2].seq, 3000);
    }

    #[test]
    fn irn_sender_retransmits_only_the_missing_packet() {
        let mut cfg = hpcc_cfg();
        cfg.flow_control = FlowControlMode::LossyIrn;
        let mut sender = build_host(0);
        let mut e = Effects::default();
        sender.flow_start(
            SimTime::ZERO,
            flow(9, 10_000),
            0,
            Route::default(),
            &cfg,
            &mut e,
        );
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            let mut e2 = Effects::at(now);
            sender.try_transmit(now, &cfg, &mut e2);
            assert_eq!(e2.out.packets_sent, 1);
            now += Duration::from_ns(200);
        }
        assert_eq!(sender.flows[0].snd_nxt, 4000);
        // Receiver reports: expected 1000 (packet at 1000 missing), block
        // [2000, 3000) received out of order.
        let d = Packet::data(FlowId(9), NodeId(0), NodeId(1), 2000, 1000, SimTime::ZERO);
        let sack = Packet::sack_nack_for(&d, 1000, 2000, 1000);
        let mut e3 = Effects::default();
        sender.handle_arrival(
            SimTime::from_us(5),
            PortId(0),
            Box::new(sack),
            &cfg,
            &mut e3,
        );
        let f = &sender.flows[0];
        assert_eq!(f.snd_una, 1000);
        assert!(f.rtx_queue.contains(&1000));
        assert_eq!(f.rtx_queue.len(), 1);
        assert!(!f.rtx_queue.is_empty(), "the retransmission is queued");
        // The retransmission goes out before new data.
        let mut e4 = Effects::at(SimTime::from_us(6));
        sender.try_transmit(SimTime::from_us(6), &cfg, &mut e4);
        let seq = e4
            .scheduled()
            .iter()
            .find_map(|(_, ev)| match ev {
                Event::PacketArrive { packet, .. } if packet.is_data() => Some(packet.seq),
                _ => None,
            })
            .unwrap();
        assert_eq!(seq, 1000);
    }

    #[test]
    fn cnp_generation_is_rate_limited_and_reaches_dcqcn() {
        let cfg = SimConfig::for_cc(
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
            LINE,
            RTT,
        );
        assert!(cfg.cc.needs_cnp());
        let mut rx = build_host(1);
        let mut eff = Effects::default();
        for i in 0..5u64 {
            let mut p = Packet::data(
                FlowId(9),
                NodeId(0),
                NodeId(1),
                i * 1000,
                1000,
                SimTime::ZERO,
            );
            p.ecn_ce = true;
            rx.handle_arrival(
                SimTime::from_us(1 + i),
                PortId(0),
                Box::new(p),
                &cfg,
                &mut eff,
            );
        }
        let cnps = rx
            .ctrl_queue
            .iter()
            .filter(|p| p.kind == PacketKind::Cnp)
            .count();
        assert_eq!(cnps, 1, "only one CNP within the 50 us interval");
        // After the interval a new CNP is allowed.
        let mut p = Packet::data(FlowId(9), NodeId(0), NodeId(1), 9000, 1000, SimTime::ZERO);
        p.ecn_ce = true;
        rx.handle_arrival(SimTime::from_us(60), PortId(0), Box::new(p), &cfg, &mut eff);
        let cnps = rx
            .ctrl_queue
            .iter()
            .filter(|p| p.kind == PacketKind::Cnp)
            .count();
        assert_eq!(cnps, 2);

        // Sender side: the CNP halves the DCQCN rate.
        let mut tx = build_host(0);
        let mut e = Effects::default();
        tx.flow_start(
            SimTime::ZERO,
            flow(9, 1_000_000),
            0,
            Route::default(),
            &cfg,
            &mut e,
        );
        let before = tx.flow_state(FlowId(9)).unwrap().1;
        let cnp = Packet::cnp(FlowId(9), NodeId(0), NodeId(1));
        let mut e2 = Effects::default();
        tx.handle_arrival(
            SimTime::from_us(100),
            PortId(0),
            Box::new(cnp),
            &cfg,
            &mut e2,
        );
        let after = tx.flow_state(FlowId(9)).unwrap().1;
        assert_eq!(after, before.mul_f64(0.5));
    }

    #[test]
    fn replies_and_cnps_set_out_along_the_data_packets_way_back() {
        // A 1 ms base RTT is the NACK interval; arrivals lie further apart
        // than the CNP interval.
        let cfg = SimConfig::for_cc(
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
            LINE,
            Duration::from_ms(1),
        );
        let mut rx = build_host(1);
        let mut eff = Effects::default();
        // Marked data as it reaches its receiver, both switches of its way
        // out crossed: in order (ACK + CNP), after a gap (NACK + CNP), and
        // after the gap again within the NACK interval (the CNP alone — the
        // one case in which no reply turns the packet round first).
        let mut arrived = Vec::new();
        for (at, seq) in [(1, 0), (60, 2000), (120, 3000)] {
            let mut p = Packet::data(FlowId(9), NodeId(0), NodeId(1), seq, 1000, SimTime::ZERO);
            p.ecn_ce = true;
            p.route = Route::new(&[PortId(1), PortId(5)], &[PortId(7), PortId(seq as u32)]);
            while p.route.next_port().is_some() {}
            arrived.push(p);
            rx.handle_arrival(SimTime::from_us(at), PortId(0), Box::new(p), &cfg, &mut eff);
        }
        let sent: Vec<(PacketKind, Route)> =
            rx.ctrl_queue.iter().map(|p| (p.kind, p.route)).collect();
        let way_back = |i: usize| arrived[i].route.reversed();
        assert_eq!(
            sent,
            [
                (PacketKind::Ack, way_back(0)),
                (PacketKind::Cnp, way_back(0)),
                (PacketKind::Nack, way_back(1)),
                (PacketKind::Cnp, way_back(1)),
                (PacketKind::Cnp, way_back(2)),
            ]
        );
        assert_eq!(way_back(2).hop, 0);
        assert_eq!(way_back(2).ahead[..2], [7, 3000]);
    }

    #[test]
    fn dcqcn_flows_get_a_cc_timer_chain() {
        let cfg = SimConfig::for_cc(
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
            LINE,
            RTT,
        );
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 1_000_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        let timer_armed = eff
            .scheduled()
            .iter()
            .any(|(_, e)| matches!(e, Event::CcTimer { .. }));
        assert!(timer_armed, "DCQCN needs its rate/alpha timers");
        // HPCC flows do not need one.
        let cfg2 = hpcc_cfg();
        let mut h2 = build_host(0);
        let mut eff2 = Effects::default();
        h2.flow_start(
            SimTime::ZERO,
            flow(2, 1_000_000),
            0,
            Route::default(),
            &cfg2,
            &mut eff2,
        );
        assert!(!eff2
            .scheduled()
            .iter()
            .any(|(_, e)| matches!(e, Event::CcTimer { .. })));
    }

    #[test]
    fn pfc_pause_stops_data_but_not_acks() {
        let cfg = hpcc_cfg();
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 1_000_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        // Pause the data class.
        h.handle_arrival(
            SimTime::from_us(1),
            PortId(0),
            Box::new(Packet::pfc(Priority::DATA, true)),
            &cfg,
            &mut eff,
        );
        let mut e = Effects::at(SimTime::from_us(2));
        h.try_transmit(SimTime::from_us(2), &cfg, &mut e);
        assert_eq!(e.out.packets_sent, 0, "data is paused");
        // But a queued ACK still goes out.
        let data = Packet::data(FlowId(5), NodeId(1), NodeId(0), 0, 1000, SimTime::ZERO);
        h.handle_arrival(SimTime::from_us(3), PortId(0), Box::new(data), &cfg, &mut e);
        let mut e2 = Effects::at(SimTime::from_us(3));
        h.try_transmit(SimTime::from_us(3), &cfg, &mut e2);
        assert!(e2
            .scheduled()
            .iter()
            .any(|(_, ev)| matches!(ev, Event::PacketArrive { packet, .. } if packet.kind == PacketKind::Ack)));
        // Resume restores data transmission and accounts the pause time.
        let mut e3 = Effects::default();
        h.handle_arrival(
            SimTime::from_us(11),
            PortId(0),
            Box::new(Packet::pfc(Priority::DATA, false)),
            &cfg,
            &mut e3,
        );
        assert_eq!(h.link.counters.pause_duration, Duration::from_us(10));
        let mut e4 = Effects::at(SimTime::from_us(12));
        h.try_transmit(SimTime::from_us(12), &cfg, &mut e4);
        assert_eq!(e4.out.packets_sent, 1);
    }

    #[test]
    fn pacing_schedules_a_wake_when_rate_limited() {
        // Use DCQCN whose rate we can drag far below line rate, so pacing
        // (not the window) is the binding constraint.
        let cfg = SimConfig::for_cc(
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
            LINE,
            RTT,
        );
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 1_000_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        // Cut the rate hard with several CNPs.
        for k in 0..6u64 {
            let cnp = Packet::cnp(FlowId(1), NodeId(0), NodeId(1));
            let mut e = Effects::default();
            h.handle_arrival(
                SimTime::from_us(10 * k),
                PortId(0),
                Box::new(cnp),
                &cfg,
                &mut e,
            );
        }
        // First packet goes out immediately…
        let mut e = Effects::at(SimTime::from_us(100));
        h.try_transmit(SimTime::from_us(100), &cfg, &mut e);
        assert_eq!(e.out.packets_sent, 1);
        // …the second is pacing-blocked, so the host asks for a wake-up.
        let mut e2 = Effects::at(SimTime::from_us(101));
        assert!(!h.link.busy(&e2), "the first frame has left the NIC");
        h.try_transmit(SimTime::from_us(101), &cfg, &mut e2);
        assert_eq!(e2.out.packets_sent, 0);
        let wake = e2
            .scheduled()
            .iter()
            .find_map(|(t, ev)| matches!(ev, Event::HostWake { .. }).then_some(*t));
        assert!(wake.is_some());
        assert!(wake.unwrap() > SimTime::from_us(101));
    }

    #[test]
    fn rto_fires_in_lossy_mode_and_rolls_back() {
        let mut cfg = hpcc_cfg();
        cfg.flow_control = FlowControlMode::LossyGoBackN;
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 10_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        let mut e = Effects::at(SimTime::ZERO);
        h.try_transmit(SimTime::ZERO, &cfg, &mut e);
        let rto_armed = e
            .scheduled()
            .iter()
            .any(|(_, ev)| matches!(ev, Event::RtoCheck { .. }));
        assert!(rto_armed, "lossy mode arms an RTO");
        assert_eq!(h.flows[0].snd_nxt, 1000);
        // Nothing is acknowledged; the RTO check one RTO on rolls back.
        let mut e2 = Effects::default();
        h.handle_rto(SimTime::ZERO + cfg.rto(), 0, &cfg, &mut e2);
        assert_eq!(h.flows[0].snd_nxt, 0);
        // And it re-arms itself.
        assert!(e2
            .scheduled()
            .iter()
            .any(|(_, ev)| matches!(ev, Event::RtoCheck { .. })));
    }

    #[test]
    fn zero_size_and_self_flows_complete_immediately() {
        let cfg = hpcc_cfg();
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::from_us(4),
            FlowSpec::new(FlowId(1), NodeId(0), NodeId(0), 1000, SimTime::from_us(4)),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        h.flow_start(
            SimTime::from_us(4),
            FlowSpec::new(FlowId(2), NodeId(0), NodeId(1), 0, SimTime::from_us(4)),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        assert_eq!(eff.out.flows.len(), 2);
        assert_eq!(h.unfinished_flows(), 0);
    }

    /// The `PortReady`s in `eff`'s queue, by key (drains it).
    fn port_readies(eff: &mut Effects) -> Vec<crate::engine::Key> {
        std::iter::from_fn(|| eff.queue.pop_keyed())
            .filter(|(_, ev)| matches!(ev, Event::PortReady { .. }))
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn an_idle_nic_pushes_no_port_ready_and_a_reply_queued_while_busy_does() {
        let cfg = hpcc_cfg();
        let mut h = build_host(0);
        let mut eff = Effects::at(SimTime::ZERO);
        // A two-packet flow: after the first frame a flow still has data, so
        // the frame's `PortReady` goes in at once.
        h.flow_start(
            SimTime::ZERO,
            flow(1, 2000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        h.try_transmit(SimTime::ZERO, &cfg, &mut eff);
        assert_eq!(port_readies(&mut eff), [h.link.ready_key()]);
        // After the second the NIC has nothing left to send: no `PortReady`.
        eff.key = h.link.ready_key();
        h.try_transmit(eff.key.0, &cfg, &mut eff);
        assert_eq!(eff.out.packets_sent, 2);
        let ready = h.link.ready_key();
        assert!(port_readies(&mut eff).is_empty());
        // A data packet of another flow arrives while the frame is on the
        // wire: the ACK it queues kicks the NIC, which is still busy, so the
        // kick pushes the `PortReady` under the key reserved at transmit.
        let now = eff.key.0 + Duration::from_ns(40);
        eff.key = (now, u64::MAX);
        let data = Packet::data(FlowId(5), NodeId(1), NodeId(0), 0, 1000, SimTime::ZERO);
        eff.kicks.clear();
        h.handle_arrival(now, PortId(0), Box::new(data), &cfg, &mut eff);
        assert_eq!(eff.kicks, [(h.id, PortId(0))]);
        assert!(h.link.busy(&eff));
        h.try_transmit(now, &cfg, &mut eff);
        h.try_transmit(now, &cfg, &mut eff);
        assert_eq!(port_readies(&mut eff), [ready], "pushed once");
        // At that key the ACK goes out, and the NIC is idle again.
        eff.key = ready;
        h.try_transmit(ready.0, &cfg, &mut eff);
        let sent: Vec<Event> = eff.scheduled().into_iter().map(|(_, ev)| ev).collect();
        assert!(
            matches!(&sent[..], [Event::PacketArrive { packet, .. }] if packet.kind == PacketKind::Ack),
            "{sent:?}"
        );
    }

    #[test]
    fn the_active_list_picks_what_the_full_scan_picked() {
        // Random states of twelve flows — finished or not, a window open or
        // closed, a pacer due or not, a retransmission queued or not, a
        // PIAS class paused or not — with `active` holding exactly the
        // unfinished flows with data plus some stale entries. From every
        // `rr_cursor` in turn, `pick_flow` and `earliest_wake` must answer
        // what a scan of every flow from `rr_cursor`, wrapping, answers.
        use hpcc_types::rng::SplitMix64;
        const FLOWS: u64 = 12;
        let mut cfg = hpcc_cfg();
        cfg.queueing = crate::config::QueueingConfig::pias(vec![3000]);
        let reference_pick = |h: &Host, now: SimTime| {
            let n = h.flows.len();
            let any_paused = h.link.any_data_paused();
            (h.rr_cursor..n)
                .chain(0..h.rr_cursor)
                .find(|&i| h.may_transmit(i, now, any_paused, &cfg))
        };
        let reference_wake = |h: &Host, now: SimTime| {
            h.flows
                .iter()
                .filter(|f| {
                    !f.finished && f.has_data_to_send() && f.window_open() && f.next_avail > now
                })
                .map(|f| f.next_avail)
                .min()
        };
        let mut rng = SplitMix64::new(17);
        let (mut picked, mut woken) = (0, 0);
        for state in 0..500 {
            let mut h = build_host(0);
            let mut eff = Effects::default();
            for id in 0..FLOWS {
                h.flow_start(
                    SimTime::ZERO,
                    flow(id, 10_000),
                    0,
                    Route::default(),
                    &cfg,
                    &mut eff,
                );
            }
            let now = SimTime::from_us(10);
            for f in &mut h.flows {
                f.finished = rng.next_below(5) == 0;
                f.snd_una = 1000 * rng.next_below(11);
                f.snd_nxt = (f.snd_una + 1000 * rng.next_below(4)).min(10_000);
                f.window = 1000 * rng.next_below(4);
                f.next_avail =
                    now + Duration::from_ns(rng.next_below(200)) - Duration::from_ns(100);
                if rng.next_below(4) == 0 && f.snd_nxt > 0 {
                    f.rtx_queue.insert(1000 * rng.next_below(f.snd_nxt / 1000));
                }
            }
            h.active = (0..FLOWS as u32)
                .filter(|&i| {
                    let f = &h.flows[i as usize];
                    !f.finished && f.has_data_to_send() || rng.next_below(4) == 0
                })
                .collect();
            if rng.next_below(3) == 0 {
                let class = Priority::data_class(rng.next_below(2) as u8);
                h.link.set_paused(now, class, true, &mut eff);
            }
            for cursor in 0..FLOWS as usize {
                h.rr_cursor = cursor;
                let expected = reference_pick(&h, now);
                let expected_cursor = expected.map_or(cursor, |i| (i + 1) % FLOWS as usize);
                assert_eq!(
                    h.pick_flow(now, &cfg),
                    expected,
                    "state {state}, cursor {cursor}"
                );
                assert_eq!(
                    h.rr_cursor, expected_cursor,
                    "state {state}, cursor {cursor}"
                );
                picked += usize::from(expected.is_some());
            }
            let expected = reference_wake(&h, now);
            assert_eq!(h.earliest_wake(now), expected, "state {state}");
            woken += usize::from(expected.is_some());
        }
        // Both answers, and their absence, were common.
        assert!(picked > 1000 && picked < 5000, "{picked} picks");
        assert!(woken > 100 && woken < 450, "{woken} wakes");
    }

    #[test]
    fn int_disabled_acks_do_not_confuse_sender() {
        let mut cfg = hpcc_cfg();
        cfg.int_enabled = false;
        let mut h = build_host(0);
        let mut eff = Effects::default();
        h.flow_start(
            SimTime::ZERO,
            flow(1, 100_000),
            0,
            Route::default(),
            &cfg,
            &mut eff,
        );
        let before = h.flow_state(FlowId(1)).unwrap();
        let d = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        let ack = Packet::ack_for(&d, 1000, false);
        assert_eq!(ack.int, IntHeader::new());
        let mut e = Effects::default();
        h.handle_arrival(SimTime::from_us(10), PortId(0), Box::new(ack), &cfg, &mut e);
        let after = h.flow_state(FlowId(1)).unwrap();
        assert_eq!(before, after, "no INT → HPCC holds its state");
    }
}
