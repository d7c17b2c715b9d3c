//! One egress link: the wire a host NIC or a switch port serializes onto.
//!
//! What HPCC measures and controls is the egress link — the INT record is
//! `(B, ts, txBytes, qLen)` of one (Figure 7), PFC pauses one (§5.1), the
//! host NIC is one (§4.2) — so everything a port knows about its wire lives
//! in one [`Link`], for the host and the switch alike: the peer, the line
//! rate and delay, until when a frame is being serialized, which data
//! classes the peer has paused, the fault state ([`crate::fault`]) and the
//! port's counters. [`Link::transmit`] is the only place a frame goes onto a
//! wire, and [`Link::push_ready`] the only place its `PortReady` is pushed.
//! What differs between the two node kinds stays with them: *which* frame
//! goes next (a host's flow scheduler, a switch's egress queues), how long
//! it takes (a straggling host serializes below its line rate) and when the
//! `PortReady` is needed: only while the node may have something to send on
//! the port when the frame ends — a host while a reply is queued or a flow
//! has data, a switch port while frames wait.

use crate::engine::{Effects, Event, Key};
use crate::fault::LinkDownMode;
use crate::output::PortCounters;
use hpcc_topology::PortDesc;
use hpcc_types::rng::SplitMix64;
use hpcc_types::{Bandwidth, Duration, NodeId, Packet, PortId, Priority, SimTime};

/// A port's line rate with its serialization time per byte resolved once: a
/// rate that divides 8·10¹² ps·bit/s — 10, 25, 40, 50, 100, 200 and 400 Gb/s
/// all do — serializes `n` bytes in exactly `n` times a whole number of
/// picoseconds, so the per-packet 64-bit division of [`Bandwidth::tx_time`]
/// becomes one multiplication with the same result. Any other rate keeps
/// the division.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineRate {
    bandwidth: Bandwidth,
    /// `8·10¹² / bps` when that is whole, else 0.
    ps_per_byte: u64,
}

impl LineRate {
    /// Picoseconds one byte takes at 1 bit/s.
    const PS_PER_BYTE_AT_1BPS: u64 = 8_000_000_000_000;

    pub fn new(bandwidth: Bandwidth) -> Self {
        let bps = bandwidth.as_bps();
        let whole = bps != 0 && Self::PS_PER_BYTE_AT_1BPS % bps == 0;
        LineRate {
            bandwidth,
            ps_per_byte: if whole {
                Self::PS_PER_BYTE_AT_1BPS / bps
            } else {
                0
            },
        }
    }

    /// Exactly `self.bandwidth.tx_time(bytes)`: with `8·10¹² = k·bps` the
    /// quotient `bytes·8·10¹² / bps` is `bytes·k`, and where that overflows
    /// `tx_time` saturates too.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> Duration {
        if self.ps_per_byte != 0 {
            Duration::from_ps(bytes.saturating_mul(self.ps_per_byte))
        } else {
            self.bandwidth.tx_time(bytes)
        }
    }
}

/// The egress side of one port: its wire, and what is known about it.
#[derive(Debug)]
pub(crate) struct Link {
    /// The port this link leaves from.
    node: NodeId,
    port: PortId,
    /// The port it arrives at.
    peer_node: NodeId,
    peer_port: PortId,
    line: LineRate,
    /// One-way propagation delay.
    delay: Duration,
    /// The key `(ready_at, ready_seq)` of the [`Event::PortReady`] that ends
    /// the last frame [`Link::transmit`] started: the port is busy while the
    /// event being handled sorts before it ([`Link::busy`]).
    ready: Key,
    /// Whether that `PortReady` is in the event queue.
    ready_pushed: bool,
    /// PFC pause state by [`Priority::index`]. Only data classes pause: the
    /// control entry is never set.
    paused: [bool; Priority::COUNT],
    /// Since when *any* data class is paused.
    pause_started: Option<SimTime>,
    /// Fault injection: administratively down, and how.
    down: Option<LinkDownMode>,
    /// Extra one-way latency while the link is degraded.
    extra_delay: Duration,
    /// iid frame-loss probability while the link is degraded.
    loss: f64,
    /// Packets and wire bytes lost to fault injection at this egress.
    pub fault_dropped_packets: u64,
    pub fault_dropped_bytes: u64,
    /// Accumulated statistics for this egress.
    pub counters: PortCounters,
}

impl Link {
    /// The link leaving `node` by `port`, as the topology describes it.
    pub fn new(node: NodeId, port: PortId, desc: &PortDesc) -> Self {
        Link {
            node,
            port,
            peer_node: desc.peer_node,
            peer_port: desc.peer_port,
            line: LineRate::new(desc.bandwidth),
            delay: desc.delay,
            ready: (SimTime::ZERO, 0),
            ready_pushed: false,
            paused: [false; Priority::COUNT],
            pause_started: None,
            down: None,
            extra_delay: Duration::ZERO,
            loss: 0.0,
            fault_dropped_packets: 0,
            fault_dropped_bytes: 0,
            counters: PortCounters::default(),
        }
    }

    /// Link capacity.
    #[inline]
    pub fn bandwidth(&self) -> Bandwidth {
        self.line.bandwidth
    }

    /// Serialization time of `wire` bytes at the line rate.
    #[inline]
    pub fn tx_time(&self, wire: u64) -> Duration {
        self.line.tx_time(wire)
    }

    /// The key of the `PortReady` that ends the frame on the wire, or
    /// ended the last one.
    #[inline]
    pub fn ready_key(&self) -> Key {
        self.ready
    }

    /// A frame is being serialized: the event being handled sorts before
    /// the `PortReady` that ends it — true from the transmit until that
    /// event would pop, whether it is in the queue or not.
    #[inline]
    pub fn busy(&self, eff: &Effects) -> bool {
        eff.key < self.ready
    }

    /// Whether the peer has paused this class.
    #[inline]
    pub fn class_paused(&self, class: Priority) -> bool {
        self.paused[class.index()]
    }

    /// Whether any data class is paused.
    #[inline]
    pub fn any_data_paused(&self) -> bool {
        self.paused[1..].iter().any(|&p| p)
    }

    /// Whether each of the `classes` configured data classes is paused (with
    /// one class this is exactly the historical single `data_paused` flag).
    #[inline]
    pub fn all_data_paused(&self, classes: usize) -> bool {
        self.paused[1..=classes].iter().all(|&p| p)
    }

    /// A PFC frame from the peer. Only data classes pause — a frame naming
    /// the control class changes nothing, on a host and a switch alike (no
    /// run produces one) — and a resume kicks the port. The pause counters
    /// measure the interval during which *any* data class is blocked (with a
    /// single data class: exactly that class's pauses).
    pub fn set_paused(&mut self, now: SimTime, class: Priority, pause: bool, eff: &mut Effects) {
        if !class.is_data() {
            return;
        }
        if self.paused[class.index()] != pause {
            let was_any = self.any_data_paused();
            self.paused[class.index()] = pause;
            let is_any = self.any_data_paused();
            if !was_any && is_any {
                self.pause_started = Some(now);
                self.counters.pause_events += 1;
            } else if was_any && !is_any {
                if let Some(start) = self.pause_started.take() {
                    self.counters.pause_duration += now.saturating_since(start);
                }
            }
        }
        if !pause {
            eff.kicks.push((self.node, self.port));
        }
    }

    /// Down in pause mode: the egress holds everything, control included,
    /// until the up transition kicks the port again.
    #[inline]
    pub fn held(&self) -> bool {
        self.down == Some(LinkDownMode::Pause)
    }

    /// Apply (`Some`) or clear (`None`) an administrative down state; see
    /// [`crate::fault`] for what each mode does to traffic.
    pub fn set_down(&mut self, down: Option<LinkDownMode>) {
        self.down = down;
    }

    /// Apply or clear a degraded state (zero delay and zero loss restore
    /// the healthy link).
    pub fn set_degraded(&mut self, extra_delay: Duration, loss: f64) {
        self.extra_delay = extra_delay;
        self.loss = loss;
    }

    /// Put one frame of `wire` bytes on the wire: occupy the port for
    /// `tx_time`, then either lose the frame to a fault — a down link in
    /// drop mode loses every frame, a degraded one loses iid with its `loss`,
    /// drawn on the node's dedicated `fault_rng` stream — or schedule its
    /// arrival at the peer.
    ///
    /// The port's `PortReady` gets its key here, from the queue's sequence
    /// counter just before the arrival's, and counts as handled if it falls
    /// within the horizon ([`Effects::count_port_ready`]). It is pushed by
    /// [`Link::push_ready`], which the caller invokes now or when a frame is
    /// queued behind this one — or never: a switch port that frees with
    /// nothing to send needs no event.
    #[inline]
    pub fn transmit(
        &mut self,
        now: SimTime,
        pkt: Box<Packet>,
        wire: u64,
        tx_time: Duration,
        fault_rng: &mut SplitMix64,
        eff: &mut Effects,
    ) {
        self.ready = (now + tx_time, eff.queue.reserve());
        self.ready_pushed = false;
        eff.count_port_ready(self.ready.0);
        self.counters.tx_bytes += wire;
        if self.down.is_some() || (self.loss > 0.0 && fault_rng.next_f64() < self.loss) {
            self.fault_dropped_packets += 1;
            self.fault_dropped_bytes += wire;
            eff.recycle(pkt);
        } else {
            eff.schedule(
                now + tx_time + self.delay + self.extra_delay,
                Event::PacketArrive {
                    node: self.peer_node,
                    port: self.peer_port,
                    packet: pkt,
                },
            );
        }
    }

    /// Put the `PortReady` of the frame on the wire into the queue, under
    /// the key [`Link::transmit`] reserved for it, unless it is there already
    /// or the frame has ended. A host calls this after a transmit that
    /// leaves a reply queued or a flow with data, and whenever it is kicked
    /// while the frame is on the wire; a switch after a transmit that leaves
    /// frames queued, and whenever it queues one.
    pub fn push_ready(&mut self, eff: &mut Effects) {
        if !self.ready_pushed && self.busy(eff) {
            self.ready_pushed = true;
            let ready = Event::PortReady {
                node: self.node,
                port: self.port,
            };
            eff.queue.push_keyed(self.ready, ready);
        }
    }

    /// Close a pause interval still open at `now` (the last class resumed,
    /// or the run ended).
    pub fn finalize(&mut self, now: SimTime) {
        if let Some(start) = self.pause_started.take() {
            self.counters.pause_duration += now.saturating_since(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::FlowId;

    const DELAY: Duration = Duration::from_us(1);

    /// The link from port 2 of node 3 to port 5 of node 7.
    fn link() -> Link {
        let desc = PortDesc {
            peer_node: NodeId(7),
            peer_port: PortId(5),
            bandwidth: Bandwidth::from_gbps(100),
            delay: DELAY,
        };
        Link::new(NodeId(3), PortId(2), &desc)
    }

    #[test]
    fn transmit_schedules_and_counts_by_link_state() {
        use LinkDownMode::{Drop, Pause};
        const EXTRA: Duration = Duration::from_us(2);
        // (state, how a fault transition sets it, held, what a transmitted
        // frame's flight adds to its serialization — `None`: lost)
        type Set = fn(&mut Link);
        let table: [(&str, Set, bool, Option<Duration>); 5] = [
            ("healthy", |_| {}, false, Some(DELAY)),
            ("held", |l| l.set_down(Some(Pause)), true, None),
            ("down, drop mode", |l| l.set_down(Some(Drop)), false, None),
            ("loss 1.0", |l| l.set_degraded(EXTRA, 1.0), false, None),
            (
                "delay only",
                |l| l.set_degraded(EXTRA, 0.0),
                false,
                Some(DELAY + EXTRA),
            ),
        ];
        let now = SimTime::from_us(5);
        // Whatever the caller says: a straggling host passes more than the
        // line rate's 88 ns.
        let (wire, tx_time) = (1106, Duration::from_ns(350));
        for (state, set, held, flight) in table {
            let mut l = link();
            set(&mut l);
            assert_eq!(l.held(), held, "{state}");
            if held {
                // Nothing is transmitted: the port waits for the up kick.
                continue;
            }
            let mut rng = SplitMix64::new(7);
            let mut eff = Effects::at(now);
            let pkt = Packet::data(FlowId(1), NodeId(3), NodeId(7), 0, 1000, now);
            l.transmit(now, Box::new(pkt), wire, tx_time, &mut rng, &mut eff);
            assert!(l.busy(&eff), "{state}");
            // The `PortReady` takes the seq before the arrival's.
            assert_eq!(l.ready_key(), (now + tx_time, 0), "{state}");
            assert_eq!(l.counters.tx_bytes, wire, "{state}");
            l.push_ready(&mut eff);
            let mut scheduled = std::iter::from_fn(|| eff.queue.pop_keyed());
            let (ready_key, ready) = scheduled.next().expect("PortReady");
            assert!(
                matches!(ready, Event::PortReady { node, port } if (node, port) == (NodeId(3), PortId(2))),
                "{state}: {ready:?}"
            );
            assert_eq!(ready_key, l.ready_key(), "{state}");
            match (flight, scheduled.next()) {
                (Some(flight), Some(((at, 1), Event::PacketArrive { node, port, packet }))) => {
                    assert_eq!((node, port), (NodeId(7), PortId(5)), "{state}");
                    assert_eq!(at, now + tx_time + flight, "{state}");
                    assert_eq!(*packet, pkt, "{state}");
                    assert_eq!((l.fault_dropped_packets, l.fault_dropped_bytes), (0, 0));
                }
                (None, None) => {
                    assert_eq!(
                        (l.fault_dropped_packets, l.fault_dropped_bytes),
                        (1, wire),
                        "{state}"
                    );
                }
                (_, other) => panic!("{state}: {other:?}"),
            }
            assert!(scheduled.next().is_none(), "{state}");
            // Only a link with `loss > 0` that is not down draws.
            let drew = rng.next_u64() != SplitMix64::new(7).next_u64();
            assert_eq!(drew, state == "loss 1.0", "{state}");
            // The clearing transitions restore the healthy link.
            l.set_down(None);
            l.set_degraded(Duration::ZERO, 0.0);
            let mut eff = Effects::default();
            l.transmit(now, Box::new(pkt), wire, tx_time, &mut rng, &mut eff);
            let arrives = eff
                .scheduled()
                .into_iter()
                .find_map(|(at, ev)| matches!(ev, Event::PacketArrive { .. }).then_some(at));
            assert_eq!(arrives, Some(now + tx_time + DELAY), "{state}, cleared");
        }
    }

    #[test]
    fn the_port_is_busy_exactly_until_the_key_of_its_port_ready() {
        let mut l = link();
        let mut rng = SplitMix64::new(7);
        let now = SimTime::from_us(5);
        let mut eff = Effects::at(now);
        assert!(!l.busy(&eff), "a new link is free");
        // Three seqs handed out before the transmit; the frame ends exactly
        // at the horizon.
        for _ in 0..3 {
            eff.queue.reserve();
        }
        let tx_time = Duration::from_ns(88);
        eff.horizon = now + tx_time;
        let pkt = || Box::new(Packet::data(FlowId(1), NodeId(3), NodeId(7), 0, 1000, now));
        l.transmit(now, pkt(), 1106, tx_time, &mut rng, &mut eff);
        let (ready_at, seq) = l.ready_key();
        assert_eq!((ready_at, seq), (now + tx_time, 3));
        assert_eq!(eff.processed, 1, "a PortReady at the horizon counts");
        assert_eq!(eff.clock(), ready_at, "the clock reaches it, pushed or not");
        let ps = Duration::from_ps(1);
        // (key of the event being handled, busy)
        for (key, busy) in [
            ((now, u64::MAX), true),
            ((ready_at - ps, u64::MAX), true),
            ((ready_at, seq - 1), true),
            ((ready_at, seq), false),
            ((ready_at, seq + 1), false),
            ((ready_at + ps, 0), false),
        ] {
            eff.key = key;
            assert_eq!(l.busy(&eff), busy, "{key:?}");
        }
        // The next frame, handled at the first key, ends past the horizon:
        // its `PortReady` is never handled, so it does not count.
        eff.key = (ready_at, seq);
        l.transmit(ready_at, pkt(), 1106, tx_time, &mut rng, &mut eff);
        assert!(l.busy(&eff) && l.ready_key().0 > eff.horizon);
        assert_eq!(eff.processed, 1);
        assert_eq!(eff.clock(), ready_at);
    }

    #[test]
    fn a_port_ready_is_pushed_once_under_its_reserved_key_and_only_while_busy() {
        // A switch port that frees with nothing queued leaves its
        // `PortReady` out; the first frame queued before the port frees
        // pushes it, under the key reserved at transmit, and a second frame
        // does not push it again. It pops between the events around it.
        let mut l = link();
        let mut rng = SplitMix64::new(7);
        let now = SimTime::from_us(5);
        let mut eff = Effects::at(now);
        let tx_time = Duration::from_ns(88);
        let pkt = Packet::data(FlowId(1), NodeId(3), NodeId(7), 0, 1000, now);
        l.transmit(now, Box::new(pkt), 1106, tx_time, &mut rng, &mut eff);
        let ready = l.ready_key();
        // An event at the frame's end pushed after the transmit sorts after
        // its `PortReady`, and the arrival at the peer comes later still.
        eff.schedule(ready.0, Event::Sample);
        eff.key = (now + Duration::from_ns(40), u64::MAX);
        assert!(l.busy(&eff));
        l.push_ready(&mut eff);
        l.push_ready(&mut eff);
        let popped: Vec<_> = std::iter::from_fn(|| eff.queue.pop_keyed()).collect();
        let readies: Vec<Key> = popped
            .iter()
            .filter(|(_, ev)| matches!(ev, Event::PortReady { .. }))
            .map(|(key, _)| *key)
            .collect();
        assert_eq!(readies, [ready], "pushed once, under the reserved key");
        assert!(matches!(popped[0].1, Event::PortReady { .. }));
        assert_eq!(popped.len(), 3);

        // Once the port has freed, nothing is pushed: the enqueue's own kick
        // finds the port free.
        let mut l = link();
        let mut eff = Effects::at(now);
        l.transmit(now, Box::new(pkt), 1106, tx_time, &mut rng, &mut eff);
        eff.key = l.ready_key();
        l.push_ready(&mut eff);
        assert!(eff
            .scheduled()
            .iter()
            .all(|(_, ev)| !matches!(ev, Event::PortReady { .. })));

        // A transmit while the last `PortReady` is in the queue reserves a
        // new key, and the new one is pushed afresh.
        let mut l = link();
        let mut eff = Effects::at(now);
        l.transmit(now, Box::new(pkt), 1106, tx_time, &mut rng, &mut eff);
        l.push_ready(&mut eff);
        let first = l.ready_key();
        eff.key = first;
        l.transmit(first.0, Box::new(pkt), 1106, tx_time, &mut rng, &mut eff);
        l.push_ready(&mut eff);
        let readies: Vec<SimTime> = eff
            .scheduled()
            .into_iter()
            .filter_map(|(t, ev)| matches!(ev, Event::PortReady { .. }).then_some(t))
            .collect();
        assert_eq!(readies, [first.0, first.0 + tx_time]);
    }

    #[test]
    fn pause_accounting_covers_the_interval_any_data_class_is_paused() {
        let (c0, c1) = (Priority::data_class(0), Priority::data_class(1));
        let us = SimTime::from_us;
        // (at µs, class, pause) → (pause events, paused µs so far, kicks so
        // far): two overlapping classes are one interval; a resume kicks the
        // port, changed anything or not; a frame naming the control class
        // changes nothing and kicks nothing.
        let table = [
            ((2, c0, true), (1, 0, 0)),
            ((3, c0, true), (1, 0, 0)),
            ((4, c1, true), (1, 0, 0)),
            ((6, c0, false), (1, 0, 1)),
            ((10, c1, false), (1, 8, 2)),
            ((11, c1, false), (1, 8, 3)),
            ((12, Priority::CONTROL, true), (1, 8, 3)),
            ((13, Priority::CONTROL, false), (1, 8, 3)),
            ((14, c1, true), (2, 8, 3)),
        ];
        let mut l = link();
        let mut eff = Effects::default();
        for ((at, class, pause), (events, paused_us, kicks)) in table {
            l.set_paused(us(at), class, pause, &mut eff);
            let case = format!("{class:?} pause={pause} at {at} us");
            assert_eq!(l.counters.pause_events, events, "{case}");
            assert_eq!(
                l.counters.pause_duration,
                Duration::from_us(paused_us),
                "{case}"
            );
            assert_eq!(eff.kicks, vec![(NodeId(3), PortId(2)); kicks], "{case}");
            assert_eq!(l.class_paused(class), pause && class.is_data(), "{case}");
        }
        assert!(l.any_data_paused() && !l.class_paused(c0));
        assert!(!l.all_data_paused(2) && !l.all_data_paused(1));
        l.set_paused(us(15), c0, true, &mut eff);
        assert!(l.all_data_paused(2) && !l.all_data_paused(3));
        // The end of the run closes the interval open since 14 µs, once.
        l.finalize(us(20));
        assert_eq!(l.counters.pause_duration, Duration::from_us(14));
        l.finalize(us(30));
        assert_eq!(l.counters.pause_duration, Duration::from_us(14));
        assert_eq!(l.counters.pause_events, 2);
    }

    #[test]
    fn cached_ps_per_byte_is_exactly_tx_time() {
        for gbps in [1, 10, 25, 40, 50, 100, 200, 400] {
            let bw = Bandwidth::from_gbps(gbps);
            let line = LineRate::new(bw);
            assert_eq!(line.ps_per_byte, 8000 / gbps, "{gbps} Gb/s multiplies");
            for wire in 1..=9216 {
                assert_eq!(
                    line.tx_time(wire),
                    bw.tx_time(wire),
                    "{wire} B at {gbps} Gb/s"
                );
            }
            // Past the product's u64 range both saturate.
            for wire in [
                u64::MAX / line.ps_per_byte,
                u64::MAX / line.ps_per_byte + 1,
                u64::MAX,
            ] {
                assert_eq!(
                    line.tx_time(wire),
                    bw.tx_time(wire),
                    "{wire} B at {gbps} Gb/s"
                );
            }
        }
        // 8·10¹² / bps is not whole: the division stays.
        for bps in [3_000_000_000, 7_000_000_000, 99_999_999_999, 3] {
            let bw = Bandwidth::from_bps(bps);
            let line = LineRate::new(bw);
            assert_eq!(line.ps_per_byte, 0, "{bps} bit/s divides");
            for wire in [1, 60, 64, 1106, 9216] {
                assert_eq!(
                    line.tx_time(wire),
                    bw.tx_time(wire),
                    "{wire} B at {bps} bit/s"
                );
            }
        }
        let stopped = LineRate::new(Bandwidth::ZERO);
        assert_eq!(stopped.tx_time(64), Duration::MAX);
    }
}
