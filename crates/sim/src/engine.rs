//! The discrete-event engine: the event vocabulary and a deterministic
//! time-ordered queue.
//!
//! # Ordering guarantee
//!
//! Events pop in `(time, insertion-seq)` order: earlier times first, and
//! events scheduled at the same instant in the order they were pushed. A run
//! is therefore fully determined by the topology, configuration and flow
//! list — the guarantee every campaign digest rests on.
//!
//! # The indexed event wheel
//!
//! [`EventQueue`] is a bucketed calendar queue, not a binary heap. Simulated
//! time (integer picoseconds) is divided into fixed-width buckets of
//! `2^BUCKET_SHIFT` ps (≈ 33 ns, so a bucket holds ~8 entries on the Figure 11
//! set when the cursor enters it and its sort is short); a ring of
//! `NUM_BUCKETS` buckets covers a sliding window of ~134 µs ahead of the
//! cursor, which is enough for every hot event class (serialization at
//! 100 Gbps ≈ 88 ns/packet, propagation ≈ 1 µs, queue sampling 1–5 µs, DCQCN
//! timers ≈ 55 µs). Events beyond the window — RTO checks and other
//! far-future timers — go to a `BinaryHeap` overflow level and migrate into
//! the ring as the cursor reaches their bucket.
//!
//! Every entry carries its key `(time, seq)` — 40 bytes, written once — so
//! an event may be pushed *later* than its seq was handed out
//! (`EventQueue::reserve`, `EventQueue::push_keyed`) and still pop where
//! a push at reservation time would have: a switch port reserves the key of
//! its `PortReady` with every frame it starts and pushes the event only if
//! a frame waits behind that one (`crate::link`). A bucket the cursor has
//! not reached is a plain `Vec` in push order. When the cursor enters it,
//! the overflow events of that slot join it, one sort by key puts it in pop
//! order, and the bucket is reversed so that `pop` is `Vec::pop`. An event
//! scheduled *into the draining bucket* goes in front of the pending entries
//! with smaller keys, found by a short scan from the pop end.
//! `docs/ARCHITECTURE.md` § *The event-wheel engine* gives the argument; the
//! tests below check it against a reference that keeps `(time, seq)`.
//!
//! Only the buckets between the cursor and the furthest pending near event
//! hold anything (~40 of them), so the ring does not keep a buffer per
//! bucket: when the cursor leaves a drained bucket its buffer goes onto a
//! `spare` stack, and a bucket without a buffer takes the most recently
//! spared one on its first push. A bucket with capacity 0 is empty, and a
//! buffer is spared only in `advance`, when drained, so no entry ever moves
//! with it.

use hpcc_types::{FlowId, NodeId, Packet, PortId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Log2 of the bucket width in picoseconds: 2^15 ps ≈ 33 ns per bucket.
const BUCKET_SHIFT: u32 = 15;

/// Number of buckets in the ring; the window covers
/// `NUM_BUCKETS << BUCKET_SHIFT` ≈ 134 µs of simulated time.
const NUM_BUCKETS: usize = 4096;

/// Everything that can happen in the simulation.
///
/// `PacketArrive` carries its packet boxed: the box comes from (and returns
/// to) the `Effects` packet pool, so the hot path moves an 8-byte pointer
/// through the queue instead of a 440-byte inline `Packet`, without paying
/// an allocation per hop. Every variant fits 24 bytes (asserted below), which
/// keeps a queue entry at 40.
#[derive(Clone, Debug)]
pub enum Event {
    /// A flow (by index into the simulator's flow table) becomes active at
    /// its source host.
    FlowStart(usize),
    /// A port finished serializing the packet it was transmitting and may
    /// start the next one. A switch port's is pushed only while frames wait
    /// (`Link::push_ready`).
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// Port index within the node.
        port: PortId,
    },
    /// A packet fully arrived at a node (serialization + propagation done).
    PacketArrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on the receiving node.
        port: PortId,
        /// The packet itself (pooled; see `Effects::alloc_packet`).
        packet: Box<Packet>,
    },
    /// A host asked to be woken up (pacing gap elapsed).
    HostWake {
        /// The host to wake.
        node: NodeId,
    },
    /// A congestion-control timer (DCQCN rate-increase / alpha timers).
    CcTimer {
        /// Host owning the flow.
        node: NodeId,
        /// Dense index of the flow in the host's sender table.
        slot: u32,
    },
    /// Retransmission-timeout check for a flow (lossy modes).
    RtoCheck {
        /// Host owning the flow.
        node: NodeId,
        /// Dense index of the flow in the host's sender table.
        slot: u32,
    },
    /// Periodic queue sampling for statistics.
    Sample,
    /// Periodic sampling of explicitly traced ports.
    TraceSample,
    /// The next batch of fault-timeline transitions (link down/up, degraded
    /// windows, straggler windows) is due. Scheduled only when the run has a
    /// fault config, so fault-free runs never see it.
    FaultTransition,
}

/// Side effects produced while a node handles one event.
///
/// Node methods schedule through this arena ([`Effects::schedule`]) and
/// never pop the queue or see another node; everything else they produce is
/// appended to its buffers and the simulator applies it, which keeps borrows
/// local and the control flow explicit.
///
/// The simulator owns **one** `Effects` arena for the whole run and clears
/// it between events instead of dropping it, so the per-event buffers reach
/// a high-water mark early and the steady-state event loop performs no
/// allocation. The arena also carries the packet pool. A handler that
/// consumes a data packet either re-emits its box (a switch forwards it, a
/// receiving host turns it into the ACK in place) or recycles it, and a
/// sending host writes the next data packet's header straight into a pooled
/// box ([`Effects::alloc_data`]): no 440-byte `Packet` is built on the stack
/// and copied on the per-packet path.
#[derive(Default, Debug)]
pub(crate) struct Effects {
    /// The run's event queue. Handlers only push ([`Effects::schedule`]);
    /// the simulator's loop is the one place that pops.
    pub queue: EventQueue,
    /// The key of the event being handled, set by the simulator at every
    /// pop; its time is the time now. A link is busy while this
    /// sorts before the key of its last `PortReady` (`Link::busy`).
    pub key: Key,
    /// The run's horizon: events after it are never handled. The simulator
    /// sets it from `SimConfig::end_time` and reads it only from here.
    pub horizon: SimTime,
    /// Events handled so far. A `PortReady` counts when its frame starts
    /// ([`Effects::count_port_ready`]), and never when it pops: a switch
    /// port's may never be pushed.
    pub processed: u64,
    /// The time of the latest `PortReady` counted in `processed`: the run's
    /// clock reaches it whether or not the event is pushed
    /// ([`Effects::clock`]).
    last_ready: SimTime,
    /// Ports that may now be able to start a transmission: the simulator's
    /// LIFO work stack, onto which a transmit pushes the kicks it causes.
    pub kicks: Vec<(NodeId, PortId)>,
    /// Flows that completed (recorded by the sending host).
    pub completions: Vec<crate::output::FlowRecord>,
    /// PFC pause frames emitted (for propagation analysis).
    pub pfc_events: Vec<crate::output::PfcEvent>,
    /// Newly acknowledged bytes per flow (for goodput time series).
    pub goodput: Vec<(FlowId, u64)>,
    /// Data packets handed to receivers during this event.
    pub packets_delivered: u64,
    /// Data packets transmitted by hosts during this event.
    pub packets_sent: u64,
    /// Recycled packet boxes, reused by [`Effects::alloc_packet`]. The boxes
    /// themselves are the resource being pooled (they move into `Event`s and
    /// back), so `Vec<Box<_>>` is the point, not an accident.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Packet>>,
}

/// Upper bound on pooled packet boxes (safety valve, never reached by a
/// well-behaved run: the pool holds at most one box per consumed packet that
/// has not yet been re-emitted).
const PACKET_POOL_CAP: usize = 8192;

impl Effects {
    /// Schedule `event` at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, event);
    }

    /// Count a `PortReady` due at `at` as handled if it falls at or before
    /// the horizon: every event there is handled before the run ends.
    #[inline]
    pub fn count_port_ready(&mut self, at: SimTime) {
        if at <= self.horizon {
            self.processed += 1;
            self.last_ready = self.last_ready.max(at);
        }
    }

    /// The time of the latest event handled, counted `PortReady`s included:
    /// where the run's clock stands once its loop ends.
    pub fn clock(&self) -> SimTime {
        self.key.0.max(self.last_ready)
    }

    /// Effects for an event handled at `now`, after every other event of
    /// that instant: a link whose frame ends by `now` is free.
    #[cfg(test)]
    pub fn at(now: SimTime) -> Effects {
        Effects {
            key: (now, u64::MAX),
            ..Effects::default()
        }
    }

    /// Everything scheduled so far, in pop order (drains the queue).
    #[cfg(test)]
    pub fn scheduled(&mut self) -> Vec<(SimTime, Event)> {
        std::iter::from_fn(|| self.queue.pop()).collect()
    }

    /// Box a packet, reusing a pooled box when one is available. Copies the
    /// whole `Packet`; for the cold kinds (PFC frames, CNPs).
    pub fn alloc_packet(&mut self, pkt: Packet) -> Box<Packet> {
        match self.pool.pop() {
            Some(mut b) => {
                *b = pkt;
                b
            }
            None => Box::new(pkt),
        }
    }

    /// A boxed data packet as [`Packet::data`] would build it, written into
    /// a pooled box in place when one is available.
    pub fn alloc_data(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u64,
        ts_sent: SimTime,
    ) -> Box<Packet> {
        match self.pool.pop() {
            Some(mut b) => {
                b.reset_to_data(flow, src, dst, seq, payload, ts_sent);
                b
            }
            None => Box::new(Packet::data(flow, src, dst, seq, payload, ts_sent)),
        }
    }

    /// Return a consumed packet's box to the pool.
    pub fn recycle(&mut self, b: Box<Packet>) {
        if self.pool.len() < PACKET_POOL_CAP {
            self.pool.push(b);
        }
    }
}

/// Where an event stands in the pop order: its time, then its sequence
/// number — how many sequence numbers the queue had handed out before it.
pub(crate) type Key = (SimTime, u64);

/// A queue entry: its key, and what happens.
type Entry = (Key, Event);

// A field added to `Event` or to the entry would fatten the one record every
// push writes and every sort step moves; fail the build instead.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);
const _: () = assert!(std::mem::size_of::<Entry>() <= 40);

/// An overflow-level entry, ordered for `BinaryHeap` (a max-heap) so that
/// the smallest key is on top.
#[derive(Debug)]
struct Far(Entry);

impl PartialEq for Far {
    fn eq(&self, other: &Self) -> bool {
        self.0 .0 == other.0 .0
    }
}
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0 .0.cmp(&self.0 .0)
    }
}

/// Deterministic time-ordered event queue: an indexed event wheel with a
/// binary-heap overflow level for far-future timers.
#[derive(Debug)]
pub struct EventQueue {
    /// Ring of buckets; the bucket for absolute slot `s` is `s % NUM_BUCKETS`.
    /// Every bucket but the prepared one is in push order; the prepared one
    /// is in *reverse* pop order (next event last).
    buckets: Vec<Vec<Entry>>,
    /// Buffers of drained buckets, most recently spared last. A bucket with
    /// capacity 0 takes one on its first push, so the ring's working set is
    /// the live buckets, not every bucket the cursor ever visited.
    spare: Vec<Vec<Entry>>,
    /// Absolute slot index (`time >> BUCKET_SHIFT`) the cursor is on.
    cursor: u64,
    /// Whether the bucket at `cursor` has been overflow-merged and sorted.
    current_prepared: bool,
    /// Events currently stored in the ring.
    wheel_len: usize,
    /// Far-future events (beyond the ring window at push time).
    overflow: BinaryHeap<Far>,
    /// Sequence numbers handed out so far; also the next one.
    next_seq: u64,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            cursor: 0,
            current_prepared: false,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            peak_len: 0,
        }
    }
}

#[inline]
fn slot_of(time: SimTime) -> u64 {
    time.as_ps() >> BUCKET_SHIFT
}

#[inline]
fn ring_index(slot: u64) -> usize {
    (slot % NUM_BUCKETS as u64) as usize
}

/// Buckets up to this long are sorted by insertion; longer ones (a
/// synchronised burst) by the standard sort, which bounds the worst case.
const INSERTION_SORT_MAX: usize = 64;

/// Sort a bucket by key. Push order is already close to key order — events
/// are pushed as simulated time advances, at `now + δ` for a handful of δ —
/// so on the usual ~8 entries an insertion sort moves each one a few places
/// and beats the general-purpose sort. Keys are unique, so no sort needs to
/// be stable.
fn sort_by_key(bucket: &mut [Entry]) {
    if bucket.len() > INSERTION_SORT_MAX {
        bucket.sort_unstable_by_key(|e| e.0);
        return;
    }
    for i in 1..bucket.len() {
        let key = bucket[i].0;
        let mut j = i;
        while j > 0 && bucket[j - 1].0 > key {
            bucket.swap(j - 1, j);
            j -= 1;
        }
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.reserve();
        self.push_keyed((time, seq), event);
    }

    /// Hand out the next sequence number without pushing anything. An event
    /// pushed later under it ([`EventQueue::push_keyed`]) pops exactly where
    /// one pushed now would have.
    #[inline]
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` under `key`, whose seq came from
    /// [`EventQueue::reserve`] and which sorts after the last key popped.
    pub(crate) fn push_keyed(&mut self, key: Key, event: Event) {
        let slot = slot_of(key.0);
        if slot >= self.cursor + NUM_BUCKETS as u64 {
            self.overflow.push(Far((key, event)));
        } else {
            // Anything at or before the cursor's bucket (the simulator never
            // schedules into the past; this clamps defensively) lands in the
            // current bucket.
            let slot = slot.max(self.cursor);
            let prepared = slot == self.cursor && self.current_prepared;
            let bucket = self.bucket_mut(slot);
            if prepared {
                // The draining bucket is in reverse pop order: the new entry
                // goes just below the pending ones with smaller keys. Those
                // sit at the pop end and are few — under six on average on
                // the fig11 set, none or one for an ACK's 4.8 ns `PortReady`.
                let mut at = bucket.len();
                while at > 0 && bucket[at - 1].0 < key {
                    at -= 1;
                }
                bucket.insert(at, (key, event));
            } else {
                bucket.push((key, event));
            }
            self.wheel_len += 1;
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The ring bucket of `slot`, about to be pushed into: one without a
    /// buffer takes the most recently spared one.
    #[inline]
    fn bucket_mut(&mut self, slot: u64) -> &mut Vec<Entry> {
        let bucket = &mut self.buckets[ring_index(slot)];
        if bucket.capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *bucket = buffer;
            }
        }
        bucket
    }

    /// Bring the cursor's bucket into reverse pop order: move the slot's
    /// overflow events in, sort by key, reverse.
    fn prepare_current(&mut self) {
        while let Some(Far(((time, _), _))) = self.overflow.peek() {
            if slot_of(*time) > self.cursor {
                break;
            }
            let Far(entry) = self.overflow.pop().expect("peeked entry exists");
            self.bucket_mut(self.cursor).push(entry);
            self.wheel_len += 1;
        }
        let bucket = &mut self.buckets[ring_index(self.cursor)];
        sort_by_key(bucket);
        bucket.reverse();
        self.current_prepared = true;
    }

    /// Move the cursor to the next slot that has work, sparing the buffer of
    /// the bucket it leaves. Caller guarantees the queue is non-empty and the
    /// current bucket is drained.
    fn advance(&mut self) {
        self.current_prepared = false;
        let drained = std::mem::take(&mut self.buckets[ring_index(self.cursor)]);
        debug_assert!(drained.is_empty());
        if drained.capacity() > 0 {
            self.spare.push(drained);
        }
        let overflow_slot = self.overflow.peek().map(|Far(((t, _), _))| slot_of(*t));
        if self.wheel_len == 0 {
            // Jump straight to the earliest overflow bucket.
            self.cursor = overflow_slot.expect("advance called on an empty queue");
            return;
        }
        for d in 1..=NUM_BUCKETS as u64 {
            let slot = self.cursor + d;
            if let Some(os) = overflow_slot {
                if os <= slot {
                    self.cursor = os;
                    return;
                }
            }
            if !self.buckets[ring_index(slot)].is_empty() {
                self.cursor = slot;
                return;
            }
        }
        unreachable!("ring events always live within NUM_BUCKETS of the cursor");
    }

    /// Pop the earliest event, if any.
    ///
    /// The queue does not count popped events as "processed": an event popped
    /// after the simulation horizon is discarded unhandled, so the simulator
    /// owns the processed counter.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_keyed().map(|((time, _), event)| (time, event))
    }

    /// Pop the entry with the smallest key, if any.
    pub(crate) fn pop_keyed(&mut self) -> Option<Entry> {
        loop {
            if self.current_prepared {
                if let Some(entry) = self.buckets[ring_index(self.cursor)].pop() {
                    self.wheel_len -= 1;
                    return Some(entry);
                }
            }
            if self.is_empty() {
                return None;
            }
            if self.current_prepared {
                self.advance();
            }
            self.prepare_current();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_us(5), Event::Sample);
        q.push(SimTime::from_us(1), Event::HostWake { node: NodeId(0) });
        q.push(SimTime::from_us(3), Event::Sample);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        let t1 = q.pop().unwrap().0;
        let t2 = q.pop().unwrap().0;
        let t3 = q.pop().unwrap().0;
        assert!(t1 < t2 && t2 < t3);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        q.push(t, Event::FlowStart(0));
        q.push(t, Event::FlowStart(1));
        q.push(t, Event::FlowStart(2));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_bucket_boundaries() {
        // Same-time ties exactly on a bucket boundary, plus ties in the
        // bucket before and after it, interleaved in push order.
        let mut q = EventQueue::new();
        let boundary = SimTime::from_ps(5 << BUCKET_SHIFT);
        let before = SimTime::from_ps((5 << BUCKET_SHIFT) - 1);
        let after = SimTime::from_ps((5 << BUCKET_SHIFT) + 1);
        q.push(boundary, Event::FlowStart(10));
        q.push(after, Event::FlowStart(20));
        q.push(before, Event::FlowStart(0));
        q.push(boundary, Event::FlowStart(11));
        q.push(after, Event::FlowStart(21));
        q.push(before, Event::FlowStart(1));
        q.push(boundary, Event::FlowStart(12));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![0, 1, 10, 11, 12, 20, 21]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_ring_rollover() {
        // Events one full ring rotation apart share a ring index but must
        // still pop strictly by (time, seq); the far event starts out in the
        // overflow level and migrates when the cursor wraps to its slot.
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let near = SimTime::from_ps(3 << BUCKET_SHIFT);
        let far = SimTime::from_ps((3 << BUCKET_SHIFT) + 2 * window);
        q.push(far, Event::FlowStart(2));
        q.push(near, Event::FlowStart(0));
        q.push(far, Event::FlowStart(3));
        q.push(near, Event::FlowStart(1));
        let mut popped = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                popped.push((t, i));
            }
        }
        assert_eq!(popped, vec![(near, 0), (near, 1), (far, 2), (far, 3)]);
    }

    #[test]
    fn push_into_the_draining_bucket_keeps_order() {
        // While the current bucket drains, schedule new events at the same
        // instant and slightly later within the same bucket: they must pop
        // after the already-pending same-time events (larger seq) and in
        // time order otherwise — exactly like the reference heap.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(400);
        q.push(t, Event::FlowStart(0));
        q.push(t, Event::FlowStart(1));
        assert!(matches!(q.pop(), Some((_, Event::FlowStart(0)))));
        // The bucket is now prepared and half-drained; push same-time and
        // later-in-bucket events.
        q.push(t, Event::FlowStart(2));
        let later = t + hpcc_types::Duration::from_ns(1);
        q.push(later, Event::FlowStart(3));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peak_len_counts_ring_and_overflow_at_rollover() {
        // Regression: `peak_len` must report the max of the *combined*
        // occupancy (bucket ring + far-future overflow heap), sampled while
        // events straddle a bucket-boundary rollover — not just the ring
        // level. Five near events sit in the ring; five far events (beyond
        // the ring window) sit in the overflow heap at the same instant.
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let boundary = SimTime::from_ps(7 << BUCKET_SHIFT);
        for i in 0..5u64 {
            // In-ring: straddle the bucket boundary itself.
            q.push(SimTime::from_ps((7 << BUCKET_SHIFT) + i - 2), Event::Sample);
            // Overflow level: one full rotation later, same ring slot.
            q.push(
                SimTime::from_ps((7 << BUCKET_SHIFT) + i - 2 + 2 * window),
                Event::Sample,
            );
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.peak_len(), 10, "peak must count ring + overflow");
        // Drain through the rollover: far events migrate overflow -> ring as
        // the cursor wraps; the peak must not grow (no double counting) and
        // must survive the drain.
        let mut times = Vec::new();
        while let Some((t, _)) = q.pop() {
            times.push(t);
        }
        assert_eq!(times.len(), 10);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.contains(&boundary));
        assert_eq!(q.peak_len(), 10, "peak is a high-water mark across levels");
    }

    #[test]
    fn far_future_events_pass_through_the_overflow_level() {
        let mut q = EventQueue::new();
        // A sparse far-future timeline: every event is beyond the ring
        // window of its predecessor (RTO-like spacing).
        let times: Vec<SimTime> = (1..=5).map(|k| SimTime::from_ms(4 * k)).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(t, Event::FlowStart(i));
        }
        assert_eq!(q.len(), 5);
        let mut popped = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                popped.push((t, i));
            }
        }
        assert_eq!(
            popped,
            times
                .iter()
                .copied()
                .enumerate()
                .map(|(i, t)| (t, i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn packet_pool_recycles_boxes() {
        let mut eff = Effects::default();
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        let b1 = eff.alloc_packet(p);
        let addr = std::ptr::addr_of!(*b1) as usize;
        eff.recycle(b1);
        let b2 = eff.alloc_packet(Packet::pfc(hpcc_types::Priority::DATA, true));
        assert_eq!(std::ptr::addr_of!(*b2) as usize, addr, "box was reused");
        assert!(matches!(
            b2.kind,
            hpcc_types::PacketKind::Pfc { pause: true, .. }
        ));
    }

    #[test]
    fn a_pooled_box_reused_for_data_carries_nothing_of_its_previous_life() {
        use hpcc_types::{IntHeader, IntHopRecord, Priority};
        let mut eff = Effects::default();
        // A box that lived a full life: stamped by five switches, CE-marked,
        // last packet of its flow, turned into a SACK-NACK, then consumed.
        let mut old = eff.alloc_data(
            FlowId(9),
            NodeId(3),
            NodeId(4),
            5000,
            1000,
            SimTime::from_us(7),
        );
        old.priority = Priority::data_class(2);
        old.ecn_ce = true;
        old.ack_flags.flow_finished = true;
        (old.src_slot, old.dst_slot) = (11, 12);
        for sw in 1..=5 {
            let hop = IntHopRecord {
                qlen: 100 * sw as u64,
                ..IntHopRecord::default()
            };
            old.int.push_hop(sw, hop);
        }
        old.become_sack_nack(4000, 5000, 1000);
        let addr = std::ptr::addr_of!(*old) as usize;
        eff.recycle(old);
        let b = eff.alloc_data(FlowId(2), NodeId(0), NodeId(1), 0, 640, SimTime::from_us(8));
        assert_eq!(std::ptr::addr_of!(*b) as usize, addr, "box was reused");
        assert!(b.int.hops().is_empty());
        // The hop array keeps dead records beyond `n_hops`; everything else
        // must equal a freshly constructed data packet.
        let mut got = *b;
        assert_eq!((got.int.n_hops, got.int.path_id), (0, 0));
        got.int = IntHeader::new();
        let fresh = Packet::data(FlowId(2), NodeId(0), NodeId(1), 0, 640, SimTime::from_us(8));
        assert_eq!(got, fresh);
    }

    /// Pop everything, returning the `FlowStart` payloads in pop order.
    fn drain_ids(q: &mut EventQueue) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        order
    }

    #[test]
    fn overflow_events_pop_before_later_ring_events_at_the_same_instant() {
        // Two far events at T go to the overflow heap; once the cursor has
        // moved close enough, a third event at the very same T lands in the
        // ring bucket directly, and the three meet when the bucket is
        // prepared.
        let mut q = EventQueue::new();
        let slot = NUM_BUCKETS as u64 + 5;
        let t = SimTime::from_ps(slot << BUCKET_SHIFT);
        let later = SimTime::from_ps((slot << BUCKET_SHIFT) + 1);
        q.push(later, Event::FlowStart(4)); // overflow, later instant
        q.push(t, Event::FlowStart(0)); // overflow
        q.push(t, Event::FlowStart(1)); // overflow, same instant
        assert_eq!(q.overflow.len(), 3);
        // Walk the cursor to slot 6, from where `slot` is inside the window.
        q.push(SimTime::from_ps(6 << BUCKET_SHIFT), Event::Sample);
        assert!(matches!(q.pop(), Some((_, Event::Sample))));
        assert_eq!(q.cursor, 6);
        q.push(t, Event::FlowStart(2)); // ring, same instant, pushed last
        assert_eq!(q.overflow.len(), 3, "the late push went to the ring");
        assert!(matches!(q.pop(), Some((_, Event::FlowStart(0)))));
        // The bucket now drains: a push at the same instant goes behind the
        // pending overflow and ring events, one 1 ps later behind the
        // migrated event of that instant.
        q.push(t, Event::FlowStart(3));
        q.push(later, Event::FlowStart(5));
        assert_eq!(drain_ids(&mut q), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_late_push_under_a_reserved_seq_pops_where_an_eager_push_would_have() {
        // A seq reserved between two pushes at instant `t` and pushed after
        // them must pop between them wherever it lands: in a bucket the
        // cursor has not reached, in the bucket being drained, in the
        // overflow heap, or in the ring while its neighbours wait in the
        // overflow heap.
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let near = (3 << BUCKET_SHIFT) + 100;
        let far = 2 * window + near;
        for (place, t, overflows) in [
            ("unprepared bucket", near, false),
            ("draining bucket", near, false),
            ("overflow heap", far, true),
            ("ring, neighbours in the overflow heap", far, false),
        ] {
            let at = SimTime::from_ps;
            let mut q = EventQueue::new();
            if place == "draining bucket" {
                q.push(at(t - 10), Event::Sample);
                assert!(matches!(q.pop(), Some((_, Event::Sample))));
                assert!(q.current_prepared && q.cursor == slot_of(at(t)));
            }
            q.push(at(t - 1), Event::FlowStart(0));
            q.push(at(t), Event::FlowStart(1));
            let reserved = q.reserve();
            q.push(at(t), Event::FlowStart(3));
            q.push(at(t + 1), Event::FlowStart(4));
            if place.starts_with("ring") {
                // Walk the cursor to the first slot from which `t` is in
                // the window; the four events stay in the heap.
                q.push(at(t - window + (1 << BUCKET_SHIFT)), Event::Sample);
                assert!(matches!(q.pop(), Some((_, Event::Sample))));
                assert_eq!(q.overflow.len(), 4);
            }
            let before = q.overflow.len();
            q.push_keyed((at(t), reserved), Event::FlowStart(2));
            assert_eq!(q.overflow.len() > before, overflows, "{place}");
            assert_eq!(drain_ids(&mut q), [0, 1, 2, 3, 4], "{place}");
        }
    }

    #[test]
    fn long_buckets_take_the_fallback_sort_and_keep_tie_order() {
        // More entries than INSERTION_SORT_MAX in one bucket, in descending
        // time order with every instant pushed twice.
        let mut q = EventQueue::new();
        let n = 2 * INSERTION_SORT_MAX;
        let base = 9u64 << BUCKET_SHIFT;
        for i in 0..n {
            let t = SimTime::from_ps(base + ((n - 1 - i) / 2) as u64);
            q.push(t, Event::FlowStart(i));
        }
        let expected: Vec<usize> = (0..n / 2)
            .rev()
            .flat_map(|pair| [2 * pair, 2 * pair + 1])
            .collect();
        assert_eq!(drain_ids(&mut q), expected);
    }

    #[test]
    fn bucket_buffers_are_recycled() {
        // A hold model of eight events over more than three ring rotations:
        // at most eight buckets are live at once, so the ring and the spare
        // stack together never own more than nine buffers (the live buckets
        // and the one being drained). Without recycling every bucket the
        // cursor visited keeps its buffer.
        use hpcc_types::rng::SplitMix64;
        const LIVE: usize = 8;
        let mut rng = SplitMix64::new(3);
        let mut q = EventQueue::new();
        let delay = |rng: &mut SplitMix64| 1 + rng.next_below(12 << BUCKET_SHIFT);
        for _ in 0..LIVE {
            q.push(SimTime::from_ps(delay(&mut rng)), Event::Sample);
        }
        while q.cursor < 3 * NUM_BUCKETS as u64 + 7 {
            let (now, ev) = q.pop().unwrap();
            q.push(SimTime::from_ps(now.as_ps() + delay(&mut rng)), ev);
            let owned = q.buckets.iter().filter(|b| b.capacity() > 0).count() + q.spare.len();
            assert!(owned <= LIVE + 1, "{owned} buffers at slot {}", q.cursor);
        }
        assert_eq!(q.len(), LIVE);
    }

    /// The wheel and a plain `(time, seq)`-ordered reference, driven by one
    /// script; every event is a `FlowStart` naming its own seq.
    struct Twin {
        q: EventQueue,
        reference: std::collections::BTreeSet<(u64, u64)>,
        seq: u64,
    }

    impl Twin {
        fn push(&mut self, t: u64) {
            self.q
                .push(SimTime::from_ps(t), Event::FlowStart(self.seq as usize));
            self.reference.insert((t, self.seq));
            self.seq += 1;
        }

        fn reserve(&mut self) -> u64 {
            let seq = self.q.reserve();
            assert_eq!(seq, self.seq);
            self.seq += 1;
            seq
        }

        fn push_keyed(&mut self, t: u64, seq: u64) {
            let key = (SimTime::from_ps(t), seq);
            self.q.push_keyed(key, Event::FlowStart(seq as usize));
            self.reference.insert((t, seq));
        }
    }

    #[test]
    fn wheel_matches_reference_heap_on_a_randomized_schedule() {
        // Drive the wheel and a plain (time, seq)-ordered reference with an
        // identical randomized push/pop script: in-window pushes, overflow
        // pushes, bursts of same-time pushes, pushes at `now` into the
        // draining bucket, far pushes on either side of the ring/overflow
        // boundary (`cursor + NUM_BUCKETS` slots ± 1), pushes into a ring
        // index in the same step its buffer was spared, and seqs reserved now
        // and pushed later under their key — or never, once the pops have
        // passed it, as a switch port that frees with nothing queued does.
        use hpcc_types::rng::SplitMix64;
        const OPS_PER_SEED: usize = 30_000;
        for seed in [0xE1E7u64, 1, 0xDEAD_BEEF, 42] {
            let mut rng = SplitMix64::new(seed);
            let mut w = Twin {
                q: EventQueue::new(),
                reference: Default::default(),
                seq: 0,
            };
            let mut reserved: Vec<(u64, u64)> = Vec::new();
            let mut last = (0u64, 0u64);
            let (mut late, mut abandoned) = (0, 0);
            for op in 0..OPS_PER_SEED {
                let now = last.0;
                if rng.next_below(3) > 0 || w.reference.is_empty() {
                    match rng.next_below(100) {
                        // A burst of pushes at one instant.
                        0..=4 => {
                            let t = now + rng.next_below(1 << 19);
                            for _ in 0..2 + rng.next_below(6) {
                                w.push(t);
                            }
                        }
                        // Exactly now: the head of the draining bucket.
                        5..=14 => w.push(now),
                        // Around the first slot that overflows.
                        15..=19 => {
                            let slot = w.q.cursor + NUM_BUCKETS as u64 + rng.next_below(3) - 1;
                            let t = (slot << BUCKET_SHIFT) + rng.next_below(1 << BUCKET_SHIFT);
                            w.push(t.max(now));
                        }
                        // Far future.
                        20..=21 => w.push(now + rng.next_below(1 << 30)),
                        // Reserve now: for the current instant, which later
                        // pushes at `now` share, a frame's end a few buckets
                        // ahead, or far.
                        22..=29 => {
                            let t = match rng.next_below(4) {
                                0 => now,
                                _ => now + rng.next_below(1 << 17),
                            };
                            reserved.push((t, w.reserve()));
                        }
                        30..=31 => {
                            let t = now + rng.next_below(1 << 30);
                            reserved.push((t, w.reserve()));
                        }
                        // Push later what was reserved, if the pops have not
                        // passed its key.
                        32..=43 if !reserved.is_empty() => {
                            let i = rng.next_below(reserved.len() as u64) as usize;
                            let (t, seq) = reserved.swap_remove(i);
                            if (t, seq) > last {
                                w.push_keyed(t, seq);
                                late += 1;
                            } else {
                                abandoned += 1;
                            }
                        }
                        // Near: within a few buckets.
                        _ => w.push(now + rng.next_below(1 << 20)),
                    }
                } else {
                    let left = w.q.cursor;
                    let ((t, seq), ev) = w.q.pop_keyed().unwrap();
                    let min = w.reference.pop_first().unwrap();
                    assert_eq!((t.as_ps(), seq), min, "seed {seed:#x}, op {op}: pop key");
                    assert!(
                        matches!(ev, Event::FlowStart(i) if i as u64 == min.1),
                        "seed {seed:#x}, op {op}: popped {ev:?}, reference seq {}",
                        min.1
                    );
                    last = min;
                    // The cursor moved, so this pop spared the buffer of
                    // `left`. Its ring index now stands for `left + N`, which
                    // entered the window with the move: push there, and into
                    // the last ring slot and the first overflow slot.
                    if w.q.cursor != left && rng.next_below(4) == 0 {
                        let n = NUM_BUCKETS as u64;
                        let far = w.q.overflow.len();
                        for slot in [left + n, w.q.cursor + n - 1, w.q.cursor + n] {
                            w.push((slot << BUCKET_SHIFT) + rng.next_below(1 << BUCKET_SHIFT));
                        }
                        assert_eq!(w.q.overflow.len(), far + 1, "two to the ring, one beyond");
                    }
                }
                assert_eq!(w.q.len(), w.reference.len(), "seed {seed:#x}, op {op}: len");
            }
            while let Some((t, ev)) = w.q.pop() {
                let min = w.reference.pop_first().unwrap();
                assert_eq!(t.as_ps(), min.0, "seed {seed:#x}, final drain");
                assert!(
                    matches!(ev, Event::FlowStart(i) if i as u64 == min.1),
                    "seed {seed:#x}, final drain: popped {ev:?}, reference seq {}",
                    min.1
                );
            }
            assert!(
                w.reference.is_empty(),
                "seed {seed:#x}: queue ran dry early"
            );
            assert_eq!(w.q.next_seq, w.seq);
            assert!(
                late > 1000 && abandoned > 10,
                "seed {seed:#x}: {late} late, {abandoned} abandoned"
            );
        }
    }
}
