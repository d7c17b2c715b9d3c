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
//! # The event wheel
//!
//! [`EventQueue`] is a calendar queue that never sorts. Simulated time
//! (integer picoseconds) is divided into buckets of `2^BUCKET_SHIFT` ps
//! (≈ 2 ns, well under the ≈ 88 ns a 100 Gbps port takes per packet, so a
//! bucket rarely holds more than one or two instants); a ring of
//! `NUM_BUCKETS` (16384) buckets covers a sliding window of ≈ 33.5 µs ahead
//! of the cursor, which holds the per-packet event classes (serialization,
//! propagation ≈ 1 µs, queue sampling 1–5 µs). The ring's table of bucket
//! tails is 64 KiB, a size that is part of every scenario's heap and so of a
//! campaign's resident set when several scenarios run at once.
//! Events beyond the window — RTO checks, DCQCN timers and other far-future
//! timers — go to a `BinaryHeap` overflow level, and join the ring when the
//! cursor reaches their slot; while the ring is empty, `pop` takes the
//! heap's top directly.
//!
//! Every entry carries its key `(time, seq)`, so an event may be pushed
//! *later* than its seq was handed out (`EventQueue::reserve`,
//! `EventQueue::push_keyed`) and still pop where a push at reservation time
//! would have: a port reserves the key of its `PortReady` with every frame
//! it starts and pushes the event only if it will have something to do
//! (`crate::link`). A bucket is a circular singly linked list of slab nodes
//! in key order, named by its tail, whose `next` is the head. Events are
//! pushed as simulated time advances, so a new key almost always sorts last
//! and is appended at the tail; one that sorts first is prepended, and only
//! one in between walks the list. `pop` unlinks the head of the cursor's
//! bucket; when that bucket is empty, a two-level occupancy bitmap finds the
//! next non-empty one. A popped node goes onto a free list, so the slab
//! never holds more nodes than the ring's peak.
//! `docs/ARCHITECTURE.md` § *The event-wheel engine* gives the argument; the
//! tests below check it against a reference that keeps `(time, seq)`.

use crate::output::SimOutput;
use hpcc_types::{FlowId, NodeId, Packet, PortId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Log2 of the bucket width in picoseconds: 2^11 ps ≈ 2 ns per bucket.
const BUCKET_SHIFT: u32 = 11;

/// Number of buckets in the ring; the window covers
/// `NUM_BUCKETS << BUCKET_SHIFT` = 2^25 ps ≈ 33.5 µs of simulated time.
const NUM_BUCKETS: usize = 1 << 14;

/// Occupancy words: bit `b % 64` of word `b / 64` is set iff bucket `b`
/// holds an entry.
const OCCUPANCY_WORDS: usize = NUM_BUCKETS / 64;

/// Summary words: bit `w % 64` of word `w / 64` is set iff occupancy word
/// `w` is not zero.
const SUMMARY_WORDS: usize = OCCUPANCY_WORDS / 64;

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
    /// start the next one. It is pushed only while the port may have
    /// something to send (`Link::push_ready`).
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

/// What a node's handler may touch besides the node itself.
///
/// Handlers schedule through this arena ([`Effects::schedule`]), push the
/// ports they may have freed onto its kick stack, and record their
/// measurements straight into the run's output, `out`; they never pop the
/// queue or see another node, which keeps borrows local and the control
/// flow explicit.
///
/// The simulator owns **one** `Effects` for the whole run, so the kick stack
/// reaches a high-water mark early and the steady-state event loop performs
/// no allocation. The arena also carries the packet pool. A handler that
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
    /// The run's measurements: completed flows, PFC pause frames, goodput
    /// and packet counts are recorded here by the handler that sees them.
    pub out: SimOutput,
    /// Whether a fault window (outage, degradation or straggle) is open, so
    /// that goodput credited now also counts as goodput during faults. Kept
    /// by the simulator's fault transitions.
    pub fault_active: bool,
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

    /// Credit `bytes` newly acknowledged of `flow` at `now` to its goodput
    /// series, and to the goodput during faults while a window is open.
    pub fn record_goodput(&mut self, flow: FlowId, now: SimTime, bytes: u64) {
        if self.fault_active {
            self.out.goodput_during_faults += bytes;
        }
        self.out.record_goodput(flow, now, bytes);
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

/// A slab node: a ring entry and the next node of its bucket's list.
#[derive(Debug)]
struct Node {
    key: Key,
    event: Event,
    /// The next node of the bucket's circular list: the next in key order,
    /// or the head when this node is the tail. On the free list, the next
    /// free node or 0. Node 0 is a placeholder that never holds an entry, so
    /// 0 names no node.
    next: u32,
}

// A field added to `Event` or to the node would fatten the one record every
// push writes and every pop reads, and a wider ring every scenario's heap;
// fail the build instead.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);
const _: () = assert!(std::mem::size_of::<Node>() <= 48);
const _: () = assert!(NUM_BUCKETS * std::mem::size_of::<u32>() <= 64 << 10);

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

/// Deterministic time-ordered event queue: an event wheel of sorted bucket
/// lists with a binary-heap overflow level for far-future timers.
#[derive(Debug)]
pub struct EventQueue {
    /// The ring's entries, linked into one list per bucket; node 0 is the
    /// placeholder (see [`Node::next`]).
    nodes: Vec<Node>,
    /// The first node of the list of freed nodes, linked through `next`;
    /// 0 when it is empty.
    free: u32,
    /// The last node of each bucket's circular list, whose `next` is the
    /// first, or 0 when the bucket is empty; the bucket for absolute slot
    /// `s` is `s % NUM_BUCKETS`.
    tails: Vec<u32>,
    /// Which buckets hold an entry (`OCCUPANCY_WORDS`).
    occupied: Vec<u64>,
    /// Which occupancy words are not zero.
    summary: [u64; SUMMARY_WORDS],
    /// Absolute slot index (`time >> BUCKET_SHIFT`) the cursor is on.
    cursor: u64,
    /// Events currently stored in the ring.
    wheel_len: usize,
    /// Far-future events: pushed with `slot ≥ cursor + NUM_BUCKETS`, each
    /// moved into the ring when the cursor reaches its slot.
    overflow: BinaryHeap<Far>,
    /// Sequence numbers handed out so far; also the next one.
    next_seq: u64,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            nodes: vec![Node {
                key: (SimTime::ZERO, 0),
                event: Event::Sample,
                next: 0,
            }],
            free: 0,
            tails: vec![0; NUM_BUCKETS],
            occupied: vec![0; OCCUPANCY_WORDS],
            summary: [0; SUMMARY_WORDS],
            cursor: 0,
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

/// The first set bit at or after bit `from` of `words`, if any.
#[inline]
fn first_set(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = words.get(w)? & (u64::MAX << (from % 64));
    while bits == 0 {
        w += 1;
        bits = *words.get(w)?;
    }
    Some(w * 64 + bits.trailing_zeros() as usize)
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
            // Anything before the cursor's bucket (the simulator never
            // schedules into the past; this clamps defensively) lands in the
            // cursor's bucket, where its key puts it first.
            self.insert(ring_index(slot.max(self.cursor)), key, event);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Link a new node into `bucket`'s list at its key's place.
    #[inline]
    fn insert(&mut self, bucket: usize, key: Key, event: Event) {
        let node = self.alloc(key, event);
        let tail = self.tails[bucket];
        if tail == 0 {
            self.nodes[node as usize].next = node;
            self.tails[bucket] = node;
            self.mark(bucket);
        } else if self.nodes[tail as usize].key < key {
            self.nodes[node as usize].next = self.nodes[tail as usize].next;
            self.nodes[tail as usize].next = node;
            self.tails[bucket] = node;
        } else {
            let head = self.nodes[tail as usize].next;
            if key < self.nodes[head as usize].key {
                self.nodes[node as usize].next = head;
                self.nodes[tail as usize].next = node;
            } else {
                // Keys are unique, so the head's sorts before this one and
                // the tail's after it: the walk stops at the tail at latest.
                let mut at = head;
                loop {
                    let next = self.nodes[at as usize].next;
                    if self.nodes[next as usize].key > key {
                        break;
                    }
                    at = next;
                }
                self.nodes[node as usize].next = self.nodes[at as usize].next;
                self.nodes[at as usize].next = node;
            }
        }
        self.wheel_len += 1;
    }

    /// A node holding `key` and `event`, from the free list if it has one.
    #[inline]
    fn alloc(&mut self, key: Key, event: Event) -> u32 {
        let node = Node {
            key,
            event,
            next: 0,
        };
        if self.free == 0 {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let at = self.free;
            let slot = &mut self.nodes[at as usize];
            self.free = slot.next;
            *slot = node;
            at
        }
    }

    #[inline]
    fn mark(&mut self, bucket: usize) {
        let w = bucket / 64;
        self.occupied[w] |= 1 << (bucket % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    #[inline]
    fn unmark(&mut self, bucket: usize) {
        let w = bucket / 64;
        self.occupied[w] &= !(1 << (bucket % 64));
        if self.occupied[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The first occupied bucket at or after `from`, not wrapping: the rest
    /// of `from`'s occupancy word, then the summary for the next non-zero
    /// word.
    #[inline]
    fn occupied_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.occupied[w] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = first_set(&self.summary, w + 1)?;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Move the cursor to the next slot that holds an entry. Caller
    /// guarantees the ring holds one and the cursor's bucket is empty.
    fn seek(&mut self) {
        let from = ring_index(self.cursor);
        let next = self
            .occupied_from(from)
            .or_else(|| self.occupied_from(0))
            .expect("the ring holds an entry");
        let ring = self.cursor + ((next + NUM_BUCKETS - from) % NUM_BUCKETS) as u64;
        self.cursor = match self.overflow.peek() {
            Some(Far(((time, _), _))) => ring.min(slot_of(*time)),
            None => ring,
        };
        self.migrate();
    }

    /// Move the heap entries of the cursor's slot into its bucket.
    fn migrate(&mut self) {
        let bucket = ring_index(self.cursor);
        while let Some(Far(((time, _), _))) = self.overflow.peek() {
            if slot_of(*time) > self.cursor {
                break;
            }
            let Far((key, event)) = self.overflow.pop().expect("peeked entry exists");
            self.insert(bucket, key, event);
        }
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
        let mut bucket = ring_index(self.cursor);
        if self.tails[bucket] == 0 {
            if self.wheel_len == 0 {
                // Everything pending is in the heap: its top is next.
                let Far(entry) = self.overflow.pop()?;
                self.cursor = slot_of(entry.0 .0);
                self.migrate();
                return Some(entry);
            }
            self.seek();
            bucket = ring_index(self.cursor);
        }
        let tail = self.tails[bucket];
        let at = self.nodes[tail as usize].next;
        let node = &mut self.nodes[at as usize];
        let next = node.next;
        let entry = (node.key, std::mem::replace(&mut node.event, Event::Sample));
        node.next = self.free;
        self.free = at;
        if at == tail {
            self.tails[bucket] = 0;
            self.unmark(bucket);
        } else {
            self.nodes[tail as usize].next = next;
        }
        self.wheel_len -= 1;
        Some(entry)
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
        // ring bucket directly, and the three meet when the cursor reaches
        // T's slot.
        let mut q = EventQueue::new();
        let slot = NUM_BUCKETS as u64 + 5;
        let t = SimTime::from_ps(slot << BUCKET_SHIFT);
        let later = SimTime::from_ps((slot << BUCKET_SHIFT) + 1);
        q.push(later, Event::FlowStart(4)); // overflow, later instant
        q.push(t, Event::FlowStart(0)); // overflow
        q.push(t, Event::FlowStart(1)); // overflow, same instant
                                        // Walk the cursor to slot 6, from where `slot` is inside the window.
        q.push(SimTime::from_ps(6 << BUCKET_SHIFT), Event::Sample);
        assert!(matches!(q.pop(), Some((_, Event::Sample))));
        q.push(t, Event::FlowStart(2)); // same instant, pushed last
        assert!(matches!(q.pop(), Some((_, Event::FlowStart(0)))));
        // The bucket now drains: a push at the same instant goes behind the
        // pending overflow and ring events, one 1 ps later behind the
        // migrated event of that instant.
        q.push(t, Event::FlowStart(3));
        q.push(later, Event::FlowStart(5));
        assert_eq!(drain_ids(&mut q), vec![1, 2, 3, 4, 5]);

        // With the ring empty the heap's top pops straight from the heap; the
        // rest of its slot joins the cursor's bucket, ahead of an event
        // pushed at the same instant afterwards.
        let mut q = EventQueue::new();
        q.push(t, Event::FlowStart(0));
        q.push(t, Event::FlowStart(1));
        assert!(matches!(q.pop(), Some((_, Event::FlowStart(0)))));
        q.push(t, Event::FlowStart(2));
        assert_eq!(drain_ids(&mut q), vec![1, 2]);
    }

    #[test]
    fn a_late_push_under_a_reserved_seq_pops_where_an_eager_push_would_have() {
        // A seq reserved between two pushes at instant `t` and pushed after
        // them must pop between them wherever it lands: in a bucket ahead of
        // the cursor, in the cursor's bucket, in the overflow heap, or in the
        // ring while its neighbours wait in the overflow heap.
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let near = (3 << BUCKET_SHIFT) + 100;
        let far = 2 * window + near;
        for (place, t) in [
            ("bucket ahead", near),
            ("cursor's bucket", near),
            ("overflow heap", far),
            ("ring, neighbours in the overflow heap", far),
        ] {
            let at = SimTime::from_ps;
            let mut q = EventQueue::new();
            if place == "cursor's bucket" {
                q.push(at(t - 10), Event::Sample);
                assert!(matches!(q.pop(), Some((_, Event::Sample))));
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
            }
            q.push_keyed((at(t), reserved), Event::FlowStart(2));
            assert_eq!(drain_ids(&mut q), [0, 1, 2, 3, 4], "{place}");
        }
    }

    #[test]
    fn slab_nodes_are_reused() {
        // A hold model of eight events over more than three ring rotations:
        // each pop frees the node the next push takes, so the slab stays at
        // the peak pending count, plus the placeholder. Without the free
        // list it grows by one node per push.
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
            assert_eq!(q.nodes.len(), LIVE + 1, "at slot {}", q.cursor);
        }
        assert_eq!((q.len(), q.peak_len()), (LIVE, LIVE));
    }

    #[test]
    fn a_sparse_ring_finds_the_next_bucket_through_the_summary() {
        // Three events pending at a time, each pushed a random number of
        // buckets ahead — within the cursor's occupancy word, a few words
        // on, or anywhere in the window — so that the next occupied bucket
        // is found in the cursor's word, through the summary, or only after
        // the search wraps past the ring's end. After every pop each
        // occupancy bit says whether its bucket's list is empty and each
        // summary bit whether its word is zero.
        use hpcc_types::rng::SplitMix64;
        let invariants = |q: &EventQueue, op: usize| {
            for b in 0..NUM_BUCKETS {
                let bit = q.occupied[b / 64] >> (b % 64) & 1 == 1;
                assert_eq!(bit, q.tails[b] != 0, "op {op}: bucket {b}");
            }
            for w in 0..OCCUPANCY_WORDS {
                let bit = q.summary[w / 64] >> (w % 64) & 1 == 1;
                assert_eq!(bit, q.occupied[w] != 0, "op {op}: word {w}");
            }
        };
        let mut rng = SplitMix64::new(11);
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut now = 0u64;
        let mut wrapped = 0;
        for op in 0..500 {
            while reference.len() < 3 {
                let ahead = match rng.next_below(3) {
                    0 => 1 + rng.next_below(63),
                    1 => 64 + rng.next_below(8 * 64),
                    _ => 1 + rng.next_below(NUM_BUCKETS as u64 - 1),
                };
                let t = now + (ahead << BUCKET_SHIFT);
                reference.insert((t, q.next_seq));
                q.push(SimTime::from_ps(t), Event::Sample);
            }
            let left = ring_index(q.cursor);
            let ((t, seq), _) = q.pop_keyed().unwrap();
            assert_eq!((t.as_ps(), seq), reference.pop_first().unwrap(), "op {op}");
            assert_eq!(q.cursor, slot_of(t), "op {op}");
            wrapped += usize::from(ring_index(q.cursor) < left);
            now = t.as_ps();
            invariants(&q, op);
        }
        assert!(wrapped > 10, "the search wrapped {wrapped} times");
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
        // pushes, bursts of same-time pushes, pushes at `now` and anywhere
        // later in the cursor's bucket, far pushes on either side of the
        // ring/overflow boundary (`cursor + NUM_BUCKETS` slots ± 1), pushes
        // into the ring index the cursor has just left, and seqs reserved now
        // and pushed later under their key — or never, once the pops have
        // passed it, as a port that frees with nothing to send does.
        // Then two one-bucket cases: 10^5 pushes at one instant, and 10^4
        // pushes in random order.
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
                        // Exactly now: the head of the cursor's bucket.
                        5..=9 => w.push(now),
                        // Later in the cursor's bucket: a walk of its list.
                        10..=14 => {
                            let bucket = w.q.cursor << BUCKET_SHIFT;
                            w.push(now.max(bucket + rng.next_below(1 << BUCKET_SHIFT)));
                        }
                        // Around the first slot that overflows.
                        15..=19 => {
                            let slot = w.q.cursor + NUM_BUCKETS as u64 + rng.next_below(3) - 1;
                            let t = (slot << BUCKET_SHIFT) + rng.next_below(1 << BUCKET_SHIFT);
                            w.push(t.max(now));
                        }
                        // Far future.
                        20..=21 => w.push(now + rng.next_below(1 << 30)),
                        // Reserve now: for the current instant, which later
                        // pushes at `now` share, a frame's end within 128
                        // buckets, or far.
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
                        // Near: within 1 µs, 1024 buckets.
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
                    // The cursor moved past `left`, whose ring index now
                    // stands for `left + N`, which entered the window with
                    // the move: push there, and into the last ring slot and
                    // the first overflow slot.
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

        // 10^5 pushes at one instant: each one appended at its bucket's tail.
        let mut q = EventQueue::new();
        for i in 0..100_000 {
            q.push(SimTime::from_ns(5), Event::FlowStart(i));
        }
        assert!(drain_ids(&mut q).into_iter().eq(0..100_000));

        // 10^4 pushes into one bucket at random instants within it, ties
        // among them: all but the few that sort first or last walk the list
        // from its head, ~2.5·10^7 steps in all. The whole engine suite
        // takes 0.2 s at the test profile's opt-level 2 on a 2-vCPU x86-64
        // host; the bound catches a walk slower than one step per node.
        let mut rng = SplitMix64::new(5);
        let mut w = Twin {
            q: EventQueue::new(),
            reference: Default::default(),
            seq: 0,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "a timing bound on the test itself; hpcc-sim cannot reach hpcc_core::timing"
        )]
        let started = std::time::Instant::now();
        for _ in 0..10_000 {
            w.push((9 << BUCKET_SHIFT) + rng.next_below(1 << BUCKET_SHIFT));
        }
        let elapsed = started.elapsed();
        while let Some(((t, seq), _)) = w.q.pop_keyed() {
            assert_eq!((t.as_ps(), seq), w.reference.pop_first().unwrap());
        }
        assert!(w.reference.is_empty());
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "10^4 pushes into one bucket took {elapsed:?}"
        );
    }
}
