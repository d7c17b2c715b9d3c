//! The parallel partitioned packet engine: conservative-lookahead multi-core
//! execution, bit-identical to the sequential [`crate::Simulator`].
//!
//! # Execution model
//!
//! The topology is cut into P shards ([`crate::partition::plan_shards`]:
//! switches chunked by weight, hosts co-located with their first-hop switch).
//! Each shard runs its own event loop on an OS thread over its own nodes,
//! `Effects` arena and packet pool. Shards synchronize with the classic
//! conservative null-message bound: every cross-shard interaction is a
//! `PacketArrive` over a cross-shard link, which arrives no earlier than the
//! link's propagation delay after it was sent, so with `L` = the minimum
//! cross-shard link delay every shard may process the window
//! `[T, T + L)` (T = global minimum pending time) without hearing from its
//! peers. Cross-shard arrivals travel through per-(producer, consumer)
//! channels that the phase discipline keeps single-producer/single-consumer:
//! producers append only during the processing phase, consumers drain only
//! during the (barrier-separated) exchange phase, so the mutex that makes
//! them safe under `#![forbid(unsafe_code)]` is never contended.
//!
//! # The determinism rule (tie order)
//!
//! The sequential engine pops events in `(time, insertion-seq)` order. The
//! parallel engine reproduces that order *exactly* — not approximately —
//! from each event's lineage instead of a global counter:
//!
//! * Every event carries an `EventKey`: its parent (the executed event
//!   that scheduled it, or a seed ordinal for events scheduled before the
//!   run) and its push index within that parent's execution.
//! * Two events pending at the same instant compare by parent execution
//!   order, then push index. Seeds execute before any runtime push at the
//!   same instant (their insertion seqs are smaller), parents compare by
//!   `(pop time, their own key)` — the recursion the sequential seq order
//!   is built from.
//! * The recursion is *flattened* at each window barrier: a leader k-way
//!   merges the shards' per-window step lists in `(time, key)` order and
//!   assigns dense global ranks, after which a step compares by its rank
//!   and the per-window lists are dropped (keys hold at most a two-deep
//!   `Arc` chain, so memory stays bounded). Replicated global events
//!   (sampling, tracing, fault transitions) execute once per shard with
//!   equal keys and receive the *same* rank, keeping every shard's replica
//!   lineage aligned.
//!
//! Within one executed event the sequential engine's push order is: pushes
//! made while dispatching, then — LIFO — the transmission kick cascade.
//! Both are local to the owning shard except one case: a fault-timeline
//! `LinkUp` kicks both endpoints of the link, which may live on different
//! shards. The kick list is derived from the (replicated) fault timeline, so
//! every shard computes it identically; sub-cascade `r` (in sequential LIFO
//! order) stamps its pushes with index base `(r + 1) << 32`, reproducing the
//! sequential intra-event order without any cross-shard negotiation.
//!
//! The merged [`SimOutput`] normalizes completion records to
//! `(finish, flow id)` order (the campaign digest sorts them by id, so the
//! digest is invariant) and sorts PFC events by `(step rank, push index)` —
//! the exact sequential emission order.

use crate::backend::{Backend, CompiledScenario, PacketBackend};
use crate::config::SimConfig;
use crate::engine::{Effects, Event};
use crate::fault::{LinkDownMode, Transition, FAULT_RNG_STREAM};
use crate::host::Host;
use crate::output::{PfcEvent, SimOutput};
use crate::partition::{plan_shards, ShardLayout};
use crate::simulator::{FaultRuntime, Node};
use crate::switch::Switch;
use hpcc_topology::{NodeKind, TopologySpec};
use hpcc_types::rng::SplitMix64;
use hpcc_types::{Duration, FlowSpec, NodeId, PortId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};

/// Sentinel for "no pending events" in the shared pending-time slots.
const PENDING_NONE: u64 = u64::MAX;

/// One executed event that scheduled children. `rank` is 0 until the window
/// barrier's leader merge assigns the step its dense global execution rank.
#[derive(Debug)]
struct StepRef {
    /// The instant the step executed (its event's pop time).
    time: SimTime,
    /// Shard-local pop ordinal; orders same-shard steps before flattening.
    local_seq: u64,
    /// Dense global execution rank; 0 = not yet flattened. Written only by
    /// the barrier leader, read after the next barrier wait (the barrier's
    /// happens-before makes `Relaxed` sufficient).
    rank: AtomicU64,
}

/// Where an event came from: a pre-run seed or an executed step.
#[derive(Clone, Debug)]
enum Parent {
    /// Seed ordinal in global registration order (sampling, tracing, fault
    /// timeline, then flows) — the order the sequential engine pushes them.
    Seed(u32),
    /// The executed event that scheduled this one.
    Step(Arc<StepRef>),
}

/// The lineage key reproducing the sequential `(time, insertion-seq)` tie
/// order: parent execution order, then push index within the parent.
#[derive(Clone, Debug)]
struct EventKey {
    parent: Parent,
    /// Push index within the parent's execution. Fault `LinkUp` kick
    /// sub-cascade `r` uses base `(r + 1) << 32` (see module docs).
    idx: u64,
}

impl EventKey {
    fn cmp_key(&self, other: &EventKey) -> Ordering {
        match (&self.parent, &other.parent) {
            (Parent::Seed(a), Parent::Seed(b)) => a.cmp(b).then_with(|| self.idx.cmp(&other.idx)),
            // Seeds hold the smallest insertion seqs: at equal pop times
            // they execute before anything pushed at runtime.
            (Parent::Seed(_), Parent::Step(_)) => Ordering::Less,
            (Parent::Step(_), Parent::Seed(_)) => Ordering::Greater,
            (Parent::Step(p), Parent::Step(q)) => p
                .time
                .cmp(&q.time)
                .then_with(|| step_cmp(p, q))
                .then_with(|| self.idx.cmp(&other.idx)),
        }
    }
}

/// Order two same-time steps. Flattened steps compare by global rank
/// (replicas of one global event share a rank and fall through to the push
/// index); unflattened steps are provably from the same shard and window
/// (cross-shard events only enter a heap after their parents flattened, and
/// windows partition time), so the local pop ordinal decides.
fn step_cmp(p: &Arc<StepRef>, q: &Arc<StepRef>) -> Ordering {
    if Arc::ptr_eq(p, q) {
        return Ordering::Equal;
    }
    match (p.rank.load(Relaxed), q.rank.load(Relaxed)) {
        (0, 0) => p.local_seq.cmp(&q.local_seq),
        (0, _) | (_, 0) => {
            debug_assert!(false, "same-time steps must flatten in the same window");
            // Unreachable by construction; keep a deterministic total order
            // anyway rather than panicking in release builds.
            p.local_seq.cmp(&q.local_seq)
        }
        (rp, rq) => rp.cmp(&rq),
    }
}

/// A pending event in a shard's queue (also the cross-shard handoff payload).
#[derive(Debug)]
struct ParSched {
    time: SimTime,
    key: EventKey,
    event: Event,
}

impl PartialEq for ParSched {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ParSched {}
impl PartialOrd for ParSched {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ParSched {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest (time, key).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp_key(&self.key))
    }
}

/// One window's worth of executed steps from a single shard, in local
/// execution order, awaiting the leader's global rank merge.
type WindowSteps = Vec<(EventKey, Arc<StepRef>)>;

/// Shared synchronization state of one parallel run.
struct SharedState {
    parts: usize,
    barrier: Barrier,
    /// Per-shard window step lists, published before the rank merge. The
    /// mutexes are uncontended: each shard writes its own slot, only the
    /// leader reads, in barrier-separated phases.
    steps: Vec<Mutex<WindowSteps>>,
    /// Cross-shard handoff channels, `channels[consumer * parts + producer]`.
    /// SPSC by construction; the mutex only exists to stay in safe Rust, and
    /// the phase discipline keeps it uncontended (see module docs).
    channels: Vec<Mutex<Vec<ParSched>>>,
    /// Earliest pending event time per shard (`PENDING_NONE` = empty).
    pending: Vec<AtomicU64>,
    /// Last processed event time per shard (drives `SimOutput::elapsed`).
    frontier: Vec<AtomicU64>,
    /// Next global step rank (written by the leader only).
    next_rank: AtomicU64,
}

impl SharedState {
    fn new(parts: usize) -> SharedState {
        SharedState {
            parts,
            barrier: Barrier::new(parts),
            steps: (0..parts).map(|_| Mutex::new(Vec::new())).collect(),
            channels: (0..parts * parts).map(|_| Mutex::new(Vec::new())).collect(),
            pending: (0..parts).map(|_| AtomicU64::new(PENDING_NONE)).collect(),
            frontier: (0..parts).map(|_| AtomicU64::new(0)).collect(),
            next_rank: AtomicU64::new(0),
        }
    }

    fn global_now(&self) -> SimTime {
        let ps = self
            .frontier
            .iter()
            .map(|a| a.load(Relaxed))
            .max()
            .unwrap_or(0);
        SimTime::from_ps(ps)
    }
}

/// Leader-side window flattening: k-way merge the shards' step lists in
/// `(time, key)` order and assign dense global ranks. Replicas of one global
/// event appear once per shard with equal keys and get the same rank.
fn rank_window(shared: &SharedState) {
    let lists: Vec<Vec<(EventKey, Arc<StepRef>)>> = shared
        .steps
        .iter()
        .map(|m| std::mem::take(&mut *m.lock().unwrap()))
        .collect();
    let mut heads = vec![0usize; lists.len()];
    let mut rank = shared.next_rank.load(Relaxed);
    loop {
        let mut best: Option<usize> = None;
        for s in 0..lists.len() {
            if heads[s] >= lists[s].len() {
                continue;
            }
            best = Some(match best {
                None => s,
                Some(b) => {
                    let (kb, sb) = &lists[b][heads[b]];
                    let (ks, ss) = &lists[s][heads[s]];
                    if ss.time.cmp(&sb.time).then_with(|| ks.cmp_key(kb)) == Ordering::Less {
                        s
                    } else {
                        b
                    }
                }
            });
        }
        let Some(b) = best else { break };
        rank += 1;
        let (kb, sb) = lists[b][heads[b]].clone();
        sb.rank.store(rank, Relaxed);
        heads[b] += 1;
        for (s, list) in lists.iter().enumerate() {
            if s == b {
                continue;
            }
            while heads[s] < list.len() {
                let (ks, ss) = &list[heads[s]];
                if ss.time == sb.time && ks.cmp_key(&kb) == Ordering::Equal {
                    ss.rank.store(rank, Relaxed);
                    heads[s] += 1;
                } else {
                    break;
                }
            }
        }
        // `lists[b]` may have advanced past further replicas of its own? No:
        // keys are unique within one shard (one pop each), so only other
        // shards can replicate this key.
    }
    shared.next_rank.store(rank, Relaxed);
}

/// What one shard hands back after its thread joins.
struct ShardResult {
    out: SimOutput,
    /// PFC events tagged `(step rank, push index)` — the global sort key.
    pfc: Vec<(u64, u64, PfcEvent)>,
    /// Total PFC events emitted by this shard (beyond the per-shard cap).
    pfc_emitted: u64,
}

/// One shard of the parallel run: a full node array (only owned nodes ever
/// process events; replicas exist so fault state and RNG streams stay in
/// lockstep with the sequential engine), its own event heap, `Effects`
/// arena, output accumulator and key machinery.
struct ShardSim<'a> {
    me: u32,
    layout: &'a ShardLayout,
    topo: &'a TopologySpec,
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    dst_slots: Vec<u32>,
    nodes: Vec<Node>,
    heap: BinaryHeap<ParSched>,
    peak: usize,
    time: SimTime,
    processed: u64,
    eff: Effects,
    kick_stack: Vec<(NodeId, PortId)>,
    faults: Option<FaultRuntime>,
    out: SimOutput,
    /// Shard-local pop ordinal for the next materialized step.
    next_step_seq: u64,
    /// Steps materialized this window, in pop order (sorted by (time, key)).
    window_steps: Vec<(EventKey, Arc<StepRef>)>,
    /// The current event's step, materialized lazily on its first push.
    cur_parent: Option<Arc<StepRef>>,
    /// The current event's own key (consumed when the step materializes).
    cur_key: Option<EventKey>,
    /// Push-index base of the current intra-event region (see module docs).
    idx_base: u64,
    next_idx: u64,
    next_pfc_idx: u64,
    pfc_tagged: Vec<(Arc<StepRef>, u64, PfcEvent)>,
    pfc_emitted: u64,
}

impl<'a> ShardSim<'a> {
    fn new(
        me: u32,
        layout: &'a ShardLayout,
        topo: &'a TopologySpec,
        cfg: &'a SimConfig,
        flows: &'a [FlowSpec],
    ) -> ShardSim<'a> {
        // Node construction mirrors `Simulator::new` exactly — including
        // non-owned replicas — so per-node RNG streams and initial state
        // match the sequential engine bit-for-bit.
        let mut nodes = Vec::with_capacity(topo.node_count());
        for i in 0..topo.node_count() {
            let id = NodeId(i as u32);
            let node = match topo.kind(id) {
                NodeKind::Host => Node::Host(Host::new(id, topo.ports(id))),
                NodeKind::Switch => Node::Switch(Switch::new(id, topo.ports(id), cfg)),
            };
            nodes.push(node);
        }
        let mut heap = BinaryHeap::new();
        let mut seed = 0u32;
        let mut push_seed = |heap: &mut BinaryHeap<ParSched>, t: SimTime, ev: Event, mine: bool| {
            if mine {
                heap.push(ParSched {
                    time: t,
                    key: EventKey {
                        parent: Parent::Seed(seed),
                        idx: 0,
                    },
                    event: ev,
                });
            }
            seed += 1;
        };
        if let Some(interval) = cfg.queue_sample_interval {
            push_seed(&mut heap, SimTime::ZERO + interval, Event::Sample, true);
        }
        if !cfg.trace_ports.is_empty() {
            push_seed(
                &mut heap,
                SimTime::ZERO + cfg.trace_interval,
                Event::TraceSample,
                true,
            );
        }
        let faults = match &cfg.faults {
            Some(plan) if !plan.is_empty() => {
                let runtime = FaultRuntime::new(plan, topo);
                for d in &plan.degraded_links {
                    if d.loss > 0.0 {
                        let (ea, eb) = runtime.endpoints[d.link];
                        for (n, _) in [ea, eb] {
                            let rng = SplitMix64::new(
                                cfg.seed
                                    ^ FAULT_RNG_STREAM
                                    ^ (n.0 as u64).wrapping_mul(0x9E3779B97F4A7C15),
                            );
                            match &mut nodes[n.index()] {
                                Node::Host(h) => h.set_fault_rng(rng),
                                Node::Switch(s) => s.set_fault_rng(rng),
                            }
                        }
                    }
                }
                if let Some(first) = runtime.timeline.next_time() {
                    push_seed(&mut heap, first, Event::FaultTransition, true);
                }
                Some(runtime)
            }
            _ => None,
        };
        let mut dst_slots = Vec::with_capacity(flows.len());
        let mut next_dst_slot = vec![0u32; topo.node_count()];
        for (i, spec) in flows.iter().enumerate() {
            let slot = &mut next_dst_slot[spec.dst.index()];
            dst_slots.push(*slot);
            *slot += 1;
            push_seed(
                &mut heap,
                spec.start,
                Event::FlowStart(i),
                layout.owner(spec.src) == me,
            );
        }
        let mut out = SimOutput::new(1024, cfg.flow_throughput_bin.unwrap_or(Duration::ZERO));
        if cfg.queueing.data_classes > 1 {
            out.class_queue_histograms = vec![Vec::new(); cfg.queueing.data_classes as usize];
        }
        let peak = heap.len();
        ShardSim {
            me,
            layout,
            topo,
            cfg,
            flows,
            dst_slots,
            nodes,
            heap,
            peak,
            time: SimTime::ZERO,
            processed: 0,
            eff: Effects::default(),
            kick_stack: Vec::new(),
            faults,
            out,
            next_step_seq: 0,
            window_steps: Vec::new(),
            cur_parent: None,
            cur_key: None,
            idx_base: 0,
            next_idx: 0,
            next_pfc_idx: 0,
            pfc_tagged: Vec::new(),
            pfc_emitted: 0,
        }
    }

    fn owns(&self, node: NodeId) -> bool {
        self.layout.owns(self.me, node)
    }

    /// The window loop. Each round: publish the finished window's steps,
    /// flatten (leader), exchange handoffs, agree on the next window, run it.
    fn run(&mut self, shared: &SharedState) {
        loop {
            *shared.steps[self.me as usize].lock().unwrap() =
                std::mem::take(&mut self.window_steps);
            if shared.barrier.wait().is_leader() {
                rank_window(shared);
            }
            shared.barrier.wait(); // ranks visible to every shard
            for src in 0..shared.parts {
                let mut inbox = shared.channels[self.me as usize * shared.parts + src]
                    .lock()
                    .unwrap();
                for sched in inbox.drain(..) {
                    self.push_heap(sched);
                }
            }
            let pending = self.heap.peek().map_or(PENDING_NONE, |s| s.time.as_ps());
            shared.pending[self.me as usize].store(pending, Relaxed);
            shared.frontier[self.me as usize].store(self.time.as_ps(), Relaxed);
            shared.barrier.wait(); // pending times visible
            let t_min = shared
                .pending
                .iter()
                .map(|a| a.load(Relaxed))
                .min()
                .expect("at least one shard");
            if t_min == PENDING_NONE || SimTime::from_ps(t_min) > self.cfg.end_time {
                break;
            }
            let window_end = self.layout.lookahead.map(|l| SimTime::from_ps(t_min) + l);
            self.process_window(window_end, shared);
        }
    }

    fn process_window(&mut self, window_end: Option<SimTime>, shared: &SharedState) {
        while let Some(head) = self.heap.peek() {
            let t = head.time;
            if t > self.cfg.end_time {
                break;
            }
            if let Some(we) = window_end {
                if t >= we {
                    break;
                }
            }
            let sched = self.heap.pop().expect("peeked");
            self.step(sched, shared);
        }
    }

    fn push_heap(&mut self, sched: ParSched) {
        self.heap.push(sched);
        self.peak = self.peak.max(self.heap.len());
    }

    /// Mirror of `Simulator::step`, filtered to owned nodes. Replicated
    /// global events run on every shard but count as processed on shard 0
    /// only, so the summed counter matches the sequential engine.
    fn step(&mut self, sched: ParSched, shared: &SharedState) {
        let ParSched {
            time: t,
            key,
            event,
        } = sched;
        let replicated = matches!(
            event,
            Event::Sample | Event::TraceSample | Event::FaultTransition
        );
        if !replicated || self.me == 0 {
            self.processed += 1;
        }
        self.time = t;
        self.cur_key = Some(key);
        self.cur_parent = None;
        self.idx_base = 0;
        self.next_idx = 0;
        self.next_pfc_idx = 0;
        self.eff.clear();
        let mut fault_roots: Vec<(NodeId, PortId)> = Vec::new();
        match event {
            Event::FlowStart(idx) => {
                let spec = self.flows[idx];
                let dst_slot = self.dst_slots[idx];
                debug_assert!(self.owns(spec.src));
                if let Node::Host(h) = &mut self.nodes[spec.src.index()] {
                    h.flow_start(t, spec, dst_slot, self.cfg, &mut self.eff);
                }
            }
            Event::PortReady { node, port } => {
                debug_assert!(self.owns(node));
                match &mut self.nodes[node.index()] {
                    Node::Host(h) => h.port_ready(),
                    Node::Switch(s) => s.port_ready(port),
                }
                self.eff.kicks.push((node, port));
            }
            Event::PacketArrive { node, port, packet } => {
                debug_assert!(self.owns(node));
                match &mut self.nodes[node.index()] {
                    Node::Host(h) => h.handle_arrival(t, port, packet, self.cfg, &mut self.eff),
                    Node::Switch(s) => {
                        s.handle_arrival(t, port, packet, self.cfg, self.topo, &mut self.eff)
                    }
                }
            }
            Event::HostWake { node } => {
                debug_assert!(self.owns(node));
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_wake(t, &mut self.eff);
                }
            }
            Event::CcTimer { node, slot } => {
                debug_assert!(self.owns(node));
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_cc_timer(t, slot, self.cfg, &mut self.eff);
                }
            }
            Event::RtoCheck { node, slot } => {
                debug_assert!(self.owns(node));
                if let Node::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_rto(t, slot, self.cfg, &mut self.eff);
                }
            }
            Event::Sample => {
                let classes = self.cfg.queueing.data_classes;
                for (i, node) in self.nodes.iter().enumerate() {
                    if !self.layout.owns(self.me, NodeId(i as u32)) {
                        continue;
                    }
                    if let Node::Switch(s) = node {
                        for port in s.ports() {
                            self.out.record_queue_sample(port.data_queue_bytes());
                            if classes > 1 {
                                for c in 0..classes {
                                    self.out.record_class_queue_sample(
                                        c as usize,
                                        port.class_queue_bytes(c),
                                    );
                                }
                            }
                        }
                    }
                }
                if let Some(interval) = self.cfg.queue_sample_interval {
                    let next = t + interval;
                    if next <= self.cfg.end_time {
                        self.eff.events.push((next, Event::Sample));
                    }
                }
            }
            Event::TraceSample => {
                for i in 0..self.cfg.trace_ports.len() {
                    let (n, p) = self.cfg.trace_ports[i];
                    if !self.owns(n) {
                        continue;
                    }
                    let qlen = match &self.nodes[n.index()] {
                        Node::Switch(s) => s.ports()[p.index()].data_queue_bytes(),
                        Node::Host(_) => 0,
                    };
                    self.out
                        .port_traces
                        .entry((n, p))
                        .or_default()
                        .push((t, qlen));
                }
                let next = t + self.cfg.trace_interval;
                if next <= self.cfg.end_time {
                    self.eff.events.push((next, Event::TraceSample));
                }
            }
            Event::FaultTransition => self.fault_transition(t, &mut fault_roots),
        }
        self.apply_effects(shared);
        if !fault_roots.is_empty() {
            debug_assert!(self.kick_stack.is_empty() && self.eff.kicks.is_empty());
            // Sequential LIFO pops the kick list back-to-front, completing
            // each root's sub-cascade before the next; region r gets push
            // base (r + 1) << 32 on every shard, and exactly the endpoint
            // owner executes it.
            for (r, &(n, p)) in fault_roots.iter().rev().enumerate() {
                self.idx_base = ((r as u64) + 1) << 32;
                self.next_idx = 0;
                self.next_pfc_idx = 0;
                if self.owns(n) {
                    self.kick_stack.push((n, p));
                    self.work_kicks(shared);
                }
            }
        }
    }

    /// Mirror of `Simulator::fault_transition`: applied to every local
    /// replica (owned or not) so link state, RNG draws and the accounting
    /// evolve identically on all shards; the `LinkUp` resume kicks are
    /// collected into `roots` instead of the kick stack (see module docs).
    fn fault_transition(&mut self, now: SimTime, roots: &mut Vec<(NodeId, PortId)>) {
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        for (_, tr) in fr.timeline.due(now) {
            fr.events_applied += 1;
            match tr {
                Transition::LinkDown { link, mode } => {
                    let drop_mode = mode == LinkDownMode::Drop;
                    let (ea, eb) = fr.endpoints[link];
                    for (n, p) in [ea, eb] {
                        match &mut self.nodes[n.index()] {
                            Node::Host(h) => h.set_link_down(true, drop_mode),
                            Node::Switch(s) => s.set_link_down(p, true, drop_mode),
                        }
                    }
                    fr.down_since[link] = Some(now);
                    fr.active += 1;
                }
                Transition::LinkUp { link } => {
                    let (ea, eb) = fr.endpoints[link];
                    for (n, p) in [ea, eb] {
                        match &mut self.nodes[n.index()] {
                            Node::Host(h) => h.set_link_down(false, false),
                            Node::Switch(s) => s.set_link_down(p, false, false),
                        }
                        roots.push((n, p));
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
                    let (ea, eb) = fr.endpoints[d.link];
                    for (n, p) in [ea, eb] {
                        match &mut self.nodes[n.index()] {
                            Node::Host(h) => h.set_link_degraded(d.extra_delay, d.loss),
                            Node::Switch(s) => s.set_link_degraded(p, d.extra_delay, d.loss),
                        }
                    }
                    fr.active += 1;
                }
                Transition::DegradeOff { idx } => {
                    let d = fr.plan.degraded_links[idx];
                    let (ea, eb) = fr.endpoints[d.link];
                    for (n, p) in [ea, eb] {
                        match &mut self.nodes[n.index()] {
                            Node::Host(h) => h.set_link_degraded(Duration::ZERO, 0.0),
                            Node::Switch(s) => s.set_link_degraded(p, Duration::ZERO, 0.0),
                        }
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
        if let Some(next) = fr.timeline.next_time() {
            self.eff.events.push((next, Event::FaultTransition));
        }
    }

    /// Mirror of `Simulator::apply_effects`.
    fn apply_effects(&mut self, shared: &SharedState) {
        self.absorb(shared);
        debug_assert!(self.kick_stack.is_empty());
        self.kick_stack.append(&mut self.eff.kicks);
        self.work_kicks(shared);
    }

    /// The LIFO transmission-kick loop (every kick is self-node, hence
    /// shard-local; checked in debug builds).
    fn work_kicks(&mut self, shared: &SharedState) {
        while let Some((n, p)) = self.kick_stack.pop() {
            debug_assert!(self.owns(n), "kick cascades never cross shards");
            match &mut self.nodes[n.index()] {
                Node::Host(h) => h.try_transmit(self.time, self.cfg, &mut self.eff),
                Node::Switch(s) => s.try_transmit(self.time, p, self.cfg, &mut self.eff),
            }
            self.kick_stack.append(&mut self.eff.kicks);
            self.absorb(shared);
        }
    }

    /// Materialize the current event's step on its first push.
    fn current_step(&mut self) -> Arc<StepRef> {
        if let Some(s) = &self.cur_parent {
            return Arc::clone(s);
        }
        let s = Arc::new(StepRef {
            time: self.time,
            local_seq: self.next_step_seq,
            rank: AtomicU64::new(0),
        });
        self.next_step_seq += 1;
        let key = self.cur_key.take().expect("step key is materialized once");
        self.window_steps.push((key, Arc::clone(&s)));
        self.cur_parent = Some(Arc::clone(&s));
        s
    }

    /// Mirror of `Simulator::absorb`: drain the arena into the local heap,
    /// the cross-shard channels and the output records, stamping every push
    /// with its lineage key.
    fn absorb(&mut self, shared: &SharedState) {
        if !self.eff.events.is_empty() {
            let step = self.current_step();
            let mut evs = std::mem::take(&mut self.eff.events);
            for (t, e) in evs.drain(..) {
                debug_assert!(self.next_idx < 1 << 32, "push index fits the region base");
                let key = EventKey {
                    parent: Parent::Step(Arc::clone(&step)),
                    idx: self.idx_base | self.next_idx,
                };
                self.next_idx += 1;
                let sched = ParSched {
                    time: t,
                    key,
                    event: e,
                };
                match self.layout.event_home(&sched.event, self.flows) {
                    Some(owner) if owner != self.me => {
                        shared.channels[owner as usize * shared.parts + self.me as usize]
                            .lock()
                            .unwrap()
                            .push(sched);
                    }
                    _ => self.push_heap(sched),
                }
            }
            self.eff.events = evs;
        }
        for rec in self.eff.completions.drain(..) {
            self.out.flows.push(rec);
        }
        if !self.eff.pfc_events.is_empty() {
            let step = self.current_step();
            for ev in self.eff.pfc_events.drain(..) {
                debug_assert!(self.next_pfc_idx < 1 << 32);
                if self.pfc_tagged.len() < SimOutput::PFC_EVENT_CAP {
                    self.pfc_tagged.push((
                        Arc::clone(&step),
                        self.idx_base | self.next_pfc_idx,
                        ev,
                    ));
                }
                self.next_pfc_idx += 1;
                self.pfc_emitted += 1;
            }
        }
        let fault_active = self.faults.as_ref().is_some_and(|fr| fr.active > 0);
        for (f, b) in self.eff.goodput.drain(..) {
            if fault_active {
                self.out.goodput_during_faults += b;
            }
            self.out.record_goodput(f, self.time, b);
        }
        self.out.packets_delivered += self.eff.packets_delivered;
        self.out.packets_sent += self.eff.packets_sent;
        self.eff.packets_delivered = 0;
        self.eff.packets_sent = 0;
    }

    /// Mirror of `Simulator::finalize` over owned nodes. `now` is the
    /// *global* last processed time (all shards close out at the same
    /// instant, like the sequential engine). The fault close-out runs on
    /// every shard (the accounting is replicated) but only shard 0 exports
    /// it, so the merge does not double count.
    fn finalize(mut self, now: SimTime) -> ShardResult {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let id = NodeId(i as u32);
            if !self.layout.owns(self.me, id) {
                continue;
            }
            match node {
                Node::Switch(s) => {
                    s.finalize(now);
                    let (fp, fb) = s.fault_drops();
                    self.out.fault_dropped_packets += fp;
                    self.out.fault_dropped_bytes += fb;
                    for (pi, port) in s.ports().iter().enumerate() {
                        self.out
                            .ports
                            .insert((id, PortId(pi as u32)), port.counters);
                    }
                }
                Node::Host(h) => {
                    let unfinished = h.finalize(now);
                    self.out.unfinished_flows += unfinished;
                    let (fp, fb) = h.fault_drops();
                    self.out.fault_dropped_packets += fp;
                    self.out.fault_dropped_bytes += fb;
                    self.out.ports.insert((id, PortId(0)), h.counters);
                }
            }
        }
        if let Some(mut fr) = self.faults.take() {
            for link in 0..fr.down_since.len() {
                if let Some(since) = fr.down_since[link].take() {
                    let dt = now.saturating_since(since);
                    fr.downtime[link] += dt;
                    fr.host_nic_downtime += dt * fr.host_ends[link] as u64;
                }
            }
            if self.me == 0 {
                self.out.fault_events = fr.events_applied;
                self.out.host_nic_downtime = fr.host_nic_downtime;
                self.out.link_downtime = fr
                    .downtime
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| !d.is_zero())
                    .map(|(i, &d)| (i, d))
                    .collect();
            }
        }
        self.out.elapsed = now;
        self.out.events_processed = self.processed;
        self.out.peak_event_queue = self.peak as u64;
        let pfc = self
            .pfc_tagged
            .into_iter()
            .map(|(step, sub, ev)| {
                let rank = step.rank.load(Relaxed);
                debug_assert!(rank > 0, "every emitting step was flattened");
                (rank, sub, ev)
            })
            .collect();
        ShardResult {
            out: self.out,
            pfc,
            pfc_emitted: self.pfc_emitted,
        }
    }
}

/// Merge the per-shard outputs into one [`SimOutput`]. Node-keyed maps are
/// disjoint by ownership; histograms sum elementwise; PFC events globally
/// re-sort by `(step rank, push index)`; completion records normalize to
/// `(finish, id)` order (digest-invariant — the digest sorts by id).
fn merge_outputs(cfg: &SimConfig, shards: Vec<ShardResult>, now: SimTime) -> SimOutput {
    let mut out = SimOutput::new(1024, cfg.flow_throughput_bin.unwrap_or(Duration::ZERO));
    if cfg.queueing.data_classes > 1 {
        out.class_queue_histograms = vec![Vec::new(); cfg.queueing.data_classes as usize];
    }
    let mut pfc_all: Vec<(u64, u64, PfcEvent)> = Vec::new();
    let mut pfc_total = 0u64;
    for sh in shards {
        let s = sh.out;
        out.flows.extend(s.flows);
        out.unfinished_flows += s.unfinished_flows;
        // Per-node maps are disjoint across shards; collect-and-sort keeps
        // the merge order deterministic (and simlint-clean).
        let mut ports: Vec<_> = s.ports.into_iter().collect();
        ports.sort_unstable_by_key(|&((n, p), _)| (n.0, p.0));
        for (k, v) in ports {
            out.ports.insert(k, v);
        }
        let mut traces: Vec<_> = s.port_traces.into_iter().collect();
        traces.sort_unstable_by_key(|&((n, p), _)| (n.0, p.0));
        for (k, v) in traces {
            out.port_traces.insert(k, v);
        }
        let mut goodput: Vec<_> = s.flow_goodput.into_iter().collect();
        goodput.sort_unstable_by_key(|&(f, _)| f.0);
        for (k, v) in goodput {
            out.flow_goodput.insert(k, v);
        }
        if out.queue_histogram.len() < s.queue_histogram.len() {
            out.queue_histogram.resize(s.queue_histogram.len(), 0);
        }
        for (i, c) in s.queue_histogram.iter().enumerate() {
            out.queue_histogram[i] += c;
        }
        for (class, hist) in s.class_queue_histograms.iter().enumerate() {
            let dst = &mut out.class_queue_histograms[class];
            if dst.len() < hist.len() {
                dst.resize(hist.len(), 0);
            }
            for (i, c) in hist.iter().enumerate() {
                dst[i] += c;
            }
        }
        out.events_processed += s.events_processed;
        out.peak_event_queue = out.peak_event_queue.max(s.peak_event_queue);
        out.packets_delivered += s.packets_delivered;
        out.packets_sent += s.packets_sent;
        out.fault_dropped_bytes += s.fault_dropped_bytes;
        out.fault_dropped_packets += s.fault_dropped_packets;
        out.goodput_during_faults += s.goodput_during_faults;
        // Replicated fault accounting is exported by shard 0 only.
        out.fault_events += s.fault_events;
        out.host_nic_downtime += s.host_nic_downtime;
        if !s.link_downtime.is_empty() {
            out.link_downtime = s.link_downtime;
        }
        pfc_all.extend(sh.pfc);
        pfc_total += sh.pfc_emitted;
    }
    out.flows.sort_unstable_by_key(|f| (f.finish, f.id.0));
    pfc_all.sort_unstable_by_key(|&(rank, sub, _)| (rank, sub));
    out.pfc_events = pfc_all
        .into_iter()
        .take(SimOutput::PFC_EVENT_CAP)
        .map(|(_, _, ev)| ev)
        .collect();
    out.pfc_events_truncated = pfc_total > SimOutput::PFC_EVENT_CAP as u64;
    out.elapsed = now;
    out
}

/// Run a compiled scenario on `threads` shards (see module docs). Collapses
/// to the sequential engine when the partitioner yields one shard (threads
/// ≤ 1, single-switch topologies, or a zero-lookahead cut).
pub fn run_parallel(scenario: CompiledScenario, threads: u32) -> SimOutput {
    let layout = plan_shards(&scenario.topo, threads);
    if layout.parts <= 1 {
        return PacketBackend.run(scenario);
    }
    let CompiledScenario { topo, cfg, flows } = scenario;
    let parts = layout.parts as usize;
    let shared = SharedState::new(parts);
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(parts);
        for me in 0..parts as u32 {
            let (layout, topo, cfg, flows, shared) = (&layout, &topo, &cfg, &flows, &shared);
            handles.push(scope.spawn(move || {
                let mut sim = ShardSim::new(me, layout, topo, cfg, flows);
                sim.run(shared);
                sim.finalize(shared.global_now())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    merge_outputs(&cfg, results, shared.global_now())
}

/// The parallel partitioned packet engine behind the [`Backend`] boundary.
///
/// Produces output bit-identical (up to digest-invariant record order; see
/// `merge_outputs`) to [`PacketBackend`] for every scenario, at
/// multi-core throughput on partitionable topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelPacketBackend {
    /// Worker threads requested (the partitioner may clamp; 1 collapses to
    /// the sequential engine).
    pub threads: u32,
}

impl Backend for ParallelPacketBackend {
    fn name(&self) -> &'static str {
        "parallel_packet"
    }

    fn run(&self, scenario: CompiledScenario) -> SimOutput {
        run_parallel(scenario, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowControlMode;
    use crate::fault::{FaultConfig, LinkFault};
    use hpcc_cc::{CcAlgorithm, DcqcnConfig};
    use hpcc_topology::{fat_tree, FatTreeParams};
    use hpcc_types::{Bandwidth, FlowId};

    const LINE: Bandwidth = Bandwidth::from_gbps(100);

    fn fat_tree_scenario(with_faults: bool) -> CompiledScenario {
        let topo = fat_tree(FatTreeParams::small());
        let base_rtt = topo.suggested_base_rtt(1106);
        let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, base_rtt);
        cfg.end_time = SimTime::from_ms(2);
        cfg.queue_sample_interval = Some(Duration::from_us(3));
        cfg.flow_throughput_bin = Some(Duration::from_us(100));
        let switch = topo.switches()[0];
        cfg.trace_ports = vec![(switch, PortId(0))];
        cfg.trace_interval = Duration::from_us(7);
        if with_faults {
            cfg.faults = Some(FaultConfig {
                link_faults: vec![LinkFault {
                    link: 0,
                    at: Duration::from_us(100),
                    down_for: Duration::from_us(300),
                    flaps: 1,
                    period: Duration::from_us(700),
                    mode: crate::fault::LinkDownMode::Drop,
                }],
                ..Default::default()
            });
        }
        let hosts = topo.hosts().to_vec();
        let n = hosts.len();
        let mut flows = Vec::new();
        for i in 0..n {
            flows.push(FlowSpec::new(
                FlowId(i as u64 + 1),
                hosts[i],
                hosts[(i + n / 2 + 1) % n],
                200_000,
                SimTime::from_us((i as u64) % 7),
            ));
        }
        CompiledScenario { topo, cfg, flows }
    }

    fn normalize(mut out: SimOutput) -> SimOutput {
        out.flows.sort_unstable_by_key(|f| (f.finish, f.id.0));
        out
    }

    fn assert_outputs_match(seq: &SimOutput, par: &SimOutput) {
        assert_eq!(seq.flows, par.flows);
        assert_eq!(seq.unfinished_flows, par.unfinished_flows);
        assert_eq!(seq.ports, par.ports);
        assert_eq!(seq.queue_histogram, par.queue_histogram);
        assert_eq!(seq.class_queue_histograms, par.class_queue_histograms);
        assert_eq!(seq.port_traces, par.port_traces);
        assert_eq!(seq.flow_goodput, par.flow_goodput);
        assert_eq!(seq.pfc_events, par.pfc_events);
        assert_eq!(seq.pfc_events_truncated, par.pfc_events_truncated);
        assert_eq!(seq.elapsed, par.elapsed);
        assert_eq!(seq.events_processed, par.events_processed);
        assert_eq!(seq.packets_delivered, par.packets_delivered);
        assert_eq!(seq.packets_sent, par.packets_sent);
        assert_eq!(seq.fault_events, par.fault_events);
        assert_eq!(seq.link_downtime, par.link_downtime);
        assert_eq!(seq.fault_dropped_bytes, par.fault_dropped_bytes);
        assert_eq!(seq.fault_dropped_packets, par.fault_dropped_packets);
        assert_eq!(seq.goodput_during_faults, par.goodput_during_faults);
        assert_eq!(seq.host_nic_downtime, par.host_nic_downtime);
    }

    #[test]
    fn parallel_matches_sequential_on_a_fat_tree() {
        let seq = normalize(PacketBackend.run(fat_tree_scenario(false)));
        for threads in [2, 3, 4] {
            let par = run_parallel(fat_tree_scenario(false), threads);
            assert_outputs_match(&seq, &par);
        }
    }

    #[test]
    fn parallel_matches_sequential_under_faults() {
        let seq = normalize(PacketBackend.run(fat_tree_scenario(true)));
        let par = run_parallel(fat_tree_scenario(true), 2);
        assert_outputs_match(&seq, &par);
    }

    #[test]
    fn parallel_matches_sequential_with_pfc_under_incast() {
        // DCQCN + a small buffer forces PFC pauses: exercises the pause-frame
        // path (cross-shard PFC packets) and the tagged PFC event merge.
        let build = || {
            let topo = fat_tree(FatTreeParams::small());
            let base_rtt = topo.suggested_base_rtt(1106);
            let mut cfg = SimConfig::for_cc(
                CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
                LINE,
                base_rtt,
            );
            cfg.end_time = SimTime::from_ms(3);
            cfg.flow_control = FlowControlMode::Lossless;
            cfg.buffer_bytes = 300_000;
            let hosts = topo.hosts().to_vec();
            let mut flows = Vec::new();
            for i in 0..hosts.len() - 1 {
                flows.push(FlowSpec::new(
                    FlowId(i as u64 + 1),
                    hosts[i],
                    hosts[hosts.len() - 1],
                    300_000,
                    SimTime::from_us(i as u64),
                ));
            }
            CompiledScenario { topo, cfg, flows }
        };
        let seq = normalize(PacketBackend.run(build()));
        assert!(!seq.pfc_events.is_empty(), "incast should trigger PFC");
        let par = run_parallel(build(), 4);
        assert_outputs_match(&seq, &par);
    }

    #[test]
    fn single_switch_topologies_collapse_to_the_sequential_engine() {
        let topo = hpcc_topology::star(4, LINE, Duration::from_us(1));
        let base_rtt = topo.suggested_base_rtt(1106);
        let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), LINE, base_rtt);
        cfg.end_time = SimTime::from_ms(2);
        let hosts = topo.hosts().to_vec();
        let flows = vec![FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            100_000,
            SimTime::ZERO,
        )];
        let seq = PacketBackend.run(CompiledScenario {
            topo: topo.clone(),
            cfg: cfg.clone(),
            flows: flows.clone(),
        });
        let par = ParallelPacketBackend { threads: 8 }.run(CompiledScenario { topo, cfg, flows });
        // Collapsed path delegates wholesale: even the completion order and
        // the peak queue metric match.
        assert_eq!(seq.flows, par.flows);
        assert_eq!(seq.events_processed, par.events_processed);
        assert_eq!(seq.peak_event_queue, par.peak_event_queue);
    }
}
