//! [`FluidBackend`], a flow-level engine behind the
//! [`crate::backend::Backend`] boundary. It builds the path×resource matrix
//! from [`TopologySpec`] routing (using the *same* deterministic per-(flow,
//! node) ECMP hash as the packet switches), models each CC scheme by its
//! steady state, advances flows epoch by epoch with the Appendix A.2
//! recursion (see [`crate::appendix_a`]) re-solved at every flow
//! arrival/completion, and synthesizes FCT / utilization / queue estimates
//! into a [`SimOutput`]. It is kept for the benchmark's sweep only and is
//! not validated against the packet engine.
//!
//! # The CC steady-state model
//!
//! The packet engine simulates the control law per ACK; the fluid backend
//! only keeps what survives at equilibrium:
//!
//! * **HPCC** — bottlenecks settle at the target utilization `η`, lifted by
//!   the Appendix A.3 additive-increase equilibrium
//!   `U = η / (1 − W_AI/(RTT·R))` (clamped to 1), and leave no standing
//!   queue.
//! * **DCQCN / DCTCP** — ECN keeps the link full (`U = 1`) with a standing
//!   queue between the marking thresholds (`(Kmin+Kmax)/2`; DCTCP's step
//!   marking makes that exactly `Kmin`).
//! * **TIMELY** — the RTT-gradient band keeps the link full with a standing
//!   delay inside `[T_low, T_high]` (modelled at the midpoint).
//!
//! Every flow's completion additionally pays the forward path delay, the
//! reverse (ACK) path delay and its bottleneck's standing-queue delay, so
//! short-flow FCTs stay latency-dominated exactly as in the packet engine.
//!
//! The whole run is pure `f64` arithmetic over a deterministic event order:
//! the same [`CompiledScenario`] produces the same `SimOutput` (and digest)
//! on every run and platform with IEEE-754 semantics.

use crate::backend::{Backend, CompiledScenario};
use crate::config::SimConfig;
use crate::output::{FlowRecord, SimOutput};
use crate::switch::ecmp_path;
use hpcc_cc::CcAlgorithm;
use hpcc_topology::{NodeKind, TopologySpec};
use hpcc_types::{Duration, FlowSpec, NodeId, PortId, SimTime, MTU_PAYLOAD};

/// What survives of a CC scheme at steady state (see the module docs).
#[derive(Clone, Copy, Debug)]
struct SteadyState {
    /// Target bottleneck utilization (HPCC's `η`; 1.0 for the filling
    /// schemes).
    utilization: f64,
    /// Additive-increase rate in bit/s (`W_AI / base RTT`), feeding the A.3
    /// equilibrium lift. Zero for non-HPCC schemes.
    ai_rate_bps: f64,
    /// Standing bottleneck queue in bytes (ECN-governed schemes).
    queue_bytes: f64,
    /// Standing bottleneck delay (TIMELY's RTT-gradient band).
    queue_delay: Duration,
}

fn steady_state(cfg: &SimConfig) -> SteadyState {
    match &cfg.cc {
        CcAlgorithm::Hpcc(h) => SteadyState {
            utilization: h.eta.clamp(0.05, 1.0),
            ai_rate_bps: (h.wai as f64 * 8.0) / cfg.base_rtt.as_secs_f64().max(1e-12),
            queue_bytes: 0.0,
            queue_delay: Duration::ZERO,
        },
        CcAlgorithm::Dcqcn(_) | CcAlgorithm::DcqcnWin(_) | CcAlgorithm::Dctcp(_) => SteadyState {
            utilization: 1.0,
            ai_rate_bps: 0.0,
            queue_bytes: cfg
                .ecn
                .map(|e| (e.kmin_bytes + e.kmax_bytes) as f64 / 2.0)
                .unwrap_or(0.0),
            queue_delay: Duration::ZERO,
        },
        CcAlgorithm::Timely(t) | CcAlgorithm::TimelyWin(t) => SteadyState {
            utilization: 1.0,
            ai_rate_bps: 0.0,
            queue_bytes: 0.0,
            queue_delay: Duration::from_ps((t.t_low.as_ps() + t.t_high.as_ps()) / 2),
        },
    }
}

/// One egress link used by at least one flow — a row of the incidence
/// matrix, stored sparsely.
struct Resource {
    node: NodeId,
    port: PortId,
    /// Raw link capacity in bit/s (wire bits).
    cap_bps: f64,
    /// `cap_bps` scaled by the scheme's steady-state utilization for the
    /// current epoch (the HPCC A.3 lift depends on the active flow count).
    eff_cap: f64,
    load: f64,
    n_active: u32,
    is_switch: bool,
    saturated_now: bool,
    ever_saturated: bool,
    tx_bits: f64,
}

/// Per-flow fluid state.
struct FluidFlow {
    spec: FlowSpec,
    /// Resource indices along the routed path; empty means unroutable (the
    /// packet engine would drop every packet — the flow never finishes).
    path: Vec<u32>,
    /// Source NIC line rate (the recursion's initial rate, per the RDMA
    /// start-at-line-rate model).
    nic_bps: f64,
    /// Total wire bytes to move (payload + per-packet header/INT overhead).
    wire_bytes: f64,
    remaining: f64,
    rate: f64,
    /// Unconditional FCT padding: forward + reverse propagation delay.
    base_pad: Duration,
    /// Contention-only FCT padding: the steady-state standing queue the CC
    /// scheme holds at a *shared* bottleneck. A solo flow on an uncongested
    /// path sees no standing queue, so this is added only when the flow
    /// shared some path resource with another active flow — and a queue
    /// cannot have stood for longer than the sharing lasted, so the pad is
    /// capped by [`FluidFlow::contended_s`].
    queue_pad: Duration,
    /// Seconds during which some resource on the path carried ≥ 2 active
    /// flows while this flow was in flight.
    contended_s: f64,
    done: bool,
}

fn secs_to_simtime(s: f64) -> SimTime {
    SimTime::from_ps((s * 1e12).round().max(0.0) as u64)
}

/// The routed path of one flow as resource indices, interning each egress
/// link in `resources`. The walk is [`ecmp_path`] — the one the packet engine
/// stamps its packets' routes from — so both backends put a flow on the same
/// links. Returns `None` when the topology has no route.
fn route_flow(
    topo: &TopologySpec,
    spec: &FlowSpec,
    resources: &mut Vec<Resource>,
    index: &mut std::collections::BTreeMap<(NodeId, PortId), u32>,
) -> Option<Vec<u32>> {
    let mut path = Vec::with_capacity(6);
    let reached = ecmp_path(topo, spec.id.raw(), spec.src, spec.dst, |node, port| {
        let ri = *index.entry((node, port)).or_insert_with(|| {
            let desc = &topo.ports(node)[port.index()];
            resources.push(Resource {
                node,
                port,
                cap_bps: desc.bandwidth.as_bps() as f64,
                eff_cap: desc.bandwidth.as_bps() as f64,
                load: 0.0,
                n_active: 0,
                is_switch: matches!(topo.kind(node), NodeKind::Switch),
                saturated_now: false,
                ever_saturated: false,
                tx_bits: 0.0,
            });
            (resources.len() - 1) as u32
        });
        path.push(ri);
    });
    // An empty path is `src == dst`: nothing to transmit over the fabric.
    (reached && !path.is_empty()).then_some(path)
}

/// Re-solve the A.2 recursion for the current active set. Rates start at the
/// NIC line rate (the RDMA model) and converge geometrically onto the
/// Pareto-optimal allocation over the effective (steady-state-scaled)
/// capacities.
fn solve_rates(active: &[usize], flows: &mut [FluidFlow], res: &mut [Resource], ss: &SteadyState) {
    for r in res.iter_mut() {
        r.n_active = 0;
    }
    for &f in active {
        for &ri in &flows[f].path {
            res[ri as usize].n_active += 1;
        }
    }
    for r in res.iter_mut() {
        let mut u = ss.utilization;
        // Appendix A.3: W_AI > 0 lifts the equilibrium utilization above η.
        if ss.ai_rate_bps > 0.0 && r.n_active > 0 {
            let share = u * r.cap_bps / r.n_active as f64;
            u = if ss.ai_rate_bps >= share {
                1.0
            } else {
                (u / (1.0 - ss.ai_rate_bps / share)).min(1.0)
            };
        }
        r.eff_cap = r.cap_bps * u;
    }
    for &f in active {
        flows[f].rate = flows[f].nic_bps;
    }
    for _ in 0..64 {
        for r in res.iter_mut() {
            r.load = 0.0;
        }
        for &f in active {
            let rate = flows[f].rate;
            for &ri in &flows[f].path {
                res[ri as usize].load += rate;
            }
        }
        let mut changed = false;
        for &f in active {
            let fl = &mut flows[f];
            let mut k = f64::MIN;
            for &ri in &fl.path {
                let r = &res[ri as usize];
                k = k.max(r.load / r.eff_cap);
            }
            let next = fl.rate / k.max(f64::MIN_POSITIVE);
            if (next - fl.rate).abs() > 1e-9 * fl.rate.abs().max(1e-12) {
                changed = true;
            }
            fl.rate = next;
        }
        if !changed {
            break;
        }
    }
    for r in res.iter_mut() {
        r.load = 0.0;
        r.saturated_now = false;
    }
    for &f in active {
        let rate = flows[f].rate;
        for &ri in &flows[f].path {
            res[ri as usize].load += rate;
        }
    }
    for r in res.iter_mut() {
        if r.n_active > 0 && r.load >= 0.999 * r.eff_cap {
            r.saturated_now = true;
            r.ever_saturated = true;
        }
    }
}

/// The Appendix A.2 fluid-model engine behind the
/// [`crate::backend::Backend`] boundary.
///
/// Orders of magnitude faster than the packet engine (work scales with flow
/// arrivals/completions instead of packets), at the price of modelling CC as
/// its steady state: no per-ACK dynamics, no PFC, no loss, no multi-class
/// scheduling, no fault timelines. Scenario resolution rejects the
/// unsupported combinations up front.
pub struct FluidBackend;

impl Backend for FluidBackend {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn run(&self, scenario: CompiledScenario) -> SimOutput {
        fluid_run(scenario)
    }
}

fn fluid_run(scenario: CompiledScenario) -> SimOutput {
    let CompiledScenario { topo, cfg, flows } = scenario;
    let ss = steady_state(&cfg);
    let mut out = SimOutput::new(1024, cfg.measure.goodput_bin.unwrap_or(Duration::ZERO));
    let flow_count = flows.len();
    let header_wire = cfg.data_wire_size() - MTU_PAYLOAD;
    let end_s = cfg.end_time.as_secs_f64();

    // Route every flow, interning the egress links it crosses.
    let mut resources: Vec<Resource> = Vec::new();
    let mut res_index = std::collections::BTreeMap::new();
    let mut fluid: Vec<FluidFlow> = flows
        .iter()
        .map(|spec| {
            let path = route_flow(&topo, spec, &mut resources, &mut res_index);
            let nic_bps = topo
                .ports(spec.src)
                .first()
                .map(|p| p.bandwidth.as_bps() as f64)
                .unwrap_or(0.0);
            let wire_bytes = spec.size as f64 + spec.packet_count() as f64 * header_wire as f64;
            let (path, base_pad, queue_pad) = match path {
                Some(p) => {
                    let min_cap = p
                        .iter()
                        .map(|&ri| resources[ri as usize].cap_bps)
                        .fold(f64::MAX, f64::min);
                    let fwd = topo
                        .path_one_way_delay(spec.src, spec.dst, cfg.data_wire_size())
                        .unwrap_or(Duration::ZERO);
                    let rev = topo
                        .path_one_way_delay(spec.dst, spec.src, cfg.data_wire_size())
                        .unwrap_or(Duration::ZERO);
                    let standing = Duration::from_ps(
                        ((ss.queue_bytes * 8.0 / min_cap.max(1.0)) * 1e12).round() as u64,
                    ) + ss.queue_delay;
                    (p, fwd + rev, standing)
                }
                None => (Vec::new(), Duration::ZERO, Duration::ZERO),
            };
            FluidFlow {
                spec: *spec,
                path,
                nic_bps: nic_bps.max(1.0),
                wire_bytes,
                remaining: wire_bytes,
                rate: 0.0,
                base_pad,
                queue_pad,
                contended_s: 0.0,
                done: false,
            }
        })
        .collect();

    // Admission order: by start time, then id — the deterministic event order.
    let mut order: Vec<usize> = (0..fluid.len())
        .filter(|&i| !fluid[i].path.is_empty())
        .collect();
    order.sort_by(|&a, &b| {
        (fluid[a].spec.start, fluid[a].spec.id.raw())
            .cmp(&(fluid[b].spec.start, fluid[b].spec.id.raw()))
    });

    let switch_ports_total: usize = topo.switches().iter().map(|&s| topo.ports(s).len()).sum();
    let sample_interval_s = cfg.measure.queue_sample_interval.map(|d| d.as_secs_f64());
    let mut next_sample_s = sample_interval_s.unwrap_or(f64::MAX);

    let mut records: Vec<FlowRecord> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut admit = 0usize;
    let mut t = 0.0f64;
    let mut last_event_s = 0.0f64;
    let goodput_bin_s = cfg.measure.goodput_bin.map_or(0.0, |d| d.as_secs_f64());

    // Emit the queue samples due in (from, to]: every switch egress is
    // sampled, saturated fluid resources at their standing-queue estimate and
    // everything else at zero — mirroring the packet engine's all-ports
    // sampling cadence so queue CDFs stay comparable.
    macro_rules! emit_samples {
        ($to:expr, $resources:expr) => {
            if let Some(interval) = sample_interval_s {
                while next_sample_s <= $to && next_sample_s <= end_s {
                    let mut sampled = 0usize;
                    for r in $resources.iter() {
                        if !r.is_switch {
                            continue;
                        }
                        sampled += 1;
                        let q = if r.saturated_now {
                            (ss.queue_bytes + ss.queue_delay.as_secs_f64() * r.cap_bps / 8.0)
                                .round() as u64
                        } else {
                            0
                        };
                        out.record_queue_sample(q);
                    }
                    for _ in sampled..switch_ports_total {
                        out.record_queue_sample(0);
                    }
                    next_sample_s += interval;
                }
            }
        };
    }

    loop {
        if active.is_empty() {
            // Jump to the next arrival (or finish).
            match order.get(admit) {
                Some(&i) if fluid[i].spec.start.as_secs_f64() <= end_s => {
                    let start_s = fluid[i].spec.start.as_secs_f64();
                    // The network is idle while we jump: queues are drained.
                    for r in resources.iter_mut() {
                        r.saturated_now = false;
                    }
                    emit_samples!(start_s, resources);
                    t = start_s;
                    last_event_s = last_event_s.max(t);
                    while admit < order.len()
                        && fluid[order[admit]].spec.start.as_secs_f64() <= t + 1e-15
                    {
                        active.push(order[admit]);
                        admit += 1;
                    }
                }
                _ => break,
            }
        }

        solve_rates(&active, &mut fluid, &mut resources, &ss);
        out.events_processed += active.len() as u64 + 1;
        let shared: Vec<bool> = active
            .iter()
            .map(|&f| {
                fluid[f]
                    .path
                    .iter()
                    .any(|&ri| resources[ri as usize].n_active >= 2)
            })
            .collect();

        // Next event: the earliest of (next arrival, earliest completion,
        // horizon).
        let next_arrival = order
            .get(admit)
            .map(|&i| fluid[i].spec.start.as_secs_f64())
            .unwrap_or(f64::MAX);
        let mut t_event = next_arrival.min(end_s);
        for &f in &active {
            let fl = &fluid[f];
            let done_at = t + fl.remaining * 8.0 / fl.rate.max(1.0);
            t_event = t_event.min(done_at);
        }
        let dt = (t_event - t).max(0.0);

        // Integrate [t, t_event): drain bytes, accumulate link tx, spread
        // goodput, emit queue samples.
        emit_samples!(t_event, resources);
        for (k, &f) in active.iter().enumerate() {
            let fl = &mut fluid[f];
            if shared[k] {
                fl.contended_s += dt;
            }
            let drained = (fl.rate * dt / 8.0).min(fl.remaining);
            fl.remaining -= drained;
            if goodput_bin_s > 0.0 && drained > 0.0 {
                let app_ratio = fl.spec.size as f64 / fl.wire_bytes.max(1.0);
                // Split the drained bytes across the goodput bins the epoch
                // overlaps.
                let mut b0 = t;
                while b0 < t_event {
                    let bin_end = ((b0 / goodput_bin_s).floor() + 1.0) * goodput_bin_s;
                    let b1 = bin_end.min(t_event);
                    let share = drained * (b1 - b0) / dt.max(1e-18) * app_ratio;
                    out.record_goodput(
                        fl.spec.id,
                        secs_to_simtime((b0 + b1) / 2.0),
                        share.round() as u64,
                    );
                    b0 = b1;
                }
            }
        }
        for r in resources.iter_mut() {
            r.tx_bits += r.load * dt;
        }
        t = t_event;
        if t >= end_s {
            break;
        }

        // Completions at t.
        active.retain(|&f| {
            let fl = &mut fluid[f];
            if fl.remaining > 1e-3 {
                return true;
            }
            fl.done = true;
            let queue_pad_s = fl.queue_pad.as_secs_f64().min(fl.contended_s);
            let pad = fl.base_pad + Duration::from_ps((queue_pad_s * 1e12).round() as u64);
            let finish = secs_to_simtime(t) + pad;
            if finish.as_secs_f64() <= end_s {
                records.push(FlowRecord {
                    id: fl.spec.id,
                    src: fl.spec.src,
                    dst: fl.spec.dst,
                    size: fl.spec.size,
                    start: fl.spec.start,
                    finish,
                    prio: fl.spec.priority.wire_code(),
                });
                last_event_s = last_event_s.max(finish.as_secs_f64());
            }
            false
        });
        // Arrivals at t.
        while admit < order.len() && fluid[order[admit]].spec.start.as_secs_f64() <= t + 1e-15 {
            active.push(order[admit]);
            admit += 1;
            last_event_s = last_event_s.max(t);
        }
    }

    // Trailing queue samples up to the horizon (the packet engine's sampling
    // events keep firing on an idle network).
    for r in resources.iter_mut() {
        r.saturated_now = false;
    }
    emit_samples!(end_s, resources);

    records.sort_by_key(|r| (r.finish, r.id.raw()));
    for fl in &fluid {
        let app_done = (fl.wire_bytes - fl.remaining).max(0.0)
            * (fl.spec.size as f64 / fl.wire_bytes.max(1.0));
        let delivered = if fl.done {
            fl.spec.packet_count()
        } else {
            (app_done / MTU_PAYLOAD as f64).floor() as u64
        };
        out.packets_delivered += delivered;
        out.packets_sent += delivered;
    }
    out.unfinished_flows = flow_count - records.len();
    out.flows = records;
    for r in &resources {
        let counters = out.ports.entry((r.node, r.port)).or_default();
        counters.tx_bytes = (r.tx_bits / 8.0).round() as u64;
        counters.max_queue_bytes = if r.ever_saturated && r.is_switch {
            (ss.queue_bytes + ss.queue_delay.as_secs_f64() * r.cap_bps / 8.0).round() as u64
        } else {
            0
        };
    }
    // Mirror the packet engine's horizon semantics: periodic samplers keep
    // the clock running to the horizon; otherwise the run ends at its last
    // event.
    out.elapsed = if sample_interval_s.is_some() {
        cfg.end_time
    } else {
        secs_to_simtime(last_event_s.min(end_s))
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, BackendKind};
    use hpcc_topology::star;
    use hpcc_types::{Bandwidth, FlowId};

    fn star_scenario(cc: CcAlgorithm, flows: Vec<FlowSpec>) -> CompiledScenario {
        let bw = Bandwidth::from_gbps(25);
        let topo = star(4, bw, Duration::from_us(1));
        let mut cfg = SimConfig::for_cc(cc, bw, topo.suggested_base_rtt(1106));
        cfg.end_time = SimTime::from_ms(50);
        CompiledScenario { topo, cfg, flows }
    }

    #[test]
    fn two_senders_share_the_bottleneck_and_finish_together() {
        let hosts = star(4, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let size = 10_000_000;
        let s = star_scenario(
            CcAlgorithm::hpcc_default(),
            vec![
                FlowSpec::new(FlowId(1), hosts[0], hosts[2], size, SimTime::ZERO),
                FlowSpec::new(FlowId(2), hosts[1], hosts[2], size, SimTime::ZERO),
            ],
        );
        let out = backend_for(BackendKind::Fluid).run(s);
        assert_eq!(out.flows.len(), 2);
        assert_eq!(out.unfinished_flows, 0);
        let fct0 = out.flows[0].fct().as_secs_f64();
        let fct1 = out.flows[1].fct().as_secs_f64();
        assert!((fct0 - fct1).abs() < 1e-6, "{fct0} vs {fct1}");
        // Two flows into one 25G (η-scaled) port: each gets ~η·C/2, so the
        // FCT is roughly 2 × size / (η·C).
        let expected = 2.0 * (size as f64 * 1.106 * 8.0) / (0.95 * 25e9);
        assert!(
            (fct0 - expected).abs() / expected < 0.1,
            "fct {fct0} vs expected {expected}"
        );
    }

    #[test]
    fn hpcc_eta_caps_a_single_flow_below_line_rate() {
        let hosts = star(4, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let size = 25_000_000;
        let s = star_scenario(
            CcAlgorithm::hpcc_default(),
            vec![FlowSpec::new(
                FlowId(1),
                hosts[0],
                hosts[1],
                size,
                SimTime::ZERO,
            )],
        );
        let out = backend_for(BackendKind::Fluid).run(s);
        assert_eq!(out.flows.len(), 1);
        let fct = out.flows[0].fct().as_secs_f64();
        let at_line_rate = size as f64 * 1.106 * 8.0 / 25e9;
        // η = 0.95 (plus the small W_AI lift) keeps the flow under line rate.
        assert!(fct > at_line_rate, "fct {fct} vs line-rate {at_line_rate}");
        assert!(fct < at_line_rate / 0.90, "fct {fct} not wildly slower");
    }

    #[test]
    fn horizon_cuts_off_unfinished_flows() {
        let hosts = star(4, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let mut s = star_scenario(
            CcAlgorithm::hpcc_default(),
            vec![
                FlowSpec::new(FlowId(1), hosts[0], hosts[1], 4_000, SimTime::ZERO),
                // Far too large to finish within the horizon.
                FlowSpec::new(
                    FlowId(2),
                    hosts[1],
                    hosts[2],
                    u32::MAX as u64,
                    SimTime::ZERO,
                ),
                // Starts after the horizon: never admitted.
                FlowSpec::new(FlowId(3), hosts[0], hosts[2], 1_000, SimTime::from_ms(100)),
            ],
        );
        s.cfg.end_time = SimTime::from_ms(1);
        let out = backend_for(BackendKind::Fluid).run(s);
        assert_eq!(out.flows.len(), 1);
        assert_eq!(out.flows[0].id, FlowId(1));
        assert_eq!(out.unfinished_flows, 2);
        assert_eq!(
            out.elapsed,
            secs_to_simtime(out.flows[0].finish.as_secs_f64())
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let hosts = star(6, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| {
                FlowSpec::new(
                    FlowId(i),
                    hosts[(i % 5) as usize],
                    hosts[((i + 1) % 6) as usize],
                    10_000 + 7_000 * i,
                    SimTime::from_us(13 * i),
                )
            })
            .filter(|f| f.src != f.dst)
            .collect();
        let run = |flows: Vec<FlowSpec>| {
            let s = star_scenario(
                CcAlgorithm::Dcqcn(hpcc_cc::DcqcnConfig::vendor_default(Bandwidth::from_gbps(
                    25,
                ))),
                flows,
            );
            backend_for(BackendKind::Fluid).run(s)
        };
        let a = run(flows.clone());
        let b = run(flows);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.packets_delivered, b.packets_delivered);
    }

    #[test]
    fn ecn_schemes_pad_fct_with_the_standing_queue() {
        // Two senders converge on one receiver: the shared bottleneck holds
        // the scheme's steady-state standing queue for the whole transfer.
        let hosts = star(4, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let flows = vec![
            FlowSpec::new(FlowId(1), hosts[0], hosts[2], 2_000_000, SimTime::ZERO),
            FlowSpec::new(FlowId(2), hosts[1], hosts[2], 2_000_000, SimTime::ZERO),
        ];
        let scenario = star_scenario(
            CcAlgorithm::Dcqcn(hpcc_cc::DcqcnConfig::vendor_default(Bandwidth::from_gbps(
                25,
            ))),
            flows,
        );
        let ecn = scenario.cfg.ecn.expect("DCQCN config carries ECN marking");
        let queue_pad_s = (ecn.kmin_bytes + ecn.kmax_bytes) as f64 / 2.0 * 8.0 / 25e9;
        let header = (scenario.cfg.data_wire_size() - MTU_PAYLOAD) as f64;
        let wire = 2_000_000.0 + 2_000.0 * header;
        let out = backend_for(BackendKind::Fluid).run(scenario);
        // Each flow drains at the 12.5 Gbps fair share; the FCT must exceed
        // that ideal transfer time by (at least most of) the standing ECN
        // queue delay at the shared bottleneck.
        let fair_share_s = wire * 8.0 / 12.5e9;
        let fct = out.flows[0].fct().as_secs_f64();
        assert!(
            fct > fair_share_s + 0.5 * queue_pad_s,
            "fct {fct} should carry the standing queue above the ideal {fair_share_s} \
             (pad {queue_pad_s})"
        );
    }

    #[test]
    fn solo_flows_see_no_standing_queue() {
        // A lone DCQCN flow on an idle fabric never shares a resource, so
        // the fluid model adds no queue pad: FCT is ideal transfer time
        // plus propagation, same as HPCC's (modulo HPCC's eta rate cap).
        let hosts = star(4, Bandwidth::from_gbps(25), Duration::from_us(1))
            .hosts()
            .to_vec();
        let flows = vec![FlowSpec::new(
            FlowId(1),
            hosts[0],
            hosts[1],
            100_000,
            SimTime::ZERO,
        )];
        let dcqcn = backend_for(BackendKind::Fluid).run(star_scenario(
            CcAlgorithm::Dcqcn(hpcc_cc::DcqcnConfig::vendor_default(Bandwidth::from_gbps(
                25,
            ))),
            flows.clone(),
        ));
        let hpcc =
            backend_for(BackendKind::Fluid).run(star_scenario(CcAlgorithm::hpcc_default(), flows));
        // DCQCN drains at full line rate (no eta cap) with no queue pad, so
        // it can only be faster than HPCC here.
        assert!(dcqcn.flows[0].fct() <= hpcc.flows[0].fct());
    }
}
