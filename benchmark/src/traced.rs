//! The traced pass: the same manifest and the same outputs as the untraced
//! pass, but the benchmark calls each layer's public function itself, with a
//! span around every call. Per-layer metrics come from here and nowhere
//! else; end-to-end metrics never do.
//!
//! Three layers cannot be called on their own from outside
//! `ScenarioSpec::try_build` and `merge_shard_streams`, which contain them.
//! For those the traced pass makes one extra direct call (topology build,
//! workload generation, stream decode); the containing span keeps its full
//! time, so `core.scenario.build_s` includes a topology build and a
//! workload generation, and `core.wire.merge_s` includes a decode.

use crate::pass::{serve_over_fabric, RunFiles};
use crate::span::{layer_self_s, self_times_ns, Span, Tracer};
use crate::workloads::Workload;
use hpcc_cc::{
    build_cc, AckEvent, CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, TimelyConfig,
};
use hpcc_core::campaign::digest_output;
use hpcc_core::json::{obj, JsonValue};
use hpcc_core::wire::{
    decode_result_line, decode_stream_lines, encode_result_line, merge_shard_streams, read_frame,
    write_frame, FabricMsg,
};
use hpcc_core::{
    BackendSpec, Campaign, CampaignReport, CdfSpec, ExperimentResults, FaultSummary,
    ScenarioResult, ScenarioSpec, ShardPlan, WorkloadSpec,
};
use hpcc_sim::engine::EventQueue;
use hpcc_sim::{Backend, CompiledScenario, Event, FluidBackend, SimOutput, Simulator};
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets};
use hpcc_stats::FctAnalyzer;
use hpcc_topology::TopologySpec;
use hpcc_types::rng::derive_seed;
use hpcc_types::{Bandwidth, Duration, IntHeader, IntHopRecord, NodeId, SimTime, SplitMix64};
use hpcc_workload::{IncastGenerator, LoadGenerator};
use std::hint::black_box;
use std::time::Instant;

/// The engine's view of one scenario, for the per-scenario rows of the
/// layer file (`packet_stress` reads as a differential table of these).
struct EngineRow {
    index: usize,
    name: String,
    scheme: String,
    backend: &'static str,
    run_ns: u64,
    events: u64,
    peak_event_queue: u64,
    packets_sent: u64,
    packets_delivered: u64,
    drops: u64,
    pfc_frames: u64,
}

#[derive(Default)]
struct Counts {
    manifest_bytes: usize,
    report_bytes: usize,
    wire_bytes: usize,
    scenarios: usize,
    nodes: usize,
    links: usize,
    flows: usize,
    fluid_scenarios: usize,
    rows: Vec<EngineRow>,
    /// Cross-checks that failed: the direct workload generation disagrees
    /// with `try_build`, or the direct decode with the merge.
    mismatches: u64,
    fabric: Option<FabricCounts>,
}

struct FabricCounts {
    scenario_walls_s: f64,
    executed: u64,
    deduped: u64,
    reassigned: u64,
    checkpoint_bytes: u64,
}

/// What the traced run hands back: every per-layer metric as `(name, value,
/// unit)`, the layer file, the spans, and the failed scenario executions.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub layer_file: JsonValue,
    pub spans: Vec<Span>,
    pub report_text: String,
    pub mismatches: u64,
}

/// Run the traced pass and the micro-measurements. `untraced_wall_s` is the
/// wall time of an untraced pass in this process, for the overhead ratio.
pub fn traced_run(files: &RunFiles, untraced_wall_s: f64) -> Result<LayerReport, String> {
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut fabric_worker = None;
    let outcome = tracer.span("pass", None, |t| {
        let manifest = files.manifest();
        let text = t
            .call("io.read_manifest", None, || {
                std::fs::read_to_string(&manifest)
            })
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        counts.manifest_bytes = text.len();
        let doc = t
            .call("core.json.parse", None, || JsonValue::parse(&text))
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let campaign = t
            .call("core.scenario.decode", None, || Campaign::from_json(&doc))
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        counts.scenarios = campaign.len();
        let report = if files.workload == Workload::FabricLease {
            let checkpoint = files.checkpoint();
            let (served, worker) = t.call("core.fabric.serve", None, || {
                serve_over_fabric(&campaign, &checkpoint)
            })?;
            fabric_worker = Some(worker);
            counts.fabric = Some(FabricCounts {
                scenario_walls_s: served.report.total_scenario_wall().as_secs_f64(),
                executed: served.executed,
                deduped: served.deduped,
                reassigned: served.reassigned,
                checkpoint_bytes: std::fs::metadata(&checkpoint).map_or(0, |m| m.len()),
            });
            served.report
        } else {
            run_sharded_traced(t, &campaign, &mut counts)?
        };
        let value = t.call("core.wire.report_render", None, || report.to_json());
        let rendered = t.call("core.json.render", None, || value.render());
        counts.report_bytes = rendered.len();
        let path = files.report();
        t.call("io.write_report", None, || std::fs::write(&path, &rendered))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok::<_, String>((campaign, report, rendered))
    });
    if let Some(worker) = fabric_worker {
        worker.finish()?;
    }
    let (campaign, report, report_text) = outcome?;

    // Shard order → scenario order, for the layer file.
    counts.rows.sort_by_key(|r| r.index);
    let spans = tracer.spans().to_vec();
    let own = self_times_ns(&spans);
    let layer = |name: &str| layer_self_s(&spans, &own, name);
    let pass_s = spans[0].duration_ns() as f64 / 1e9;
    let unattributed_s = layer("pass") + layer("shard") + layer("scenario");

    // The engine's counters, over the packet-backend scenarios only: the
    // fluid backend fills the same fields with its own step counts.
    let packet_rows = || counts.rows.iter().filter(|r| r.backend == "packet");
    let sum = |f: fn(&EngineRow) -> u64| packet_rows().map(f).sum::<u64>() as f64;
    let engine_run_s = layer("sim.engine.run");
    let events = sum(|r| r.events);
    let peak_queue = packet_rows().map(|r| r.peak_event_queue).max().unwrap_or(0);
    let (sent, delivered) = (sum(|r| r.packets_sent), sum(|r| r.packets_delivered));
    let fluid_run_s = layer("sim.fluid.run");
    let parse_s = layer("core.json.parse");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let (wheel_near, wheel_far) = wheel_hold_ns(peak_queue.max(64) as usize);
    let [cc_hpcc, cc_dcqcn, cc_timely, cc_dctcp] = cc_on_ack_ns();
    let frames = frame_codec(&report, campaign)?;

    let serve_s = layer("core.fabric.serve");
    let fabric = counts.fabric.as_ref();
    let fabric_overhead_s = fabric.map_or(0.0, |f| serve_s - f.scenario_walls_s);

    let metrics = vec![
        ("io.read_manifest_s", layer("io.read_manifest"), "s"),
        ("io.write_report_s", layer("io.write_report"), "s"),
        ("io.manifest_bytes", counts.manifest_bytes as f64, "B"),
        ("io.report_bytes", counts.report_bytes as f64, "B"),
        ("core.json.parse_s", parse_s, "s"),
        (
            "core.json.parse_mb_per_s",
            ratio(counts.manifest_bytes as f64 / 1e6, parse_s),
            "MB/s",
        ),
        ("core.json.render_s", layer("core.json.render"), "s"),
        ("core.scenario.decode_s", layer("core.scenario.decode"), "s"),
        ("core.scenario.build_s", layer("core.scenario.build"), "s"),
        ("core.scenario.count", counts.scenarios as f64, "count"),
        ("topology.build_s", layer("topology.build"), "s"),
        ("topology.nodes", counts.nodes as f64, "count"),
        ("topology.links", counts.links as f64, "count"),
        ("workload.generate_s", layer("workload.generate"), "s"),
        ("workload.flows", counts.flows as f64, "count"),
        ("sim.simulator.new_s", layer("sim.simulator.new"), "s"),
        (
            "sim.simulator.add_flows_s",
            layer("sim.simulator.add_flows"),
            "s",
        ),
        ("sim.engine.run_s", engine_run_s, "s"),
        ("sim.engine.events", events, "count"),
        (
            "sim.engine.ns_per_event",
            ratio(engine_run_s * 1e9, events),
            "ns",
        ),
        ("sim.engine.peak_event_queue", peak_queue as f64, "count"),
        ("sim.engine.packets_sent", sent, "count"),
        ("sim.engine.packets_delivered", delivered, "count"),
        ("sim.engine.goodput_ratio", ratio(delivered, sent), "ratio"),
        ("sim.engine.drops", sum(|r| r.drops), "count"),
        ("sim.engine.pfc_frames", sum(|r| r.pfc_frames), "count"),
        ("sim.engine.wheel.near_ns_per_op", wheel_near, "ns"),
        ("sim.engine.wheel.far_ns_per_op", wheel_far, "ns"),
        ("cc.hpcc.on_ack_ns", cc_hpcc, "ns"),
        ("cc.dcqcn.on_ack_ns", cc_dcqcn, "ns"),
        ("cc.timely.on_ack_ns", cc_timely, "ns"),
        ("cc.dctcp.on_ack_ns", cc_dctcp, "ns"),
        ("sim.fluid.run_s", fluid_run_s, "s"),
        (
            "sim.fluid.scenarios",
            counts.fluid_scenarios as f64,
            "count",
        ),
        ("stats.summarise_s", layer("stats.summarise"), "s"),
        ("core.campaign.digest_s", layer("core.campaign.digest"), "s"),
        ("core.wire.encode_s", layer("core.wire.encode"), "s"),
        ("core.wire.decode_s", layer("core.wire.decode"), "s"),
        ("core.wire.merge_s", layer("core.wire.merge"), "s"),
        (
            "core.wire.report_render_s",
            layer("core.wire.report_render"),
            "s",
        ),
        ("core.wire.bytes", counts.wire_bytes as f64, "B"),
        ("core.wire.frame_write_ns", frames.result_write_ns, "ns"),
        ("core.wire.frame_read_ns", frames.result_read_ns, "ns"),
        (
            "core.wire.manifest_frame_write_s",
            frames.manifest_write_s,
            "s",
        ),
        (
            "core.wire.manifest_frame_read_s",
            frames.manifest_read_s,
            "s",
        ),
        ("core.fabric.serve_s", serve_s, "s"),
        ("core.fabric.overhead_s", fabric_overhead_s, "s"),
        (
            "core.fabric.overhead_ms_per_scenario",
            ratio(fabric_overhead_s * 1e3, counts.scenarios as f64),
            "ms",
        ),
        (
            "core.fabric.executed",
            fabric.map_or(0.0, |f| f.executed as f64),
            "count",
        ),
        (
            "core.fabric.deduped",
            fabric.map_or(0.0, |f| f.deduped as f64),
            "count",
        ),
        (
            "core.fabric.reassigned",
            fabric.map_or(0.0, |f| f.reassigned as f64),
            "count",
        ),
        (
            "core.fabric.checkpoint_bytes",
            fabric.map_or(0.0, |f| f.checkpoint_bytes as f64),
            "B",
        ),
        ("trace.pass_s", pass_s, "s"),
        ("trace.overhead_ratio", pass_s / untraced_wall_s, "ratio"),
        ("trace.unattributed_s", unattributed_s, "s"),
    ];

    let layer_file = obj(vec![
        ("workload", JsonValue::Str(files.workload.name().into())),
        (
            "scenarios",
            JsonValue::Array(
                counts
                    .rows
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("index", JsonValue::UInt(r.index as u64)),
                            ("name", JsonValue::Str(r.name.clone())),
                            ("scheme", JsonValue::Str(r.scheme.clone())),
                            ("backend", JsonValue::Str(r.backend.into())),
                            ("run_s", JsonValue::Float(r.run_ns as f64 / 1e9)),
                            ("events", JsonValue::UInt(r.events)),
                            (
                                "ns_per_event",
                                JsonValue::Float(ratio(r.run_ns as f64, r.events as f64)),
                            ),
                            ("peak_event_queue", JsonValue::UInt(r.peak_event_queue)),
                            ("packets_sent", JsonValue::UInt(r.packets_sent)),
                            ("packets_delivered", JsonValue::UInt(r.packets_delivered)),
                            (
                                "goodput_ratio",
                                JsonValue::Float(ratio(
                                    r.packets_delivered as f64,
                                    r.packets_sent as f64,
                                )),
                            ),
                            ("drops", JsonValue::UInt(r.drops)),
                            ("pfc_frames", JsonValue::UInt(r.pfc_frames)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    Ok(LayerReport {
        metrics,
        layer_file,
        spans,
        report_text,
        mismatches: counts.mismatches,
    })
}

/// The traced form of `run_shard_streaming` × 2 + `merge_shard_streams`.
fn run_sharded_traced(
    t: &mut Tracer,
    campaign: &Campaign,
    counts: &mut Counts,
) -> Result<CampaignReport, String> {
    let mut streams = Vec::new();
    for shard in 0..2 {
        let stream = t.span("shard", None, |t| {
            let mut stream = String::new();
            for i in ShardPlan::new(shard, 2).indices(campaign.len()) {
                let spec = &campaign.scenarios()[i];
                let line = t.span("scenario", Some(i), |t| {
                    run_scenario_traced(t, i, spec, counts)
                });
                stream.push_str(&line.map_err(|e| format!("scenario {i} ({}): {e}", spec.name))?);
                stream.push('\n');
            }
            Ok::<_, String>(stream)
        })?;
        counts.wire_bytes += stream.len();
        streams.push(stream);
    }
    let mut decoded = 0;
    for (k, stream) in streams.iter().enumerate() {
        let (entries, tail) = t
            .call("core.wire.decode", None, || {
                decode_stream_lines(stream, k + 1)
            })
            .map_err(|e| format!("decode: {e}"))?;
        decoded += entries.len();
        counts.mismatches += u64::from(tail.is_some());
    }
    counts.mismatches += u64::from(decoded != campaign.len());
    t.call("core.wire.merge", None, || {
        merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
    })
    .map_err(|e| format!("merge: {e}"))
}

/// One scenario, layer by layer: what `Campaign::run_index` does in one
/// call. Returns the scenario's wire line.
fn run_scenario_traced(
    t: &mut Tracer,
    index: usize,
    spec: &ScenarioSpec,
    counts: &mut Counts,
) -> Result<String, String> {
    let at = Some(index);
    let started = Instant::now();
    let topo = t
        .call("topology.build", at, || spec.topology.try_build())
        .map_err(|e| e.to_string())?;
    counts.nodes += topo.node_count();
    counts.links += topo.links().len();
    let generated = t.call("workload.generate", at, || generate_directly(spec, &topo))?;
    let exp = t
        .call("core.scenario.build", at, || spec.try_build())
        .map_err(|e| e.to_string())?;
    counts.flows += exp.flows().len();
    counts.mismatches += u64::from(generated != exp.flows().len());

    let cfg = exp.config().clone();
    let analyzer = FctAnalyzer::new(exp.host_bw(), cfg.base_rtt, cfg.int_enabled);
    let (flow_count, host_count) = (exp.flows().len(), exp.topology().hosts().len());
    let flows = exp.flows().to_vec();
    let scenario_topo = exp.topology().clone();
    let run_started = Instant::now();
    let out: SimOutput = match spec.backend {
        BackendSpec::Packet => {
            let mut sim = t.call("sim.simulator.new", at, || {
                Simulator::new(scenario_topo, cfg)
            });
            t.call("sim.simulator.add_flows", at, || sim.add_flows(flows));
            t.call("sim.engine.run", at, || sim.run())
        }
        BackendSpec::Fluid => {
            counts.fluid_scenarios += 1;
            t.call("sim.fluid.run", at, || {
                FluidBackend.run(CompiledScenario {
                    topo: scenario_topo,
                    cfg,
                    flows,
                })
            })
        }
        BackendSpec::ParallelPacket { .. } => {
            return Err("no workload uses the parallel backend".into())
        }
    };
    let run_ns = run_started.elapsed().as_nanos() as u64;
    let results = ExperimentResults {
        label: exp.label().to_string(),
        analyzer,
        out,
        flow_count,
        host_count,
    };
    let mut result = t.call("stats.summarise", at, || summarise(spec, results));
    let full = result
        .results
        .as_ref()
        .expect("summarise keeps the results");
    result.digest = t.call("core.campaign.digest", at, || digest_output(&full.out));
    counts.rows.push(EngineRow {
        index,
        name: result.name.clone(),
        scheme: result.scheme.clone(),
        backend: spec.backend.label(),
        run_ns,
        events: full.out.events_processed,
        peak_event_queue: full.out.peak_event_queue,
        packets_sent: full.out.packets_sent,
        packets_delivered: full.out.packets_delivered,
        drops: result.drops,
        pfc_frames: result.pfc.pause_frames,
    });
    result.wall = started.elapsed();
    Ok(t.call("core.wire.encode", at, || {
        encode_result_line(index, &result)
    }))
}

/// The spec's generated workloads through the generators' public
/// constructors, the way `ScenarioSpec::try_build` drives them. Returns the
/// flow count.
fn generate_directly(spec: &ScenarioSpec, topo: &TopologySpec) -> Result<usize, String> {
    let hosts = topo.hosts();
    let host_bw = spec.topology.host_bw();
    let mut flows = 0;
    for (stream, workload) in spec.workloads.iter().enumerate() {
        let seed = derive_seed(spec.seed, stream as u64);
        flows += match workload {
            WorkloadSpec::Poisson {
                cdf,
                load,
                first_flow_id,
                pairs,
                prio,
            } => {
                let sampler = pairs
                    .build(hosts.len(), &topo.host_rack_ids(), seed)
                    .map_err(|e| e.to_string())?;
                LoadGenerator::new(hosts.to_vec(), host_bw, *load, cdf.try_build()?, seed)
                    .with_first_flow_id(*first_flow_id)
                    .with_pair_sampler(sampler)
                    .with_priority(*prio)
                    .generate(spec.duration)
                    .len()
            }
            WorkloadSpec::Incast {
                fan_in,
                flow_size,
                capacity_fraction,
                first_flow_id,
            } => IncastGenerator::paper_default(hosts.to_vec(), host_bw, seed)
                .with_fan_in(*fan_in)
                .with_flow_size(*flow_size)
                .with_capacity_fraction(*capacity_fraction)
                .with_first_flow_id(*first_flow_id)
                .generate(spec.duration)
                .len(),
            WorkloadSpec::Explicit(_) | WorkloadSpec::Trace { .. } => {
                return Err("no workload declares explicit or traced flows".into())
            }
        };
    }
    Ok(flows)
}

/// The summary `Campaign::run_index` derives from a scenario's raw output,
/// field for field (the digest is filled in by the caller, under its own
/// span). The traced report must equal the untraced one byte for byte, so
/// any drift from the library's summary fails the run.
fn summarise(spec: &ScenarioSpec, results: ExperimentResults) -> ScenarioResult {
    let fb_hadoop = spec.workloads.iter().any(|w| {
        matches!(
            w,
            WorkloadSpec::Poisson {
                cdf: CdfSpec::FbHadoop,
                ..
            }
        )
    });
    let buckets = if fb_hadoop {
        fb_hadoop_buckets()
    } else {
        websearch_buckets()
    };
    let out = &results.out;
    let prio_slowdown = if out.flows.iter().any(|f| f.prio != 0) {
        results.slowdown_by_priority()
    } else {
        Vec::new()
    };
    let faults = (out.fault_events > 0).then(|| FaultSummary {
        events: out.fault_events,
        link_downtime_ps: out.link_downtime.iter().map(|&(_, d)| d.as_ps()).sum(),
        dropped_bytes: out.fault_dropped_bytes,
        dropped_packets: out.fault_dropped_packets,
        goodput_during_faults: out.goodput_during_faults,
        utilization_while_up: results.utilization_while_up(spec.topology.host_bw()),
    });
    ScenarioResult {
        name: spec.name.clone(),
        scheme: spec.scheme_label(),
        slowdown: results.slowdown_overall(),
        short_flow_slowdown: results.slowdown_for_sizes_up_to(30_000),
        slowdown_buckets: results.slowdown_buckets(&buckets),
        queue_p50: results.queue_percentile(50.0),
        queue_p95: results.queue_percentile(95.0),
        queue_p99: results.queue_percentile(99.0),
        max_queue_bytes: out.max_queue_bytes(),
        pfc: results.pfc_summary(),
        drops: out.total_drops(),
        completion: results.completion_fraction(),
        flows_completed: out.flows.len(),
        prio_slowdown,
        class_queue_p99: (0..out.class_queue_histograms.len())
            .map(|c| results.class_queue_percentile(c, 99.0))
            .collect(),
        faults,
        backend: spec.backend,
        digest: 0,
        wall: std::time::Duration::ZERO,
        results: Some(results),
    }
}

/// Hold model on the event queue at `depth` pending events: pop the
/// earliest, push it back `near` (inside the wheel's window) or `far`
/// (beyond it, into the overflow heap). Returns ns per pop + push.
fn wheel_hold_ns(depth: usize) -> (f64, f64) {
    const OPS: u64 = 1_000_000;
    let hold = |min_ps: u64, span_ps: u64| {
        let mut rng = SplitMix64::new(7);
        let mut queue = EventQueue::new();
        let event = || Event::HostWake { node: NodeId(0) };
        for _ in 0..depth {
            queue.push(SimTime::from_ps(min_ps + rng.next_below(span_ps)), event());
        }
        let started = Instant::now();
        for _ in 0..OPS {
            let (now, ev) = queue.pop().expect("the hold model keeps the depth");
            let delay = Duration::from_ps(min_ps + rng.next_below(span_ps));
            queue.push(now + delay, black_box(ev));
        }
        black_box(queue.len());
        started.elapsed().as_nanos() as f64 / OPS as f64
    };
    // The wheel's window is 1024 buckets of 131 ns, about 134 µs.
    (hold(100_000, 20_000_000), hold(200_000_000, 1_800_000_000))
}

/// Per-acknowledgement cost of each scheme with a one-hop INT header.
fn cc_on_ack_ns() -> [f64; 4] {
    const CALLS: u64 = 1_000_000;
    let line = Bandwidth::from_gbps(100);
    let rtt = Duration::from_us(13);
    [
        CcAlgorithm::Hpcc(HpccConfig::default()),
        CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(line)),
        CcAlgorithm::Timely(TimelyConfig::recommended(line, rtt)),
        CcAlgorithm::Dctcp(DctcpConfig::default()),
    ]
    .map(|algorithm| {
        let mut cc = build_cc(&algorithm, line, rtt, 1000);
        let mut int = IntHeader::new();
        int.push_hop(
            1,
            IntHopRecord {
                bandwidth: line,
                ts: SimTime::from_us(10),
                tx_bytes: 1_000_000,
                rx_bytes: 1_000_000,
                qlen: 10_000,
            },
        );
        let started = Instant::now();
        for i in 1..=CALLS {
            let now = SimTime::from_us(10 + i);
            int.hops[0].ts = now;
            int.hops[0].tx_bytes += 1000 * i;
            cc.on_ack(black_box(&AckEvent {
                now,
                ack_seq: 1000 * i,
                snd_nxt: 1000 * i + 100_000,
                newly_acked: 1000,
                ecn_echo: i % 7 == 0,
                rtt: Duration::from_us(15),
                int: &int,
            }));
            black_box(cc.state());
        }
        started.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

struct FrameCodec {
    result_write_ns: f64,
    result_read_ns: f64,
    manifest_write_s: f64,
    manifest_read_s: f64,
}

/// `write_frame` / `read_frame` on a result frame (many) and on the
/// manifest frame (once: its read parses the whole manifest).
fn frame_codec(report: &CampaignReport, campaign: Campaign) -> Result<FrameCodec, String> {
    const FRAMES: usize = 2000;
    let io = |e: std::io::Error| format!("frame codec: {e}");
    let line = encode_result_line(0, &report.results[0]);
    let mut buf = Vec::new();
    let mut write_ns = 0;
    for _ in 0..FRAMES {
        let (index, result) = decode_result_line(&line).map_err(|e| e.to_string())?;
        let msg = FabricMsg::Result {
            index,
            result: Box::new(result),
        };
        let started = Instant::now();
        write_frame(&mut buf, &msg).map_err(io)?;
        write_ns += started.elapsed().as_nanos();
    }
    let mut reader = buf.as_slice();
    let started = Instant::now();
    for _ in 0..FRAMES {
        black_box(read_frame(&mut reader).map_err(io)?);
    }
    let read_ns = started.elapsed().as_nanos();

    let mut buf = Vec::new();
    let started = Instant::now();
    write_frame(&mut buf, &FabricMsg::Manifest { campaign }).map_err(io)?;
    let manifest_write_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    black_box(read_frame(&mut buf.as_slice()).map_err(io)?);
    Ok(FrameCodec {
        result_write_ns: write_ns as f64 / FRAMES as f64,
        result_read_ns: read_ns as f64 / FRAMES as f64,
        manifest_write_s,
        manifest_read_s: started.elapsed().as_secs_f64(),
    })
}
