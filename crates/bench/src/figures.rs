//! One runner per table / figure of the paper. Every runner returns the
//! rendered report as a `String`; `hpcc figures <name>` prints it.
//!
//! Figures 2, 3, 10, 11 and 12 are campaigns: each declares its scenarios
//! as one [`Campaign`], runs it once and renders the tables from the
//! [`hpcc_core::ScenarioResult`] rows it returns — the same rows the result
//! line carries. Figures 1, 6, 9, 13 and 14 stay runners over one
//! experiment at a time: they read per-port and per-flow series (pause
//! durations, queue traces, goodput bins) from [`hpcc_sim::SimOutput`],
//! which a result row does not carry.
//!
//! The default scales are laptop-sized. `hpcc` with no arguments lists
//! every name with its default arguments; a last argument of 1 to
//! `hpcc figures fig11` (`paper_scale`) runs Figure 11 on the paper's
//! 320-host Clos (`FatTreeParams::paper()`).

use hpcc_cc::{HpccConfig, HpccReactionMode};
use hpcc_core::presets::{
    elephant_mice, fairness, fattree_fb_hadoop, fig11_campaign, incast_on_star, long_short,
    pfc_storm, testbed_websearch, two_to_one,
};
use hpcc_core::report;
use hpcc_core::{Campaign, CcSpec};
use hpcc_sim::{EcnConfig, FlowControlMode, FluidNetwork};
use hpcc_stats::pfc::suppressed_bandwidth_fraction;
use hpcc_stats::series::{goodput_series_gbps, jain_fairness_index, steady_state_gbps};
use hpcc_topology::FatTreeParams;
use hpcc_types::{
    Bandwidth, Duration, FlowId, IntHeader, IntHopRecord, NodeId, SimTime, INT_BUDGET_SIZE,
    MTU_PAYLOAD,
};
use std::fmt::Write as _;

const BW100: Bandwidth = Bandwidth::from_gbps(100);

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Figure 1: PFC pause propagation and suppressed bandwidth, reproduced by
/// driving the PoD with DCQCN plus incast bursts (production telemetry
/// substituted by simulation).
pub fn fig01(duration_ms: u64) -> String {
    let mut s = header("Figure 1 — PFC pause propagation and suppressed bandwidth (simulated)");
    let exp = pfc_storm(0.3, 20, Duration::from_ms(duration_ms), 7).build();
    let topo_hosts: Vec<NodeId> = exp.topology().hosts().to_vec();
    let res = exp.run();
    let pfc = res.pfc_summary();
    let spread = res.pfc_burst_spread(Duration::from_us(200));
    writeln!(s, "pause frames sent      : {}", pfc.pause_frames).unwrap();
    writeln!(
        s,
        "ports ever paused      : {}/{}",
        pfc.paused_ports, pfc.total_ports
    )
    .unwrap();
    writeln!(
        s,
        "pause time fraction    : {:.3}%",
        pfc.pause_time_fraction() * 100.0
    )
    .unwrap();
    // (a) propagation: CDF of switches involved per pause burst.
    if !spread.is_empty() {
        let mut sorted = spread.clone();
        sorted.sort_unstable();
        writeln!(s, "\n(a) switches involved per pause burst (CDF):").unwrap();
        for pct in [50.0, 90.0, 99.0, 100.0] {
            let idx = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            writeln!(s, "  p{pct:<5} {}", sorted[idx - 1]).unwrap();
        }
    } else {
        writeln!(s, "\n(a) no pause bursts observed").unwrap();
    }
    // (b) suppressed bandwidth: pause time on host-facing ports.
    let host_pauses: Vec<Duration> = topo_hosts
        .iter()
        .filter_map(|h| res.out.ports.get(&(*h, hpcc_types::PortId(0))))
        .map(|c| c.pause_duration)
        .collect();
    let suppressed = suppressed_bandwidth_fraction(&host_pauses, res.out.elapsed - SimTime::ZERO);
    writeln!(
        s,
        "\n(b) suppressed host bandwidth: {:.2}%",
        suppressed * 100.0
    )
    .unwrap();
    s
}

/// Figure 2: DCQCN rate-timer trade-off (Ti/Td) on WebSearch — (a) 95p FCT
/// slowdown without incast, (b) PFC pause time and short-flow latency with
/// incast.
pub fn fig02(duration_ms: u64, load: f64) -> String {
    let mut s = header("Figure 2 — DCQCN Ti/Td trade-off (WebSearch)");
    let dur = Duration::from_ms(duration_ms);
    let settings = [
        ("Ti=55,Td=50", Duration::from_us(55), Duration::from_us(50)),
        ("Ti=300,Td=4", Duration::from_us(300), Duration::from_us(4)),
        ("Ti=900,Td=4", Duration::from_us(900), Duration::from_us(4)),
    ];
    let mut campaign = Campaign::new();
    for incast in [None, Some(24)] {
        for (label, ti, td) in settings {
            campaign.push(testbed_websearch(
                label,
                CcSpec::DcqcnTimers { ti, td },
                load,
                dur,
                incast,
                None,
                FlowControlMode::Lossless,
                42,
            ));
        }
    }
    let results = campaign.run().results;
    let (plain, with_incast) = results.split_at(settings.len());
    writeln!(
        s,
        "(a) 95th-percentile FCT slowdown, {}% load:",
        (load * 100.0) as u32
    )
    .unwrap();
    s.push_str(&report::slowdown_table(plain, 95.0));

    writeln!(s, "\n(b) with 24-to-1 incast bursts (2% of capacity):").unwrap();
    s.push_str(&report::pfc_table(with_incast));
    for r in with_incast {
        if let Some(p) = r.short_flow_slowdown {
            writeln!(s, "  {:<14} short-flow 95p slowdown {:.2}", r.name, p.p95).unwrap();
        }
    }
    s
}

/// Figure 3: DCQCN ECN-threshold trade-off on WebSearch at two loads.
pub fn fig03(duration_ms: u64) -> String {
    let mut s = header("Figure 3 — DCQCN ECN threshold trade-off (WebSearch)");
    let dur = Duration::from_ms(duration_ms);
    let thresholds = [
        ("Kmin=400,Kmax=1600", 400u64, 1600u64),
        ("Kmin=100,Kmax=400", 100, 400),
        ("Kmin=12,Kmax=50", 12, 50),
    ];
    let loads = [0.3, 0.5];
    let mut campaign = Campaign::new();
    for load in loads {
        for (label, kmin, kmax) in thresholds {
            campaign.push(testbed_websearch(
                label,
                CcSpec::by_label("DCQCN"),
                load,
                dur,
                None,
                Some(EcnConfig::thresholds_kb(kmin, kmax)),
                FlowControlMode::Lossless,
                42,
            ));
        }
    }
    let results = campaign.run().results;
    for (load, rows) in loads.iter().zip(results.chunks(thresholds.len())) {
        writeln!(
            s,
            "({}) {}% load — 95th-percentile FCT slowdown:",
            if *load < 0.4 { "a" } else { "b" },
            (load * 100.0) as u32
        )
        .unwrap();
        s.push_str(&report::slowdown_table(rows, 95.0));
        s.push('\n');
        s.push_str(&report::queue_table(rows));
        s.push('\n');
    }
    s
}

/// Figure 6: txRate vs rxRate signal — bottleneck queue over time in a
/// 2-to-1 scenario.
pub fn fig06(duration_ms: u64) -> String {
    let mut s = header("Figure 6 — txRate vs rxRate congestion signal (2-to-1)");
    for use_rx in [false, true] {
        let res = two_to_one(use_rx, BW100, 8_000_000, Duration::from_ms(duration_ms)).run();
        // The one traced port: the bottleneck.
        let trace = res.out.port_traces.values().next().unwrap();
        writeln!(s, "\n{}:", res.label).unwrap();
        s.push_str(&report::queue_trace(trace, 30));
        let tail: Vec<f64> = trace
            .iter()
            .filter(|(t, _)| *t > SimTime::from_us(100))
            .map(|(_, q)| *q as f64)
            .collect();
        if !tail.is_empty() {
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            let std = (tail.iter().map(|q| (q - mean) * (q - mean)).sum::<f64>()
                / tail.len() as f64)
                .sqrt();
            writeln!(
                s,
                "steady-state queue: mean {:.1} KB, std {:.1} KB",
                mean / 1000.0,
                std / 1000.0
            )
            .unwrap();
        }
    }
    s
}

/// Figure 9: the four testbed micro-benchmarks (rate recovery, incast
/// avoidance, elephant/mice latency, fairness), HPCC vs DCQCN.
pub fn fig09(duration_ms: u64) -> String {
    let mut s = header("Figure 9 — micro-benchmarks (HPCC vs DCQCN)");
    let dur = Duration::from_ms(duration_ms);
    let schemes = ["HPCC", "DCQCN"];

    // (a/b) Long-short rate recovery.
    writeln!(s, "(a/b) long flow recovery after a 1 MB short flow:").unwrap();
    for label in schemes {
        let res = long_short(CcSpec::by_label(label), BW100, dur).run();
        let series =
            goodput_series_gbps(&res.out.flow_goodput[&FlowId(1)], res.out.flow_goodput_bin);
        let tail = steady_state_gbps(&series, 0.2);
        let dip = series.iter().cloned().fold(f64::MAX, f64::min);
        writeln!(
            s,
            "  {label:<8} long-flow goodput: min {dip:>6.1} Gbps, final {tail:>6.1} Gbps"
        )
        .unwrap();
    }

    // (c/d) 8-to-1 incast into the receiver of a long flow.
    writeln!(
        s,
        "\n(c/d) 8-to-1 incast on top of a long flow (peak / 99p queue):"
    )
    .unwrap();
    for label in schemes {
        let res = incast_on_star(label, CcSpec::by_label(label), 8, 500_000, BW100, dur).run();
        writeln!(
            s,
            "  {label:<8} peak queue {:>8.1} KB, 99p queue {:>8.1} KB, pause frames {}",
            res.out.max_queue_bytes() as f64 / 1000.0,
            res.queue_percentile(99.0).unwrap_or(0) as f64 / 1000.0,
            res.pfc_summary().pause_frames
        )
        .unwrap();
    }

    // (e/f) Elephant + mice latency.
    writeln!(s, "\n(e/f) mice latency through a saturated link:").unwrap();
    for label in schemes {
        let res = elephant_mice(CcSpec::by_label(label), BW100, Duration::from_us(100), dur).run();
        let mice: Vec<f64> = res
            .out
            .flows
            .iter()
            .filter(|f| f.size == 1_000)
            .map(|f| f.fct().as_us_f64())
            .collect();
        if let Some(p) = hpcc_stats::Percentiles::of(&mice) {
            writeln!(
                s,
                "  {label:<8} mice FCT: p50 {:>6.1} us, p95 {:>6.1} us, p99 {:>6.1} us  (99p queue {:>7.1} KB)",
                p.p50,
                p.p95,
                p.p99,
                res.queue_percentile(99.0).unwrap_or(0) as f64 / 1000.0
            )
            .unwrap();
        }
    }

    // (g/h) Fairness of four staggered flows.
    writeln!(
        s,
        "\n(g/h) fairness of four flows joining every {} us:",
        dur.as_us_f64() / 8.0
    )
    .unwrap();
    for label in schemes {
        let res = fairness(CcSpec::by_label(label), BW100, dur / 8, dur).run();
        let bin = res.out.flow_goodput_bin;
        // Fairness index while all four flows are active (just after the
        // last join).
        let idx = ((dur.mul_f64(0.55)).as_ps() / bin.as_ps()) as usize;
        let rates: Vec<f64> = (1..=4u64)
            .map(|id| {
                res.out
                    .flow_goodput
                    .get(&FlowId(id))
                    .and_then(|v| v.get(idx))
                    .map(|b| *b as f64)
                    .unwrap_or(0.0)
            })
            .collect();
        writeln!(
            s,
            "  {label:<8} Jain fairness index with 4 active flows: {:.3}",
            jain_fairness_index(&rates)
        )
        .unwrap();
    }
    s
}

/// Figure 10: WebSearch on the testbed PoD at 30% / 50% load — FCT slowdown
/// per size bucket (median/95/99) and queue percentiles, HPCC vs DCQCN.
pub fn fig10(duration_ms: u64) -> String {
    let mut s = header("Figure 10 — WebSearch on the testbed PoD (HPCC vs DCQCN)");
    let dur = Duration::from_ms(duration_ms);
    let loads = [0.3, 0.5];
    let schemes = ["HPCC", "DCQCN"];
    let mut campaign = Campaign::new();
    for load in loads {
        for label in schemes {
            campaign.push(testbed_websearch(
                label,
                CcSpec::by_label(label),
                load,
                dur,
                None,
                None,
                FlowControlMode::Lossless,
                42,
            ));
        }
    }
    let results = campaign.run().results;
    for (load, rows) in loads.iter().zip(results.chunks(schemes.len())) {
        writeln!(s, "-- {}% average load --", (load * 100.0) as u32).unwrap();
        for pct in [50.0, 95.0, 99.0] {
            writeln!(s, "FCT slowdown at p{pct}:").unwrap();
            s.push_str(&report::slowdown_table(rows, pct));
        }
        s.push_str(&report::queue_table(rows));
        // The §5.2 headline claim: tail slowdown reduction for short flows
        // (the WebSearch `<3K` bucket: every flow of at most 3000 bytes).
        let short = |i: usize| rows[i].slowdown_buckets[0].stats;
        if let (Some(h), Some(d)) = (short(0), short(1)) {
            writeln!(
                s,
                "short (<3KB) flows 99p slowdown: HPCC {:.2} vs DCQCN {:.2}  ({:.0}% reduction)\n",
                h.p99,
                d.p99,
                (1.0 - h.p99 / d.p99) * 100.0
            )
            .unwrap();
        }
    }
    s
}

/// Figure 11: FB_Hadoop on the Clos fabric — 95p FCT slowdown per size
/// bucket for the six schemes, plus PFC pause time, with and without incast.
pub fn fig11(duration_ms: u64, load: f64, with_incast: bool, paper_scale: bool) -> String {
    let mut s = header("Figure 11 — FB_Hadoop on the Clos fabric (six schemes)");
    let params = if paper_scale {
        FatTreeParams::paper()
    } else {
        FatTreeParams::small()
    };
    let dur = Duration::from_ms(duration_ms);
    let report_out = fig11_campaign(params, load, dur, with_incast, 42).run();
    writeln!(
        s,
        "{} hosts, {}% load{} ({} scenarios on {} threads in {:.1} s):",
        params.total_hosts(),
        (load * 100.0) as u32,
        if with_incast { " + 2% incast" } else { "" },
        report_out.results.len(),
        report_out.threads,
        report_out.wall.as_secs_f64()
    )
    .unwrap();
    writeln!(s, "95th-percentile FCT slowdown:").unwrap();
    s.push_str(&report::slowdown_table(&report_out.results, 95.0));
    s.push('\n');
    s.push_str(&report::pfc_table(&report_out.results));
    s.push('\n');
    s.push_str(&report::queue_table(&report_out.results));
    s
}

/// Figure 12: flow-control choices (PFC, go-back-N, IRN) combined with
/// DCQCN and HPCC.
pub fn fig12(duration_ms: u64, load: f64) -> String {
    let mut s = header("Figure 12 — flow-control choices × congestion control");
    let params = FatTreeParams::small();
    let dur = Duration::from_ms(duration_ms);
    let modes = [
        FlowControlMode::Lossless,
        FlowControlMode::LossyGoBackN,
        FlowControlMode::LossyIrn,
    ];
    let mut campaign = Campaign::new();
    for cc_label in ["DCQCN", "HPCC"] {
        for mode in modes {
            campaign.push(fattree_fb_hadoop(
                format!("{cc_label}+{}", mode.label()),
                CcSpec::by_label(cc_label),
                params,
                load,
                dur,
                true,
                mode,
                42,
            ));
        }
    }
    let results = campaign.run().results;
    writeln!(
        s,
        "95th-percentile FCT slowdown ({}% load + incast):",
        (load * 100.0) as u32
    )
    .unwrap();
    s.push_str(&report::slowdown_table(&results, 95.0));
    s.push('\n');
    s.push_str(&report::pfc_table(&results));
    s
}

/// Figure 13: reacting per-ACK vs per-RTT vs the combined HPCC strategy in a
/// 16-to-1 incast — aggregate throughput and bottleneck queue over time.
pub fn fig13(duration_ms: u64) -> String {
    let mut s = header("Figure 13 — per-ACK vs per-RTT vs HPCC reaction (16-to-1 incast)");
    for (label, mode) in [
        ("per-ACK", HpccReactionMode::PerAck),
        ("per-RTT", HpccReactionMode::PerRtt),
        ("HPCC", HpccReactionMode::Combined),
    ] {
        let cc = CcSpec::Hpcc(HpccConfig {
            mode,
            ..HpccConfig::default()
        });
        let res = incast_on_star(
            label,
            cc,
            16,
            500_000,
            BW100,
            Duration::from_ms(duration_ms),
        )
        .run();
        let bin = res.out.flow_goodput_bin;
        // Aggregate goodput.
        let mut total = vec![0u64; 0];
        for series in res.out.flow_goodput.values() {
            if series.len() > total.len() {
                total.resize(series.len(), 0);
            }
            for (i, b) in series.iter().enumerate() {
                total[i] += b;
            }
        }
        let gbps = goodput_series_gbps(&total, bin);
        let mean = gbps.iter().sum::<f64>() / gbps.len().max(1) as f64;
        let min_after_start = gbps.iter().skip(5).cloned().fold(f64::MAX, f64::min);
        let trace = res.out.port_traces.values().next().unwrap();
        let peak_q = trace.iter().map(|(_, q)| *q).max().unwrap_or(0);
        writeln!(
            s,
            "{label:<8} mean goodput {mean:>6.1} Gbps, min goodput {:>6.1} Gbps, peak queue {:>8.1} KB, flows finished {}/16",
            if min_after_start.is_finite() { min_after_start } else { 0.0 },
            peak_q as f64 / 1000.0,
            res.out.flows.len()
        )
        .unwrap();
        writeln!(s, "  (a) total throughput over time:").unwrap();
        s.push_str(&indent(&report::goodput_trace(&gbps, bin, 20), 4));
        writeln!(s, "  (b) bottleneck queue over time:").unwrap();
        s.push_str(&indent(&report::queue_trace(trace, 20), 4));
    }
    s
}

/// Figure 14: the W_AI sweep — fairness vs queue length in a 16-to-1 set of
/// long flows.
pub fn fig14(duration_ms: u64) -> String {
    let mut s = header("Figure 14 — W_AI sweep (16 long flows on one bottleneck)");
    for wai in [25u64, 80, 150, 300, 1600] {
        let cc = CcSpec::Hpcc(HpccConfig {
            wai,
            ..HpccConfig::default()
        });
        let label = format!("WAI={wai}B");
        let res = incast_on_star(
            label.clone(),
            cc,
            16,
            10_000_000,
            BW100,
            Duration::from_ms(duration_ms),
        )
        .run();
        let bin = res.out.flow_goodput_bin;
        // Throughput of each flow near the end of the run → fairness.
        let idx_end =
            ((Duration::from_ms(duration_ms).mul_f64(0.9)).as_ps() / bin.as_ps()) as usize;
        let lo = idx_end.saturating_sub(10);
        // Jain's index sums `f64`s, so flow order is part of its value:
        // `flow_goodput` is ordered, so the rates come in flow-id order.
        let rates: Vec<f64> = res
            .out
            .flow_goodput
            .values()
            .map(|series| series.iter().skip(lo).take(20).sum::<u64>() as f64)
            .collect();
        writeln!(
            s,
            "{label:<10} 95p queue {:>8.1} KB, 99p queue {:>8.1} KB, Jain fairness {:.3}",
            res.queue_percentile(95.0).unwrap_or(0) as f64 / 1000.0,
            res.queue_percentile(99.0).unwrap_or(0) as f64 / 1000.0,
            jain_fairness_index(&rates)
        )
        .unwrap();
    }
    writeln!(
        s,
        "\nRule of thumb (§3.3): WAI = Winit*(1-eta)/N; larger WAI converges to\n\
         fairness faster but builds a standing queue once N*WAI exceeds the\n\
         bandwidth headroom."
    )
    .unwrap();
    s
}

/// §4.1 / §5.1 INT overhead accounting (the paper's "42 bytes for 5 hops",
/// 4.2% of a 1 KB packet).
pub fn tab_int_overhead() -> String {
    let mut s = header("Table — INT header overhead (Figure 7 / §4.1)");
    writeln!(
        s,
        "{:>6} {:>12} {:>16}",
        "hops", "INT bytes", "% of 1KB packet"
    )
    .unwrap();
    for hops in 0..=8u16 {
        let mut h = IntHeader::new();
        for i in 0..hops {
            h.push_hop(i + 1, IntHopRecord::default());
        }
        let size = h.wire_size();
        writeln!(
            s,
            "{:>6} {:>12} {:>15.1}%",
            hops,
            size,
            size as f64 / MTU_PAYLOAD as f64 * 100.0
        )
        .unwrap();
    }
    writeln!(
        s,
        "\nworst-case budget charged per data packet: {} bytes ({}%)",
        INT_BUDGET_SIZE,
        INT_BUDGET_SIZE as f64 * 100.0 / MTU_PAYLOAD as f64
    )
    .unwrap();
    s
}

/// Appendix A.2 demonstration: the fluid recursion reaches feasibility in
/// one step and a Pareto-optimal allocation shortly after.
pub fn fluid_convergence() -> String {
    let mut s = header("Appendix A.2 — fluid-model convergence");
    let net = FluidNetwork::new(
        vec![
            vec![true, true, false, false],
            vec![true, false, true, false],
            vec![false, false, true, true],
        ],
        vec![100.0, 40.0, 60.0],
    );
    let trajectory = net.converge(&[80.0, 80.0, 80.0, 80.0], 1e-9, 30);
    writeln!(
        s,
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "step", "R1", "R2", "R3", "R4", "feasible"
    )
    .unwrap();
    for (i, r) in trajectory.iter().enumerate() {
        writeln!(
            s,
            "{:>5} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10}",
            i,
            r[0],
            r[1],
            r[2],
            r[3],
            net.is_feasible(r, 1e-9)
        )
        .unwrap();
    }
    let last = trajectory.last().unwrap();
    writeln!(s, "\nconverged after {} steps", trajectory.len() - 1).unwrap();
    writeln!(
        s,
        "\nPareto optimal: {} (every path crosses a saturated resource)",
        net.is_pareto_optimal(last, 1e-3)
    )
    .unwrap();
    s
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_overhead_table_reports_42_bytes_for_5_hops() {
        let t = tab_int_overhead();
        assert!(t.contains("     5           42"), "{t}");
        assert!(t.contains("42 bytes"));
    }

    #[test]
    fn fluid_convergence_report_shows_feasibility() {
        let t = fluid_convergence();
        assert!(t.contains("Pareto optimal: true"), "{t}");
    }

    #[test]
    fn fig06_runs_at_tiny_scale() {
        let t = fig06(1);
        assert!(t.contains("HPCC (txRate)"));
        assert!(t.contains("HPCC-rxRate"));
        assert!(t.contains("steady-state queue"));
    }

    #[test]
    fn fig13_runs_at_tiny_scale_and_shows_all_modes() {
        let t = fig13(1);
        for label in ["per-ACK", "per-RTT", "HPCC"] {
            assert!(t.contains(label), "missing {label} in:\n{t}");
        }
    }
}
