//! Integration tests spanning the whole workspace: build experiments with
//! the high-level API and check the paper's qualitative claims end to end.

use hpcc::core::presets::{
    elephant_mice, incast_on_star, long_short, testbed_websearch, two_to_one,
};
use hpcc::prelude::*;
use hpcc::stats::series::{goodput_series_gbps, steady_state_gbps};

const BW100: Bandwidth = Bandwidth::from_gbps(100);

/// §5.2 "HPCC has lower network latency": mice flows crossing a link
/// saturated by elephants see far lower FCT with HPCC than with DCQCN,
/// because the standing queue is gone.
#[test]
fn mice_latency_is_much_lower_with_hpcc_than_dcqcn() {
    let run = |label: &str| {
        elephant_mice(
            CcSpec::by_label(label),
            BW100,
            Duration::from_us(100),
            Duration::from_ms(3),
        )
        .run()
    };
    let hpcc = run("HPCC");
    let dcqcn = run("DCQCN");
    let mice_fct = |res: &ExperimentResults| {
        let flows: Vec<f64> = res
            .out
            .flows
            .iter()
            .filter(|f| f.size == 1_000)
            .map(|f| f.fct().as_us_f64())
            .collect();
        assert!(flows.len() > 10, "need mice samples");
        hpcc::stats::Percentiles::of(&flows).unwrap()
    };
    let m_hpcc = mice_fct(&hpcc);
    let m_dcqcn = mice_fct(&dcqcn);
    assert!(
        m_dcqcn.p95 > 2.0 * m_hpcc.p95,
        "DCQCN mice 95p latency ({:.1} us) should far exceed HPCC's ({:.1} us)",
        m_dcqcn.p95,
        m_hpcc.p95
    );
    // HPCC mice latency stays within a few x of the base RTT.
    assert!(m_hpcc.p95 < 40.0, "HPCC mice p95 = {:.1} us", m_hpcc.p95);
}

/// §5.2 "HPCC has faster and better rate recovery" (Figure 9a/9b): after a
/// short flow leaves, the long flow is back near line rate almost
/// immediately with HPCC.
#[test]
fn long_flow_recovers_quickly_after_short_flow_leaves() {
    let res = long_short(CcSpec::by_label("HPCC"), BW100, Duration::from_ms(3)).run();
    let series = goodput_series_gbps(&res.out.flow_goodput[&FlowId(1)], res.out.flow_goodput_bin);
    // Steady state at the end of the run is back above 85 Gbps (eta = 95% of
    // 100 G minus header overheads).
    let tail = steady_state_gbps(&series, 0.2);
    assert!(tail > 80.0, "long flow only recovered to {tail:.1} Gbps");
    // And the short flow actually completed.
    assert!(res.out.flows.iter().any(|f| f.id == FlowId(2)));
}

/// §3.4 / Figure 6: the txRate signal converges without the oscillation that
/// the rxRate variant shows — measured as the variance of the bottleneck
/// queue after the initial transient.
#[test]
fn tx_rate_signal_is_more_stable_than_rx_rate() {
    let run = |use_rx: bool| {
        let res = two_to_one(use_rx, BW100, 4_000_000, Duration::from_ms(2)).run();
        // The one traced port: the bottleneck.
        let trace = res.out.port_traces.values().next().unwrap();
        // Skip the first 200 us transient, look at the rest of the transfer.
        let tail: Vec<f64> = trace
            .iter()
            .filter(|(t, _)| *t > SimTime::from_us(200) && *t < SimTime::from_us(600))
            .map(|(_, q)| *q as f64)
            .collect();
        assert!(tail.len() > 100);
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let var = tail.iter().map(|q| (q - mean) * (q - mean)).sum::<f64>() / tail.len() as f64;
        (mean, var.sqrt())
    };
    let (_mean_tx, std_tx) = run(false);
    let (_mean_rx, std_rx) = run(true);
    assert!(
        std_rx > std_tx,
        "rxRate should oscillate more (std {std_rx:.0} B) than txRate (std {std_tx:.0} B)"
    );
}

/// §5.3 / Figure 11b: under background load plus incast, DCQCN triggers PFC
/// pauses while HPCC (and even DCQCN once a window limits inflight bytes)
/// does not.
#[test]
fn incast_pfc_pauses_appear_with_dcqcn_but_not_hpcc_or_windowed() {
    let run = |label: &str| {
        // 24-to-1 incast on the PoD: most senders are in other racks, so the
        // burst funnels through the receiving ToR's single Agg-facing
        // ingress. DCQCN's unlimited inflight bytes push that ingress past
        // the 11%-of-free-buffer PFC threshold; HPCC's BDP-bounded windows
        // stay far below it.
        testbed_websearch(
            label,
            CcSpec::by_label(label),
            0.3,
            Duration::from_ms(15),
            Some(24),
            None,
            FlowControlMode::Lossless,
            11,
        )
        .with_buffer_bytes(16_000_000)
        .run()
    };
    let dcqcn = run("DCQCN");
    let dcqcn_win = run("DCQCN+win");
    let hpcc = run("HPCC");
    assert!(
        dcqcn.pfc_summary().pause_frames > 0,
        "DCQCN under incast should trigger PFC"
    );
    assert_eq!(
        hpcc.pfc_summary().pause_frames,
        0,
        "HPCC must not trigger PFC"
    );
    assert!(
        dcqcn_win.pfc_summary().pause_frames < dcqcn.pfc_summary().pause_frames / 2,
        "adding a window must cut PFC pauses drastically ({} vs {})",
        dcqcn_win.pfc_summary().pause_frames,
        dcqcn.pfc_summary().pause_frames
    );
    // HPCC finishes almost everything within the horizon; DCQCN, throttled
    // by CNPs and PFC pauses, finishes fewer but still makes progress.
    assert!(
        hpcc.completion_fraction() > 0.75,
        "HPCC {}",
        hpcc.completion_fraction()
    );
    for res in [&dcqcn, &dcqcn_win] {
        assert!(
            res.completion_fraction() > 0.5,
            "{} {}",
            res.label,
            res.completion_fraction()
        );
        assert!(
            hpcc.completion_fraction() >= res.completion_fraction() - 0.02,
            "HPCC should finish at least as large a fraction as {}",
            res.label
        );
    }
}

/// §5.2 / Figure 10: on the WebSearch testbed workload HPCC's switch queues
/// are far smaller than DCQCN's, and its short-flow tail slowdown does not
/// regress (at 30% load both are close to ideal; the large tail gaps of the
/// paper appear at 50% load and with incast, covered by the figure
/// harnesses).
#[test]
fn websearch_short_flow_tail_and_queues_favor_hpcc() {
    let run = |label: &str| {
        testbed_websearch(
            label,
            CcSpec::by_label(label),
            0.3,
            Duration::from_ms(15),
            None,
            None,
            FlowControlMode::Lossless,
            23,
        )
        .run()
    };
    let hpcc = run("HPCC");
    let dcqcn = run("DCQCN");
    // Short flows (≤ 30 KB) at the 95th percentile.
    let s_hpcc = hpcc.slowdown_for_sizes_up_to(30_000).unwrap();
    let s_dcqcn = dcqcn.slowdown_for_sizes_up_to(30_000).unwrap();
    assert!(
        s_hpcc.p95 < 2.0 * s_dcqcn.p95,
        "HPCC short-flow 95p slowdown {:.2} should stay in the same range as DCQCN's {:.2}",
        s_hpcc.p95,
        s_dcqcn.p95
    );
    assert!(
        s_hpcc.p50 < 2.5,
        "HPCC median short-flow slowdown {:.2}",
        s_hpcc.p50
    );
    // Time-average queue occupancy: DCQCN's standing queues (held near its
    // ECN threshold whenever flows share a link) dominate HPCC's.
    let mean_queue = |res: &ExperimentResults| {
        let total: u64 = res.out.queue_histogram.iter().sum();
        let weighted: f64 = res
            .out
            .queue_histogram
            .iter()
            .enumerate()
            .map(|(i, c)| i as f64 * res.out.queue_histogram_bin as f64 * *c as f64)
            .sum();
        weighted / total.max(1) as f64
    };
    let q_hpcc = mean_queue(&hpcc);
    let q_dcqcn = mean_queue(&dcqcn);
    assert!(
        q_dcqcn > 2.0 * q_hpcc.max(100.0),
        "queues: HPCC mean {q_hpcc:.0} B vs DCQCN mean {q_dcqcn:.0} B"
    );
    assert!(
        dcqcn.out.max_queue_bytes() > 50_000,
        "DCQCN should build a standing queue somewhere"
    );
    assert_eq!(hpcc.out.total_drops(), 0);
    assert_eq!(dcqcn.out.total_drops(), 0);
}

/// The declarative API end to end: the Figure 11 scheme set declared as a
/// campaign, serialized to a JSON manifest, parsed back, and run both
/// serially and in parallel — with bit-identical per-scenario results.
#[test]
fn campaign_of_six_schemes_is_deterministic_across_threads_and_serialization() {
    let scenarios: Vec<ScenarioSpec> = hpcc::core::SCHEME_SET_FIG11
        .iter()
        .map(|label| {
            incast_on_star(
                *label,
                CcSpec::by_label(*label),
                12,
                300_000,
                Bandwidth::from_gbps(25),
                Duration::from_ms(4),
            )
            .with_seed(9)
        })
        .collect();
    let campaign = Campaign::from_scenarios(scenarios);
    assert_eq!(campaign.len(), 6);

    // The manifest round-trips.
    let manifest = campaign.to_json_string();
    let parsed = Campaign::from_json_str(&manifest).expect("manifest parses");
    assert_eq!(parsed, campaign);

    // Parallel == serial == run-from-parsed-manifest, bit for bit.
    let serial = campaign.run_serial();
    let parallel = campaign.run_with_threads(6);
    let from_manifest = parsed.run();
    assert_eq!(serial.digests(), parallel.digests());
    assert_eq!(serial.digests(), from_manifest.digests());
    for r in &parallel.results {
        assert!(r.completion > 0.0, "{} made no progress", r.name);
    }
    // HPCC keeps the incast queue far below DCQCN's (§5.4).
    let by_name = |name: &str| {
        parallel
            .results
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .queue_p99
            .unwrap_or(0)
    };
    assert!(by_name("HPCC") < by_name("DCQCN"));
}

/// §3.3 / Figure 14: a too-large W_AI builds queues; the rule-of-thumb value
/// keeps them tiny while still sharing fairly.
#[test]
fn wai_rule_of_thumb_keeps_incast_queue_small() {
    let run = |wai: u64| {
        let cc = CcSpec::Hpcc(HpccConfig {
            wai,
            ..HpccConfig::default()
        });
        incast_on_star(
            format!("WAI={wai}"),
            cc,
            16,
            2_000_000,
            BW100,
            Duration::from_ms(3),
        )
        .run()
    };
    // Rule of thumb for 16 flows at 100 Gbps with the star's ~4-6 us RTT is
    // on the order of 100-200 bytes; 16 KB is far beyond it.
    let small = run(150);
    let huge = run(16_000);
    let q_small = small.queue_percentile(95.0).unwrap();
    let q_huge = huge.queue_percentile(95.0).unwrap();
    assert!(
        q_huge > q_small,
        "oversized WAI should increase the 95p queue ({q_huge} vs {q_small})"
    );
    assert_eq!(small.out.total_drops(), 0);
}
