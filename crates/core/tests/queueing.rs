//! Golden-digest and end-to-end tests of the pluggable switch scheduling
//! subsystem.
//!
//! Three guarantees are pinned here:
//!
//! 1. **The default path is frozen.** Every preset family, built with
//!    `QueueingSpec` omitted *or* with the explicit legacy default, must
//!    reproduce the digests recorded immediately before the scheduling
//!    refactor landed (the values below were produced by the pre-refactor
//!    tree on the CI platform). The fig11 scheme set has its own golden
//!    table in `golden_digests.rs`; this one covers the remaining preset
//!    families (micro benches, testbed, locality, skew).
//! 2. **Multi-class scheduling is observable.** A PIAS sweep demonstrably
//!    changes the per-priority FCT percentiles versus the single-queue
//!    baseline, and reports per-class queue statistics.
//! 3. **Distribution is transparent.** A campaign sweeping `QueueingSpec`
//!    across shards merges bit-identically to `run_serial()`.

use hpcc_core::campaign::digest_output;
use hpcc_core::presets::{
    elephant_mice, fairness, fattree_fb_hadoop, fattree_locality_sweep, fattree_pias_sweep,
    fattree_skew_sweep, incast_on_star, long_short, pfc_storm, priority_mix, testbed_websearch,
    testbed_with_cdf, two_to_one,
};
use hpcc_core::{Campaign, CampaignReport, CcSpec, CdfSpec, QueueingSpec, ScenarioSpec, ShardPlan};
use hpcc_sim::FlowControlMode;
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};

/// The preset scenarios frozen by the pre-refactor tree, with their serial
/// `digest_output` values (recorded on x86_64 Linux, like
/// `golden_digests.rs`).
fn golden_presets() -> Vec<(ScenarioSpec, u64)> {
    let bw100 = Bandwidth::from_gbps(100);
    vec![
        (
            two_to_one(false, bw100, 1_000_000, Duration::from_ms(1)),
            7891864775278243175,
        ),
        (
            incast_on_star(
                "incast HPCC",
                CcSpec::by_label("HPCC"),
                8,
                200_000,
                bw100,
                Duration::from_ms(1),
            ),
            16254292367837583560,
        ),
        (
            long_short(CcSpec::by_label("HPCC"), bw100, Duration::from_ms(1)),
            12458247397712540602,
        ),
        (
            elephant_mice(
                CcSpec::by_label("DCQCN"),
                bw100,
                Duration::from_us(100),
                Duration::from_ms(1),
            ),
            18214183521361663693,
        ),
        (
            fairness(
                CcSpec::by_label("HPCC"),
                bw100,
                Duration::from_us(200),
                Duration::from_ms(1),
            ),
            14581969723833105154,
        ),
        (
            testbed_websearch(
                "testbed DCQCN",
                CcSpec::by_label("DCQCN"),
                0.3,
                Duration::from_ms(2),
                Some(8),
                None,
                FlowControlMode::Lossless,
                7,
            ),
            12433740699300978148,
        ),
        (
            fattree_fb_hadoop(
                "fattree HPCC",
                CcSpec::by_label("HPCC"),
                FatTreeParams::small(),
                0.3,
                Duration::from_ms(2),
                true,
                FlowControlMode::LossyIrn,
                9,
            ),
            9151915604825334824,
        ),
        (
            pfc_storm(0.3, 8, Duration::from_ms(2), 5),
            10565191147067536164,
        ),
        (
            testbed_with_cdf(
                "custom cdf",
                CcSpec::by_label("TIMELY"),
                CdfSpec::Fixed(50_000),
                0.2,
                Duration::from_ms(2),
                3,
            ),
            7882741137419735256,
        ),
        (
            fattree_locality_sweep(
                CcSpec::by_label("HPCC"),
                FatTreeParams::small(),
                0.3,
                Duration::from_ms(1),
                &[0.0],
                4,
            )
            .scenarios()[0]
                .clone(),
            3749215988329344226,
        ),
        (
            fattree_locality_sweep(
                CcSpec::by_label("HPCC"),
                FatTreeParams::small(),
                0.3,
                Duration::from_ms(1),
                &[0.8],
                4,
            )
            .scenarios()[0]
                .clone(),
            9652483951972977125,
        ),
        (
            fattree_skew_sweep(
                CcSpec::by_label("DCQCN"),
                FatTreeParams::small(),
                0.3,
                Duration::from_ms(1),
                &[1.2],
                4,
            )
            .scenarios()[0]
                .clone(),
            5941025657014320503,
        ),
    ]
}

#[test]
fn presets_with_queueing_omitted_or_explicit_legacy_match_pre_refactor_digests() {
    for (spec, golden) in golden_presets() {
        assert!(
            spec.queueing.is_none(),
            "{}: preset must default",
            spec.name
        );
        let omitted = digest_output(&spec.run().out);
        assert_eq!(
            omitted, golden,
            "{}: QueueingSpec omitted no longer reproduces the pre-refactor run",
            spec.name
        );
        // Every one-class discipline is the legacy path.
        for queueing in [
            QueueingSpec::legacy(),
            QueueingSpec::dwrr(vec![5]),
            QueueingSpec::pias(vec![]),
        ] {
            let label = queueing.label();
            let explicit = spec.clone().with_queueing(queueing);
            assert_eq!(
                digest_output(&explicit.run().out),
                golden,
                "{}: the explicit one-class {label} diverges from omission",
                spec.name
            );
        }
    }
}

/// The scheduler-comparison campaign used by the shard-merge and
/// PIAS-observability tests: small Clos fabric, short horizon, one scenario
/// per queueing discipline.
fn queueing_sweep() -> Campaign {
    let mut campaign = fattree_pias_sweep(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.5,
        Duration::from_ms(2),
        &[vec![100_000], vec![30_000, 1_000_000]],
        11,
    );
    for s in priority_mix(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.5,
        Duration::from_ms(2),
        30_000,
        3,
        11,
    )
    .scenarios()
    {
        campaign.push(s.clone());
    }
    campaign
}

#[test]
fn pias_sweep_changes_per_priority_fct_percentiles() {
    let campaign = fattree_pias_sweep(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.5,
        Duration::from_ms(2),
        &[vec![100_000]],
        11,
    );
    let report = campaign.run_serial();
    let legacy = &report.results[0];
    let pias = &report.results[1];
    assert_eq!(legacy.name, "queueing SP-1 (legacy)");
    assert_eq!(pias.name, "queueing PIAS-2");
    // Both tag mice vs elephants, so both report per-priority breakdowns
    // (code 0 = normal/elephants, code 1 = latency-sensitive/mice).
    for r in [legacy, pias] {
        let codes: Vec<u8> = r.prio_slowdown.iter().map(|(c, _)| *c).collect();
        assert_eq!(codes, vec![0, 1], "{}: {codes:?}", r.name);
        assert!(r.prio_slowdown.iter().all(|(_, s)| s.is_some()));
    }
    // The runs themselves diverge...
    assert_ne!(legacy.digest, pias.digest, "PIAS must change the run");
    // ...and so do the per-priority FCT percentile summaries: demoting
    // elephants reshapes at least one group's distribution.
    assert_ne!(
        legacy.prio_slowdown, pias.prio_slowdown,
        "PIAS left every per-priority percentile untouched"
    );
    // Per-class queue stats exist exactly on the multi-class run.
    assert!(legacy.class_queue_p99.is_empty());
    assert_eq!(pias.class_queue_p99.len(), 2);
    assert!(pias.class_queue_p99.iter().any(|p| p.is_some()));
}

#[test]
fn queueing_sweep_merges_bit_identical_across_two_shards() {
    let campaign = queueing_sweep();
    assert!(campaign.len() >= 5);
    // The sweep survives the manifest round trip (queueing key included).
    let back = Campaign::from_json_str(&campaign.to_json_string()).unwrap();
    assert_eq!(back, campaign);
    let serial = campaign.run_serial();
    let mut streams = Vec::new();
    for shard in 0..2 {
        let mut buf = Vec::new();
        campaign
            .run_shard_streaming(ShardPlan::new(shard, 2), &mut buf)
            .unwrap();
        streams.push(String::from_utf8(buf).unwrap());
    }
    let merged = hpcc_core::wire::merge_shard_streams(
        streams.iter().map(String::as_str),
        Some(campaign.len()),
    )
    .unwrap();
    assert_eq!(merged.digests(), serial.digests());
    assert_eq!(
        merged.to_json_string(),
        serial.to_json_string(),
        "canonical JSON must be bit-identical serial vs 2-shard merge"
    );
    // The multi-class fields crossed the wire: a PIAS scenario decoded from
    // JSONL still carries its per-priority and per-class summaries.
    let pias = merged
        .results
        .iter()
        .find(|r| r.name == "queueing PIAS-2")
        .unwrap();
    assert_eq!(pias.prio_slowdown.len(), 2);
    assert_eq!(pias.class_queue_p99.len(), 2);
    // And decoding the canonical report re-encodes byte-identically.
    let decoded = CampaignReport::from_json_str(&serial.to_json_string()).unwrap();
    assert_eq!(decoded.to_json_string(), serial.to_json_string());
}

#[test]
fn schedulers_diverge_from_legacy_but_stay_deterministic() {
    let sweep = queueing_sweep();
    let report = sweep.run_serial();
    // Within each family ("queueing ...", "prio-mix ...") the legacy
    // baseline injects the bit-identical flow list as the multi-class
    // scenarios, so a digest difference is the scheduler's doing.
    for family in ["queueing", "prio-mix"] {
        let in_family: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.name.starts_with(family))
            .collect();
        assert!(in_family.len() >= 2, "{family}: sweep too small");
        let legacy = in_family
            .iter()
            .find(|r| r.name.contains("legacy"))
            .unwrap_or_else(|| panic!("{family}: no legacy baseline"));
        for r in &in_family {
            if r.name.contains("legacy") {
                continue;
            }
            assert_ne!(
                r.digest, legacy.digest,
                "{}: multi-class scheduling changed nothing",
                r.name
            );
        }
    }
    // ...and everything is deterministic (digest equality on a re-run).
    let again = sweep.run_serial();
    assert_eq!(report.digests(), again.digests());
}
