//! End-to-end pins for the trace/locality/skew workload subsystem:
//!
//! * a campaign manifest can declare trace-replay scenarios and
//!   locality/skew sweeps, round-trips through JSON, and merges
//!   bit-identically to `run_serial()` when executed as 2 shard streams,
//! * freezing any synthetic workload to a trace and replaying it reproduces
//!   the original campaign digests — through a file on disk as well as
//!   through inline manifest records.

use hpcc_core::campaign::{Campaign, ShardPlan};
use hpcc_core::presets::{fattree_locality_sweep, fattree_skew_sweep, trace_replay};
use hpcc_core::{wire, CcSpec, CdfSpec, ScenarioSpec, TopologyChoice, WorkloadSpec};
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};
use hpcc_workload::Trace;

/// A campaign exercising every new workload axis: an intra-rack locality
/// sweep, a Zipf skew sweep, and a trace-replay scenario whose records are
/// inlined in the manifest.
fn mixed_campaign() -> Campaign {
    let mut scenarios = Vec::new();
    scenarios.extend(
        fattree_locality_sweep(
            CcSpec::by_label("HPCC"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(2),
            &[0.0, 0.9],
            7,
        )
        .scenarios()
        .to_vec(),
    );
    scenarios.extend(
        fattree_skew_sweep(
            CcSpec::by_label("DCQCN"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(2),
            &[1.2],
            7,
        )
        .scenarios()
        .to_vec(),
    );
    // The trace scenario: freeze a small Poisson workload into inline
    // records so the manifest is fully self-contained.
    let frozen = ScenarioSpec::new(
        "trace replay (inline)",
        TopologyChoice::star(8, Bandwidth::from_gbps(25)),
        CcSpec::by_label("HPCC"),
        Duration::from_ms(2),
    )
    .with_seed(3)
    .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, 0.2))
    .freeze()
    .expect("freezing a Poisson workload");
    scenarios.push(frozen);
    Campaign::from_scenarios(scenarios)
}

#[test]
fn mixed_campaign_manifest_round_trips_and_shards_merge_bit_identically() {
    let campaign = mixed_campaign();
    // The manifest (locality sweep + skew sweep + inline trace) is plain
    // JSON and round-trips losslessly.
    let manifest = campaign.to_json_string();
    let back = Campaign::from_json_str(&manifest).unwrap();
    assert_eq!(back, campaign);

    // Two shard streams, exactly as `hpcc shard 0/2` and `shard 1/2`
    // write them, must merge into a report bit-identical to the serial
    // reference.
    let serial = campaign.run_serial();
    let mut streams = Vec::new();
    for shard in 0..2 {
        let mut buf = Vec::new();
        back.run_shard_streaming(ShardPlan::new(shard, 2), &mut buf)
            .unwrap();
        streams.push(String::from_utf8(buf).unwrap());
    }
    let merged =
        wire::merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
            .unwrap();
    assert_eq!(merged.digests(), serial.digests());
    assert_eq!(merged.to_json_string(), serial.to_json_string());
    // The sweep really produced distinct workloads (no digest collisions).
    let mut unique = serial.digests();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), campaign.len());
}

#[test]
fn frozen_traces_reproduce_generated_campaign_digests() {
    // Background Poisson (with locality) + incast on the small Clos fabric:
    // the digest must survive generate → trace → replay.
    let original = fattree_locality_sweep(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.3,
        Duration::from_ms(2),
        &[0.75],
        11,
    )
    .scenarios()[0]
        .clone()
        .with_workload(WorkloadSpec::incast(8, 100_000, 0.02));
    let frozen = original.freeze().unwrap();
    let a = Campaign::from_scenarios(vec![original]).run_serial();
    let b = Campaign::from_scenarios(vec![frozen]).run_serial();
    assert_eq!(a.digests(), b.digests());
}

/// Freezing a committed manifest changes its workloads, not its report: the
/// frozen campaign writes the original's bytes, slowdown buckets included.
#[test]
fn every_committed_manifest_reports_like_its_frozen_form() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../manifests");
    let mut manifests: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 3, "{manifests:?}");
    for path in manifests {
        let text = std::fs::read_to_string(&path).unwrap();
        let original = Campaign::from_json_str(&text).unwrap();
        let frozen: Vec<ScenarioSpec> = original
            .scenarios()
            .iter()
            .map(|spec| spec.freeze().unwrap())
            .collect();
        assert_eq!(
            Campaign::from_scenarios(frozen).run().to_json_string(),
            original.run().to_json_string(),
            "{}",
            path.display()
        );
    }
}

#[test]
fn trace_files_on_disk_replay_to_the_same_digest_as_inline_records() {
    // Export a synthetic workload to a CSV file, then declare a
    // trace-replay scenario over that file (the cross-host workflow: the
    // trace is the artifact that ships).
    let spec = ScenarioSpec::new(
        "source",
        TopologyChoice::star(6, Bandwidth::from_gbps(25)),
        CcSpec::by_label("DCTCP"),
        Duration::from_ms(2),
    )
    .with_seed(21)
    .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, 0.25));
    let exp = spec.build();
    let trace = Trace::from_flows(exp.flows(), exp.topology().hosts()).unwrap();
    assert!(!trace.records.is_empty());

    let dir = std::env::temp_dir().join("hpcc_workload_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("source_flows.csv");
    std::fs::write(&path, trace.to_csv()).unwrap();

    let replay_spec = trace_replay(
        "replayed",
        TopologyChoice::star(6, Bandwidth::from_gbps(25)),
        CcSpec::by_label("DCTCP"),
        path.to_string_lossy().into_owned(),
        Duration::from_ms(2),
        21,
    );
    // The file-driven scenario serializes (path form) and round-trips.
    let back = ScenarioSpec::from_json_str(&replay_spec.to_json_string()).unwrap();
    assert_eq!(back, replay_spec);

    // Identical per-flow tuples…
    let replayed = replay_spec.build();
    assert_eq!(replayed.flows(), exp.flows());
    // …and identical run digests. The scenarios differ only in `name` and
    // measurement options; digest covers the simulator output, which both
    // must reproduce. Align the measurement options first.
    let mut original = spec;
    original.trace = replay_spec.trace.clone();
    let a = Campaign::from_scenarios(vec![original]).run_serial();
    let b = Campaign::from_scenarios(vec![replay_spec]).run_serial();
    assert_eq!(a.digests(), b.digests());
}
