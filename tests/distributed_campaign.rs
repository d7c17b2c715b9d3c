//! The library's offline sharding pair across real processes: worker
//! subprocesses run one `ShardPlan` shard each with `run_shard_streaming`,
//! writing `ScenarioResult`s as JSONL files; `merge_shard_streams` must fold
//! them into a report bit-identical — per-scenario FNV digests *and*
//! canonical report JSON — to a serial run. This is what the `hpcc`
//! binary's `shard i/N` and `merge` subcommands wrap (the binary's own
//! routes are driven in `crates/bench/tests/campaign_cli.rs`).
//!
//! The subprocess test re-spawns this very test binary
//! (`std::env::current_exe()`) as its workers: `worker_shard_entry` below
//! doubles as the worker entry point when the `HPCC_WORKER_SHARD` /
//! `HPCC_WORKER_OUT` environment variables are set (and is a no-op pass
//! otherwise).

use hpcc::core::presets::{fig11_campaign, incast_on_star};
use hpcc::core::wire::merge_shard_streams;
use hpcc::prelude::*;
use std::env;
use std::fs::File;
use std::process::{Command, Stdio};

/// The acceptance campaign: the Figure 11 six-scheme set on the scaled-down
/// Clos fabric. Both the parent and the spawned workers rebuild it from the
/// same constants, mirroring how distributed workers rebuild a campaign
/// from a shared manifest.
fn fig11_set() -> Campaign {
    fig11_campaign(FatTreeParams::small(), 0.3, Duration::from_ms(2), true, 42)
}

/// Worker entry point (and, without the environment variables, a no-op
/// test): executes one round-robin shard of [`fig11_set`] and streams each
/// result as a JSONL line into the file named by `HPCC_WORKER_OUT`.
#[test]
fn worker_shard_entry() {
    let (Ok(spec), Ok(out)) = (env::var("HPCC_WORKER_SHARD"), env::var("HPCC_WORKER_OUT")) else {
        return;
    };
    let plan = ShardPlan::parse(&spec).expect("bad HPCC_WORKER_SHARD");
    let mut file = File::create(&out).expect("cannot create HPCC_WORKER_OUT");
    fig11_set()
        .run_shard_streaming(plan, &mut file)
        .expect("shard execution failed");
}

/// Acceptance test: two real worker *processes* each run half the fig11
/// six-scheme set, their JSONL streams merge back into a report that is
/// bit-identical to `run_serial()`.
#[test]
fn two_worker_processes_reproduce_serial_bit_for_bit() {
    let campaign = fig11_set();
    let shards = 2usize;
    let exe = env::current_exe().expect("cannot locate test binary");
    let dir = env::temp_dir().join(format!("hpcc-dist-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create temp dir");

    let mut workers = Vec::new();
    for shard in 0..shards {
        let out = dir.join(format!("shard-{shard}.jsonl"));
        let child = Command::new(&exe)
            // Filter the child's libtest run down to the worker entry.
            .args(["worker_shard_entry", "--exact"])
            .env("HPCC_WORKER_SHARD", format!("{shard}/{shards}"))
            .env("HPCC_WORKER_OUT", &out)
            .stdout(Stdio::null())
            .spawn()
            .expect("cannot spawn worker process");
        workers.push((out, child));
    }

    let mut streams = Vec::new();
    for (out, mut child) in workers {
        let status = child.wait().expect("worker did not exit");
        assert!(status.success(), "worker process failed: {status}");
        streams.push(std::fs::read_to_string(&out).expect("worker wrote no stream"));
    }
    std::fs::remove_dir_all(&dir).ok();

    // Each worker streamed one line per owned scenario.
    assert_eq!(streams[0].lines().count(), 3);
    assert_eq!(streams[1].lines().count(), 3);

    let merged = merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
        .expect("merge failed");
    let serial = campaign.run_serial();

    // Bit-identical: per-scenario FNV digests and the canonical report JSON.
    assert_eq!(merged.digests(), serial.digests());
    assert_eq!(merged.to_json_string(), serial.to_json_string());
    // Scenario order and summary metrics survived the round trip.
    assert_eq!(merged.results.len(), 6);
    for (m, s) in merged.results.iter().zip(&serial.results) {
        assert_eq!(m.name, s.name);
        assert_eq!(m.scheme, s.scheme);
        assert_eq!(m.slowdown, s.slowdown);
        assert_eq!(m.queue_p99, s.queue_p99);
        assert_eq!(m.pfc, s.pfc);
        assert_eq!(m.completion, s.completion);
        // Wire results carry the summary, not the raw simulator output.
        assert!(m.results.is_none());
        assert!(s.results.is_some());
        // The envelope restored a real worker-side wall measurement.
        assert!(m.wall > std::time::Duration::ZERO);
    }
    // The merged report renders like any locally-run one.
    let table = merged.table();
    assert!(table.contains("HPCC"), "{table}");
    assert!(table.contains("6 scenarios"), "{table}");
}

/// Scenario-diversity guard for the shard partitioner: a mixed
/// HPCC / DCQCN / TIMELY campaign over different topologies and workloads.
fn mixed_campaign() -> Campaign {
    let star = |label: &str, seed: u64| {
        incast_on_star(
            label,
            CcSpec::by_label(label),
            6,
            150_000,
            Bandwidth::from_gbps(25),
            Duration::from_ms(1),
        )
        .with_seed(seed)
    };
    Campaign::from_scenarios(vec![
        star("HPCC", 1),
        star("DCQCN", 2),
        star("TIMELY", 3),
        ScenarioSpec::new(
            "HPCC dumbbell websearch",
            TopologyChoice::Dumbbell {
                left: 4,
                right: 4,
                host_bw: Bandwidth::from_gbps(25),
                core_bw: Bandwidth::from_gbps(50),
                link_delay: Duration::from_us(1),
            },
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, 0.2))
        .with_queue_sampling(Duration::from_us(5))
        .with_seed(4),
        ScenarioSpec::new(
            "DCQCN star fb_hadoop",
            TopologyChoice::star(8, Bandwidth::from_gbps(25)),
            CcSpec::by_label("DCQCN"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, 0.3))
        .with_queue_sampling(Duration::from_us(5))
        .with_seed(5),
    ])
}

/// Property: for every shard count `k ∈ {1, 2, 3, 7}` (including `k` larger
/// than the campaign, leaving some shards empty), running the `k` shards
/// independently and merging their streams reproduces `run_serial()` bit
/// for bit — digests and canonical JSON.
#[test]
fn shard_and_merge_matches_serial_for_every_shard_count() {
    let campaign = mixed_campaign();
    let serial = campaign.run_serial();
    assert_eq!(serial.results.len(), 5);
    for k in [1usize, 2, 3, 7] {
        let streams: Vec<String> = (0..k)
            .map(|shard| {
                let mut buf = Vec::new();
                campaign
                    .run_shard_streaming(ShardPlan::new(shard, k), &mut buf)
                    .expect("in-memory stream cannot fail");
                String::from_utf8(buf).expect("JSONL is UTF-8")
            })
            .collect();
        let total_lines: usize = streams.iter().map(|s| s.lines().count()).sum();
        assert_eq!(total_lines, campaign.len(), "k={k}");
        let merged = merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(merged.digests(), serial.digests(), "k={k}");
        assert_eq!(merged.to_json_string(), serial.to_json_string(), "k={k}");
        assert_eq!(merged.threads, k, "k={k}");
    }
}
