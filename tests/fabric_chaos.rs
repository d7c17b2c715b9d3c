//! Chaos test for the elastic campaign fabric: a coordinator, one healthy
//! worker and two failing ones, which the test plays itself over the wire
//! protocol —
//!
//! * `wedge` says hello, reads its two leases (the coordinator grants one
//!   ahead) and then goes silent with its connection open: what a wedged
//!   worker looks like. It holds both leases when it stops, by construction.
//! * `flake` sends the result of the first index it is leased and then
//!   drops its connection without a bye: a crash.
//! * `steady` is an ordinary [`fabric::join`], and finishes the campaign.
//!
//! The fabric must ride out both failures: the merged report must be
//! bit-identical (per-scenario FNV digests *and* canonical report JSON)
//! to `run_serial()`, the checkpoint must replay to the same digests, and
//! a coordinator restarted over the complete checkpoint must finish
//! without re-running a single scenario.

use hpcc::core::fabric::{self, Coordinator, FabricConfig, WorkerConfig};
use hpcc::core::wire::{merge_shard_streams, read_frame, write_frame, FabricMsg};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// A worker played by hand: connect, say hello, read the manifest and the
/// first `leases` leases. Returns the open connection and the leases.
fn hello(addr: &str, name: &str, leases: usize) -> (TcpStream, Vec<Vec<usize>>) {
    let stream = TcpStream::connect(addr).expect("cannot connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let worker = name.to_string();
    write_frame(&mut &stream, &FabricMsg::Hello { worker }).expect("hello");
    let mut granted = Vec::new();
    while granted.len() < leases {
        match read_frame(&mut reader).expect("a frame") {
            Some(FabricMsg::Manifest { .. }) => {}
            Some(FabricMsg::Lease { indices }) => granted.push(indices),
            _ => panic!("{name}: expected a manifest and leases"),
        }
    }
    (stream, granted)
}

#[test]
fn fabric_survives_worker_death_and_restart_resumes_from_checkpoint() {
    let manifest = include_str!("../manifests/fabric_smoke.json");
    let campaign = hpcc::core::Campaign::from_json_str(manifest).unwrap();
    let serial = campaign.run_serial();
    let dir = std::env::temp_dir().join(format!("hpcc-fabric-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create temp dir");
    let checkpoint = dir.join("checkpoint.jsonl");

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let cfg = FabricConfig {
        // Short lease timeout so the wedge is retired in test time; the
        // steady worker heartbeats at 50 ms, well under it.
        lease_timeout: Duration::from_millis(400),
        checkpoint: Some(checkpoint.clone()),
    };
    // (`serve` runs on its own thread so that a failed assertion here fails
    // the test instead of waiting on a campaign nobody will finish.)
    let serving = {
        let (campaign, cfg) = (campaign.clone(), cfg.clone());
        std::thread::spawn(move || coordinator.serve(&campaign, &cfg))
    };
    // The only worker so far: its first lease and the one granted ahead
    // are the campaign's first two indices, one each before any result.
    let (wedge, leases) = hello(&addr, "wedge", 2);
    assert_eq!(leases, vec![vec![0], vec![1]]);
    let (flake, leases) = hello(&addr, "flake", 1);
    let index = leases[0][0];
    let result = Box::new(campaign.run_index(index));
    write_frame(&mut &flake, &FabricMsg::Result { index, result }).expect("result");
    drop(flake);
    let steady = std::thread::spawn(move || {
        let cfg = WorkerConfig {
            name: "steady".to_string(),
            heartbeat: Duration::from_millis(50),
        };
        fabric::join(&addr, &cfg)
    });
    let fab = serving
        .join()
        .expect("serve panicked")
        .expect("fabric serve failed");
    drop(wedge);
    let summary = steady.join().expect("steady panicked").expect("steady");
    assert_eq!(summary.campaign_len, campaign.len());

    // Bit-identical to serial, despite one wedge, one crash and arbitrary
    // completion order.
    assert_eq!(fab.report.digests(), serial.digests());
    assert_eq!(fab.report.to_json_string(), serial.to_json_string());
    assert_eq!(fab.executed, campaign.len() as u64);
    assert_eq!(fab.resumed, 0);
    // The wedge's two leases came back when it was retired.
    assert!(fab.reassigned >= 2, "reassigned {}", fab.reassigned);

    // The checkpoint replays — through the ordinary shard-merge path — to
    // the same digests the live run produced.
    let text = std::fs::read_to_string(&checkpoint).expect("checkpoint missing");
    let replayed = merge_shard_streams([text.as_str()], Some(campaign.len()))
        .expect("checkpoint must replay cleanly");
    assert_eq!(replayed.digests(), serial.digests());
    assert_eq!(replayed.to_json_string(), serial.to_json_string());

    // A restarted coordinator over the complete checkpoint finishes
    // immediately: no workers, no listener traffic, zero re-runs.
    let restarted = Coordinator::bind("127.0.0.1:0").expect("cannot rebind");
    let fab2 = restarted
        .serve(&campaign, &cfg)
        .expect("restart over checkpoint failed");
    assert_eq!(fab2.executed, 0, "restart re-ran scenarios");
    assert_eq!(fab2.resumed, campaign.len());
    assert_eq!(fab2.workers_seen, 0);
    assert_eq!(fab2.report.digests(), serial.digests());
    assert_eq!(fab2.report.to_json_string(), serial.to_json_string());

    std::fs::remove_dir_all(&dir).ok();
}
