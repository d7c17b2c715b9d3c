//! Chaos test for the elastic campaign fabric: a coordinator and three
//! real worker *processes*, two of which fail mid-campaign —
//!
//! * worker `wedge` executes two scenarios, then goes silent *without*
//!   sending the second result (heartbeats stop, connection stays open:
//!   what a wedged worker looks like). The parked process is SIGKILLed.
//! * worker `flake` disconnects — no bye — right after its first result.
//! * worker `steady` behaves.
//!
//! The fabric must ride out both failures: the merged report must be
//! bit-identical (per-scenario FNV digests *and* canonical report JSON)
//! to `run_serial()`, the checkpoint must replay to the same digests, and
//! a coordinator restarted over the complete checkpoint must finish
//! without re-running a single scenario.
//!
//! Like `tests/distributed_campaign.rs`, worker processes are this very
//! test binary re-spawned with `std::env::current_exe()`:
//! [`fabric_worker_entry`] doubles as the worker `main` when
//! `HPCC_FABRIC_JOIN` is set, and is a no-op pass otherwise.

use hpcc::core::fabric::{self, Coordinator, FabricConfig, WorkerConfig};
use hpcc::core::presets::fabric_smoke_campaign;
use hpcc::core::wire::merge_shard_streams;
use std::env;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker entry point (and, without the environment variable, a no-op
/// test): join the coordinator named by `HPCC_FABRIC_JOIN` and execute
/// leases until dismissed. `HPCC_FABRIC_HANG_AFTER` / `HPCC_FABRIC_QUIT_AFTER`
/// arm the chaos hooks; `HPCC_FABRIC_NAME` names the worker.
#[test]
fn fabric_worker_entry() {
    let Ok(addr) = env::var("HPCC_FABRIC_JOIN") else {
        return;
    };
    let parse = |var: &str| env::var(var).ok().map(|v| v.parse().expect("bad count"));
    let cfg = WorkerConfig {
        name: env::var("HPCC_FABRIC_NAME").unwrap_or_else(|_| "worker".to_string()),
        heartbeat: Duration::from_millis(50),
        hang_after: parse("HPCC_FABRIC_HANG_AFTER"),
        quit_after: parse("HPCC_FABRIC_QUIT_AFTER"),
    };
    // The campaign arrives over the wire; nothing is rebuilt locally.
    let summary = fabric::join(&addr, &cfg).expect("worker join failed");
    assert!(summary.executed <= summary.campaign_len);
}

/// Spawn one worker subprocess pointed at `addr`.
fn spawn_worker(addr: &str, name: &str, hang: Option<usize>, quit: Option<usize>) -> Child {
    let exe = env::current_exe().expect("cannot locate test binary");
    let mut cmd = Command::new(&exe);
    cmd.args(["fabric_worker_entry", "--exact"])
        .env("HPCC_FABRIC_JOIN", addr)
        .env("HPCC_FABRIC_NAME", name)
        .stdout(Stdio::null());
    if let Some(n) = hang {
        cmd.env("HPCC_FABRIC_HANG_AFTER", n.to_string());
    }
    if let Some(n) = quit {
        cmd.env("HPCC_FABRIC_QUIT_AFTER", n.to_string());
    }
    cmd.spawn().expect("cannot spawn worker process")
}

#[test]
fn fabric_survives_worker_death_and_restart_resumes_from_checkpoint() {
    let campaign = fabric_smoke_campaign();
    let serial = campaign.run_serial();
    let dir = env::temp_dir().join(format!("hpcc-fabric-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create temp dir");
    let checkpoint = dir.join("checkpoint.jsonl");

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let progress = Arc::new(AtomicUsize::new(0));
    let cfg = FabricConfig {
        // Short lease timeout so the wedged worker is detected in test
        // time; worker heartbeats run at 50 ms, well under it.
        lease_timeout: Duration::from_millis(400),
        checkpoint: Some(checkpoint.clone()),
        progress: Some(Arc::clone(&progress)),
    };

    // The wedge works alone until its first result is in. Leases are only
    // granted by the scheduler pass that follows a result, which visits
    // workers in join order, so the wedge — still the only worker, with 11
    // scenarios pending — is handed its second lease before anyone else can
    // be handed anything: it is guaranteed to hold one when it goes silent.
    // (`serve` runs on a detached thread so that a failed assertion here
    // fails the test instead of waiting on a campaign nobody will finish.)
    let serving = {
        let (campaign, cfg) = (campaign.clone(), cfg.clone());
        std::thread::spawn(move || coordinator.serve(&campaign, &cfg))
    };
    let mut wedge = spawn_worker(&addr, "wedge", Some(2), None);
    while progress.load(Ordering::Relaxed) < 1 {
        assert!(!serving.is_finished(), "serve ended before any result");
        let exited = wedge.try_wait().expect("cannot poll the wedge");
        assert!(exited.is_none(), "wedge exited before its first result");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut flake = spawn_worker(&addr, "flake", None, Some(1));
    let mut steady = spawn_worker(&addr, "steady", None, None);
    let fab = serving
        .join()
        .expect("serve panicked")
        .expect("fabric serve failed");

    // The wedged worker is parked forever; SIGKILL it mid-stream (its
    // unsent result is the "stream cut mid-write" the fabric absorbed).
    wedge.kill().expect("cannot kill wedged worker");
    wedge.wait().expect("wedged worker did not die");
    // The other two exited on their own (flake by crashing early, steady
    // after the coordinator's bye).
    assert!(flake.wait().expect("flake did not exit").success());
    assert!(steady.wait().expect("steady did not exit").success());

    // Bit-identical to serial, despite one wedge, one crash, duplicate
    // re-executions and arbitrary completion order.
    assert_eq!(fab.report.digests(), serial.digests());
    assert_eq!(fab.report.to_json_string(), serial.to_json_string());
    assert_eq!(fab.executed, campaign.len() as u64);
    assert_eq!(fab.resumed, 0);
    // The wedge held at least its unsent scenario; that lease came back
    // (guaranteed by the start order above, not by timing).
    assert!(fab.reassigned >= 1, "reassigned {}", fab.reassigned);

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
