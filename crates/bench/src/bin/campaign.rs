//! Campaign determinism check, manifest runner and multi-process
//! sharded-campaign coordinator. (Performance is measured by the package in
//! `benchmark/`, not here.)
//!
//! With no arguments, builds the Figure 11 scheme set (six scenarios on the
//! scaled-down Clos fabric), runs it serially and then in parallel, verifies
//! the per-scenario digests are bit-identical, and reports the speedup.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hpcc-bench --bin campaign [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --manifest file.json
//! cargo run --release -p hpcc-bench --bin campaign -- --dump-manifest [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --cross-validate \
//!     [--manifest f] [--tolerance 0.75] [--report out.json] [duration_ms]
//! cargo run --release -p hpcc-bench --bin campaign -- --shards N \
//!     [--verify-serial] [--report out.json] [--manifest f] [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --worker-shard i/N \
//!     [--manifest f] [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --merge a.jsonl b.jsonl ... \
//!     [--expect N | --manifest f] [--report out.json]
//! cargo run --release -p hpcc-bench --bin campaign -- --serve ADDR \
//!     [--spawn-workers N] [--chaos-kill-at F] [--checkpoint file.jsonl] \
//!     [--lease-timeout-ms N] [--verify-serial] [--report out.json] \
//!     [--manifest f] [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --join ADDR \
//!     [--name W] [--heartbeat-ms N] [--hang-after N] [--quit-after N]
//! cargo run --release -p hpcc-bench --bin campaign -- --dump-fabric-manifest
//! ```
//!
//! `--manifest` runs a JSON campaign manifest (an array of ScenarioSpec
//! objects, see `hpcc_core::scenario`) instead of the built-in scheme set;
//! `--dump-manifest` prints the built-in campaign as such a manifest (a
//! starting point for hand-edited grids).
//!
//! Backend cross-validation (see `hpcc_core::validate`):
//!
//! * `--cross-validate` — run the validation grid (or a `--manifest`) on
//!   both the packet engine and the fluid backend, print the per-scenario
//!   divergence table, and exit with status 3 when the worst FCT-slowdown
//!   (relative) or utilization (absolute) divergence exceeds `--tolerance`
//!   (default 0.75). `--report` writes the canonical (digest-stable)
//!   divergence JSON.
//!
//! Distributed modes (see `hpcc_core::wire` for the JSONL schema and the
//! determinism contract):
//!
//! * `--shards N` — coordinator: re-spawns this binary as `N` worker
//!   subprocesses (`--worker-shard i/N` each, same campaign arguments),
//!   reads their JSONL stdout streams, and merges them into one report in
//!   scenario order. `--verify-serial` additionally runs the campaign
//!   serially in-process and exits non-zero unless digests and canonical
//!   report JSON are bit-identical. `--report` writes the merged canonical
//!   JSON to a file.
//! * `--worker-shard i/N` — worker: runs the round-robin shard `i` of `N`
//!   and streams one JSONL line per completed scenario on stdout (all
//!   diagnostics go to stderr, so stdout is pure JSONL and can be piped or
//!   redirected to a file on a remote host).
//! * `--merge` — fold JSONL files produced elsewhere (e.g. workers on other
//!   hosts) into one report. Pass `--expect N` (or `--manifest`, whose
//!   scenario count is used) so a shard file truncated at its tail cannot
//!   slip through as a shorter-but-valid report.
//!
//! Elastic fabric modes (see `hpcc_core::fabric` and `docs/WIRE.md` for the
//! framed TCP protocol):
//!
//! * `--serve ADDR` — fabric coordinator: bind ADDR (use port 0 for an
//!   ephemeral port; the bound address is printed), serve the campaign's
//!   scenario indices as a dynamic work queue to any workers that join, and
//!   merge streamed results into one report. Unlike `--shards`, workers may
//!   join late, die mid-lease (their work is reassigned) and deliver
//!   duplicates (deduplicated by digest). `--spawn-workers N` launches N
//!   local `--join` subprocesses; `--chaos-kill-at F` SIGKILLs the first
//!   spawned worker once the fraction F of scenarios has completed (a
//!   self-test of fault tolerance); `--checkpoint FILE` appends each
//!   accepted result to a JSONL file and replays it on restart so finished
//!   scenarios are never re-run; `--lease-timeout-ms` tunes failure
//!   detection. `--verify-serial` and `--report` behave as for `--shards`.
//! * `--join ADDR` — fabric worker: connect to a coordinator, receive the
//!   campaign manifest over the wire (no local campaign arguments needed),
//!   lease scenario batches and stream results until told to stop.
//!   `--hang-after N` / `--quit-after N` inject worker failures for chaos
//!   tests.
//! * `--dump-fabric-manifest` — print the committed fabric smoke campaign
//!   (`manifests/fabric_smoke.json`).

use hpcc_core::fabric;
use hpcc_core::presets::{
    corpus_sweep, fabric_smoke_campaign, fig11_campaign, validation_grid, CORPUS_FILES,
};
use hpcc_core::{wire, BackendSpec, Campaign, CcSpec, ScenarioSpec, ShardPlan, ValidationReport};
use hpcc_topology::FatTreeParams;
use hpcc_types::Bandwidth;
use hpcc_types::Duration;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exit with a usage/runtime error on stderr (workers keep stdout pure
/// JSONL, so nothing diagnostic may ever go there).
fn die(msg: impl AsRef<str>) -> ! {
    eprintln!("campaign: {}", msg.as_ref());
    std::process::exit(2);
}

/// Parsed command line. Positional arguments keep the program name at
/// index 0 so `hpcc_bench::arg_or` indexing stays 1-based.
#[derive(Default)]
struct Cli {
    manifest: Option<String>,
    shards: Option<usize>,
    worker_shard: Option<ShardPlan>,
    report: Option<String>,
    merge: Vec<String>,
    expect: Option<usize>,
    verify_serial: bool,
    dump_manifest: bool,
    dump_fluid_manifest: bool,
    cross_validate: bool,
    tolerance: f64,
    serve: Option<String>,
    join: Option<String>,
    spawn_workers: usize,
    chaos_kill_at: Option<f64>,
    checkpoint: Option<String>,
    worker_name: Option<String>,
    lease_timeout_ms: Option<u64>,
    heartbeat_ms: Option<u64>,
    hang_after: Option<usize>,
    quit_after: Option<usize>,
    dump_fabric_manifest: bool,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Cli {
        let mut cli = Cli {
            positional: vec![args[0].clone()],
            tolerance: 0.75,
            ..Cli::default()
        };
        let value = |i: usize, flag: &str| -> String {
            // A following flag is not a value: `--report --verify-serial`
            // must error, not write a file named "--verify-serial".
            match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => next.clone(),
                _ => die(format!("{flag} needs a value")),
            }
        };
        let mut merging = false;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--manifest" => {
                    cli.manifest = Some(value(i, "--manifest"));
                    i += 2;
                }
                "--shards" => {
                    let n = value(i, "--shards");
                    cli.shards = Some(
                        n.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die(format!("bad shard count {n:?}"))),
                    );
                    i += 2;
                }
                "--worker-shard" => {
                    let spec = value(i, "--worker-shard");
                    cli.worker_shard = Some(ShardPlan::parse(&spec).unwrap_or_else(|e| die(e)));
                    i += 2;
                }
                "--report" => {
                    cli.report = Some(value(i, "--report"));
                    i += 2;
                }
                "--verify-serial" => {
                    cli.verify_serial = true;
                    i += 1;
                }
                "--dump-manifest" => {
                    cli.dump_manifest = true;
                    i += 1;
                }
                "--merge" => {
                    merging = true;
                    i += 1;
                }
                "--cross-validate" => {
                    cli.cross_validate = true;
                    i += 1;
                }
                "--dump-fluid-manifest" => {
                    cli.dump_fluid_manifest = true;
                    i += 1;
                }
                "--tolerance" => {
                    let f = value(i, "--tolerance");
                    cli.tolerance = f
                        .parse()
                        .ok()
                        .filter(|x: &f64| x.is_finite() && *x > 0.0)
                        .unwrap_or_else(|| die(format!("bad tolerance {f:?}")));
                    i += 2;
                }
                "--expect" => {
                    let n = value(i, "--expect");
                    cli.expect = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad scenario count {n:?}"))),
                    );
                    i += 2;
                }
                "--serve" => {
                    cli.serve = Some(value(i, "--serve"));
                    i += 2;
                }
                "--join" => {
                    cli.join = Some(value(i, "--join"));
                    i += 2;
                }
                "--spawn-workers" => {
                    let n = value(i, "--spawn-workers");
                    cli.spawn_workers = n
                        .parse()
                        .unwrap_or_else(|_| die(format!("bad worker count {n:?}")));
                    i += 2;
                }
                "--chaos-kill-at" => {
                    let f = value(i, "--chaos-kill-at");
                    cli.chaos_kill_at = Some(
                        f.parse()
                            .ok()
                            .filter(|x: &f64| x.is_finite() && (0.0..=1.0).contains(x))
                            .unwrap_or_else(|| die(format!("bad kill fraction {f:?}"))),
                    );
                    i += 2;
                }
                "--checkpoint" => {
                    cli.checkpoint = Some(value(i, "--checkpoint"));
                    i += 2;
                }
                "--name" => {
                    cli.worker_name = Some(value(i, "--name"));
                    i += 2;
                }
                "--lease-timeout-ms" => {
                    let n = value(i, "--lease-timeout-ms");
                    cli.lease_timeout_ms = Some(
                        n.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die(format!("bad lease timeout {n:?}"))),
                    );
                    i += 2;
                }
                "--heartbeat-ms" => {
                    let n = value(i, "--heartbeat-ms");
                    cli.heartbeat_ms = Some(
                        n.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die(format!("bad heartbeat period {n:?}"))),
                    );
                    i += 2;
                }
                "--hang-after" => {
                    let n = value(i, "--hang-after");
                    cli.hang_after = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad hang count {n:?}"))),
                    );
                    i += 2;
                }
                "--quit-after" => {
                    let n = value(i, "--quit-after");
                    cli.quit_after = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad quit count {n:?}"))),
                    );
                    i += 2;
                }
                "--dump-fabric-manifest" => {
                    cli.dump_fabric_manifest = true;
                    i += 1;
                }
                flag if flag.starts_with("--") => die(format!("unknown flag {flag}")),
                other => {
                    if merging {
                        cli.merge.push(other.to_string());
                    } else {
                        cli.positional.push(other.to_string());
                    }
                    i += 1;
                }
            }
        }
        cli
    }

    /// The campaign this invocation describes (manifest file or the
    /// built-in Figure 11 scheme set at `[duration_ms] [load]`).
    fn build_campaign(&self) -> Campaign {
        if let Some(path) = &self.manifest {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
            Campaign::from_json_str(&text)
                .unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
        } else {
            let ms = hpcc_bench::arg_or(&self.positional, 1, 10u64);
            let load = hpcc_bench::arg_or(&self.positional, 2, 0.3f64);
            fig11_campaign(
                FatTreeParams::small(),
                load,
                Duration::from_ms(ms),
                true,
                42,
            )
        }
    }

    /// The campaign-selection arguments a worker subprocess needs to build
    /// the identical campaign.
    fn campaign_args(&self) -> Vec<String> {
        match &self.manifest {
            Some(path) => vec!["--manifest".to_string(), path.clone()],
            None => self.positional[1..].to_vec(),
        }
    }

    /// The scenario grid for `--cross-validate`: a `--manifest` when given,
    /// otherwise the built-in validation grid at `[duration_ms]` (seed 42;
    /// the 2 ms default keeps the gate fast).
    fn grid_specs(&self) -> Vec<ScenarioSpec> {
        if self.manifest.is_some() {
            self.build_campaign().specs().to_vec()
        } else {
            let ms = hpcc_bench::arg_or(&self.positional, 1, 2u64);
            validation_grid(Duration::from_ms(ms), 42)
        }
    }
}

/// Cross-validation mode: run the grid on both backends, print the
/// divergence table, optionally write the canonical report, and gate on the
/// worst divergence (exit 3 — distinct from usage errors — when exceeded).
fn run_cross_validate(specs: &[ScenarioSpec], tolerance: f64, report_path: Option<&str>) {
    let report = ValidationReport::run(specs).unwrap_or_else(|e| die(format!("{e}")));
    println!(
        "== cross-validation: packet vs fluid, {} scenarios ==\n{}",
        report.rows.len(),
        report.table()
    );
    println!("canonical report digest: {:016x}", report.digest());
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
    let slow = report.max_slowdown_divergence();
    let util = report.max_utilization_divergence();
    if slow > tolerance || util > tolerance {
        eprintln!(
            "campaign: cross-validation divergence above tolerance {tolerance}: \
             slowdown {slow:.3} (relative), utilization {util:.4} (absolute)"
        );
        std::process::exit(3);
    }
    println!("cross-validation: OK (tolerance {tolerance})");
}

/// Worker mode: run one round-robin shard, streaming JSONL on stdout.
fn run_worker(campaign: &Campaign, plan: ShardPlan) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let started = Instant::now();
    let executed = campaign
        .run_shard_streaming(plan, &mut out)
        .unwrap_or_else(|e| die(format!("shard {}/{}: {e}", plan.shard(), plan.of())));
    eprintln!(
        "worker shard {}/{}: {executed} of {} scenarios in {:.2} s",
        plan.shard(),
        plan.of(),
        campaign.len(),
        started.elapsed().as_secs_f64()
    );
}

/// Coordinator mode: spawn one worker subprocess per shard, merge their
/// JSONL streams, optionally verify against an in-process serial run and
/// write the canonical report JSON.
fn run_coordinator(
    campaign: &Campaign,
    shards: usize,
    worker_args: &[String],
    verify_serial: bool,
    report_path: Option<&str>,
) {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(format!("cannot locate own executable: {e}")));
    let started = Instant::now();
    let mut workers = Vec::new();
    for shard in 0..shards {
        let mut child = Command::new(&exe)
            .arg("--worker-shard")
            .arg(format!("{shard}/{shards}"))
            .args(worker_args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(format!("cannot spawn worker {shard}: {e}")));
        // Drain the worker's stdout on its own thread: a pipe left full
        // would deadlock the worker against our wait().
        let mut pipe = child.stdout.take().expect("stdout was piped");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            pipe.read_to_string(&mut text).map(|_| text)
        });
        workers.push((shard, child, reader));
    }
    let mut streams = Vec::new();
    for (shard, mut child, reader) in workers {
        let status = child
            .wait()
            .unwrap_or_else(|e| die(format!("waiting for worker {shard}: {e}")));
        let text = reader
            .join()
            .expect("stdout reader thread panicked")
            .unwrap_or_else(|e| die(format!("reading worker {shard} stdout: {e}")));
        if !status.success() {
            die(format!("worker {shard} exited with {status}"));
        }
        streams.push(text);
    }
    let mut merged =
        wire::merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
            .unwrap_or_else(|e| die(format!("merging shard streams: {e}")));
    merged.wall = started.elapsed();
    println!(
        "== merged from {} worker process(es) ==\n{}",
        shards,
        merged.table()
    );
    verify_and_write(&merged, campaign, verify_serial, report_path);
}

/// The shared tail of every coordinator mode (`--shards`, `--serve`):
/// optionally prove the merged report bit-identical to an in-process
/// `run_serial()` (digests and canonical JSON), then optionally write the
/// canonical report JSON.
fn verify_and_write(
    merged: &hpcc_core::CampaignReport,
    campaign: &Campaign,
    verify_serial: bool,
    report_path: Option<&str>,
) {
    if verify_serial {
        let serial = campaign.run_serial();
        let digests_match = merged.digests() == serial.digests();
        let json_match = merged.to_json_string() == serial.to_json_string();
        if !digests_match || !json_match {
            die(format!(
                "merged multi-process report differs from the serial reference \
                 (digests match: {digests_match}, canonical JSON matches: {json_match})"
            ));
        }
        println!(
            "verified: merged report is bit-identical to run_serial() \
             ({} scenarios: digests and canonical JSON)",
            serial.results.len()
        );
    }
    if let Some(path) = report_path {
        std::fs::write(path, merged.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

/// How long the fabric coordinator tolerates zero progress before giving
/// up (exit 4). Insurance against a wedged CI job: were every worker to
/// die with none rejoining, `serve` would otherwise block forever.
const FABRIC_STALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// Fabric coordinator mode: serve the campaign's scenario indices over TCP
/// to elastic workers, optionally spawning local worker subprocesses (and
/// chaos-killing the first one mid-run), then verify/write the merged
/// report exactly like `--shards`.
fn run_serve(campaign: &Campaign, addr: &str, cli: &Cli) {
    let started = Instant::now();
    let coordinator =
        fabric::Coordinator::bind(addr).unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
    let local = coordinator
        .local_addr()
        .unwrap_or_else(|e| die(format!("bound address: {e}")));
    let progress = Arc::new(AtomicUsize::new(0));
    let mut cfg = fabric::FabricConfig {
        checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
        progress: Some(Arc::clone(&progress)),
        ..fabric::FabricConfig::default()
    };
    if let Some(ms) = cli.lease_timeout_ms {
        cfg.lease_timeout = std::time::Duration::from_millis(ms);
    }
    println!(
        "fabric coordinator on {local}: {} scenarios, lease timeout {} ms",
        campaign.len(),
        cfg.lease_timeout.as_millis()
    );
    // Spawn local workers after bind: their connections queue in the listen
    // backlog until serve() starts accepting. Worker stdout is discarded —
    // results travel over the TCP connection; diagnostics go to stderr.
    let children = Arc::new(Mutex::new(Vec::new()));
    if cli.spawn_workers > 0 {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| die(format!("cannot locate own executable: {e}")));
        for w in 0..cli.spawn_workers {
            let mut cmd = Command::new(&exe);
            cmd.args(["--join", &local.to_string(), "--name", &format!("w{w}")]);
            if let Some(ms) = cli.heartbeat_ms {
                cmd.args(["--heartbeat-ms", &ms.to_string()]);
            }
            let child = cmd
                .stdout(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| die(format!("cannot spawn worker {w}: {e}")));
            children.lock().unwrap().push(child);
        }
    }
    // Chaos monitor: SIGKILL the first spawned worker once the requested
    // fraction of scenarios has results. The fabric must finish correctly
    // anyway — the kill is the point.
    if let (Some(frac), true) = (
        cli.chaos_kill_at,
        cli.spawn_workers > 0 && !campaign.is_empty(),
    ) {
        let threshold = ((frac * campaign.len() as f64).ceil() as usize).clamp(1, campaign.len());
        let progress = Arc::clone(&progress);
        let children = Arc::clone(&children);
        std::thread::spawn(move || loop {
            if progress.load(Ordering::SeqCst) >= threshold {
                if let Some(victim) = children.lock().unwrap().first_mut() {
                    eprintln!("campaign: chaos: SIGKILL worker 0 at {threshold} results");
                    let _ = victim.kill();
                }
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
    }
    // Stall watchdog: if the result count stops moving for FABRIC_STALL_TIMEOUT
    // while incomplete, exit 4 rather than hang a CI job forever.
    {
        let progress = Arc::clone(&progress);
        let len = campaign.len();
        std::thread::spawn(move || {
            let mut last = progress.load(Ordering::SeqCst);
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let now = progress.load(Ordering::SeqCst);
                if now >= len {
                    return;
                }
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > FABRIC_STALL_TIMEOUT {
                    eprintln!(
                        "campaign: fabric stalled at {now}/{len} results for {} s; giving up",
                        FABRIC_STALL_TIMEOUT.as_secs()
                    );
                    std::process::exit(4);
                }
            }
        });
    }
    let fab = coordinator
        .serve(campaign, &cfg)
        .unwrap_or_else(|e| die(format!("fabric serve failed: {e}")));
    // Reap the spawned workers. A chaos-killed (or otherwise dead) worker
    // is expected and must not fail the run — the merged report already
    // proved the fabric rode out the loss.
    for (w, child) in children.lock().unwrap().iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("campaign: worker {w} exited with {status} (tolerated)"),
            Err(e) => eprintln!("campaign: waiting for worker {w}: {e}"),
        }
    }
    let mut merged = fab.report;
    merged.wall = started.elapsed();
    println!(
        "== fabric: {} scenarios via {} worker(s) ==\n{}",
        merged.results.len(),
        fab.workers_seen,
        merged.table()
    );
    println!(
        "fabric stats: executed {} (resumed {} from checkpoint), deduped {}, \
         reassigned {} lease(s)",
        fab.executed, fab.resumed, fab.deduped, fab.reassigned
    );
    verify_and_write(&merged, campaign, cli.verify_serial, cli.report.as_deref());
}

/// Fabric worker mode: join a coordinator, receive the campaign over the
/// wire and execute leased scenarios until dismissed. All diagnostics go
/// to stderr (symmetry with `--worker-shard`; results travel over the TCP
/// connection, not stdout).
fn run_join(addr: &str, cli: &Cli) {
    let mut cfg = fabric::WorkerConfig::default();
    if let Some(name) = &cli.worker_name {
        cfg.name = name.clone();
    }
    if let Some(ms) = cli.heartbeat_ms {
        cfg.heartbeat = std::time::Duration::from_millis(ms);
    }
    cfg.hang_after = cli.hang_after;
    cfg.quit_after = cli.quit_after;
    let started = Instant::now();
    let summary =
        fabric::join(addr, &cfg).unwrap_or_else(|e| die(format!("worker {}: {e}", cfg.name)));
    eprintln!(
        "fabric worker {}: executed {} of {} scenarios in {:.2} s",
        cfg.name,
        summary.executed,
        summary.campaign_len,
        started.elapsed().as_secs_f64()
    );
}

/// Merge mode: fold JSONL files produced by workers (possibly on other
/// hosts) into one report. `expected_len` (from `--expect N`, or the
/// manifest's scenario count when `--manifest` is given) guards against a
/// truncated or lost shard file: without it, contiguous-from-0 validation
/// cannot notice missing *trailing* scenarios, so the merge warns.
fn run_merge(files: &[String], expected_len: Option<usize>, report_path: Option<&str>) {
    let texts: Vec<String> = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(format!("cannot read {p}: {e}")))
        })
        .collect();
    let report = wire::merge_shard_streams(texts.iter().map(String::as_str), expected_len)
        .unwrap_or_else(|e| die(format!("merge failed: {e}")));
    println!(
        "merged {} results from {} file(s)\n{}",
        report.results.len(),
        files.len(),
        report.table()
    );
    if expected_len.is_none() {
        eprintln!(
            "campaign: warning: no --expect N (or --manifest) given; a shard \
             file that lost only trailing scenarios cannot be detected"
        );
    }
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cli = Cli::parse(&args);
    if cli.dump_fluid_manifest {
        // The fluid smoke campaign committed as manifests/fluid_smoke.json:
        // the validation grid on the fluid backend, plus the corpus sweep on
        // both backends (one manifest sweeping the "backend" key end to
        // end). Corpus paths are repo-relative — run it from the repo root.
        let mut specs: Vec<ScenarioSpec> = validation_grid(Duration::from_ms(2), 42)
            .into_iter()
            .map(|s| s.with_backend(BackendSpec::Fluid))
            .collect();
        let corpus = corpus_sweep(
            &CORPUS_FILES,
            CcSpec::by_label("HPCC"),
            Bandwidth::from_gbps(25),
            0.3,
            Duration::from_us(500),
            42,
        );
        for spec in corpus.specs() {
            specs.push(spec.clone());
            let mut fluid = spec.clone().with_backend(BackendSpec::Fluid);
            fluid.name = format!("{} (fluid)", spec.name);
            specs.push(fluid);
        }
        println!("{}", Campaign::from_scenarios(specs).to_json_string());
        return;
    }
    if cli.dump_fabric_manifest {
        println!("{}", fabric_smoke_campaign().to_json_string());
        return;
    }
    if let Some(addr) = &cli.join {
        // Workers need no campaign arguments: the manifest arrives over
        // the wire from the coordinator.
        run_join(addr, &cli);
        return;
    }
    if cli.cross_validate {
        run_cross_validate(&cli.grid_specs(), cli.tolerance, cli.report.as_deref());
        return;
    }
    if !cli.merge.is_empty() {
        // Validate completeness against --expect N, or against the
        // manifest's scenario count when one is given.
        let expected = cli
            .expect
            .or_else(|| cli.manifest.as_ref().map(|_| cli.build_campaign().len()));
        run_merge(&cli.merge, expected, cli.report.as_deref());
        return;
    }
    let campaign = cli.build_campaign();
    if cli.dump_manifest {
        println!("{}", campaign.to_json_string());
        return;
    }
    if let Some(addr) = &cli.serve {
        run_serve(&campaign, addr, &cli);
        return;
    }
    if let Some(plan) = cli.worker_shard {
        run_worker(&campaign, plan);
        return;
    }
    if let Some(shards) = cli.shards {
        run_coordinator(
            &campaign,
            shards,
            &cli.campaign_args(),
            cli.verify_serial,
            cli.report.as_deref(),
        );
        return;
    }

    println!(
        "campaign: {} scenarios ({} available cores)",
        campaign.len(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let serial = campaign.run_serial();
    println!("\n== serial ==\n{}", serial.table());

    // One OS thread per scenario (not capped at the core count): on a
    // multi-core host this is the full fan-out; on a loaded or small host
    // the digests still prove determinism.
    let parallel = campaign.run_with_threads(campaign.len());
    println!("== parallel ==\n{}", parallel.table());

    assert_eq!(
        serial.digests(),
        parallel.digests(),
        "parallel execution must be bit-identical to serial"
    );
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    println!(
        "digests identical across {} scenarios; speedup {:.2}x ({:.2} s serial -> {:.2} s on {} threads)",
        serial.results.len(),
        speedup,
        serial.wall.as_secs_f64(),
        parallel.wall.as_secs_f64(),
        parallel.threads
    );
    if parallel.threads > 1 && speedup <= 1.0 {
        println!("warning: no speedup observed (heavily loaded or single-core host?)");
    }
}
