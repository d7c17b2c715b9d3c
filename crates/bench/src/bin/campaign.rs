//! The campaign runner. (Performance is measured in `benchmark/`, not here.)
//!
//! ```text
//! campaign run        [--manifest F] [--verify-serial] [--report OUT] [duration_ms] [load]
//! campaign serve ADDR [--spawn-workers N] [--chaos-kill-at FRAC] [--heartbeat-ms N]
//!                     [--lease-timeout-ms N] [--checkpoint FILE.jsonl]
//!                     [--manifest F] [--verify-serial] [--report OUT] [duration_ms] [load]
//! campaign join ADDR  [--name W] [--heartbeat-ms N]
//! campaign shard i/N  [--manifest F] [duration_ms] [load]            > shard.jsonl
//! campaign merge FILE... [--expect N | --manifest F] [--report OUT]
//! campaign validate   [--manifest F] [--tolerance 0.75] [--report OUT] [duration_ms]
//! campaign dump fig11|fluid|fabric [duration_ms] [load]              > manifest.json
//! ```
//!
//! The campaign is `--manifest F` (a JSON array of ScenarioSpec objects, see
//! `hpcc_core::scenario`) or, without it, the built-in Figure 11 scheme set
//! (six scenarios on the scaled-down Clos fabric) at `[duration_ms] [load]`
//! (default `10 0.3`). Each subcommand accepts only the options listed for
//! it; anything else exits 2 with the usage text.
//!
//! * `run` — execute in-process on a thread pool and print the table.
//! * `serve ADDR` — the only way to fan a campaign out over processes: bind
//!   ADDR (port 0 = ephemeral; the bound address is printed) and lease the
//!   scenario indices to whatever workers `join` (`hpcc_core::fabric`,
//!   `docs/WIRE.md`); workers may join late or die mid-lease (their work is
//!   reassigned), duplicates are dropped by digest. `--spawn-workers N`
//!   launches N local `join` subprocesses; `--chaos-kill-at FRAC` SIGKILLs
//!   the first of them once that fraction of scenarios has results (a
//!   fault-tolerance self-test); `--checkpoint` appends each accepted result
//!   to a JSONL file and replays it on restart.
//! * `join ADDR` — fabric worker: the manifest arrives over the wire.
//! * `shard i/N` + `merge` — the offline pair for hosts that cannot reach a
//!   coordinator: `shard` runs round-robin shard `i` of `N`, one JSONL line
//!   per scenario on stdout (diagnostics on stderr); `merge` folds such files
//!   into one report. Give it `--expect N` or `--manifest` (whose scenario
//!   count is used) so a file truncated at its tail cannot pass.
//! * `validate` — run the validation grid (or a manifest) on the packet and
//!   the fluid backend, print the divergence table (`hpcc_core::validate`),
//!   exit 3 when the worst divergence exceeds `--tolerance`.
//! * `dump` — print the Figure 11 set or a committed `manifests/*_smoke.json`.
//!
//! `--verify-serial` also runs the campaign serially and exits 2 unless
//! digests and canonical report JSON are bit-identical; `--report` writes the
//! canonical report JSON. `run`, `serve` and `shard` build every scenario
//! before dispatching anything: an unbuildable one exits 2 naming its index.

use hpcc_bench::cli::Args;
use hpcc_bench::{arg_or, die, load_manifest};
use hpcc_core::fabric;
use hpcc_core::presets::{
    corpus_sweep, fabric_smoke_campaign, fig11_campaign, validation_grid, CORPUS_FILES,
};
use hpcc_core::{
    timing, wire, BackendSpec, Campaign, CampaignReport, CcSpec, ScenarioSpec, ShardPlan,
    ValidationReport,
};
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One subcommand: what it accepts and what runs it.
struct Subcommand {
    name: &'static str,
    run: fn(&Args),
    /// Its positionals, as the usage text shows them, and how many it takes.
    positional: (&'static str, usize),
    /// Its options that take a value.
    options: &'static [&'static str],
    switches: &'static [&'static str],
}

const COMMANDS: [Subcommand; 7] = [
    Subcommand {
        name: "run",
        run: run_in_process,
        positional: ("[duration_ms] [load]", 2),
        options: &["--manifest", "--report"],
        switches: &["--verify-serial"],
    },
    Subcommand {
        name: "serve",
        run: run_serve,
        positional: ("ADDR [duration_ms] [load]", 3),
        options: &[
            "--spawn-workers",
            "--chaos-kill-at",
            "--heartbeat-ms",
            "--lease-timeout-ms",
            "--checkpoint",
            "--manifest",
            "--report",
        ],
        switches: &["--verify-serial"],
    },
    Subcommand {
        name: "join",
        run: run_join,
        positional: ("ADDR", 1),
        options: &["--name", "--heartbeat-ms"],
        switches: &[],
    },
    Subcommand {
        name: "shard",
        run: run_shard,
        positional: ("i/N [duration_ms] [load]", 3),
        options: &["--manifest"],
        switches: &[],
    },
    Subcommand {
        name: "merge",
        run: run_merge,
        positional: ("FILE...", usize::MAX),
        options: &["--expect", "--manifest", "--report"],
        switches: &[],
    },
    Subcommand {
        name: "validate",
        run: run_validate,
        positional: ("[duration_ms]", 1),
        options: &["--manifest", "--tolerance", "--report"],
        switches: &[],
    },
    Subcommand {
        name: "dump",
        run: run_dump,
        positional: ("fig11|fluid|fabric [duration_ms] [load]", 3),
        options: &[],
        switches: &[],
    },
];

/// Exit 2 with `msg` and the usage text (generated from [`COMMANDS`]).
fn usage(msg: impl AsRef<str>) -> ! {
    let mut text = format!("{}\nusage:", msg.as_ref());
    for c in &COMMANDS {
        text += &format!("\n  campaign {} {}", c.name, c.positional.0);
        for switch in c.switches {
            text += &format!(" [{switch}]");
        }
        for option in c.options {
            text += &format!(" [{option} V]");
        }
    }
    die(text)
}

/// The subcommand's own leading positional (`ADDR`, `i/N`, the dump kind).
fn operand<'a>(args: &'a Args, what: &str) -> &'a str {
    match args.positional().first() {
        Some(text) => text,
        None => usage(format!("missing {what}")),
    }
}

/// The campaign this invocation describes: the `--manifest` file, or the
/// built-in Figure 11 scheme set at the `[duration_ms] [load]` positionals
/// that start at index `first`.
fn load_campaign(args: &Args, first: usize) -> Campaign {
    let scale = args.positional().get(first..).unwrap_or_default();
    let Some(path) = args.value("--manifest") else {
        let end = Duration::from_ms(arg_or(scale, 0, 10u64));
        return fig11_campaign(FatTreeParams::small(), arg_or(scale, 1, 0.3), end, true, 42);
    };
    if !scale.is_empty() {
        usage("[duration_ms] [load] scale the built-in campaign, not a --manifest");
    }
    load_manifest(path)
}

/// [`load_campaign`] for the subcommands that execute it: build every
/// scenario once first, so an unbuildable one is a usage error here rather
/// than a panic in a thread, a shard or every worker of a fabric.
fn load_runnable_campaign(args: &Args, first: usize) -> Campaign {
    let campaign = load_campaign(args, first);
    for (index, spec) in campaign.scenarios().iter().enumerate() {
        if let Err(e) = spec.try_build() {
            die(format!("scenario {index} ({:?}): {e}", spec.name));
        }
    }
    campaign
}

/// Write `json` to the `--report` file, when one was asked for.
fn write_report(args: &Args, json: String) {
    if let Some(path) = args.value("--report") {
        std::fs::write(path, json + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

/// The shared tail of `run` and `serve`: with `--verify-serial`, prove the
/// report bit-identical to an in-process `run_serial()` (digests and
/// canonical JSON); then write `--report`.
fn verify_and_write(report: &CampaignReport, campaign: &Campaign, args: &Args) {
    let json = report.to_json_string();
    if args.has("--verify-serial") {
        let serial = campaign.run_serial();
        let digests_match = report.digests() == serial.digests();
        let json_match = json == serial.to_json_string();
        if !digests_match || !json_match {
            die(format!(
                "report differs from the serial reference \
                 (digests match: {digests_match}, canonical JSON matches: {json_match})"
            ));
        }
        println!(
            "verified: report is bit-identical to run_serial() ({} scenarios: digests and \
             canonical JSON); {:.2} s serial, {:.2} s here",
            serial.results.len(),
            serial.wall.as_secs_f64(),
            report.wall.as_secs_f64()
        );
    }
    write_report(args, json);
}

/// `run`: the in-process thread pool.
fn run_in_process(args: &Args) {
    let campaign = load_runnable_campaign(args, 0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "campaign: {} scenarios ({cores} available cores)",
        campaign.len()
    );
    // One OS thread per scenario (not capped at the core count): on a
    // multi-core host this is the full fan-out; on a loaded or small host
    // `--verify-serial` still proves threaded execution deterministic.
    let report = campaign.run_with_threads(campaign.len());
    println!("{}", report.table());
    verify_and_write(&report, &campaign, args);
}

/// `validate`: run the grid (a `--manifest`, else the built-in validation
/// grid at `[duration_ms]`, seed 42; the 2 ms default keeps the gate fast)
/// on both backends, print the divergence table, write the canonical
/// report, and gate on the worst divergence (exit 3 — distinct from usage
/// errors — when exceeded).
fn run_validate(args: &Args) {
    let tolerance = args
        .parsed("--tolerance", |x: &f64| x.is_finite() && *x > 0.0)
        .unwrap_or(0.75);
    let specs: Vec<ScenarioSpec> = if args.value("--manifest").is_some() {
        load_campaign(args, 0).scenarios().to_vec()
    } else {
        validation_grid(Duration::from_ms(arg_or(args.positional(), 0, 2u64)), 42)
    };
    let report = ValidationReport::run(&specs).unwrap_or_else(|e| die(format!("{e}")));
    println!(
        "== cross-validation: packet vs fluid, {} scenarios ==\n{}",
        report.rows.len(),
        report.table()
    );
    println!("canonical report digest: {:016x}", report.digest());
    write_report(args, report.to_json_string());
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

/// `shard i/N`: run one round-robin shard, streaming JSONL on stdout.
fn run_shard(args: &Args) {
    let plan = ShardPlan::parse(operand(args, "i/N")).unwrap_or_else(|e| usage(e));
    let campaign = load_runnable_campaign(args, 1);
    let mut out = std::io::stdout().lock();
    let started = timing::now();
    let executed = campaign
        .run_shard_streaming(plan, &mut out)
        .unwrap_or_else(|e| die(format!("shard {}/{}: {e}", plan.shard(), plan.of())));
    eprintln!(
        "shard {}/{}: {executed} of {} scenarios in {:.2} s",
        plan.shard(),
        plan.of(),
        campaign.len(),
        started.elapsed().as_secs_f64()
    );
}

/// `merge FILE...`: fold JSONL files produced by `shard` (possibly on other
/// hosts) into one report. The expected length (`--expect N`, or the
/// `--manifest`'s scenario count) guards against a truncated or lost shard
/// file: without it, contiguous-from-0 validation cannot notice missing
/// *trailing* scenarios, so the merge warns.
fn run_merge(args: &Args) {
    let files = args.positional();
    if files.is_empty() {
        usage("merge needs at least one FILE");
    }
    let expected_len = args.parsed("--expect", |_: &usize| true).or_else(|| {
        args.value("--manifest")
            .map(|path| load_manifest(path).len())
    });
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
    write_report(args, report.to_json_string());
}

/// How long the fabric coordinator tolerates zero progress before giving
/// up (exit 4). Insurance against a wedged CI job: were every worker to
/// die with none rejoining, `serve` would otherwise block forever.
const FABRIC_STALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// `serve ADDR`: serve the campaign's scenario indices over TCP to elastic
/// workers, optionally spawning local `join` subprocesses (and chaos-killing
/// the first one mid-run), then verify/write the merged report.
fn run_serve(args: &Args) {
    let addr = operand(args, "ADDR");
    let spawn_workers = args
        .parsed("--spawn-workers", |_: &usize| true)
        .unwrap_or(0);
    let chaos_kill_at = args.parsed("--chaos-kill-at", |x: &f64| (0.0..=1.0).contains(x));
    let heartbeat_ms = args.parsed("--heartbeat-ms", |n: &u64| *n >= 1);
    if spawn_workers == 0 && (chaos_kill_at.is_some() || heartbeat_ms.is_some()) {
        usage("--chaos-kill-at and --heartbeat-ms act on --spawn-workers children");
    }
    let campaign = load_runnable_campaign(args, 1);
    let started = timing::now();
    let coordinator =
        fabric::Coordinator::bind(addr).unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
    let local = coordinator
        .local_addr()
        .unwrap_or_else(|e| die(format!("bound address: {e}")));
    let progress = Arc::new(AtomicUsize::new(0));
    let mut cfg = fabric::FabricConfig {
        checkpoint: args.value("--checkpoint").map(std::path::PathBuf::from),
        progress: Some(Arc::clone(&progress)),
        ..fabric::FabricConfig::default()
    };
    if let Some(ms) = args.parsed("--lease-timeout-ms", |n: &u64| *n >= 1) {
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
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(format!("cannot locate own executable: {e}")));
    for w in 0..spawn_workers {
        let mut cmd = Command::new(&exe);
        cmd.args(["join", &local.to_string(), "--name", &format!("w{w}")]);
        if let Some(ms) = heartbeat_ms {
            cmd.args(["--heartbeat-ms", &ms.to_string()]);
        }
        let child = cmd
            .stdout(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| die(format!("cannot spawn worker {w}: {e}")));
        eprintln!("campaign: spawned worker w{w} (pid {})", child.id());
        children.lock().unwrap().push(child);
    }
    // Chaos monitor: SIGKILL the first spawned worker once the requested
    // fraction of scenarios has results. The fabric must finish correctly
    // anyway — the kill is the point.
    if let (Some(frac), false) = (chaos_kill_at, campaign.is_empty()) {
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
    // Stall watchdog: exit 4 rather than hang a CI job forever when the
    // result count stops moving while incomplete — for FABRIC_STALL_TIMEOUT
    // as long as a spawned worker lives (or none was spawned: remote workers
    // may yet join), but only for one lease timeout once every spawned
    // worker has exited, when nothing here can deliver the rest.
    {
        let progress = Arc::clone(&progress);
        let children = Arc::clone(&children);
        let (len, lease_timeout) = (campaign.len(), cfg.lease_timeout);
        std::thread::spawn(move || {
            let mut last = progress.load(Ordering::SeqCst);
            let mut last_change = timing::now();
            let mut all_exited_at = None;
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let now = progress.load(Ordering::SeqCst);
                if now >= len {
                    return;
                }
                if now != last {
                    last = now;
                    last_change = timing::now();
                }
                let mut guard = children.lock().unwrap();
                let exited: Vec<Option<ExitStatus>> = guard
                    .iter_mut()
                    .map(|child| child.try_wait().ok().flatten())
                    .collect();
                drop(guard);
                let (since, limit) = if !exited.is_empty() && exited.iter().all(Option::is_some) {
                    let exited_at = *all_exited_at.get_or_insert_with(timing::now);
                    (last_change.max(exited_at), lease_timeout)
                } else {
                    (last_change, FABRIC_STALL_TIMEOUT)
                };
                if since.elapsed() > limit {
                    let statuses: Vec<String> = exited
                        .iter()
                        .map(|s| s.map_or("running".to_string(), |s| s.to_string()))
                        .collect();
                    eprintln!(
                        "campaign: fabric stalled at {now}/{len} results for {:.1} s \
                         (spawned workers: {statuses:?}); giving up",
                        limit.as_secs_f64()
                    );
                    std::process::exit(4);
                }
            }
        });
    }
    let fab = coordinator
        .serve(&campaign, &cfg)
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
    verify_and_write(&merged, &campaign, args);
}

/// `join ADDR`: join a coordinator, receive the campaign over the wire and
/// execute leased scenarios until dismissed. All diagnostics go to stderr
/// (results travel over the TCP connection, not stdout).
fn run_join(args: &Args) {
    let addr = operand(args, "ADDR");
    let mut cfg = fabric::WorkerConfig::default();
    if let Some(name) = args.value("--name") {
        cfg.name = name.to_string();
    }
    if let Some(ms) = args.parsed("--heartbeat-ms", |n: &u64| *n >= 1) {
        cfg.heartbeat = std::time::Duration::from_millis(ms);
    }
    let started = timing::now();
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

/// The fluid smoke campaign committed as `manifests/fluid_smoke.json`: the
/// validation grid on the fluid backend, plus the corpus sweep on both
/// backends (one manifest sweeping the "backend" key end to end). Corpus
/// paths are repo-relative — run it from the repo root.
fn fluid_smoke_campaign() -> Campaign {
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
    for spec in corpus.scenarios() {
        specs.push(spec.clone());
        let mut fluid = spec.clone().with_backend(BackendSpec::Fluid);
        fluid.name = format!("{} (fluid)", spec.name);
        specs.push(fluid);
    }
    Campaign::from_scenarios(specs)
}

/// `dump fig11|fluid|fabric`: print a built-in campaign as a manifest.
fn run_dump(args: &Args) {
    let kind = operand(args, "fig11|fluid|fabric");
    if kind != "fig11" && args.positional().len() > 1 {
        usage(format!("dump {kind} takes no [duration_ms] [load]"));
    }
    let campaign = match kind {
        "fig11" => load_campaign(args, 1),
        "fluid" => fluid_smoke_campaign(),
        "fabric" => fabric_smoke_campaign(),
        other => usage(format!("dump: unknown campaign {other:?}")),
    };
    println!("{}", campaign.to_json_string());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().map_or("", String::as_str);
    let Some(c) = COMMANDS.iter().find(|c| c.name == command) else {
        usage(format!("expected a subcommand, got {command:?}"));
    };
    let args =
        Args::parse(&argv[1..], c.options, c.switches, c.positional.1).unwrap_or_else(|e| usage(e));
    (c.run)(&args);
}
