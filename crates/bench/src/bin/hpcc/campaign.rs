//! `hpcc run|serve|join|shard|merge|dump fig11`: the campaign runner.
//! (Performance is measured in `benchmark/`, not here.)
//!
//! Every campaign is a `--manifest F` (a JSON array of ScenarioSpec objects,
//! see `hpcc_core::scenario`); `dump fig11 [duration_ms] [load]` (default
//! `10 0.3`) writes the built-in Figure 11 scheme set (six scenarios on the
//! scaled-down Clos fabric) as one.
//!
//! * `run` — execute in-process on one thread per core and print the table.
//! * `serve ADDR` — the only way to fan a campaign out over processes: bind
//!   ADDR (port 0 = ephemeral; the bound address is printed) and lease the
//!   scenario indices to whatever workers `join` (`hpcc_core::fabric`,
//!   `docs/WIRE.md`); a worker's lease is reassigned if it dies, duplicates
//!   are dropped by digest. `--spawn-workers N` launches N local `join`
//!   subprocesses, each on every core `serve` may use (they inherit its CPU
//!   mask: `taskset -c 0 hpcc serve …` runs every child serially).
//!   `--lease-timeout-ms` (default 10 000, above the workers' 200 ms
//!   heartbeat) retires a worker silent that long; with no worker alive that
//!   long — from the start, or since the last one was retired — `serve`
//!   exits 4, so remote workers must join within it. No spawned child
//!   outlives `serve`. `--checkpoint` appends each accepted result to a JSONL
//!   file and replays it on restart (rows of another manifest exit 2).
//! * `join ADDR` — fabric worker: the manifest arrives over the wire, each
//!   lease runs on one thread per available core, and a heartbeat goes out
//!   whenever the connection has been quiet for 200 ms.
//! * `shard i/N` + `merge` — the offline pair for hosts that cannot reach a
//!   coordinator: `shard` runs round-robin shard `i` of `N`, one JSONL line
//!   per scenario on stdout (diagnostics on stderr); `merge` folds such files
//!   into one report, and the manifest's length and its names and schemes
//!   catch a file truncated at its tail or written for another manifest.
//!
//! `--report` writes the canonical report JSON, the same bytes on every
//! route: a determinism check is a `cmp` against a one-core `run`. `run`,
//! `serve` and `shard` build every scenario before dispatching anything, and
//! `dump fig11` before it prints: an unbuildable one exits 2 naming its
//! index.

use crate::{manifest, operand, usage};
use hpcc_bench::cli::Args;
use hpcc_bench::{arg_or, die, print};
use hpcc_core::fabric::{self, FabricError::Abandoned};
use hpcc_core::presets::fig11_campaign;
use hpcc_core::{timing, wire, Campaign, ShardPlan};
use hpcc_topology::FatTreeParams;
use hpcc_types::Duration;
use std::process::{Child, Command, ExitStatus, Stdio};

/// Build every scenario of `campaign` once, so an unbuildable one is a
/// usage error here rather than a panic in a thread, a shard or every
/// worker of a fabric, or a manifest that every runner refuses.
fn buildable(campaign: Campaign) -> Campaign {
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
        print(format_args!("wrote {path}\n"));
    }
}

/// `run`: the in-process thread pool, one OS thread per core (capped at
/// the scenario count), so memory does not grow with the manifest.
pub(crate) fn run_in_process(args: &Args) {
    let campaign = buildable(manifest(args));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print(format_args!(
        "campaign: {} scenarios ({cores} available cores)\n",
        campaign.len()
    ));
    let report = campaign.run();
    print(format_args!("{}\n", report.table()));
    write_report(args, report.to_json_string());
}

/// `shard i/N`: run one round-robin shard, streaming JSONL on stdout.
pub(crate) fn run_shard(args: &Args) {
    let plan = ShardPlan::parse(operand(args, "i/N")).unwrap_or_else(|e| usage(e));
    let campaign = buildable(manifest(args));
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

/// `merge FILE...`: fold `shard` JSONL files into the `--manifest`'s report.
pub(crate) fn run_merge(args: &Args) {
    let files = args.positional();
    if files.is_empty() {
        usage("merge needs at least one FILE");
    }
    let manifest = manifest(args);
    let texts: Vec<String> = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(format!("cannot read {p}: {e}")))
        })
        .collect();
    let merged = foreign_row(&manifest, &texts).and_then(|()| {
        wire::merge_shard_streams(texts.iter().map(String::as_str), Some(manifest.len()))
    });
    let report = merged.unwrap_or_else(|e| die(format!("merge failed: {e}")));
    print(format_args!(
        "merged {} results from {} file(s)\n{}\n",
        report.results.len(),
        files.len(),
        report.table()
    ));
    write_report(args, report.to_json_string());
}

/// Refuse the lowest-indexed row of `streams` that belongs to another
/// manifest, before a completeness check could blame the mismatch on
/// missing rows.
fn foreign_row(manifest: &Campaign, streams: &[String]) -> Result<(), wire::WireError> {
    let mut rows = Vec::new();
    for (stream, text) in streams.iter().enumerate() {
        rows.append(&mut wire::decode_stream_lines(text, stream + 1)?.0);
    }
    rows.sort_by_key(|(index, _)| *index);
    rows.iter()
        .try_for_each(|(index, row)| wire::check_row(manifest, *index, row))
}

/// `serve ADDR`: the fabric coordinator and its spawned workers (see above).
pub(crate) fn run_serve(args: &Args) {
    let addr = operand(args, "ADDR");
    let spawn_workers = args
        .parsed("--spawn-workers", |_: &usize| true)
        .unwrap_or(0);
    let mut cfg = fabric::FabricConfig {
        checkpoint: args.value("--checkpoint").map(std::path::PathBuf::from),
        ..fabric::FabricConfig::default()
    };
    if let Some(ms) = args.parsed("--lease-timeout-ms", |_: &u64| true) {
        // A healthy worker is quiet for up to one heartbeat period.
        let heartbeat = fabric::WorkerConfig::default().heartbeat;
        cfg.lease_timeout = std::time::Duration::from_millis(ms);
        if cfg.lease_timeout <= heartbeat {
            usage(format!(
                "--lease-timeout-ms {ms} would retire healthy workers: it must exceed \
                 their {} ms heartbeat period",
                heartbeat.as_millis()
            ));
        }
    }
    let campaign = buildable(manifest(args));
    let started = timing::now();
    let coordinator =
        fabric::Coordinator::bind(addr).unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
    let local = coordinator
        .local_addr()
        .unwrap_or_else(|e| die(format!("bound address: {e}")));
    print(format_args!(
        "fabric coordinator on {local}: {} scenarios, lease timeout {} ms\n",
        campaign.len(),
        cfg.lease_timeout.as_millis()
    ));
    // Spawn local workers after bind: their connections queue in the listen
    // backlog until serve() starts accepting. Worker stdout is discarded —
    // results travel over the TCP connection; diagnostics go to stderr.
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(format!("cannot locate own executable: {e}")));
    let mut children = Vec::new();
    for w in 0..spawn_workers {
        let spawned = Command::new(&exe)
            .args(["join", &local.to_string(), "--name", &format!("w{w}")])
            .stdout(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => {
                eprintln!("hpcc: spawned worker w{w} (pid {})", child.id());
                children.push(child);
            }
            Err(e) => {
                reap(&mut children, true);
                die(format!("cannot spawn worker {w}: {e}"));
            }
        }
    }
    let fab = match coordinator.serve(&campaign, &cfg) {
        Ok(fab) => fab,
        Err(e) => {
            let statuses: Vec<String> = reap(&mut children, true)
                .into_iter()
                .map(|status| status.map_or_else(|e| e.to_string(), |s| s.to_string()))
                .collect();
            eprintln!("hpcc: fabric serve failed: {e} (spawned workers: {statuses:?})");
            std::process::exit(if matches!(e, Abandoned { .. }) { 4 } else { 2 });
        }
    };
    // A killed (or otherwise dead) worker must not fail the run — the
    // merged report already proved the fabric rode out the loss.
    for (w, status) in reap(&mut children, false).into_iter().enumerate() {
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("hpcc: worker {w} exited with {status} (tolerated)"),
            Err(e) => eprintln!("hpcc: waiting for worker {w}: {e}"),
        }
    }
    let mut merged = fab.report;
    merged.wall = started.elapsed();
    print(format_args!(
        "== fabric: {} scenarios via {} worker(s) ==\n{}\n\
         fabric stats: executed {} (resumed {} from checkpoint), deduped {}, \
         reassigned {} lease(s)\n",
        merged.results.len(),
        fab.workers_seen,
        merged.table(),
        fab.executed,
        fab.resumed,
        fab.deduped,
        fab.reassigned
    ));
    write_report(args, merged.to_json_string());
}

/// Reap every worker `serve` spawned, how each ended in spawn order. Every
/// exit of `serve` after a spawn passes here, so no worker outlives it.
/// After a failed spawn or serve whatever still runs can deliver nothing
/// more, so `kill` ends each one first; after a served campaign the workers
/// were dismissed and exit on their own.
fn reap(children: &mut [Child], kill: bool) -> Vec<std::io::Result<ExitStatus>> {
    let reap_one = |child: &mut Child| {
        if kill {
            let _ = child.kill();
        }
        child.wait()
    };
    children.iter_mut().map(reap_one).collect()
}

/// `join ADDR`: join a coordinator, receive the campaign over the wire and
/// execute leased scenarios until dismissed. All diagnostics go to stderr
/// (results travel over the TCP connection, not stdout).
pub(crate) fn run_join(args: &Args) {
    let addr = operand(args, "ADDR");
    let mut cfg = fabric::WorkerConfig::default();
    if let Some(name) = args.value("--name") {
        cfg.name = name.to_string();
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

/// `dump fig11 [duration_ms] [load]`: print the built-in Figure 11 scheme
/// set as a manifest, once every scenario of it builds.
pub(crate) fn run_dump(args: &Args) {
    let scale = args.positional();
    let end = Duration::from_ms(arg_or(scale, 0, 10u64));
    let campaign = fig11_campaign(FatTreeParams::small(), arg_or(scale, 1, 0.3), end, true, 42);
    print(format_args!("{}\n", buildable(campaign).to_json_string()));
}
