//! `hpcc run|serve|join|shard|merge|dump`: the campaign runner.
//! (Performance is measured in `benchmark/`, not here.)
//!
//! The campaign is `--manifest F` (a JSON array of ScenarioSpec objects, see
//! `hpcc_core::scenario`) or, without it, the built-in Figure 11 scheme set
//! (six scenarios on the scaled-down Clos fabric) at `[duration_ms] [load]`
//! (default `10 0.3`).
//!
//! * `run` — execute in-process on a thread pool and print the table.
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
//!   into one report. Give it `--expect N` or `--manifest` (whose length is
//!   used, and whose names and schemes the rows must carry) so a file
//!   truncated at its tail, or written for another manifest, cannot pass.
//! * `dump` — print the Figure 11 set or a committed `manifests/*_smoke.json`.
//!
//! `--verify-serial` also runs the campaign serially and exits 2 unless
//! digests and canonical report JSON are bit-identical; `--report` writes the
//! canonical report JSON. `run`, `serve` and `shard` build every scenario
//! before dispatching anything: an unbuildable one exits 2 naming its index.

use crate::{operand, usage};
use hpcc_bench::cli::Args;
use hpcc_bench::{arg_or, die, load_manifest, print};
use hpcc_core::fabric::{self, FabricError::Abandoned};
use hpcc_core::presets::{fabric_smoke_campaign, fig11_campaign};
use hpcc_core::{timing, wire, Campaign, CampaignReport, ShardPlan};
use hpcc_topology::FatTreeParams;
use hpcc_types::Duration;
use std::process::{Child, Command, ExitStatus, Stdio};

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
        print(format_args!("wrote {path}\n"));
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
        print(format_args!(
            "verified: report is bit-identical to run_serial() ({} scenarios: digests and \
             canonical JSON); {:.2} s serial, {:.2} s here\n",
            serial.results.len(),
            serial.wall.as_secs_f64(),
            report.wall.as_secs_f64()
        ));
    }
    write_report(args, json);
}

/// `run`: the in-process thread pool.
pub(crate) fn run_in_process(args: &Args) {
    let campaign = load_runnable_campaign(args, 0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print(format_args!(
        "campaign: {} scenarios ({cores} available cores)\n",
        campaign.len()
    ));
    // One OS thread per core, so memory does not grow with the manifest,
    // but at least two (`run_with_threads` caps them at the scenario
    // count): on a one-core host `--verify-serial` still proves threaded
    // execution deterministic.
    let report = campaign.run_with_threads(cores.max(2));
    print(format_args!("{}\n", report.table()));
    verify_and_write(&report, &campaign, args);
}

/// `shard i/N`: run one round-robin shard, streaming JSONL on stdout.
pub(crate) fn run_shard(args: &Args) {
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

/// `merge FILE...`: fold `shard` JSONL files into one report. Without an
/// expected length a lost trailing scenario is undetectable, so it warns.
pub(crate) fn run_merge(args: &Args) {
    let files = args.positional();
    if files.is_empty() {
        usage("merge needs at least one FILE");
    }
    let manifest = args.value("--manifest").map(load_manifest);
    let expected_len = args
        .parsed("--expect", |_: &usize| true)
        .or(manifest.as_ref().map(Campaign::len));
    let texts: Vec<String> = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(format!("cannot read {p}: {e}")))
        })
        .collect();
    let merged = foreign_row(manifest.as_ref(), &texts)
        .and_then(|()| wire::merge_shard_streams(texts.iter().map(String::as_str), expected_len));
    let report = merged.unwrap_or_else(|e| die(format!("merge failed: {e}")));
    print(format_args!(
        "merged {} results from {} file(s)\n{}\n",
        report.results.len(),
        files.len(),
        report.table()
    ));
    if expected_len.is_none() {
        eprintln!(
            "hpcc: warning: no --expect N (or --manifest) given; a shard \
             file that lost only trailing scenarios cannot be detected"
        );
    }
    write_report(args, report.to_json_string());
}

/// With a manifest, refuse the lowest-indexed row of `streams` that belongs
/// to another manifest, before a completeness check could blame the
/// mismatch on missing rows.
fn foreign_row(manifest: Option<&Campaign>, streams: &[String]) -> Result<(), wire::WireError> {
    let Some(manifest) = manifest else {
        return Ok(());
    };
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
    let campaign = load_runnable_campaign(args, 1);
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
    verify_and_write(&merged, &campaign, args);
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

/// `dump fig11|fabric`: print a built-in campaign as a manifest.
pub(crate) fn run_dump(args: &Args) {
    let kind = operand(args, "fig11|fabric");
    if kind != "fig11" && args.positional().len() > 1 {
        usage(format!("dump {kind} takes no [duration_ms] [load]"));
    }
    let campaign = match kind {
        "fig11" => load_campaign(args, 1),
        "fabric" => fabric_smoke_campaign(),
        other => usage(format!("dump: unknown campaign {other:?}")),
    };
    print(format_args!("{}\n", campaign.to_json_string()));
}
