//! Flow-trace tooling: export synthetic workloads to trace files, freeze
//! manifests into trace-replay artifacts, inspect and verify traces.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hpcc-bench --bin trace -- export \
//!     --manifest grid.json [--index I] [--jsonl] --out flows.csv
//! cargo run --release -p hpcc-bench --bin trace -- freeze \
//!     --manifest grid.json --out frozen.json
//! cargo run --release -p hpcc-bench --bin trace -- info flows.csv
//! cargo run --release -p hpcc-bench --bin trace -- roundtrip \
//!     --manifest grid.json [--index I]
//! ```
//!
//! * `export` — build scenario `I` of the manifest (default 0) and write
//!   every generated flow as one trace line (`start_ns,src,dst,bytes[,prio]`
//!   CSV by default, JSONL with `--jsonl`). The exported file replays
//!   deterministically: it is the reproducible artifact of the run.
//! * `freeze` — rewrite a whole manifest with every generated workload
//!   (Poisson, incast) replaced by its inline trace records. The frozen
//!   manifest produces bit-identical campaign digests but no longer depends
//!   on generator code or seeds-to-flows mappings.
//! * `info` — parse a trace file and print record count, host span, byte
//!   volume and time horizon. Malformed files report the offending line.
//! * `roundtrip` — self-check: export scenario `I`'s flows to text, parse
//!   the text back, replay, and verify the per-flow tuples are identical.
//!
//! Trace format and error semantics: see `hpcc_workload::trace` and
//! `docs/ARCHITECTURE.md`.

use hpcc_bench::cli::Args;
use hpcc_bench::{die, load_manifest, print};
use hpcc_core::{Campaign, ScenarioSpec};
use hpcc_workload::Trace;

const USAGE: &str = "usage: trace export --manifest F [--index I] [--jsonl] [--out FILE]
       trace freeze --manifest F [--out FILE]
       trace info FILE
       trace roundtrip --manifest F [--index I]";

fn load_campaign(args: &Args) -> Campaign {
    let path = args.value("--manifest");
    load_manifest(path.unwrap_or_else(|| die("--manifest is required")))
}

/// Scenario `--index` (default 0) of the manifest, with its index.
fn pick_scenario(args: &Args) -> (usize, ScenarioSpec) {
    let index = args.parsed("--index", |_: &usize| true).unwrap_or(0);
    let campaign = load_campaign(args);
    let spec = campaign.scenarios().get(index).unwrap_or_else(|| {
        die(format!(
            "scenario index {index} out of range ({} scenarios)",
            campaign.len()
        ))
    });
    (index, spec.clone())
}

fn scenario_trace(spec: &ScenarioSpec) -> Trace {
    let exp = spec
        .try_build()
        .unwrap_or_else(|e| die(format!("building {:?}: {e}", spec.name)));
    Trace::from_flows(exp.flows(), exp.topology().hosts())
        .unwrap_or_else(|e| die(format!("exporting {:?}: {e}", spec.name)))
}

fn run_export(args: &Args) {
    let (index, spec) = pick_scenario(args);
    let trace = scenario_trace(&spec);
    let text = if args.has("--jsonl") {
        trace.to_jsonl()
    } else {
        trace.to_csv()
    };
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
            eprintln!(
                "exported {} flows of scenario {index} ({:?}) to {path}",
                trace.records.len(),
                spec.name
            );
        }
        None => print(text),
    }
}

fn run_freeze(args: &Args) {
    let campaign = load_campaign(args);
    let frozen: Vec<ScenarioSpec> = campaign
        .scenarios()
        .iter()
        .map(|s| {
            s.freeze()
                .unwrap_or_else(|e| die(format!("freezing {:?}: {e}", s.name)))
        })
        .collect();
    let manifest = Campaign::from_scenarios(frozen).to_json_string();
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, manifest + "\n")
                .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
            eprintln!(
                "froze {} scenario(s) into trace-replay form: {path}",
                campaign.len()
            );
        }
        None => print(manifest + "\n"),
    }
}

/// Human label of a priority wire code (see `FlowPriority::wire_code`).
fn prio_label(code: u8) -> String {
    match hpcc_types::FlowPriority::from_wire_code(code) {
        hpcc_types::FlowPriority::Normal => "normal".to_string(),
        hpcc_types::FlowPriority::LatencySensitive => "latency-sensitive".to_string(),
        hpcc_types::FlowPriority::Class(c) => format!("class {c}"),
    }
}

fn run_info(args: &Args) {
    let path = args
        .positional()
        .first()
        .unwrap_or_else(|| die("info needs a trace file argument"));
    let trace = Trace::from_file(path).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let max_host = trace
        .records
        .iter()
        .map(|r| r.src.max(r.dst))
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    print(format_args!(
        "{path}: {} records, {} hosts referenced, {} total bytes, horizon {}\n",
        trace.records.len(),
        max_host,
        trace.total_bytes(),
        trace.horizon()
    ));
    // Per-priority breakdown of the parsed `prio` column: flow count and
    // byte volume per tag, ascending by wire code.
    let mut codes: Vec<u8> = trace.records.iter().map(|r| r.prio.wire_code()).collect();
    codes.sort_unstable();
    codes.dedup();
    for code in codes {
        let (mut count, mut bytes) = (0u64, 0u64);
        for r in &trace.records {
            if r.prio.wire_code() == code {
                count += 1;
                bytes += r.bytes;
            }
        }
        print(format_args!(
            "  prio {code} ({}): {count} flows, {bytes} bytes\n",
            prio_label(code)
        ));
    }
}

fn run_roundtrip(args: &Args) {
    let (index, spec) = pick_scenario(args);
    let exp = spec
        .try_build()
        .unwrap_or_else(|e| die(format!("building {:?}: {e}", spec.name)));
    let hosts = exp.topology().hosts();
    let trace = Trace::from_flows(exp.flows(), hosts)
        .unwrap_or_else(|e| die(format!("exporting {:?}: {e}", spec.name)));
    for (label, text) in [("csv", trace.to_csv()), ("jsonl", trace.to_jsonl())] {
        let back = Trace::parse(&text).unwrap_or_else(|e| die(format!("re-parsing {label}: {e}")));
        if back != trace {
            die(format!("{label} round trip changed the records"));
        }
        let replayed = back
            .replay(hosts, exp.flows().first().map_or(0, |f| f.id.raw()))
            .unwrap_or_else(|e| die(format!("replaying {label}: {e}")));
        let tuples = |flows: &[hpcc_types::FlowSpec]| {
            flows
                .iter()
                .map(|f| (f.src, f.dst, f.size, f.start, f.priority))
                .collect::<Vec<_>>()
        };
        if tuples(&replayed) != tuples(exp.flows()) {
            die(format!("{label} replay changed the per-flow tuples"));
        }
    }
    print(format_args!(
        "roundtrip ok: {} flows of scenario {index} ({:?}) survive export -> parse -> replay in both formats\n",
        exp.flows().len(),
        spec.name
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    type Run = fn(&Args);
    // Per command: options taking a value, switches, positional count.
    let (run, options, switches, positionals): (Run, &[&str], &[&str], usize) =
        match argv.first().map_or("", String::as_str) {
            "export" => (
                run_export,
                &["--manifest", "--index", "--out"],
                &["--jsonl"],
                0,
            ),
            "freeze" => (run_freeze, &["--manifest", "--out"], &[], 0),
            "info" => (run_info, &[], &[], 1),
            "roundtrip" => (run_roundtrip, &["--manifest", "--index"], &[], 0),
            other => die(format!("unknown command {other:?}\n{USAGE}")),
        };
    let args = Args::parse(&argv[1..], options, switches, positionals)
        .unwrap_or_else(|e| die(format!("{e}\n{USAGE}")));
    run(&args);
}
