//! `hpcc trace`: export synthetic workloads to flow-trace files, freeze
//! manifests into trace-replay artifacts, inspect traces.
//!
//! * `export` — build scenario `--index` of the `--manifest` (default 0)
//!   and write every generated flow as one CSV trace line
//!   (`start_ns,src,dst,bytes[,prio]`) to `--out` or stdout. The exported
//!   file replays deterministically: it is the reproducible artifact of the
//!   run.
//! * `freeze` — rewrite a whole manifest with every generated workload
//!   (Poisson, incast) replaced by its inline trace records. The frozen
//!   manifest produces bit-identical campaign digests but no longer depends
//!   on generator code or seeds-to-flows mappings.
//! * `info FILE` — parse a trace file and print record count, host span,
//!   byte volume and time horizon. Malformed files report the offending
//!   line.
//!
//! Trace format and error semantics: see `hpcc_workload::trace` and
//! `docs/ARCHITECTURE.md`.

use crate::{operand, usage, write_or_print};
use hpcc_bench::cli::Args;
use hpcc_bench::{die, load_manifest, print};
use hpcc_core::{Campaign, ScenarioSpec};
use hpcc_workload::Trace;

fn load_campaign(args: &Args) -> Campaign {
    let path = args.value("--manifest");
    load_manifest(path.unwrap_or_else(|| usage("--manifest is required")))
}

/// `trace export`.
pub(crate) fn run_export(args: &Args) {
    let index = args.parsed("--index", |_: &usize| true).unwrap_or(0);
    let campaign = load_campaign(args);
    let Some(spec) = campaign.scenarios().get(index) else {
        die(format!(
            "scenario index {index} out of range ({} scenarios)",
            campaign.len()
        ));
    };
    let exp = spec
        .try_build()
        .unwrap_or_else(|e| die(format!("building {:?}: {e}", spec.name)));
    let trace = Trace::from_flows(exp.flows(), exp.topology().hosts())
        .unwrap_or_else(|e| die(format!("exporting {:?}: {e}", spec.name)));
    write_or_print(args.value("--out"), &trace.to_csv(), |path| {
        let flows = trace.records.len();
        format!(
            "exported {flows} flows of scenario {index} ({:?}) to {path}",
            spec.name
        )
    });
}

/// `trace freeze`.
pub(crate) fn run_freeze(args: &Args) {
    let campaign = load_campaign(args);
    let frozen: Vec<ScenarioSpec> = campaign
        .scenarios()
        .iter()
        .map(|s| {
            s.freeze()
                .unwrap_or_else(|e| die(format!("freezing {:?}: {e}", s.name)))
        })
        .collect();
    let manifest = Campaign::from_scenarios(frozen).to_json_string() + "\n";
    write_or_print(args.value("--out"), &manifest, |path| {
        let n = campaign.len();
        format!("froze {n} scenario(s) into trace-replay form: {path}")
    });
}

/// Human label of a priority wire code (see `FlowPriority::wire_code`).
fn prio_label(code: u8) -> String {
    match hpcc_types::FlowPriority::from_wire_code(code) {
        hpcc_types::FlowPriority::Normal => "normal".to_string(),
        hpcc_types::FlowPriority::LatencySensitive => "latency-sensitive".to_string(),
        hpcc_types::FlowPriority::Class(c) => format!("class {c}"),
    }
}

/// `trace info FILE`.
pub(crate) fn run_info(args: &Args) {
    let path = operand(args, "FILE");
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
