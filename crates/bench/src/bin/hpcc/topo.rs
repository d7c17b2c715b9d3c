//! `hpcc topo`: inspect and convert corpus topologies.
//!
//! `info FILE` parses a corpus file (edge list or the GraphML subset — the
//! format is sniffed, see `hpcc_topology::corpus`) and prints a structural
//! summary: node/link counts, rack grouping, aggregate host bandwidth and
//! the suggested base RTT. `convert FILE [OUT]` parses the same way and
//! emits the canonical edge list — the fixed-point format whose round-trip
//! the tests pin — to stdout or to `OUT`. Link indices printed by `info`
//! are exactly the indices `FaultSpec` link faults reference.

use crate::{operand, write_or_print};
use hpcc_bench::cli::Args;
use hpcc_bench::{die, print};
use hpcc_core::experiment::MTU_WIRE_SIZE;
use hpcc_topology::corpus;

fn load(path: &str) -> corpus::CorpusTopology {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    corpus::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
}

/// `topo info FILE`.
pub(crate) fn run_info(args: &Args) {
    let path = operand(args, "FILE");
    let parsed = load(path);
    let topo = parsed.build();
    print(format_args!(
        "{path}:\n  nodes   {} ({} hosts, {} switches)\n",
        topo.node_count(),
        topo.hosts().len(),
        topo.switches().len()
    ));
    let racks = topo
        .host_rack_ids()
        .iter()
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    print(format_args!(
        "  racks   {racks}\n  links   {}\n  host bw {} total\n  \
         base rtt {} (suggested, {MTU_WIRE_SIZE} B wire MTU)\n",
        topo.links().len(),
        topo.total_host_bandwidth(),
        topo.suggested_base_rtt(MTU_WIRE_SIZE)
    ));
    for (i, &(a, b, bw, delay)) in parsed.links().iter().enumerate() {
        print(format_args!(
            "  link {i:>3}  {} -- {}  {bw}  {delay}\n",
            parsed.nodes()[a].0,
            parsed.nodes()[b].0
        ));
    }
}

/// `topo convert FILE [OUT]`.
pub(crate) fn run_convert(args: &Args) {
    let canonical = load(operand(args, "FILE")).to_edge_list();
    let out = args.positional().get(1).map(String::as_str);
    write_or_print(out, &canonical, |path| format!("wrote {path}"));
}
