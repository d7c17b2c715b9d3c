//! Topology corpus inspector/converter.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hpcc-bench --bin topo -- info <file>
//! cargo run --release -p hpcc-bench --bin topo -- convert <file> [out]
//! ```
//!
//! `info` parses a corpus file (edge list or the GraphML subset — the format
//! is sniffed, see `hpcc_topology::corpus`) and prints a structural summary:
//! node/link counts, rack grouping, aggregate host bandwidth and the
//! suggested base RTT. `convert` parses the same way and emits the canonical
//! edge list — the fixed-point format whose round-trip the tests pin — to
//! stdout or to `out`. Link indices printed by `info` are exactly the
//! indices `FaultSpec` link faults reference.

use hpcc_bench::{die, print};
use hpcc_core::experiment::MTU_WIRE_SIZE;
use hpcc_topology::corpus;

fn usage() -> ! {
    die("usage: topo info <file> | topo convert <file> [out]")
}

fn load(path: &str) -> corpus::CorpusTopology {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    corpus::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")))
}

fn info(path: &str) {
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

fn convert(path: &str, out: Option<&str>) {
    let canonical = load(path).to_edge_list();
    match out {
        Some(out_path) => {
            std::fs::write(out_path, &canonical)
                .unwrap_or_else(|e| die(format!("cannot write {out_path}: {e}")));
            eprintln!("wrote {out_path}");
        }
        None => print(canonical),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("info") => match args.get(2) {
            Some(path) if args.len() == 3 => info(path),
            _ => usage(),
        },
        Some("convert") => match args.get(2) {
            Some(path) if args.len() <= 4 => convert(path, args.get(3).map(String::as_str)),
            _ => usage(),
        },
        _ => usage(),
    }
}
