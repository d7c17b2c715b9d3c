//! # hpcc-bench
//!
//! The benchmark and figure-regeneration harness of the HPCC reproduction.
//!
//! * [`figures`] — one runner per table/figure of the paper's evaluation
//!   (§2.3, §3.4, §5.2–§5.4). Each runner builds the corresponding scenario
//!   from `hpcc-core` presets, runs it and renders the same rows/series the
//!   paper plots; `hpcc figures <name> [args…]` (or `hpcc figures all`)
//!   prints a runner's report.
//! * The `hpcc` binary is the one program: it runs campaigns (JSON
//!   manifests, the one way to name one) in-process, over the elastic TCP fabric (`serve` /
//!   `join`) or as offline `shard` + `merge` JSONL files, prints the
//!   figures, exports workloads to flow-trace files and freezes manifests
//!   into trace-replay artifacts (`trace`, see `hpcc_workload::trace`) and
//!   inspects corpus topologies (`topo`). Every subcommand parses its
//!   command line with [`cli::Args`].
//! * Performance is measured by the stand-alone package in `benchmark/`,
//!   not here.
//!
//! Scale: by default every runner uses a laptop-sized configuration (small
//! fabric, tens of milliseconds). Pass larger durations / the paper fabric
//! via each runner's arguments (`figures` exposes them as positionals)
//! to approach the paper's scale.

pub mod cli;
pub mod figures;

/// Print `hpcc: <msg>` on stderr and exit 2 — the usage/runtime error exit
/// of `hpcc`. (Always stderr: `hpcc shard` keeps stdout pure JSONL.)
pub fn die(msg: impl AsRef<str>) -> ! {
    eprintln!("hpcc: {}", msg.as_ref());
    std::process::exit(2);
}

/// Write `text` to stdout, the one way `hpcc` prints. A reader that has
/// closed the pipe (`hpcc merge … | head -2`) ends the printing, not
/// the command: the text is dropped, and the command still writes its files
/// and exits with its own code. Any other write error is [`die`].
pub fn print(text: impl std::fmt::Display) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match write!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            die(format!("cannot write to stdout: {e}"))
        }
        _ => {}
    }
}

/// Parse the optional argument `args[i]` into `T`: absent is `None`, present
/// but malformed is an error naming the argument.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], i: usize) -> Result<Option<T>, String> {
    match args.get(i) {
        None => Ok(None),
        Some(text) => text.parse().map(Some).map_err(|_| {
            let ty = std::any::type_name::<T>();
            format!("argument {text:?} is not a valid {ty}")
        }),
    }
}

/// Parse an optional CLI argument (`args[i]`) into `T`, falling back to a
/// default when it is absent. A present but malformed argument exits 2:
/// `hpcc run 5x` must not silently run the default duration.
pub fn arg_or<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    match parse_arg(args, i) {
        Ok(value) => value.unwrap_or(default),
        Err(e) => die(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_arguments_default_and_malformed_ones_are_errors() {
        let args: Vec<String> = vec!["prog".into(), "7".into(), "5x".into()];
        assert_eq!(arg_or(&args, 1, 3u64), 7);
        assert_eq!(arg_or(&args, 9, 1.5f64), 1.5);
        assert_eq!(parse_arg::<f64>(&args, 9), Ok(None));
        let err = parse_arg::<u64>(&args, 2).unwrap_err();
        assert!(err.contains("\"5x\""), "{err}");
    }
}
