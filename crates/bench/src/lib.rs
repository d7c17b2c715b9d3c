//! # hpcc-bench
//!
//! The benchmark and figure-regeneration harness of the HPCC reproduction.
//!
//! * [`figures`] — one runner per table/figure of the paper's evaluation
//!   (§2.3, §3.4, §5.2–§5.4). Each runner builds the corresponding scenario
//!   from `hpcc-core` presets, runs it and renders the same rows/series the
//!   paper plots. The `figures` binary (`figures <name> [args…]`,
//!   `figures all`) prints a runner's report.
//! * The `campaign` binary runs campaigns (built-in or JSON manifests)
//!   in-process, over the elastic TCP fabric (`serve` / `join`) or as offline
//!   `shard` + `merge` JSONL files; the `trace` binary exports workloads to
//!   flow-trace files, freezes manifests into trace-replay artifacts and
//!   inspects/verifies traces (see `hpcc_workload::trace`). All three parse
//!   their command lines with [`cli::Args`].
//! * Performance is measured by the stand-alone package in `benchmark/`,
//!   not here.
//!
//! Scale: by default every runner uses a laptop-sized configuration (small
//! fabric, tens of milliseconds). Pass larger durations / the paper fabric
//! via each runner's arguments (`figures` exposes them as positionals)
//! to approach the paper's scale.

pub mod cli;
pub mod figures;

/// Print `<program>: <msg>` on stderr and exit 2 — the usage/runtime error
/// exit of every binary here. (Always stderr: `campaign shard` keeps stdout
/// pure JSONL.)
pub fn die(msg: impl AsRef<str>) -> ! {
    let exe = std::env::args().next().unwrap_or_default();
    let program = std::path::Path::new(&exe)
        .file_name()
        .map_or(exe.clone(), |n| n.to_string_lossy().into_owned());
    eprintln!("{program}: {}", msg.as_ref());
    std::process::exit(2);
}

/// Read and parse the campaign manifest at `path`, or [`die`].
pub fn load_manifest(path: &str) -> hpcc_core::Campaign {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    hpcc_core::Campaign::from_json_str(&text)
        .unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
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
/// `campaign run 5x` must not silently run the default duration.
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
