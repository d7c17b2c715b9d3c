//! The repo's benchmark: manifest on disk → merged, digest-verified report,
//! end to end and layer by layer. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.

mod compare;
mod measure;
mod pass;
mod run;
mod span;
mod traced;
mod workloads;

use hpcc_core::json::JsonValue;
use run::{result_file_name, run_workload, write_result_file, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  hpcc-benchmark run --workload <packet_fattree|packet_stress|sweep_small|fabric_lease|all>
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
  hpcc-benchmark compare <a.json[,a2.json,...]> <b.json[,b2.json,...]>
Run it from the repository root.";

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The path from the working directory to the repository root: the
/// benchmark is run from the root, its tests from the package directory.
fn repo_root() -> Result<&'static str, String> {
    ["", "../"]
        .into_iter()
        .find(|root| Path::new(&format!("{root}corpus")).is_dir())
        .ok_or_else(|| {
            "no corpus/ directory here or one level up: run from the repository root".into()
        })
}

/// `YYYYMMDDTHHMMSSZ` of now (civil date from days since 1970, after
/// Howard Hinnant's `civil_from_days`).
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days + 719_468;
    let (era, doe) = (z / 146_097, z % 146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + u64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut out) = (None, None, None);
    let (mut seconds, mut trace, mut quick) = (DEFAULT_SECONDS, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Err(format!("--workload and --seed are required\n{USAGE}"));
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        quick,
        out,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let root = repo_root()?;
    let dir = args.out.clone().unwrap_or_else(|| {
        Path::new(root)
            .join("benchmark/results")
            .join(utc_timestamp())
    });
    if args.workload == "all" {
        return run_all(&args, &dir);
    }
    let workload = Workload::from_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let result = run_workload(&RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
        dir,
        root: root.to_string(),
    })?;
    println!(
        "{} seed {}: one process, one client, closed loop{}; {} of {} scenario executions failed",
        workload.name(),
        args.seed,
        if workload == Workload::FabricLease {
            ", coordinator and worker over loopback TCP"
        } else {
            ""
        },
        result.failed,
        result.attempted
    );
    for m in &result.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("result file: {}", result.file.display());
    println!("{}", result.driver_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in a process of its own (so `peak_rss_mb` is that
/// workload's), into one directory, and then one result file over all.
fn run_all(args: &RunArgs, dir: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_ok = true;
    let mut host = JsonValue::Null;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(dir);
        if args.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        all_ok &= status.success();
        let file = dir.join(result_file_name(workload.name(), args.trace));
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if let (Some(h), Some(JsonValue::Array(w))) = (doc.get("host"), doc.get("workloads")) {
            host = h.clone();
            workloads.extend(w.iter().cloned());
        }
    }
    let file = dir.join(result_file_name("all", args.trace));
    write_result_file(&file, host, workloads)?;
    println!("result file over all workloads: {}", file.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [a, b])) if cmd == "compare" => repo_root().and_then(|root| {
            let (table, any_worse) = compare::compare(a, b, &format!("{root}BENCHMARK.json"))?;
            print!("{table}");
            Ok(if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("hpcc-benchmark: {message}");
        ExitCode::from(2)
    })
}
