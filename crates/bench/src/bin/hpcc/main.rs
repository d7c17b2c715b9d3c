//! `hpcc`, the one command-line program of the reproduction: campaigns
//! (`run`, `serve`, `join`, `shard`, `merge`, `dump`), the
//! paper's figures (`figures <name>|all`), flow traces (`trace
//! export|freeze|info`) and corpus topologies (`topo info|convert`). Run it
//! without arguments for the usage text, generated from [`COMMANDS`] (and,
//! under `figures`, from [`figures::FIGURES`]).
//!
//! Each subcommand accepts only the options and positionals its row lists.
//! Exit codes: 0 success; 2 a usage or runtime error (the message on
//! stderr, after `hpcc:`); 4 a `serve` abandoned with no worker alive; 101
//! only for a bug.

mod campaign;
mod figures;
mod topo;
mod trace;

use hpcc_bench::cli::Args;
use hpcc_bench::{die, print};

/// One subcommand: what it accepts and what runs it.
struct Subcommand {
    /// Its words on the command line (`"run"`, `"trace export"`).
    name: &'static str,
    run: fn(&Args),
    /// Its positionals, as the usage text shows them, and how many it takes.
    positional: (&'static str, usize),
    /// Its options that take a value.
    options: &'static [&'static str],
    switches: &'static [&'static str],
}

const COMMANDS: [Subcommand; 12] = [
    Subcommand {
        name: "run",
        run: campaign::run_in_process,
        positional: ("[duration_ms] [load]", 2),
        options: &["--manifest", "--report"],
        switches: &["--verify-serial"],
    },
    Subcommand {
        name: "serve",
        run: campaign::run_serve,
        positional: ("ADDR [duration_ms] [load]", 3),
        options: &[
            "--spawn-workers",
            "--lease-timeout-ms",
            "--checkpoint",
            "--manifest",
            "--report",
        ],
        switches: &["--verify-serial"],
    },
    Subcommand {
        name: "join",
        run: campaign::run_join,
        positional: ("ADDR", 1),
        options: &["--name"],
        switches: &[],
    },
    Subcommand {
        name: "shard",
        run: campaign::run_shard,
        positional: ("i/N [duration_ms] [load]", 3),
        options: &["--manifest"],
        switches: &[],
    },
    Subcommand {
        name: "merge",
        run: campaign::run_merge,
        positional: ("FILE...", usize::MAX),
        options: &["--expect", "--manifest", "--report"],
        switches: &[],
    },
    Subcommand {
        name: "dump",
        run: campaign::run_dump,
        positional: ("fig11|fabric [duration_ms] [load]", 3),
        options: &[],
        switches: &[],
    },
    Subcommand {
        name: "figures",
        run: figures::run,
        // How many a figure takes is its row of `FIGURES`.
        positional: ("NAME|all [positionals]", usize::MAX),
        options: &[],
        switches: &[],
    },
    Subcommand {
        name: "trace export",
        run: trace::run_export,
        positional: ("", 0),
        options: &["--manifest", "--index", "--out"],
        switches: &[],
    },
    Subcommand {
        name: "trace freeze",
        run: trace::run_freeze,
        positional: ("", 0),
        options: &["--manifest", "--out"],
        switches: &[],
    },
    Subcommand {
        name: "trace info",
        run: trace::run_info,
        positional: ("FILE", 1),
        options: &[],
        switches: &[],
    },
    Subcommand {
        name: "topo info",
        run: topo::run_info,
        positional: ("FILE", 1),
        options: &[],
        switches: &[],
    },
    Subcommand {
        name: "topo convert",
        run: topo::run_convert,
        positional: ("FILE [OUT]", 2),
        options: &[],
        switches: &[],
    },
];

/// Exit 2 with `msg` and the usage text, generated from [`COMMANDS`] and,
/// under the `figures` row, [`figures::FIGURES`].
fn usage(msg: impl AsRef<str>) -> ! {
    let mut text = format!("{}\nusage:", msg.as_ref());
    for c in &COMMANDS {
        text += &format!("\n  hpcc {}", c.name);
        if !c.positional.0.is_empty() {
            text += &format!(" {}", c.positional.0);
        }
        for switch in c.switches {
            text += &format!(" [{switch}]");
        }
        for option in c.options {
            text += &format!(" [{option} V]");
        }
        if c.name == "figures" {
            for (name, positional, _) in &figures::FIGURES {
                text += &format!("\n      {name}");
                for (what, default) in *positional {
                    text += &format!(" [{what}={default}]");
                }
            }
        }
    }
    die(text)
}

/// The subcommand's leading positional (`ADDR`, `i/N`, `FILE`, the dump
/// kind), or a usage error naming `what` is missing.
fn operand<'a>(args: &'a Args, what: &str) -> &'a str {
    match args.positional().first() {
        Some(text) => text,
        None => usage(format!("missing {what}")),
    }
}

/// Write `text` to `out` and say so on stderr (`note` names the file), or
/// print it when no `out` was given.
fn write_or_print(out: Option<&str>, text: &str, note: impl FnOnce(&str) -> String) {
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
            eprintln!("{}", note(path));
        }
        None => print(text),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let found = COMMANDS.iter().find_map(|c| {
        let words = c.name.split(' ').count();
        let given = argv.get(..words)?;
        (given.join(" ") == c.name).then(|| (c, &argv[words..]))
    });
    let Some((c, rest)) = found else {
        usage(format!("expected a subcommand, got {argv:?}"));
    };
    let args =
        Args::parse(rest, c.options, c.switches, c.positional.1).unwrap_or_else(|e| usage(e));
    (c.run)(&args);
}
