//! `hpcc figures <name> [positionals…]` runs one runner of
//! `hpcc_bench::figures` and prints its report; `hpcc figures all` runs
//! every one at its defaults. The positionals scale the run; an unknown
//! name, a stray argument or a malformed one (`fig11 5x`) is a usage error.

use crate::usage;
use hpcc_bench::cli::Args;
use hpcc_bench::figures as f;
use hpcc_bench::{parse_arg, print};

/// One runner: its name, its positionals with their defaults (as the usage
/// text shows them and as [`arg`] parses them), and the call that renders
/// the report.
type Figure = (
    &'static str,
    &'static [(&'static str, &'static str)],
    fn(&[String]) -> String,
);

const MS_20: (&str, &str) = ("duration_ms", "20");
const MS_15: (&str, &str) = ("duration_ms", "15");
const LOAD: (&str, &str) = ("load", "0.3");

/// In the order `figures all` prints them.
pub(crate) const FIGURES: [Figure; 12] = [
    ("tab_int_overhead", &[], |_| f::tab_int_overhead()),
    ("fluid_convergence", &[], |_| f::fluid_convergence()),
    ("fig01", &[MS_20], |v| f::fig01(arg(v, 0))),
    ("fig02", &[MS_20, LOAD], |v| f::fig02(arg(v, 0), arg(v, 1))),
    ("fig03", &[MS_20], |v| f::fig03(arg(v, 0))),
    ("fig06", &[("duration_ms", "2")], |v| f::fig06(arg(v, 0))),
    ("fig09", &[("duration_ms", "8")], |v| f::fig09(arg(v, 0))),
    ("fig10", &[MS_20], |v| f::fig10(arg(v, 0))),
    (
        "fig11",
        &[MS_15, LOAD, ("incast 0/1", "1"), ("paper_scale 0/1", "0")],
        |v| {
            f::fig11(
                arg(v, 0),
                arg(v, 1),
                arg::<u8>(v, 2) != 0,
                arg::<u8>(v, 3) != 0,
            )
        },
    ),
    ("fig12", &[MS_15, LOAD], |v| f::fig12(arg(v, 0), arg(v, 1))),
    ("fig13", &[("duration_ms", "2")], |v| f::fig13(arg(v, 0))),
    ("fig14", &[("duration_ms", "10")], |v| f::fig14(arg(v, 0))),
];

/// Positional `i` of a runner, parsed; `values` has every positional, given
/// or defaulted.
fn arg<T: std::str::FromStr>(values: &[String], i: usize) -> T {
    match parse_arg(values, i) {
        Ok(value) => value.expect("defaults fill every positional"),
        Err(e) => usage(e),
    }
}

/// Print the figure's report with `given` positionals, the rest defaulted.
fn print_figure((_, positional, run): &Figure, given: &[String]) {
    let defaults = positional.iter().map(|(_, d)| d.to_string());
    let values: Vec<String> = given
        .iter()
        .cloned()
        .chain(defaults.skip(given.len()))
        .collect();
    print(run(&values));
}

/// `figures NAME|all [positionals]`.
pub(crate) fn run(args: &Args) {
    let Some((name, given)) = args.positional().split_first() else {
        usage("missing figure name");
    };
    let fig = FIGURES.iter().find(|fig| fig.0 == name);
    if fig.is_none() && name != "all" {
        usage(format!("unknown figure {name:?}"));
    }
    if let Some(stray) = given.get(fig.map_or(0, |fig| fig.1.len())) {
        usage(format!("unexpected argument {stray:?}"));
    }
    let Some(fig) = fig else {
        for fig in &FIGURES {
            print_figure(fig, &[]);
            if fig.0 == "fig11" {
                // Figure 11's second panel: 50 % load, no incast.
                print_figure(fig, &["15", "0.5", "0", "0"].map(String::from));
            }
        }
        return;
    };
    print_figure(fig, given);
}
