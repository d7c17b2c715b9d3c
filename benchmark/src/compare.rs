//! `compare <a.json[,a2.json...]> <b.json[,...]>`: per workload and
//! end-to-end metric, is `b` the same as, better or worse than `a`, by the
//! bounds in `BENCHMARK.json`? A side is one result file or several runs.

use crate::measure::quartiles;
use hpcc_core::json::JsonValue;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A side's own quartiles lie further apart than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison. Of one run: its value and the quartiles of its
/// samples. Of several runs: the median and quartiles of their values.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.value.abs()
    }
}

pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value.abs();
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct EndToEnd {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn end_to_end_metrics(benchmark_json: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = load(benchmark_json)?;
    let err = |e| format!("{benchmark_json}: {e}");
    doc.require("end_to_end")
        .and_then(JsonValue::as_array)
        .map_err(err)?
        .iter()
        .map(|m| {
            Ok(EndToEnd {
                name: m.require("name")?.as_str()?.to_string(),
                lower_is_better: m.require("better")?.as_str()? == "lower",
                bound: m.require("bound")?.as_f64()?,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(err)
}

/// Every workload's result object in `docs`, run by run.
fn workload_runs(docs: &[JsonValue]) -> impl Iterator<Item = &JsonValue> {
    docs.iter()
        .filter_map(|doc| doc.get("workloads")?.as_array().ok())
        .flatten()
}

fn name_of(run: &JsonValue) -> Option<&str> {
    run.get("name")?.as_str().ok()
}

fn runs_named<'a>(docs: &'a [JsonValue], name: &str) -> Vec<&'a JsonValue> {
    workload_runs(docs)
        .filter(|run| name_of(run) == Some(name))
        .collect()
}

fn side(runs: &[&JsonValue], metric: &str) -> Option<Side> {
    let field =
        |run: &JsonValue, key: &str| run.get("metrics")?.get(metric)?.get(key)?.as_f64().ok();
    match runs {
        [] => None,
        [run] => Some(Side {
            value: field(run, "value")?,
            q1: field(run, "q1")?,
            q3: field(run, "q3")?,
        }),
        _ => {
            let values: Option<Vec<f64>> = runs.iter().map(|run| field(run, "value")).collect();
            let [q1, value, q3] = quartiles(&values?);
            Some(Side { value, q1, q3 })
        }
    }
}

/// The comparison table, and whether any row reads `worse`. `a` and `b`
/// each name one result file or several, separated by commas.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let metrics = end_to_end_metrics(benchmark_json)?;
    let load_side = |paths: &str| paths.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (a_docs, b_docs) = (load_side(a)?, load_side(b)?);
    let mut names: Vec<&str> = Vec::new();
    for name in workload_runs(&a_docs).filter_map(name_of) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut table = format!("a = {a}\nb = {b}\n");
    writeln!(
        table,
        "{:<15} {:<28} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "a: value (q1 .. q3)", "b: value (q1 .. q3)", "b/a", "bound"
    )
    .expect("writing to a String cannot fail");
    let mut any_worse = false;
    for name in names {
        let (a_runs, b_runs) = (runs_named(&a_docs, name), runs_named(&b_docs, name));
        for m in &metrics {
            let (Some(sa), Some(sb)) = (side(&a_runs, &m.name), side(&b_runs, &m.name)) else {
                writeln!(table, "{name:<15} {:<28} missing from a side", m.name)
                    .expect("writing to a String cannot fail");
                continue;
            };
            let v = verdict(sa, sb, m.lower_is_better, m.bound);
            any_worse |= v == Verdict::Worse;
            let show = |s: Side| format!("{:.6} ({:.6} .. {:.6})", s.value, s.q1, s.q3);
            writeln!(
                table,
                "{name:<15} {:<28} {:>34} {:>34} {:>8.4} {:>6}  {}",
                m.name,
                show(sa),
                show(sb),
                sb.value / sa.value,
                m.bound,
                v.label()
            )
            .expect("writing to a String cannot fail");
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side {
            value,
            q1: value,
            q3: value,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 5 %.
        assert_eq!(
            verdict(exact(100.0), exact(104.0), true, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(exact(100.0), exact(106.0), true, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(exact(100.0), exact(94.0), true, 0.05),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(exact(100.0), exact(106.0), false, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(exact(100.0), exact(94.0), false, 0.05),
            Verdict::Worse
        );
        // Quartiles wider apart than the bound on either side: unresolved,
        // whatever the medians say.
        let noisy = Side {
            value: 100.0,
            q1: 96.0,
            q3: 103.0,
        };
        assert_eq!(
            verdict(noisy, exact(120.0), true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(exact(100.0), noisy, true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(verdict(noisy, exact(101.0), true, 0.10), Verdict::Same);
    }
}
