//! Plain-text rendering of campaign results, in the same shape as the
//! paper's tables and figure series (rows of size-bucket × percentile, queue
//! percentiles, PFC summaries). The tables read the [`ScenarioResult`] rows a
//! [`crate::Campaign`] returns, so a figure renders the same numbers the
//! result line carries; the two traces take the raw series a runner reads
//! from [`hpcc_sim::SimOutput`].

use crate::campaign::ScenarioResult;
use hpcc_types::Duration;
use std::fmt::Write as _;

/// Render a slowdown-per-bucket table for several scenarios side by side,
/// at one percentile (50, 95 or 99) — the shape of Figures 2a/3/10a/11a.
/// The rows are the first result's buckets (the set its workload implies).
pub fn slowdown_table(results: &[ScenarioResult], percentile: f64) -> String {
    let mut s = String::new();
    write!(s, "{:>10}", "flow size").unwrap();
    for r in results {
        write!(s, " {:>14}", truncate(&r.name, 14)).unwrap();
    }
    writeln!(s).unwrap();
    let buckets = results.first().map_or(&[][..], |r| &r.slowdown_buckets);
    for (bi, b) in buckets.iter().enumerate() {
        write!(s, "{:>10}", b.bucket.label).unwrap();
        for r in results {
            match r.slowdown_buckets[bi].stats {
                Some(p) => {
                    let v = match percentile as u32 {
                        50 => p.p50,
                        95 => p.p95,
                        _ => p.p99,
                    };
                    write!(s, " {v:>14.2}").unwrap();
                }
                None => write!(s, " {:>14}", "-").unwrap(),
            }
        }
        writeln!(s).unwrap();
    }
    s
}

/// Render queue-length percentiles (median / 95 / 99 / max) for several
/// scenarios — the shape of Figures 9f/10b/10d.
pub fn queue_table(results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "{:<24} {:>12} {:>12} {:>12} {:>12}",
        "scheme", "p50 (KB)", "p95 (KB)", "p99 (KB)", "max (KB)"
    )
    .unwrap();
    let kb = |q: Option<u64>| q.map_or(f64::NAN, |v| v as f64 / 1000.0);
    for r in results {
        writeln!(
            s,
            "{:<24} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            truncate(&r.name, 24),
            kb(r.queue_p50),
            kb(r.queue_p95),
            kb(r.queue_p99),
            r.max_queue_bytes as f64 / 1000.0
        )
        .unwrap();
    }
    s
}

/// Render the PFC pause-time fraction and completion statistics — the shape
/// of Figures 2b/11b/11d.
pub fn pfc_table(results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "{:<24} {:>14} {:>12} {:>12} {:>12}",
        "scheme", "pause time %", "pause frames", "drops", "completed %"
    )
    .unwrap();
    for r in results {
        writeln!(
            s,
            "{:<24} {:>14.3} {:>12} {:>12} {:>12.1}",
            truncate(&r.name, 24),
            r.pfc.pause_time_fraction() * 100.0,
            r.pfc.pause_frames,
            r.drops,
            r.completion * 100.0
        )
        .unwrap();
    }
    s
}

/// Render a traced queue-length time series as `time_us value_KB` rows,
/// down-sampled to at most `max_points` (Figures 6/13b/14b).
pub fn queue_trace(series: &[(hpcc_types::SimTime, u64)], max_points: usize) -> String {
    let mut s = String::new();
    writeln!(s, "{:>12} {:>12}", "time (us)", "queue (KB)").unwrap();
    let step = (series.len() / max_points.max(1)).max(1);
    for (t, q) in series.iter().step_by(step) {
        writeln!(s, "{:>12.1} {:>12.2}", t.as_us_f64(), *q as f64 / 1000.0).unwrap();
    }
    s
}

/// Render a goodput time series as `time_us gbps` rows (Figures 9a–9d, 13a).
pub fn goodput_trace(series_gbps: &[f64], bin: Duration, max_points: usize) -> String {
    let mut s = String::new();
    writeln!(s, "{:>12} {:>12}", "time (us)", "Gbps").unwrap();
    let step = (series_gbps.len() / max_points.max(1)).max(1);
    for (i, g) in series_gbps.iter().enumerate().step_by(step) {
        writeln!(
            s,
            "{:>12.1} {:>12.2}",
            (i as u64 * bin.as_ns()) as f64 / 1000.0,
            g
        )
        .unwrap();
    }
    s
}

/// Truncate a label to at most `n` bytes without splitting a UTF-8
/// character (shared by the report tables and the campaign table).
pub(crate) fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let mut end = n;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::incast_on_star;
    use crate::scenario::CcSpec;
    use crate::Campaign;
    use hpcc_stats::fct::websearch_buckets;
    use hpcc_types::{Bandwidth, SimTime};

    /// The one row of a one-scenario campaign.
    fn quick_results() -> Vec<ScenarioResult> {
        Campaign::new()
            .with(incast_on_star(
                "HPCC",
                CcSpec::by_label("HPCC"),
                4,
                200_000,
                Bandwidth::from_gbps(100),
                Duration::from_ms(2),
            ))
            .run_serial()
            .results
    }

    #[test]
    fn tables_render_without_panicking_and_contain_labels() {
        let rows = quick_results();
        let t = slowdown_table(&rows, 95.0);
        assert!(t.contains("HPCC"));
        assert!(t.contains("200K"));
        // A header, then one line per bucket the workload implies.
        assert_eq!(t.lines().count(), 1 + websearch_buckets().len(), "{t}");
        let q = queue_table(&rows);
        assert!(q.contains("p99"));
        assert!(
            q.lines().nth(1).is_some_and(|l| l.starts_with("HPCC")),
            "{q}"
        );
        let p = pfc_table(&rows);
        assert!(p.contains("pause time %"));
        assert!(p.contains("100.0"), "all flows complete: {p}");
    }

    #[test]
    fn tables_of_no_rows_are_their_header() {
        for table in [slowdown_table(&[], 95.0), queue_table(&[]), pfc_table(&[])] {
            assert_eq!(table.lines().count(), 1, "{table}");
        }
        assert_eq!(slowdown_table(&[], 50.0).trim(), "flow size");
    }

    #[test]
    fn traces_are_downsampled() {
        let series: Vec<(SimTime, u64)> =
            (0..1000).map(|i| (SimTime::from_us(i), i * 100)).collect();
        let txt = queue_trace(&series, 50);
        let lines = txt.lines().count();
        assert!(lines <= 52, "got {lines} lines");
        let g = goodput_trace(&[1.0; 500], Duration::from_us(10), 20);
        assert!(g.lines().count() <= 27);
    }

    #[test]
    fn label_truncation() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("averyverylonglabel", 6), "averyv");
        // Never splits a multi-byte character ("µ" is 2 bytes).
        assert_eq!(truncate("µµµµ", 5), "µµ");
        assert_eq!(truncate("aµb", 2), "a");
    }
}
