//! Host-side measurement: order statistics, process CPU time and memory from
//! `/proc`, and the host fingerprint stored in every result file.

use hpcc_core::json::{obj, JsonValue};
use hpcc_types::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)` (the
/// method the benchmark's acceptance check uses). Fewer than two values
/// have no spread: all three are the value itself.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        // Rank i*(n+1)/4, 1-based, interpolated between the two samples
        // around it (extrapolated from the end pair when it falls outside).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// User + system CPU seconds of the whole process, all threads, living or
/// joined (`/proc/self/stat` fields 14 and 15, in clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("stat field is a number");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

const SPIN_STEPS: u64 = 40_000_000;

/// A fixed amount of integer work (the in-tree PRNG), returning its wall
/// time.
fn spin() -> f64 {
    let started = Instant::now();
    let mut rng = SplitMix64::new(black_box(1));
    let mut acc = 0u64;
    for _ in 0..SPIN_STEPS {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// What tells this recorder from another: the core count the OS reports,
/// how much two spinning threads slow each other down (1.0 on two free
/// cores, 2.0 on one), and a fixed-work calibration score. Not a metric.
pub fn host_fingerprint() -> JsonValue {
    let alone = spin();
    let paired = std::thread::scope(|scope| {
        let other = scope.spawn(spin);
        let mine = spin();
        mine.max(other.join().expect("spin thread does not panic"))
    });
    obj(vec![
        (
            "nproc",
            JsonValue::UInt(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            ),
        ),
        ("two_thread_slowdown", JsonValue::Float(paired / alone)),
        (
            "calibration_mops_per_s",
            JsonValue::Float(SPIN_STEPS as f64 / 1e6 / alone),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = process_cpu_s();
        spin();
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mb() > 1.0);
    }
}
