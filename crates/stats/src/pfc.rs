//! PFC pause accounting and propagation analysis.
//!
//! The paper reports (i) the fraction of time links spend paused
//! (Figures 2b, 11b, 11d), and (ii) how far pause waves propagate and how
//! much sending capacity they suppress (Figure 1, production telemetry that
//! we reproduce from simulated pause events).

use hpcc_types::{Duration, NodeId, SimTime};
use std::collections::BTreeSet;

/// Summary of PFC activity over one run.
#[derive(Clone, Debug, PartialEq)]
pub struct PfcSummary {
    /// Total pause time summed over all (port, class) pairs.
    pub total_pause: Duration,
    /// Number of ports that were ever paused.
    pub paused_ports: usize,
    /// Number of ports observed in total.
    pub total_ports: usize,
    /// Run duration.
    pub elapsed: Duration,
    /// Number of pause frames emitted.
    pub pause_frames: u64,
}

impl PfcSummary {
    /// Build a summary from per-port pause durations.
    pub fn new(per_port_pause: &[Duration], pause_frames: u64, elapsed: Duration) -> Self {
        PfcSummary {
            total_pause: per_port_pause
                .iter()
                .fold(Duration::ZERO, |acc, d| acc + *d),
            paused_ports: per_port_pause.iter().filter(|d| !d.is_zero()).count(),
            total_ports: per_port_pause.len(),
            elapsed,
            pause_frames,
        }
    }

    /// Fraction (0–1) of total port-time spent paused — the "fraction of
    /// pause time (%)" metric of Figure 11b/11d.
    pub fn pause_time_fraction(&self) -> f64 {
        if self.total_ports == 0 || self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_pause.as_secs_f64() / (self.total_ports as f64 * self.elapsed.as_secs_f64())
    }
}

/// Group pause-frame emissions into bursts (events separated by less than
/// `gap`) and report, for each burst, how many distinct switches emitted
/// pauses — a proxy for the propagation depth of Figure 1a (a pause that
/// cascades upstream shows up at more switches).
pub fn pause_burst_spread(events: &[(SimTime, NodeId)], gap: Duration) -> Vec<usize> {
    if events.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<(SimTime, NodeId)> = events.to_vec();
    sorted.sort_by_key(|(t, _)| *t);
    let mut bursts = Vec::new();
    let mut current: BTreeSet<NodeId> = BTreeSet::new();
    let mut last_time = sorted[0].0;
    for (t, node) in sorted {
        if t.saturating_since(last_time) > gap && !current.is_empty() {
            bursts.push(current.len());
            current.clear();
        }
        current.insert(node);
        last_time = t;
    }
    if !current.is_empty() {
        bursts.push(current.len());
    }
    bursts
}

/// The fraction of host capacity suppressed by pauses: each host-facing port
/// paused for `pause` out of `elapsed` suppresses `pause/elapsed` of one
/// host's bandwidth (Figure 1b's "suppressed bandwidth" proxy).
pub fn suppressed_bandwidth_fraction(host_pause: &[Duration], elapsed: Duration) -> f64 {
    if host_pause.is_empty() || elapsed.is_zero() {
        return 0.0;
    }
    let total: f64 = host_pause.iter().map(|d| d.as_secs_f64()).sum();
    total / (host_pause.len() as f64 * elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_fraction() {
        let pauses = vec![
            Duration::from_us(100),
            Duration::ZERO,
            Duration::from_us(300),
            Duration::ZERO,
        ];
        let s = PfcSummary::new(&pauses, 7, Duration::from_ms(1));
        assert_eq!(s.total_pause, Duration::from_us(400));
        assert_eq!(s.paused_ports, 2);
        assert_eq!(s.total_ports, 4);
        assert_eq!(s.pause_frames, 7);
        // 400 us paused over 4 ports × 1 ms = 10%.
        assert!((s.pause_time_fraction() - 0.10).abs() < 1e-9);
        let empty = PfcSummary::new(&[], 0, Duration::ZERO);
        assert_eq!(empty.pause_time_fraction(), 0.0);
    }

    #[test]
    fn bursts_group_by_time_and_count_distinct_nodes() {
        let e = |us: u64, n: u32| (SimTime::from_us(us), NodeId(n));
        let events = vec![
            e(10, 1),
            e(12, 2),
            e(13, 1),
            // 500 us of silence → new burst
            e(600, 3),
            e(601, 4),
            e(602, 5),
        ];
        let bursts = pause_burst_spread(&events, Duration::from_us(100));
        assert_eq!(bursts, vec![2, 3]);
        assert!(pause_burst_spread(&[], Duration::from_us(100)).is_empty());
    }

    #[test]
    fn unsorted_events_are_sorted_first() {
        let e = |us: u64, n: u32| (SimTime::from_us(us), NodeId(n));
        let events = vec![e(600, 3), e(10, 1), e(12, 2)];
        let bursts = pause_burst_spread(&events, Duration::from_us(100));
        assert_eq!(bursts, vec![2, 1]);
    }

    #[test]
    fn suppressed_bandwidth() {
        let pauses = vec![
            Duration::from_ms(1),
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        ];
        // One of four hosts paused for a quarter of the run: 1/16 suppressed.
        let f = suppressed_bandwidth_fraction(&pauses, Duration::from_ms(4));
        assert!((f - 0.0625).abs() < 1e-9);
        assert_eq!(
            suppressed_bandwidth_fraction(&[], Duration::from_ms(1)),
            0.0
        );
    }
}
