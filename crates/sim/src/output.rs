//! Raw measurement records produced by a simulation run.
//!
//! `hpcc-stats` turns these into the derived metrics the paper reports (FCT
//! slowdown percentiles, queue-length CDFs, PFC pause fractions, …); this
//! module only collects.

use hpcc_types::{Duration, FlowId, NodeId, PortId, SimTime};
use std::collections::BTreeMap;

/// Identifies one egress port of one node.
pub type PortKey = (NodeId, PortId);

/// Completion record of one flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    /// Flow identifier.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub size: u64,
    /// Time the sender learned about the flow.
    pub start: SimTime,
    /// Time the sender received the acknowledgement of the last byte.
    pub finish: SimTime,
    /// The flow's application priority as its wire code
    /// ([`hpcc_types::FlowPriority::wire_code`]; 0 = normal) — the key of
    /// the per-priority FCT breakdowns.
    pub prio: u8,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Duration {
        self.finish.saturating_since(self.start)
    }
}

/// Per-egress-port counters accumulated over the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PortCounters {
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total data bytes dropped at enqueue (lossy modes).
    pub dropped_bytes: u64,
    /// Number of dropped data packets.
    pub dropped_packets: u64,
    /// Number of packets ECN-marked at this egress.
    pub ecn_marked: u64,
    /// Total time the data class of this egress was paused by PFC.
    pub pause_duration: Duration,
    /// Number of pause periods observed.
    pub pause_events: u64,
    /// Number of PFC pause frames this node sent *from* this port.
    pub pause_frames_sent: u64,
    /// Maximum data-queue occupancy seen at this egress.
    pub max_queue_bytes: u64,
}

/// A single PFC pause-frame emission (used to reconstruct propagation depth,
/// Figure 1a).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PfcEvent {
    /// When the pause frame was sent.
    pub time: SimTime,
    /// Switch that sent it.
    pub node: NodeId,
    /// Port it was sent from (towards the upstream sender).
    pub port: PortId,
}

/// Raw output of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimOutput {
    /// Completed flows.
    pub flows: Vec<FlowRecord>,
    /// Flows that did not finish before the horizon (size and bytes acked).
    pub unfinished_flows: usize,
    /// Per-port counters.
    pub ports: BTreeMap<PortKey, PortCounters>,
    /// Histogram of sampled data-queue lengths across all switch egress
    /// ports, in `queue_histogram_bin` byte bins (total across data
    /// classes, so single-class runs are unchanged by the class dimension).
    pub queue_histogram: Vec<u64>,
    /// Bin width of `queue_histogram` in bytes.
    pub queue_histogram_bin: u64,
    /// Per-data-class queue histograms (same sampling instants and bin
    /// width as `queue_histogram`), one per configured data class. Empty on
    /// the legacy single-class path, so pre-existing outputs and digests
    /// are untouched.
    pub class_queue_histograms: Vec<Vec<u64>>,
    /// Time series of traced ports: `(port, samples of (time, qlen bytes))`.
    pub port_traces: BTreeMap<PortKey, Vec<(SimTime, u64)>>,
    /// Per-flow goodput series: bytes newly acknowledged in each bin.
    pub flow_goodput: BTreeMap<FlowId, Vec<u64>>,
    /// Bin width of `flow_goodput`.
    pub flow_goodput_bin: Duration,
    /// Every PFC pause frame emitted (bounded; see `pfc_events_truncated`).
    pub pfc_events: Vec<PfcEvent>,
    /// True if `pfc_events` hit its cap and later events were not recorded.
    pub pfc_events_truncated: bool,
    /// Total simulated time actually executed.
    pub elapsed: SimTime,
    /// Number of events processed by the engine.
    pub events_processed: u64,
    /// Largest number of simultaneously pending events in the event queue
    /// (engine health metric; excluded from campaign digests). It counts
    /// pushed events only: a `PortReady` that a port leaves out because it
    /// will have nothing to send is in no count.
    pub peak_event_queue: u64,
    /// Total data packets delivered to receivers.
    pub packets_delivered: u64,
    /// Total data packets sent by hosts (including retransmissions).
    pub packets_sent: u64,
    /// Number of fault-timeline transitions applied during the run. Zero on
    /// fault-free runs (and then none of the fault fields below fold into
    /// campaign digests).
    pub fault_events: u64,
    /// Administratively-down time per faulted link, `(link index, downtime)`
    /// in link-index order. Empty on fault-free runs.
    pub link_downtime: Vec<(usize, Duration)>,
    /// Wire bytes lost to fault injection: frames serialized onto a down
    /// link in drop mode plus iid losses on degraded links.
    pub fault_dropped_bytes: u64,
    /// Packets lost to fault injection (same sources as
    /// `fault_dropped_bytes`).
    pub fault_dropped_packets: u64,
    /// Bytes newly acknowledged while at least one fault window (outage,
    /// degradation or straggle) was active.
    pub goodput_during_faults: u64,
    /// Total administratively-down time of host NIC links, summed over
    /// hosts — the time excluded from the `utilization_while_up`
    /// denominator.
    pub host_nic_downtime: Duration,
}

impl SimOutput {
    const PFC_EVENT_CAP: usize = 200_000;

    /// Create an empty output with the given queue-histogram bin width.
    pub fn new(queue_histogram_bin: u64, flow_goodput_bin: Duration) -> Self {
        SimOutput {
            queue_histogram_bin,
            flow_goodput_bin,
            ..Default::default()
        }
    }

    /// Record one sampled queue length into the histogram.
    pub(crate) fn record_queue_sample(&mut self, qlen_bytes: u64) {
        let bin = (qlen_bytes / self.queue_histogram_bin.max(1)) as usize;
        if self.queue_histogram.len() <= bin {
            self.queue_histogram.resize(bin + 1, 0);
        }
        self.queue_histogram[bin] += 1;
    }

    /// Record one sampled per-class queue length (multi-class runs only;
    /// `class_queue_histograms` must have been sized by the simulator).
    pub(crate) fn record_class_queue_sample(&mut self, class: usize, qlen_bytes: u64) {
        let bin = (qlen_bytes / self.queue_histogram_bin.max(1)) as usize;
        let hist = &mut self.class_queue_histograms[class];
        if hist.len() <= bin {
            hist.resize(bin + 1, 0);
        }
        hist[bin] += 1;
    }

    /// Record a PFC pause-frame emission (bounded).
    pub(crate) fn record_pfc_event(&mut self, ev: PfcEvent) {
        if self.pfc_events.len() < Self::PFC_EVENT_CAP {
            self.pfc_events.push(ev);
        } else {
            self.pfc_events_truncated = true;
        }
    }

    /// Record newly acknowledged bytes of a flow at `now` into its goodput
    /// series.
    pub(crate) fn record_goodput(&mut self, flow: FlowId, now: SimTime, bytes: u64) {
        if self.flow_goodput_bin.is_zero() {
            return;
        }
        let bin = (now.as_ps() / self.flow_goodput_bin.as_ps()) as usize;
        let series = self.flow_goodput.entry(flow).or_default();
        if series.len() <= bin {
            series.resize(bin + 1, 0);
        }
        series[bin] += bytes;
    }

    /// Aggregate PFC pause duration across all ports.
    pub fn total_pause_duration(&self) -> Duration {
        let mut total = Duration::ZERO;
        for c in self.ports.values() {
            total += c.pause_duration;
        }
        total
    }

    /// Total dropped data packets across all ports.
    pub fn total_drops(&self) -> u64 {
        self.ports.values().map(|c| c.dropped_packets).sum()
    }

    /// Largest data-queue occupancy seen anywhere.
    pub fn max_queue_bytes(&self) -> u64 {
        self.ports
            .values()
            .map(|c| c.max_queue_bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_stats::queue::queue_percentile;

    #[test]
    fn fct_is_finish_minus_start() {
        let r = FlowRecord {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1_000_000,
            start: SimTime::from_us(10),
            finish: SimTime::from_us(110),
            prio: 0,
        };
        assert_eq!(r.fct(), Duration::from_us(100));
    }

    #[test]
    fn queue_histogram_and_percentiles() {
        let mut out = SimOutput::new(1000, Duration::ZERO);
        // 90 samples of an empty queue, 10 samples of a 10 KB queue.
        for _ in 0..90 {
            out.record_queue_sample(0);
        }
        for _ in 0..10 {
            out.record_queue_sample(10_000);
        }
        let p =
            |out: &SimOutput, p| queue_percentile(&out.queue_histogram, out.queue_histogram_bin, p);
        assert_eq!(p(&out, 50.0), Some(0));
        assert_eq!(p(&out, 95.0), Some(10_000));
        assert_eq!(p(&out, 100.0), Some(10_000));
        assert!(p(&SimOutput::default(), 50.0).is_none());
    }

    #[test]
    fn goodput_series_bins_by_time() {
        let mut out = SimOutput::new(1000, Duration::from_us(100));
        out.record_goodput(FlowId(3), SimTime::from_us(50), 1000);
        out.record_goodput(FlowId(3), SimTime::from_us(70), 500);
        out.record_goodput(FlowId(3), SimTime::from_us(250), 2000);
        let series = &out.flow_goodput[&FlowId(3)];
        assert_eq!(series[0], 1500);
        assert_eq!(series[1], 0);
        assert_eq!(series[2], 2000);
    }

    #[test]
    fn pfc_event_cap_sets_truncation_flag() {
        let mut out = SimOutput::new(1000, Duration::ZERO);
        for i in 0..(SimOutput::PFC_EVENT_CAP + 10) {
            out.record_pfc_event(PfcEvent {
                time: SimTime::from_ns(i as u64),
                node: NodeId(1),
                port: PortId(0),
            });
        }
        assert_eq!(out.pfc_events.len(), SimOutput::PFC_EVENT_CAP);
        assert!(out.pfc_events_truncated);
    }

    #[test]
    fn aggregates_over_ports() {
        let mut out = SimOutput::new(1000, Duration::ZERO);
        out.ports.insert(
            (NodeId(1), PortId(0)),
            PortCounters {
                pause_duration: Duration::from_us(5),
                dropped_packets: 2,
                max_queue_bytes: 7000,
                ..Default::default()
            },
        );
        out.ports.insert(
            (NodeId(2), PortId(1)),
            PortCounters {
                pause_duration: Duration::from_us(3),
                dropped_packets: 1,
                max_queue_bytes: 9000,
                ..Default::default()
            },
        );
        assert_eq!(out.total_pause_duration(), Duration::from_us(8));
        assert_eq!(out.total_drops(), 3);
        assert_eq!(out.max_queue_bytes(), 9000);
    }
}
