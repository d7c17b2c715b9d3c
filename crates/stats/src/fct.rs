//! Flow-completion-time slowdown analysis.
//!
//! "FCT slowdown means a flow's actual FCT normalized by its ideal FCT when
//! the network only has this flow" (§2.3, footnote 1). The ideal FCT is the
//! standalone transfer time: one-way base delay plus the serialization of
//! all the flow's packets (including headers and, when enabled, the INT
//! budget) at the host line rate.
//!
//! The paper reports slowdown percentiles per flow-size bucket; the bucket
//! edges here are exactly the x-axis labels of Figures 2/3/10 (WebSearch)
//! and Figure 11 (FB_Hadoop).

use crate::percentile::Percentiles;
use hpcc_types::{data_wire_size, Bandwidth, Duration, MTU_PAYLOAD};

/// Per-flow record the analyzer consumes (kept minimal so any front-end can
/// produce it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowFct {
    /// Flow size in bytes.
    pub size: u64,
    /// Measured flow completion time.
    pub fct: Duration,
}

/// Computes ideal FCTs and slowdowns.
#[derive(Clone, Copy, Debug)]
pub struct FctAnalyzer {
    /// Host NIC line rate (the standalone bottleneck).
    pub line_rate: Bandwidth,
    /// One-way base delay (half the base RTT).
    pub one_way_delay: Duration,
    /// Header (plus INT budget) bytes per packet.
    pub per_packet_overhead: u64,
}

impl FctAnalyzer {
    /// Analyzer for a network with the given line rate and base RTT, using
    /// the packet format of [`hpcc_types::packet`]: [`MTU_PAYLOAD`] bytes a
    /// packet, framed as the engine frames them.
    pub fn new(line_rate: Bandwidth, base_rtt: Duration, int_enabled: bool) -> Self {
        FctAnalyzer {
            line_rate,
            one_way_delay: base_rtt / 2,
            per_packet_overhead: data_wire_size(int_enabled) - MTU_PAYLOAD,
        }
    }

    /// The standalone ("ideal") FCT of a flow of `size` bytes.
    pub fn ideal_fct(&self, size: u64) -> Duration {
        let size = size.max(1);
        let packets = size.div_ceil(MTU_PAYLOAD);
        let wire_bytes = size + packets * self.per_packet_overhead;
        self.one_way_delay + self.line_rate.tx_time(wire_bytes)
    }

    /// Slowdown of one measured flow (≥ 1 in a well-behaved network; we
    /// clamp at 1.0 to absorb rounding).
    pub fn slowdown(&self, flow: &FlowFct) -> f64 {
        let ideal = self.ideal_fct(flow.size).as_us_f64();
        (flow.fct.as_us_f64() / ideal).max(1.0)
    }

    /// Group flows into `buckets` and summarise the slowdown distribution of
    /// each bucket. Buckets without flows are returned with `stats: None`.
    pub fn bucketed_slowdowns(
        &self,
        flows: &[FlowFct],
        buckets: &[FctBucket],
    ) -> Vec<SizeBucketStats> {
        let mut per_bucket: Vec<Vec<f64>> = vec![Vec::new(); buckets.len()];
        for f in flows {
            if let Some(i) = buckets.iter().position(|b| f.size <= b.max_size) {
                per_bucket[i].push(self.slowdown(f));
            } else if let Some(last) = per_bucket.last_mut() {
                last.push(self.slowdown(f));
            }
        }
        buckets
            .iter()
            .zip(per_bucket)
            .map(|(b, v)| SizeBucketStats {
                bucket: *b,
                stats: Percentiles::of(&v),
            })
            .collect()
    }

    /// Overall slowdown percentiles of all flows.
    pub fn overall(&self, flows: &[FlowFct]) -> Option<Percentiles> {
        let v: Vec<f64> = flows.iter().map(|f| self.slowdown(f)).collect();
        Percentiles::of(&v)
    }

    /// Slowdown percentiles per group key (e.g. the flow-priority wire
    /// code), one entry per key present, ascending. The per-priority FCT
    /// breakdowns of multi-class scheduling studies ride on this.
    pub fn grouped(&self, flows: &[(u8, FlowFct)]) -> Vec<(u8, Option<Percentiles>)> {
        let mut keys: Vec<u8> = flows.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|key| {
                let v: Vec<f64> = flows
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, f)| self.slowdown(f))
                    .collect();
                (key, Percentiles::of(&v))
            })
            .collect()
    }
}

/// A flow-size bucket (inclusive upper edge) with a display label.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FctBucket {
    /// Largest flow size that falls into this bucket, in bytes.
    pub max_size: u64,
    /// Label used on the figure axis ("6.7K", "30M", …).
    pub label: &'static str,
}

/// Slowdown summary of one size bucket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeBucketStats {
    /// The bucket this row describes.
    pub bucket: FctBucket,
    /// Percentile summary, `None` if no flows landed in the bucket.
    pub stats: Option<Percentiles>,
}

/// The WebSearch flow-size buckets of Figures 2/3/10.
pub fn websearch_buckets() -> Vec<FctBucket> {
    vec![
        FctBucket {
            max_size: 3_000,
            label: "<3K",
        },
        FctBucket {
            max_size: 6_700,
            label: "6.7K",
        },
        FctBucket {
            max_size: 20_000,
            label: "20K",
        },
        FctBucket {
            max_size: 30_000,
            label: "30K",
        },
        FctBucket {
            max_size: 50_000,
            label: "50K",
        },
        FctBucket {
            max_size: 73_000,
            label: "73K",
        },
        FctBucket {
            max_size: 200_000,
            label: "200K",
        },
        FctBucket {
            max_size: 1_000_000,
            label: "1M",
        },
        FctBucket {
            max_size: 2_000_000,
            label: "2M",
        },
        FctBucket {
            max_size: 5_000_000,
            label: "5M",
        },
        FctBucket {
            max_size: 30_000_000,
            label: "30M",
        },
    ]
}

/// The FB_Hadoop flow-size buckets of Figures 11/12.
pub fn fb_hadoop_buckets() -> Vec<FctBucket> {
    vec![
        FctBucket {
            max_size: 324,
            label: "324",
        },
        FctBucket {
            max_size: 400,
            label: "400",
        },
        FctBucket {
            max_size: 500,
            label: "500",
        },
        FctBucket {
            max_size: 600,
            label: "600",
        },
        FctBucket {
            max_size: 700,
            label: "700",
        },
        FctBucket {
            max_size: 1_000,
            label: "1K",
        },
        FctBucket {
            max_size: 7_000,
            label: "7K",
        },
        FctBucket {
            max_size: 46_000,
            label: "46K",
        },
        FctBucket {
            max_size: 120_000,
            label: "120K",
        },
        FctBucket {
            max_size: 10_000_000,
            label: "10M",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::{FlowId, NodeId, Packet, SimTime};

    const LINE: Bandwidth = Bandwidth::from_gbps(25);
    const RTT: Duration = Duration::from_us(9);

    #[test]
    fn ideal_fct_includes_headers_and_delay() {
        // The engine and the analyzer frame a full packet alike.
        for int in [true, false] {
            let mut cfg =
                hpcc_sim::SimConfig::for_cc(hpcc_cc::CcAlgorithm::hpcc_default(), LINE, RTT);
            cfg.int_enabled = int;
            let p = Packet::data(
                FlowId(1),
                NodeId(0),
                NodeId(1),
                0,
                MTU_PAYLOAD,
                SimTime::ZERO,
            );
            assert_eq!(p.wire_size(int), data_wire_size(int), "int {int}");
            assert_eq!(cfg.data_wire_size(), data_wire_size(int), "int {int}");
            assert_eq!(
                FctAnalyzer::new(LINE, RTT, int).ideal_fct(MTU_PAYLOAD),
                RTT / 2 + LINE.tx_time(data_wire_size(int)),
                "int {int}"
            );
        }
        let a = FctAnalyzer::new(LINE, RTT, true);
        // 1000-byte flow = one packet of 1106 B at 25 Gbps = 354 ns, plus
        // 4.5 us one-way delay.
        let ideal = a.ideal_fct(1000);
        let expected = Duration::from_us(4) + Duration::from_ps(500_000) + LINE.tx_time(1106);
        assert_eq!(ideal, expected);
        // A 10 MB flow is dominated by serialization: ≈ 3.5 ms.
        let big = a.ideal_fct(10_000_000).as_us_f64();
        assert!(big > 3_300.0 && big < 3_700.0, "big = {big}");
        // Without INT the ideal is slightly smaller.
        let no_int = FctAnalyzer::new(LINE, RTT, false);
        assert!(no_int.ideal_fct(10_000_000) < a.ideal_fct(10_000_000));
    }

    #[test]
    fn slowdown_is_relative_to_ideal_and_clamped() {
        let a = FctAnalyzer::new(LINE, RTT, true);
        let ideal = a.ideal_fct(1000);
        let s = a.slowdown(&FlowFct {
            size: 1000,
            fct: ideal * 10,
        });
        assert!((s - 10.0).abs() < 0.01);
        // Faster than ideal (measurement noise) clamps to 1.
        let s = a.slowdown(&FlowFct {
            size: 1000,
            fct: ideal / 2,
        });
        assert_eq!(s, 1.0);
    }

    #[test]
    fn bucketing_groups_by_size() {
        let a = FctAnalyzer::new(LINE, RTT, true);
        let buckets = websearch_buckets();
        let mut flows = Vec::new();
        // 10 small flows with slowdown 2, 5 large flows with slowdown 4.
        for _ in 0..10 {
            flows.push(FlowFct {
                size: 2_000,
                fct: a.ideal_fct(2_000) * 2,
            });
        }
        for _ in 0..5 {
            flows.push(FlowFct {
                size: 4_000_000,
                fct: a.ideal_fct(4_000_000) * 4,
            });
        }
        let rows = a.bucketed_slowdowns(&flows, &buckets);
        assert_eq!(rows.len(), buckets.len());
        let small = rows.iter().find(|r| r.bucket.label == "<3K").unwrap();
        assert_eq!(small.stats.unwrap().count, 10);
        assert!((small.stats.unwrap().p50 - 2.0).abs() < 0.01);
        let big = rows.iter().find(|r| r.bucket.label == "5M").unwrap();
        assert_eq!(big.stats.unwrap().count, 5);
        assert!((big.stats.unwrap().p95 - 4.0).abs() < 0.01);
        let empty = rows.iter().find(|r| r.bucket.label == "30M").unwrap();
        assert!(empty.stats.is_none());
    }

    #[test]
    fn flows_larger_than_every_bucket_go_to_the_last_one() {
        let a = FctAnalyzer::new(LINE, RTT, true);
        let buckets = fb_hadoop_buckets();
        let flows = vec![FlowFct {
            size: 50_000_000,
            fct: a.ideal_fct(50_000_000) * 3,
        }];
        let rows = a.bucketed_slowdowns(&flows, &buckets);
        assert_eq!(rows.last().unwrap().stats.unwrap().count, 1);
    }

    #[test]
    fn bucket_tables_match_paper_axes() {
        assert_eq!(websearch_buckets().len(), 11);
        assert_eq!(fb_hadoop_buckets().len(), 10);
        assert_eq!(websearch_buckets().last().unwrap().max_size, 30_000_000);
        assert_eq!(fb_hadoop_buckets()[8].label, "120K");
    }

    #[test]
    fn overall_summary() {
        let a = FctAnalyzer::new(LINE, RTT, true);
        let flows: Vec<FlowFct> = (1..=100)
            .map(|k| FlowFct {
                size: 1000,
                fct: a.ideal_fct(1000) * k,
            })
            .collect();
        let s = a.overall(&flows).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.0).abs() < 1.0);
        assert!(a.overall(&[]).is_none());
    }

    #[test]
    fn grouped_summaries_split_by_key() {
        let a = FctAnalyzer::new(LINE, RTT, true);
        let slow = |mult: u64| FlowFct {
            size: 1000,
            fct: a.ideal_fct(1000) * mult,
        };
        // Mice (key 1) at 2x ideal, elephants (key 0) at 10x; key 7 unused
        // keys never appear, keys come back ascending.
        let flows = vec![(1, slow(2)), (0, slow(10)), (1, slow(2)), (0, slow(10))];
        let groups = a.grouped(&flows);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[1].0, 1);
        let g0 = groups[0].1.unwrap();
        let g1 = groups[1].1.unwrap();
        assert_eq!(g0.count, 2);
        assert_eq!(g1.count, 2);
        assert!(g0.p50 > g1.p50, "elephants slower than mice");
        assert!((g1.p50 - 2.0).abs() < 0.1);
        assert!(a.grouped(&[]).is_empty());
    }
}
