//! Property-style tests on the core data structures and invariants that the
//! rest of the system leans on.
//!
//! The original proptest harness is replaced by deterministic seeded
//! sampling (the build environment vendors no external crates): each
//! property is checked against a few hundred pseudo-random cases drawn from
//! a fixed-seed [`SplitMix64`] stream, so failures reproduce exactly.

use hpcc::cc::{
    build_cc, AckEvent, CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, TimelyConfig,
};
use hpcc::core::wire::WireError;
use hpcc::prelude::*;
use hpcc::types::rng::SplitMix64;
use hpcc::types::{IntHeader, IntHopRecord};

const LINE: Bandwidth = Bandwidth::from_gbps(100);
const RTT: Duration = Duration::from_us(13);

fn all_schemes() -> Vec<CcAlgorithm> {
    vec![
        CcAlgorithm::Hpcc(HpccConfig::default()),
        CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(LINE)),
        CcAlgorithm::DcqcnWin(DcqcnConfig::vendor_default(LINE)),
        CcAlgorithm::Timely(TimelyConfig::recommended(LINE, RTT)),
        CcAlgorithm::TimelyWin(TimelyConfig::recommended(LINE, RTT)),
        CcAlgorithm::Dctcp(DctcpConfig::default()),
    ]
}

/// Time arithmetic: (t + d) - d == t and durations add commutatively, for
/// any representable values.
#[test]
fn time_arithmetic_roundtrips() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..500 {
        let t = SimTime::from_ns(rng.next_below(u64::MAX / 4_000));
        let d = Duration::from_ns(rng.next_below(u64::MAX / 4_000));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), Duration::ZERO);
    }
}

/// Bandwidth: tx_time and bytes_in invert each other (within one byte of
/// rounding) for realistic link speeds and packet sizes.
#[test]
fn bandwidth_tx_time_inverts() {
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..500 {
        let gbps = 1 + rng.next_below(799);
        let bytes = 1 + rng.next_below(999_999);
        let b = Bandwidth::from_gbps(gbps);
        let d = b.tx_time(bytes);
        let back = b.bytes_in(d);
        assert!(back.abs_diff(bytes) <= 1, "{bytes} -> {d} -> {back}");
    }
}

/// The INT header's wire size always matches 2 + 8 * hops, and the path id
/// is the XOR of all pushed switch ids regardless of overflow.
#[test]
fn int_header_size_and_path_id() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..200 {
        let n = rng.next_below(12) as usize;
        let ids: Vec<u16> = (0..n).map(|_| rng.next_below(4096) as u16).collect();
        let mut h = IntHeader::new();
        for (i, id) in ids.iter().enumerate() {
            h.push_hop(
                *id,
                IntHopRecord {
                    bandwidth: LINE,
                    ts: SimTime::from_ns(i as u64),
                    tx_bytes: i as u64 * 1000,
                    rx_bytes: i as u64 * 1000,
                    qlen: i as u64,
                },
            );
        }
        let expected_hops = ids.len().min(hpcc::types::MAX_INT_HOPS);
        assert_eq!(h.n_hops as usize, expected_hops);
        assert_eq!(h.wire_size(), 2 + 8 * expected_hops as u64);
        let xor = ids.iter().fold(0u16, |acc, id| acc ^ id);
        assert_eq!(h.path_id, xor);
    }
}

/// Every congestion-control algorithm keeps its rate within [min, line rate]
/// and its window positive, no matter what sequence of ACK / ECN / CNP /
/// loss / timer events it sees.
#[test]
fn cc_state_stays_bounded() {
    let mut seeds = SplitMix64::new(0xD1CE);
    for _ in 0..25 {
        let seed = seeds.next_u64();
        let steps = 10 + seeds.next_below(190) as usize;
        let mut rng = SplitMix64::new(seed);
        for alg in all_schemes() {
            let mut cc = build_cc(&alg, LINE, RTT, 1000);
            let mut now = SimTime::ZERO;
            let mut tx_bytes = 0u64;
            let mut seq = 0u64;
            for _ in 0..steps {
                now += Duration::from_ns(1 + rng.next_below(20_000));
                let r = rng.next_below(100);
                if r < 60 {
                    // ACK with plausible INT contents.
                    tx_bytes += rng.next_below(200_000);
                    seq += 1000 + rng.next_below(50_000);
                    let mut int = IntHeader::new();
                    int.push_hop(
                        1,
                        IntHopRecord {
                            bandwidth: LINE,
                            ts: now,
                            tx_bytes,
                            rx_bytes: tx_bytes,
                            qlen: rng.next_below(2_000_000),
                        },
                    );
                    let ack = AckEvent {
                        now,
                        ack_seq: seq,
                        snd_nxt: seq + rng.next_below(200_000),
                        newly_acked: 1000,
                        ecn_echo: rng.next_below(4) == 0,
                        rtt: Duration::from_us(5 + rng.next_below(500)),
                        int: &int,
                    };
                    cc.on_ack(&ack);
                } else if r < 75 {
                    cc.on_cnp(now);
                } else if r < 85 {
                    cc.on_loss(now);
                } else if let Some(t) = cc.next_timer() {
                    if t <= now {
                        cc.on_timer(now);
                    }
                }
                let st = cc.state();
                assert!(st.rate.as_bps() > 0, "{}: zero rate", cc.name());
                assert!(st.rate <= LINE, "{}: rate above line", cc.name());
                assert!(st.window > 0, "{}: zero window", cc.name());
            }
        }
    }
}

/// The workload CDFs always return sizes inside their support and the
/// quantile function is monotone.
#[test]
fn flow_size_cdfs_are_well_behaved() {
    let mut rng = SplitMix64::new(0xFACADE);
    for _ in 0..500 {
        let (u1, u2) = (rng.next_f64(), rng.next_f64());
        for cdf in [websearch(), fb_hadoop()] {
            let (lo, hi) = (u1.min(u2), u1.max(u2));
            let a = cdf.quantile(lo);
            let b = cdf.quantile(hi);
            assert!(a >= 1);
            assert!(b <= cdf.points().last().unwrap().0);
            assert!(a <= b, "{}: quantile not monotone", cdf.name());
        }
    }
}

/// ECMP routing: every host pair in a leaf-spine fabric has at least one
/// route from every node on the path, and the path length is bounded by
/// 4 hops (host-ToR-spine-ToR-host).
#[test]
fn leaf_spine_routing_is_complete() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..12 {
        let n_leaf = 2 + rng.next_below(3) as usize;
        let n_spine = 1 + rng.next_below(3) as usize;
        let hosts_per = 1 + rng.next_below(3) as usize;
        let topo = leaf_spine(
            n_leaf,
            n_spine,
            hosts_per,
            Bandwidth::from_gbps(25),
            Bandwidth::from_gbps(100),
            Duration::from_us(1),
        );
        let hosts = topo.hosts();
        for &src in hosts.iter() {
            for &dst in hosts.iter() {
                if src == dst {
                    continue;
                }
                let hops = topo.path_hops(src, dst);
                assert!(hops.is_some());
                assert!(hops.unwrap() <= 4);
            }
        }
    }
}

/// A tiny mixed-scheme campaign for the fabric-ledger properties: four
/// schemes over an incast, cheap enough to re-execute indices many times
/// (duplicate deliveries re-run the scenario, as a real fabric worker
/// would after a lease reassignment).
fn fabric_property_campaign() -> Campaign {
    use hpcc::core::presets::incast_on_star;
    Campaign::from_scenarios(
        ["HPCC", "DCQCN", "TIMELY", "DCTCP"]
            .iter()
            .enumerate()
            .map(|(i, label)| {
                incast_on_star(
                    *label,
                    CcSpec::by_label(*label),
                    3 + i % 2,
                    20_000,
                    Bandwidth::from_gbps(25),
                    Duration::from_ms(1),
                )
                .with_seed(i as u64 + 1)
            })
            .collect(),
    )
}

/// Fabric ledger invariance: for every worker count `k ∈ {1..4}`, any
/// interleaving of per-worker completion orders, and randomly injected
/// duplicate deliveries, the merged report is bit-identical to
/// `run_serial()` — digests and canonical JSON — and the ledger accounts
/// exactly for the duplicates it absorbed.
#[test]
fn fabric_ledger_is_invariant_to_order_duplicates_and_worker_count() {
    let campaign = fabric_property_campaign();
    let serial = campaign.run_serial();
    let reference_json = serial.to_json_string();
    let mut rng = SplitMix64::new(0xFAB51C);
    for k in 1usize..=4 {
        for _round in 0..3 {
            // Each worker owns the indices `i % k == w`, completes them in
            // its own shuffled order, and the streams interleave randomly
            // — exactly the delivery pattern an elastic coordinator sees.
            let mut queues: Vec<Vec<usize>> = (0..k)
                .map(|w| (0..campaign.len()).filter(|i| i % k == w).collect())
                .collect();
            for q in &mut queues {
                for i in (1..q.len()).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    q.swap(i, j);
                }
                // A reassigned lease delivers some indices twice.
                if let Some(&dup) = q.first() {
                    if rng.next_below(2) == 0 {
                        q.push(dup);
                    }
                }
            }
            let mut deliveries = Vec::new();
            while queues.iter().any(|q| !q.is_empty()) {
                let w = rng.next_below(k as u64) as usize;
                if let Some(&i) = queues[w].first() {
                    queues[w].remove(0);
                    deliveries.push(i);
                }
            }
            let mut ledger = ResultLedger::new(campaign.len());
            let mut fresh = 0usize;
            for &i in &deliveries {
                // Re-executing an index (a duplicate delivery) must yield
                // the identical digest, and the ledger absorbs it.
                let new = ledger
                    .record(i, campaign.run_index(i))
                    .unwrap_or_else(|e| panic!("k={k}: unexpected conflict: {e}"));
                fresh += usize::from(new);
            }
            assert!(ledger.is_complete(), "k={k}");
            assert_eq!(fresh, campaign.len(), "k={k}");
            assert_eq!(
                ledger.deduped() as usize,
                deliveries.len() - campaign.len(),
                "k={k}"
            );
            let report = ledger
                .into_report()
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(report.digests(), serial.digests(), "k={k}");
            assert_eq!(report.to_json_string(), reference_json, "k={k}");
        }
    }
}

/// A doctored duplicate — same index, different digest — is a typed
/// determinism error, never silently preferred or dropped.
#[test]
fn fabric_ledger_rejects_conflicting_digests() {
    let campaign = fabric_property_campaign();
    let mut ledger = ResultLedger::new(campaign.len());
    assert!(ledger.record(0, campaign.run_index(0)).unwrap());
    let mut evil = campaign.run_index(0);
    evil.digest ^= 1;
    match ledger.record(0, evil) {
        Err(WireError::DigestConflict {
            index: 0,
            have,
            got,
        }) => {
            assert_eq!(have ^ 1, got);
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("conflicting digest accepted"),
    }
    // The conflict is sticky state-wise: the original result survives.
    assert!(ledger.contains(0));
    assert_eq!(ledger.deduped(), 0);
}

/// A small deterministic simulation invariant: conservation — every data
/// packet delivered was sent, and all completed flows acked exactly their
/// size (checked through the goodput accounting).
#[test]
fn simulation_conserves_bytes() {
    let bw = Bandwidth::from_gbps(25);
    let topo = star(6, bw, Duration::from_us(1));
    let rtt = topo.suggested_base_rtt(1106);
    let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), bw, rtt);
    cfg.end_time = SimTime::from_ms(20);
    cfg.measure.goodput_bin = Some(Duration::from_us(100));
    let hosts = topo.hosts().to_vec();
    let mut sim = Simulator::new(topo, cfg);
    for i in 0..5u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i + 1),
            hosts[i as usize],
            hosts[(i as usize + 1) % 5],
            200_000 + i * 50_000,
            SimTime::from_us(i * 10),
        ));
    }
    let out = sim.run();
    assert_eq!(out.flows.len(), 5);
    assert!(out.packets_sent >= out.packets_delivered);
    for f in &out.flows {
        let acked: u64 = out.flow_goodput[&f.id].iter().sum();
        assert_eq!(acked, f.size, "flow {} acked bytes mismatch", f.id);
    }
}
