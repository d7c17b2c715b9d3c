//! Ready-made topologies for the paper's experiments.

use crate::spec::{TopologyBuilder, TopologySpec};
use hpcc_types::{Bandwidth, Duration, NodeId};

/// A single switch with `n_hosts` hosts attached, all at `host_bw`.
///
/// Used for the micro-benchmarks: 2-to-1 congestion (Figure 6), 16-to-1
/// incast (Figures 13/14), fairness (Figure 9g/9h) and elephant/mice
/// latency (Figure 9e/9f).
pub fn star(n_hosts: usize, host_bw: Bandwidth, link_delay: Duration) -> TopologySpec {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n_hosts);
    let sw = b.add_switch();
    for h in hosts {
        b.link(h, sw, host_bw, link_delay);
    }
    b.build()
}

/// Two switches joined by one `core_bw` link, with `n_left`/`n_right` hosts
/// on each side at `host_bw`. The classic shared-bottleneck topology.
pub fn dumbbell(
    n_left: usize,
    n_right: usize,
    host_bw: Bandwidth,
    core_bw: Bandwidth,
    link_delay: Duration,
) -> TopologySpec {
    let mut b = TopologyBuilder::new();
    let left = b.add_hosts(n_left);
    let right = b.add_hosts(n_right);
    let s_left = b.add_switch();
    let s_right = b.add_switch();
    for h in left {
        b.link(h, s_left, host_bw, link_delay);
    }
    for h in right {
        b.link(h, s_right, host_bw, link_delay);
    }
    b.link(s_left, s_right, core_bw, link_delay);
    b.build()
}

/// The paper's testbed PoD (§5.1), single-homed simplification: one Agg
/// switch, four ToRs connected to it at 100 Gbps, 32 servers with one
/// 25 Gbps uplink each (8 per ToR).
///
/// The real testbed dual-homes every server to two ToRs; collapsing to a
/// single uplink keeps the ToR→Agg oversubscription (200 G of hosts behind a
/// 100 G uplink) and the base RTT in the same range, which is what the
/// congestion-control comparison depends on.
pub fn testbed_pod(link_delay: Duration) -> TopologySpec {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(32);
    let tors = b.add_switches(4);
    let agg = b.add_switch();
    for (i, h) in hosts.iter().enumerate() {
        b.link(*h, tors[i / 8], Bandwidth::from_gbps(25), link_delay);
    }
    for t in tors {
        b.link(t, agg, Bandwidth::from_gbps(100), link_delay);
    }
    b.build()
}

/// A two-tier leaf-spine fabric: `n_leaf` ToRs each with `hosts_per_leaf`
/// hosts at `host_bw`, fully meshed to `n_spine` spines at `fabric_bw`.
pub fn leaf_spine(
    n_leaf: usize,
    n_spine: usize,
    hosts_per_leaf: usize,
    host_bw: Bandwidth,
    fabric_bw: Bandwidth,
    link_delay: Duration,
) -> TopologySpec {
    let mut b = TopologyBuilder::new();
    let mut tors = Vec::new();
    for _ in 0..n_leaf {
        let hosts = b.add_hosts(hosts_per_leaf);
        let tor = b.add_switch();
        for h in hosts {
            b.link(h, tor, host_bw, link_delay);
        }
        tors.push(tor);
    }
    let spines = b.add_switches(n_spine);
    for &t in &tors {
        for &s in &spines {
            b.link(t, s, fabric_bw, link_delay);
        }
    }
    b.build()
}

/// Parameters of the three-tier Clos fabric of §5.1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FatTreeParams {
    /// Number of pods (groups of ToR + Agg switches).
    pub pods: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Agg switches per pod.
    pub aggs_per_pod: usize,
    /// Core switches (each Agg connects to all of them).
    pub cores: usize,
    /// Hosts per ToR.
    pub hosts_per_tor: usize,
    /// Host NIC bandwidth.
    pub host_bw: Bandwidth,
    /// ToR–Agg and Agg–Core link bandwidth.
    pub fabric_bw: Bandwidth,
    /// One-way propagation delay of every link.
    pub link_delay: Duration,
}

impl FatTreeParams {
    /// The paper's simulation fabric (§5.1): 16 Core, 20 Agg, 20 ToR, 320
    /// servers at 100 Gbps, 400 Gbps fabric links, 1 µs per-link delay
    /// (max base RTT ≈ 12 µs). Modeled as 4 pods of 5 ToR + 5 Agg.
    pub fn paper() -> Self {
        FatTreeParams {
            pods: 4,
            tors_per_pod: 5,
            aggs_per_pod: 5,
            cores: 16,
            hosts_per_tor: 16,
            host_bw: Bandwidth::from_gbps(100),
            fabric_bw: Bandwidth::from_gbps(400),
            link_delay: Duration::from_us(1),
        }
    }

    /// A scaled-down fabric with the same structure (2 pods of 2+2, 4 cores,
    /// 4 hosts per ToR = 16 hosts) for laptop-scale figure regeneration.
    pub fn small() -> Self {
        FatTreeParams {
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            hosts_per_tor: 4,
            host_bw: Bandwidth::from_gbps(25),
            fabric_bw: Bandwidth::from_gbps(100),
            link_delay: Duration::from_us(1),
        }
    }

    /// Total number of hosts this fabric will have.
    pub fn total_hosts(&self) -> usize {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }
}

/// Build the three-tier Clos ("FatTree" in the paper's terminology) fabric.
///
/// Structure: each ToR connects to every Agg in its pod; each Agg connects to
/// every Core. All fabric links share `fabric_bw`.
pub fn fat_tree(p: FatTreeParams) -> TopologySpec {
    let mut b = TopologyBuilder::new();
    let cores = b.add_switches(p.cores);
    for _pod in 0..p.pods {
        let aggs = b.add_switches(p.aggs_per_pod);
        for _t in 0..p.tors_per_pod {
            let tor = b.add_switch();
            let hosts = b.add_hosts(p.hosts_per_tor);
            for h in hosts {
                b.link(h, tor, p.host_bw, p.link_delay);
            }
            for &a in &aggs {
                b.link(tor, a, p.fabric_bw, p.link_delay);
            }
        }
        for &a in &aggs {
            for &c in &cores {
                b.link(a, c, p.fabric_bw, p.link_delay);
            }
        }
    }
    b.build()
}

/// Pick the `i`-th host of a topology (convenience for workload generators
/// and examples).
pub fn host(topo: &TopologySpec, i: usize) -> NodeId {
    topo.hosts()[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_has_expected_shape() {
        let t = star(16, Bandwidth::from_gbps(100), Duration::from_us(1));
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.switches().len(), 1);
        assert_eq!(t.links().len(), 16);
        assert_eq!(t.path_hops(t.hosts()[0], t.hosts()[15]), Some(2));
    }

    #[test]
    fn dumbbell_routes_through_core_link() {
        let t = dumbbell(
            3,
            3,
            Bandwidth::from_gbps(25),
            Bandwidth::from_gbps(100),
            Duration::from_us(1),
        );
        assert_eq!(t.hosts().len(), 6);
        assert_eq!(t.switches().len(), 2);
        // Left host to right host crosses 3 links.
        assert_eq!(t.path_hops(t.hosts()[0], t.hosts()[3]), Some(3));
        // Same side: 2 links.
        assert_eq!(t.path_hops(t.hosts()[0], t.hosts()[1]), Some(2));
    }

    #[test]
    fn testbed_pod_matches_paper_shape() {
        let t = testbed_pod(Duration::from_us(1));
        assert_eq!(t.hosts().len(), 32);
        assert_eq!(t.switches().len(), 5);
        // 32 host links + 4 uplinks.
        assert_eq!(t.links().len(), 36);
        // Same rack: 2 hops; cross rack: host->ToR->Agg->ToR->host = 4.
        assert_eq!(t.path_hops(t.hosts()[0], t.hosts()[1]), Some(2));
        assert_eq!(t.path_hops(t.hosts()[0], t.hosts()[31]), Some(4));
        // Base RTT lands in the single-digit microseconds like the testbed
        // (5.4–8.5 us measured in §5.1).
        let rtt = t.suggested_base_rtt(1106);
        assert!(
            rtt >= Duration::from_us(4) && rtt <= Duration::from_us(12),
            "rtt = {rtt}"
        );
    }

    #[test]
    fn paper_fat_tree_matches_scale() {
        let p = FatTreeParams::paper();
        assert_eq!(p.total_hosts(), 320);
        let t = fat_tree(p);
        assert_eq!(t.hosts().len(), 320);
        // 16 core + 20 agg + 20 tor = 56 switches.
        assert_eq!(t.switches().len(), 56);
        // Host links 320 + ToR-Agg 20*5 + Agg-Core 20*16 = 740.
        assert_eq!(t.links().len(), 740);
        // Cross-pod path: host->ToR->Agg->Core->Agg->ToR->host = 6 hops.
        let h0 = t.hosts()[0];
        let h_far = t.hosts()[319];
        assert_eq!(t.path_hops(h0, h_far), Some(6));
        // Max base RTT close to the paper's 12 us, over every host pair.
        assert_eq!(t.suggested_base_rtt(1106), Duration::from_us(14));
    }

    #[test]
    fn small_fat_tree_is_consistent() {
        let p = FatTreeParams::small();
        let t = fat_tree(p);
        assert_eq!(t.hosts().len(), p.total_hosts());
        assert_eq!(t.switches().len(), 4 + 2 * (2 + 2));
        // ECMP: a ToR has two equal-cost Agg uplinks for cross-pod traffic.
        let h0 = t.hosts()[0];
        let h_far = t.hosts()[p.total_hosts() - 1];
        let tor_of_h0 = t.ports(h0)[0].peer_node;
        assert_eq!(t.next_hops(tor_of_h0, h_far).len(), 2);
        assert_eq!(t.suggested_base_rtt(1106), Duration::from_us(16));
    }

    #[test]
    fn leaf_spine_ecmp_width_equals_spine_count() {
        let t = leaf_spine(
            4,
            3,
            2,
            Bandwidth::from_gbps(25),
            Bandwidth::from_gbps(100),
            Duration::from_us(1),
        );
        let h0 = t.hosts()[0];
        let h_other_rack = t.hosts()[7];
        let tor = t.ports(h0)[0].peer_node;
        assert_eq!(t.next_hops(tor, h_other_rack).len(), 3);
        assert_eq!(host(&t, 0), h0);
    }
}
