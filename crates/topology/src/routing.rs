//! All-shortest-path ECMP route computation.
//!
//! For every destination host we run a breadth-first search over the
//! topology graph; a node's next-hop ports towards that destination are all
//! ports whose peer is one hop closer. The simulator picks among the
//! candidates with a per-flow hash (destination-based ECMP, as in the
//! paper's switch implementation, §4.1).
//!
//! The result is one flat CSR table (`RouteTable`): a switch looks a
//! destination up once per packet, so the lookup is two array indexations —
//! no hashing, no per-node map — and cloning a topology copies three
//! vectors.

use crate::spec::PortDesc;
use hpcc_types::{NodeId, PortId};
use std::collections::VecDeque;

/// `host_ord` value of a node that is not a host (never a route target).
const NOT_A_HOST: u32 = u32::MAX;

/// Equal-cost next-hop ports for every `(node, destination host)` pair in
/// compressed-sparse-row form.
#[derive(Clone, Debug)]
pub(crate) struct RouteTable {
    /// Node index → position in the host list, [`NOT_A_HOST`] for switches.
    host_ord: Vec<u32>,
    /// Row width of `spans`: the number of hosts.
    host_count: usize,
    /// `spans[node * host_count + host_ord[dst]]` is the `(start, len)` of
    /// that pair's candidates in `ports`; `len == 0` when `dst` is
    /// unreachable from `node` or is `node` itself.
    spans: Vec<(u32, u32)>,
    /// All candidate lists back to back, each in ascending port order.
    ports: Vec<PortId>,
}

impl RouteTable {
    /// The equal-cost next-hop ports of `node` towards `dst`; empty when
    /// `dst` is not a host, is unreachable, or is `node` itself.
    #[inline]
    pub(crate) fn next_hops(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        match self.host_ord.get(dst.index()) {
            Some(&ord) if ord != NOT_A_HOST => {
                let (start, len) = self.spans[node.index() * self.host_count + ord as usize];
                &self.ports[start as usize..][..len as usize]
            }
            _ => &[],
        }
    }
}

/// Compute the route table of a graph given as per-node port lists.
pub(crate) fn compute_routes(
    node_count: usize,
    ports: &[Vec<PortDesc>],
    hosts: &[NodeId],
) -> RouteTable {
    let mut host_ord = vec![NOT_A_HOST; node_count];
    for (ord, h) in hosts.iter().enumerate() {
        host_ord[h.index()] = ord as u32;
    }
    let mut spans = vec![(0u32, 0u32); node_count * hosts.len()];
    let mut flat: Vec<PortId> = Vec::new();
    let mut dist = vec![u32::MAX; node_count];
    let mut q = VecDeque::new();
    for (ord, &dst) in hosts.iter().enumerate() {
        // BFS from the destination: dist[n] = hops from n to dst.
        dist.fill(u32::MAX);
        dist[dst.index()] = 0;
        q.push_back(dst);
        while let Some(n) = q.pop_front() {
            let d = dist[n.index()];
            for p in &ports[n.index()] {
                let m = p.peer_node;
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = d + 1;
                    q.push_back(m);
                }
            }
        }
        // Next hops: every port whose peer is strictly closer to dst.
        for n in 0..node_count {
            if n == dst.index() || dist[n] == u32::MAX {
                continue;
            }
            let start = flat.len();
            flat.extend(
                ports[n]
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| dist[p.peer_node.index()] + 1 == dist[n])
                    .map(|(pi, _)| PortId(pi as u32)),
            );
            let start = u32::try_from(start).expect("route table fits u32 offsets");
            spans[n * hosts.len() + ord] = (start, flat.len() as u32 - start);
        }
    }
    RouteTable {
        host_ord,
        host_count: hosts.len(),
        spans,
        ports: flat,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{NodeKind, TopologyBuilder, TopologySpec};
    use hpcc_types::{Bandwidth, Duration};

    /// Two ToR switches, two spines, two hosts per ToR: the classic ECMP
    /// diamond where cross-rack traffic has two equal-cost paths.
    fn leaf_spine_2x2() -> TopologySpec {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(4);
        let tors = b.add_switches(2);
        let spines = b.add_switches(2);
        let bw = Bandwidth::from_gbps(100);
        let d = Duration::from_us(1);
        b.link(hosts[0], tors[0], bw, d);
        b.link(hosts[1], tors[0], bw, d);
        b.link(hosts[2], tors[1], bw, d);
        b.link(hosts[3], tors[1], bw, d);
        for &t in &tors {
            for &s in &spines {
                b.link(t, s, bw, d);
            }
        }
        b.build()
    }

    #[test]
    fn cross_rack_traffic_sees_two_equal_cost_paths() {
        let t = leaf_spine_2x2();
        let tor0 = NodeId(4);
        // From ToR0 towards host 2 (other rack): both spine uplinks qualify.
        let hops = t.next_hops(tor0, NodeId(2));
        assert_eq!(hops.len(), 2);
        // Towards a local host only the single host-facing port qualifies.
        let local = t.next_hops(tor0, NodeId(0));
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn spine_routes_down_to_the_right_tor() {
        let t = leaf_spine_2x2();
        let spine0 = NodeId(6);
        let down = t.next_hops(spine0, NodeId(3));
        assert_eq!(down.len(), 1);
        // Following that port must land on ToR1 (node 5).
        let desc = t.ports(spine0)[down[0].index()];
        assert_eq!(desc.peer_node, NodeId(5));
    }

    #[test]
    fn hosts_route_via_their_single_uplink() {
        let t = leaf_spine_2x2();
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    t.next_hops(NodeId(src), NodeId(dst)),
                    &[PortId(0)],
                    "host {src} to {dst}"
                );
            }
        }
    }

    #[test]
    fn path_hops_cross_vs_same_rack() {
        let t = leaf_spine_2x2();
        assert_eq!(t.path_hops(NodeId(0), NodeId(1)), Some(2));
        assert_eq!(t.path_hops(NodeId(0), NodeId(2)), Some(4));
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let _lonely = b.add_host();
        let s = b.add_switch();
        b.link(h0, s, Bandwidth::from_gbps(10), Duration::from_us(1));
        b.link(h1, s, Bandwidth::from_gbps(10), Duration::from_us(1));
        let t = b.build();
        assert!(t.next_hops(NodeId(0), NodeId(2)).is_empty());
        assert_eq!(t.path_hops(NodeId(0), NodeId(2)), None);
        // Neither reached nor reaching, from hosts and from the switch.
        for n in [h0, h1, s] {
            assert!(t.next_hops(n, NodeId(2)).is_empty());
            assert!(t.next_hops(NodeId(2), n).is_empty());
        }
        assert_routes_match_bfs("island", &t);
    }

    /// `dist[n]` = hops from `n` to `dst` by a plain BFS, `None` if
    /// unreachable — written against the public port lists only.
    fn bfs_dist(t: &TopologySpec, dst: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; t.node_count()];
        dist[dst.index()] = Some(0);
        let mut frontier = vec![dst];
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for n in frontier {
                for p in t.ports(n) {
                    if dist[p.peer_node.index()].is_none() {
                        dist[p.peer_node.index()] = Some(d);
                        next.push(p.peer_node);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Check the whole table of `t` against the BFS reference.
    fn assert_routes_match_bfs(name: &str, t: &TopologySpec) {
        for dst_index in 0..t.node_count() {
            let dst = NodeId(dst_index as u32);
            if t.kind(dst) == NodeKind::Switch {
                for n in 0..t.node_count() {
                    assert!(
                        t.next_hops(NodeId(n as u32), dst).is_empty(),
                        "{name}: route from {n} to switch {dst}"
                    );
                }
                continue;
            }
            let dist = bfs_dist(t, dst);
            for n in 0..t.node_count() {
                let node = NodeId(n as u32);
                let expected: Vec<PortId> = match dist[n] {
                    Some(d) if d > 0 => t
                        .ports(node)
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| dist[p.peer_node.index()] == Some(d - 1))
                        .map(|(pi, _)| PortId(pi as u32))
                        .collect(),
                    // `node == dst`, or no path at all.
                    _ => Vec::new(),
                };
                assert_eq!(t.next_hops(node, dst), expected, "{name}: {node} -> {dst}");
            }
        }
        // A destination outside the graph has no routes either.
        let outside = NodeId(t.node_count() as u32);
        assert!(t.next_hops(NodeId(0), outside).is_empty(), "{name}");
    }

    /// The six builder fabrics and every file of `corpus/`, by name.
    pub(crate) fn every_builder_and_corpus_topology() -> Vec<(String, TopologySpec)> {
        use crate::builders::*;
        let (bw, fast, d) = (
            Bandwidth::from_gbps(25),
            Bandwidth::from_gbps(100),
            Duration::from_us(1),
        );
        let clos54 = FatTreeParams {
            pods: 3,
            tors_per_pod: 3,
            aggs_per_pod: 3,
            cores: 6,
            hosts_per_tor: 6,
            ..FatTreeParams::small()
        };
        let mut all = vec![
            ("star".to_string(), star(5, bw, d)),
            ("dumbbell".into(), dumbbell(3, 2, bw, fast, d)),
            ("leaf_spine".into(), leaf_spine(3, 2, 4, bw, fast, d)),
            ("testbed_pod".into(), testbed_pod(d)),
            ("fat_tree 16".into(), fat_tree(FatTreeParams::small())),
            ("fat_tree 54".into(), fat_tree(clos54)),
        ];
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        for entry in std::fs::read_dir(&corpus).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let t = crate::corpus::parse(&text).unwrap().build();
            all.push((path.display().to_string(), t));
        }
        assert!(all.len() >= 10, "corpus directory not found at {corpus:?}");
        all
    }

    #[test]
    fn every_builder_and_corpus_topology_matches_a_bfs_reference() {
        for (name, t) in &every_builder_and_corpus_topology() {
            assert!(t.hosts().len() >= 5, "{name}");
            assert_routes_match_bfs(name, t);
        }
    }
}
