//! Topology description: nodes, links, ports and routing tables.
//!
//! A [`TopologySpec`] is produced once by a builder and then treated as
//! immutable by the simulator. Ports are assigned densely per node in the
//! order links are added; the route table lists, for every node and every
//! destination host, the set of equal-cost next-hop ports (one flat CSR
//! table — see [`crate::routing`]).

use crate::routing::{compute_routes, RouteTable};
use hpcc_types::{Bandwidth, Duration, NodeId, PortId};

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with a NIC (sender/receiver of flows).
    Host,
    /// A switch (forwards packets, stamps INT, marks ECN, generates PFC).
    Switch,
}

/// One bidirectional link between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Capacity of each direction.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub delay: Duration,
}

/// A port of a node: its peer and the attached link's properties.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PortDesc {
    /// The node on the other end of the link.
    pub peer_node: NodeId,
    /// The port index on the peer that this port connects to.
    pub peer_port: PortId,
    /// Egress capacity of this port.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay of the link.
    pub delay: Duration,
}

/// A fully built topology: nodes, per-node ports, and ECMP routes.
#[derive(Clone, Debug)]
pub struct TopologySpec {
    kinds: Vec<NodeKind>,
    links: Vec<LinkSpec>,
    /// The two `(node, port)` ends of every link, `a`'s first.
    link_ports: Vec<[(NodeId, PortId); 2]>,
    ports: Vec<Vec<PortDesc>>,
    /// Equal-cost next-hop ports per `(node, destination host)`.
    routes: RouteTable,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
}

impl TopologySpec {
    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }
    /// Kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }
    /// All host node ids.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }
    /// All switch node ids.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }
    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }
    /// The two ends of link `link` (an index into [`TopologySpec::links`]),
    /// `a`'s first: `ports(n)[p]` of either end `(n, p)` names the other.
    pub fn link_ports(&self, link: usize) -> [(NodeId, PortId); 2] {
        self.link_ports[link]
    }
    /// Ports of a node.
    pub fn ports(&self, node: NodeId) -> &[PortDesc] {
        &self.ports[node.index()]
    }
    /// The equal-cost next-hop ports of `node` towards destination host
    /// `dst`. Empty when `dst` is not a host, is unreachable, or
    /// `node == dst`.
    #[inline]
    pub fn next_hops(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        self.routes.next_hops(node, dst)
    }

    /// The number of hops (links) on a shortest path between two hosts.
    pub fn path_hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst {
            return Some(0);
        }
        let mut node = src;
        let mut hops = 0;
        // Routes always follow shortest paths, so walking the first
        // candidate port converges.
        while node != dst {
            let ports = self.next_hops(node, dst);
            let port = *ports.first()?;
            node = self.ports[node.index()][port.index()].peer_node;
            hops += 1;
            if hops > self.node_count() {
                return None;
            }
        }
        Some(hops)
    }

    /// One-way propagation delay plus one-MTU store-and-forward delay per
    /// hop along a shortest path between two hosts.
    pub fn path_one_way_delay(&self, src: NodeId, dst: NodeId, mtu_wire: u64) -> Option<Duration> {
        if src == dst {
            return Some(Duration::ZERO);
        }
        let mut node = src;
        let mut total = Duration::ZERO;
        let mut hops = 0;
        while node != dst {
            let ports = self.next_hops(node, dst);
            let port = *ports.first()?;
            let desc = self.ports[node.index()][port.index()];
            total += desc.delay + desc.bandwidth.tx_time(mtu_wire);
            node = desc.peer_node;
            hops += 1;
            if hops > self.node_count() {
                return None;
            }
        }
        Some(total)
    }

    /// A base-RTT estimate for the whole network: twice the largest one-way
    /// delay between any pair of hosts (propagation + store-and-forward of
    /// one MTU per hop), rounded up to the next microsecond. This mirrors the
    /// paper's practice of setting `T` "slightly greater than the maximum
    /// base RTT" (§5.1).
    pub fn suggested_base_rtt(&self, mtu_wire: u64) -> Duration {
        let mut max_one_way = Duration::ZERO;
        // The maximum is attained between the "farthest" pair; scanning all
        // pairs is O(H^2) walks but each walk is short. For large topologies
        // sample only the first host against all others plus a diagonal pair
        // sweep — sufficient because Clos topologies are symmetric.
        let hosts = &self.hosts;
        if hosts.is_empty() {
            return Duration::from_us(1);
        }
        let probes: Vec<NodeId> = if hosts.len() > 64 {
            vec![hosts[0], hosts[hosts.len() / 2], hosts[hosts.len() - 1]]
        } else {
            hosts.clone()
        };
        for &src in &probes {
            for &dst in hosts {
                if src == dst {
                    continue;
                }
                if let Some(d) = self.path_one_way_delay(src, dst, mtu_wire) {
                    max_one_way = max_one_way.max(d);
                }
            }
        }
        let rtt_ps = 2 * max_one_way.as_ps();
        // Round up to a whole microsecond and add one for slack.
        Duration::from_us(rtt_ps.div_ceil(1_000_000) + 1)
    }

    /// Rack assignment of every host, as one rack id per position in
    /// [`TopologySpec::hosts`].
    ///
    /// A host's rack is the switch its first port connects to (its ToR), so
    /// the grouping falls out of the wiring: every host of a star shares one
    /// rack, a dumbbell has a left and a right rack, the testbed PoD has
    /// four 8-host racks and a Clos fabric one rack per ToR. Rack ids are
    /// dense (`0..rack_count`) in order of first appearance, which follows
    /// host order for every in-tree builder. A host with no links (possible
    /// only through hand-built topologies) gets a rack of its own.
    ///
    /// This is what locality-aware workload generation keys on: see
    /// `LocalitySpec` in `hpcc-workload`.
    pub fn host_rack_ids(&self) -> Vec<usize> {
        const UNSEEN: usize = usize::MAX;
        let mut rack_of_switch = vec![UNSEEN; self.node_count()];
        let mut next = 0usize;
        let mut fresh = || {
            next += 1;
            next - 1
        };
        self.hosts
            .iter()
            .map(|&h| match self.ports[h.index()].first() {
                Some(port) => {
                    let rack = &mut rack_of_switch[port.peer_node.index()];
                    if *rack == UNSEEN {
                        *rack = fresh();
                    }
                    *rack
                }
                None => fresh(),
            })
            .collect()
    }

    /// Total host-facing capacity (sum of host NIC bandwidths), the
    /// denominator of "average link load" in the paper's workloads.
    pub fn total_host_bandwidth(&self) -> Bandwidth {
        let mut total = 0u64;
        for &h in &self.hosts {
            for p in &self.ports[h.index()] {
                total += p.bandwidth.as_bps();
            }
        }
        Bandwidth::from_bps(total)
    }
}

/// Incremental builder for a [`TopologySpec`].
#[derive(Default, Debug)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    links: Vec<LinkSpec>,
}

impl TopologyBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host and return its id.
    pub fn add_host(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Host);
        NodeId(self.kinds.len() as u32 - 1)
    }

    /// Add `n` hosts and return their ids.
    pub fn add_hosts(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Add a switch and return its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Switch);
        NodeId(self.kinds.len() as u32 - 1)
    }

    /// Add `n` switches and return their ids.
    pub fn add_switches(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_switch()).collect()
    }

    /// Connect two nodes with a bidirectional link.
    pub fn link(&mut self, a: NodeId, b: NodeId, bandwidth: Bandwidth, delay: Duration) {
        assert!(a.index() < self.kinds.len(), "unknown node {a}");
        assert!(b.index() < self.kinds.len(), "unknown node {b}");
        assert_ne!(a, b, "self-links are not allowed");
        self.links.push(LinkSpec {
            a,
            b,
            bandwidth,
            delay,
        });
    }

    /// Finalise: assign ports and compute all-shortest-path ECMP routes.
    pub fn build(self) -> TopologySpec {
        let n = self.kinds.len();
        let mut ports: Vec<Vec<PortDesc>> = vec![Vec::new(); n];
        let mut link_ports = Vec::with_capacity(self.links.len());
        for link in &self.links {
            let pa = PortId(ports[link.a.index()].len() as u32);
            let pb = PortId(ports[link.b.index()].len() as u32);
            link_ports.push([(link.a, pa), (link.b, pb)]);
            ports[link.a.index()].push(PortDesc {
                peer_node: link.b,
                peer_port: pb,
                bandwidth: link.bandwidth,
                delay: link.delay,
            });
            ports[link.b.index()].push(PortDesc {
                peer_node: link.a,
                peer_port: pa,
                bandwidth: link.bandwidth,
                delay: link.delay,
            });
        }
        let hosts: Vec<NodeId> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Host)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let switches: Vec<NodeId> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Switch)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let routes = compute_routes(n, &ports, &hosts);
        TopologySpec {
            kinds: self.kinds,
            links: self.links,
            link_ports,
            ports,
            routes,
            hosts,
            switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts_one_switch() -> TopologySpec {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch();
        b.link(h0, s, Bandwidth::from_gbps(100), Duration::from_us(1));
        b.link(h1, s, Bandwidth::from_gbps(100), Duration::from_us(1));
        b.build()
    }

    #[test]
    fn ports_are_assigned_symmetrically() {
        let t = two_hosts_one_switch();
        assert_eq!(t.ports(NodeId(0)).len(), 1);
        assert_eq!(t.ports(NodeId(2)).len(), 2);
        let host_port = t.ports(NodeId(0))[0];
        assert_eq!(host_port.peer_node, NodeId(2));
        let back = t.ports(NodeId(2))[host_port.peer_port.index()];
        assert_eq!(back.peer_node, NodeId(0));
        assert_eq!(back.peer_port, PortId(0));
    }

    #[test]
    fn link_ports_name_both_ends_of_every_link() {
        for (name, t) in &crate::routing::tests::every_builder_and_corpus_topology() {
            for (i, link) in t.links().iter().enumerate() {
                let [(a, pa), (b, pb)] = t.link_ports(i);
                assert_eq!((a, b), (link.a, link.b), "{name}: link {i}");
                let (at_a, at_b) = (t.ports(a)[pa.index()], t.ports(b)[pb.index()]);
                assert_eq!(
                    (at_a.peer_node, at_a.peer_port),
                    (b, pb),
                    "{name}: link {i}"
                );
                assert_eq!(
                    (at_b.peer_node, at_b.peer_port),
                    (a, pa),
                    "{name}: link {i}"
                );
            }
            // And every port is an end of exactly one link.
            let ports: usize = (0..t.node_count() as u32)
                .map(|n| t.ports(NodeId(n)).len())
                .sum();
            assert_eq!(ports, 2 * t.links().len(), "{name}");
        }
    }

    #[test]
    fn routes_reach_all_hosts() {
        let t = two_hosts_one_switch();
        // Host 0 to host 1: out of its single port.
        assert_eq!(t.next_hops(NodeId(0), NodeId(1)), &[PortId(0)]);
        // Switch towards host 1: port 1 (the second link added).
        assert_eq!(t.next_hops(NodeId(2), NodeId(1)), &[PortId(1)]);
        // No route to self.
        assert!(t.next_hops(NodeId(1), NodeId(1)).is_empty());
        assert_eq!(t.path_hops(NodeId(0), NodeId(1)), Some(2));
    }

    #[test]
    fn base_rtt_accounts_for_propagation_and_serialization() {
        let t = two_hosts_one_switch();
        // One way: 2 us propagation + 2 hops of ~85 ns serialization for a
        // 1064-byte frame at 100 Gbps; doubled and rounded up -> 5-6 us.
        let rtt = t.suggested_base_rtt(1064);
        assert!(
            rtt >= Duration::from_us(5) && rtt <= Duration::from_us(6),
            "rtt={rtt}"
        );
    }

    #[test]
    fn host_bandwidth_totals() {
        let t = two_hosts_one_switch();
        assert_eq!(t.total_host_bandwidth(), Bandwidth::from_gbps(200));
        assert_eq!(t.hosts().len(), 2);
        assert_eq!(t.switches().len(), 1);
        assert_eq!(t.links().len(), 2);
        assert_eq!(t.kind(NodeId(0)), NodeKind::Host);
        assert_eq!(t.kind(NodeId(2)), NodeKind::Switch);
    }

    #[test]
    fn rack_ids_follow_the_first_hop_switch() {
        // Star: every host hangs off the single switch — one rack.
        let star = two_hosts_one_switch();
        assert_eq!(star.host_rack_ids(), vec![0, 0]);
        // Two racks of two hosts each, bridged by a core link.
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(4);
        let tors = b.add_switches(2);
        for (i, &h) in hosts.iter().enumerate() {
            b.link(
                h,
                tors[i / 2],
                Bandwidth::from_gbps(25),
                Duration::from_us(1),
            );
        }
        b.link(
            tors[0],
            tors[1],
            Bandwidth::from_gbps(100),
            Duration::from_us(1),
        );
        let t = b.build();
        assert_eq!(t.host_rack_ids(), vec![0, 0, 1, 1]);
        // A linkless host still gets a (unique) rack.
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let _island = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, Bandwidth::from_gbps(25), Duration::from_us(1));
        b.link(h2, sw, Bandwidth::from_gbps(25), Duration::from_us(1));
        assert_eq!(b.build().host_rack_ids(), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_rejected() {
        let mut b = TopologyBuilder::new();
        let h = b.add_host();
        b.link(h, h, Bandwidth::from_gbps(10), Duration::from_us(1));
    }
}
