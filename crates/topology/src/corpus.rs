//! Topology corpus importer: parse external topology files into a
//! [`TopologySpec`] without any dependencies.
//!
//! Corpus files are edge lists — a line-oriented text format, also the
//! canonical output of [`CorpusTopology::to_edge_list`]:
//!
//! ```text
//! # comment
//! node h0 host
//! node s0 switch
//! link h0 s0 25Gbps 1us
//! ```
//!
//! Bandwidths accept `bps`/`kbps`/`mbps`/`gbps` suffixes (decimal values
//! allowed, case-insensitive); delays accept `ps`/`ns`/`us`/`ms`/`s`. Every
//! host has exactly one link (its NIC); switches have any number.
//!
//! [`parse`] checks all of this where the file enters: malformed text is a
//! typed [`CorpusError`] carrying its line, never a panic later on. Parsing
//! produces a [`CorpusTopology`] — the named graph — which builds into a
//! routed [`TopologySpec`] via [`CorpusTopology::build`] and re-emits
//! canonically via [`CorpusTopology::to_edge_list`]; parse → emit → parse is
//! an identity (the round-trip is covered by tests and by `hpcc topo
//! convert`).

use crate::spec::{NodeKind, TopologyBuilder, TopologySpec};
use hpcc_types::{Bandwidth, Duration};
use std::collections::BTreeMap;
use std::fmt;

/// A typed corpus-parsing error: what went wrong, and on which input line
/// (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// A line that doesn't match the grammar.
    Syntax {
        /// 1-based input line.
        line: usize,
        /// What was expected.
        msg: String,
    },
    /// A `link` references a node never declared.
    UnknownNode {
        /// 1-based input line.
        line: usize,
        /// The undeclared node name.
        name: String,
    },
    /// The same node name declared twice.
    DuplicateNode {
        /// 1-based input line.
        line: usize,
        /// The repeated node name.
        name: String,
    },
    /// A bandwidth or delay that doesn't parse.
    BadQuantity {
        /// 1-based input line.
        line: usize,
        /// The offending token.
        value: String,
    },
    /// A link from a node to itself.
    SelfLink {
        /// 1-based input line.
        line: usize,
        /// The node name.
        name: String,
    },
    /// The file parsed but declares no hosts (nothing to simulate).
    NoHosts,
    /// A host with other than one link (the host model has one NIC).
    HostLinks {
        /// 1-based line of the host's `node` declaration.
        line: usize,
        /// The host's name.
        name: String,
        /// How many links the file gives it.
        links: usize,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            CorpusError::UnknownNode { line, name } => {
                write!(f, "line {line}: unknown node {name:?}")
            }
            CorpusError::DuplicateNode { line, name } => {
                write!(f, "line {line}: duplicate node {name:?}")
            }
            CorpusError::BadQuantity { line, value } => {
                write!(f, "line {line}: unparseable quantity {value:?}")
            }
            CorpusError::SelfLink { line, name } => {
                write!(f, "line {line}: self-link on node {name:?}")
            }
            CorpusError::NoHosts => write!(f, "topology declares no hosts"),
            CorpusError::HostLinks { line, name, links } => write!(
                f,
                "line {line}: host {name:?} has {links} links (a host has exactly one)"
            ),
        }
    }
}

impl std::error::Error for CorpusError {}

/// A parsed corpus topology: the named graph, before ports and routes are
/// computed. Node order and link order follow the input file.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusTopology {
    nodes: Vec<(String, NodeKind)>,
    links: Vec<(usize, usize, Bandwidth, Duration)>,
}

impl CorpusTopology {
    /// Node names and kinds, in declaration order (which is also
    /// [`hpcc_types::NodeId`] order after [`CorpusTopology::build`]).
    pub fn nodes(&self) -> &[(String, NodeKind)] {
        &self.nodes
    }

    /// Links as `(a, b, bandwidth, delay)` node-index tuples, in declaration
    /// order (which is also link-index order after
    /// [`CorpusTopology::build`] — the index fault specs reference).
    pub fn links(&self) -> &[(usize, usize, Bandwidth, Duration)] {
        &self.links
    }

    /// Number of declared hosts.
    pub fn host_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|(_, k)| *k == NodeKind::Host)
            .count()
    }

    /// Build the routed [`TopologySpec`] (ports assigned in link order, ECMP
    /// routes computed).
    pub fn build(&self) -> TopologySpec {
        let mut b = TopologyBuilder::new();
        let ids: Vec<_> = self
            .nodes
            .iter()
            .map(|(_, kind)| match kind {
                NodeKind::Host => b.add_host(),
                NodeKind::Switch => b.add_switch(),
            })
            .collect();
        for &(a, z, bw, delay) in &self.links {
            b.link(ids[a], ids[z], bw, delay);
        }
        b.build()
    }

    /// Emit the canonical edge list: nodes first, then links, base units
    /// (`bps`, `ps`) so the round-trip is exact.
    pub fn to_edge_list(&self) -> String {
        let mut out = String::from("# hpcc-topology corpus (canonical edge list)\n");
        for (name, kind) in &self.nodes {
            let kind = match kind {
                NodeKind::Host => "host",
                NodeKind::Switch => "switch",
            };
            out.push_str(&format!("node {name} {kind}\n"));
        }
        for &(a, z, bw, delay) in &self.links {
            out.push_str(&format!(
                "link {} {} {}bps {}ps\n",
                self.nodes[a].0,
                self.nodes[z].0,
                bw.as_bps(),
                delay.as_ps()
            ));
        }
        out
    }
}

/// Parse a corpus file: the line-oriented edge list of the module docs.
/// After the grammar, every host must have exactly one link — the host
/// model is a single NIC, so a multi-homed or unplugged host is refused
/// here, at the file, rather than where the simulator builds it.
pub fn parse(text: &str) -> Result<CorpusTopology, CorpusError> {
    let mut nodes: Vec<(String, NodeKind)> = Vec::new();
    let mut node_lines = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut links = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        match fields[0] {
            "node" => {
                if fields.len() != 3 {
                    return Err(CorpusError::Syntax {
                        line,
                        msg: format!("expected `node <name> host|switch`, got {content:?}"),
                    });
                }
                let kind = match fields[2] {
                    "host" => NodeKind::Host,
                    "switch" => NodeKind::Switch,
                    other => {
                        return Err(CorpusError::Syntax {
                            line,
                            msg: format!("node kind must be `host` or `switch`, got {other:?}"),
                        })
                    }
                };
                let name = fields[1].to_string();
                if index.contains_key(&name) {
                    return Err(CorpusError::DuplicateNode { line, name });
                }
                index.insert(name.clone(), nodes.len());
                nodes.push((name, kind));
                node_lines.push(line);
            }
            "link" => {
                if fields.len() != 5 {
                    return Err(CorpusError::Syntax {
                        line,
                        msg: format!(
                            "expected `link <a> <b> <bandwidth> <delay>`, got {content:?}"
                        ),
                    });
                }
                let a = *index
                    .get(fields[1])
                    .ok_or_else(|| CorpusError::UnknownNode {
                        line,
                        name: fields[1].to_string(),
                    })?;
                let z = *index
                    .get(fields[2])
                    .ok_or_else(|| CorpusError::UnknownNode {
                        line,
                        name: fields[2].to_string(),
                    })?;
                if a == z {
                    return Err(CorpusError::SelfLink {
                        line,
                        name: fields[1].to_string(),
                    });
                }
                let bw = parse_bandwidth(fields[3], line)?;
                let delay = parse_delay(fields[4], line)?;
                links.push((a, z, bw, delay));
            }
            other => {
                return Err(CorpusError::Syntax {
                    line,
                    msg: format!("unknown directive {other:?} (expected `node` or `link`)"),
                })
            }
        }
    }
    if !nodes.iter().any(|(_, k)| *k == NodeKind::Host) {
        return Err(CorpusError::NoHosts);
    }
    let mut degree = vec![0usize; nodes.len()];
    for &(a, z, ..) in &links {
        degree[a] += 1;
        degree[z] += 1;
    }
    let miswired = (0..nodes.len()).find(|&n| nodes[n].1 == NodeKind::Host && degree[n] != 1);
    if let Some(n) = miswired {
        return Err(CorpusError::HostLinks {
            line: node_lines[n],
            name: nodes[n].0.clone(),
            links: degree[n],
        });
    }
    Ok(CorpusTopology { nodes, links })
}

/// Split `"25Gbps"` into `(25.0, "gbps")`; decimal values allowed.
fn split_quantity(token: &str, line: usize) -> Result<(f64, String), CorpusError> {
    let split = token
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(token.len());
    let (num, unit) = token.split_at(split);
    let value: f64 = num.parse().map_err(|_| CorpusError::BadQuantity {
        line,
        value: token.to_string(),
    })?;
    if value < 0.0 {
        return Err(CorpusError::BadQuantity {
            line,
            value: token.to_string(),
        });
    }
    Ok((value, unit.to_ascii_lowercase()))
}

fn parse_bandwidth(token: &str, line: usize) -> Result<Bandwidth, CorpusError> {
    let (value, unit) = split_quantity(token, line)?;
    let scale = match unit.as_str() {
        "gbps" | "g" => 1e9,
        "mbps" | "m" => 1e6,
        "kbps" | "k" => 1e3,
        "bps" | "" => 1.0,
        _ => {
            return Err(CorpusError::BadQuantity {
                line,
                value: token.to_string(),
            })
        }
    };
    Ok(Bandwidth::from_bps((value * scale).round() as u64))
}

fn parse_delay(token: &str, line: usize) -> Result<Duration, CorpusError> {
    let (value, unit) = split_quantity(token, line)?;
    let scale = match unit.as_str() {
        "s" => 1e12,
        "ms" => 1e9,
        "us" => 1e6,
        "ns" => 1e3,
        "ps" | "" => 1.0,
        _ => {
            return Err(CorpusError::BadQuantity {
                line,
                value: token.to_string(),
            })
        }
    };
    Ok(Duration::from_ps((value * scale).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGE_LIST: &str = "\
# a dumbbell
node h0 host
node h1 host
node s0 switch
node s1 switch
link h0 s0 25Gbps 1us   # host uplink
link h1 s1 25Gbps 1us
link s0 s1 100Gbps 2us
";

    #[test]
    fn edge_list_parses_and_builds() {
        let corpus = parse(EDGE_LIST).unwrap();
        assert_eq!(corpus.nodes().len(), 4);
        assert_eq!(corpus.host_count(), 2);
        assert_eq!(corpus.links().len(), 3);
        assert_eq!(corpus.links()[2].2, Bandwidth::from_gbps(100));
        assert_eq!(corpus.links()[2].3, Duration::from_us(2));
        let topo = corpus.build();
        assert_eq!(topo.hosts().len(), 2);
        assert_eq!(topo.switches().len(), 2);
        assert_eq!(topo.path_hops(topo.hosts()[0], topo.hosts()[1]), Some(3));
    }

    #[test]
    fn edge_list_round_trips_canonically() {
        let corpus = parse(EDGE_LIST).unwrap();
        let emitted = corpus.to_edge_list();
        let back = parse(&emitted).unwrap();
        assert_eq!(back, corpus);
        // The canonical form is a fixed point.
        assert_eq!(back.to_edge_list(), emitted);
    }

    #[test]
    fn quantities_accept_every_documented_unit() {
        let text = "\
node a host
node b host
node s switch
link a s 1000000bps 1000ps
link b s 0.5Gbps 1.5ms
";
        let corpus = parse(text).unwrap();
        assert_eq!(corpus.links()[0].2, Bandwidth::from_bps(1_000_000));
        assert_eq!(corpus.links()[0].3, Duration::from_ps(1_000));
        assert_eq!(corpus.links()[1].2, Bandwidth::from_bps(500_000_000));
        assert_eq!(corpus.links()[1].3, Duration::from_ps(1_500_000_000));
    }

    #[test]
    fn a_host_needs_exactly_one_link() {
        // h0, declared on line 1, has two links.
        let two = "node h0 host\nnode s0 switch\nnode s1 switch\nnode h1 host\n\
                   link h0 s0 25Gbps 1us\nlink h0 s1 25Gbps 1us\nlink h1 s0 25Gbps 1us\n";
        let err = parse(two).unwrap_err();
        assert_eq!(
            err,
            CorpusError::HostLinks {
                line: 1,
                name: "h0".into(),
                links: 2
            }
        );
        assert!(err
            .to_string()
            .starts_with("line 1: host \"h0\" has 2 links"));
        // h1, declared on line 3, has none.
        let none = "node h0 host\nnode s0 switch\nnode h1 host\nnode h2 host\n\
                    link h0 s0 25Gbps 1us\nlink h2 s0 25Gbps 1us\n";
        assert_eq!(
            parse(none),
            Err(CorpusError::HostLinks {
                line: 3,
                name: "h1".into(),
                links: 0
            })
        );
        // Two hosts on one cable are one link each.
        assert!(parse("node a host\nnode b host\nlink a b 25Gbps 1us\n").is_ok());
    }

    #[test]
    fn errors_are_typed_and_carry_lines() {
        let unknown = parse("node a host\nlink a b 1Gbps 1us\n");
        assert_eq!(
            unknown,
            Err(CorpusError::UnknownNode {
                line: 2,
                name: "b".into()
            })
        );
        let dup = parse("node a host\nnode a switch\n");
        assert_eq!(
            dup,
            Err(CorpusError::DuplicateNode {
                line: 2,
                name: "a".into()
            })
        );
        let bad = parse("node a host\nnode s switch\nlink a s 1Xbps 1us\n");
        assert_eq!(
            bad,
            Err(CorpusError::BadQuantity {
                line: 3,
                value: "1Xbps".into()
            })
        );
        let selfy = parse("node a host\nlink a a 1Gbps 1us\n");
        assert!(matches!(selfy, Err(CorpusError::SelfLink { line: 2, .. })));
        let hostless = parse("node s switch\n");
        assert_eq!(hostless, Err(CorpusError::NoHosts));
        let syntax = parse("frob a b\n");
        assert!(matches!(syntax, Err(CorpusError::Syntax { line: 1, .. })));
        // Corpus files are edge lists only: GraphML is refused at line 1.
        let graphml = parse("<?xml version=\"1.0\"?>\n<graphml>\n</graphml>\n");
        assert!(matches!(graphml, Err(CorpusError::Syntax { line: 1, .. })));
        // Errors render with their line number.
        assert!(unknown.unwrap_err().to_string().contains("line 2"));
    }
}
