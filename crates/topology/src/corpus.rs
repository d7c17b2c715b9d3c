//! Topology corpus importer: parse external topology files into a
//! [`TopologySpec`] without any dependencies.
//!
//! Two input formats are supported:
//!
//! * **Edge list** — a line-oriented text format, also the canonical output
//!   of [`CorpusTopology::to_edge_list`]:
//!
//!   ```text
//!   # comment
//!   node h0 host
//!   node s0 switch
//!   link h0 s0 25Gbps 1us
//!   ```
//!
//!   Bandwidths accept `bps`/`kbps`/`mbps`/`gbps` suffixes (decimal values
//!   allowed, case-insensitive); delays accept `ps`/`ns`/`us`/`ms`/`s`.
//!
//! * **GraphML subset** — enough of GraphML to load corpus files such as the
//!   Topology Zoo exports: `<node id="..">` and `<edge source=".."
//!   target="..">` elements, scanned textually (no XML library). A node is a
//!   switch if it carries `kind="switch"` as an attribute or a
//!   `<data key="kind">switch</data>` child; otherwise it is a host. Edges
//!   may carry `bandwidth`/`delay` the same two ways; absent values default
//!   to 100 Gbps and 1 µs so that capacity-less corpus files still load.
//!
//! Parsing produces a [`CorpusTopology`] — the named graph — which builds
//! into a routed [`TopologySpec`] via [`CorpusTopology::build`] and re-emits
//! canonically via [`CorpusTopology::to_edge_list`]; parse → emit → parse is
//! an identity (the round-trip is covered by tests and by `hpcc topo
//! convert`).

use crate::spec::{NodeKind, TopologyBuilder, TopologySpec};
use hpcc_types::{Bandwidth, Duration};
use std::collections::BTreeMap;
use std::fmt;

/// A typed corpus-parsing error: what went wrong, and on which input line
/// (1-based; 0 when no line is attributable, e.g. a truncated XML tag).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// A line or tag that doesn't match the grammar.
    Syntax {
        /// 1-based input line (0 = not attributable).
        line: usize,
        /// What was expected.
        msg: String,
    },
    /// A `link`/`edge` references a node never declared.
    UnknownNode {
        /// 1-based input line (0 = not attributable).
        line: usize,
        /// The undeclared node name.
        name: String,
    },
    /// The same node name declared twice.
    DuplicateNode {
        /// 1-based input line (0 = not attributable).
        line: usize,
        /// The repeated node name.
        name: String,
    },
    /// A bandwidth or delay that doesn't parse.
    BadQuantity {
        /// 1-based input line (0 = not attributable).
        line: usize,
        /// The offending token.
        value: String,
    },
    /// A link from a node to itself.
    SelfLink {
        /// 1-based input line (0 = not attributable).
        line: usize,
        /// The node name.
        name: String,
    },
    /// The file parsed but declares no hosts (nothing to simulate).
    NoHosts,
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

/// Parse a corpus file, sniffing the format: content containing a
/// `<graphml` or `<?xml` marker is parsed as GraphML, anything else as an
/// edge list.
pub fn parse(text: &str) -> Result<CorpusTopology, CorpusError> {
    if text.contains("<graphml") || text.trim_start().starts_with("<?xml") {
        parse_graphml(text)
    } else {
        parse_edge_list(text)
    }
}

/// Parse the line-oriented edge-list format (see the module docs).
pub fn parse_edge_list(text: &str) -> Result<CorpusTopology, CorpusError> {
    let mut nodes: Vec<(String, NodeKind)> = Vec::new();
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
    Ok(CorpusTopology { nodes, links })
}

/// Parse the GraphML subset (see the module docs).
pub fn parse_graphml(text: &str) -> Result<CorpusTopology, CorpusError> {
    let mut nodes: Vec<(String, NodeKind)> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut links = Vec::new();
    let mut cursor = 0usize;
    while let Some((tag, body, next)) = next_element(text, cursor, "node") {
        cursor = next;
        let line = line_of(text, tag.1);
        let id = attr(&tag.0, "id").ok_or_else(|| CorpusError::Syntax {
            line,
            msg: "<node> without an id attribute".into(),
        })?;
        let kind_str = attr(&tag.0, "kind")
            .or_else(|| body.as_deref().and_then(|b| data_key(b, "kind")))
            .unwrap_or_else(|| "host".into());
        let kind = match kind_str.as_str() {
            "host" => NodeKind::Host,
            "switch" => NodeKind::Switch,
            other => {
                return Err(CorpusError::Syntax {
                    line,
                    msg: format!("node kind must be `host` or `switch`, got {other:?}"),
                })
            }
        };
        if index.contains_key(&id) {
            return Err(CorpusError::DuplicateNode { line, name: id });
        }
        index.insert(id.clone(), nodes.len());
        nodes.push((id, kind));
    }
    cursor = 0;
    while let Some((tag, body, next)) = next_element(text, cursor, "edge") {
        cursor = next;
        let line = line_of(text, tag.1);
        let src = attr(&tag.0, "source").ok_or_else(|| CorpusError::Syntax {
            line,
            msg: "<edge> without a source attribute".into(),
        })?;
        let dst = attr(&tag.0, "target").ok_or_else(|| CorpusError::Syntax {
            line,
            msg: "<edge> without a target attribute".into(),
        })?;
        let a = *index.get(&src).ok_or(CorpusError::UnknownNode {
            line,
            name: src.clone(),
        })?;
        let z = *index.get(&dst).ok_or(CorpusError::UnknownNode {
            line,
            name: dst.clone(),
        })?;
        if a == z {
            return Err(CorpusError::SelfLink { line, name: src });
        }
        let bw = match attr(&tag.0, "bandwidth")
            .or_else(|| body.as_deref().and_then(|b| data_key(b, "bandwidth")))
        {
            Some(v) => parse_bandwidth(&v, line)?,
            None => Bandwidth::from_gbps(100),
        };
        let delay = match attr(&tag.0, "delay")
            .or_else(|| body.as_deref().and_then(|b| data_key(b, "delay")))
        {
            Some(v) => parse_delay(&v, line)?,
            None => Duration::from_us(1),
        };
        links.push((a, z, bw, delay));
    }
    if !nodes.iter().any(|(_, k)| *k == NodeKind::Host) {
        return Err(CorpusError::NoHosts);
    }
    Ok(CorpusTopology { nodes, links })
}

/// Find the next `<name ...>` element at or after `from`. Returns the
/// opening tag's text and byte offset, the inner body for container
/// elements (`None` for self-closing `<name .../>`), and the scan position
/// after the element.
#[allow(clippy::type_complexity)]
fn next_element(
    text: &str,
    from: usize,
    name: &str,
) -> Option<((String, usize), Option<String>, usize)> {
    let open = format!("<{name}");
    let mut search = from;
    loop {
        let start = text[search..].find(&open)? + search;
        // Reject partial matches like `<nodeset` for `<node`.
        let after = text[start + open.len()..].chars().next()?;
        if !(after.is_whitespace() || after == '>' || after == '/') {
            search = start + open.len();
            continue;
        }
        let tag_end = text[start..].find('>')? + start;
        let tag = text[start..=tag_end].to_string();
        if tag.ends_with("/>") {
            return Some(((tag, start), None, tag_end + 1));
        }
        let close = format!("</{name}>");
        let body_end = text[tag_end + 1..].find(&close)? + tag_end + 1;
        let body = text[tag_end + 1..body_end].to_string();
        return Some(((tag, start), Some(body), body_end + close.len()));
    }
}

/// Extract `name="value"` (or single-quoted) from an opening tag.
fn attr(tag: &str, name: &str) -> Option<String> {
    for quote in ['"', '\''] {
        let needle = format!("{name}={quote}");
        if let Some(at) = tag.find(&needle) {
            let rest = &tag[at + needle.len()..];
            return rest.find(quote).map(|end| rest[..end].to_string());
        }
    }
    None
}

/// Extract the text of `<data key="name">text</data>` from an element body.
fn data_key(body: &str, name: &str) -> Option<String> {
    let mut cursor = 0;
    while let Some((tag, inner, next)) = next_element(body, cursor, "data") {
        cursor = next;
        if attr(&tag.0, "key").as_deref() == Some(name) {
            return inner.map(|s| s.trim().to_string());
        }
    }
    None
}

/// 1-based line number of a byte offset.
fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
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
        let corpus = parse_edge_list(text).unwrap();
        assert_eq!(corpus.links()[0].2, Bandwidth::from_bps(1_000_000));
        assert_eq!(corpus.links()[0].3, Duration::from_ps(1_000));
        assert_eq!(corpus.links()[1].2, Bandwidth::from_bps(500_000_000));
        assert_eq!(corpus.links()[1].3, Duration::from_ps(1_500_000_000));
    }

    #[test]
    fn graphml_subset_parses() {
        let text = r#"<?xml version="1.0"?>
<graphml>
  <graph edgedefault="undirected">
    <node id="h0"/>
    <node id="h1"><data key="kind">host</data></node>
    <node id="s0" kind="switch"/>
    <edge source="h0" target="s0" bandwidth="25Gbps" delay="1us"/>
    <edge source="h1" target="s0">
      <data key="bandwidth">10Gbps</data>
      <data key="delay">500ns</data>
    </edge>
  </graph>
</graphml>
"#;
        let corpus = parse(text).unwrap();
        assert_eq!(corpus.nodes().len(), 3);
        assert_eq!(corpus.nodes()[2].1, NodeKind::Switch);
        assert_eq!(corpus.links().len(), 2);
        assert_eq!(corpus.links()[0].2, Bandwidth::from_gbps(25));
        assert_eq!(corpus.links()[1].2, Bandwidth::from_gbps(10));
        assert_eq!(corpus.links()[1].3, Duration::from_ps(500_000));
        // GraphML converts into the same canonical edge list.
        let canonical = corpus.to_edge_list();
        assert_eq!(parse(&canonical).unwrap(), corpus);
    }

    #[test]
    fn graphml_defaults_apply_when_capacities_are_absent() {
        let text = r#"<graphml>
<node id="a"/><node id="b"/><node id="s" kind="switch"/>
<edge source="a" target="s"/><edge source="b" target="s"/>
</graphml>"#;
        let corpus = parse(text).unwrap();
        assert_eq!(corpus.links()[0].2, Bandwidth::from_gbps(100));
        assert_eq!(corpus.links()[0].3, Duration::from_us(1));
    }

    #[test]
    fn errors_are_typed_and_carry_lines() {
        let unknown = parse_edge_list("node a host\nlink a b 1Gbps 1us\n");
        assert_eq!(
            unknown,
            Err(CorpusError::UnknownNode {
                line: 2,
                name: "b".into()
            })
        );
        let dup = parse_edge_list("node a host\nnode a switch\n");
        assert_eq!(
            dup,
            Err(CorpusError::DuplicateNode {
                line: 2,
                name: "a".into()
            })
        );
        let bad = parse_edge_list("node a host\nnode s switch\nlink a s 1Xbps 1us\n");
        assert_eq!(
            bad,
            Err(CorpusError::BadQuantity {
                line: 3,
                value: "1Xbps".into()
            })
        );
        let selfy = parse_edge_list("node a host\nlink a a 1Gbps 1us\n");
        assert!(matches!(selfy, Err(CorpusError::SelfLink { line: 2, .. })));
        let hostless = parse_edge_list("node s switch\n");
        assert_eq!(hostless, Err(CorpusError::NoHosts));
        let syntax = parse_edge_list("frob a b\n");
        assert!(matches!(syntax, Err(CorpusError::Syntax { line: 1, .. })));
        // Errors render with their line number.
        assert!(unknown.unwrap_err().to_string().contains("line 2"));
    }
}
