//! Trace-driven workloads: flow traces as reproducible artifacts.
//!
//! A [`Trace`] is an ordered list of [`TraceRecord`]s — one flow per record,
//! endpoints given as *host indices* into the topology's host list. Trace
//! files are CSV, one `start_ns,src,dst,bytes[,prio]` record per line (`#`
//! comments and blank lines are ignored), and round-trip line for line.
//!
//! `start_ns` is a decimal number of nanoseconds with an optional fractional
//! part of up to three digits, parsed with integer arithmetic — so the
//! simulator's picosecond timestamps survive *exactly* and a workload
//! exported with [`Trace::from_flows`] and replayed with [`Trace::replay`]
//! reproduces the identical per-flow tuples (and therefore identical
//! campaign digests). `prio` is optional and carries the
//! [`FlowPriority::wire_code`]: `0` is [`FlowPriority::Normal`] (the
//! default), `1` is [`FlowPriority::LatencySensitive`], and `2 + c` is the
//! explicit data class `c` ([`FlowPriority::Class`]).
//!
//! Malformed input never panics: every parse or replay failure is a typed
//! [`TraceError`] carrying the 1-based line (or record) number.

use hpcc_types::{Duration, FlowId, FlowPriority, FlowSpec, NodeId, SimTime};
use std::fmt;

/// One flow of a [`Trace`]: start time, endpoints as host indices, size and
/// priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Start time relative to the scenario start.
    pub start: Duration,
    /// Index of the sending host in the topology's host list.
    pub src: usize,
    /// Index of the receiving host in the topology's host list.
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Application priority of the flow.
    pub prio: FlowPriority,
}

impl TraceRecord {
    /// A record with [`FlowPriority::Normal`].
    pub fn new(start: Duration, src: usize, dst: usize, bytes: u64) -> Self {
        TraceRecord {
            start,
            src,
            dst,
            bytes,
            prio: FlowPriority::Normal,
        }
    }
}

/// Error raised while parsing, validating or replaying a trace.
///
/// `line` is 1-based: for text input it is the offending line of the file
/// (comments and blank lines count, so editors agree); for in-memory record
/// lists it is the record's position. `line == 0` means the error concerns
/// the trace as a whole (e.g. an unreadable file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line (or record) number; 0 for whole-trace errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TraceError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TraceError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.message)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// An ordered flow trace (see the [module docs](self) for the text formats
/// and the exactness guarantees).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The records, in file order. Replay preserves this order (flow ids are
    /// assigned sequentially along it); it need not be time-sorted.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Parse CSV trace text: one record per non-blank, non-comment line.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            records.push(parse_csv_record(line, line_no)?);
        }
        Ok(Trace { records })
    }

    /// Read and parse a trace file. I/O failures surface as a whole-trace
    /// [`TraceError`] (`line == 0`) naming the path.
    pub fn from_file(path: &str) -> Result<Trace, TraceError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TraceError::at(0, format!("cannot read {path}: {e}")))?;
        Trace::parse(&text)
    }

    /// Render as CSV, one `start_ns,src,dst,bytes[,prio]` line per record
    /// (the `prio` column is written only for non-default priorities).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format_start_ns(r.start));
            out.push_str(&format!(",{},{},{}", r.src, r.dst, r.bytes));
            if r.prio != FlowPriority::Normal {
                out.push_str(&format!(",{}", r.prio.wire_code()));
            }
            out.push('\n');
        }
        out
    }

    /// Capture a generated flow list as a trace (the "trace-gen" path):
    /// every synthetic workload can be exported to a file and replayed
    /// later, byte-identically.
    ///
    /// `hosts` is the topology's host list; each flow's endpoints are mapped
    /// back to host indices. Flow ids are *not* stored — [`Trace::replay`]
    /// reassigns them sequentially in record order, which reproduces the ids
    /// of every in-tree generator (they allocate sequentially from
    /// `first_flow_id` in generation order). A flow whose endpoint is not in
    /// `hosts` is a [`TraceError`] at that flow's 1-based position.
    pub fn from_flows(flows: &[FlowSpec], hosts: &[NodeId]) -> Result<Trace, TraceError> {
        // One index map up front: the freeze/export paths run this over
        // every flow of paper-scale scenarios, where a per-flow linear scan
        // of the host list would be O(flows × hosts).
        let index: std::collections::BTreeMap<NodeId, usize> =
            hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let index_of = |n: NodeId| index.get(&n).copied();
        let mut records = Vec::with_capacity(flows.len());
        for (i, f) in flows.iter().enumerate() {
            let src = index_of(f.src).ok_or_else(|| {
                TraceError::at(i + 1, format!("flow src {} is not a host", f.src))
            })?;
            let dst = index_of(f.dst).ok_or_else(|| {
                TraceError::at(i + 1, format!("flow dst {} is not a host", f.dst))
            })?;
            records.push(TraceRecord {
                start: f.start - SimTime::ZERO,
                src,
                dst,
                bytes: f.size,
                prio: f.priority,
            });
        }
        Ok(Trace { records })
    }

    /// Deterministically replay the trace against a concrete host list:
    /// record `k` becomes a flow with id `first_flow_id + k`, endpoints
    /// `hosts[src]` / `hosts[dst]`, starting at the record's offset from
    /// time zero.
    ///
    /// Out-of-range indices and `src == dst` records are typed errors at the
    /// record's 1-based position, never panics.
    pub fn replay(
        &self,
        hosts: &[NodeId],
        first_flow_id: u64,
    ) -> Result<Vec<FlowSpec>, TraceError> {
        let mut flows = Vec::with_capacity(self.records.len());
        for (i, r) in self.records.iter().enumerate() {
            let line = i + 1;
            if r.src >= hosts.len() {
                return Err(TraceError::at(
                    line,
                    format!("src index {} out of range ({} hosts)", r.src, hosts.len()),
                ));
            }
            if r.dst >= hosts.len() {
                return Err(TraceError::at(
                    line,
                    format!("dst index {} out of range ({} hosts)", r.dst, hosts.len()),
                ));
            }
            if r.src == r.dst {
                return Err(TraceError::at(
                    line,
                    format!("src and dst are both host {}", r.src),
                ));
            }
            let mut flow = FlowSpec::new(
                FlowId(first_flow_id + i as u64),
                hosts[r.src],
                hosts[r.dst],
                r.bytes,
                SimTime::ZERO + r.start,
            );
            flow.priority = r.prio;
            flows.push(flow);
        }
        Ok(flows)
    }

    /// Total bytes across all records.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// The latest start time in the trace ([`Duration::ZERO`] when empty).
    pub fn horizon(&self) -> Duration {
        self.records
            .iter()
            .map(|r| r.start)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// Where a trace workload's records come from, as plain data (the
/// declarative counterpart of [`Trace`], carried by scenario specs and
/// campaign manifests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceSpec {
    /// Read the trace from a CSV file at build time. Relative paths
    /// resolve against the working directory of the building process, so
    /// distributed workers need the file at the same path.
    Path(String),
    /// Records carried inline (inside the manifest itself) — the fully
    /// self-contained form, which is what sharded campaigns should prefer.
    Inline(Vec<TraceRecord>),
}

impl TraceSpec {
    /// Resolve into a concrete [`Trace`] (reading the file for
    /// [`TraceSpec::Path`]).
    pub fn load(&self) -> Result<Trace, TraceError> {
        match self {
            TraceSpec::Path(path) => Trace::from_file(path),
            TraceSpec::Inline(records) => Ok(Trace {
                records: records.clone(),
            }),
        }
    }
}

/// Largest valid priority code: `0` normal, `1` latency-sensitive,
/// `2 + c` explicit data class `c` (see [`FlowPriority::wire_code`]).
const MAX_PRIO_CODE: u64 = 1 + hpcc_types::Priority::MAX_DATA_CLASSES as u64;

fn prio_from_code(code: u64, line: usize) -> Result<FlowPriority, TraceError> {
    if code <= MAX_PRIO_CODE {
        Ok(FlowPriority::from_wire_code(code as u8))
    } else {
        Err(TraceError::at(
            line,
            format!(
                "unknown priority {code} (0 = normal, 1 = latency-sensitive, \
                 2+c = data class c)"
            ),
        ))
    }
}

/// Format a duration as decimal nanoseconds, keeping picosecond precision
/// exactly: `1500` for 1.5 µs, `1500.25` for 1500250 ps.
fn format_start_ns(d: Duration) -> String {
    let ps = d.as_ps();
    let (ns, frac) = (ps / 1000, ps % 1000);
    if frac == 0 {
        format!("{ns}")
    } else {
        format!("{ns}.{frac:03}")
    }
}

/// Parse decimal nanoseconds into an exact picosecond [`Duration`] with
/// integer arithmetic only (no `f64` on the way, so `.001` ns = 1 ps is
/// exact and anything finer than a picosecond is rejected, not rounded).
fn parse_start_ns(text: &str, line: usize) -> Result<Duration, TraceError> {
    let bad = || TraceError::at(line, format!("bad start_ns {text:?}"));
    let (int_part, frac_part) = match text.split_once('.') {
        Some((i, f)) => (i, f),
        None => (text, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return Err(bad());
    }
    let ns: u64 = if int_part.is_empty() {
        0
    } else {
        int_part.parse().map_err(|_| bad())?
    };
    let frac_ps: u64 = if frac_part.is_empty() {
        0
    } else {
        let trimmed = frac_part.trim_end_matches('0');
        if trimmed.len() > 3 {
            return Err(TraceError::at(
                line,
                format!("start_ns {text:?} is finer than a picosecond"),
            ));
        }
        if !frac_part.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        if trimmed.is_empty() {
            0
        } else {
            trimmed.parse::<u64>().map_err(|_| bad())? * 10u64.pow(3 - trimmed.len() as u32)
        }
    };
    let ps = ns
        .checked_mul(1000)
        .and_then(|p| p.checked_add(frac_ps))
        .ok_or_else(|| TraceError::at(line, format!("start_ns {text:?} overflows")))?;
    Ok(Duration::from_ps(ps))
}

fn parse_u64_field(text: &str, what: &str, line: usize) -> Result<u64, TraceError> {
    text.parse()
        .map_err(|_| TraceError::at(line, format!("bad {what} {text:?}")))
}

fn parse_csv_record(line: &str, line_no: usize) -> Result<TraceRecord, TraceError> {
    if line.starts_with('{') {
        return Err(TraceError::at(
            line_no,
            "a JSON object; trace files are CSV (start_ns,src,dst,bytes[,prio])",
        ));
    }
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 4 || fields.len() > 5 {
        return Err(TraceError::at(
            line_no,
            format!(
                "expected 4 or 5 fields (start_ns,src,dst,bytes[,prio]), got {}",
                fields.len()
            ),
        ));
    }
    let start = parse_start_ns(fields[0], line_no)?;
    let src = parse_u64_field(fields[1], "src", line_no)? as usize;
    let dst = parse_u64_field(fields[2], "dst", line_no)? as usize;
    let bytes = parse_u64_field(fields[3], "bytes", line_no)?;
    let prio = match fields.get(4) {
        Some(f) => prio_from_code(parse_u64_field(f, "prio", line_no)?, line_no)?,
        None => FlowPriority::Normal,
    };
    Ok(TraceRecord {
        start,
        src,
        dst,
        bytes,
        prio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn sample_trace() -> Trace {
        Trace {
            records: vec![
                TraceRecord::new(Duration::ZERO, 0, 1, 500),
                TraceRecord {
                    start: Duration::from_ps(1_500_250),
                    src: 2,
                    dst: 0,
                    bytes: 64_000,
                    prio: FlowPriority::LatencySensitive,
                },
                TraceRecord::new(Duration::from_us(2), 1, 2, 1),
            ],
        }
    }

    #[test]
    fn csv_round_trips_exact_picoseconds() {
        let trace = sample_trace();
        let text = trace.to_csv();
        assert!(text.contains("1500.250,2,0,64000,1"), "{text}");
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn comments_blank_lines_and_mixed_formats_parse() {
        // Both record forms, with and without the `prio` column, in one file.
        let text = "# a comment\n\n0,0,1,100\n 5, 1, 0, 7, 1 \n";
        let t = Trace::parse(text).unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0].prio, FlowPriority::Normal);
        assert_eq!(t.records[1].start, Duration::from_ns(5));
        assert_eq!(t.records[1].bytes, 7);
        assert_eq!(t.records[1].prio, FlowPriority::LatencySensitive);
        assert_eq!(t.total_bytes(), 107);
        assert_eq!(t.horizon(), Duration::from_ns(5));
    }

    #[test]
    fn start_ns_fraction_parses_without_floats() {
        // .001 ns = exactly 1 ps; trailing zeros are fine; finer is an error.
        for (text, ps) in [
            ("0.001", 1),
            ("1.5", 1_500),
            ("1.50", 1_500),
            ("1500.250", 1_500_250),
            ("2", 2_000),
            (".5", 500),
        ] {
            assert_eq!(
                parse_start_ns(text, 1).unwrap(),
                Duration::from_ps(ps),
                "{text}"
            );
        }
        let err = parse_start_ns("1.0005", 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("finer than a picosecond"), "{err}");
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        let cases = [
            ("0,0,1,100\nnonsense", 2, "fields"),
            ("0,0,1", 1, "fields"),
            ("0,0,1,100,2,9", 1, "fields"),
            ("x,0,1,100", 1, "start_ns"),
            ("0,a,1,100", 1, "src"),
            ("0,0,b,100", 1, "dst"),
            ("0,0,1,c", 1, "bytes"),
            ("0,0,1,100,7", 1, "priority"),
            // JSONL is not a trace format: each object line is refused.
            ("# ok\n0,0,1,100\n{\"src\": 1}", 3, "trace files are CSV"),
            (
                "{\"start_ns\": 0, \"src\": 0, \"dst\": 1, \"bytes\": 1, \"prio\": 0}",
                1,
                "trace files are CSV",
            ),
            ("{broken", 1, "JSON object"),
            ("-5,0,1,100", 1, "start_ns"),
        ];
        for (text, line, needle) in cases {
            let err = Trace::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(
                err.to_string().contains(needle),
                "{text:?} -> {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn replay_assigns_sequential_ids_and_validates() {
        let h = hosts(3);
        let flows = sample_trace().replay(&h, 100).unwrap();
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].id, FlowId(100));
        assert_eq!(flows[2].id, FlowId(102));
        assert_eq!(flows[1].src, h[2]);
        assert_eq!(flows[1].priority, FlowPriority::LatencySensitive);
        assert_eq!(flows[1].start, SimTime::ZERO + Duration::from_ps(1_500_250));
        // Out-of-range and self-loop records are typed errors at the record.
        let bad_dst = Trace {
            records: vec![
                TraceRecord::new(Duration::ZERO, 0, 1, 5),
                TraceRecord::new(Duration::ZERO, 0, 9, 5),
            ],
        };
        let err = bad_dst.replay(&h, 0).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("out of range"), "{err}");
        let self_loop = Trace {
            records: vec![TraceRecord::new(Duration::ZERO, 1, 1, 5)],
        };
        let err = self_loop.replay(&h, 0).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("src and dst"), "{err}");
    }

    #[test]
    fn flows_export_and_replay_are_inverse() {
        let h = hosts(4);
        let mut flows = vec![
            FlowSpec::new(FlowId(50), h[0], h[3], 1_000, SimTime::from_us(1)),
            FlowSpec::new(
                FlowId(51),
                h[2],
                h[1],
                2_000,
                SimTime::ZERO + Duration::from_ps(123),
            ),
        ];
        flows[1].priority = FlowPriority::LatencySensitive;
        let trace = Trace::from_flows(&flows, &h).unwrap();
        let back = trace.replay(&h, 50).unwrap();
        assert_eq!(back, flows);
        // …and surviving a text round trip too.
        let reparsed = Trace::parse(&trace.to_csv()).unwrap();
        assert_eq!(reparsed.replay(&h, 50).unwrap(), flows);
        // A non-host endpoint is a typed error naming the flow.
        let err = Trace::from_flows(&flows, &h[..2]).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn trace_spec_loads_inline_and_files() {
        let inline = TraceSpec::Inline(sample_trace().records);
        assert_eq!(inline.load().unwrap(), sample_trace());
        let missing = TraceSpec::Path("/nonexistent/definitely_not_here.csv".into());
        let err = missing.load().unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("cannot read"), "{err}");
        let dir = std::env::temp_dir().join("hpcc_trace_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, sample_trace().to_csv()).unwrap();
        let loaded = TraceSpec::Path(path.to_string_lossy().into_owned())
            .load()
            .unwrap();
        assert_eq!(loaded, sample_trace());
    }
}
