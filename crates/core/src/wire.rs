//! The JSONL wire format of distributed campaigns.
//!
//! A sharded campaign ships per-scenario results between processes (and
//! hosts) as JSON Lines: one self-contained object per completed scenario,
//! written by [`crate::Campaign::run_shard_streaming`] the moment the
//! scenario finishes and folded back into a single [`CampaignReport`] by
//! [`merge_shard_streams`]. Everything rides on the in-tree [`crate::json`]
//! module — no external serde.
//!
//! # Line schema
//!
//! ```json
//! {"index": 3, "wall_ns": 412007831, "result": { ... }}
//! ```
//!
//! * `index` — the scenario's position in the campaign, so a coordinator
//!   can reassemble streams that arrive in any order.
//! * `wall_ns` — the wall-clock time the worker spent on the scenario (the
//!   only host-dependent field; it lives in the envelope, *outside* the
//!   canonical result object).
//! * `result` — the canonical [`ScenarioResult`] object produced by
//!   [`ScenarioResult::to_json`]: name, scheme, slowdown percentiles
//!   (overall / short-flow / per-size-bucket), queue percentiles, PFC
//!   summary, drops, completion, and the FNV digest over the raw simulator
//!   output. Unsigned integers (digests, byte counts, picosecond durations)
//!   are emitted as exact JSON integers; floats use shortest-round-trip
//!   formatting, so decoding and re-encoding is byte-identical.
//!
//! # Determinism contract
//!
//! [`ScenarioResult::to_json`] contains *only* deterministic fields — no
//! wall-clock, no thread counts. Consequently
//! [`CampaignReport::to_json_string`] (a JSON array of canonical results in
//! scenario order) is a pure function of the campaign: a report merged from
//! any number of worker processes on any mix of hosts renders the
//! byte-identical string as [`crate::Campaign::run_serial`]. Equal strings
//! (or equal [`CampaignReport::digests`]) mean bit-identical runs.

use crate::campaign::{Campaign, CampaignReport, FaultSummary, ScenarioResult};
use crate::json::{obj, JsonError, JsonValue};
use crate::scenario::BackendSpec;
use hpcc_sim::PARALLEL_PACKET_REMOVED;
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets, FctBucket, SizeBucketStats};
use hpcc_stats::pfc::PfcSummary;
use hpcc_stats::Percentiles;
use hpcc_types::Duration;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

fn percentiles_to_json(p: &Percentiles) -> JsonValue {
    obj(vec![
        ("count", JsonValue::UInt(p.count as u64)),
        ("p50", JsonValue::Float(p.p50)),
        ("p95", JsonValue::Float(p.p95)),
        ("p99", JsonValue::Float(p.p99)),
        ("mean", JsonValue::Float(p.mean)),
        ("max", JsonValue::Float(p.max)),
    ])
}

fn percentiles_from_json(v: &JsonValue) -> Result<Percentiles, JsonError> {
    Ok(Percentiles {
        count: v.require("count")?.as_usize()?,
        p50: v.require("p50")?.as_f64()?,
        p95: v.require("p95")?.as_f64()?,
        p99: v.require("p99")?.as_f64()?,
        mean: v.require("mean")?.as_f64()?,
        max: v.require("max")?.as_f64()?,
    })
}

fn opt_percentiles_to_json(p: &Option<Percentiles>) -> JsonValue {
    match p {
        Some(p) => percentiles_to_json(p),
        None => JsonValue::Null,
    }
}

fn opt_percentiles_from_json(v: &JsonValue) -> Result<Option<Percentiles>, JsonError> {
    match v {
        JsonValue::Null => Ok(None),
        other => Ok(Some(percentiles_from_json(other)?)),
    }
}

fn opt_u64_to_json(n: &Option<u64>) -> JsonValue {
    match n {
        Some(n) => JsonValue::UInt(*n),
        None => JsonValue::Null,
    }
}

fn opt_u64_from_json(v: &JsonValue) -> Result<Option<u64>, JsonError> {
    match v {
        JsonValue::Null => Ok(None),
        other => Ok(Some(other.as_u64()?)),
    }
}

/// Canonical JSON for a backend choice, shared by scenario specs and
/// result lines: a bare label. `None` for the default packet engine — its
/// canonical form is an *omitted* `"backend"` key, keeping pre-existing
/// manifests bit-identical.
pub fn backend_to_json(backend: BackendSpec) -> Option<JsonValue> {
    match backend {
        BackendSpec::Packet => None,
        BackendSpec::Fluid | BackendSpec::ParallelPacket => {
            Some(JsonValue::Str(backend.label().to_string()))
        }
    }
}

/// Decode a `"backend"` value: a bare label string. The removed parallel
/// engine, in its old object form or as a bare label, is an error that says
/// so rather than an unknown label.
pub fn backend_from_json(v: &JsonValue) -> Result<BackendSpec, JsonError> {
    match v {
        JsonValue::Str(label) => match label.as_str() {
            "packet" => Ok(BackendSpec::Packet),
            "fluid" => Ok(BackendSpec::Fluid),
            "parallel_packet" => err(PARALLEL_PACKET_REMOVED),
            other => err(format!("unknown backend {other:?}")),
        },
        JsonValue::Object(pairs) if pairs.iter().any(|(k, _)| k == "parallel_packet") => {
            err(PARALLEL_PACKET_REMOVED)
        }
        other => err(format!("expected a backend label, got {other:?}")),
    }
}

/// Recover the `&'static` bucket from the known bucket tables. Campaign
/// results only ever use the paper's WebSearch / FB_Hadoop bucket sets, so
/// decoding resolves labels against those instead of leaking strings.
fn known_bucket(max_size: u64, label: &str) -> Option<FctBucket> {
    websearch_buckets()
        .into_iter()
        .chain(fb_hadoop_buckets())
        .find(|b| b.max_size == max_size && b.label == label)
}

fn bucket_stats_to_json(b: &SizeBucketStats) -> JsonValue {
    obj(vec![
        ("max_size", JsonValue::UInt(b.bucket.max_size)),
        ("label", JsonValue::Str(b.bucket.label.to_string())),
        ("stats", opt_percentiles_to_json(&b.stats)),
    ])
}

fn bucket_stats_from_json(v: &JsonValue) -> Result<SizeBucketStats, JsonError> {
    let max_size = v.require("max_size")?.as_u64()?;
    let label = v.require("label")?.as_str()?;
    let bucket = known_bucket(max_size, label).ok_or_else(|| {
        JsonError(format!(
            "unknown flow-size bucket ({max_size}, {label:?}); \
             not in the WebSearch or FB_Hadoop tables"
        ))
    })?;
    Ok(SizeBucketStats {
        bucket,
        stats: opt_percentiles_from_json(v.require("stats")?)?,
    })
}

fn pfc_to_json(p: &PfcSummary) -> JsonValue {
    obj(vec![
        ("total_pause_ps", JsonValue::UInt(p.total_pause.as_ps())),
        ("paused_ports", JsonValue::UInt(p.paused_ports as u64)),
        ("total_ports", JsonValue::UInt(p.total_ports as u64)),
        ("elapsed_ps", JsonValue::UInt(p.elapsed.as_ps())),
        ("pause_frames", JsonValue::UInt(p.pause_frames)),
    ])
}

fn pfc_from_json(v: &JsonValue) -> Result<PfcSummary, JsonError> {
    Ok(PfcSummary {
        total_pause: Duration::from_ps(v.require("total_pause_ps")?.as_u64()?),
        paused_ports: v.require("paused_ports")?.as_usize()?,
        total_ports: v.require("total_ports")?.as_usize()?,
        elapsed: Duration::from_ps(v.require("elapsed_ps")?.as_u64()?),
        pause_frames: v.require("pause_frames")?.as_u64()?,
    })
}

impl ScenarioResult {
    /// The canonical JSON object of this result: every deterministic field
    /// (summary metrics and digest), and nothing host-dependent — no wall
    /// time, no raw simulator output. See the [module docs](self) for the
    /// determinism contract this buys.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("scheme", JsonValue::Str(self.scheme.clone())),
            ("slowdown", opt_percentiles_to_json(&self.slowdown)),
            (
                "short_flow_slowdown",
                opt_percentiles_to_json(&self.short_flow_slowdown),
            ),
            (
                "slowdown_buckets",
                JsonValue::Array(
                    self.slowdown_buckets
                        .iter()
                        .map(bucket_stats_to_json)
                        .collect(),
                ),
            ),
            ("queue_p50", opt_u64_to_json(&self.queue_p50)),
            ("queue_p95", opt_u64_to_json(&self.queue_p95)),
            ("queue_p99", opt_u64_to_json(&self.queue_p99)),
            ("max_queue_bytes", JsonValue::UInt(self.max_queue_bytes)),
            ("pfc", pfc_to_json(&self.pfc)),
            ("drops", JsonValue::UInt(self.drops)),
            ("completion", JsonValue::Float(self.completion)),
            (
                "flows_completed",
                JsonValue::UInt(self.flows_completed as u64),
            ),
        ];
        // Multi-class scheduling extensions (additive, optional): emitted
        // only when populated, so single-class results render byte-identical
        // to the pre-scheduling wire format and old decoders keep working.
        if !self.prio_slowdown.is_empty() {
            fields.push((
                "prio_slowdown",
                JsonValue::Array(
                    self.prio_slowdown
                        .iter()
                        .map(|(code, stats)| {
                            obj(vec![
                                ("prio", JsonValue::UInt(*code as u64)),
                                ("stats", opt_percentiles_to_json(stats)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.class_queue_p99.is_empty() {
            fields.push((
                "class_queue_p99",
                JsonValue::Array(self.class_queue_p99.iter().map(opt_u64_to_json).collect()),
            ));
        }
        // Fault-injection summary (additive, optional): present only when a
        // fault timeline actually fired, so fault-free results render
        // byte-identical to the pre-fault wire format.
        if let Some(f) = &self.faults {
            fields.push((
                "faults",
                obj(vec![
                    ("events", JsonValue::UInt(f.events)),
                    ("link_downtime_ps", JsonValue::UInt(f.link_downtime_ps)),
                    ("dropped_bytes", JsonValue::UInt(f.dropped_bytes)),
                    ("dropped_packets", JsonValue::UInt(f.dropped_packets)),
                    (
                        "goodput_during_faults",
                        JsonValue::UInt(f.goodput_during_faults),
                    ),
                    (
                        "utilization_while_up",
                        JsonValue::Float(f.utilization_while_up),
                    ),
                ]),
            ));
        }
        // Backend marker (additive, optional): present only when the result
        // came from a non-default engine, so packet results render
        // byte-identical to the pre-boundary wire format.
        if let Some(b) = backend_to_json(self.backend) {
            fields.push(("backend", b));
        }
        fields.push(("digest", JsonValue::UInt(self.digest)));
        obj(fields)
    }

    /// Decode a canonical result object. The decoded result carries no raw
    /// simulator output (`results: None`) and no wall time (`wall` is zero
    /// until an envelope supplies the worker's measurement).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let mut buckets = Vec::new();
        for b in v.require("slowdown_buckets")?.as_array()? {
            buckets.push(bucket_stats_from_json(b)?);
        }
        // Optional multi-class fields: absent on (and before) the
        // single-class wire format, which must keep decoding.
        let mut prio_slowdown = Vec::new();
        if let Some(rows) = v.get("prio_slowdown") {
            for row in rows.as_array()? {
                let code = row.require("prio")?.as_u64()?;
                if code > u8::MAX as u64 {
                    return Err(JsonError(format!("priority code {code} out of range")));
                }
                prio_slowdown.push((
                    code as u8,
                    opt_percentiles_from_json(row.require("stats")?)?,
                ));
            }
        }
        let mut class_queue_p99 = Vec::new();
        if let Some(rows) = v.get("class_queue_p99") {
            for row in rows.as_array()? {
                class_queue_p99.push(opt_u64_from_json(row)?);
            }
        }
        let faults = match v.get("faults") {
            Some(f) => Some(FaultSummary {
                events: f.require("events")?.as_u64()?,
                link_downtime_ps: f.require("link_downtime_ps")?.as_u64()?,
                dropped_bytes: f.require("dropped_bytes")?.as_u64()?,
                dropped_packets: f.require("dropped_packets")?.as_u64()?,
                goodput_during_faults: f.require("goodput_during_faults")?.as_u64()?,
                utilization_while_up: f.require("utilization_while_up")?.as_f64()?,
            }),
            None => None,
        };
        Ok(ScenarioResult {
            name: v.require("name")?.as_str()?.to_string(),
            scheme: v.require("scheme")?.as_str()?.to_string(),
            slowdown: opt_percentiles_from_json(v.require("slowdown")?)?,
            short_flow_slowdown: opt_percentiles_from_json(v.require("short_flow_slowdown")?)?,
            slowdown_buckets: buckets,
            queue_p50: opt_u64_from_json(v.require("queue_p50")?)?,
            queue_p95: opt_u64_from_json(v.require("queue_p95")?)?,
            queue_p99: opt_u64_from_json(v.require("queue_p99")?)?,
            max_queue_bytes: v.require("max_queue_bytes")?.as_u64()?,
            pfc: pfc_from_json(v.require("pfc")?)?,
            drops: v.require("drops")?.as_u64()?,
            completion: v.require("completion")?.as_f64()?,
            flows_completed: v.require("flows_completed")?.as_usize()?,
            prio_slowdown,
            class_queue_p99,
            faults,
            backend: match v.get("backend") {
                Some(b) => backend_from_json(b)?,
                None => BackendSpec::Packet,
            },
            digest: v.require("digest")?.as_u64()?,
            wall: std::time::Duration::ZERO,
            results: None,
        })
    }
}

impl CampaignReport {
    /// The canonical JSON of the whole report: a JSON array of canonical
    /// per-scenario objects in scenario order. Wall times and thread counts
    /// are deliberately excluded, so equal strings ⇔ bit-identical campaign
    /// outcomes, no matter how (or where) the campaign ran.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.results.iter().map(|r| r.to_json()).collect())
    }

    /// [`CampaignReport::to_json`], rendered to a compact string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Decode a canonical report (the output of
    /// [`CampaignReport::to_json_string`]). Wall times are zero and
    /// `threads` is recorded as 1 — neither crosses the wire.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let doc = JsonValue::parse(text)?;
        let mut results = Vec::new();
        for item in doc.as_array()? {
            results.push(ScenarioResult::from_json(item)?);
        }
        Ok(CampaignReport {
            results,
            wall: std::time::Duration::ZERO,
            threads: 1,
        })
    }
}

/// Encode one completed scenario as a JSONL line (without the trailing
/// newline): the envelope carries the scenario `index` and the worker's
/// `wall_ns`; the canonical result object rides in `result`.
pub fn encode_result_line(index: usize, result: &ScenarioResult) -> String {
    obj(vec![
        ("index", JsonValue::UInt(index as u64)),
        (
            "wall_ns",
            JsonValue::UInt(result.wall.as_nanos().min(u64::MAX as u128) as u64),
        ),
        ("result", result.to_json()),
    ])
    .render()
}

/// Decode one JSONL line into `(scenario index, result)`. The envelope's
/// `wall_ns` is restored onto the result.
pub fn decode_result_line(line: &str) -> Result<(usize, ScenarioResult), JsonError> {
    let v = JsonValue::parse(line)?;
    let index = v.require("index")?.as_usize()?;
    let mut result = ScenarioResult::from_json(v.require("result")?)?;
    result.wall = std::time::Duration::from_nanos(v.require("wall_ns")?.as_u64()?);
    Ok((index, result))
}

/// A typed error from the stream decode / merge paths, so callers (and
/// humans reading CI logs) can tell a corrupt line from a killed-mid-write
/// tail from an incomplete partition.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// A complete (newline-terminated) line failed to decode.
    Line {
        /// 1-based position of the stream among the merge inputs.
        stream: usize,
        /// 1-based line number within that stream.
        line: usize,
        /// The underlying JSON decode error.
        error: JsonError,
    },
    /// The final line of a stream is unterminated *and* undecodable — the
    /// signature of a producer killed mid-write. Strict consumers (the
    /// merge) report it; lenient ones ([`decode_stream_lines`]) keep every
    /// record before it.
    Truncated {
        /// 1-based position of the stream among the merge inputs.
        stream: usize,
        /// 1-based line number of the partial record.
        line: usize,
    },
    /// The union of the streams is not a complete `0..n` partition of the
    /// campaign (gap, duplicate, or wrong total).
    Partition(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Line {
                stream,
                line,
                error,
            } => {
                write!(f, "stream {stream}, line {line}: {error}")
            }
            WireError::Truncated { stream, line } => write!(
                f,
                "stream {stream}: line {line} is a truncated trailing record \
                 (producer killed mid-write?); every record before it is intact"
            ),
            WireError::Partition(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The truncated trailing record of a stream, as located by
/// [`decode_stream_lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedTail {
    /// 1-based line number of the partial record.
    pub line: usize,
    /// Byte offset where the partial record starts: everything before it is
    /// intact, so truncating a checkpoint file to this length repairs it in
    /// place.
    pub byte_offset: usize,
}

/// What [`decode_stream_lines`] recovers from one stream: the decoded
/// `(index, result)` entries, plus the located truncated tail, if any.
pub type DecodedStream = (Vec<(usize, ScenarioResult)>, Option<TruncatedTail>);

/// Decode every result line of one stream, tolerating a truncated tail.
///
/// Complete (newline-terminated) lines must decode — a garbage line in the
/// middle of a stream is a [`WireError::Line`] naming the stream and line
/// number. A *final* line that is unterminated **and** fails to decode is
/// returned as a [`TruncatedTail`] instead of an error, so a checkpoint or
/// shard file cut mid-write by a dying process loses exactly the partial
/// record and nothing else. (A final unterminated line that *does* decode
/// is accepted as complete.) `stream` is the 1-based label used in errors.
pub fn decode_stream_lines(text: &str, stream: usize) -> Result<DecodedStream, WireError> {
    let mut entries = Vec::new();
    let mut offset = 0usize;
    for (index, segment) in text.split_inclusive('\n').enumerate() {
        let number = index + 1;
        let start = offset;
        offset += segment.len();
        let terminated = segment.ends_with('\n');
        let line = segment.trim();
        if line.is_empty() {
            continue;
        }
        match decode_result_line(line) {
            Ok(entry) => entries.push(entry),
            // Only the last segment of a stream can be unterminated.
            Err(_) if !terminated => {
                return Ok((
                    entries,
                    Some(TruncatedTail {
                        line: number,
                        byte_offset: start,
                    }),
                ));
            }
            Err(error) => {
                return Err(WireError::Line {
                    stream,
                    line: number,
                    error,
                });
            }
        }
    }
    Ok((entries, None))
}

/// Merge shard streams (the concatenated JSONL output of one or more
/// workers, blank lines ignored) into a single [`CampaignReport`] ordered
/// by scenario index.
///
/// When `expected_len` is `Some(n)` the merged indices must be exactly
/// `0..n` — a lost or truncated shard cannot silently produce a shorter
/// report. With `None` the indices must still be contiguous from 0 (gaps
/// and duplicates are errors), but missing *trailing* scenarios are
/// undetectable; pass `Some` whenever the campaign size is known. The
/// merge is strict: a stream whose final record was cut mid-write is a
/// [`WireError::Truncated`] naming the line (use [`decode_stream_lines`]
/// to salvage the intact prefix instead). The report's `threads` field
/// records the number of streams; `wall` is zero (the caller may overwrite
/// it with the coordinator's measurement).
pub fn merge_shard_streams<'a>(
    streams: impl IntoIterator<Item = &'a str>,
    expected_len: Option<usize>,
) -> Result<CampaignReport, WireError> {
    let mut entries: Vec<(usize, ScenarioResult)> = Vec::new();
    let mut n_streams = 0usize;
    for text in streams {
        n_streams += 1;
        let (mut decoded, tail) = decode_stream_lines(text, n_streams)?;
        if let Some(tail) = tail {
            return Err(WireError::Truncated {
                stream: n_streams,
                line: tail.line,
            });
        }
        entries.append(&mut decoded);
    }
    entries.sort_by_key(|(index, _)| *index);
    if let Some(n) = expected_len {
        if entries.len() != n {
            return Err(WireError::Partition(format!(
                "shard streams carry {} results, campaign has {n} scenarios",
                entries.len()
            )));
        }
    }
    for (expected, (index, _)) in entries.iter().enumerate() {
        if *index != expected {
            return Err(WireError::Partition(format!(
                "shard streams are not a complete partition: expected \
                 scenario index {expected}, found {index} (duplicate or \
                 missing shard?)"
            )));
        }
    }
    Ok(CampaignReport {
        results: entries.into_iter().map(|(_, r)| r).collect(),
        wall: std::time::Duration::ZERO,
        threads: n_streams.max(1),
    })
}

/// One message of the campaign-fabric TCP protocol (see [`crate::fabric`]
/// and the "Fabric messages" section of `docs/WIRE.md`).
///
/// Messages travel length-framed over the stream ([`write_frame`] /
/// [`read_frame`]): a decimal byte-length line, then exactly that many
/// bytes of one canonical JSON object, then a newline. The object's `type`
/// member selects the variant.
pub enum FabricMsg {
    /// Worker → coordinator: the first message on every connection, naming
    /// the worker (diagnostics only — names never reach canonical output).
    Hello {
        /// The worker's display name.
        worker: String,
    },
    /// Coordinator → worker: the campaign manifest, shipped over the wire
    /// in canonical form so workers need no local manifest file and
    /// rebuild byte-identical scenario specs (hence identical digests).
    Manifest {
        /// The campaign to execute.
        campaign: Campaign,
    },
    /// Coordinator → worker: scenario indices to execute, in order.
    Lease {
        /// Ascending scenario indices of this lease.
        indices: Vec<usize>,
    },
    /// Worker → coordinator: one completed scenario, using the standard
    /// result-line envelope members plus the `type` tag.
    Result {
        /// The scenario's position in the campaign.
        index: usize,
        /// The completed result (its `wall` rides the envelope's
        /// `wall_ns`, outside the canonical object).
        result: Box<ScenarioResult>,
    },
    /// Worker → coordinator: liveness signal between results.
    Heartbeat {
        /// Scenarios this worker has completed so far.
        executed: u64,
    },
    /// Graceful end of the conversation (either direction).
    Bye,
}

impl FabricMsg {
    /// The canonical JSON object of this message.
    pub fn to_json(&self) -> JsonValue {
        match self {
            FabricMsg::Hello { worker } => obj(vec![
                ("type", JsonValue::Str("hello".to_string())),
                ("worker", JsonValue::Str(worker.clone())),
            ]),
            FabricMsg::Manifest { campaign } => obj(vec![
                ("type", JsonValue::Str("manifest".to_string())),
                ("campaign", campaign.to_json()),
            ]),
            FabricMsg::Lease { indices } => obj(vec![
                ("type", JsonValue::Str("lease".to_string())),
                (
                    "indices",
                    JsonValue::Array(indices.iter().map(|&i| JsonValue::UInt(i as u64)).collect()),
                ),
            ]),
            FabricMsg::Result { index, result } => obj(vec![
                ("type", JsonValue::Str("result".to_string())),
                ("index", JsonValue::UInt(*index as u64)),
                (
                    "wall_ns",
                    JsonValue::UInt(result.wall.as_nanos().min(u64::MAX as u128) as u64),
                ),
                ("result", result.to_json()),
            ]),
            FabricMsg::Heartbeat { executed } => obj(vec![
                ("type", JsonValue::Str("heartbeat".to_string())),
                ("executed", JsonValue::UInt(*executed)),
            ]),
            FabricMsg::Bye => obj(vec![("type", JsonValue::Str("bye".to_string()))]),
        }
    }

    /// Decode a fabric message object (the inverse of
    /// [`FabricMsg::to_json`]).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.require("type")?.as_str()? {
            "hello" => Ok(FabricMsg::Hello {
                worker: v.require("worker")?.as_str()?.to_string(),
            }),
            "manifest" => Ok(FabricMsg::Manifest {
                campaign: Campaign::from_json(v.require("campaign")?)?,
            }),
            "lease" => {
                let mut indices = Vec::new();
                for item in v.require("indices")?.as_array()? {
                    indices.push(item.as_usize()?);
                }
                Ok(FabricMsg::Lease { indices })
            }
            "result" => {
                let index = v.require("index")?.as_usize()?;
                let mut result = ScenarioResult::from_json(v.require("result")?)?;
                result.wall = std::time::Duration::from_nanos(v.require("wall_ns")?.as_u64()?);
                Ok(FabricMsg::Result {
                    index,
                    result: Box::new(result),
                })
            }
            "heartbeat" => Ok(FabricMsg::Heartbeat {
                executed: v.require("executed")?.as_u64()?,
            }),
            "bye" => Ok(FabricMsg::Bye),
            other => err(format!("unknown fabric message type {other}")),
        }
    }
}

/// Write one length-framed fabric message and flush it, so the peer sees
/// the frame immediately: a decimal byte-length line, the message's
/// canonical JSON, a newline.
pub fn write_frame<W: std::io::Write>(w: &mut W, msg: &FabricMsg) -> std::io::Result<()> {
    let payload = msg.to_json().render();
    writeln!(w, "{}", payload.len())?;
    writeln!(w, "{payload}")?;
    w.flush()
}

/// Largest payload [`read_frame`] accepts. The length header comes from the
/// peer and sizes an allocation, so it is bounded before anything is
/// reserved; 256 MiB holds a manifest frame of ~700 k scenarios at the
/// sweep generator's 380 bytes each.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Read one length-framed fabric message. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; EOF inside a frame, a malformed length header
/// (one above [`MAX_FRAME_BYTES`] included), or an undecodable payload are
/// `InvalidData` errors.
pub fn read_frame<R: std::io::BufRead>(r: &mut R) -> std::io::Result<Option<FabricMsg>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len = header
        .trim()
        .parse()
        .ok()
        .filter(|len: &usize| *len <= MAX_FRAME_BYTES)
        .ok_or_else(|| bad_frame(format!("malformed frame header {}", header.trim())))?;
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload)?;
    if payload.pop() != Some(b'\n') {
        return Err(bad_frame("frame payload is not newline-terminated"));
    }
    let text =
        std::str::from_utf8(&payload).map_err(|_| bad_frame("frame payload is not UTF-8"))?;
    let doc = JsonValue::parse(text).map_err(|e| bad_frame(format!("frame payload: {e}")))?;
    match FabricMsg::from_json(&doc) {
        Ok(msg) => Ok(Some(msg)),
        Err(e) => Err(bad_frame(format!("fabric message: {e}"))),
    }
}

fn bad_frame(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built result exercising every field shape: present and absent
    /// percentiles, both bucket tables, extreme integers.
    fn synthetic(name: &str, digest: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            scheme: "HPCC".to_string(),
            slowdown: Percentiles::of(&[1.0, 2.5, 40.0]),
            short_flow_slowdown: None,
            slowdown_buckets: vec![
                SizeBucketStats {
                    bucket: websearch_buckets()[0],
                    stats: Percentiles::of(&[1.5, 1.5, 9.75]),
                },
                SizeBucketStats {
                    bucket: *fb_hadoop_buckets().last().unwrap(),
                    stats: None,
                },
            ],
            queue_p50: Some(1_000),
            queue_p95: None,
            queue_p99: Some(u64::MAX),
            max_queue_bytes: 5,
            pfc: PfcSummary::new(
                &[Duration::from_us(3), Duration::ZERO],
                2,
                Duration::from_ms(1),
            ),
            drops: 7,
            completion: 0.975,
            flows_completed: 39,
            prio_slowdown: vec![
                (0, Percentiles::of(&[1.0, 2.0])),
                (1, None),
                (4, Percentiles::of(&[3.5])),
            ],
            class_queue_p99: vec![Some(12_288), None, Some(0)],
            faults: Some(FaultSummary {
                events: 6,
                link_downtime_ps: 400_000_000,
                dropped_bytes: 88_512,
                dropped_packets: 80,
                goodput_during_faults: 1_234_567,
                utilization_while_up: 0.625,
            }),
            backend: BackendSpec::Fluid,
            digest,
            wall: std::time::Duration::from_millis(12),
            results: None,
        }
    }

    #[test]
    fn result_lines_round_trip_every_field() {
        let original = synthetic("fig11 HPCC", u64::MAX - 3);
        let line = encode_result_line(4, &original);
        let (index, back) = decode_result_line(&line).unwrap();
        assert_eq!(index, 4);
        // The canonical object survives byte-identically…
        assert_eq!(back.to_json().render(), original.to_json().render());
        // …and the envelope restored the worker's wall time.
        assert_eq!(back.wall, original.wall);
        assert!(back.results.is_none());
        // Spot-check decoded fields (not just the re-render).
        assert_eq!(back.digest, u64::MAX - 3);
        assert_eq!(back.queue_p99, Some(u64::MAX));
        assert_eq!(back.queue_p95, None);
        assert_eq!(back.slowdown.unwrap(), original.slowdown.unwrap());
        assert_eq!(back.pfc, original.pfc);
        assert_eq!(back.slowdown_buckets[0].bucket.label, "<3K");
        assert_eq!(back.slowdown_buckets[1].bucket.label, "10M");
        assert_eq!(back.prio_slowdown, original.prio_slowdown);
        assert_eq!(back.class_queue_p99, original.class_queue_p99);
        assert_eq!(back.faults, original.faults);
    }

    #[test]
    fn single_class_results_omit_the_multi_class_keys_and_old_lines_decode() {
        let mut legacy = synthetic("legacy", 5);
        legacy.prio_slowdown.clear();
        legacy.class_queue_p99.clear();
        legacy.faults = None;
        legacy.backend = BackendSpec::Packet;
        let text = legacy.to_json().render();
        // The canonical single-class, fault-free, packet-backend object is
        // byte-identical to the pre-scheduling / pre-fault / pre-boundary
        // wire format: no optional keys at all.
        assert!(!text.contains("prio_slowdown"), "{text}");
        assert!(!text.contains("class_queue_p99"), "{text}");
        assert!(!text.contains("faults"), "{text}");
        assert!(!text.contains("backend"), "{text}");
        // And a line without those keys (an "old" producer) decodes to the
        // empty defaults.
        let back =
            ScenarioResult::from_json(&crate::json::JsonValue::parse(&text).unwrap()).unwrap();
        assert!(back.prio_slowdown.is_empty());
        assert!(back.class_queue_p99.is_empty());
        assert!(back.faults.is_none());
        assert_eq!(
            back.to_json().render(),
            text,
            "decode -> re-encode is byte-stable"
        );
    }

    #[test]
    fn merge_reorders_and_validates_streams() {
        let lines = |items: &[(usize, u64)]| -> String {
            items
                .iter()
                .map(|(i, d)| encode_result_line(*i, &synthetic(&format!("s{i}"), *d)) + "\n")
                .collect()
        };
        // Two out-of-order streams (plus a blank line) merge into scenario
        // order, with `threads` recording the stream count.
        let a = lines(&[(2, 20), (0, 10)]) + "\n";
        let b = lines(&[(3, 30), (1, 11)]);
        let report = merge_shard_streams([a.as_str(), b.as_str()], Some(4)).unwrap();
        assert_eq!(report.digests(), vec![10, 11, 20, 30]);
        assert_eq!(report.threads, 2);
        assert_eq!(
            report
                .results
                .iter()
                .map(|r| r.name.clone())
                .collect::<Vec<_>>(),
            vec!["s0", "s1", "s2", "s3"]
        );
        // A missing scenario is an error, not a silently shorter report…
        let gap = lines(&[(0, 10), (2, 20)]);
        assert!(merge_shard_streams([gap.as_str()], Some(3)).is_err());
        assert!(merge_shard_streams([gap.as_str()], None).is_err());
        // …and so are duplicates and wrong totals.
        let dup = lines(&[(0, 10), (0, 10), (1, 11)]);
        assert!(merge_shard_streams([dup.as_str()], None).is_err());
        assert!(merge_shard_streams([a.as_str()], Some(4)).is_err());
        // Garbage lines surface as parse errors.
        assert!(merge_shard_streams(["not json"], None).is_err());
    }

    #[test]
    fn every_producible_bucket_survives_the_wire() {
        // `bucket_choice` in campaign.rs can only emit these two tables;
        // whoever adds a third set there must extend `known_bucket` (and
        // this test) or distributed merges break while local runs pass.
        for bucket in websearch_buckets().into_iter().chain(fb_hadoop_buckets()) {
            for stats in [None, Percentiles::of(&[1.0, 4.0])] {
                let row = SizeBucketStats { bucket, stats };
                let back = bucket_stats_from_json(&bucket_stats_to_json(&row)).unwrap();
                assert_eq!(back.bucket, bucket);
                assert_eq!(back.stats, stats);
            }
        }
    }

    #[test]
    fn campaign_report_json_round_trips() {
        let report = CampaignReport {
            results: vec![synthetic("a", 1), synthetic("b", 2)],
            wall: std::time::Duration::from_secs(9),
            threads: 4,
        };
        let text = report.to_json_string();
        let back = CampaignReport::from_json_str(&text).unwrap();
        // Canonical JSON is idempotent: decode → re-encode is byte-equal.
        assert_eq!(back.to_json_string(), text);
        assert_eq!(back.digests(), report.digests());
        // The canonical form excludes the host-dependent fields.
        assert!(!text.contains("wall"));
        assert!(!text.contains("threads"));
    }

    #[test]
    fn truncated_tail_is_a_typed_error_naming_the_line() {
        let whole = encode_result_line(0, &synthetic("a", 1)) + "\n";
        let second = encode_result_line(1, &synthetic("b", 2));
        let cut = &second[..second.len() / 2];
        let text = format!("{whole}{cut}");

        // Strict merge: a typed Truncated error carrying stream and line.
        match merge_shard_streams([text.as_str()], Some(2)) {
            Err(WireError::Truncated { stream: 1, line: 2 }) => {}
            Err(other) => panic!("expected Truncated stream 1 line 2, got {other}"),
            Ok(_) => panic!("expected Truncated stream 1 line 2, got Ok"),
        }
        // The rendered message names the line number for CI logs.
        let msg = match merge_shard_streams([text.as_str()], Some(2)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected an error"),
        };
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");

        // Lenient decode: the intact prefix survives, the tail is located
        // exactly (line number and byte offset of the partial record).
        let (entries, tail) = decode_stream_lines(&text, 1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, 0);
        let tail = tail.unwrap();
        assert_eq!(tail.line, 2);
        assert_eq!(tail.byte_offset, whole.len());
        // Truncating to the byte offset repairs the stream in place.
        let repaired = &text[..tail.byte_offset];
        let (entries, tail) = decode_stream_lines(repaired, 1).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(tail.is_none());

        // A garbage line in the *middle* (newline-terminated) is a Line
        // error, not a truncation.
        let garbage = format!("{whole}not json\n{second}\n");
        match merge_shard_streams([garbage.as_str()], Some(2)) {
            Err(WireError::Line {
                stream: 1, line: 2, ..
            }) => {}
            Err(other) => panic!("expected Line error at line 2, got {other}"),
            Ok(_) => panic!("expected Line error at line 2, got Ok"),
        }

        // A final unterminated line that *does* decode is accepted.
        let unterminated = format!("{whole}{second}");
        let report = merge_shard_streams([unterminated.as_str()], Some(2)).unwrap();
        assert_eq!(report.digests(), vec![1, 2]);
    }

    #[test]
    fn fabric_messages_round_trip_and_frame() {
        use crate::presets::incast_on_star;
        use crate::scenario::CcSpec;
        use hpcc_types::Bandwidth;

        let campaign = Campaign::from_scenarios(vec![
            incast_on_star(
                "a",
                CcSpec::by_label("HPCC"),
                2,
                10_000,
                Bandwidth::from_gbps(25),
                Duration::from_us(50),
            ),
            incast_on_star(
                "b",
                CcSpec::by_label("DCQCN"),
                3,
                20_000,
                Bandwidth::from_gbps(25),
                Duration::from_us(50),
            ),
        ]);
        let msgs = vec![
            FabricMsg::Hello {
                worker: "w0".to_string(),
            },
            FabricMsg::Manifest {
                campaign: campaign.clone(),
            },
            FabricMsg::Lease {
                indices: vec![0, 1],
            },
            FabricMsg::Result {
                index: 1,
                result: Box::new(synthetic("b", 42)),
            },
            FabricMsg::Heartbeat { executed: 7 },
            FabricMsg::Bye,
        ];
        // Frame every message into one buffer, then read them all back.
        let mut buf = Vec::new();
        for msg in &msgs {
            write_frame(&mut buf, msg).unwrap();
        }
        let mut reader = std::io::BufReader::new(buf.as_slice());
        for msg in &msgs {
            let back = read_frame(&mut reader).unwrap().expect("frame present");
            assert_eq!(back.to_json().render(), msg.to_json().render());
            // The shipped manifest reconstructs the campaign canonically —
            // the property the fabric's digest identity rests on.
            if let (FabricMsg::Manifest { campaign: orig }, FabricMsg::Manifest { campaign: got }) =
                (msg, &back)
            {
                assert_eq!(got.to_json_string(), orig.to_json_string());
            }
            // The result envelope restores the worker's wall time.
            if let FabricMsg::Result { index, result } = &back {
                assert_eq!(*index, 1);
                assert_eq!(result.wall, synthetic("b", 42).wall);
                assert_eq!(result.digest, 42);
            }
        }
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");

        // EOF mid-frame, malformed headers, and garbage payloads are typed
        // InvalidData io errors, never panics.
        let mut cut = Vec::new();
        write_frame(&mut cut, &FabricMsg::Bye).unwrap();
        cut.truncate(cut.len() - 3);
        let mut reader = std::io::BufReader::new(cut.as_slice());
        assert!(read_frame(&mut reader).is_err());
        // A header sizes an allocation: usize::MAX (whose +1 for the newline
        // overflows) and 100 TB are refused before anything is reserved.
        for broken in [
            "x\n",
            "5\nab{}c\n",
            "14\n{\"type\":\"nah\"}\n",
            "18446744073709551615\n{}\n",
            "99999999999999\n{}\n",
        ] {
            let mut reader = std::io::BufReader::new(broken.as_bytes());
            assert!(read_frame(&mut reader).is_err(), "{broken}");
        }
    }

    #[test]
    fn unknown_buckets_are_rejected() {
        let line = encode_result_line(0, &synthetic("x", 1)).replace("\"<3K\"", "\"<9K\"");
        let err = match decode_result_line(&line) {
            Err(e) => e,
            Ok(_) => panic!("tampered bucket label must not decode"),
        };
        assert!(err.0.contains("unknown flow-size bucket"), "{err}");
    }
}
