//! The JSONL wire format of distributed campaigns.
//!
//! A sharded campaign ships per-scenario results between processes (and
//! hosts) as JSON Lines: one self-contained object per completed scenario,
//! written by [`crate::Campaign::run_shard_streaming`] the moment the
//! scenario finishes and folded back into a single [`CampaignReport`] by
//! [`merge_shard_streams`]. Everything rides on the in-tree [`crate::json`]
//! module — no external serde.
//!
//! Whatever their route — shard files, fabric workers, a checkpoint —
//! results are ordered and checked in one place, the [`ResultLedger`].
//!
//! # Line schema
//!
//! ```json
//! {"index": 3, "wall_ns": 412007831, "result": { ... }}
//! ```
//!
//! * `index` — the scenario's position in the campaign, so a coordinator
//!   can reassemble streams that arrive in any order.
//! * `wall_ns` — the wall-clock time the worker spent on the scenario,
//!   divided on a fabric worker by the number of threads its lease ran on (the
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
use crate::codec::{wire_struct, wire_tagged, Fields, Members, Obj, Path, Wire};
use crate::json::{write_str, JsonError, JsonValue};
use crate::scenario::BackendSpec;
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets, FctBucket, SizeBucketStats};
use hpcc_stats::pfc::PfcSummary;
use hpcc_stats::Percentiles;
use std::collections::BTreeMap;

// The result schema (`docs/WIRE.md`): one row per member, in byte order.
// See `crate::codec` for the row forms.

wire_struct!(ScenarioResult {
    name: "name",
    scheme: "scheme",
    slowdown: "slowdown",
    short_flow_slowdown: "short_flow_slowdown",
    slowdown_buckets: "slowdown_buckets",
    queue_p50: "queue_p50",
    queue_p95: "queue_p95",
    queue_p99: "queue_p99",
    max_queue_bytes: "max_queue_bytes",
    pfc: "pfc",
    drops: "drops",
    completion: "completion",
    flows_completed: "flows_completed",
    // The four additive extensions: omitted unless populated, so
    // single-class, fault-free, packet-backend results render as they did
    // before each was added.
    prio_slowdown: "prio_slowdown" = Vec::new(),
    class_queue_p99: "class_queue_p99" = Vec::new(),
    faults: "faults" = None,
    backend: "backend" = BackendSpec::Packet,
    digest: "digest",
} skip {
    // Neither crosses the wire: an envelope supplies the worker's wall time.
    wall: std::time::Duration::ZERO,
    results: None,
});

wire_struct!(Percentiles {
    count: "count",
    p50: "p50",
    p95: "p95",
    p99: "p99",
    mean: "mean",
    max: "max",
});

wire_struct!(SizeBucketStats {
    bucket: ..,
    stats: "stats"
});

/// A bucket is its `(max_size, label)` pair, resolved on decode against the
/// known bucket tables: campaign results only ever use the paper's
/// WebSearch / FB_Hadoop bucket sets, so nothing leaks a label string.
impl Fields for FctBucket {
    fn write_fields(&self, obj: &mut Obj<'_>) {
        obj.put("max_size", &self.max_size);
        write_str(self.label, obj.key("label"));
    }

    fn decode_fields(m: &mut Members<'_>) -> Result<Self, JsonError> {
        let (max_size, label): (u64, &str) = (m.required("max_size")?, m.tag("label")?);
        websearch_buckets()
            .into_iter()
            .chain(fb_hadoop_buckets())
            .find(|b| b.max_size == max_size && b.label == label)
            .ok_or_else(|| {
                m.at().error(format!(
                    "unknown flow-size bucket ({max_size}, {}); \
                     not in the WebSearch or FB_Hadoop tables",
                    crate::codec::quoted(label)
                ))
            })
    }

    fn field_keys(out: &mut Vec<&'static str>) {
        out.extend(["max_size", "label"]);
    }
}

wire_struct!(PfcSummary {
    total_pause: "total_pause_ps",
    paused_ports: "paused_ports",
    total_ports: "total_ports",
    elapsed: "elapsed_ps",
    pause_frames: "pause_frames",
});

/// A per-priority row is `{"prio": wire code, "stats": percentiles | null}`.
impl Fields for (u8, Option<Percentiles>) {
    fn write_fields(&self, obj: &mut Obj<'_>) {
        obj.put("prio", &self.0);
        obj.put("stats", &self.1);
    }

    fn decode_fields(m: &mut Members<'_>) -> Result<Self, JsonError> {
        Ok((m.required("prio")?, m.required("stats")?))
    }

    fn field_keys(out: &mut Vec<&'static str>) {
        out.extend(["prio", "stats"]);
    }
}

wire_struct!(FaultSummary {
    events: "events",
    link_downtime_ps: "link_downtime_ps",
    dropped_bytes: "dropped_bytes",
    dropped_packets: "dropped_packets",
    goodput_during_faults: "goodput_during_faults",
    utilization_while_up: "utilization_while_up",
});

impl ScenarioResult {
    /// The canonical JSON object of this result: every deterministic field
    /// (summary metrics and digest), and nothing host-dependent — no wall
    /// time, no raw simulator output. See the [module docs](self) for the
    /// determinism contract this buys. The value is its written text,
    /// parsed.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Decode a canonical result object. The decoded result carries no raw
    /// simulator output (`results: None`) and no wall time (`wall` is zero
    /// until an envelope supplies the worker's measurement).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Self::decode(v, &Path::Root)
    }
}

impl CampaignReport {
    /// The canonical JSON of the whole report: a JSON array of canonical
    /// per-scenario objects in scenario order. Wall times and thread counts
    /// are deliberately excluded, so equal strings ⇔ bit-identical campaign
    /// outcomes, no matter how (or where) the campaign ran. The value is
    /// [`CampaignReport::to_json_string`], parsed.
    pub fn to_json(&self) -> JsonValue {
        self.results.encode()
    }

    /// [`CampaignReport::to_json`] as compact text, written directly.
    pub fn to_json_string(&self) -> String {
        self.results.text()
    }

    /// Decode a canonical report (the output of
    /// [`CampaignReport::to_json_string`]). Wall times are zero and
    /// `threads` is recorded as 1 — neither crosses the wire.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Ok(CampaignReport {
            results: Vec::decode(&JsonValue::parse(text)?, &Path::Root)?,
            wall: std::time::Duration::ZERO,
            threads: 1,
        })
    }
}

/// A result with the wall time its worker measured: `wall_ns` beside the
/// canonical `result` object, which excludes it. The members a result line
/// and a fabric `result` message (through `Box<ScenarioResult>`) share.
fn write_timed(result: &ScenarioResult, obj: &mut Obj<'_>) {
    let wall_ns = result.wall.as_nanos().min(u64::MAX as u128) as u64;
    obj.put("wall_ns", &wall_ns);
    obj.put("result", result);
}

fn decode_timed(m: &mut Members<'_>) -> Result<ScenarioResult, JsonError> {
    let wall_ns = m.required("wall_ns")?;
    let mut result: ScenarioResult = m.required("result")?;
    result.wall = std::time::Duration::from_nanos(wall_ns);
    Ok(result)
}

impl Fields for Box<ScenarioResult> {
    fn write_fields(&self, obj: &mut Obj<'_>) {
        write_timed(self, obj)
    }

    fn decode_fields(m: &mut Members<'_>) -> Result<Self, JsonError> {
        decode_timed(m).map(Box::new)
    }

    fn field_keys(out: &mut Vec<&'static str>) {
        out.extend(["wall_ns", "result"]);
        ScenarioResult::keys(out);
    }
}

/// Encode one completed scenario as a JSONL line (without the trailing
/// newline): the envelope carries the scenario `index` and the worker's
/// `wall_ns`; the canonical result object rides in `result`.
pub fn encode_result_line(index: usize, result: &ScenarioResult) -> String {
    let mut out = String::new();
    let mut obj = Obj::open(&mut out);
    obj.put("index", &index);
    write_timed(result, &mut obj);
    obj.close();
    out
}

/// Decode one JSONL line into `(scenario index, result)`. The envelope's
/// `wall_ns` is restored onto the result.
pub fn decode_result_line(line: &str) -> Result<(usize, ScenarioResult), JsonError> {
    let v = JsonValue::parse(line)?;
    let mut m = Members::open(&v, &Path::Root)?;
    let entry = (m.required("index")?, decode_timed(&mut m)?);
    m.finish()?;
    Ok(entry)
}

/// A typed error from the stream decode path and the [`ResultLedger`], so
/// callers (and humans reading CI logs) can tell a corrupt line from a
/// killed-mid-write tail from an incomplete partition from a conflict.
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
    /// The results are not a complete `0..n` partition of the campaign (an
    /// index out of range, a duplicate where none may arrive, or a gap).
    Partition(String),
    /// Two executions of one scenario produced different digests. The
    /// determinism contract is broken (mismatched builds on the fleet?),
    /// and no merge that hides it can be trusted.
    DigestConflict {
        /// The scenario index delivered twice.
        index: usize,
        /// The digest recorded first.
        have: u64,
        /// The conflicting digest of the re-execution.
        got: u64,
    },
    /// A result row's name or scheme differs from the manifest scenario at
    /// its index: the rows were written for another manifest.
    ForeignRow {
        /// The row's scenario index.
        index: usize,
        /// The manifest scenario's name and scheme, as `"name" (scheme)`.
        manifest: String,
        /// The row's name and scheme, in the same form.
        row: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Line {
                stream,
                line,
                error,
            } => write!(f, "stream {stream}, line {line}: {error}"),
            WireError::Truncated { stream, line } => write!(
                f,
                "stream {stream}: line {line} is a truncated trailing record \
                 (producer killed mid-write?); every record before it is intact"
            ),
            WireError::Partition(msg) => write!(f, "{msg}"),
            WireError::DigestConflict { index, have, got } => write!(
                f,
                "digest conflict for scenario {index}: recorded {have:#018x}, \
                 re-execution produced {got:#018x}; refusing to merge"
            ),
            WireError::ForeignRow {
                index,
                manifest,
                row,
            } => write!(
                f,
                "result row {index} is {row}, but the manifest's scenario {index} is \
                 {manifest}: the rows were written for another manifest"
            ),
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

/// The one place results are ordered and checked, for [`merge_shard_streams`]
/// and the fabric coordinator alike. Results arrive in any order and possibly
/// more than once (a reassigned lease re-executes scenarios): the ledger keeps
/// the first copy, drops byte-identical duplicates, rejects conflicting
/// digests, and finishes into a report only once no scenario is missing.
pub struct ResultLedger {
    len: usize,
    done: BTreeMap<usize, ScenarioResult>,
    deduped: u64,
}

impl ResultLedger {
    /// An empty ledger for a campaign of `len` scenarios.
    pub fn new(len: usize) -> Self {
        ResultLedger {
            len,
            done: BTreeMap::new(),
            deduped: 0,
        }
    }

    /// Record one delivered result. `Ok(true)`: the result was new and is
    /// now recorded. `Ok(false)`: a byte-identical duplicate (same index,
    /// same digest), dropped. Errors: an out-of-range index
    /// ([`WireError::Partition`]), or a digest conflicting with the recorded
    /// one ([`WireError::DigestConflict`]) — never silently dropped.
    pub fn record(&mut self, index: usize, result: ScenarioResult) -> Result<bool, WireError> {
        if index >= self.len {
            return Err(WireError::Partition(format!(
                "result index {index} out of range for a campaign of {} scenarios",
                self.len
            )));
        }
        match self.done.get(&index) {
            Some(have) if have.digest == result.digest => {
                self.deduped += 1;
                Ok(false)
            }
            Some(have) => Err(WireError::DigestConflict {
                index,
                have: have.digest,
                got: result.digest,
            }),
            None => {
                self.done.insert(index, result);
                Ok(true)
            }
        }
    }

    /// The result recorded for scenario `index`, if any.
    pub(crate) fn get(&self, index: usize) -> Option<&ScenarioResult> {
        self.done.get(&index)
    }

    /// Whether scenario `index` already has a recorded result.
    pub fn contains(&self, index: usize) -> bool {
        self.done.contains_key(&index)
    }

    /// Number of distinct scenarios recorded so far.
    pub fn done(&self) -> usize {
        self.done.len()
    }

    /// True once every scenario has a result.
    pub fn is_complete(&self) -> bool {
        self.done.len() == self.len
    }

    /// Byte-identical duplicates dropped so far.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// The scenario indices still missing, ascending.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.len).filter(|i| !self.contains(*i)).collect()
    }

    /// Finish into a report in scenario order; an incomplete ledger is a
    /// [`WireError::Partition`] naming the first missing index. `wall` is
    /// zero and `threads` is 1 — the caller overwrites them with its own
    /// measurements (neither field reaches canonical output).
    pub fn into_report(self) -> Result<CampaignReport, WireError> {
        if let Some(first) = (0..self.len).find(|i| !self.contains(*i)) {
            return Err(WireError::Partition(format!(
                "results incomplete: {} of {} scenarios recorded, the first \
                 missing is index {first}",
                self.done.len(),
                self.len
            )));
        }
        Ok(CampaignReport {
            results: self.done.into_values().collect(),
            wall: std::time::Duration::ZERO,
            threads: 1,
        })
    }
}

/// Refuse a result `row` whose name or scheme differs from the `manifest`
/// scenario at its `index` ([`WireError::ForeignRow`]). An index beyond the
/// manifest is the [`ResultLedger`]'s to refuse.
pub fn check_row(manifest: &Campaign, index: usize, row: &ScenarioResult) -> Result<(), WireError> {
    match manifest.scenarios().get(index) {
        Some(spec) if spec.name != row.name || spec.scheme_label() != row.scheme => {
            Err(WireError::ForeignRow {
                index,
                manifest: format!("{:?} ({})", spec.name, spec.scheme_label()),
                row: format!("{:?} ({})", row.name, row.scheme),
            })
        }
        _ => Ok(()),
    }
}

/// Merge shard streams (the concatenated JSONL output of one or more
/// workers, blank lines ignored) into a single [`CampaignReport`] ordered
/// by scenario index, through a [`ResultLedger`].
///
/// When `expected_len` is `Some(n)` the merged indices must be exactly
/// `0..n` — a lost or truncated shard cannot silently produce a shorter
/// report. With `None` the ledger spans up to the highest index seen, so
/// gaps are still errors, but missing *trailing* scenarios are
/// undetectable; pass `Some` whenever the campaign size is known. The
/// merge is strict: an index delivered twice is an error even when both
/// copies agree, and a stream whose final record was cut mid-write is a
/// [`WireError::Truncated`] naming the line (use [`decode_stream_lines`]
/// to salvage the intact prefix instead). The report's `threads` field
/// records the number of streams; `wall` is zero.
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
    let highest = entries.iter().map(|(index, _)| index.saturating_add(1));
    let mut ledger = ResultLedger::new(expected_len.unwrap_or_else(|| highest.max().unwrap_or(0)));
    for (index, result) in entries {
        if !ledger.record(index, result)? {
            return Err(WireError::Partition(format!(
                "scenario index {index} arrives twice (overlapping shards?)"
            )));
        }
    }
    let mut report = ledger.into_report()?;
    report.threads = n_streams.max(1);
    Ok(report)
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
    /// The canonical JSON object of this message: its written text, parsed.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Decode a fabric message object (the inverse of
    /// [`FabricMsg::to_json`]).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Self::decode(v, &Path::Root)
    }
}

wire_tagged!(FabricMsg, "type" {
    "hello" => Hello { worker: "worker" },
    "manifest" => Manifest { campaign: "campaign" },
    "lease" => Lease { indices: "indices" },
    "result" => Result { index: "index", result: .. },
    "heartbeat" => Heartbeat { executed: "executed" },
    "bye" => Bye {},
});

/// One length-framed fabric message as bytes: a decimal byte-length line,
/// the message's canonical JSON, a newline.
pub(crate) fn encode_frame(msg: &FabricMsg) -> Vec<u8> {
    let payload = msg.text();
    let mut frame = payload.len().to_string().into_bytes();
    frame.reserve_exact(payload.len() + 2);
    frame.push(b'\n');
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    frame
}

/// Write one length-framed fabric message — a decimal byte-length line, the
/// message's canonical JSON, a newline — in a single write, and flush it,
/// so the peer sees the whole frame at once.
pub fn write_frame<W: std::io::Write>(w: &mut W, msg: &FabricMsg) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Largest payload [`read_frame`] accepts. The length header comes from the
/// peer, so it is bounded before any body byte is read; 256 MiB holds a
/// manifest frame of ~700 k scenarios at the sweep generator's 380 bytes
/// each.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// The longest header [`read_frame`] reads: [`MAX_FRAME_BYTES`]'s digits, `\n`.
const MAX_HEADER_BYTES: u64 = MAX_FRAME_BYTES.ilog10() as u64 + 2;

/// Read one length-framed fabric message. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; EOF inside a frame, a malformed length header
/// (one above [`MAX_FRAME_BYTES`] or longer than its digits and newline
/// included), or an undecodable payload are errors.
pub fn read_frame<R: std::io::BufRead>(r: &mut R) -> std::io::Result<Option<FabricMsg>> {
    use std::io::{BufRead, Read};
    let mut header = String::new();
    if r.by_ref().take(MAX_HEADER_BYTES).read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len = header
        .strip_suffix('\n')
        .and_then(|digits| digits.parse().ok())
        .filter(|len: &usize| *len <= MAX_FRAME_BYTES)
        .ok_or_else(|| bad_frame(format!("malformed frame header {}", header.trim())))?;
    // The buffer grows with the bytes that arrive, not with the header's
    // word: a peer that announces 256 MiB and sends 1 KiB costs 1 KiB.
    let mut payload = Vec::with_capacity((len + 1).min(64 << 10));
    r.take(len as u64 + 1).read_to_end(&mut payload)?;
    if payload.len() <= len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame body ends after {} of {len} bytes", payload.len()),
        ));
    }
    if payload.pop() != Some(b'\n') {
        return Err(bad_frame("frame payload is not newline-terminated"));
    }
    let text =
        std::str::from_utf8(&payload).map_err(|_| bad_frame("frame payload is not UTF-8"))?;
    let doc = JsonValue::parse(text).map_err(|e| bad_frame(format!("frame payload: {e}")))?;
    let msg = FabricMsg::from_json(&doc).map_err(|e| bad_frame(format!("fabric message: {e}")));
    msg.map(Some)
}

fn bad_frame(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::Duration;

    /// A hand-built result exercising every field shape: present and absent
    /// percentiles, both bucket tables, extreme integers. The source of
    /// `tests/fixtures/every_member.jsonl`.
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

    /// [`synthetic`] without the four optional members.
    fn legacy(name: &str, digest: u64) -> ScenarioResult {
        ScenarioResult {
            prio_slowdown: Vec::new(),
            class_queue_p99: Vec::new(),
            faults: None,
            backend: BackendSpec::Packet,
            ..synthetic(name, digest)
        }
    }

    #[test]
    fn result_lines_round_trip_every_field() {
        let original = synthetic("every member", u64::MAX - 3);
        let line = encode_result_line(4, &original);
        // The committed fixture is these two lines (`wire_fixtures.rs` holds
        // it to the tables' key list).
        assert_eq!(
            format!(
                "{}\n{}\n",
                encode_result_line(0, &original),
                encode_result_line(1, &legacy("no optional member", 5))
            ),
            include_str!("../tests/fixtures/every_member.jsonl"),
            "regenerate the fixture from synthetic() and legacy()"
        );
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
        let text = legacy("legacy", 5).to_json().render();
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
        // Everything the ledger refuses is an error naming the index, never a
        // silently shorter (or silently deduplicated) report.
        let partition = |streams: &[&str], expected| match merge_shard_streams(
            streams.iter().copied(),
            expected,
        ) {
            Err(WireError::Partition(msg)) => msg,
            other => panic!(
                "expected a partition error, got {:?}",
                other.map(|r| r.digests())
            ),
        };
        // A missing scenario names the first one missing, with and without
        // the campaign size…
        let gap = lines(&[(0, 10), (2, 20)]);
        for expected in [Some(3), None] {
            let msg = partition(&[&gap], expected);
            assert!(msg.ends_with("the first missing is index 1"), "{msg}");
        }
        let msg = partition(&[&a], Some(4));
        assert!(msg.ends_with("the first missing is index 1"), "{msg}");
        // …a duplicate is an error even when both copies agree, whether one
        // stream or two carry it…
        let dup = lines(&[(0, 10), (0, 10), (1, 11)]);
        let msg = partition(&[&dup], None);
        assert!(msg.contains("index 0 arrives twice"), "{msg}");
        let (x, y) = (lines(&[(0, 10), (1, 11)]), lines(&[(1, 11), (2, 20)]));
        let msg = partition(&[&x, &y], Some(3));
        assert!(msg.contains("index 1 arrives twice"), "{msg}");
        // …one that disagrees is a broken determinism contract…
        let z = lines(&[(1, 12), (2, 20)]);
        match merge_shard_streams([x.as_str(), z.as_str()], Some(3)) {
            Err(e) => assert_eq!(
                e,
                WireError::DigestConflict {
                    index: 1,
                    have: 11,
                    got: 12
                }
            ),
            Ok(_) => panic!("a conflicting duplicate merged"),
        }
        // …and an index past the campaign names it.
        let msg = partition(&[&b, &lines(&[(0, 10), (5, 50)])], Some(4));
        assert!(msg.contains("index 5 out of range"), "{msg}");
        // Garbage lines surface as parse errors.
        assert!(merge_shard_streams(["not json"], None).is_err());
    }

    /// Two small incast scenarios, for the tests that need real results or a
    /// real manifest.
    fn two_scenarios() -> Campaign {
        use crate::presets::incast_on_star;
        use crate::scenario::CcSpec;
        use hpcc_types::Bandwidth;

        Campaign::from_scenarios(vec![
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
        ])
    }

    #[test]
    fn ledger_dedupes_and_rejects_conflicts() {
        let campaign = two_scenarios();
        let a = campaign.run_index(0);
        let a_dup = campaign.run_index(0);
        let mut doctored = campaign.run_index(0);
        doctored.digest ^= 1;

        let mut ledger = ResultLedger::new(2);
        assert!(ledger.record(0, a).unwrap());
        assert!(!ledger.record(0, a_dup).unwrap(), "identical dup dropped");
        assert_eq!(ledger.deduped(), 1);
        match ledger.record(0, doctored) {
            Err(WireError::DigestConflict { index: 0, .. }) => {}
            other => panic!(
                "conflicting digest must be a typed error, got {:?}",
                other.map(|_| ())
            ),
        }
        assert_eq!(ledger.missing(), vec![1]);
        assert!(ledger.record(2, campaign.run_index(1)).is_err(), "range");
        assert!(ledger.record(1, campaign.run_index(1)).unwrap());
        assert!(ledger.is_complete());
        let report = ledger.into_report().unwrap();
        assert_eq!(
            report.to_json_string(),
            campaign.run_serial().to_json_string()
        );
    }

    #[test]
    fn every_producible_bucket_survives_the_wire() {
        // `bucket_table` in campaign.rs can only emit these two tables;
        // whoever adds a third set there must extend `FctBucket`'s decoder (and
        // this test) or distributed merges break while local runs pass.
        for bucket in websearch_buckets().into_iter().chain(fb_hadoop_buckets()) {
            for stats in [None, Percentiles::of(&[1.0, 4.0])] {
                let row = SizeBucketStats { bucket, stats };
                let back = SizeBucketStats::decode(&row.encode(), &Path::Root).unwrap();
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
        let campaign = two_scenarios();
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
    fn a_body_shorter_than_its_header_is_refused() {
        let mut frame = format!("{MAX_FRAME_BYTES}\n").into_bytes();
        frame.extend([b' '; 1 << 10]);
        let err = read_frame(&mut frame.as_slice()).err().expect("a cut body");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("after 1024 of"), "{err}");
    }

    #[test]
    fn a_header_without_its_newline_is_refused_after_a_bounded_read() {
        // 8 MiB of digits and no newline: the header is refused once it is
        // longer than any valid one, not after the peer's bytes run out.
        let digits = std::io::Cursor::new(vec![b'1'; 8 << 20]);
        let mut reader = std::io::BufReader::new(digits);
        let err = read_frame(&mut reader).err().expect("a malformed header");
        assert!(err.to_string().contains("malformed frame header"), "{err}");
        let consumed = reader.get_ref().position();
        assert!(consumed <= 16 << 10, "read {consumed} bytes of the header");
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Counts the calls a frame takes; every call takes all it is given.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl std::io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let campaign = Campaign::from_scenarios(vec![crate::presets::incast_on_star(
            "a",
            crate::scenario::CcSpec::by_label("HPCC"),
            2,
            10_000,
            hpcc_types::Bandwidth::from_gbps(25),
            Duration::from_us(50),
        )]);
        for msg in [
            FabricMsg::Result {
                index: 3,
                result: Box::new(synthetic("r", 9)),
            },
            FabricMsg::Manifest { campaign },
        ] {
            let mut sink = Counting::default();
            write_frame(&mut sink, &msg).unwrap();
            assert_eq!(sink.writes, 1, "one write per frame");
            assert_eq!(sink.bytes, encode_frame(&msg));
            let back = read_frame(&mut sink.bytes.as_slice()).unwrap().unwrap();
            assert_eq!(back.to_json(), msg.to_json());
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
