//! Batch execution of scenarios across OS threads and processes.
//!
//! A [`Campaign`] is an ordered list of [`ScenarioSpec`]s. [`Campaign::run`]
//! executes them across a pool of OS threads (scenarios are embarrassingly
//! parallel: each builds its own topology and simulator from plain data) and
//! collects a [`CampaignReport`] with one [`ScenarioResult`] per scenario,
//! *in scenario order*.
//!
//! Beyond one process, a [`ShardPlan`] deterministically partitions the
//! campaign into `k` round-robin shards. A worker process executes one shard
//! with [`Campaign::run_shard_streaming`], emitting each result as a JSONL
//! line (see [`crate::wire`]) the moment it completes; a coordinator merges
//! the shard streams back into one report with
//! [`crate::wire::merge_shard_streams`]. The `campaign` binary in
//! `hpcc-bench` exposes this offline pair as its `shard i/N` and `merge`
//! subcommands; live multi-process runs go through [`crate::fabric`]
//! (`serve` / `join`).
//!
//! Determinism is a hard guarantee: every scenario derives all randomness
//! from its own seed, so the per-scenario results — summarised metrics *and*
//! the [`ScenarioResult::digest`] over the raw simulator output — are
//! bit-identical whether the campaign runs serially, on 2 threads, on 64,
//! or sharded across processes on several hosts.

use crate::codec::{Path, Wire};
use crate::experiment::ExperimentResults;
use crate::json::{JsonError, JsonValue};
use crate::report::truncate;
use crate::scenario::{CdfSpec, ScenarioSpec, WorkloadSpec};
use crate::timing;
use hpcc_sim::SimOutput;
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets, SizeBucketStats};
use hpcc_stats::pfc::PfcSummary;
use hpcc_stats::Percentiles;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An ordered batch of scenarios to execute.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Campaign {
    scenarios: Vec<ScenarioSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// A campaign over the given scenarios.
    pub fn from_scenarios(scenarios: Vec<ScenarioSpec>) -> Self {
        Campaign { scenarios }
    }

    /// Append a scenario (builder style).
    pub fn with(mut self, spec: ScenarioSpec) -> Self {
        self.scenarios.push(spec);
        self
    }

    /// Append a scenario.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.scenarios.push(spec);
    }

    /// The scenarios, in execution-report order (e.g. to feed a manifest
    /// into the cross-validation harness, [`crate::ValidationReport::run`]).
    pub fn scenarios(&self) -> &[ScenarioSpec] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if the campaign holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Run every scenario on the calling thread, in order.
    pub fn run_serial(&self) -> CampaignReport {
        let start = timing::now();
        let results = self.scenarios.iter().map(run_one).collect();
        CampaignReport {
            results,
            wall: start.elapsed(),
            threads: 1,
        }
    }

    /// Run the scenarios across `threads` OS threads (clamped to the
    /// scenario count; `<= 1` falls back to serial execution).
    ///
    /// Work is handed out through an atomic cursor, so long scenarios do not
    /// serialize behind short ones. Results land in scenario order.
    pub fn run_with_threads(&self, threads: usize) -> CampaignReport {
        let n = self.scenarios.len();
        // The clamp also covers the empty campaign: no worker threads are
        // spawned and the serial path returns a well-formed empty report
        // with `threads: 1` (the calling thread did all — zero — work).
        let threads = threads.min(n);
        if threads <= 1 {
            return self.run_serial();
        }
        let start = timing::now();
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ScenarioResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run_one(&self.scenarios[i]);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every slot is filled before the scope ends")
            })
            .collect();
        CampaignReport {
            results,
            wall: start.elapsed(),
            threads,
        }
    }

    /// Run with one thread per available core (capped at the scenario
    /// count).
    pub fn run(&self) -> CampaignReport {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.run_with_threads(cores)
    }

    /// Run the scenarios owned by `plan` on the calling thread, in campaign
    /// order, writing each [`ScenarioResult`] as one JSONL line (see
    /// [`crate::wire`]) into `out` the moment it completes. The sink is
    /// flushed after every line so a coordinator reading a pipe sees
    /// results as they land. Returns the number of scenarios executed.
    ///
    /// Per-scenario seeds and digests depend only on the scenario, never on
    /// the shard layout, so any `k` shard streams merge back into a report
    /// bit-identical to [`Campaign::run_serial`].
    pub fn run_shard_streaming<W: std::io::Write>(
        &self,
        plan: ShardPlan,
        out: &mut W,
    ) -> std::io::Result<usize> {
        let mut executed = 0;
        for i in plan.indices(self.len()) {
            let result = run_one(&self.scenarios[i]);
            let mut line = crate::wire::encode_result_line(i, &result);
            line.push('\n');
            out.write_all(line.as_bytes())?;
            out.flush()?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Run the single scenario at `index` on the calling thread — the
    /// fabric's unit of leased work. Seeds and digests depend only on the
    /// scenario spec, so `run_index` on any host reproduces the scenario's
    /// serial result bit-identically.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn run_index(&self, index: usize) -> ScenarioResult {
        run_one(&self.scenarios[index])
    }

    /// The manifest as a JSON array value: [`Campaign::to_json_string`],
    /// parsed.
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Serialize every scenario into a JSON array (a campaign manifest).
    pub fn to_json_string(&self) -> String {
        self.text()
    }

    /// Parse a campaign out of a JSON array value (the inverse of
    /// [`Campaign::to_json`]). An error names the scenario by index and the
    /// member by path: `[3].workloads[0].load: expected number, got string`.
    pub fn from_json(doc: &JsonValue) -> Result<Self, JsonError> {
        Self::decode(doc, &Path::Root)
    }

    /// Parse a campaign manifest (a JSON array of scenarios).
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Campaign::from_json(&JsonValue::parse(text)?)
    }
}

/// A campaign manifest is the JSON array of its scenarios.
impl Wire for Campaign {
    fn write(&self, out: &mut String) {
        self.scenarios.write(out)
    }

    fn decode(v: &JsonValue, at: &Path<'_>) -> Result<Self, JsonError> {
        Vec::decode(v, at).map(|scenarios| Campaign { scenarios })
    }

    fn keys(out: &mut Vec<&'static str>) {
        ScenarioSpec::keys(out)
    }
}

/// A deterministic partition of a campaign into `of` round-robin shards.
///
/// Shard `s` of `k` owns every scenario whose index `i` satisfies
/// `i % k == s`. Round-robin (rather than contiguous ranges) keeps the
/// shards balanced when a campaign is ordered by scheme or by load, and —
/// because ownership is a pure function of the scenario *index* — leaves
/// every per-scenario seed and digest untouched: sharding never changes
/// what a scenario computes, only where it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shard: usize,
    of: usize,
}

impl ShardPlan {
    /// Plan for shard `shard` out of `of` total shards.
    ///
    /// # Panics
    /// Panics if `of == 0` or `shard >= of`.
    pub fn new(shard: usize, of: usize) -> Self {
        assert!(of >= 1, "a shard plan needs at least one shard");
        assert!(
            shard < of,
            "shard index {shard} out of range for {of} shards"
        );
        ShardPlan { shard, of }
    }

    /// Parse the `i/N` notation of the `campaign shard` subcommand
    /// (0-based: `"0/2"` and `"1/2"` are the two shards of a 2-way split).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (shard, of) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec {text:?} is not of the form i/N"))?;
        let shard: usize = shard
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {text:?}"))?;
        let of: usize = of
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {text:?}"))?;
        if of == 0 {
            return Err(format!("shard count must be >= 1 in {text:?}"));
        }
        if shard >= of {
            return Err(format!(
                "shard index {shard} out of range for {of} shards (0-based) in {text:?}"
            ));
        }
        Ok(ShardPlan { shard, of })
    }

    /// This plan's 0-based shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the split.
    pub fn of(&self) -> usize {
        self.of
    }

    /// True if this shard owns scenario index `index`.
    pub fn owns(&self, index: usize) -> bool {
        index % self.of == self.shard
    }

    /// The scenario indices this shard owns in a campaign of `len`
    /// scenarios, in ascending order.
    pub fn indices(&self, len: usize) -> impl Iterator<Item = usize> {
        (self.shard..len).step_by(self.of)
    }
}

fn run_one(spec: &ScenarioSpec) -> ScenarioResult {
    let started = timing::now();
    let results = spec.build().run();
    let wall = started.elapsed();
    let buckets = match bucket_choice(spec) {
        BucketChoice::FbHadoop => fb_hadoop_buckets(),
        BucketChoice::WebSearch => websearch_buckets(),
    };
    // Multi-class extensions: recorded only when the run actually carried
    // priorities or data classes, so legacy results (and their canonical
    // JSON) are byte-identical to the single-class era.
    let prio_slowdown = if results.out.flows.iter().any(|f| f.prio != 0) {
        results.slowdown_by_priority()
    } else {
        Vec::new()
    };
    let class_queue_p99 = (0..results.out.class_queue_histograms.len())
        .map(|c| results.class_queue_percentile(c, 99.0))
        .collect();
    let faults = (results.out.fault_events > 0).then(|| FaultSummary {
        events: results.out.fault_events,
        link_downtime_ps: results
            .out
            .link_downtime
            .iter()
            .map(|&(_, d)| d.as_ps())
            .sum(),
        dropped_bytes: results.out.fault_dropped_bytes,
        dropped_packets: results.out.fault_dropped_packets,
        goodput_during_faults: results.out.goodput_during_faults,
        utilization_while_up: results.utilization_while_up(spec.topology.host_bw()),
    });
    ScenarioResult {
        name: spec.name.clone(),
        scheme: spec.scheme_label(),
        slowdown: results.slowdown_overall(),
        short_flow_slowdown: results.slowdown_for_sizes_up_to(30_000),
        slowdown_buckets: results.slowdown_buckets(&buckets),
        queue_p50: results.queue_percentile(50.0),
        queue_p95: results.queue_percentile(95.0),
        queue_p99: results.queue_percentile(99.0),
        max_queue_bytes: results.out.max_queue_bytes(),
        pfc: results.pfc_summary(),
        drops: results.out.total_drops(),
        completion: results.completion_fraction(),
        flows_completed: results.out.flows.len(),
        prio_slowdown,
        class_queue_p99,
        faults,
        backend: spec.backend,
        digest: digest_output(&results.out),
        wall,
        results: Some(results),
    }
}

enum BucketChoice {
    WebSearch,
    FbHadoop,
}

/// Pick the slowdown bucket set that matches the scenario's background
/// trace (FB_Hadoop buckets for FB_Hadoop traffic, WebSearch buckets
/// otherwise — the paper's figure convention).
///
/// The wire format decodes buckets against these same tables
/// (`wire::known_bucket`): adding a bucket set here requires extending
/// that lookup, or merges of distributed runs will reject the new labels.
fn bucket_choice(spec: &ScenarioSpec) -> BucketChoice {
    for w in &spec.workloads {
        if let WorkloadSpec::Poisson {
            cdf: CdfSpec::FbHadoop,
            ..
        } = w
        {
            return BucketChoice::FbHadoop;
        }
    }
    BucketChoice::WebSearch
}

/// Everything measured for one scenario of a campaign.
///
/// The summary fields and `digest` are derived purely from the simulator's
/// deterministic output; only `wall` depends on the host machine. The
/// summary (everything except `wall` and `results`) is what crosses process
/// boundaries through the [`crate::wire`] JSONL format.
pub struct ScenarioResult {
    /// Scenario name (copied from the spec).
    pub name: String,
    /// Congestion-control scheme label.
    pub scheme: String,
    /// Overall FCT-slowdown percentiles (None when no flow completed).
    pub slowdown: Option<Percentiles>,
    /// FCT-slowdown percentiles of flows ≤ 30 KB.
    pub short_flow_slowdown: Option<Percentiles>,
    /// FCT slowdown per flow-size bucket (buckets chosen to match the
    /// scenario's background trace).
    pub slowdown_buckets: Vec<SizeBucketStats>,
    /// Median sampled queue length in bytes.
    pub queue_p50: Option<u64>,
    /// 95th-percentile sampled queue length in bytes.
    pub queue_p95: Option<u64>,
    /// 99th-percentile sampled queue length in bytes.
    pub queue_p99: Option<u64>,
    /// Largest queue occupancy seen anywhere.
    pub max_queue_bytes: u64,
    /// PFC pause summary.
    pub pfc: PfcSummary,
    /// Total dropped data packets.
    pub drops: u64,
    /// Fraction of injected flows that completed.
    pub completion: f64,
    /// Number of flows that completed.
    pub flows_completed: usize,
    /// FCT-slowdown percentiles per flow priority (keyed by the
    /// [`hpcc_types::FlowPriority`] wire code, ascending). Empty when no
    /// flow carried a non-default priority — legacy results are unchanged.
    pub prio_slowdown: Vec<(u8, Option<Percentiles>)>,
    /// 99th-percentile sampled queue length per data class, in class order.
    /// Empty on the legacy single-class path.
    pub class_queue_p99: Vec<Option<u64>>,
    /// Fault-injection summary (`None` on fault-free runs, so legacy
    /// results — and their canonical wire lines — are byte-identical to the
    /// pre-fault era).
    pub faults: Option<FaultSummary>,
    /// The engine that produced this result. Wire-encoded only when not the
    /// packet default, so legacy result lines are byte-identical to the
    /// pre-boundary era.
    pub backend: crate::BackendSpec,
    /// FNV-1a digest over the raw simulator output (flows, counters,
    /// histograms, traces) — equal digests mean bit-identical runs.
    pub digest: u64,
    /// Wall-clock time this scenario took to build and run (for results
    /// decoded from the wire format, the wall time the *worker* measured).
    pub wall: std::time::Duration,
    /// The full analysis wrapper, for figure-grade post-processing.
    /// `Some` for scenarios executed in this process; `None` for results
    /// decoded from the JSONL wire format (the raw simulator output never
    /// crosses process boundaries — only the summary and digest do).
    pub results: Option<ExperimentResults>,
}

/// Per-scenario fault-injection observability: what the configured fault
/// timeline actually did to the run. Attached to a [`ScenarioResult`] only
/// when at least one fault transition was applied.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSummary {
    /// Number of fault-timeline transitions applied.
    pub events: u64,
    /// Total administratively-down link time, summed over faulted links.
    pub link_downtime_ps: u64,
    /// Wire bytes lost to fault injection (down links in drop mode plus iid
    /// losses on degraded links).
    pub dropped_bytes: u64,
    /// Packets lost to fault injection.
    pub dropped_packets: u64,
    /// Bytes newly acknowledged while at least one fault window was active
    /// (goodput during the fault window).
    pub goodput_during_faults: u64,
    /// Average utilization over the host-seconds the NICs were up (see
    /// [`ExperimentResults::utilization_while_up`]).
    pub utilization_while_up: f64,
}

/// The outcome of one campaign: per-scenario results in scenario order.
pub struct CampaignReport {
    /// One entry per scenario, in the campaign's order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock time of the whole campaign (zero for reports merged from
    /// wire streams whose files were produced elsewhere).
    pub wall: std::time::Duration,
    /// Number of OS threads used (for reports merged from shard streams,
    /// the number of streams).
    pub threads: usize,
}

impl CampaignReport {
    /// The per-scenario digests, in scenario order.
    pub fn digests(&self) -> Vec<u64> {
        self.results.iter().map(|r| r.digest).collect()
    }

    /// Sum of per-scenario wall times (the serial cost the campaign would
    /// have had).
    pub fn total_scenario_wall(&self) -> std::time::Duration {
        self.results.iter().map(|r| r.wall).sum()
    }

    /// Render a per-scenario summary table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "{:<26} {:>9} {:>9} {:>9} {:>10} {:>8} {:>7} {:>9} {:>9}",
            "scenario",
            "slow p50",
            "slow p95",
            "slow p99",
            "q p99 (KB)",
            "pauses",
            "drops",
            "done %",
            "wall (s)"
        )
        .unwrap();
        for r in &self.results {
            let (p50, p95, p99) = match &r.slowdown {
                Some(p) => (
                    format!("{:.2}", p.p50),
                    format!("{:.2}", p.p95),
                    format!("{:.2}", p.p99),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            writeln!(
                s,
                "{:<26} {:>9} {:>9} {:>9} {:>10.1} {:>8} {:>7} {:>9.1} {:>9.2}",
                truncate(&r.name, 26),
                p50,
                p95,
                p99,
                r.queue_p99.unwrap_or(0) as f64 / 1000.0,
                r.pfc.pause_frames,
                r.drops,
                r.completion * 100.0,
                r.wall.as_secs_f64()
            )
            .unwrap();
        }
        writeln!(
            s,
            "campaign: {} scenarios on {} thread(s) in {:.2} s (sum of scenario walls {:.2} s)",
            self.results.len(),
            self.threads,
            self.wall.as_secs_f64(),
            self.total_scenario_wall().as_secs_f64()
        )
        .unwrap();
        s
    }
}

/// FNV-1a digest over everything deterministic in a [`SimOutput`].
///
/// The keyed fields are ordered maps, folded in key order, so the digest is
/// a pure function of the simulation. No workspace code holds a hash
/// container: clippy.toml disallows `HashMap` and `HashSet`.
pub fn digest_output(out: &SimOutput) -> u64 {
    let mut d = Fnv::new();
    let mut flows = out.flows.clone();
    flows.sort_by_key(|f| f.id);
    for f in &flows {
        d.write(f.id.raw());
        d.write(f.src.0 as u64);
        d.write(f.dst.0 as u64);
        d.write(f.size);
        d.write(f.start.as_ps());
        d.write(f.finish.as_ps());
    }
    d.write(out.unfinished_flows as u64);
    for (key, c) in &out.ports {
        d.write(key.0 .0 as u64);
        d.write(key.1 .0 as u64);
        d.write(c.tx_bytes);
        d.write(c.dropped_bytes);
        d.write(c.dropped_packets);
        d.write(c.ecn_marked);
        d.write(c.pause_duration.as_ps());
        d.write(c.pause_events);
        d.write(c.pause_frames_sent);
        d.write(c.max_queue_bytes);
    }
    d.write(out.queue_histogram_bin);
    for &count in &out.queue_histogram {
        d.write(count);
    }
    for (key, trace) in &out.port_traces {
        d.write(key.0 .0 as u64);
        d.write(key.1 .0 as u64);
        for &(t, q) in trace {
            d.write(t.as_ps());
            d.write(q);
        }
    }
    for (key, series) in &out.flow_goodput {
        d.write(key.raw());
        for &bytes in series {
            d.write(bytes);
        }
    }
    d.write(out.flow_goodput_bin.as_ps());
    for e in &out.pfc_events {
        d.write(e.time.as_ps());
        d.write(e.node.0 as u64);
        d.write(e.port.0 as u64);
    }
    d.write(out.pfc_events_truncated as u64);
    d.write(out.elapsed.as_ps());
    d.write(out.events_processed);
    d.write(out.packets_delivered);
    d.write(out.packets_sent);
    // Multi-class extensions, folded only when present: a legacy
    // single-class run (all priorities 0, no per-class histograms) hashes
    // exactly the historical byte stream, so pre-refactor digests hold.
    if flows.iter().any(|f| f.prio != 0) {
        d.write(0x7072696f); // section marker: "prio"
        for f in &flows {
            d.write(f.prio as u64);
        }
    }
    if !out.class_queue_histograms.is_empty() {
        d.write(0x636c6173); // section marker: "clas"
        d.write(out.class_queue_histograms.len() as u64);
        for hist in &out.class_queue_histograms {
            d.write(hist.len() as u64);
            for &count in hist {
                d.write(count);
            }
        }
    }
    if out.fault_events > 0 {
        d.write(0x6661756c); // section marker: "faul"
        d.write(out.fault_events);
        for &(link, downtime) in &out.link_downtime {
            d.write(link as u64);
            d.write(downtime.as_ps());
        }
        d.write(out.fault_dropped_bytes);
        d.write(out.fault_dropped_packets);
        d.write(out.goodput_during_faults);
        d.write(out.host_nic_downtime.as_ps());
    }
    d.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::fig11_campaign;
    use crate::scenario::{CcSpec, TopologyChoice};
    use hpcc_topology::FatTreeParams;
    use hpcc_types::{Bandwidth, Duration};

    fn small_campaign() -> Campaign {
        // The Figure 11 scheme set (six schemes) on the scaled-down Clos
        // fabric — small enough for a unit test, large enough to exercise
        // real queueing and PFC.
        fig11_campaign(FatTreeParams::small(), 0.3, Duration::from_ms(3), true, 42)
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let campaign = small_campaign();
        assert!(campaign.len() >= 6);
        let serial = campaign.run_serial();
        let parallel = campaign.run_with_threads(campaign.len());
        assert_eq!(serial.threads, 1);
        assert!(parallel.threads > 1);
        assert_eq!(serial.digests(), parallel.digests());
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.scheme, p.scheme);
            assert_eq!(s.slowdown, p.slowdown);
            assert_eq!(s.queue_p99, p.queue_p99);
            assert_eq!(s.pfc, p.pfc);
            assert_eq!(s.drops, p.drops);
            assert_eq!(s.flows_completed, p.flows_completed);
            let (s_out, p_out) = (
                &s.results.as_ref().unwrap().out,
                &p.results.as_ref().unwrap().out,
            );
            assert_eq!(s_out.events_processed, p_out.events_processed);
        }
        // The table renders every scenario.
        let table = parallel.table();
        for r in &parallel.results {
            assert!(table.contains(&truncate(&r.name, 26)), "{table}");
        }
    }

    #[test]
    fn digest_distinguishes_different_runs() {
        let campaign = small_campaign();
        let report = campaign.run_with_threads(3);
        let digests = report.digests();
        // Six different schemes on the same workload must not collide.
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), digests.len(), "digest collision: {digests:?}");
    }

    #[test]
    fn campaign_manifest_round_trips() {
        let campaign = small_campaign();
        let manifest = campaign.to_json_string();
        let back = Campaign::from_json_str(&manifest).unwrap();
        assert_eq!(back, campaign);
    }

    #[test]
    fn empty_campaign_yields_a_well_formed_empty_report() {
        let empty = Campaign::new();
        assert!(empty.is_empty());
        // Every execution path must return an empty report without spawning
        // worker threads, recording `threads: 1` (the calling thread).
        for report in [empty.run_serial(), empty.run_with_threads(8), empty.run()] {
            assert!(report.results.is_empty());
            assert_eq!(report.threads, 1);
            assert!(report.digests().is_empty());
            assert_eq!(report.total_scenario_wall(), std::time::Duration::ZERO);
            assert!(report
                .table()
                .contains("campaign: 0 scenarios on 1 thread(s)"));
        }
        // The wire round trip of the empty report is well-formed too.
        let text = empty.run_serial().to_json_string();
        assert_eq!(text, "[]");
        let back = CampaignReport::from_json_str(&text).unwrap();
        assert!(back.results.is_empty());
        // Sharding an empty campaign streams nothing and merges to empty.
        let mut buf = Vec::new();
        assert_eq!(
            empty
                .run_shard_streaming(ShardPlan::new(0, 2), &mut buf)
                .unwrap(),
            0
        );
        assert!(buf.is_empty());
        let merged = crate::wire::merge_shard_streams([""], Some(0)).unwrap();
        assert!(merged.results.is_empty());
    }

    #[test]
    fn shard_plans_partition_round_robin() {
        // 2 shards of 5 scenarios: even and odd indices.
        let a = ShardPlan::new(0, 2);
        let b = ShardPlan::new(1, 2);
        assert_eq!(a.indices(5).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(b.indices(5).collect::<Vec<_>>(), vec![1, 3]);
        // Every index is owned by exactly one shard, for several k.
        for k in [1, 2, 3, 7] {
            for i in 0..20 {
                let owners = (0..k).filter(|s| ShardPlan::new(*s, k).owns(i)).count();
                assert_eq!(owners, 1, "index {i} with {k} shards");
            }
        }
        // More shards than scenarios: the excess shards are empty.
        assert_eq!(ShardPlan::new(6, 7).indices(3).count(), 0);
        // The i/N CLI notation round-trips; malformed specs are rejected.
        assert_eq!(ShardPlan::parse("1/2"), Ok(ShardPlan::new(1, 2)));
        assert_eq!(ShardPlan::parse("0/1"), Ok(ShardPlan::new(0, 1)));
        for bad in ["", "1", "2/2", "3/2", "1/0", "x/2", "1/y", "-1/2"] {
            assert!(ShardPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn run_caps_threads_at_scenario_count() {
        let one = Campaign::new().with(crate::scenario::ScenarioSpec::new(
            "solo",
            TopologyChoice::star(3, Bandwidth::from_gbps(25)),
            CcSpec::by_label("HPCC"),
            Duration::from_us(100),
        ));
        let report = one.run();
        assert_eq!(report.threads, 1);
        assert_eq!(report.results.len(), 1);
    }
}
