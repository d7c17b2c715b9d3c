//! Batch execution of scenarios across OS threads and processes.
//!
//! A [`Campaign`] is an ordered list of [`ScenarioSpec`]s. [`Campaign::run`]
//! executes them across a pool of OS threads (scenarios are embarrassingly
//! parallel: each builds its own topology and simulator from plain data) and
//! collects a [`CampaignReport`] with one [`ScenarioResult`] per scenario,
//! *in scenario order*.
//!
//! [`Campaign::run_serial`], [`Campaign::run_with_threads`],
//! [`Campaign::run_shard_streaming`] and the fabric worker's leases
//! ([`crate::fabric::join`]) share one in-order executor: up to `T`
//! threads, the calling thread one of them, run the scenarios, and the
//! calling thread hands each result on in scenario order.
//!
//! Beyond one process, a [`ShardPlan`] deterministically partitions the
//! campaign into `k` round-robin shards. A worker process executes one shard
//! on its host's cores with [`Campaign::run_shard_streaming`], emitting each
//! result as a JSONL line (see [`crate::wire`]) in index order as soon as it
//! and the shard's earlier ones complete; a coordinator merges
//! the shard streams back into one report with
//! [`crate::wire::merge_shard_streams`]. The `hpcc` binary in
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
use crate::scenario::{ScenarioSpec, SlowdownBuckets};
use crate::timing;
use hpcc_sim::SimOutput;
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets, FctBucket, SizeBucketStats};
use hpcc_stats::pfc::PfcSummary;
use hpcc_stats::Percentiles;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

    /// The scenarios, in execution-report order.
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
        self.run_with_threads(1)
    }

    /// Run the scenarios across `threads` OS threads, the calling thread
    /// one of them (clamped to the scenario count; `<= 1` runs serially on
    /// the calling thread).
    ///
    /// Work is handed out through an atomic cursor, so long scenarios do not
    /// serialize behind short ones. Results land in scenario order.
    pub fn run_with_threads(&self, threads: usize) -> CampaignReport {
        let start = timing::now();
        // The clamp also covers the empty campaign: no worker threads are
        // spawned and the report is a well-formed empty one with
        // `threads: 1` (the calling thread did all — zero — work).
        let threads = threads.min(self.len()).max(1);
        let indices: Vec<usize> = (0..self.len()).collect();
        let mut results = Vec::with_capacity(self.len());
        let Ok(()) = run_in_order(
            &indices,
            threads,
            |i| run_one(&self.scenarios[i]),
            |result| {
                results.push(result);
                Ok::<(), Infallible>(())
            },
        );
        CampaignReport {
            results,
            wall: start.elapsed(),
            threads,
        }
    }

    /// Run with one thread per available core (capped at the scenario
    /// count).
    pub fn run(&self) -> CampaignReport {
        self.run_with_threads(available_cores())
    }

    /// Run the scenarios owned by `plan`, writing each [`ScenarioResult`] as
    /// one JSONL line (see [`crate::wire`]) into `out`, in campaign order.
    /// The scenarios run on one thread per available core, capped at the
    /// shard's scenario count (one core runs them serially); the calling
    /// thread is one of those threads and the only one that writes, so `out`
    /// need not be `Send`. A line is written, and the sink flushed, as soon
    /// as its scenario and every earlier one of the shard are done, so a
    /// coordinator reading a pipe sees results as they land. Returns the
    /// number of scenarios executed.
    ///
    /// A write error stops the shard: no further scenario starts, and the
    /// error is returned once the scenarios already running finish. A
    /// panicking scenario is resumed on the calling thread the same way.
    ///
    /// Per-scenario seeds and digests depend only on the scenario, never on
    /// the shard layout or the thread count, so any `k` shard streams merge
    /// back into a report bit-identical to [`Campaign::run_serial`]. Several
    /// shards on one host each use every core; pin them apart (`taskset`)
    /// to keep them from contending.
    pub fn run_shard_streaming<W: std::io::Write>(
        &self,
        plan: ShardPlan,
        out: &mut W,
    ) -> std::io::Result<usize> {
        self.stream_shard(plan, available_cores(), out)
    }

    /// [`Campaign::run_shard_streaming`] on up to `threads` threads.
    fn stream_shard<W: std::io::Write>(
        &self,
        plan: ShardPlan,
        threads: usize,
        out: &mut W,
    ) -> std::io::Result<usize> {
        let indices: Vec<usize> = plan.indices(self.len()).collect();
        run_in_order(
            &indices,
            threads,
            |i| {
                let mut line = crate::wire::encode_result_line(i, &run_one(&self.scenarios[i]));
                line.push('\n');
                line
            },
            |line: String| {
                out.write_all(line.as_bytes())?;
                out.flush()
            },
        )?;
        Ok(indices.len())
    }

    /// Run the single scenario at `index` on the calling thread — the job a
    /// fabric worker's threads run for each index of a lease. Seeds and
    /// digests depend only on the scenario spec, so `run_index` on any host
    /// and any thread reproduces the scenario's serial result
    /// bit-identically.
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

    /// Parse the `i/N` notation of the `hpcc shard` subcommand
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

/// One thread per available core (1 when the count is unknown).
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `job` on every index of `indices` across up to `threads` threads,
/// the calling thread one of them, and hand each output to `sink` on the
/// calling thread, in the order of `indices`.
///
/// Threads claim the next index through an atomic cursor. An output that
/// lands before an earlier one waits in a map until the earlier ones are
/// handed over. The calling thread hands over whatever is ready before it
/// claims its next index; once no index is left to claim, it waits, and
/// hands each output over the moment it and every earlier one have landed.
/// With one thread nothing is spawned: each index runs and is handed over
/// in turn.
///
/// When `sink` fails, no further index is claimed, and its error is
/// returned once the jobs already running finish; their outputs are
/// dropped. When a job panics on a spawned thread, no further index is
/// claimed either, the calling thread stops waiting, and the panic is
/// resumed on it once every thread has been joined; a panic on the calling
/// thread (in a job or in `sink`) unwinds the same way after the join.
pub(crate) fn run_in_order<R: Send, E>(
    indices: &[usize],
    threads: usize,
    job: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E> {
    let shared = InOrder {
        indices,
        cursor: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        landed: Mutex::new(Landed {
            outputs: BTreeMap::new(),
            panicked: false,
        }),
        wake: Condvar::new(),
    };
    // The calling thread claims the first index before any thread starts,
    // so the first index runs on it however fast a spawned thread starts.
    // Every thread's allocator keeps the heap of the largest scenario it
    // ever ran, so a scenario that lands on a different thread from run to
    // run can cost a campaign one such heap per thread in resident set.
    let first = shared.claim();
    let (handed, panic) = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(indices.len()))
            .map(|_| scope.spawn(|| shared.work(&job)))
            .collect();
        let handed = {
            let _stop = StopOnDrop(&shared.stop);
            shared.hand_over(first, &job, &mut sink)
        };
        let panic = workers.into_iter().filter_map(|w| w.join().err()).next();
        (handed, panic)
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    handed
}

/// What the threads of one [`run_in_order`] call share.
struct InOrder<'a, R> {
    indices: &'a [usize],
    /// The next position of `indices` to claim.
    cursor: AtomicUsize,
    /// Set when no further position may be claimed: the calling thread
    /// stopped handing over, or a job panicked.
    stop: AtomicBool,
    landed: Mutex<Landed<R>>,
    /// Signalled when an output lands or a spawned thread panics.
    wake: Condvar,
}

/// Outputs that landed and were not yet handed over, by position.
struct Landed<R> {
    outputs: BTreeMap<usize, R>,
    /// Whether a job on a spawned thread panicked: an output that will
    /// never land.
    panicked: bool,
}

impl<R> InOrder<'_, R> {
    /// The next unclaimed position, unless there is none or the call stops.
    fn claim(&self) -> Option<usize> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        (at < self.indices.len()).then_some(at)
    }

    fn lock(&self) -> MutexGuard<'_, Landed<R>> {
        // No thread panics while it holds the lock, but one that panics
        // must still be able to take it to say so.
        self.landed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A spawned thread's loop: run what it claims and leave each output
    /// for the calling thread.
    fn work(&self, job: &impl Fn(usize) -> R) {
        let _panic = PanicFlag(self);
        while let Some(at) = self.claim() {
            let output = job(self.indices[at]);
            self.lock().outputs.insert(at, output);
            self.wake.notify_one();
        }
    }

    /// The calling thread's loop: hand over every output in position order,
    /// running jobs itself, `claimed` first, while there are positions to
    /// claim. Returns early on a sink error, and with `Ok` once a spawned
    /// thread panicked.
    fn hand_over<E>(
        &self,
        mut claimed: Option<usize>,
        job: &impl Fn(usize) -> R,
        sink: &mut impl FnMut(R) -> Result<(), E>,
    ) -> Result<(), E> {
        for next in 0..self.indices.len() {
            let output = loop {
                if let Some(output) = self.lock().outputs.remove(&next) {
                    break output;
                }
                match claimed.take().or_else(|| self.claim()) {
                    Some(at) if at == next => break job(self.indices[at]),
                    Some(at) => {
                        let output = job(self.indices[at]);
                        self.lock().outputs.insert(at, output);
                    }
                    None => {
                        let mut landed = self
                            .wake
                            .wait_while(self.lock(), |l| {
                                !l.panicked && !l.outputs.contains_key(&next)
                            })
                            .unwrap_or_else(PoisonError::into_inner);
                        match landed.outputs.remove(&next) {
                            Some(output) => break output,
                            // A spawned thread panicked; `next` may never land.
                            None => return Ok(()),
                        }
                    }
                }
            };
            sink(output)?;
        }
        Ok(())
    }
}

/// Stops a [`run_in_order`] call's threads from claiming when dropped: when
/// the calling thread is done handing over, by success, error or panic.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Tells the calling thread that a spawned thread panicked, when dropped
/// while that thread unwinds.
struct PanicFlag<'a, 'b, R>(&'a InOrder<'b, R>);

impl<R> Drop for PanicFlag<'_, '_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop.store(true, Ordering::Relaxed);
            self.0.lock().panicked = true;
            self.0.wake.notify_all();
        }
    }
}

fn run_one(spec: &ScenarioSpec) -> ScenarioResult {
    let started = timing::now();
    let experiment = spec.build();
    let buckets = bucket_table(experiment.slowdown_buckets());
    let results = experiment.run();
    let wall = started.elapsed();
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

/// The bucket table of a resolved bucket set.
///
/// The wire format decodes buckets against these same tables (`impl Fields
/// for FctBucket` in `wire.rs`): adding a bucket set here requires extending
/// that lookup, or merges of distributed runs will reject the new labels.
fn bucket_table(set: SlowdownBuckets) -> Vec<FctBucket> {
    match set {
        SlowdownBuckets::FbHadoop => fb_hadoop_buckets(),
        SlowdownBuckets::WebSearch => websearch_buckets(),
    }
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
    /// Scenarios run side by side on a campaign's or a shard's threads, so
    /// this includes contention from sibling threads for cores, caches and
    /// memory bandwidth: it measures the run, not the scenario alone. A
    /// fabric worker reports it divided by the number of threads its lease
    /// ran on ([`crate::fabric::join`]).
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
    /// have had; for a fabric report, the workers' time spent on scenarios,
    /// since a fabric worker divides each wall by its lease's thread count).
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

    /// Twelve scenarios: the Figure 11 scheme set at two loads, 1 ms each.
    fn twelve_scenarios() -> Campaign {
        let at =
            |load| fig11_campaign(FatTreeParams::small(), load, Duration::from_ms(1), true, 42);
        let mut scenarios = at(0.3).scenarios;
        scenarios.extend(at(0.5).scenarios);
        Campaign::from_scenarios(scenarios)
    }

    #[test]
    fn the_executor_is_equivalent_and_in_order_at_every_thread_count() {
        let campaign = twelve_scenarios();
        let serial = campaign.run_serial();
        let canonical = serial.to_json_string();
        for threads in [1, 2, 5] {
            let report = campaign.run_with_threads(threads);
            assert_eq!(report.threads, threads);
            assert_eq!(report.to_json_string(), canonical, "{threads} threads");
            let mut streams = Vec::new();
            for shard in 0..3 {
                let plan = ShardPlan::new(shard, 3);
                let mut buf = Vec::new();
                let executed = campaign.stream_shard(plan, threads, &mut buf).unwrap();
                let text = String::from_utf8(buf).unwrap();
                let lines: Vec<(usize, ScenarioResult)> = text
                    .lines()
                    .map(|line| crate::wire::decode_result_line(line).unwrap())
                    .collect();
                assert_eq!(executed, lines.len());
                // Ascending index order, each result the serial run's own.
                let indices: Vec<usize> = lines.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, plan.indices(campaign.len()).collect::<Vec<_>>());
                for (i, result) in &lines {
                    assert_eq!(
                        result.to_json(),
                        serial.results[*i].to_json(),
                        "scenario {i}, shard {shard}/3, {threads} threads"
                    );
                }
                streams.push(text);
            }
            let merged = crate::wire::merge_shard_streams(
                streams.iter().map(String::as_str),
                Some(campaign.len()),
            )
            .unwrap();
            assert_eq!(merged.to_json_string(), canonical, "{threads} threads");
        }
    }

    /// A job that takes a millisecond and counts its starts.
    fn slow_job(started: &AtomicUsize) -> impl Fn(usize) -> usize + Sync + '_ {
        |i| {
            started.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        }
    }

    #[test]
    fn a_failing_sink_stops_the_call_with_its_error() {
        let indices: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 5] {
            let started = AtomicUsize::new(0);
            let mut handed = Vec::new();
            let result = run_in_order(&indices, threads, slow_job(&started), |i| {
                if handed.len() == 3 {
                    return Err(std::io::Error::other("sink closed"));
                }
                handed.push(i);
                Ok(())
            });
            let err = result.expect_err("the sink's error is returned");
            assert_eq!(err.to_string(), "sink closed");
            assert_eq!(handed, vec![0, 1, 2], "{threads} threads");
            let started = started.load(Ordering::Relaxed);
            if threads == 1 {
                // Three handed over, the fourth refused, nothing after it.
                assert_eq!(started, 4);
            } else {
                assert!(
                    started < indices.len(),
                    "{threads} threads ran all {started}"
                );
            }
        }
        // Through a shard stream: the writer's own error comes back.
        struct FailAfter(usize);
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let campaign = twelve_scenarios();
        for threads in [1, 2] {
            let err = campaign
                .stream_shard(ShardPlan::new(0, 1), threads, &mut FailAfter(2))
                .expect_err("the writer fails on the third line");
            assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        }
    }

    #[test]
    fn the_first_index_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let indices: Vec<usize> = (0..8).collect();
        for threads in [2, 5] {
            let mut first = None;
            let Ok(()) = run_in_order(
                &indices,
                threads,
                |i| (i, std::thread::current().id()),
                |(i, thread)| {
                    if i == 0 {
                        first = Some(thread);
                    }
                    Ok::<(), Infallible>(())
                },
            );
            assert_eq!(first, Some(caller), "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_job_is_resumed_on_the_calling_thread() {
        let indices: Vec<usize> = (0..10).collect();
        for threads in [1, 2, 5] {
            for bad in [0, 3, 9] {
                let started = AtomicUsize::new(0);
                let slow = slow_job(&started);
                let mut handed = Vec::new();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_in_order(
                        &indices,
                        threads,
                        |i| {
                            if i == bad {
                                panic!("scenario {i} panicked");
                            }
                            slow(i)
                        },
                        |i| {
                            handed.push(i);
                            Ok::<(), Infallible>(())
                        },
                    )
                }));
                let payload = caught.expect_err("the panic reaches the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the job's own payload");
                assert_eq!(message, &format!("scenario {bad} panicked"));
                // Only indices before the panicking one were handed over.
                assert!(handed.iter().all(|&i| i < bad), "{handed:?}");
            }
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
