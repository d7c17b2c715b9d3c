//! The elastic cross-host campaign fabric.
//!
//! A [`Coordinator`] treats a campaign's scenario indices as a dynamic work
//! queue served to any number of workers over a plain TCP line protocol on
//! `std::net` (length-framed canonical JSON — [`crate::wire::FabricMsg`],
//! normatively documented in `docs/WIRE.md`). A worker ([`join`]) connects,
//! says hello, receives the whole campaign manifest over the wire (no
//! shared filesystem needed), and then executes leases of scenario indices
//! on every core, streaming each [`ScenarioResult`] back in lease order as
//! soon as it and the lease's earlier ones complete.
//!
//! Robustness is the design center, and it rests on the repository's
//! determinism contract rather than on distributed-systems machinery:
//!
//! * **Elastic leasing.** Lease sizes follow the observed per-scenario wall
//!   time (an EWMA per worker), so fast workers drain the queue and slow
//!   ones cannot hold more than one lease's worth of work hostage.
//! * **Failure detection.** Workers heartbeat between results; a worker
//!   silent past the lease timeout (or whose connection drops) is retired
//!   and its outstanding indices return to the queue. The fleet obeys the
//!   same rule: with no worker alive for one lease timeout, an incomplete
//!   campaign is abandoned ([`FabricError::Abandoned`]). A heartbeating
//!   worker is never given up on, however long its scenario runs.
//! * **Dedup by digest.** A retired worker may still have executed part of
//!   its lease, so results can arrive twice: the [`ResultLedger`] (the one
//!   `merge` uses) drops identical copies and refuses conflicting ones.
//! * **Checkpointing.** Every accepted result is appended to a JSONL
//!   checkpoint file (the standard result-line encoding) and flushed; a
//!   restarted coordinator replays the file — cutting a torn tail, ending a
//!   last line that lost only its newline, refusing a row of another
//!   manifest ([`wire::check_row`]) — and re-runs only what is missing.
//!
//! Because every scenario is a pure function of its spec, the merged
//! [`CampaignReport`] is bit-identical (canonical JSON and digests) to
//! [`Campaign::run_serial`] regardless of worker count, death schedule, or
//! completion order.
//!
//! Liveness timers (heartbeats, lease timeouts) are real-time by nature and
//! go through [`crate::timing`], the sanctioned wall-clock funnel; nothing
//! they measure reaches canonical output.

use crate::campaign::{available_cores, run_in_order, Campaign, CampaignReport, ScenarioResult};
use crate::timing;
use crate::wire::{self, FabricMsg, ResultLedger, WireError};
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Errors of the campaign fabric.
#[derive(Debug)]
pub enum FabricError {
    /// Socket or checkpoint-file I/O failed.
    Io(std::io::Error),
    /// A peer violated the fabric message protocol.
    Protocol(String),
    /// A checkpoint failed to decode or holds another manifest's rows, or
    /// the [`ResultLedger`] refused a result (out of range, a conflict).
    Wire(WireError),
    /// No worker was alive for one lease timeout, the campaign incomplete.
    Abandoned {
        /// Scenarios with a result (checkpoint replay included).
        done: usize,
        /// Scenarios in the campaign.
        len: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "fabric i/o: {e}"),
            FabricError::Protocol(msg) => write!(f, "fabric protocol: {msg}"),
            FabricError::Wire(e) => write!(f, "fabric results: {e}"),
            FabricError::Abandoned { done, len } => write!(
                f,
                "campaign stalled at {done}/{len} results: no worker alive for one lease timeout"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Io(e)
    }
}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> Self {
        FabricError::Wire(e)
    }
}

/// The wall-time budget one lease should amount to: the batch size is
/// `TARGET_LEASE_WALL / EWMA(per-scenario wall)`, clamped to `1..=MAX_BATCH`.
const TARGET_LEASE_WALL: std::time::Duration = std::time::Duration::from_millis(500);
/// Upper bound on the indices of a single lease.
const MAX_BATCH: usize = 16;
/// Lease size granted to a worker before any wall-time observation exists
/// (kept small so the EWMA calibrates quickly).
const INITIAL_BATCH: usize = 1;

/// Tuning knobs of one [`Coordinator::serve`] run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// How long a worker may stay silent (no result, no heartbeat) before
    /// it is declared dead and its outstanding lease returns to the queue;
    /// and how long, from the start of `serve` or the last retirement, an
    /// incomplete campaign with no worker alive waits before it is abandoned.
    pub lease_timeout: std::time::Duration,
    /// Checkpoint file, appended to with every accepted result and replayed
    /// first (module docs, *Checkpointing*).
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            lease_timeout: std::time::Duration::from_secs(10),
            checkpoint: None,
        }
    }
}

/// The outcome of one [`Coordinator::serve`] run.
pub struct FabricReport {
    /// The merged campaign report — bit-identical to
    /// [`Campaign::run_serial`] (canonical JSON and digests).
    pub report: CampaignReport,
    /// Results received from workers during this run (excludes checkpoint
    /// replay).
    pub executed: u64,
    /// Byte-identical duplicate results dropped (a reassigned lease whose
    /// original worker had already finished some of it).
    pub deduped: u64,
    /// Lease indices returned to the queue by worker death or silence.
    pub reassigned: u64,
    /// Results replayed from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Number of workers that ever completed the hello handshake.
    pub workers_seen: usize,
}

struct WorkerSlot {
    name: String,
    stream: TcpStream,
    outstanding: BTreeSet<usize>,
    last_heard: std::time::Instant,
    /// EWMA of the worker's per-scenario wall time, seconds.
    ewma_wall: Option<f64>,
    alive: bool,
}

struct CoordState {
    pending: BTreeSet<usize>,
    ledger: ResultLedger,
    workers: Vec<WorkerSlot>,
    checkpoint: Option<std::fs::File>,
    /// When serving began or a worker was last retired: once no worker is
    /// alive, the campaign is abandoned one lease timeout after this.
    idle_since: std::time::Instant,
    fatal: Option<FabricError>,
    done_serving: bool,
    reassigned: u64,
}

impl CoordState {
    /// Retire a worker: mark it dead, return its outstanding lease to the
    /// queue, and shut its socket down (which also unblocks the reader
    /// thread parked on it). Idempotent.
    fn retire(&mut self, worker: usize) {
        if !self.workers[worker].alive {
            return;
        }
        self.workers[worker].alive = false;
        self.idle_since = timing::now();
        let returned = std::mem::take(&mut self.workers[worker].outstanding);
        self.reassigned += returned.len() as u64;
        self.pending.extend(returned);
        let _ = self.workers[worker].stream.shutdown(Shutdown::Both);
    }

    /// Record a result delivered by `worker`: refresh its liveness and
    /// wall-time EWMA, feed the ledger, and on acceptance append to the
    /// checkpoint. Failures land in `self.fatal`.
    fn handle_result(&mut self, worker: usize, index: usize, result: ScenarioResult) {
        let slot = &mut self.workers[worker];
        slot.last_heard = timing::now();
        slot.outstanding.remove(&index);
        let wall = result.wall.as_secs_f64();
        slot.ewma_wall = Some(match slot.ewma_wall {
            Some(prev) => 0.7 * prev + 0.3 * wall,
            None => wall,
        });
        match self.ledger.record(index, result) {
            Ok(true) => {
                if let Some(file) = &mut self.checkpoint {
                    let recorded = self.ledger.get(index).expect("just recorded");
                    let line = wire::encode_result_line(index, recorded) + "\n";
                    if let Err(e) = file.write_all(line.as_bytes()) {
                        self.fatal.get_or_insert(FabricError::Io(e));
                    }
                }
            }
            Ok(false) => {}
            Err(e) => {
                self.fatal.get_or_insert(e.into());
            }
        }
    }

    /// The lease size for `worker`: [`TARGET_LEASE_WALL`] divided by the
    /// worker's observed per-scenario EWMA, clamped to `1..=MAX_BATCH`
    /// ([`INITIAL_BATCH`] before any observation).
    fn lease_size(&self, worker: usize) -> usize {
        match self.workers[worker].ewma_wall {
            None => INITIAL_BATCH,
            Some(ewma) => {
                let batch = TARGET_LEASE_WALL.as_secs_f64() / ewma.max(1e-9);
                (batch as usize).clamp(1, MAX_BATCH)
            }
        }
    }
}

struct Shared {
    campaign: Campaign,
    state: Mutex<CoordState>,
    wake: Condvar,
}

/// The fabric coordinator: owns the listener, the work queue, the
/// checkpoint, and the merge.
pub struct Coordinator {
    listener: TcpListener,
    /// The accept thread of the latest [`Coordinator::serve`], which
    /// outlives it to dismiss late joiners (rather than leave them in the
    /// backlog); it ends with the next `serve` or with the coordinator.
    acceptor: Mutex<Option<Acceptor>>,
}

struct Acceptor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

impl Coordinator {
    /// Bind the coordinator's listener. Pass port `0` for an ephemeral
    /// port; [`Coordinator::local_addr`] reports what was bound.
    pub fn bind(addr: &str) -> Result<Coordinator, FabricError> {
        Ok(Coordinator {
            listener: TcpListener::bind(addr)?,
            acceptor: Mutex::new(None),
        })
    }

    /// The bound listen address (what workers [`join`]).
    pub fn local_addr(&self) -> Result<SocketAddr, FabricError> {
        Ok(self.listener.local_addr()?)
    }

    /// Stop and join the accept thread a previous `serve` left running.
    fn stop_acceptor(&self) {
        // Runs in `drop`, so never panics: the Option is valid even if a
        // holder of the lock did.
        let previous = self
            .acceptor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(acceptor) = previous else { return };
        acceptor.stop.store(true, Ordering::SeqCst);
        // The thread is blocked in `accept`: a connection of our own wakes
        // it to see `stop`. Should that fail, it is left to block rather
        // than this call.
        let Ok(mut addr) = self.listener.local_addr() else {
            return;
        };
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect(addr).is_ok() {
            let _ = acceptor.handle.join();
        }
    }

    /// Serve `campaign` to however many workers connect, until every
    /// scenario has a result (or a fatal error). A checkpoint is replayed
    /// first: a restart over a complete one hands nothing to any worker, and
    /// a row of another manifest fails it ([`WireError::ForeignRow`]). A
    /// worker must join within one [`FabricConfig::lease_timeout`], or the
    /// campaign is abandoned ([`FabricError::Abandoned`]).
    ///
    /// A worker that says `hello` once the campaign is complete — before
    /// this call returns or after it — is answered with `bye`, for as long
    /// as this coordinator lives.
    pub fn serve(
        &self,
        campaign: &Campaign,
        cfg: &FabricConfig,
    ) -> Result<FabricReport, FabricError> {
        let started = timing::now();
        let mut ledger = ResultLedger::new(campaign.len());
        let mut checkpoint = None;
        if let Some(path) = &cfg.checkpoint {
            let existing = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(e.into()),
            };
            let (entries, tail) = wire::decode_stream_lines(&existing, 1)?;
            for (index, result) in entries {
                wire::check_row(campaign, index, &result)?;
                ledger.record(index, result)?;
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            if let Some(tail) = tail {
                // Cut off the record a dying coordinator left half-written,
                // so the file stays a clean prefix we append to.
                file.set_len(tail.byte_offset as u64)?;
            } else if !existing.is_empty() && !existing.ends_with('\n') {
                // The last record is whole but lost its newline: end its
                // line, or the next record would be appended onto it.
                file.write_all(b"\n")?;
            }
            checkpoint = Some(file);
        }
        let resumed = ledger.done();

        // Nothing left to run (e.g. restart over a complete checkpoint):
        // the scheduler loop below exits at once and every worker is
        // dismissed at the handshake.
        let done_serving = ledger.is_complete();
        let pending: BTreeSet<usize> = ledger.missing().into_iter().collect();
        let shared = Arc::new(Shared {
            campaign: campaign.clone(),
            state: Mutex::new(CoordState {
                pending,
                ledger,
                workers: Vec::new(),
                checkpoint,
                idle_since: timing::now(),
                fatal: None,
                done_serving,
                reassigned: 0,
            }),
            wake: Condvar::new(),
        });
        self.stop_acceptor();
        let acceptor = {
            let listener = self.listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || accept_loop(&listener, &shared, &stop))
            };
            Acceptor { stop, handle }
        };
        *self.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = Some(acceptor);

        // Scheduler: retire silent workers, abandon a campaign none is left
        // for, grant leases, wait for events.
        let granularity = (cfg.lease_timeout / 4).clamp(
            std::time::Duration::from_millis(5),
            std::time::Duration::from_millis(100),
        );
        let mut st = shared.state.lock().expect("fabric state poisoned");
        loop {
            if st.fatal.is_some() || st.ledger.is_complete() {
                break;
            }
            for i in 0..st.workers.len() {
                if st.workers[i].alive && st.workers[i].last_heard.elapsed() > cfg.lease_timeout {
                    st.retire(i);
                }
            }
            if !st.workers.iter().any(|w| w.alive) && st.idle_since.elapsed() > cfg.lease_timeout {
                let (done, len) = (st.ledger.done(), campaign.len());
                st.fatal = Some(FabricError::Abandoned { done, len });
                break;
            }
            // A worker down to its last index is granted its next lease
            // now, so that it never waits for one.
            for i in 0..st.workers.len() {
                while st.workers[i].alive
                    && st.workers[i].outstanding.len() <= 1
                    && !st.pending.is_empty()
                {
                    let batch = st.lease_size(i);
                    let indices: Vec<usize> =
                        (0..batch).map_while(|_| st.pending.pop_first()).collect();
                    st.workers[i].outstanding.extend(&indices);
                    let lease = FabricMsg::Lease { indices };
                    if wire::write_frame(&mut &st.workers[i].stream, &lease).is_err() {
                        st.retire(i);
                    }
                }
            }
            st = shared
                .wake
                .wait_timeout(st, granularity)
                .expect("fabric state poisoned")
                .0;
        }

        // Wind down: say goodbye, unblock every reader. The accept thread
        // stays, dismissing late joiners at the handshake.
        st.done_serving = true;
        for i in 0..st.workers.len() {
            if st.workers[i].alive {
                let _ = wire::write_frame(&mut &st.workers[i].stream, &FabricMsg::Bye);
            }
            let _ = st.workers[i].stream.shutdown(Shutdown::Both);
        }
        let fatal = st.fatal.take();
        let reassigned = st.reassigned;
        let workers_seen = st.workers.len();
        let ledger = std::mem::replace(&mut st.ledger, ResultLedger::new(0));
        drop(st);
        if let Some(e) = fatal {
            return Err(e);
        }
        let executed = (ledger.done() - resumed) as u64;
        let deduped = ledger.deduped();
        let mut report = ledger.into_report()?;
        report.wall = started.elapsed();
        report.threads = workers_seen.max(1);
        Ok(FabricReport {
            report,
            executed,
            deduped,
            reassigned,
            resumed,
            workers_seen,
        })
    }
}

/// Accept on the (blocking) listener until the coordinator stops this
/// thread (its next `serve`, or its drop: it sets `stop` and connects to
/// wake the thread), spawning a detached reader thread per connection.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || serve_connection(&shared, stream));
    }
}

/// One worker connection, from hello to bye (or death). Runs on its own
/// detached thread; the scheduler unblocks it by shutting the socket down.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    // The first frame must be a hello; the manifest goes back before the
    // slot becomes leasable, so a worker never sees a lease it cannot map
    // onto a campaign.
    let worker = match wire::read_frame(&mut reader) {
        Ok(Some(FabricMsg::Hello { worker })) => {
            let mut st = shared.state.lock().expect("fabric state poisoned");
            if st.done_serving {
                // A late joiner: the campaign is complete. Dismiss it.
                let _ = wire::write_frame(&mut &stream, &FabricMsg::Bye);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            let manifest = FabricMsg::Manifest {
                campaign: shared.campaign.clone(),
            };
            if wire::write_frame(&mut &stream, &manifest).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            st.workers.push(WorkerSlot {
                name: worker,
                stream,
                outstanding: BTreeSet::new(),
                last_heard: timing::now(),
                ewma_wall: None,
                alive: true,
            });
            shared.wake.notify_all();
            st.workers.len() - 1
        }
        _ => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    loop {
        let frame = wire::read_frame(&mut reader);
        let mut st = shared.state.lock().expect("fabric state poisoned");
        match frame {
            Ok(Some(FabricMsg::Result { index, result })) => {
                st.handle_result(worker, index, *result);
                // The scheduler has something to do only once this worker
                // is down to its last index, or the campaign is over.
                if st.workers[worker].outstanding.len() <= 1
                    || st.ledger.is_complete()
                    || st.fatal.is_some()
                {
                    shared.wake.notify_all();
                }
            }
            Ok(Some(FabricMsg::Heartbeat { .. })) => {
                st.workers[worker].last_heard = timing::now();
            }
            Ok(Some(FabricMsg::Bye)) | Ok(None) | Err(_) => {
                // Graceful bye and death look the same to the queue: any
                // outstanding lease goes back to pending.
                st.retire(worker);
                shared.wake.notify_all();
                return;
            }
            Ok(Some(_)) => {
                let msg = format!("unexpected message from worker {}", st.workers[worker].name);
                st.fatal.get_or_insert(FabricError::Protocol(msg));
                st.retire(worker);
                shared.wake.notify_all();
                return;
            }
        }
    }
}

/// Per-worker options for [`join`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name sent in the hello (diagnostics only).
    pub name: String,
    /// Heartbeat period; keep it well under the coordinator's lease
    /// timeout.
    pub heartbeat: std::time::Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            heartbeat: std::time::Duration::from_millis(200),
        }
    }
}

/// What one [`join`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Scenarios executed and streamed back.
    pub executed: usize,
    /// Scenario count of the campaign the coordinator shipped.
    pub campaign_len: usize,
}

/// How long [`join`] waits for the coordinator's answer to its `hello`. A
/// listener whose owner never calls `serve` (or has stopped accepting)
/// leaves the connection in its backlog forever; a live coordinator accepts
/// at once and answers with one manifest frame.
const HANDSHAKE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Connect to a coordinator at `addr` and work its leases (module docs)
/// until it says bye or the connection ends.
///
/// Each lease runs through the campaign's in-order executor on one thread
/// per available core, capped at the lease's length, the calling thread one
/// of them (one core, or a one-index lease: the calling thread alone). The
/// thread that runs a scenario also encodes its `result` frame, so only
/// encoded frames wait. The frame's `wall_ns` is the scenario's wall
/// divided by the lease's thread count, so a lease's results never claim
/// more time than the lease took, and the coordinator sizes a T-thread
/// worker's leases to the same 500 ms target as a one-thread worker's.
/// Every index of a lease is checked against the campaign before any of
/// them runs: a lease with an index out of range runs nothing and ends the
/// conversation with [`FabricError::Protocol`].
/// Several workers on one host each use every core; pin them apart
/// (`taskset`) to keep them from contending.
///
/// Every frame after the `hello` goes out on the connection's writer
/// thread, which also sends a heartbeat whenever the connection has been
/// quiet for a heartbeat period, so a long scenario cannot make a healthy
/// worker look dead and a result never waits for the socket.
///
/// A worker that arrives when the campaign is already complete is answered
/// with `bye` (or finds the connection closed) instead of a manifest: that
/// is a normal outcome, reported as a summary with `executed == 0` and
/// `campaign_len == 0`.
pub fn join(addr: &str, cfg: &WorkerConfig) -> Result<WorkerSummary, FabricError> {
    join_with_threads(addr, cfg, available_cores())
}

/// [`join`] with each lease on up to `threads` threads.
fn join_with_threads(
    addr: &str,
    cfg: &WorkerConfig,
    threads: usize,
) -> Result<WorkerSummary, FabricError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let hello = FabricMsg::Hello {
        worker: cfg.name.clone(),
    };
    wire::write_frame(&mut writer, &hello)?;
    let campaign = match wire::read_frame(&mut reader)? {
        Some(FabricMsg::Manifest { campaign }) => campaign,
        Some(FabricMsg::Bye) | None => {
            return Ok(WorkerSummary {
                executed: 0,
                campaign_len: 0,
            })
        }
        Some(_) => {
            return Err(FabricError::Protocol(
                "expected a manifest after hello".to_string(),
            ))
        }
    };
    // Leases arrive whenever the scheduler has work: no deadline from here.
    reader.get_ref().set_read_timeout(None)?;
    let (queue, frames) = mpsc::channel();
    let period = cfg.heartbeat;
    let writer = std::thread::spawn(move || write_loop(writer, &frames, period));
    let mut ran = 0usize;
    let outcome = loop {
        match wire::read_frame(&mut reader) {
            Ok(Some(FabricMsg::Lease { indices })) => {
                if let Some(index) = indices.iter().find(|&&i| i >= campaign.len()) {
                    break Err(FabricError::Protocol(format!(
                        "leased index {index} out of range for {} scenarios",
                        campaign.len()
                    )));
                }
                // Each thread runs its scenarios one after another, so the
                // lease's walls divided by its thread count sum to at most
                // the lease's own wall: the worker's time per scenario,
                // which is what lease sizing reads.
                let lease_threads = threads.min(indices.len()).max(1) as u32;
                let job = |index| {
                    let mut result = campaign.run_index(index);
                    result.wall /= lease_threads;
                    wire::encode_frame(&FabricMsg::Result {
                        index,
                        result: Box::new(result),
                    })
                };
                let sink = |frame| {
                    ran += 1;
                    queue.send(Outgoing::Result(frame))
                };
                if run_in_order(&indices, threads, job, sink).is_err() {
                    // The writer failed; its error is returned below.
                    break Ok(());
                }
            }
            Ok(Some(FabricMsg::Bye)) | Ok(None) => break Ok(()),
            Ok(Some(_)) => {
                break Err(FabricError::Protocol(
                    "unexpected message from coordinator".to_string(),
                ))
            }
            Err(e) => break Err(e.into()),
        }
    };
    let _ = queue.send(Outgoing::Bye);
    drop(queue);
    let written = writer
        .join()
        .unwrap_or_else(|_| Err(std::io::Error::other("the fabric writer panicked")));
    outcome?;
    written?;
    Ok(WorkerSummary {
        executed: ran,
        campaign_len: campaign.len(),
    })
}

/// What a lease's sink hands the connection's writer thread.
enum Outgoing {
    /// An encoded `result` frame.
    Result(Vec<u8>),
    /// The closing `bye`.
    Bye,
}

/// The connection's writer thread: send each queued frame, and a heartbeat
/// whenever nothing was queued for `period`, until `bye` or until the queue
/// is dropped. Only a failed result is an error: a heartbeat or a `bye`
/// may race the coordinator closing a finished campaign.
fn write_loop(
    mut stream: TcpStream,
    frames: &mpsc::Receiver<Outgoing>,
    period: std::time::Duration,
) -> std::io::Result<()> {
    let mut executed = 0;
    loop {
        match frames.recv_timeout(period) {
            Ok(Outgoing::Result(frame)) => {
                stream.write_all(&frame)?;
                executed += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = wire::write_frame(&mut stream, &FabricMsg::Heartbeat { executed });
            }
            Ok(Outgoing::Bye) => {
                let _ = wire::write_frame(&mut stream, &FabricMsg::Bye);
                return Ok(());
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::incast_on_star;
    use crate::scenario::CcSpec;
    use hpcc_types::{Bandwidth, Duration};

    fn tiny_campaign(n: usize) -> Campaign {
        Campaign::from_scenarios(
            (0..n)
                .map(|i| {
                    incast_on_star(
                        format!("t{i}"),
                        CcSpec::by_label(["HPCC", "DCQCN", "TIMELY"][i % 3]),
                        2 + i % 2,
                        20_000,
                        Bandwidth::from_gbps(25),
                        Duration::from_us(50),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn lease_sizes_follow_the_ewma() {
        let state = |ewma: Option<f64>| CoordState {
            pending: BTreeSet::new(),
            ledger: ResultLedger::new(0),
            workers: vec![WorkerSlot {
                name: "w".to_string(),
                stream: TcpStream::connect(
                    TcpListener::bind("127.0.0.1:0")
                        .unwrap()
                        .local_addr()
                        .unwrap(),
                )
                .unwrap(),
                outstanding: BTreeSet::new(),
                last_heard: timing::now(),
                ewma_wall: ewma,
                alive: true,
            }],
            checkpoint: None,
            idle_since: timing::now(),
            fatal: None,
            done_serving: false,
            reassigned: 0,
        };
        // No observation yet: the initial batch.
        assert_eq!(state(None).lease_size(0), INITIAL_BATCH);
        // A quarter of the budget per scenario → 4 fit.
        let budget = TARGET_LEASE_WALL.as_secs_f64();
        assert_eq!(state(Some(budget / 4.0)).lease_size(0), 4);
        // Very slow scenarios: never below 1.
        assert_eq!(state(Some(budget * 20.0)).lease_size(0), 1);
        // Very fast scenarios: capped at MAX_BATCH.
        assert_eq!(state(Some(1e-6)).lease_size(0), MAX_BATCH);
    }

    /// Six tiny scenarios over two worker threads; whichever worker arrives
    /// after the last result (often the second one: the campaign takes a
    /// few milliseconds) must be dismissed, not left hanging or failed.
    fn serve_six_to_two_workers(campaign: &Campaign, serial: &CampaignReport) {
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    join(
                        &addr,
                        &WorkerConfig {
                            name: format!("w{i}"),
                            heartbeat: std::time::Duration::from_millis(20),
                        },
                    )
                })
            })
            .collect();
        let fabric = coordinator
            .serve(campaign, &FabricConfig::default())
            .unwrap();
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());
        assert_eq!(fabric.report.digests(), serial.digests());
        assert_eq!(fabric.executed, 6);
        assert_eq!(fabric.resumed, 0);
        let executed: usize = workers
            .into_iter()
            .map(|w| w.join().unwrap().unwrap().executed)
            .sum();
        assert_eq!(executed, 6, "the workers drained the queue exactly");
    }

    #[test]
    fn fabric_matches_serial_end_to_end() {
        let campaign = tiny_campaign(6);
        serve_six_to_two_workers(&campaign, &campaign.run_serial());
    }

    #[test]
    fn fabric_end_to_end_fifty_times_in_a_row() {
        // The late-joiner window is a race; give it fifty chances per run.
        let campaign = tiny_campaign(6);
        let serial = campaign.run_serial();
        for _ in 0..50 {
            serve_six_to_two_workers(&campaign, &serial);
        }
    }

    #[test]
    fn a_worker_joining_after_serve_returned_is_dismissed() {
        let campaign = tiny_campaign(2);
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || join(&addr, &WorkerConfig::default()))
        };
        let fabric = coordinator
            .serve(&campaign, &FabricConfig::default())
            .unwrap();
        assert_eq!(fabric.executed, 2);
        assert_eq!(worker.join().unwrap().unwrap().executed, 2);
        // `serve` has returned and the coordinator still holds its listener:
        // the connection is accepted and answered, not parked in a backlog.
        let asked = timing::now();
        let late = join(&addr, &WorkerConfig::default()).unwrap();
        assert_eq!(
            late,
            WorkerSummary {
                executed: 0,
                campaign_len: 0
            }
        );
        assert!(
            asked.elapsed() < std::time::Duration::from_secs(1),
            "dismissal took {:?}",
            asked.elapsed()
        );
    }

    /// Run `serve` on a thread of its own: the coordinator's address, and
    /// where its outcome arrives (waited for with `recv_timeout`, so that a
    /// `serve` that never returns fails a test instead of hanging it).
    fn serve_in_background(
        campaign: &Campaign,
        cfg: FabricConfig,
    ) -> (String, mpsc::Receiver<Result<FabricReport, FabricError>>) {
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let (done, served) = mpsc::channel();
        let campaign = campaign.clone();
        std::thread::spawn(move || {
            let _ = done.send(coordinator.serve(&campaign, &cfg));
        });
        (addr, served)
    }

    /// Play a worker that says hello and reads the manifest and frames
    /// until it holds `leases` leases; the connection is returned open.
    fn hand_played_worker(addr: &str, leases: usize) -> (TcpStream, Vec<Vec<usize>>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let hello = FabricMsg::Hello {
            worker: "hand-played".to_string(),
        };
        wire::write_frame(&mut &stream, &hello).unwrap();
        let mut granted = Vec::new();
        while granted.len() < leases {
            match wire::read_frame(&mut reader).unwrap() {
                Some(FabricMsg::Manifest { .. }) => {}
                Some(FabricMsg::Lease { indices }) => granted.push(indices),
                _ => panic!("expected a manifest and leases"),
            }
        }
        (stream, granted)
    }

    #[test]
    fn a_worker_dying_with_two_leases_returns_both() {
        let campaign = tiny_campaign(4);
        let serial = campaign.run_serial();
        let (addr, served) = serve_in_background(&campaign, FabricConfig::default());
        // A worker that is granted its lease and the next one ahead, then
        // dies before it runs anything.
        let (stream, leases) = hand_played_worker(&addr, 2);
        assert_eq!(leases, vec![vec![0], vec![1]]);
        drop(stream);
        // A healthy worker finishes the campaign, both leases included.
        let healthy = std::thread::spawn(move || join(&addr, &WorkerConfig::default()));
        let fabric = served
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("serve finished")
            .unwrap();
        assert_eq!(fabric.reassigned, 2, "both leases returned to the queue");
        assert_eq!(healthy.join().unwrap().unwrap().executed, 4);
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());
    }

    const SHORT_LEASE: std::time::Duration = std::time::Duration::from_millis(300);

    #[test]
    fn a_campaign_nobody_joins_is_abandoned_after_one_lease_timeout() {
        let cfg = FabricConfig {
            lease_timeout: SHORT_LEASE,
            ..FabricConfig::default()
        };
        let started = timing::now();
        let (_addr, served) = serve_in_background(&tiny_campaign(3), cfg);
        let outcome = served
            .recv_timeout(SHORT_LEASE + std::time::Duration::from_secs(2))
            .expect("serve gave up within the lease timeout plus 2 s");
        let waited = started.elapsed();
        assert!(waited >= SHORT_LEASE, "gave up after {waited:?}");
        match outcome {
            Err(FabricError::Abandoned { done, len }) => assert_eq!((done, len), (0, 3)),
            other => panic!("expected Abandoned, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_campaign_whose_last_worker_drops_is_abandoned_and_resumes() {
        let campaign = tiny_campaign(4);
        let dir = std::env::temp_dir().join(format!("fabric-abandon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");
        let cfg = FabricConfig {
            lease_timeout: SHORT_LEASE,
            checkpoint: Some(path.clone()),
        };
        let (addr, served) = serve_in_background(&campaign, cfg.clone());
        // A worker that delivers the first index of its first lease, then
        // drops.
        let (stream, leases) = hand_played_worker(&addr, 1);
        let index = leases[0][0];
        let result = campaign.run_index(index);
        let line = wire::encode_result_line(index, &result) + "\n";
        let delivered = FabricMsg::Result {
            index,
            result: Box::new(result),
        };
        wire::write_frame(&mut &stream, &delivered).unwrap();
        drop(stream);
        let outcome = served
            .recv_timeout(SHORT_LEASE + std::time::Duration::from_secs(2))
            .expect("serve gave up within the lease timeout plus 2 s");
        match outcome {
            Err(FabricError::Abandoned { done, len }) => assert_eq!((done, len), (1, 4)),
            other => panic!("expected Abandoned, got {:?}", other.map(|_| ())),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line);
        // A restart with a healthy worker finishes the campaign.
        let fabric = serve_to_one_worker(&campaign, &cfg).unwrap();
        assert_eq!((fabric.resumed, fabric.executed), (1, 3));
        assert_eq!(
            fabric.report.to_json_string(),
            campaign.run_serial().to_json_string()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_heartbeating_worker_outlasts_many_lease_timeouts() {
        // One scenario several lease timeouts long (its wall is asserted
        // below); the worker heartbeats every 20 ms while it runs.
        let campaign = Campaign::from_scenarios(vec![incast_on_star(
            "long",
            CcSpec::by_label("HPCC"),
            8,
            500_000_000,
            Bandwidth::from_gbps(25),
            Duration::from_ms(1000),
        )]);
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || {
            let cfg = WorkerConfig {
                heartbeat: std::time::Duration::from_millis(20),
                ..WorkerConfig::default()
            };
            join(&addr, &cfg)
        });
        let cfg = FabricConfig {
            lease_timeout: SHORT_LEASE,
            ..FabricConfig::default()
        };
        let fabric = coordinator.serve(&campaign, &cfg).unwrap();
        assert_eq!(worker.join().unwrap().unwrap().executed, 1);
        let wall = fabric.report.results[0].wall;
        assert!(wall > 3 * SHORT_LEASE, "the scenario took only {wall:?}");
        assert_eq!((fabric.executed, fabric.reassigned), (1, 0));
    }

    #[test]
    fn a_checkpoint_of_another_manifest_is_refused() {
        let written_for = tiny_campaign(2);
        let mut specs = tiny_campaign(4).scenarios().to_vec();
        specs[1].name = "other".to_string();
        let served_for = Campaign::from_scenarios(specs);
        let dir = std::env::temp_dir().join(format!("fabric-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");
        let rows: String = (0..2)
            .map(|i| wire::encode_result_line(i, &written_for.run_index(i)) + "\n")
            .collect();
        std::fs::write(&path, rows).unwrap();
        let cfg = FabricConfig {
            checkpoint: Some(path),
            ..FabricConfig::default()
        };
        let (_addr, served) = serve_in_background(&served_for, cfg);
        let outcome = served
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("serve refused the checkpoint at once");
        match outcome {
            Err(FabricError::Wire(WireError::ForeignRow {
                index,
                manifest,
                row,
            })) => {
                assert_eq!(index, 1);
                assert_eq!(manifest, "\"other\" (DCQCN)");
                assert_eq!(row, "\"t1\" (DCQCN)");
            }
            other => panic!("expected ForeignRow, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn join_returns_promptly_after_bye() {
        // The test plays the coordinator through `lease_once`: one lease of
        // the whole campaign, a bye after its last result. Returns the
        // heartbeats seen, and how long `join` took to return after the bye
        // went out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let converse = |campaign: Campaign, heartbeat| {
            let worker = {
                let addr = addr.clone();
                let cfg = WorkerConfig {
                    heartbeat,
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || (join(&addr, &cfg), timing::now()))
            };
            let scenarios = campaign.len();
            let lease = (0..scenarios).collect();
            let played = lease_once(&listener, &campaign, lease, Some(scenarios));
            let bye_sent = played.bye_sent.expect("every result arrived");
            let (summary, returned) = worker.join().unwrap();
            assert_eq!(summary.unwrap().executed, scenarios);
            (
                played.heartbeats,
                returned.saturating_duration_since(bye_sent),
            )
        };
        // A heartbeat period far longer than the campaign: `join` must not
        // sleep it out after the bye.
        let (_, after_bye) = converse(tiny_campaign(1), std::time::Duration::from_secs(5));
        assert!(
            after_bye < std::time::Duration::from_millis(50),
            "join returned {after_bye:?} after the bye"
        );
        // A scenario many heartbeat periods long: heartbeats go out while
        // it runs. Its wall (~240 ms with the test profile on a 2-vCPU
        // host) is many times what a busy scheduler may keep the writer
        // thread waiting, so at least one heartbeat beats the result.
        let long = Campaign::from_scenarios(vec![incast_on_star(
            "long",
            CcSpec::by_label("HPCC"),
            8,
            20_000_000,
            Bandwidth::from_gbps(25),
            Duration::from_ms(60),
        )]);
        let (heartbeats, _) = converse(long, std::time::Duration::from_millis(1));
        assert!(heartbeats >= 1, "no heartbeat during the scenario");
    }

    /// What the coordinator played by [`lease_once`] saw.
    struct Played {
        /// The worker's results, in arrival order.
        results: Vec<(usize, ScenarioResult)>,
        /// Heartbeats that arrived before the bye went out.
        heartbeats: usize,
        /// When the coordinator's bye went out, if it did.
        bye_sent: Option<std::time::Instant>,
        /// Whether the worker said bye.
        said_bye: bool,
    }

    /// Play the coordinator for the next worker on `listener`: read its
    /// hello, send the manifest and one lease of `indices`, and collect the
    /// worker's frames until it closes the connection, sending a bye once
    /// `bye_after` results have arrived.
    fn lease_once(
        listener: &TcpListener,
        campaign: &Campaign,
        indices: Vec<usize>,
        bye_after: Option<usize>,
    ) -> Played {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let hello = wire::read_frame(&mut reader).unwrap();
        assert!(matches!(hello, Some(FabricMsg::Hello { .. })));
        let manifest = FabricMsg::Manifest {
            campaign: campaign.clone(),
        };
        wire::write_frame(&mut &stream, &manifest).unwrap();
        wire::write_frame(&mut &stream, &FabricMsg::Lease { indices }).unwrap();
        let mut played = Played {
            results: Vec::new(),
            heartbeats: 0,
            bye_sent: None,
            said_bye: false,
        };
        loop {
            match wire::read_frame(&mut reader).unwrap() {
                Some(FabricMsg::Heartbeat { .. }) => {
                    if played.bye_sent.is_none() {
                        played.heartbeats += 1;
                    }
                }
                Some(FabricMsg::Result { index, result }) => {
                    played.results.push((index, *result));
                    if bye_after == Some(played.results.len()) {
                        wire::write_frame(&mut &stream, &FabricMsg::Bye).unwrap();
                        played.bye_sent = Some(timing::now());
                    }
                }
                Some(FabricMsg::Bye) => played.said_bye = true,
                Some(_) => panic!("expected heartbeats, results and a bye"),
                None => return played,
            }
        }
    }

    #[test]
    fn a_worker_runs_a_lease_on_every_thread_in_lease_order() {
        // Scenarios of a few milliseconds, so that they, not the handshake,
        // fill the lease: on more than one thread their walls overlap.
        let campaign = Campaign::from_scenarios(
            (0..12)
                .map(|i| {
                    incast_on_star(
                        format!("t{i}"),
                        CcSpec::by_label(["HPCC", "DCQCN", "TIMELY"][i % 3]),
                        4,
                        400_000,
                        Bandwidth::from_gbps(25),
                        Duration::from_ms(1),
                    )
                })
                .collect(),
        );
        let serial = campaign.run_serial();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = |threads| {
            let addr = addr.clone();
            std::thread::spawn(move || join_with_threads(&addr, &WorkerConfig::default(), threads))
        };
        let lease: Vec<usize> = (0..12).collect();
        for threads in [1, 2, 5] {
            let started = timing::now();
            let joined = worker(threads);
            let played = lease_once(&listener, &campaign, lease.clone(), Some(12));
            let took = started.elapsed();
            let order: Vec<usize> = played.results.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, lease, "{threads} threads");
            // Each wall is divided by the lease's thread count, so together
            // they never claim more time than the lease took.
            let claimed: std::time::Duration = played.results.iter().map(|(_, r)| r.wall).sum();
            assert!(claimed <= took, "{threads} threads: {claimed:?} > {took:?}");
            for (i, result) in &played.results {
                assert_eq!(
                    result.to_json(),
                    serial.results[*i].to_json(),
                    "scenario {i}, {threads} threads"
                );
            }
            assert!(played.said_bye, "{threads} threads");
            let summary = joined.join().unwrap().unwrap();
            assert_eq!((summary.executed, summary.campaign_len), (12, 12));
        }
    }

    #[test]
    fn a_lease_with_an_out_of_range_index_runs_none_of_it() {
        let campaign = tiny_campaign(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let joined = std::thread::spawn(move || join(&addr, &WorkerConfig::default()));
        let played = lease_once(&listener, &campaign, vec![0, 99], None);
        assert_eq!(played.results.len(), 0, "a result of a bad lease was sent");
        match joined.join().unwrap() {
            Err(FabricError::Protocol(msg)) => assert!(msg.contains("99"), "{msg}"),
            other => panic!(
                "an out-of-range lease must be a protocol error, got {:?}",
                other.map(|_| ())
            ),
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_scenarios() {
        let campaign = tiny_campaign(4);
        let serial = campaign.run_serial();
        let dir = std::env::temp_dir().join(format!("fabric-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");

        // Seed the checkpoint with scenarios 1 and 3 plus a truncated tail
        // (a coordinator killed mid-append).
        let mut seeded = String::new();
        for index in [1usize, 3] {
            seeded.push_str(&wire::encode_result_line(index, &campaign.run_index(index)));
            seeded.push('\n');
        }
        let partial = wire::encode_result_line(0, &campaign.run_index(0));
        seeded.push_str(&partial[..partial.len() / 2]);
        std::fs::write(&path, &seeded).unwrap();

        let cfg = FabricConfig {
            checkpoint: Some(path.clone()),
            ..FabricConfig::default()
        };
        let fabric = serve_to_one_worker(&campaign, &cfg).unwrap();
        assert_eq!(fabric.resumed, 2, "intact checkpoint records replayed");
        assert_eq!(
            fabric.executed, 2,
            "only 0 and 2 re-ran (truncated tail cut)"
        );
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());

        // The file now replays cleanly and completely…
        let text = std::fs::read_to_string(&path).unwrap();
        let (entries, tail) = wire::decode_stream_lines(&text, 1).unwrap();
        assert!(tail.is_none(), "tail was truncated in place");
        assert_eq!(entries.len(), 4);
        // …and a restart over the complete checkpoint runs nothing.
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let fabric = coordinator.serve(&campaign, &cfg).unwrap();
        assert_eq!(fabric.executed, 0);
        assert_eq!(fabric.resumed, 4);
        assert_eq!(fabric.workers_seen, 0, "no worker needed");
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());
        // …and a worker that shows up anyway is sent home.
        let addr = coordinator.local_addr().unwrap().to_string();
        let idle = join(&addr, &WorkerConfig::default()).unwrap();
        assert_eq!((idle.executed, idle.campaign_len), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serve `campaign` under `cfg` to one default worker.
    fn serve_to_one_worker(
        campaign: &Campaign,
        cfg: &FabricConfig,
    ) -> Result<FabricReport, FabricError> {
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || join(&addr, &WorkerConfig::default()));
        let fabric = coordinator.serve(campaign, cfg)?;
        worker.join().unwrap().unwrap();
        Ok(fabric)
    }

    #[test]
    fn a_checkpoint_missing_only_its_last_newline_resumes_twice() {
        let campaign = tiny_campaign(4);
        let serial = campaign.run_serial();
        let dir = std::env::temp_dir().join(format!("fabric-newline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");

        // Scenarios 1 and 3, the last one whole but without its newline,
        // which the replay accepts as complete.
        let seeded = format!(
            "{}\n{}",
            wire::encode_result_line(1, &campaign.run_index(1)),
            wire::encode_result_line(3, &campaign.run_index(3))
        );
        std::fs::write(&path, &seeded).unwrap();
        let cfg = FabricConfig {
            checkpoint: Some(path.clone()),
            ..FabricConfig::default()
        };
        let fabric = serve_to_one_worker(&campaign, &cfg).unwrap();
        assert_eq!((fabric.resumed, fabric.executed), (2, 2));
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());
        // The records appended after the replay start lines of their own, so
        // a second restart replays all four.
        let fabric = serve_to_one_worker(&campaign, &cfg).unwrap();
        assert_eq!((fabric.resumed, fabric.executed), (4, 0));
        assert_eq!(fabric.report.to_json_string(), serial.to_json_string());
        std::fs::remove_dir_all(&dir).ok();
    }
}
