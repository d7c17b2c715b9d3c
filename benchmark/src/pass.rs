//! Set-up and the untraced pass: manifest file in, verified report file out,
//! through public library functions only.

use crate::workloads::{Scale, Workload};
use hpcc_core::fabric::{
    self, Coordinator, FabricConfig, FabricError, FabricReport, WorkerConfig, WorkerSummary,
};
use hpcc_core::wire::merge_shard_streams;
use hpcc_core::{BackendSpec, Campaign, CampaignReport, ShardPlan};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// The files of one run, all inside its results directory.
pub struct RunFiles {
    pub dir: PathBuf,
    pub workload: Workload,
}

impl RunFiles {
    fn file(&self, stem: &str, ext: &str) -> PathBuf {
        self.dir
            .join(format!("{stem}_{}.{ext}", self.workload.name()))
    }
    pub fn manifest(&self) -> PathBuf {
        self.file("manifest", "json")
    }
    pub fn report(&self) -> PathBuf {
        self.file("report", "json")
    }
    pub fn checkpoint(&self) -> PathBuf {
        self.file("checkpoint", "jsonl")
    }
}

/// What one `run_serial` of the manifest gives: the outputs every pass must
/// reproduce, and the simulated quantities, which repeat exactly.
pub struct Reference {
    pub scenarios: usize,
    /// Canonical JSON of the report; equal strings mean equal digests and
    /// equal summaries.
    pub report_text: String,
    pub digests: Vec<u64>,
    /// Simulated work of one pass, the denominator of the per-unit times:
    /// thousands of engine events on the `packet_*` workloads (their event
    /// count swings by tens of percent with the seed), scenarios on the
    /// sweeps (a fixed count; per-scenario work dominates there).
    pub units: f64,
    pub sim_completion: f64,
    /// Mean FCT slowdown over every flow completed in the workload's HPCC
    /// packet-backend scenarios.
    pub sim_hpcc_slowdown_mean: f64,
    /// Violated invariants: a scenario that delivered more packets than it
    /// sent, a workload in which no flow completed, or a report of another
    /// length than the manifest.
    pub violations: u64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// One set-up: generate the manifest from the seed, write it, read it back
/// the way a pass will, validate every spec, and run the cold reference
/// pass. Returns the reference and the seconds it all took.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scale: Scale,
    corpus_prefix: &str,
    files: &RunFiles,
) -> Result<(Reference, f64), String> {
    let started = Instant::now();
    let path = files.manifest();
    let generated = workload.campaign(seed, scale, corpus_prefix);
    std::fs::write(&path, generated.to_json_string())
        .map_err(|e| io_err("cannot write", &path, e))?;
    let campaign = read_campaign(&path)?;
    for (i, spec) in campaign.scenarios().iter().enumerate() {
        spec.try_build()
            .map_err(|e| format!("scenario {i} ({}): {e}", spec.name))?;
    }
    let report = campaign.run_serial();
    let reference = reference_of(workload, &campaign, &report);
    Ok((reference, started.elapsed().as_secs_f64()))
}

fn read_campaign(path: &Path) -> Result<Campaign, String> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err("cannot read", path, e))?;
    Campaign::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn reference_of(workload: Workload, campaign: &Campaign, report: &CampaignReport) -> Reference {
    let mut violations = u64::from(report.results.len() != campaign.len());
    let (mut completed, mut injected, mut events) = (0usize, 0usize, 0u64);
    let (mut hpcc_slowdown_sum, mut hpcc_flows) = (0.0, 0usize);
    for r in &report.results {
        let results = r
            .results
            .as_ref()
            .expect("run_serial keeps the full results");
        let out = &results.out;
        completed += out.flows.len();
        injected += results.flow_count;
        events += out.events_processed;
        violations += u64::from(out.packets_delivered > out.packets_sent);
        if r.scheme == "HPCC" && r.backend == BackendSpec::Packet {
            if let Some(p) = &r.slowdown {
                hpcc_slowdown_sum += p.mean * p.count as f64;
                hpcc_flows += p.count;
            }
        }
    }
    violations += u64::from(completed == 0);
    let units = match workload {
        Workload::PacketFattree | Workload::PacketStress => events as f64 / 1e3,
        Workload::SweepSmall | Workload::FabricLease => campaign.len() as f64,
    };
    Reference {
        scenarios: campaign.len(),
        report_text: report.to_json_string(),
        digests: report.digests(),
        units,
        sim_completion: completed as f64 / injected.max(1) as f64,
        sim_hpcc_slowdown_mean: hpcc_slowdown_sum / hpcc_flows.max(1) as f64,
        violations,
    }
}

/// What a pass produced, and how long it took from opening the manifest to
/// the report file being written.
pub struct PassOutput {
    pub report: CampaignReport,
    pub text: String,
    pub wall_s: f64,
}

/// One pass over the manifest file, the way the workload is served: two
/// shard streams merged, or the fabric. Writes the report file.
pub fn pass(files: &RunFiles) -> Result<PassOutput, String> {
    let started = Instant::now();
    let campaign = read_campaign(&files.manifest())?;
    let (report, fabric_run) = match files.workload {
        Workload::FabricLease => {
            let (served, run) = serve_over_fabric(&campaign, &files.checkpoint())?;
            (served.report, Some(run))
        }
        _ => (run_sharded(&campaign)?, None),
    };
    let text = report.to_json_string();
    let path = files.report();
    let written = std::fs::write(&path, &text);
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(run) = fabric_run {
        run.finish()?;
    }
    written.map_err(|e| io_err("cannot write", &path, e))?;
    Ok(PassOutput {
        report,
        text,
        wall_s,
    })
}

fn run_sharded(campaign: &Campaign) -> Result<CampaignReport, String> {
    let mut streams = Vec::new();
    for shard in 0..2 {
        let mut buf = Vec::new();
        campaign
            .run_shard_streaming(ShardPlan::new(shard, 2), &mut buf)
            .map_err(|e| format!("shard {shard}: {e}"))?;
        streams.push(String::from_utf8(buf).map_err(|e| format!("shard {shard}: {e}"))?);
    }
    merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
        .map_err(|e| format!("merge: {e}"))
}

/// The worker thread of a fabric pass, still to be joined. The worker's
/// heartbeat thread outlives the campaign by up to one heartbeat period, so
/// the pass stops its clock first and joins afterwards.
pub struct FabricWorker {
    handle: JoinHandle<Result<WorkerSummary, FabricError>>,
    scenarios: usize,
}

impl FabricWorker {
    pub fn finish(self) -> Result<(), String> {
        let summary = self
            .handle
            .join()
            .map_err(|_| "the fabric worker panicked".to_string())?
            .map_err(|e| format!("join: {e}"))?;
        if summary.executed != self.scenarios {
            return Err(format!(
                "the fabric worker ran {} of {} scenarios",
                summary.executed, self.scenarios
            ));
        }
        Ok(())
    }
}

/// Coordinator and one worker thread in this process, over loopback TCP,
/// with a fresh on-disk checkpoint.
pub fn serve_over_fabric(
    campaign: &Campaign,
    checkpoint: &Path,
) -> Result<(FabricReport, FabricWorker), String> {
    match std::fs::remove_file(checkpoint) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(io_err("cannot remove", checkpoint, e))
        }
        _ => {}
    }
    let coordinator = Coordinator::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let cfg = FabricConfig {
        checkpoint: Some(checkpoint.to_path_buf()),
        ..FabricConfig::default()
    };
    let worker = FabricWorker {
        handle: std::thread::spawn(move || fabric::join(&addr, &WorkerConfig::default())),
        scenarios: campaign.len(),
    };
    let served = match coordinator.serve(campaign, &cfg) {
        Ok(served) => served,
        Err(e) => {
            // The coordinator closed the connection; the worker ends.
            let _ = worker.finish();
            return Err(format!("serve: {e}"));
        }
    };
    if served.executed != campaign.len() as u64 || served.deduped != 0 || served.reassigned != 0 {
        let _ = worker.finish();
        return Err(format!(
            "fabric ran {} of {} scenarios, deduped {}, reassigned {}",
            served.executed,
            campaign.len(),
            served.deduped,
            served.reassigned
        ));
    }
    Ok((served, worker))
}

/// Scenario executions of one pass whose outcome differs from the
/// reference: all of them when the pass failed or panicked.
pub fn failures(outcome: &Result<PassOutput, String>, reference: &Reference) -> u64 {
    match outcome {
        Ok(out) if out.text == reference.report_text => 0,
        Ok(out) if out.report.results.len() == reference.scenarios => out
            .report
            .digests()
            .iter()
            .zip(&reference.digests)
            .filter(|(a, b)| a != b)
            .count()
            .max(1) as u64,
        _ => reference.scenarios as u64,
    }
}
