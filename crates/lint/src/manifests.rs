//! Static validation of committed manifests and corpus files.
//!
//! Campaign manifests (`manifests/*.json`) and corpus topologies
//! (`corpus/*`) are inputs CI executes — a malformed or stale file fails a
//! smoke job minutes into a build. This analyzer front-loads those checks
//! without running the engine:
//!
//! * every manifest must **parse** as a campaign (a JSON array of
//!   `ScenarioSpec` objects),
//! * every scenario must pass [`hpcc_core::ScenarioSpec::try_build`]-level checking
//!   (topology instantiable, CDFs valid, fault references in range,
//!   backend combinations legal) — corpus paths resolve against the repo
//!   root, exactly as the CI smokes run them,
//! * the committed text must be a **canonical re-encoding fixed point**:
//!   `Campaign::from_json_str` → `to_json_string` + newline must reproduce
//!   the file byte-identically, so a hand-edited (or stale-format) manifest
//!   can never disagree with what `campaign dump` would emit,
//! * every corpus file must parse, build into a routed topology with at
//!   least two hosts, and **round-trip** through the canonical edge-list
//!   encoding (`parse(to_edge_list(t)) == t`, semantic identity — the
//!   committed files keep their human comments).

use crate::Finding;
use hpcc_core::scenario::TopologyChoice;
use hpcc_core::Campaign;
use hpcc_topology::corpus;
use std::path::Path;

/// Rule id for manifest findings.
pub const MANIFEST: &str = "manifest";
/// Rule id for corpus findings.
pub const CORPUS: &str = "corpus";

/// Validate one campaign manifest. `path` labels findings; `root` anchors
/// repo-relative corpus/trace paths inside the manifest.
pub fn check_manifest(path: &str, text: &str, root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let campaign = match Campaign::from_json_str(text) {
        Ok(c) => c,
        Err(e) => {
            findings.push(Finding::new(
                path,
                1,
                MANIFEST,
                format!("manifest does not parse as a campaign: {e}"),
            ));
            return findings;
        }
    };
    // Canonical fixed point: committed bytes == re-encoding + "\n".
    let canonical = campaign.to_json_string() + "\n";
    if text != canonical {
        findings.push(Finding::new(
            path,
            1,
            MANIFEST,
            "manifest is not a canonical re-encoding fixed point; regenerate \
             it (parse + to_json_string + trailing newline) so the committed \
             bytes match what the campaign runner would emit",
        ));
    }
    for (i, spec) in campaign.scenarios().iter().enumerate() {
        let mut spec = spec.clone();
        anchor_paths(&mut spec, root);
        if let Err(e) = spec.try_build() {
            findings.push(Finding::new(
                path,
                1,
                MANIFEST,
                format!("scenario {i} ({:?}) fails to build: {e}", spec.name),
            ));
        }
    }
    findings
}

/// Rewrite the repo-relative file references of a spec (corpus topologies,
/// trace-file workloads) to absolute paths under `root`, mirroring how CI
/// runs the smokes from the repository root.
fn anchor_paths(spec: &mut hpcc_core::ScenarioSpec, root: &Path) {
    if let TopologyChoice::Corpus { path, .. } = &mut spec.topology {
        if !Path::new(path.as_str()).is_absolute() {
            *path = root.join(path.as_str()).to_string_lossy().into_owned();
        }
    }
    for w in &mut spec.workloads {
        if let hpcc_core::scenario::WorkloadSpec::Trace {
            trace: hpcc_workload::trace::TraceSpec::Path(path),
            ..
        } = w
        {
            if !Path::new(path.as_str()).is_absolute() {
                *path = root.join(path.as_str()).to_string_lossy().into_owned();
            }
        }
    }
}

/// Validate one corpus topology file.
pub fn check_corpus(path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let parsed = match corpus::parse(text) {
        Ok(p) => p,
        Err(e) => {
            findings.push(Finding::new(
                path,
                1,
                CORPUS,
                format!("corpus file does not parse: {e}"),
            ));
            return findings;
        }
    };
    if parsed.host_count() < 2 {
        findings.push(Finding::new(
            path,
            1,
            CORPUS,
            format!(
                "corpus topology declares {} host(s); campaigns need at least 2",
                parsed.host_count()
            ),
        ));
    }
    // Semantic round-trip through the canonical edge list.
    match corpus::parse_edge_list(&parsed.to_edge_list()) {
        Ok(back) if back == parsed => {}
        Ok(_) => findings.push(Finding::new(
            path,
            1,
            CORPUS,
            "corpus file does not survive the canonical edge-list round-trip \
             (parse → to_edge_list → parse changed the graph)",
        )),
        Err(e) => findings.push(Finding::new(
            path,
            1,
            CORPUS,
            format!("canonical re-encoding of this corpus file fails to parse: {e}"),
        )),
    }
    // The graph must route: every host pair reachable.
    let topo = parsed.build();
    let hosts = topo.hosts().to_vec();
    for &src in &hosts {
        for &dst in &hosts {
            if src != dst && topo.path_hops(src, dst).is_none() {
                findings.push(Finding::new(
                    path,
                    1,
                    CORPUS,
                    format!(
                        "host {src:?} cannot reach host {dst:?}; the corpus graph is partitioned"
                    ),
                ));
                return findings;
            }
        }
    }
    findings
}
