//! The repository's contracts that need its committed files, checked
//! without running the engine:
//!
//! * `docs/WIRE.md` names every member the codec tables can put on the wire
//!   (`codec::keys_of::<FabricMsg>()`), and no other;
//! * every `manifests/*.json` parses, is its own canonical re-encoding
//!   (`to_json_string() + "\n"`), and every scenario in it builds;
//! * every `corpus/*` file parses, declares at least two hosts, survives the
//!   canonical edge-list round trip, and routes every host pair;
//! * every workspace member's `Cargo.toml` inherits `[workspace.lints]`, so
//!   the forbidden `unsafe` and the missing-docs warning reach it.
//!
//! Manifests and corpus files are found by listing their directories, so a
//! new one is checked without editing this file. Each rule is also shown
//! rejecting a doctored input. The bans on hash containers and wall-clock
//! reads are clippy's (`clippy.toml`); docs/ARCHITECTURE.md § Lints has the
//! whole list.

use hpcc_core::codec::keys_of;
use hpcc_core::scenario::{TopologyChoice, WorkloadSpec};
use hpcc_core::wire::FabricMsg;
use hpcc_core::{Campaign, ScenarioSpec};
use hpcc_topology::corpus;
use hpcc_workload::trace::TraceSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The repo-relative paths of the entries directly under `dir`, sorted.
fn entries_of(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| Path::new(dir).join(entry.unwrap().file_name()))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{dir} is empty");
    files
}

/// The text of a repo-relative file.
fn read(path: impl AsRef<Path>) -> String {
    let path = path.as_ref();
    std::fs::read_to_string(repo_root().join(path))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_clean(what: &str, problems: &[String]) {
    assert!(problems.is_empty(), "{what}:\n{}", problems.join("\n"));
}

// ---------------------------------------------------------------- the wire

fn is_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The backtick-delimited code spans of one markdown line.
fn inline_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        spans.push(&after[..close]);
        rest = &after[close + 1..];
    }
    spans
}

/// Collect the `"key":` members of `text` into `keys`.
fn colon_keys(text: &str, line: usize, keys: &mut BTreeMap<String, usize>) {
    for (i, _) in text.match_indices('"') {
        let Some(len) = text[i + 1..].find('"') else {
            continue;
        };
        let lit = &text[i + 1..i + 1 + len];
        if is_key(lit) && text[i + 2 + len..].trim_start().starts_with(':') {
            keys.entry(lit.to_string()).or_insert(line);
        }
    }
}

/// The wire keys a markdown spec documents, each with its first line:
/// `"key":` members inside fenced ```json blocks and inside inline code
/// spans that hold an object brace, and backticked keys in the first cell
/// of table rows. Prose mentions (a `"v"` member, a `"fluid"` value) are
/// not key positions.
fn doc_keys(doc: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    let mut in_json = false;
    for (i, raw) in doc.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.starts_with("```") {
            in_json = !in_json && trimmed.starts_with("```json");
        } else if in_json {
            colon_keys(raw, line, &mut keys);
        } else {
            for span in inline_spans(raw).into_iter().filter(|s| s.contains('{')) {
                colon_keys(span, line, &mut keys);
            }
            let first_cell = trimmed.strip_prefix('|').and_then(|r| r.split('|').next());
            for span in first_cell.map(inline_spans).unwrap_or_default() {
                if is_key(span.trim()) {
                    keys.entry(span.trim().to_string()).or_insert(line);
                }
            }
        }
    }
    keys
}

/// Both directions of drift between the codec tables' member names and a
/// spec: a row the doc never names, and a documented key no table has.
fn wire_drift(tables: &BTreeSet<&str>, doc: &str) -> Vec<String> {
    let documented = doc_keys(doc);
    let undocumented = tables
        .iter()
        .filter(|key| !documented.contains_key(**key))
        .map(|key| format!("wire key \"{key}\" is a codec table row but is not documented"));
    let unknown = documented
        .iter()
        .filter(|(key, _)| !tables.contains(key.as_str()))
        .map(|(key, line)| format!("line {line}: documented key \"{key}\" is in no codec table"));
    undocumented.chain(unknown).collect()
}

fn wire_doc() -> String {
    read("docs/WIRE.md")
}

#[test]
fn doc_keys_from_blocks_spans_and_tables() {
    let doc = "\n\
        ```json\n{\"index\": 3, \"result\": {}}\n```\n\
        A *percentiles* object is `{\"count\": <unsigned>, \"p50\": <number>}`.\n\
        | key | type |\n|---|---|\n| `name` | string |\n\
        | `queue_p50` / `queue_p95` | unsigned |\n\
        Future: add a `\"v\"` member. The label `\"fluid\"` is a value.\n";
    let keys = doc_keys(doc);
    for k in [
        "index",
        "result",
        "count",
        "p50",
        "name",
        "queue_p50",
        "queue_p95",
    ] {
        assert!(keys.contains_key(k), "missing {k}");
    }
    assert!(!keys.contains_key("v"));
    assert!(!keys.contains_key("fluid"));
    assert!(!keys.contains_key("key"));
}

#[test]
fn drift_is_bidirectional() {
    let doc = "| `a` | u | |\n| `c` | u | |\n";
    let problems = wire_drift(&["a", "b"].into(), doc);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(
        problems[0].contains("\"b\" is a codec table row"),
        "{problems:?}"
    );
    assert!(
        problems[1].starts_with("line 2: documented key \"c\""),
        "{problems:?}"
    );
}

#[test]
fn the_wire_doc_names_every_codec_key_and_no_other() {
    assert_clean(
        "docs/WIRE.md",
        &wire_drift(&keys_of::<FabricMsg>(), &wire_doc()),
    );
}

#[test]
fn a_doctored_wire_doc_is_rejected() {
    // One documented key renamed: a row is missing and an unknown key added,
    // and a manifest member is under the same check as a result member.
    let tables = keys_of::<FabricMsg>();
    for (from, to) in [("digest", "checksum"), ("goodput_bin_ps", "goodput_bin")] {
        let doctored = wire_doc().replace(&format!("| `{from}` |"), &format!("| `{to}` |"));
        let problems = wire_drift(&tables, &doctored);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains(&format!("\"{from}\" is a codec table row")));
        assert!(problems[1].contains(&format!("documented key \"{to}\"")));
    }
}

// -------------------------------------------------------------- manifests

/// Point the repo-relative files a spec names (corpus topologies, trace
/// workloads) at the repo root, where the CI smokes run them from.
fn anchor_paths(spec: &mut ScenarioSpec) {
    let anchor = |path: &mut String| {
        *path = repo_root().join(&*path).to_string_lossy().into_owned();
    };
    if let TopologyChoice::Corpus { path, .. } = &mut spec.topology {
        anchor(path);
    }
    for workload in &mut spec.workloads {
        if let WorkloadSpec::Trace {
            trace: TraceSpec::Path(path),
            ..
        } = workload
        {
            anchor(path);
        }
    }
}

fn manifest_problems(text: &str) -> Vec<String> {
    let campaign = match Campaign::from_json_str(text) {
        Ok(campaign) => campaign,
        Err(e) => return vec![format!("does not parse as a campaign: {e}")],
    };
    let mut problems = Vec::new();
    if campaign.to_json_string() + "\n" != text {
        problems.push("is not its canonical re-encoding; regenerate it".to_string());
    }
    for (i, spec) in campaign.scenarios().iter().enumerate() {
        let mut spec = spec.clone();
        anchor_paths(&mut spec);
        if let Err(e) = spec.try_build() {
            problems.push(format!(
                "scenario {i} ({:?}) does not build: {e}",
                spec.name
            ));
        }
    }
    problems
}

#[test]
fn every_manifest_is_canonical_and_builds() {
    for path in entries_of("manifests") {
        assert_clean(
            &path.display().to_string(),
            &manifest_problems(&read(&path)),
        );
    }
}

#[test]
fn doctored_manifests_are_rejected() {
    let text = read("manifests/queueing_smoke.json");
    let reordered = text.replacen(
        "\"duration_ps\":2000000000,\"seed\":11",
        "\"seed\":11,\"duration_ps\":2000000000",
        1,
    );
    let unbuildable = text.replacen("\"pods\":2", "\"pods\":0", 1);
    for (doctored, expected) in [
        (reordered, "is not its canonical re-encoding"),
        (
            unbuildable,
            "scenario 0 (\"queueing SP-1 (legacy)\") does not build",
        ),
        ("not json".to_string(), "does not parse as a campaign"),
    ] {
        assert_ne!(doctored, text);
        let problems = manifest_problems(&doctored);
        assert!(
            problems.iter().any(|p| p.contains(expected)),
            "{expected}: {problems:?}"
        );
    }
}

// ----------------------------------------------------------------- corpus

fn corpus_problems(text: &str) -> Vec<String> {
    let graph = match corpus::parse(text) {
        Ok(graph) => graph,
        Err(e) => return vec![format!("does not parse: {e}")],
    };
    let mut problems = Vec::new();
    if graph.host_count() < 2 {
        problems.push(format!(
            "declares {} host(s); campaigns need at least 2",
            graph.host_count()
        ));
    }
    if corpus::parse_edge_list(&graph.to_edge_list()).as_ref() != Ok(&graph) {
        problems.push("does not survive the canonical edge-list round trip".to_string());
    }
    let topo = graph.build();
    let hosts = topo.hosts();
    let unreachable = hosts
        .iter()
        .flat_map(|&src| hosts.iter().map(move |&dst| (src, dst)))
        .find(|&(src, dst)| src != dst && topo.path_hops(src, dst).is_none());
    if let Some((src, dst)) = unreachable {
        problems.push(format!(
            "is partitioned: host {src:?} cannot reach host {dst:?}"
        ));
    }
    problems
}

#[test]
fn every_corpus_file_parses_round_trips_and_routes() {
    for path in entries_of("corpus") {
        assert_clean(&path.display().to_string(), &corpus_problems(&read(&path)));
    }
}

#[test]
fn doctored_corpus_graphs_are_rejected() {
    let partitioned = "node a host\nnode b host\nnode s switch\nnode t switch\n\
                       link a s 25Gbps 1us\nlink b t 25Gbps 1us\n";
    let one_host = "node a host\nnode s switch\nlink a s 25Gbps 1us\n";
    for (doctored, expected) in [
        (partitioned, "is partitioned"),
        (one_host, "declares 1 host(s)"),
        ("this is not an edge list {", "does not parse"),
    ] {
        let problems = corpus_problems(doctored);
        assert!(
            problems.iter().any(|p| p.contains(expected)),
            "{expected}: {problems:?}"
        );
    }
}

// ------------------------------------------------------------------ lints

/// Whether a `Cargo.toml` has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest
        .split("\n[")
        .filter_map(|table| table.strip_prefix("lints]"))
        .any(|body| body.lines().any(|l| l.replace(' ', "") == "workspace=true"))
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let lints = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\nmissing_docs = \"warn\"\n";
    assert!(
        read("Cargo.toml").contains(lints),
        "Cargo.toml lacks {lints}"
    );
    let members = entries_of("crates")
        .into_iter()
        .map(|dir| dir.join("Cargo.toml"));
    for manifest in std::iter::once(PathBuf::from("Cargo.toml")).chain(members) {
        assert!(
            inherits_workspace_lints(&read(&manifest)),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
    assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!inherits_workspace_lints(
        "[lints]\n\n[dependencies]\nworkspace = true\n"
    ));
}
