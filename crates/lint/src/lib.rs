//! # hpcc-lint
//!
//! The in-tree determinism and wire-contract static-analysis pass of the
//! HPCC reproduction — the `simlint` binary CI gates on. Everything this
//! repository claims rests on bit-identical determinism (golden digests
//! over the event-wheel engine, the sharded merge, the fluid backend, the
//! canonical JSONL wire); these analyzers turn the conventions behind those
//! claims into machine-checked rules instead of remembered ones:
//!
//! * [`determinism`] — lexical lints over Rust source: hash containers in
//!   library code, wall-clock reads outside the timing modules,
//!   non-canonical formatting next to the wire encoder, missing
//!   `#![forbid(unsafe_code)]` / crate docs in crate roots.
//! * [`wirecheck`] — bidirectional member-name cross-check between the
//!   codec tables (`hpcc_core::codec`) and `docs/WIRE.md`, so the codec and
//!   its normative spec can never diverge silently.
//! * [`manifests`] — static validation of every committed
//!   `manifests/*.json` (parse, `try_build`-level checking, canonical
//!   re-encoding fixed point) and `corpus/*` file (parse, round-trip,
//!   reachability) without running the engine.
//!
//! Findings print as `file:line rule message`. A rule's exceptions are its
//! scope constants; no annotation or allowlist silences a finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod manifests;
pub mod scanner;
pub mod wirecheck;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One static-analysis finding, rendered as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (`/`-separated) of the offending file.
    pub file: String,
    /// 1-based line number the finding anchors to.
    pub line: usize,
    /// Stable rule identifier (e.g. `hash-iter`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            file: file.into(),
            line,
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Recursively list the `.rs` files under `dir` (sorted, repo-relative to
/// `root`), skipping `target/`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut children: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    children.sort();
    for path in children {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Which analysis sections to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Determinism lints over Rust source.
    Rust,
    /// Wire-contract drift check.
    Wire,
    /// Manifest and corpus validation.
    Manifests,
    /// Everything.
    All,
}

/// Run the requested sections over the repository at `root`; returns the
/// findings, sorted by file and line.
pub fn run(root: &Path, section: Section) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let want = |s: Section| section == Section::All || section == s;

    if want(Section::Rust) {
        // Library sources: every crate's src/ plus the umbrella crate root.
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_roots: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path().join("src"))
                .filter(|p| p.is_dir())
                .collect();
            crate_roots.sort();
            for src in crate_roots {
                rust_files(root, &src, &mut files)?;
            }
        }
        let umbrella = root.join("src/lib.rs");
        if umbrella.is_file() {
            files.push(("src/lib.rs".to_string(), umbrella));
        }
        for (rel, path) in &files {
            let text = std::fs::read_to_string(path)?;
            findings.extend(determinism::lint_rust_source(rel, &text));
        }
    }

    if want(Section::Wire) {
        let doc = std::fs::read_to_string(root.join("docs/WIRE.md"))?;
        findings.extend(wirecheck::check_wire_contract(
            &wirecheck::table_keys(),
            "docs/WIRE.md",
            &doc,
        ));
    }

    if want(Section::Manifests) {
        for (dir, check) in [("manifests", true), ("corpus", false)] {
            let dir_path = root.join(dir);
            if !dir_path.is_dir() {
                continue;
            }
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir_path)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect();
            entries.sort();
            for path in entries {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&path)?;
                if check {
                    findings.extend(manifests::check_manifest(&rel, &text, root));
                } else {
                    findings.extend(manifests::check_corpus(&rel, &text));
                }
            }
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// The set of rule ids the pass can emit (for `--help` and tests).
pub fn rule_ids() -> BTreeSet<&'static str> {
    [
        determinism::HASH_ITER,
        determinism::WALL_CLOCK,
        determinism::WIRE_FMT,
        determinism::FORBID_UNSAFE,
        determinism::CRATE_DOCS,
        wirecheck::WIRE_DRIFT,
        manifests::MANIFEST,
        manifests::CORPUS,
    ]
    .into()
}
