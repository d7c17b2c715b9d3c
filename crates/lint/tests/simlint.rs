//! End-to-end tests of the `simlint` pass: each rule against positive and
//! negative fixtures, wire-drift against a doctored spec, the manifest
//! validator against broken manifests, and the clean-tree gate the CI job
//! relies on.

use hpcc_lint::determinism::{self, lint_rust_source as lint};
use hpcc_lint::manifests::{check_corpus, check_manifest};
use hpcc_lint::wirecheck::{check_wire_contract, table_keys};
use hpcc_lint::{rule_ids, run, Finding, Section};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_bans_hash_containers_in_library_code() {
    let bans = |path: &str, src: &str| -> Vec<usize> {
        lint(path, src)
            .iter()
            .filter(|f| f.rule == determinism::HASH_ITER)
            .map(|f| f.line)
            .collect()
    };
    // Naming the type is enough, in every library file: the lint crate and
    // the umbrella root included, iterated or not.
    let map = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u64, u64>) -> usize {\n    m.len()\n}\n";
    let set = "fn f() -> usize {\n    std::collections::HashSet::<u64>::new().len()\n}\n";
    for path in [
        "crates/sim/src/fake.rs",
        "crates/lint/src/fake.rs",
        "src/lib.rs",
    ] {
        assert_eq!(bans(path, map), vec![1, 2], "{path}");
        assert_eq!(bans(path, set), vec![2], "{path}");
    }
    // Tests and benchmarks are not library code.
    assert!(bans("crates/sim/tests/fake.rs", map).is_empty());
    assert!(bans("benchmark/src/fake.rs", map).is_empty());

    // Ordered containers, the words in a comment or a string literal, and a
    // test module are clean.
    let ordered = "use std::collections::{BTreeMap, BTreeSet};\n\
                   fn f(m: &BTreeMap<u64, u64>, s: &BTreeSet<u64>) -> usize {\n\
                   m.len() + s.len()\n}\n";
    let words = "// a HashMap would do here\n\
                 fn f() -> &'static str {\n    \"HashSet\" /* HashMap */\n}\n";
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u64, u64>) -> usize {\n        m.len()\n    }\n}\n";
    for src in [ordered, words, in_test] {
        let findings = lint("crates/core/src/fake.rs", src);
        assert!(findings.is_empty(), "{src}: {findings:?}");
    }
    // The rule's scope is its only exception: no annotation or allowlist.
    let ids = rule_ids();
    assert!(ids.contains(determinism::HASH_ITER), "{ids:?}");
    assert!(
        !ids.contains("annotation") && !ids.contains("allowlist"),
        "{ids:?}"
    );
}

// --------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_banned_outside_timing_modules() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let findings = lint("crates/sim/src/fake.rs", src);
    assert_eq!(
        rules(&findings),
        vec![determinism::WALL_CLOCK],
        "{findings:?}"
    );

    // The timing modules and the bench crate are exempt.
    assert!(lint("crates/core/src/campaign.rs", src).is_empty());
    assert!(lint("crates/core/src/validate.rs", src).is_empty());
    assert!(lint("crates/core/src/timing.rs", src).is_empty());
    assert!(lint("crates/bench/src/lat.rs", src).is_empty());

    let sys = "fn f() { let _ = SystemTime::now(); }\n";
    assert_eq!(
        rules(&lint("crates/core/src/wire.rs", sys)),
        vec![determinism::WALL_CLOCK]
    );

    // Pacing work on the host clock makes event order host-dependent: each
    // read in engine code is a finding.
    let polling = "fn drain_inbox(ch: &std::sync::Mutex<Vec<u64>>) -> Vec<u64> {\n\
                   let deadline = std::time::Instant::now() + std::time::Duration::from_millis(1);\n\
                   while std::time::Instant::now() < deadline {}\n\
                   ch.lock().unwrap().drain(..).collect()\n}\n";
    assert_eq!(
        rules(&lint("crates/sim/src/engine.rs", polling)),
        vec![determinism::WALL_CLOCK, determinism::WALL_CLOCK]
    );
}

#[test]
fn wall_clock_fabric_must_route_through_timing_module() {
    // Negative fixture: a fabric that reads the clock directly is flagged —
    // fabric.rs is deliberately NOT on the wall-clock exemption list, so
    // liveness timing cannot creep in unfunneled.
    let direct = "fn lease_deadline() -> std::time::Instant {\n\
                  std::time::Instant::now() + std::time::Duration::from_secs(10)\n}\n";
    assert_eq!(
        rules(&lint("crates/core/src/fabric.rs", direct)),
        vec![determinism::WALL_CLOCK]
    );

    // Positive fixture: the committed idiom — route every clock read
    // through the sanctioned `timing` module and only do arithmetic on the
    // returned instants — lints clean, as does BTreeMap-based bookkeeping
    // (no hash-iter findings: worker/lease state must iterate in
    // deterministic order).
    let funneled = "use crate::timing;\n\
                    use std::collections::BTreeMap;\n\
                    fn silent(last: &BTreeMap<usize, std::time::Instant>) -> Vec<usize> {\n\
                    let mut out = Vec::new();\n\
                    for (w, heard) in last.iter() {\n\
                    if heard.elapsed() > std::time::Duration::from_secs(10) { out.push(*w); }\n\
                    }\n\
                    let _ = timing::now();\n\
                    out\n}\n";
    let findings = lint("crates/core/src/fabric.rs", funneled);
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------------------- wire-fmt

#[test]
fn wire_fmt_flags_debug_and_precision_formatting() {
    let debug = "fn f(x: f64) -> String {\n    format!(\"{x:?}\")\n}\n";
    assert_eq!(
        rules(&lint("crates/core/src/wire.rs", debug)),
        vec![determinism::WIRE_FMT]
    );

    let precision = "fn f(x: f64) -> String {\n    format!(\"{x:.3}\")\n}\n";
    assert_eq!(
        rules(&lint("crates/core/src/json.rs", precision)),
        vec![determinism::WIRE_FMT]
    );

    // Canonical shortest-round-trip formatting is fine; other files are out
    // of scope.
    let clean = "fn f(x: f64) -> String {\n    format!(\"{x}\")\n}\n";
    assert!(lint("crates/core/src/wire.rs", clean).is_empty());
    assert!(lint("crates/core/src/campaign.rs", debug).is_empty());
}

#[test]
fn wire_fmt_exempts_error_construction() {
    let src = "fn f(x: f64) -> Result<(), JsonError> {\n\
               Err(JsonError::new(format!(\"bad float {x:?}\")))\n}\n";
    assert!(lint("crates/core/src/json.rs", src).is_empty());
}

// ------------------------------------------------- forbid-unsafe/crate-docs

#[test]
fn crate_roots_need_forbid_unsafe_and_docs() {
    let bare = "pub fn f() {}\n";
    let findings = lint("crates/sim/src/lib.rs", bare);
    assert!(
        rules(&findings).contains(&determinism::FORBID_UNSAFE),
        "{findings:?}"
    );
    assert!(
        rules(&findings).contains(&determinism::CRATE_DOCS),
        "{findings:?}"
    );

    let good = "//! Crate docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(lint("crates/sim/src/lib.rs", good).is_empty());
    // Non-root modules are not subject to the crate-root rules.
    assert!(lint("crates/sim/src/engine.rs", bare).is_empty());
}

// --------------------------------------------------------------- wire-drift

#[test]
fn wire_drift_detects_doctored_doc() {
    let doc = std::fs::read_to_string(repo_root().join("docs/WIRE.md")).unwrap();
    let tables = table_keys();

    // The committed pair is drift-free.
    assert!(check_wire_contract(&tables, "WIRE.md", &doc).is_empty());

    // Rename a documented key: the table row becomes undocumented …
    let doctored = doc.replace("| `digest` |", "| `checksum` |");
    let findings = check_wire_contract(&tables, "WIRE.md", &doctored);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("\"digest\"") && f.message.contains("not documented")),
        "{findings:?}"
    );
    // … and the renamed doc key has no table row.
    assert!(
        findings
            .iter()
            .any(|f| f.line > 1 && f.message.contains("\"checksum\"")),
        "{findings:?}"
    );
    // A manifest member is under the same check as a result member.
    let doctored = doc.replace("| `goodput_bin_ps` |", "| `goodput_bin` |");
    let findings = check_wire_contract(&tables, "WIRE.md", &doctored);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

// ----------------------------------------------------- manifests and corpus

#[test]
fn manifest_validator_catches_breakage() {
    let root = repo_root();
    let path = root.join("manifests/queueing_smoke.json");
    let text = std::fs::read_to_string(&path).unwrap();

    // The committed manifest is clean.
    assert!(check_manifest("manifests/queueing_smoke.json", &text, &root).is_empty());

    // Whitespace-only edits break the canonical fixed point.
    let pretty = text.replace("\",\"", "\", \"");
    let findings = check_manifest("m.json", &pretty, &root);
    assert!(
        findings.iter().any(|f| f.message.contains("fixed point")),
        "{findings:?}"
    );

    // Garbage does not parse.
    let findings = check_manifest("m.json", "not json", &root);
    assert_eq!(rules(&findings), vec![hpcc_lint::manifests::MANIFEST]);

    // A parseable campaign whose scenario cannot build (zero-host star).
    let broken = text.replace("\"pods\":2", "\"pods\":0");
    let findings = check_manifest("m.json", &broken, &root);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("fails to build")),
        "{findings:?}"
    );
}

#[test]
fn corpus_validator_catches_breakage() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("corpus/abilene.edges")).unwrap();
    assert!(check_corpus("corpus/abilene.edges", &text).is_empty());

    let findings = check_corpus("bad.edges", "this is not an edge list {");
    assert_eq!(
        rules(&findings),
        vec![hpcc_lint::manifests::CORPUS],
        "{findings:?}"
    );
}

// --------------------------------------------------------------- clean tree

#[test]
fn committed_tree_lints_clean() {
    let findings = run(&repo_root(), Section::All).expect("simlint run");
    assert!(
        findings.is_empty(),
        "the committed tree must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ------------------------------------------------------------------ the CLI

#[test]
fn simlint_binary_exit_codes() {
    // Clean tree → exit 0.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(repo_root())
        .arg("all")
        .output()
        .expect("spawn simlint");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A doctored tree → exit 1 with `file:line rule message` findings.
    let dir = std::env::temp_dir().join(format!("simlint-test-{}", std::process::id()));
    let src = dir.join("crates/foo/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(_: std::collections::HashMap<u8, u8>) {}\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(&dir)
        .arg("rust")
        .output()
        .expect("spawn simlint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/foo/src/lib.rs:1 forbid-unsafe")
            && stdout.contains("crates/foo/src/lib.rs:1 hash-iter"),
        "stdout: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Unknown arguments → exit 2.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--bogus")
        .output()
        .expect("spawn simlint");
    assert_eq!(out.status.code(), Some(2));
}
