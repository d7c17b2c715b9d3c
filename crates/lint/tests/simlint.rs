//! End-to-end tests of the `simlint` pass: each rule against positive and
//! negative fixtures, wire-drift against a doctored spec, the manifest
//! validator against broken manifests, and the clean-tree gate the CI job
//! relies on.

use hpcc_lint::determinism::{self, lint_rust_source};
use hpcc_lint::manifests::{check_corpus, check_manifest};
use hpcc_lint::wirecheck::{check_wire_contract, table_keys};
use hpcc_lint::{run, Allowlist, Finding, Section};
use std::collections::BTreeSet;
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

fn lint(path: &str, source: &str) -> Vec<Finding> {
    lint_rust_source(path, source, &BTreeSet::new())
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_flags_unsorted_fold() {
    let src = "fn f(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
               let mut acc = 0;\n\
               for (k, v) in m.iter() {\n    acc ^= k.wrapping_mul(*v);\n}\n\
               acc\n}\n";
    let findings = lint("crates/sim/src/fake.rs", src);
    assert_eq!(
        rules(&findings),
        vec![determinism::HASH_ITER],
        "{findings:?}"
    );
    // Same source outside the crates whose output is pinned: not in scope.
    assert!(lint("crates/lint/src/fake.rs", src).is_empty());
}

#[test]
fn hash_iter_covers_the_figure_harness() {
    // A figure's text is pinned like a digest: a goodput fold in hasher
    // order under `crates/bench/src/` is flagged...
    let registry: BTreeSet<String> = ["flow_goodput".to_string()].into();
    let unsorted = "fn jain(res: &R) -> Vec<f64> {\n\
                    res.out.flow_goodput.values().map(|v| v[0] as f64).collect()\n}\n";
    let findings = lint_rust_source("crates/bench/src/figures.rs", unsorted, &registry);
    assert_eq!(
        rules(&findings),
        vec![determinism::HASH_ITER],
        "{findings:?}"
    );
    // ...and the same fold over keys sorted first is clean.
    let sorted = "fn jain(res: &R) -> Vec<f64> {\n\
                  let mut ids: Vec<FlowId> = res.out.flow_goodput.keys().copied().collect();\n\
                  ids.sort_unstable();\n\
                  ids.iter().map(|id| res.out.flow_goodput[id][0] as f64).collect()\n}\n";
    let findings = lint_rust_source("crates/bench/src/figures.rs", sorted, &registry);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iter_accepts_sort_before_fold() {
    // The digest_output pattern: collect keys, sort, fold in sorted order.
    let src = "fn f(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
               let mut keys: Vec<u64> = m.keys().copied().collect();\n\
               keys.sort_unstable();\n\
               keys.iter().map(|k| m[k]).fold(0, u64::wrapping_add)\n}\n";
    let findings = lint("crates/core/src/fake.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iter_accepts_justified_annotation_and_rejects_bare_one() {
    let annotated = "fn f(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
                     // simlint: sorted-fold — commutative sum, order-free\n\
                     m.values().sum()\n}\n";
    assert!(lint("crates/stats/src/fake.rs", annotated).is_empty());

    let bare = "fn f(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
                // simlint: sorted-fold\n\
                m.values().sum()\n}\n";
    let findings = lint("crates/stats/src/fake.rs", bare);
    // The bare annotation is itself a finding and does not silence the site.
    assert!(
        rules(&findings).contains(&determinism::ANNOTATION),
        "{findings:?}"
    );
    assert!(
        rules(&findings).contains(&determinism::HASH_ITER),
        "{findings:?}"
    );
}

#[test]
fn hash_iter_resolves_registry_fields_with_local_shadowing() {
    let registry: BTreeSet<String> = ["ports".to_string()].into();
    // `self.out.ports` in a file that never declares `ports`: resolved via
    // the registry of pub hash-typed fields.
    let remote = "fn f(&self) -> u64 {\n    self.out.ports.values().map(|c| c.x).sum()\n}\n";
    let findings = lint_rust_source("crates/core/src/fake.rs", remote, &registry);
    assert_eq!(
        rules(&findings),
        vec![determinism::HASH_ITER],
        "{findings:?}"
    );

    // A local non-hash declaration of the same name shadows the registry.
    let local = "struct S { ports: Vec<u64> }\n\
                 fn f(s: &S) -> u64 {\n    s.ports.iter().sum()\n}\n";
    let findings = lint_rust_source("crates/core/src/fake.rs", local, &registry);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iter_skips_test_modules_and_loop_style_is_caught() {
    let in_test = "#[cfg(test)]\nmod tests {\n\
                   fn f(m: &std::collections::HashMap<u64, u64>) -> u64 {\n\
                   m.values().sum()\n}\n}\n";
    assert!(lint("crates/sim/src/fake.rs", in_test).is_empty());

    let loop_style = "fn f(s: &std::collections::HashSet<u64>) -> u64 {\n\
                      let mut acc = 0;\n    for v in &s {\n        acc ^= v;\n    }\n    acc\n}\n";
    let findings = lint("crates/topology/src/fake.rs", loop_style);
    assert_eq!(
        rules(&findings),
        vec![determinism::HASH_ITER],
        "{findings:?}"
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

#[test]
fn wall_clock_parallel_engine_stays_clock_free() {
    // Negative fixture: engine code that paces a hand-off between threads
    // on the host clock is flagged — crates/sim is deliberately NOT on the
    // wall-clock exemption list, so no future in-scenario parallelism can
    // degrade into wall-clock polling (which would make event order
    // host-dependent).
    let polling = "fn drain_inbox(ch: &std::sync::Mutex<Vec<u64>>) -> Vec<u64> {\n\
                   let deadline = std::time::Instant::now() + std::time::Duration::from_millis(1);\n\
                   while std::time::Instant::now() < deadline {}\n\
                   ch.lock().unwrap().drain(..).collect()\n}\n";
    assert_eq!(
        rules(&lint("crates/sim/src/engine.rs", polling)),
        vec![determinism::WALL_CLOCK, determinism::WALL_CLOCK]
    );

    // Positive fixture: barrier-synchronised phases and mutex-guarded
    // channel drains with no clock reads at all lint clean. (Benchmark wall
    // timing lives in crates/bench and the `hpcc_core::timing` funnel, never
    // in the engine.)
    let barriered = "fn drain_inbox(\n\
                     barrier: &std::sync::Barrier,\n\
                     ch: &std::sync::Mutex<Vec<u64>>,\n\
                     ) -> Vec<u64> {\n\
                     barrier.wait();\n\
                     let mut got: Vec<u64> = ch.lock().unwrap().drain(..).collect();\n\
                     got.sort_unstable();\n\
                     got\n}\n";
    let findings = lint("crates/sim/src/engine.rs", barriered);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iter_shard_stat_merges_must_sort() {
    // Negative fixture: folding per-shard port-stat maps in HashMap order
    // is flagged — a merge that iterates raw hash order would make the
    // merged output depend on hasher state.
    let unsorted = "fn merge(shard: &std::collections::HashMap<u64, u64>) \
                    -> std::collections::HashMap<u64, u64> {\n\
                    let mut out = std::collections::HashMap::new();\n\
                    for (k, v) in shard.iter() {\n    out.insert(*k, *v);\n}\n\
                    out\n}\n";
    let findings = lint("crates/sim/src/engine.rs", unsorted);
    assert_eq!(
        rules(&findings),
        vec![determinism::HASH_ITER],
        "{findings:?}"
    );

    // Positive fixture: the sorted merge idiom — collect the shard's
    // disjoint keys, sort, then insert in sorted order — lints clean.
    let sorted = "fn merge(shard: std::collections::HashMap<u64, u64>) \
                  -> std::collections::HashMap<u64, u64> {\n\
                  let mut rows: Vec<(u64, u64)> = shard.into_iter().collect();\n\
                  rows.sort_unstable();\n\
                  let mut out = std::collections::HashMap::new();\n\
                  for (k, v) in rows {\n    out.insert(k, v);\n}\n\
                  out\n}\n";
    let findings = lint("crates/sim/src/engine.rs", sorted);
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

// --------------------------------------------------------------- annotation

#[test]
fn malformed_annotations_are_findings() {
    let src = "// simlint: sortedfold — typo in the directive\nfn f() {}\n";
    let findings = lint("crates/sim/src/fake.rs", src);
    assert_eq!(
        rules(&findings),
        vec![determinism::ANNOTATION],
        "{findings:?}"
    );
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

// ---------------------------------------------------------------- allowlist

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let (allow, parse_findings) = Allowlist::parse(
        "simlint.allow",
        "# comment\ncrates/sim/src/fake.rs hash-iter  # vetted\ncrates/x.rs wall-clock\n",
    );
    assert!(parse_findings.is_empty());
    let findings = vec![Finding::new("crates/sim/src/fake.rs", 3, "hash-iter", "m")];
    let kept = allow.apply("simlint.allow", findings);
    // The matching finding is suppressed; the unmatched entry is stale.
    assert_eq!(rules(&kept), vec!["allowlist"], "{kept:?}");
    assert!(kept[0].message.contains("stale"), "{kept:?}");

    let (_, parse_findings) = Allowlist::parse("simlint.allow", "one-token-line\n");
    assert_eq!(rules(&parse_findings), vec!["allowlist"]);
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
    std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(&dir)
        .arg("rust")
        .output()
        .expect("spawn simlint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/foo/src/lib.rs:1 forbid-unsafe"),
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
