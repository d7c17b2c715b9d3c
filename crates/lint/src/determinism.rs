//! Determinism lints over Rust source.
//!
//! Every digest in this repository is a fold over simulation state, and a
//! fold is only reproducible if the iteration order feeding it is. These
//! rules machine-check the conventions the golden tests rely on:
//!
//! * [`HASH_ITER`] — no `HashMap`/`HashSet` token in library code (every
//!   `crates/*/src` file and `src/lib.rs`, outside `#[cfg(test)]` modules):
//!   keyed state lives in `BTreeMap`/`BTreeSet`, whose iteration order is
//!   the key order, so no hasher order can reach a digest, the wire or a
//!   figure.
//! * [`WALL_CLOCK`] — `Instant::now` / `SystemTime` are banned outside the
//!   campaign/validate timing modules and the bench crate: wall time must
//!   never leak into results (the wire envelope is the only sanctioned
//!   carrier).
//! * [`WIRE_FMT`] — debug (`{:?}`) and precision (`{:.N}`) formatting in
//!   the wire encoder and JSON module: canonical floats use
//!   shortest-round-trip `{}` formatting; anything else silently breaks
//!   byte-identity. Error-construction lines are exempt.
//! * [`FORBID_UNSAFE`] / [`CRATE_DOCS`] — every library crate root must
//!   carry `#![forbid(unsafe_code)]` and crate-level docs.
//!
//! The scanner is lexical (see [`crate::scanner`]), so a rule matches only
//! real code: never a comment, a string literal or a test module. A rule's
//! exceptions are its scope constants below and [`WIRE_FMT`]'s
//! error-construction exemption; nothing else silences a finding.

use crate::scanner::{is_ident_char, scan, Line};
use crate::Finding;

/// Rule id: a hash container in library code.
pub const HASH_ITER: &str = "hash-iter";
/// Rule id: wall-clock read outside the timing modules.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule id: non-canonical formatting in wire-adjacent code.
pub const WIRE_FMT: &str = "wire-fmt";
/// Rule id: missing `#![forbid(unsafe_code)]` in a crate root.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// Rule id: missing crate-level (`//!`) docs in a crate root.
pub const CRATE_DOCS: &str = "crate-docs";

/// Files allowed to read the wall clock: the campaign runner and the
/// cross-validation harness measure wall time *outside* canonical results,
/// and `timing.rs` is the sanctioned clock the fabric's liveness timers
/// (heartbeats, lease timeouts) go through.
const WALL_CLOCK_EXEMPT: [&str; 3] = [
    "crates/core/src/campaign.rs",
    "crates/core/src/timing.rs",
    "crates/core/src/validate.rs",
];

/// Files the [`WIRE_FMT`] rule covers: the codec, the wire module and the
/// JSON module they ride on.
const WIRE_FMT_SCOPE: [&str; 3] = [
    "crates/core/src/codec.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/json.rs",
];

/// True when `path` (repo-relative, `/`-separated) is library source: a
/// file under some `crates/*/src/`, or the umbrella crate root.
fn library_source(path: &str) -> bool {
    (path.starts_with("crates/") && path.contains("/src/")) || path == "src/lib.rs"
}

/// True when `path` is in the wall-clock scope (library code outside the
/// timing modules and the bench crate).
pub fn wall_clock_applies(path: &str) -> bool {
    !path.starts_with("crates/bench/") && !WALL_CLOCK_EXEMPT.contains(&path) && library_source(path)
}

/// True when `path` is in the wire-format scope.
pub fn wire_fmt_applies(path: &str) -> bool {
    WIRE_FMT_SCOPE.contains(&path)
}

/// True when `path` is a crate root (`lib.rs`) subject to the
/// [`FORBID_UNSAFE`] / [`CRATE_DOCS`] rules.
pub fn crate_root_applies(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Lint one Rust source file.
pub fn lint_rust_source(path: &str, source: &str) -> Vec<Finding> {
    let lines = scan(source);
    let mut findings = Vec::new();

    if crate_root_applies(path) {
        if !lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"))
        {
            findings.push(Finding::new(
                path,
                1,
                FORBID_UNSAFE,
                "library crate root must carry #![forbid(unsafe_code)]",
            ));
        }
        if !source.lines().any(|l| l.trim_start().starts_with("//!")) {
            findings.push(Finding::new(
                path,
                1,
                CRATE_DOCS,
                "library crate root must carry crate-level `//!` docs",
            ));
        }
    }

    if wall_clock_applies(path) {
        for line in lines.iter().filter(|l| !l.in_test) {
            if line.code.contains("Instant::now") || line.code.contains("SystemTime") {
                findings.push(Finding::new(
                    path,
                    line.number,
                    WALL_CLOCK,
                    "wall-clock read in deterministic code; timing belongs in \
                     crates/core/src/campaign.rs, timing.rs, validate.rs or \
                     crates/bench",
                ));
            }
        }
    }

    if wire_fmt_applies(path) {
        for line in lines.iter().filter(|l| !l.in_test) {
            let lit = &line.literals;
            let debug_fmt = lit.contains(":?}") || lit.contains(":#?}");
            let precision_fmt = lit.match_indices(":.").any(|(i, _)| {
                lit[i + 2..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '*')
            });
            if !(debug_fmt || precision_fmt || lit.contains(":e}")) {
                continue;
            }
            if error_context(&lines, line.number) {
                continue;
            }
            findings.push(Finding::new(
                path,
                line.number,
                WIRE_FMT,
                "debug/precision formatting next to the wire encoder; canonical \
                 floats must use shortest-round-trip `{}` formatting",
            ));
        }
    }

    if library_source(path) {
        for line in lines.iter().filter(|l| !l.in_test) {
            if has_token(&line.code, "HashMap") || has_token(&line.code, "HashSet") {
                findings.push(Finding::new(
                    path,
                    line.number,
                    HASH_ITER,
                    "HashMap/HashSet in library code: its iteration order is \
                     hasher-dependent and can reach a digest, the wire or a \
                     figure; use BTreeMap/BTreeSet",
                ));
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// True when the flagged line (or the up-to-3 preceding lines of its
/// statement) is constructing an error/panic — exempt from [`WIRE_FMT`].
fn error_context(lines: &[Line], number: usize) -> bool {
    const TOKENS: [&str; 7] = [
        "err(",
        "Err(",
        "JsonError",
        "panic!",
        "assert",
        "unreachable!",
        "expect(",
    ];
    let idx = number - 1;
    let from = idx.saturating_sub(3);
    lines[from..=idx]
        .iter()
        .any(|l| TOKENS.iter().any(|t| l.code.contains(t)))
}

/// True when `word` occurs in `code` as a whole identifier.
fn has_token(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}
