//! Determinism lints over Rust source.
//!
//! Every digest in this repository is a fold over simulation state, and a
//! fold is only reproducible if the iteration order feeding it is. These
//! rules machine-check the conventions the golden tests rely on:
//!
//! * [`HASH_ITER`] — iteration over `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for … in &map`) inside the
//!   deterministic crates (`sim`, `stats`, `core`, `topology`) and in
//!   `bench`, whose figure text is pinned, is flagged unless the site
//!   sorts the collected keys before folding (the `digest_output` pattern in `crates/core/src/campaign.rs`) or carries a
//!   justified `// simlint: sorted-fold — <why>` annotation.
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
//! The scanner is lexical (see [`crate::scanner`]); the `HashMap` analysis
//! resolves receiver identifiers in two tiers — identifiers declared
//! hash-typed in the same file, plus `pub` hash-typed struct fields
//! registered across the whole workspace (so `out.ports.values()` is
//! caught in a file that never names the type) — with local non-hash
//! declarations shadowing the global registry.

use crate::scanner::{ident_before, is_ident_char, scan, Line};
use crate::Finding;
use std::collections::BTreeSet;

/// Rule id: hasher-ordered iteration feeding a fold.
pub const HASH_ITER: &str = "hash-iter";
/// Rule id: wall-clock read outside the timing modules.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule id: non-canonical formatting in wire-adjacent code.
pub const WIRE_FMT: &str = "wire-fmt";
/// Rule id: missing `#![forbid(unsafe_code)]` in a crate root.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// Rule id: missing crate-level (`//!`) docs in a crate root.
pub const CRATE_DOCS: &str = "crate-docs";
/// Rule id: malformed `// simlint:` annotation.
pub const ANNOTATION: &str = "annotation";

/// Crates whose source the [`HASH_ITER`] rule covers: everything a golden
/// digest, a wire byte or a figure's text can observe.
const HASH_ITER_SCOPE: [&str; 5] = [
    "crates/sim/src/",
    "crates/stats/src/",
    "crates/core/src/",
    "crates/topology/src/",
    "crates/bench/src/",
];

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

/// Hash-iteration method suffixes (checked against the blanked code line).
const ITER_METHODS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// True when `path` (repo-relative, `/`-separated) is in the hash-iter
/// scope.
pub fn hash_iter_applies(path: &str) -> bool {
    HASH_ITER_SCOPE.iter().any(|p| path.starts_with(p))
}

/// True when `path` is in the wall-clock scope (library code outside the
/// timing modules and the bench crate).
pub fn wall_clock_applies(path: &str) -> bool {
    if path.starts_with("crates/bench/") || WALL_CLOCK_EXEMPT.contains(&path) {
        return false;
    }
    (path.starts_with("crates/") && path.contains("/src/")) || path == "src/lib.rs"
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

/// A parsed `// simlint:` annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// The rule the annotation silences (`sorted-fold` ⇒ [`HASH_ITER`]).
    pub rule: String,
    /// The justification text after the directive.
    pub justification: String,
}

/// Parse the annotation grammar out of a comment:
/// `simlint: sorted-fold — <why>` or `simlint: allow(<rule>) — <why>`.
pub fn parse_annotation(comment: &str) -> Option<Annotation> {
    let rest = comment.trim().strip_prefix("simlint:")?.trim_start();
    let (rule, after) = if let Some(after) = rest.strip_prefix("sorted-fold") {
        (HASH_ITER.to_string(), after)
    } else if let Some(after) = rest.strip_prefix("allow(") {
        let close = after.find(')')?;
        (after[..close].trim().to_string(), &after[close + 1..])
    } else {
        return None;
    };
    let justification = after
        .trim_start_matches([' ', '\t', '—', '-', ':', ','])
        .trim()
        .to_string();
    Some(Annotation {
        rule,
        justification,
    })
}

/// Collect `pub`(-ish) struct fields declared with an outermost
/// `HashMap`/`HashSet` type across many files — the cross-file registry
/// that lets `out.ports.values()` be resolved far from `SimOutput`.
pub fn collect_pub_hash_fields(sources: &[(String, String)]) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    for (path, text) in sources {
        if !hash_iter_applies(path) {
            continue;
        }
        for line in scan(text) {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            if !code.trim_start().starts_with("pub") {
                continue;
            }
            for (name, hash) in declared_names(code) {
                if hash {
                    fields.insert(name);
                }
            }
        }
    }
    fields
}

/// `(name, is_hash_typed)` for every `name: Type` / `name = HashMap::…`
/// declaration-shaped pattern on a code line.
fn declared_names(code: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    // Type-annotation declarations: `name: [&mut] [std::collections::]Type`.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        // Skip `::` path separators on either side.
        if bytes.get(i + 1) == Some(&b':') || (i > 0 && bytes[i - 1] == b':') {
            continue;
        }
        let Some(name) = ident_before(code, i) else {
            continue;
        };
        if matches!(
            name,
            "pub" | "crate" | "mut" | "ref" | "in" | "if" | "else" | "match" | "return"
        ) {
            continue;
        }
        let mut rest = code[i + 1..].trim_start();
        for prefix in ["&mut ", "&", "mut ", "std::collections::"] {
            rest = rest.strip_prefix(prefix).unwrap_or(rest).trim_start();
        }
        let hash = rest.starts_with("HashMap<") || rest.starts_with("HashSet<");
        let is_type = hash
            || rest.chars().next().is_some_and(|c| {
                c.is_ascii_uppercase() || matches!(c, '[' | '(' | '&' | 'u' | 'i' | 'f' | 'b' | 'd')
            });
        if is_type {
            out.push((name.to_string(), hash));
        }
    }
    // Initializer declarations: `let [mut] name = [std::collections::]HashMap::…`.
    let mut search = 0usize;
    while let Some(pos) = code[search..].find("let ") {
        let at = search + pos + 4;
        search = at;
        let rest = code[at..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if name.is_empty() {
            continue;
        }
        let after = &rest[name.len()..];
        // Only the untyped `= HashMap::new()` shape; typed `let` bindings are
        // handled by the annotation branch above.
        if let Some(init) = after.trim_start().strip_prefix('=') {
            let init = init.trim_start();
            let init = init.strip_prefix("std::collections::").unwrap_or(init);
            let hash = init.starts_with("HashMap::") || init.starts_with("HashSet::");
            out.push((name, hash));
        } else if !after.trim_start().starts_with(':') {
            out.push((name, false));
        }
    }
    out
}

/// Lint one Rust source file. `pub_hash_fields` is the output of
/// [`collect_pub_hash_fields`] over the whole tree (pass an empty set to
/// lint a file in isolation).
pub fn lint_rust_source(
    path: &str,
    source: &str,
    pub_hash_fields: &BTreeSet<String>,
) -> Vec<Finding> {
    let lines = scan(source);
    let mut findings = Vec::new();

    // Malformed annotations are findings wherever they appear.
    for line in &lines {
        if line.comment.trim().starts_with("simlint:") {
            match parse_annotation(&line.comment) {
                Some(a) if a.justification.is_empty() => findings.push(Finding::new(
                    path,
                    line.number,
                    ANNOTATION,
                    "annotation carries no justification; write `// simlint: \
                     sorted-fold — <why this fold is order-free>`",
                )),
                Some(_) => {}
                None => findings.push(Finding::new(
                    path,
                    line.number,
                    ANNOTATION,
                    "unrecognized simlint directive; the grammar is `simlint: \
                     sorted-fold — <why>` or `simlint: allow(<rule>) — <why>`",
                )),
            }
        }
    }

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
                if annotated(&lines, line.number, WALL_CLOCK) {
                    continue;
                }
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
            if error_context(&lines, line.number) || annotated(&lines, line.number, WIRE_FMT) {
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

    if hash_iter_applies(path) {
        findings.extend(lint_hash_iteration(path, &lines, pub_hash_fields));
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

/// True when line `number` or the line directly above carries a justified
/// annotation for `rule`.
fn annotated(lines: &[Line], number: usize, rule: &str) -> bool {
    let idx = number - 1;
    let mut candidates = vec![&lines[idx]];
    if idx > 0 {
        candidates.push(&lines[idx - 1]);
    }
    candidates.iter().any(|l| {
        parse_annotation(&l.comment).is_some_and(|a| a.rule == rule && !a.justification.is_empty())
    })
}

fn lint_hash_iteration(
    path: &str,
    lines: &[Line],
    pub_hash_fields: &BTreeSet<String>,
) -> Vec<Finding> {
    // Tier 1: names declared locally, with their hash-ness.
    let mut local_hash: BTreeSet<String> = BTreeSet::new();
    let mut local_any: BTreeSet<String> = BTreeSet::new();
    for line in lines.iter().filter(|l| !l.in_test) {
        for (name, hash) in declared_names(&line.code) {
            if hash {
                local_hash.insert(name.clone());
            }
            local_any.insert(name);
        }
    }
    let flaggable = |name: &str| {
        local_hash.contains(name) || (pub_hash_fields.contains(name) && !local_any.contains(name))
    };

    let mut findings = Vec::new();
    for (li, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
        let mut receivers: Vec<String> = Vec::new();
        // Method-style iteration: `<recv>.keys()` etc. A chain broken across
        // lines (`self.ports\n    .values()`) resolves the receiver from the
        // trailing identifier of the previous non-empty code line.
        for m in ITER_METHODS {
            for (at, _) in line.code.match_indices(m) {
                if let Some(name) = ident_before(&line.code, at) {
                    receivers.push(name.to_string());
                } else if line.code[..at].trim().is_empty() {
                    if let Some(prev) = lines[..li].iter().rev().find(|p| !p.code.trim().is_empty())
                    {
                        let trimmed = prev.code.trim_end();
                        if let Some(name) = ident_before(trimmed, trimmed.len()) {
                            receivers.push(name.to_string());
                        }
                    }
                }
            }
        }
        // Loop-style iteration: `for … in [&[mut]] <recv> {`.
        if let Some(pos) = line.code.find(" in ") {
            if line.code.trim_start().starts_with("for ") || line.code.contains(" for ") {
                let mut expr = line.code[pos + 4..].trim_start();
                expr = expr.strip_prefix("&mut ").unwrap_or(expr);
                expr = expr.strip_prefix('&').unwrap_or(expr);
                let token: &str = expr
                    .split(|c: char| c.is_whitespace() || c == '{')
                    .next()
                    .unwrap_or("");
                if !token.is_empty() && !token.contains('(') && !token.contains('[') {
                    let last = token.rsplit('.').next().unwrap_or(token);
                    if last.chars().all(is_ident_char) && !last.is_empty() {
                        receivers.push(last.to_string());
                    }
                }
            }
        }
        for name in receivers {
            if !flaggable(&name) {
                continue;
            }
            if annotated(lines, line.number, HASH_ITER) {
                continue;
            }
            if sort_feeds_fold(lines, line.number) {
                continue;
            }
            findings.push(Finding::new(
                path,
                line.number,
                HASH_ITER,
                format!(
                    "iteration over HashMap/HashSet `{name}` — order is \
                     hasher-dependent and can leak into digests or the wire; \
                     collect + sort before folding, or annotate `// simlint: \
                     sorted-fold — <why>`"
                ),
            ));
        }
    }
    findings
}

/// The `digest_output` pattern: the iteration is collected into a `let`
/// binding that is sorted within the next few lines —
/// `let mut keys: Vec<_> = map.keys().copied().collect(); keys.sort();`.
fn sort_feeds_fold(lines: &[Line], number: usize) -> bool {
    let idx = number - 1;
    // Walk back to the start of the statement (bounded).
    let mut start = idx;
    while start > 0 && idx - start < 4 {
        let prev = lines[start - 1].code.trim_end();
        if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') || prev.is_empty() {
            break;
        }
        start -= 1;
    }
    // Walk forward to the `;` that ends it (bounded).
    let mut end = idx;
    while end < lines.len() - 1 && end - idx < 4 && !lines[end].code.contains(';') {
        end += 1;
    }
    let statement: String = lines[start..=end]
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    if !statement.contains(".collect()") {
        return false;
    }
    let Some(let_at) = statement.find("let ") else {
        return false;
    };
    let rest = statement[let_at + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return false;
    }
    let sort_call = format!("{name}.sort");
    lines[end + 1..lines.len().min(end + 7)]
        .iter()
        .any(|l| l.code.contains(&sort_call))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar() {
        let a = parse_annotation("simlint: sorted-fold — commutative u64 sum").unwrap();
        assert_eq!(a.rule, HASH_ITER);
        assert_eq!(a.justification, "commutative u64 sum");
        let b = parse_annotation("simlint: allow(wall-clock) progress logging only").unwrap();
        assert_eq!(b.rule, WALL_CLOCK);
        assert!(!b.justification.is_empty());
        assert!(parse_annotation("simlint: sorted-fold")
            .unwrap()
            .justification
            .is_empty());
        assert!(parse_annotation("not a directive").is_none());
    }

    #[test]
    fn declared_names_resolve_outermost_types() {
        let names = declared_names("    routes: Vec<HashMap<NodeId, Vec<PortId>>>,");
        assert!(names.contains(&("routes".to_string(), false)));
        let names = declared_names("let mut index: HashMap<String, usize> = HashMap::new();");
        assert!(names.contains(&("index".to_string(), true)));
        let names = declared_names("let mut res_index = std::collections::HashMap::new();");
        assert!(names.contains(&("res_index".to_string(), true)));
    }
}
