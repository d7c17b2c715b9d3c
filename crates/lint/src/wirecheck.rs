//! Wire-contract drift checker.
//!
//! `docs/WIRE.md` is the normative specification of the campaign manifest,
//! the JSONL shard wire format and the fabric messages; the codec tables in
//! `crates/core/src/scenario.rs` and `wire.rs` (see `hpcc_core::codec`) are
//! their only implementation. This analyzer cross-checks the member names
//! of both sides **bidirectionally**, so a table row the doc never mentions
//! — or a documented member no table has — fails the build instead of
//! drifting silently.
//!
//! * From the **tables**, the names are the key list the codec exports
//!   ([`table_keys`]): every row of every type a fabric message can carry,
//!   which is all of them (`manifest` carries a campaign, `result` a result
//!   line).
//! * From the **doc**, keys are `"key":` members inside fenced ```json
//!   blocks, `"key":` members inside inline code spans that contain an
//!   object brace, and backticked identifiers in the *first cell* of
//!   markdown table rows. Prose mentions (like the hypothetical `"v"`
//!   version member) are deliberately not key positions.

use crate::scanner::is_ident_char;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Rule id for wire-contract drift findings.
pub const WIRE_DRIFT: &str = "wire-drift";

/// Every member name the codec tables can put on the wire.
pub fn table_keys() -> BTreeSet<&'static str> {
    hpcc_core::codec::keys_of::<hpcc_core::wire::FabricMsg>()
}

/// Extract `key → first line` from the markdown specification.
pub fn keys_from_doc(doc: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    let mut in_json_block = false;
    for (i, raw) in doc.lines().enumerate() {
        let number = i + 1;
        let trimmed = raw.trim();
        if trimmed.starts_with("```") {
            in_json_block = !in_json_block && trimmed.starts_with("```json");
            continue;
        }
        if in_json_block {
            collect_colon_keys(raw, number, &mut keys);
            continue;
        }
        // Inline code spans containing an object brace.
        for span in inline_spans(raw) {
            if span.contains('{') {
                collect_colon_keys(span, number, &mut keys);
            }
        }
        // First cell of table rows: `| `key` | … |` (separator rows have no
        // backticks and header cells no backticked identifiers).
        if let Some(rest) = trimmed.strip_prefix('|') {
            if let Some(cell) = rest.split('|').next() {
                for span in inline_spans(cell) {
                    let ident = span.trim().trim_matches('`');
                    if !ident.is_empty()
                        && ident
                            .chars()
                            .all(|c| is_ident_char(c) && !c.is_ascii_uppercase())
                    {
                        keys.entry(ident.to_string()).or_insert(number);
                    }
                }
            }
        }
    }
    keys
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

/// Collect `"ident":` members of `text` into `keys`.
fn collect_colon_keys(text: &str, number: usize, keys: &mut BTreeMap<String, usize>) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' {
            continue;
        }
        let Some(end) = text[i + 1..].find('"').map(|e| i + 1 + e) else {
            continue;
        };
        let lit = &text[i + 1..end];
        if lit.is_empty()
            || !lit
                .chars()
                .all(|c| is_ident_char(c) && !c.is_ascii_uppercase())
        {
            continue;
        }
        if text[end + 1..].trim_start().starts_with(':') {
            keys.entry(lit.to_string()).or_insert(number);
        }
    }
}

/// Cross-check the codec tables' member names (`tables`, normally
/// [`table_keys`]) against the specification; `doc_path` labels the findings.
pub fn check_wire_contract(tables: &BTreeSet<&str>, doc_path: &str, doc: &str) -> Vec<Finding> {
    let documented = keys_from_doc(doc);
    let mut findings = Vec::new();
    for key in tables {
        if !documented.contains_key(*key) {
            findings.push(Finding::new(
                doc_path,
                1,
                WIRE_DRIFT,
                format!("wire key \"{key}\" is a codec table row but is not documented here"),
            ));
        }
    }
    for (key, line) in &documented {
        if !tables.contains(key.as_str()) {
            findings.push(Finding::new(
                doc_path,
                *line,
                WIRE_DRIFT,
                format!("documented wire key \"{key}\" is not a row of any codec table"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_keys_from_blocks_spans_and_tables() {
        let doc = "\n\
            ```json\n{\"index\": 3, \"result\": {}}\n```\n\
            A *percentiles* object is `{\"count\": <unsigned>, \"p50\": <number>}`.\n\
            | key | type |\n|---|---|\n| `name` | string |\n\
            | `queue_p50` / `queue_p95` | unsigned |\n\
            Future: add a `\"v\"` member. The label `\"fluid\"` is a value.\n";
        let keys = keys_from_doc(doc);
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
        let findings = check_wire_contract(&["a", "b"].into(), "WIRE.md", doc);
        let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert_eq!(findings.len(), 2, "{rendered:?}");
        assert!(rendered.iter().any(|f| f.contains("\"b\"")));
        assert!(rendered
            .iter()
            .any(|f| f.contains("WIRE.md:2") && f.contains("\"c\"")));
    }
}
