//! The committed wire fixtures against the codec tables.
//!
//! `fixtures/every_member.json` (a campaign) and `fixtures/every_member.jsonl`
//! (result lines) were written by the hand-coded encoder the tables
//! replaced; their sources are `every_member()` in `scenario.rs`'s tests and
//! `synthetic()` / `legacy()` in `wire.rs`'s. Decoding and re-encoding must
//! reproduce them byte for byte, and between them they must use every member
//! name the tables export — so a row added without fixture coverage, or a
//! row removed, fails here.

use hpcc_core::codec::keys_of;
use hpcc_core::json::JsonValue;
use hpcc_core::wire::{decode_stream_lines, encode_result_line};
use hpcc_core::{Campaign, ScenarioResult};
use std::collections::BTreeSet;

const MANIFEST: &str = include_str!("fixtures/every_member.json");
const LINES: &str = include_str!("fixtures/every_member.jsonl");

/// Every object member name appearing anywhere in `v`.
fn member_names<'a>(v: &'a JsonValue, out: &mut BTreeSet<&'a str>) {
    match v {
        JsonValue::Object(pairs) => {
            for (key, value) in pairs {
                out.insert(key);
                member_names(value, out);
            }
        }
        JsonValue::Array(items) => items.iter().for_each(|item| member_names(item, out)),
        _ => {}
    }
}

#[test]
fn the_manifest_fixture_is_a_fixed_point_using_every_manifest_member() {
    let campaign = Campaign::from_json_str(MANIFEST).unwrap();
    assert_eq!(campaign.to_json_string() + "\n", MANIFEST);
    let doc = JsonValue::parse(MANIFEST).unwrap();
    let mut used = BTreeSet::new();
    member_names(&doc, &mut used);
    assert_eq!(used, keys_of::<Campaign>());
}

#[test]
fn the_result_line_fixture_is_a_fixed_point_using_every_result_member() {
    let (entries, tail) = decode_stream_lines(LINES, 1).unwrap();
    assert!(tail.is_none());
    let again: String = entries
        .iter()
        .map(|(index, result)| encode_result_line(*index, result) + "\n")
        .collect();
    assert_eq!(again, LINES);
    let mut used = BTreeSet::new();
    let docs: Vec<JsonValue> = LINES
        .lines()
        .map(|line| JsonValue::parse(line).unwrap())
        .collect();
    docs.iter().for_each(|doc| member_names(doc, &mut used));
    // A line is `index` beside a timed result (`wall_ns` + `result`), which
    // is how a boxed result encodes.
    let mut expected = keys_of::<Box<ScenarioResult>>();
    expected.insert("index");
    assert_eq!(used, expected);
    // Both `null` forms are on the wire: an absent percentile summary and an
    // unsampled queue quantile.
    assert!(LINES.contains("\"short_flow_slowdown\":null"));
    assert!(LINES.contains("\"queue_p95\":null"));
}

#[test]
fn a_misspelt_optional_member_is_a_decode_error_not_a_healthy_network() {
    // `"fualts"` on the straggler scenario used to parse, run without its
    // fault plan and report a p99 slowdown of 2.28 instead of 4.10.
    let committed = include_str!("../../../manifests/fault_smoke.json");
    let second = committed.rfind("\"faults\"").unwrap();
    let mut misspelt = committed.to_string();
    misspelt.replace_range(second..second + "\"faults\"".len(), "\"fualts\"");
    let err = Campaign::from_json_str(&misspelt).expect_err("must not parse");
    assert_eq!(err.to_string(), "json error: [1].fualts: unknown member");
}
