//! Backend-boundary integration tests: `BackendSpec` wire behaviour, the
//! typed errors for fluid-incompatible features, the cross-validation
//! divergence bounds, and the corpus topology sweep.
//!
//! The pinned validation digest below follows the same platform contract as
//! `golden_digests.rs`: recorded on x86_64 Linux (the CI platform); if
//! another platform ever disagrees, record its digest in a `cfg`-gated
//! table rather than weakening the test.

use hpcc_core::presets::{corpus_sweep, validation_grid, CORPUS_FILES};
use hpcc_core::{
    BackendSpec, CcSpec, FaultSpec, QueueingSpec, ScenarioSpec, TopologyChoice, ValidationReport,
    WorkloadSpec,
};
use hpcc_sim::StragglerHost;
use hpcc_types::{Bandwidth, Duration};

fn base_spec() -> ScenarioSpec {
    ScenarioSpec::new(
        "backend-test",
        TopologyChoice::star(4, Bandwidth::from_gbps(25)),
        CcSpec::by_label("HPCC"),
        Duration::from_ms(1),
    )
    .with_seed(7)
    .with_workload(WorkloadSpec::poisson(hpcc_core::CdfSpec::WebSearch, 0.3))
}

#[test]
fn backend_key_round_trips_and_stays_canonical_when_omitted() {
    // Packet is the default: the canonical JSON must not mention the key at
    // all, and parsing JSON without the key must yield Packet.
    let packet = base_spec();
    let text = packet.to_json_string();
    assert!(
        !text.contains("\"backend\":"),
        "default backend must be wire-invisible: {text}"
    );
    let parsed = ScenarioSpec::from_json_str(&text).expect("canonical JSON parses");
    assert_eq!(parsed.backend, BackendSpec::Packet);
    assert_eq!(parsed, packet);

    // Fluid round-trips through the wire key.
    let fluid = base_spec().with_backend(BackendSpec::Fluid);
    let text = fluid.to_json_string();
    assert!(text.contains("\"backend\":\"fluid\""), "{text}");
    let parsed = ScenarioSpec::from_json_str(&text).expect("fluid JSON parses");
    assert_eq!(parsed.backend, BackendSpec::Fluid);
    assert_eq!(parsed, fluid);
}

#[test]
fn unknown_backend_labels_are_rejected() {
    const REMOVED: &str = "was removed; use \"packet\"";
    for (value, expect) in [
        ("\"quantum\"", "quantum"),
        // A backend is a bare label; no object form exists.
        ("{\"fluid\":{}}", "expected a backend label"),
        // The removed parallel engine, as old manifests selected it and as a
        // bare label, names the removal and the replacement.
        ("{\"parallel_packet\":{\"threads\":2}}", REMOVED),
        ("\"parallel_packet\"", REMOVED),
    ] {
        let text = base_spec().to_json_string().replace(
            "\"name\":\"backend-test\"",
            &format!("\"name\":\"x\",\"backend\":{value}"),
        );
        let err = ScenarioSpec::from_json_str(&text).expect_err("unknown backend must fail");
        assert!(format!("{err}").contains(expect), "{value}: {err}");
    }
    // Programmatic use of the inert variant stops at try_build, same message.
    let inert = base_spec().with_backend(BackendSpec::ParallelPacket);
    let err = inert
        .try_build()
        .err()
        .expect("the inert variant must not build");
    assert!(format!("{err}").contains(REMOVED), "{err}");
}

#[test]
fn fluid_backend_rejects_faults_with_a_typed_error() {
    let spec =
        base_spec()
            .with_backend(BackendSpec::Fluid)
            .with_faults(FaultSpec::new().with_straggler(StragglerHost {
                host: 0,
                from: Duration::from_us(10),
                until: Duration::from_us(50),
                rate_factor: 0.5,
            }));
    let err = match spec.try_build() {
        Err(e) => e,
        Ok(_) => panic!("fluid + faults must fail"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("fault injection"), "{msg}");
    assert!(msg.contains("\"backend\": \"packet\""), "{msg}");
    // The same spec on the packet backend builds fine.
    assert!(spec.with_backend(BackendSpec::Packet).try_build().is_ok());
}

#[test]
fn fluid_backend_rejects_multiclass_queueing_with_a_typed_error() {
    let spec = base_spec()
        .with_backend(BackendSpec::Fluid)
        .with_queueing(QueueingSpec::strict_priority(4));
    let err = match spec.try_build() {
        Err(e) => e,
        Ok(_) => panic!("fluid + PIAS/SP must fail"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("queueing"), "{msg}");
    assert!(msg.contains("\"backend\": \"packet\""), "{msg}");
    assert!(spec.with_backend(BackendSpec::Packet).try_build().is_ok());
}

/// FNV-1a digest of the canonical cross-validation report on the 1 ms
/// validation grid, seed 42 (x86_64 Linux).
const VALIDATION_DIGEST: u64 = 13218648086296776333;

#[test]
fn validation_grid_divergence_is_bounded_and_digest_pinned() {
    let specs = validation_grid(Duration::from_ms(1), 42);
    assert_eq!(specs.len(), 8, "2 topologies x 4 fluid-supported schemes");
    let report = ValidationReport::run(&specs).expect("grid builds on both backends");
    assert_eq!(report.rows.len(), specs.len());
    for row in &report.rows {
        assert!(
            row.packet_completed > 0 && row.fluid_completed > 0,
            "{}: both backends must finish flows",
            row.name
        );
        assert_ne!(
            row.packet_digest, row.fluid_digest,
            "{}: the fluid output is a model, not a replay",
            row.name
        );
    }
    let slow = report.max_slowdown_divergence();
    let util = report.max_utilization_divergence();
    assert!(slow.is_finite() && slow < 0.5, "slowdown divergence {slow}");
    assert!(util < 0.1, "utilization divergence {util}");
    // Determinism: a second run reproduces the canonical report bit for bit.
    let again = ValidationReport::run(&specs).expect("grid builds again");
    assert_eq!(report.to_json_string(), again.to_json_string());
    assert_eq!(
        report.digest(),
        VALIDATION_DIGEST,
        "canonical report drifted"
    );
}

/// Corpus paths are committed repo-relative; tests run from `crates/core`.
fn corpus_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn corpus_sweep_builds_and_runs_on_every_committed_topology() {
    let paths: Vec<String> = CORPUS_FILES.iter().map(|p| corpus_path(p)).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let campaign = corpus_sweep(
        &refs,
        CcSpec::by_label("HPCC"),
        Bandwidth::from_gbps(25),
        0.3,
        Duration::from_us(200),
        42,
    );
    assert_eq!(campaign.len(), CORPUS_FILES.len());
    for spec in campaign.scenarios() {
        let exp = spec
            .try_build()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(exp.topology().hosts().len() >= 9, "{}", spec.name);
        // The same corpus file also drives the fluid backend.
        let fluid = spec
            .clone()
            .with_backend(BackendSpec::Fluid)
            .try_build()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let out = fluid.run();
        assert!(
            out.out.flows.is_empty() || out.out.flows.iter().all(|f| f.finish > f.start),
            "{}",
            spec.name
        );
    }
}

#[test]
fn corpus_topology_choice_round_trips_through_json() {
    let spec = ScenarioSpec::new(
        "corpus-wire",
        TopologyChoice::Corpus {
            path: "corpus/abilene.edges".into(),
            host_bw: Bandwidth::from_gbps(25),
        },
        CcSpec::by_label("DCQCN"),
        Duration::from_ms(1),
    );
    let text = spec.to_json_string();
    assert!(text.contains("abilene"), "{text}");
    let parsed = ScenarioSpec::from_json_str(&text).expect("corpus JSON parses");
    assert_eq!(parsed, spec);
}
