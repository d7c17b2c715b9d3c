//! Backend-boundary integration tests: `BackendSpec` wire behaviour, the
//! typed errors for fluid-incompatible features, the fluid backend's pinned
//! digests, and the corpus topology sweep.
//!
//! The pinned fluid digests below follow the same platform contract as
//! `golden_digests.rs`: recorded on x86_64 Linux (the CI platform); if
//! another platform ever disagrees, record its digest in a `cfg`-gated
//! table rather than weakening the test.

use hpcc_core::presets::{corpus_sweep, CORPUS_FILES, SCHEME_SET_FLUID};
use hpcc_core::{
    BackendSpec, Campaign, CcSpec, CdfSpec, FaultSpec, QueueingSpec, ScenarioSpec, TopologyChoice,
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
    .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, 0.3))
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

/// Output digests of the four fluid-modelled schemes on a 2×2 leaf-spine
/// under FB_Hadoop at 30 % load for 1 ms, seed 42 (x86_64 Linux).
const FLUID_DIGESTS: [u64; 4] = [
    1867730118847427082,
    10419042902486125046,
    2820099017571122218,
    10957450903369966052,
];

#[test]
fn fluid_campaign_digests_are_pinned() {
    let leaf_spine = TopologyChoice::LeafSpine {
        leaves: 2,
        spines: 2,
        hosts_per_leaf: 4,
        host_bw: Bandwidth::from_gbps(25),
        fabric_bw: Bandwidth::from_gbps(100),
        link_delay: Duration::from_us(1),
    };
    let campaign = Campaign::from_scenarios(
        SCHEME_SET_FLUID
            .map(|label| {
                ScenarioSpec::new(
                    label,
                    leaf_spine.clone(),
                    CcSpec::by_label(label),
                    Duration::from_ms(1),
                )
                .with_seed(42)
                .with_queue_sampling(Duration::from_us(5))
                .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, 0.3))
                .with_backend(BackendSpec::Fluid)
            })
            .to_vec(),
    );
    let report = campaign.run();
    assert!(report.results.iter().all(|r| r.flows_completed > 0));
    assert_eq!(report.digests(), FLUID_DIGESTS, "fluid output drifted");
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
