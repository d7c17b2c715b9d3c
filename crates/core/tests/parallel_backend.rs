//! Parallel-engine integration tests at the spec layer: the digest-identity
//! sweep (every committed preset scenario and one 54-host fabric, threads
//! 1–4, bit-identical to the sequential packet engine), the typed
//! `BuildError` for a zero-thread backend, and the wire round-trip of the
//! `{"parallel_packet": ...}` form.
//!
//! The identity sweep is the spec-level counterpart of the engine-level
//! tests in `hpcc_sim::parallel`: it goes through `ScenarioSpec::try_build`
//! and the `Backend` boundary exactly as a manifest would, so it also pins
//! the `BackendSpec -> ParallelPacketBackend` plumbing.

use hpcc_core::campaign::digest_output;
use hpcc_core::presets::{fattree_fb_hadoop, fault_smoke, fig11_campaign, priority_mix};
use hpcc_core::{BackendSpec, CcSpec, ScenarioSpec, TopologyChoice, WorkloadSpec};
use hpcc_sim::FlowControlMode;
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};

/// Every committed preset scenario family, at a short horizon so the sweep
/// stays a fast test: the Figure 11 scheme set (six CC schemes with incast),
/// the fault smoke (link flap + straggler), and the priority mix (legacy,
/// strict-priority and DWRR queueing). The presets all share the 16-host
/// fabric, so the sweep ends with HPCC under load 0.5 + incast on a 54-host
/// one (3 pods × 3 ToR × 6 hosts), its only other fabric size.
fn preset_specs() -> Vec<ScenarioSpec> {
    let params = FatTreeParams::small();
    let end = Duration::from_ms(1);
    let mut specs = Vec::new();
    specs.extend(
        fig11_campaign(params, 0.3, end, true, 42)
            .scenarios()
            .to_vec(),
    );
    specs.extend(fault_smoke(params, 0.3, end, 42).scenarios().to_vec());
    specs.extend(
        priority_mix(CcSpec::by_label("HPCC"), params, 0.3, end, 100_000, 3, 42)
            .scenarios()
            .to_vec(),
    );
    specs.push(fattree_fb_hadoop(
        "fat-tree-medium",
        CcSpec::by_label("HPCC"),
        FatTreeParams {
            pods: 3,
            tors_per_pod: 3,
            aggs_per_pod: 3,
            cores: 6,
            hosts_per_tor: 6,
            ..params
        },
        0.5,
        end,
        true,
        FlowControlMode::Lossless,
        42,
    ));
    specs
}

#[test]
fn parallel_backend_is_bit_identical_to_packet_on_every_preset() {
    for spec in preset_specs() {
        let sequential = spec.try_build().expect(&spec.name).run();
        let reference = digest_output(&sequential.out);
        for threads in 1u32..=4 {
            let parallel = spec
                .clone()
                .with_backend(BackendSpec::ParallelPacket { threads })
                .try_build()
                .unwrap_or_else(|e| panic!("{} @ {threads} threads: {e}", spec.name))
                .run();
            assert_eq!(
                digest_output(&parallel.out),
                reference,
                "{} @ {threads} threads diverged from the sequential engine",
                spec.name
            );
        }
    }
}

#[test]
fn zero_threads_is_a_typed_build_error() {
    let spec = ScenarioSpec::new(
        "zero-threads",
        TopologyChoice::star(4, Bandwidth::from_gbps(25)),
        CcSpec::by_label("HPCC"),
        Duration::from_ms(1),
    )
    .with_workload(WorkloadSpec::poisson(hpcc_core::CdfSpec::WebSearch, 0.3))
    .with_backend(BackendSpec::ParallelPacket { threads: 0 });
    let err = match spec.try_build() {
        Err(e) => e,
        Ok(_) => panic!("threads: 0 must fail"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("parallel_packet"), "{msg}");
    assert!(msg.contains("\"threads\": 0"), "{msg}");
    // One thread is valid (it collapses to the sequential engine).
    assert!(spec
        .with_backend(BackendSpec::ParallelPacket { threads: 1 })
        .try_build()
        .is_ok());
}

fn base_spec() -> ScenarioSpec {
    ScenarioSpec::new(
        "parallel-wire",
        TopologyChoice::star(4, Bandwidth::from_gbps(25)),
        CcSpec::by_label("HPCC"),
        Duration::from_ms(1),
    )
    .with_seed(7)
    .with_workload(WorkloadSpec::poisson(hpcc_core::CdfSpec::WebSearch, 0.3))
}

#[test]
fn parallel_backend_round_trips_through_the_wire_object_form() {
    let spec = base_spec().with_backend(BackendSpec::ParallelPacket { threads: 4 });
    let text = spec.to_json_string();
    assert!(
        text.contains("\"backend\":{\"parallel_packet\":{\"threads\":4}}"),
        "{text}"
    );
    let parsed = ScenarioSpec::from_json_str(&text).expect("parallel JSON parses");
    assert_eq!(parsed.backend, BackendSpec::ParallelPacket { threads: 4 });
    assert_eq!(parsed, spec);
}

#[test]
fn bare_parallel_packet_label_points_at_the_object_form() {
    let text = base_spec().to_json_string().replace(
        "\"name\":\"parallel-wire\"",
        "\"name\":\"x\",\"backend\":\"parallel_packet\"",
    );
    let err = ScenarioSpec::from_json_str(&text).expect_err("bare label must fail");
    let msg = format!("{err}");
    assert!(msg.contains("thread count"), "{msg}");
    assert!(
        msg.contains("{\"parallel_packet\": {\"threads\": N}}"),
        "{msg}"
    );
}

#[test]
fn conflicting_backend_object_keys_are_rejected() {
    let text = base_spec().to_json_string().replace(
        "\"name\":\"parallel-wire\"",
        "\"name\":\"x\",\"backend\":{\"parallel_packet\":{\"threads\":2},\"fluid\":{}}",
    );
    let err = ScenarioSpec::from_json_str(&text).expect_err("conflicting keys must fail");
    assert!(
        format!("{err}").contains("conflicting backend key"),
        "{err}"
    );
}
