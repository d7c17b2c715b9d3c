//! The four workloads: each is a campaign manifest generated from `--seed`
//! with the public `ScenarioSpec` builders. The program under test never
//! sees the seed, only the manifest file.
//!
//! Scenario counts and simulated durations are fixed here (and stated in
//! `BENCHMARK.json`); changing one is a change of the benchmark, after
//! which the baseline is measured again.

use hpcc_core::presets::{
    degraded_link_cc_matrix, fattree_fb_hadoop, fattree_linkflap_sweep, fig11_campaign, pfc_storm,
    CORPUS_FILES, SCHEME_SET_FIG11, SCHEME_SET_FLUID,
};
use hpcc_core::{
    BackendSpec, Campaign, CcSpec, CdfSpec, QueueingSpec, ScenarioSpec, TopologyChoice,
    WorkloadSpec,
};
use hpcc_sim::FlowControlMode;
use hpcc_topology::FatTreeParams;
use hpcc_types::rng::derive_seed;
use hpcc_types::{Bandwidth, Duration};
use hpcc_workload::PrioritySpec;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PacketFattree,
    PacketStress,
    SweepSmall,
    FabricLease,
}

/// Full size (what `BENCHMARK.json` states) or ~1/20 of it for the
/// package's own end-to-end tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PacketFattree,
        Workload::PacketStress,
        Workload::SweepSmall,
        Workload::FabricLease,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PacketFattree => "packet_fattree",
            Workload::PacketStress => "packet_stress",
            Workload::SweepSmall => "sweep_small",
            Workload::FabricLease => "fabric_lease",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's manifest for `seed`. `corpus_prefix` is the path from
    /// the process working directory to the repository root (`""` when run
    /// from the root, as `BENCHMARK.json`'s command does).
    pub fn campaign(self, seed: u64, scale: Scale, corpus_prefix: &str) -> Campaign {
        match self {
            Workload::PacketFattree => packet_fattree(seed, scale),
            Workload::PacketStress => packet_stress(seed, scale),
            Workload::SweepSmall => sweep(seed, scale.pick(900, 48), true, corpus_prefix),
            Workload::FabricLease => sweep(seed, scale.pick(450, 24), false, corpus_prefix),
        }
    }
}

impl Scale {
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The 54-host Clos: 3 pods × 3 ToR × 6 hosts, same link rates as
/// `FatTreeParams::small()`. Its per-port and per-flow state no longer fits
/// the cache footprint of the 16-host fabric.
fn clos54() -> FatTreeParams {
    FatTreeParams {
        pods: 3,
        tors_per_pod: 3,
        aggs_per_pod: 3,
        cores: 6,
        hosts_per_tor: 6,
        ..FatTreeParams::small()
    }
}

/// Figure 11: the six schemes on the 16-host Clos under FB_Hadoop load 0.5
/// plus 2 % incast, lossless, sharing one traffic seed as in the paper; plus
/// HPCC and DCQCN on the 54-host Clos.
fn packet_fattree(seed: u64, scale: Scale) -> Campaign {
    let small_end = Duration::from_us(scale.pick(4000, 200));
    let large_end = Duration::from_us(scale.pick(1500, 100));
    let mut campaign = fig11_campaign(
        FatTreeParams::small(),
        0.5,
        small_end,
        true,
        derive_seed(seed, 0),
    );
    for (stream, label) in [(1, "HPCC"), (2, "DCQCN")] {
        campaign.push(fattree_fb_hadoop(
            format!("clos54 {label}"),
            CcSpec::by_label(label),
            clos54(),
            0.5,
            large_end,
            true,
            FlowControlMode::Lossless,
            derive_seed(seed, stream),
        ));
    }
    campaign
}

/// Eight scenarios that each leave the default single-class lossless path.
fn packet_stress(seed: u64, scale: Scale) -> Campaign {
    let end = Duration::from_us(scale.pick(4000, 200));
    let params = FatTreeParams::small();
    let s = |stream: u64| derive_seed(seed, stream);
    let multiclass = |queueing: QueueingSpec, stream: u64| {
        ScenarioSpec::new(
            format!("stress {}", queueing.label()),
            TopologyChoice::FatTree(params),
            CcSpec::by_label("HPCC"),
            end,
        )
        .with_seed(s(stream))
        .with_queue_sampling(Duration::from_us(5))
        .with_workload(WorkloadSpec::poisson_with_prio(
            CdfSpec::FbHadoop,
            0.5,
            PrioritySpec::ShortFlows { threshold: 100_000 },
        ))
        .with_queueing(queueing)
    };
    let mut scenarios = vec![
        pfc_storm(0.3, 12, end, s(0)),
        multiclass(QueueingSpec::strict_priority(4), 1),
        multiclass(QueueingSpec::dwrr(vec![8, 4, 2, 1]), 2),
        multiclass(QueueingSpec::pias(vec![100_000, 1_000_000]), 3),
    ];
    scenarios.extend_from_slice(
        fattree_linkflap_sweep(CcSpec::by_label("HPCC"), params, 0.5, end, &[3], s(4)).scenarios(),
    );
    scenarios.extend(
        degraded_link_cc_matrix(params, 0.5, end, s(5))
            .scenarios()
            .iter()
            .filter(|spec| matches!(spec.scheme_label().as_str(), "DCQCN" | "TIMELY"))
            .cloned(),
    );
    scenarios.push(
        // DCQCN, not HPCC: HPCC's window keeps a 15-way incast inside a
        // 1 MB buffer, and a lossy fabric that never drops tests nothing.
        fattree_fb_hadoop(
            "stress lossy go-back-N",
            CcSpec::by_label("DCQCN"),
            params,
            0.5,
            end,
            true,
            FlowControlMode::LossyGoBackN,
            s(6),
        )
        .with_buffer_bytes(1_000_000),
    );
    Campaign::from_scenarios(scenarios)
}

/// A parameter sweep of `n` short scenarios with distinct seeds: star
/// (6–10 hosts), dumbbell, 2×2 leaf-spine and, one in ten, a corpus import;
/// the six schemes round-robin; WebSearch or FB_Hadoop at load 0.3. With
/// `fluid`, one in four runs on the fluid backend (with a scheme it
/// supports).
fn sweep(seed: u64, n: usize, fluid: bool, corpus_prefix: &str) -> Campaign {
    let host_bw = Bandwidth::from_gbps(25);
    let fabric_bw = Bandwidth::from_gbps(100);
    let link_delay = Duration::from_us(1);
    let end = Duration::from_us(500);
    Campaign::from_scenarios(
        (0..n)
            .map(|i| {
                let topology = if i % 10 == 9 {
                    TopologyChoice::Corpus {
                        path: format!("{corpus_prefix}{}", CORPUS_FILES[(i / 10) % 4]),
                        host_bw,
                    }
                } else {
                    match i % 3 {
                        0 => TopologyChoice::star(6 + i % 5, host_bw),
                        1 => TopologyChoice::Dumbbell {
                            left: 4,
                            right: 4,
                            host_bw,
                            core_bw: fabric_bw,
                            link_delay,
                        },
                        _ => TopologyChoice::LeafSpine {
                            leaves: 2,
                            spines: 2,
                            hosts_per_leaf: 4,
                            host_bw,
                            fabric_bw,
                            link_delay,
                        },
                    }
                };
                let on_fluid = fluid && i % 4 == 3;
                let label = if on_fluid {
                    SCHEME_SET_FLUID[i % SCHEME_SET_FLUID.len()]
                } else {
                    SCHEME_SET_FIG11[i % SCHEME_SET_FIG11.len()]
                };
                let cdf = if i % 2 == 0 {
                    CdfSpec::WebSearch
                } else {
                    CdfSpec::FbHadoop
                };
                let spec =
                    ScenarioSpec::new(format!("sweep {i}"), topology, CcSpec::by_label(label), end)
                        .with_seed(derive_seed(seed, i as u64))
                        .with_queue_sampling(Duration::from_us(5))
                        .with_workload(WorkloadSpec::poisson(cdf, 0.3));
                if on_fluid {
                    spec.with_backend(BackendSpec::Fluid)
                } else {
                    spec
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests run from the package directory, one level below `corpus/`.
    const ROOT: &str = "../";

    #[test]
    fn a_seed_fixes_the_manifest_and_another_seed_changes_it() {
        for workload in Workload::ALL {
            for scale in [Scale::Full, Scale::Quick] {
                let manifest = |seed| workload.campaign(seed, scale, ROOT).to_json_string();
                assert_eq!(manifest(42), manifest(42), "{}", workload.name());
                assert_ne!(manifest(42), manifest(43), "{}", workload.name());
            }
        }
    }

    #[test]
    fn every_generated_spec_builds_and_sizes_are_the_stated_ones() {
        for (workload, full, quick) in [
            (Workload::PacketFattree, 8, 8),
            (Workload::PacketStress, 8, 8),
            (Workload::SweepSmall, 900, 48),
            (Workload::FabricLease, 450, 24),
        ] {
            for (scale, len) in [(Scale::Full, full), (Scale::Quick, quick)] {
                let campaign = workload.campaign(7, scale, ROOT);
                assert_eq!(campaign.len(), len, "{}", workload.name());
                for spec in campaign.scenarios() {
                    let built = spec.try_build();
                    assert!(built.is_ok(), "{}: {:?}", spec.name, built.err());
                }
            }
        }
        // The fabric serves packet-backend scenarios only; the batch sweep
        // runs one in four on the fluid backend.
        let backends = |w: Workload| {
            let campaign = w.campaign(7, Scale::Full, ROOT);
            let fluid = campaign
                .scenarios()
                .iter()
                .filter(|s| s.backend == BackendSpec::Fluid)
                .count();
            (fluid, campaign.len())
        };
        assert_eq!(backends(Workload::SweepSmall), (225, 900));
        assert_eq!(backends(Workload::FabricLease), (0, 450));
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("all"), None);
    }
}
