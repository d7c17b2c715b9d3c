//! End-to-end tests of the fault-injection subsystem.
//!
//! Four guarantees are pinned here:
//!
//! 1. **The fault-free path is frozen.** With `"faults"` omitted — or an
//!    empty `FaultSpec` attached — presets reproduce the digests recorded
//!    before the subsystem landed (`queueing.rs` and `golden_digests.rs`
//!    pin the full tables; representative entries are re-checked here
//!    against the fault plumbing specifically).
//! 2. **Faulted runs are deterministic** — bit-identical on a re-run, seed-
//!    sensitive, and digest-pinned for the `degraded_link_cc_matrix` preset,
//!    where the six CC schemes separate under one identical fault timeline,
//!    and for every fault kind on a host NIC link (`GOLDEN_HOST_LINK`).
//! 3. **Distribution is transparent.** A faulted campaign merges
//!    bit-identically to `run_serial()` across shards, fault summaries
//!    included.
//! 4. **Malformed `FaultSpec`s are typed errors**, never panics.

use hpcc_core::campaign::digest_output;
use hpcc_core::presets::{
    degraded_link_cc_matrix, fattree_fb_hadoop, fattree_linkflap_sweep, first_fabric_link,
    SCHEME_SET_FIG11,
};
use hpcc_core::scenario::{FlowDecl, TopologyChoice, WorkloadSpec};
use hpcc_core::{Campaign, CampaignReport, CcSpec, FaultSpec, ScenarioSpec, ShardPlan};
use hpcc_sim::{DegradedLink, FlowControlMode, LinkDownMode, LinkFault, StragglerHost};
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};

/// The CI fault smoke: a link flap and a straggler host on the small Clos.
const FAULT_SMOKE: &str = include_str!("../../../manifests/fault_smoke.json");

/// The `fattree HPCC` golden preset from `queueing.rs`: the digest recorded
/// before the fault subsystem landed.
fn fattree_reference() -> (ScenarioSpec, u64) {
    (
        fattree_fb_hadoop(
            "fattree HPCC",
            CcSpec::by_label("HPCC"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(2),
            true,
            FlowControlMode::LossyIrn,
            9,
        ),
        9151915604825334824,
    )
}

/// A small faulted scenario used by the determinism tests: one pause-mode
/// flap on the first fabric uplink of the small Clos.
fn flapped(seed: u64) -> ScenarioSpec {
    fattree_linkflap_sweep(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.3,
        Duration::from_ms(2),
        &[1],
        seed,
    )
    .scenarios()[0]
        .clone()
}

#[test]
fn no_fault_path_reproduces_recorded_digests() {
    let (spec, golden) = fattree_reference();
    assert!(spec.faults.is_none());
    let omitted = digest_output(&spec.run().out);
    assert_eq!(
        omitted, golden,
        "with faults omitted the pre-fault-subsystem digest must reproduce"
    );
    // An *empty* FaultSpec allocates no timeline and changes nothing either.
    let empty = spec.with_faults(FaultSpec::new());
    assert_eq!(
        digest_output(&empty.run().out),
        golden,
        "an empty FaultSpec must be indistinguishable from omission"
    );
}

#[test]
fn faulted_runs_are_deterministic_and_seed_sensitive() {
    let (baseline, golden) = fattree_reference();
    let spec = flapped(9);
    let once = spec.run();
    let again = spec.run();
    assert_eq!(
        digest_output(&once.out),
        digest_output(&again.out),
        "a faulted run must be bit-identical on a re-run"
    );
    assert!(once.out.fault_events > 0, "the flap must actually fire");
    // The fault changed the run relative to the fault-free baseline...
    let _ = baseline;
    assert_ne!(digest_output(&once.out), golden);
    // ...and the workload seed still matters under the identical timeline.
    assert_ne!(
        digest_output(&flapped(9).run().out),
        digest_output(&flapped(10).run().out)
    );
}

#[test]
fn linkflap_sweep_scales_fault_events_with_flap_count() {
    let sweep = fattree_linkflap_sweep(
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.3,
        Duration::from_ms(2),
        &[0, 3],
        42,
    );
    let report = sweep.run_serial();
    let one = report.results[0].faults.as_ref().expect("fault summary");
    let four = report.results[1].faults.as_ref().expect("fault summary");
    // flaps = n means n + 1 down/up cycles = 2(n + 1) transitions.
    assert_eq!(one.events, 2);
    assert_eq!(four.events, 8);
    assert!(four.link_downtime_ps > one.link_downtime_ps);
    assert!(one.utilization_while_up > 0.0);
    // Pause mode holds frames rather than dropping them.
    assert_eq!(one.dropped_packets, 0);
    assert_ne!(
        report.results[0].digest, report.results[1].digest,
        "more flaps must change the run"
    );
}

/// Digest-pinned separation of the six CC schemes under one identical fault
/// timeline (recorded on x86_64 Linux like the other golden tables): the
/// `degraded_link_cc_matrix` preset at laptop scale.
const GOLDEN_DEGRADED: [(&str, u64); 6] = [
    ("DCQCN", 2164597579519657451),
    ("TIMELY", 16118112946681124860),
    ("DCQCN+win", 5737231325687841710),
    ("TIMELY+win", 16084489658374093646),
    ("DCTCP", 5134240267268709740),
    ("HPCC", 16370428885969334037),
];

#[test]
fn degraded_matrix_separates_all_six_schemes_under_one_timeline() {
    let campaign = degraded_link_cc_matrix(FatTreeParams::small(), 0.3, Duration::from_ms(2), 42);
    let report = campaign.run_serial();
    assert_eq!(report.results.len(), SCHEME_SET_FIG11.len());
    let actual: Vec<(String, u64)> = report
        .results
        .iter()
        .map(|r| (r.name.trim_start_matches("degraded ").to_string(), r.digest))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_DEGRADED
        .iter()
        .map(|(n, d)| (n.to_string(), *d))
        .collect();
    assert_eq!(
        actual, expected,
        "degraded-matrix runs no longer reproduce the recorded digests \
         (actual on the left)"
    );
    // All six digests are pairwise distinct: the schemes measurably separate.
    for i in 0..actual.len() {
        for j in i + 1..actual.len() {
            assert_ne!(
                actual[i].1, actual[j].1,
                "{} and {} did not separate under the fault timeline",
                actual[i].0, actual[j].0
            );
        }
    }
    // Every scenario saw the identical timeline and lost packets to the
    // degraded link's iid loss.
    for r in &report.results {
        let f = r.faults.as_ref().expect("fault summary");
        assert_eq!(f.events, 2, "{}: one DegradeOn + one DegradeOff", r.name);
        assert!(f.dropped_packets > 0, "{}: iid loss never fired", r.name);
        assert!(f.goodput_during_faults > 0, "{}", r.name);
    }
}

/// A fault on a *host* link — every preset faults `first_fabric_link`, switch
/// to switch — on a 5-host star whose hosts 0–3 each send 1 MB to host 4:
/// link 0 is a sender's NIC link (the host serializes data, the switch ACKs),
/// link 4 the receiver's (the host serializes ACKs and CNPs, the switch
/// data).
enum HostLinkFault {
    /// Three outages of 100 µs, 300 µs apart.
    Flap(usize, LinkDownMode),
    /// 0.2–1.2 ms: extra one-way delay, iid loss.
    Degraded(usize, Duration, f64),
    /// Host 0's NIC at a quarter of its line rate, 0.2–1.2 ms.
    Straggler,
}

/// `(what, fault, flow control, frames lost to the fault?, digest under
/// HPCC, under DCQCN)`, recorded on the tree that still modelled the wire
/// once in `Host` and once in `SwitchPort`.
const GOLDEN_HOST_LINK: [(&str, HostLinkFault, FlowControlMode, bool, u64, u64); 9] = {
    use FlowControlMode::{Lossless, LossyGoBackN, LossyIrn};
    use HostLinkFault::{Degraded, Flap, Straggler};
    use LinkDownMode::{Drop, Pause};
    const US2: Duration = Duration::from_us(2);
    [
        (
            "pause flap, sender, GBN",
            Flap(0, Pause),
            LossyGoBackN,
            false,
            1718746646393150164,
            17545060326988465123,
        ),
        (
            "pause flap, receiver, IRN",
            Flap(4, Pause),
            LossyIrn,
            false,
            1446241357095928035,
            10674524174677506415,
        ),
        (
            "drop flap, sender, GBN",
            Flap(0, Drop),
            LossyGoBackN,
            true,
            11376790777461279914,
            9948538946334345739,
        ),
        (
            "drop flap, sender, IRN",
            Flap(0, Drop),
            LossyIrn,
            true,
            15589703041056626237,
            4207925957494655489,
        ),
        (
            "drop flap, receiver, IRN",
            Flap(4, Drop),
            LossyIrn,
            true,
            13983897649107433917,
            10392774100268118491,
        ),
        (
            "loss, sender, IRN",
            Degraded(0, US2, 0.02),
            LossyIrn,
            true,
            16002764191102550091,
            12275055535752762462,
        ),
        (
            "loss, receiver, GBN",
            Degraded(4, Duration::ZERO, 0.02),
            LossyGoBackN,
            true,
            3315876952863332870,
            2060219991037490508,
        ),
        (
            "delay only, sender, PFC",
            Degraded(0, US2, 0.0),
            Lossless,
            false,
            10018860999262698287,
            7762801797051949449,
        ),
        (
            "straggler, PFC",
            Straggler,
            Lossless,
            false,
            12350499540671511679,
            6953253619826683509,
        ),
    ]
};

#[test]
fn host_link_faults_reproduce_the_recorded_digests() {
    let mut actual = Vec::new();
    let mut expected = Vec::new();
    for (what, fault, flow_control, loses, hpcc, dcqcn) in &GOLDEN_HOST_LINK {
        let faults = match *fault {
            HostLinkFault::Flap(link, mode) => FaultSpec::new().with_link_fault(LinkFault {
                link,
                at: Duration::from_us(200),
                down_for: Duration::from_us(100),
                flaps: 2,
                period: Duration::from_us(300),
                mode,
            }),
            HostLinkFault::Degraded(link, extra_delay, loss) => FaultSpec::new()
                .with_degraded_link(DegradedLink {
                    link,
                    from: Duration::from_us(200),
                    until: Duration::from_us(1200),
                    extra_delay,
                    loss,
                }),
            HostLinkFault::Straggler => FaultSpec::new().with_straggler(StragglerHost {
                host: 0,
                from: Duration::from_us(200),
                until: Duration::from_us(1200),
                rate_factor: 0.25,
            }),
        };
        for (scheme, golden) in [("HPCC", hpcc), ("DCQCN", dcqcn)] {
            let name = format!("{what}, {scheme}");
            let flows = (0..4)
                .map(|i| FlowDecl::new(i + 1, i as usize, 4, 1_000_000, Duration::from_us(i)))
                .collect();
            let out = ScenarioSpec::new(
                name.clone(),
                TopologyChoice::star(5, Bandwidth::from_gbps(25)),
                CcSpec::by_label(scheme),
                Duration::from_ms(3),
            )
            .with_workload(WorkloadSpec::Explicit(flows))
            .with_flow_control(*flow_control)
            .with_faults(faults.clone())
            .run()
            .out;
            assert!(out.fault_events > 0, "{name}: the fault never fired");
            assert_eq!(
                out.fault_dropped_packets > 0,
                *loses,
                "{name}: {} frames lost to the fault",
                out.fault_dropped_packets
            );
            actual.push((name.clone(), digest_output(&out)));
            expected.push((name, *golden));
        }
    }
    assert_eq!(
        actual, expected,
        "host-link fault runs no longer reproduce the recorded digests \
         (actual on the left)"
    );
}

/// What wakes a host NIC that has gone idle in a `GOLDEN_HOST_IDLE` row. Every
/// row is a 5-host star at 25 Gb/s in which host 4 only receives.
#[derive(Clone, Copy)]
enum IdleWake {
    /// Host 0 starts a 1-, 2- or 3-packet flow every 20 µs and idles between
    /// them: each start wakes it.
    SpacedFlows,
    /// Hosts 0–3 send 200 KB each to host 4, whose NIC sends only ACKs (and
    /// CNPs under DCQCN): each reply queued wakes it.
    Replies,
    /// Host 0 sends ten 20 KB flows, 30 µs apart, across iid loss 0.05 on
    /// its NIC link: a NACK (go-back-N) or a SACK (IRN) re-activates a flow
    /// whose last byte had gone out.
    Loss(FlowControlMode),
    /// Host 0's NIC link drops every frame for 20 µs over the tail of its
    /// 50 KB flow, under go-back-N: no NACK comes back, and the RTO
    /// re-activates the flow.
    TailDrop,
    /// Hosts 0–3 send 200 KB each to host 4 through a 64 KB switch buffer:
    /// PFC pauses them, and the resume reaches a NIC with nothing on the
    /// wire.
    PfcResume,
    /// `SpacedFlows`, with host 0 straggling at a quarter of its line rate
    /// from 110 µs, while it is idle, to 310 µs.
    Straggler,
}

/// `(what, wake, digest under HPCC, under DCQCN)`, recorded on the engine
/// that pushed a host's `PortReady` with every frame, whether the NIC had
/// anything left to send or not.
const GOLDEN_HOST_IDLE: [(&str, IdleWake, u64, u64); 7] = {
    use FlowControlMode::{LossyGoBackN, LossyIrn};
    use IdleWake::{Loss, PfcResume, Replies, SpacedFlows, Straggler, TailDrop};
    [
        (
            "spaced 1-3 packet flows",
            SpacedFlows,
            13770713050948207129,
            7408395965829780675,
        ),
        (
            "receiver-only replies",
            Replies,
            17545019898262219526,
            10393090846181290264,
        ),
        (
            "loss 0.05, sender, GBN",
            Loss(LossyGoBackN),
            2813512356711343042,
            8314959153485593776,
        ),
        (
            "loss 0.05, sender, IRN",
            Loss(LossyIrn),
            18353917497095927968,
            4154733595375441478,
        ),
        (
            "tail dropped, RTO",
            TailDrop,
            16174349771132682859,
            2355428315181777055,
        ),
        (
            "PFC resume",
            PfcResume,
            5887922135413134677,
            16673329754752526267,
        ),
        (
            "straggler opens idle",
            Straggler,
            8581962417514712834,
            1002743575707891785,
        ),
    ]
};

#[test]
fn idle_host_nics_woken_by_each_kick_reproduce_the_recorded_digests() {
    let spaced = || -> Vec<FlowDecl> {
        (0..20u64)
            .map(|i| FlowDecl::new(i + 1, 0, 4, 1000 * (1 + i % 3), Duration::from_us(20 * i)))
            .collect()
    };
    let incast = || -> Vec<FlowDecl> {
        (0..4u64)
            .map(|i| FlowDecl::new(i + 1, i as usize, 4, 200_000, Duration::from_us(i)))
            .collect()
    };
    let mut actual = Vec::new();
    let mut expected = Vec::new();
    for &(what, wake, hpcc, dcqcn) in &GOLDEN_HOST_IDLE {
        let mut flow_control = FlowControlMode::Lossless;
        let mut faults = None;
        let mut buffer = None;
        let flows = match wake {
            IdleWake::SpacedFlows => spaced(),
            IdleWake::Replies => incast(),
            IdleWake::Loss(mode) => {
                flow_control = mode;
                faults = Some(FaultSpec::new().with_degraded_link(DegradedLink {
                    link: 0,
                    from: Duration::ZERO,
                    until: Duration::from_ms(2),
                    extra_delay: Duration::ZERO,
                    loss: 0.05,
                }));
                (0..10u64)
                    .map(|i| FlowDecl::new(i + 1, 0, 4, 20_000, Duration::from_us(30 * i)))
                    .collect()
            }
            IdleWake::TailDrop => {
                flow_control = FlowControlMode::LossyGoBackN;
                faults = Some(FaultSpec::new().with_link_fault(LinkFault {
                    link: 0,
                    at: Duration::from_us(10),
                    down_for: Duration::from_us(20),
                    flaps: 0,
                    period: Duration::ZERO,
                    mode: LinkDownMode::Drop,
                }));
                vec![FlowDecl::new(1, 0, 4, 50_000, Duration::ZERO)]
            }
            IdleWake::PfcResume => {
                buffer = Some(64_000);
                incast()
            }
            IdleWake::Straggler => {
                faults = Some(FaultSpec::new().with_straggler(StragglerHost {
                    host: 0,
                    from: Duration::from_us(110),
                    until: Duration::from_us(310),
                    rate_factor: 0.25,
                }));
                spaced()
            }
        };
        for (scheme, golden) in [("HPCC", hpcc), ("DCQCN", dcqcn)] {
            let name = format!("{what}, {scheme}");
            let mut spec = ScenarioSpec::new(
                name.clone(),
                TopologyChoice::star(5, Bandwidth::from_gbps(25)),
                CcSpec::by_label(scheme),
                Duration::from_ms(2),
            )
            .with_workload(WorkloadSpec::Explicit(flows.clone()))
            .with_flow_control(flow_control);
            if let Some(faults) = &faults {
                spec = spec.with_faults(faults.clone());
            }
            if let Some(bytes) = buffer {
                spec = spec.with_buffer_bytes(bytes);
            }
            let out = spec.run().out;
            // The wake the row is about did happen.
            let happened = match wake {
                IdleWake::SpacedFlows | IdleWake::Replies => out.unfinished_flows == 0,
                IdleWake::Loss(_) => out.fault_dropped_packets > 0 && out.unfinished_flows == 0,
                IdleWake::TailDrop => out.fault_dropped_packets > 0 && out.unfinished_flows == 0,
                IdleWake::PfcResume => !out.pfc_events.is_empty(),
                IdleWake::Straggler => out.fault_events == 2,
            };
            assert!(happened, "{name}: {out:?}");
            actual.push((name.clone(), digest_output(&out)));
            expected.push((name, golden));
        }
    }
    assert_eq!(
        actual, expected,
        "idle host NIC runs no longer reproduce the recorded digests \
         (actual on the left)"
    );
}

#[test]
fn faulted_campaign_merges_bit_identical_across_two_shards() {
    let campaign = Campaign::from_json_str(FAULT_SMOKE).unwrap();
    // The manifest round trip preserves the fault specs.
    let back = Campaign::from_json_str(&campaign.to_json_string()).unwrap();
    assert_eq!(back, campaign);
    let serial = campaign.run_serial();
    let mut streams = Vec::new();
    for shard in 0..2 {
        let mut buf = Vec::new();
        campaign
            .run_shard_streaming(ShardPlan::new(shard, 2), &mut buf)
            .unwrap();
        streams.push(String::from_utf8(buf).unwrap());
    }
    let merged = hpcc_core::wire::merge_shard_streams(
        streams.iter().map(String::as_str),
        Some(campaign.len()),
    )
    .unwrap();
    assert_eq!(merged.digests(), serial.digests());
    assert_eq!(
        merged.to_json_string(),
        serial.to_json_string(),
        "canonical JSON must be bit-identical serial vs 2-shard merge"
    );
    // Fault summaries crossed the wire on both scenarios.
    for r in &merged.results {
        let f = r.faults.as_ref().unwrap_or_else(|| panic!("{}", r.name));
        assert!(f.events > 0, "{}", r.name);
        assert!(f.utilization_while_up > 0.0, "{}", r.name);
    }
    // An outage on a *host uplink* (link 0 of the fat tree is host 0's ToR
    // link) is administrative NIC downtime: it shrinks the
    // `utilization_while_up` denominator, so the while-up figure strictly
    // exceeds the legacy average, which keeps counting the dead time.
    let end = Duration::from_ms(2);
    let spec = fattree_fb_hadoop(
        "host uplink down",
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.2,
        end,
        false,
        FlowControlMode::Lossless,
        7,
    )
    .with_faults(FaultSpec::new().with_link_fault(LinkFault {
        link: 0,
        at: end.mul_f64(0.25),
        down_for: end.mul_f64(0.5),
        flaps: 0,
        period: Duration::ZERO,
        mode: LinkDownMode::Pause,
    }));
    let results = spec.run();
    assert!(results.out.host_nic_downtime > Duration::ZERO);
    let host_bw = spec.topology.host_bw();
    assert!(
        results.utilization_while_up(host_bw) > results.average_utilization(host_bw),
        "downtime must shrink the utilization denominator"
    );
    // The canonical report decodes and re-encodes byte-identically.
    let decoded = CampaignReport::from_json_str(&serial.to_json_string()).unwrap();
    assert_eq!(decoded.to_json_string(), serial.to_json_string());
}

#[test]
fn committed_fault_smoke_manifest_is_canonical_and_runnable() {
    let campaign = Campaign::from_json_str(FAULT_SMOKE).unwrap();
    // The committed manifest is its own canonical serialization.
    assert_eq!(FAULT_SMOKE.trim_end(), campaign.to_json_string());
    // A link flap, then a straggler, and both scenarios build.
    let faults: Vec<&FaultSpec> = campaign
        .scenarios()
        .iter()
        .map(|spec| spec.faults.as_ref().expect("a fault plan"))
        .collect();
    assert!(!faults[0].link_faults.is_empty() && !faults[1].stragglers.is_empty());
    for spec in campaign.scenarios() {
        assert!(spec.try_build().is_ok(), "{}", spec.name);
    }
}

#[test]
fn malformed_fault_specs_return_typed_errors_not_panics() {
    let base = || {
        fattree_fb_hadoop(
            "faulty",
            CcSpec::by_label("HPCC"),
            FatTreeParams::small(),
            0.3,
            Duration::from_ms(1),
            false,
            FlowControlMode::Lossless,
            1,
        )
    };
    let err = |spec: ScenarioSpec| -> String {
        match spec.try_build() {
            Ok(_) => panic!("malformed FaultSpec must not build"),
            Err(e) => e.to_string(),
        }
    };

    // Unknown link id.
    let e = err(
        base().with_faults(FaultSpec::new().with_link_fault(LinkFault {
            link: 10_000,
            at: Duration::from_us(10),
            down_for: Duration::from_us(10),
            flaps: 0,
            period: Duration::ZERO,
            mode: LinkDownMode::Pause,
        })),
    );
    assert!(e.contains("faults:") && e.contains("10000"), "{e}");

    // Zero-length flap.
    let e = err(
        base().with_faults(FaultSpec::new().with_link_fault(LinkFault {
            link: 0,
            at: Duration::from_us(10),
            down_for: Duration::ZERO,
            flaps: 2,
            period: Duration::from_us(50),
            mode: LinkDownMode::Drop,
        })),
    );
    assert!(e.contains("zero-length"), "{e}");

    // Flap period shorter than the outage.
    let e = err(
        base().with_faults(FaultSpec::new().with_link_fault(LinkFault {
            link: 0,
            at: Duration::from_us(10),
            down_for: Duration::from_us(50),
            flaps: 2,
            period: Duration::from_us(20),
            mode: LinkDownMode::Pause,
        })),
    );
    assert!(e.contains("period must exceed"), "{e}");

    // Overlapping outage intervals on one link.
    let e = err(base().with_faults(
        FaultSpec::new()
            .with_link_fault(LinkFault {
                link: 0,
                at: Duration::from_us(10),
                down_for: Duration::from_us(100),
                flaps: 0,
                period: Duration::ZERO,
                mode: LinkDownMode::Pause,
            })
            .with_link_fault(LinkFault {
                link: 0,
                at: Duration::from_us(50),
                down_for: Duration::from_us(100),
                flaps: 0,
                period: Duration::ZERO,
                mode: LinkDownMode::Pause,
            }),
    ));
    assert!(e.contains("overlapping"), "{e}");

    // Loss probability out of range.
    let e = err(
        base().with_faults(FaultSpec::new().with_degraded_link(DegradedLink {
            link: 0,
            from: Duration::from_us(10),
            until: Duration::from_us(100),
            extra_delay: Duration::ZERO,
            loss: 1.5,
        })),
    );
    assert!(e.contains("loss probability"), "{e}");

    // Straggler host out of range / bad rate factor.
    let e = err(
        base().with_faults(FaultSpec::new().with_straggler(StragglerHost {
            host: 10_000,
            from: Duration::from_us(10),
            until: Duration::from_us(100),
            rate_factor: 0.5,
        })),
    );
    assert!(e.contains("out of range"), "{e}");
    let e = err(
        base().with_faults(FaultSpec::new().with_straggler(StragglerHost {
            host: 0,
            from: Duration::from_us(10),
            until: Duration::from_us(100),
            rate_factor: 0.0,
        })),
    );
    assert!(e.contains("rate_factor"), "{e}");
}

#[test]
fn fault_and_cc_specs_round_trip_through_scenario_json() {
    let topo = TopologyChoice::FatTree(FatTreeParams::small()).build();
    let link = first_fabric_link(&topo);
    let spec = ScenarioSpec::new(
        "faulty TIMELY",
        TopologyChoice::FatTree(FatTreeParams::small()),
        CcSpec::Timely {
            window: true,
            t_low: Duration::from_us(40),
            t_high: Duration::from_us(400),
            beta: 0.85,
            hai_threshold: 4,
        },
        Duration::from_ms(1),
    )
    .with_faults(
        FaultSpec::new()
            .with_link_fault(LinkFault {
                link,
                at: Duration::from_us(100),
                down_for: Duration::from_us(50),
                flaps: 2,
                period: Duration::from_us(200),
                mode: LinkDownMode::Drop,
            })
            .with_degraded_link(DegradedLink {
                link,
                from: Duration::from_us(800),
                until: Duration::from_us(900),
                extra_delay: Duration::from_us(2),
                loss: 0.01,
            })
            .with_straggler(StragglerHost {
                host: 3,
                from: Duration::from_us(100),
                until: Duration::from_us(600),
                rate_factor: 0.25,
            }),
    );
    let text = spec.to_json_string();
    assert!(text.contains("\"faults\""));
    let back = ScenarioSpec::from_json_str(&text).unwrap();
    assert_eq!(back, spec);
    assert_eq!(back.scheme_label(), "TIMELY+win");

    // DCTCP parameter sweeps survive the round trip too.
    let dctcp = ScenarioSpec::new(
        "dctcp g",
        TopologyChoice::star(4, hpcc_types::Bandwidth::from_gbps(25)),
        CcSpec::Dctcp { g: 0.25 },
        Duration::from_ms(1),
    );
    let back = ScenarioSpec::from_json_str(&dctcp.to_json_string()).unwrap();
    assert_eq!(back, dctcp);

    // A spec without faults omits the key entirely.
    let plain = fattree_reference().0;
    assert!(!plain.to_json_string().contains("\"faults\""));
}
