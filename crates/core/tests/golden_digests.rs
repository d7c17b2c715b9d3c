//! Golden-digest regression test for the event engine.
//!
//! The digests below were recorded with the original `BinaryHeap` event
//! queue (after the `events_processed` horizon-count fix), running the
//! Figure 11 preset set serially. The indexed event wheel, the reusable
//! Effects arena, the packet pool and the dense flow-slot tables must all
//! reproduce these runs bit for bit: any divergence in event ordering,
//! packet contents or counters changes a digest. `GOLDEN_TIES` adds the
//! runs where the order of simultaneous events decides the outcome.
//!
//! The digests were recorded on x86_64 Linux (the CI platform). Plain
//! IEEE-754 arithmetic is bit-exact everywhere; the one libm call on the
//! digest path (`f64::ln` in the Poisson arrival generator) could in theory
//! differ on another libc. If a platform ever disagrees, record its digests
//! in a `cfg`-gated table rather than weakening the test.

use hpcc_core::campaign::digest_output;
use hpcc_core::presets::{fig11_campaign, pfc_storm};
use hpcc_core::{
    CcSpec, CdfSpec, FaultSpec, FlowDecl, QueueingSpec, ScenarioSpec, TopologyChoice, WorkloadSpec,
};
use hpcc_sim::{FlowControlMode, LinkDownMode, LinkFault};
use hpcc_topology::FatTreeParams;
use hpcc_types::{Bandwidth, Duration};
use hpcc_workload::PrioritySpec;

/// (scheme label, FNV-1a digest of the raw serial SimOutput).
const GOLDEN: [(&str, u64); 6] = [
    ("DCQCN", 9696511560651529738),
    ("TIMELY", 6158160786810326921),
    ("DCQCN+win", 7446130154451631401),
    ("TIMELY+win", 1109170641124816498),
    ("DCTCP", 2347575181251293493),
    ("HPCC", 16016071765438548943),
];

#[test]
fn fig11_serial_digests_match_the_binaryheap_engine() {
    let campaign = fig11_campaign(FatTreeParams::small(), 0.3, Duration::from_ms(3), true, 42);
    let report = campaign.run_serial();
    assert_eq!(report.results.len(), GOLDEN.len());
    let actual: Vec<(String, u64)> = report
        .results
        .iter()
        .map(|r| (r.name.clone(), r.digest))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(
        actual, expected,
        "engine no longer reproduces the BinaryHeap reference runs \
         (actual digests on the left)"
    );
}

/// Scenarios where many events share an instant, with their serial
/// `digest_output` values: what the event queue's tie order decides. A
/// 15-way incast whose senders all start at 0 on a 17-host star and on a
/// 2×2 leaf-spine, at 10 ns links (one MTU serializes for longer than it
/// propagates, so a frame can arrive at the instant a port frees) and at
/// 1 µs, under PFC, go-back-N and IRN, for HPCC and DCQCN; traffic crossing
/// in both directions from 0 on the leaf-spine at 10 ns and on a star at
/// 0 ns, where the key a `PortReady` pushed after its frame started pops
/// under decides the run; the star incast at 1 µs without queue sampling,
/// cut mid-flight, where the last event handled can be a `PortReady` that
/// was never pushed and the end of the run is read from it; then the
/// `pfc_storm` preset and three multi-class scheduler runs. Recorded on
/// x86_64 Linux, like `GOLDEN`.
const GOLDEN_TIES: [(&str, u64); 36] = [
    ("star 10ns PFC HPCC", 6931994868557624934),
    ("star 10ns PFC DCQCN", 2992536370665274048),
    ("star 10ns GBN HPCC", 2656980799061494370),
    ("star 10ns GBN DCQCN", 460008081645079953),
    ("star 10ns IRN HPCC", 7689918938163977111),
    ("star 10ns IRN DCQCN", 269655948455895564),
    ("star 1us PFC HPCC", 11013721296627340153),
    ("star 1us PFC DCQCN", 12491592308857049825),
    ("star 1us GBN HPCC", 12439006228642277556),
    ("star 1us GBN DCQCN", 458973352440229807),
    ("star 1us IRN HPCC", 17375127581000519749),
    ("star 1us IRN DCQCN", 6482688807363696146),
    ("leaf-spine 10ns PFC HPCC", 1094428841632592247),
    ("leaf-spine 10ns PFC DCQCN", 3980299166375437509),
    ("leaf-spine 10ns GBN HPCC", 1916135830899124115),
    ("leaf-spine 10ns GBN DCQCN", 14982632267788955721),
    ("leaf-spine 10ns IRN HPCC", 9485708928821724551),
    ("leaf-spine 10ns IRN DCQCN", 9497445116065359090),
    ("leaf-spine 1us PFC HPCC", 18178735002921271457),
    ("leaf-spine 1us PFC DCQCN", 13842823310739644624),
    ("leaf-spine 1us GBN HPCC", 16512330843527272974),
    ("leaf-spine 1us GBN DCQCN", 10756579502883810807),
    ("leaf-spine 1us IRN HPCC", 17559053149880458309),
    ("leaf-spine 1us IRN DCQCN", 15902106222275700032),
    ("leaf-spine 10ns cross PFC HPCC", 12921622359822140763),
    ("leaf-spine 10ns cross IRN HPCC", 7584571438908717719),
    ("leaf-spine 10ns cross IRN DCQCN", 7117363916013199296),
    ("star 0ns cross PFC HPCC", 4975423991700174357),
    ("star 0ns cross PFC DCQCN", 9095752539561731385),
    ("star 1us cut PFC HPCC", 17893664390413533316),
    ("star 1us cut PFC DCQCN", 17676436325205491736),
    ("star 1us cut GBN HPCC outage", 1161478925044716804),
    ("PFC storm (DCQCN)", 9401693047932992622),
    ("stress SP-4", 17501441567530416890),
    ("stress DWRR-4", 6322385093391734022),
    ("stress PIAS-3", 2907451399599715180),
];

/// The scenarios `GOLDEN_TIES` pins, in its order.
fn tie_scenarios() -> Vec<ScenarioSpec> {
    use FlowControlMode::{Lossless, LossyGoBackN, LossyIrn};
    let bw = Bandwidth::from_gbps(100);
    let end = Duration::from_ms(1);
    let star = |hosts, link_delay| TopologyChoice::Star {
        hosts,
        host_bw: bw,
        link_delay,
    };
    let leaf_spine = |link_delay| TopologyChoice::LeafSpine {
        leaves: 2,
        spines: 2,
        hosts_per_leaf: 8,
        host_bw: bw,
        fabric_bw: bw,
        link_delay,
    };
    let run = |name: String, topology, flows, fc, scheme| {
        ScenarioSpec::new(name, topology, CcSpec::by_label(scheme), end)
            .with_workload(WorkloadSpec::Explicit(flows))
            .with_flow_control(fc)
            .with_buffer_bytes(300_000)
            .with_queue_sampling(Duration::from_us(1))
    };
    // Hosts 0..15 each send 200 KB to the last host, at 0.
    let incast = |hosts: usize| -> Vec<FlowDecl> {
        (0..15)
            .map(|i| FlowDecl::new(i + 1, i as usize, hosts - 1, 200_000, Duration::ZERO))
            .collect()
    };
    let mut scenarios = Vec::new();
    for (name, hosts) in [("star", 17), ("leaf-spine", 16)] {
        for (delay, link_delay) in [
            ("10ns", Duration::from_ns(10)),
            ("1us", Duration::from_us(1)),
        ] {
            for (fc, mode) in [("PFC", Lossless), ("GBN", LossyGoBackN), ("IRN", LossyIrn)] {
                for scheme in ["HPCC", "DCQCN"] {
                    let flows = incast(hosts);
                    let name = format!("{name} {delay} {fc} {scheme}");
                    let topology = match hosts {
                        17 => star(hosts, link_delay),
                        _ => leaf_spine(link_delay),
                    };
                    scenarios.push(run(name, topology, flows, mode, scheme));
                }
            }
        }
    }
    // Each of 16 hosts sends 200 KB to the host 8 along and 100 KB to the
    // next one, at 0.
    let cross: Vec<FlowDecl> = (0..16usize)
        .flat_map(|i| {
            let flow = |k, to: usize, size| {
                FlowDecl::new((2 * i + k) as u64, i, to % 16, size, Duration::ZERO)
            };
            [flow(1, i + 8, 200_000), flow(2, i + 1, 100_000)]
        })
        .collect();
    for (name, topology, fc, mode, scheme) in [
        (
            "leaf-spine 10ns",
            leaf_spine(Duration::from_ns(10)),
            "PFC",
            Lossless,
            "HPCC",
        ),
        (
            "leaf-spine 10ns",
            leaf_spine(Duration::from_ns(10)),
            "IRN",
            LossyIrn,
            "HPCC",
        ),
        (
            "leaf-spine 10ns",
            leaf_spine(Duration::from_ns(10)),
            "IRN",
            LossyIrn,
            "DCQCN",
        ),
        (
            "star 0ns",
            star(16, Duration::ZERO),
            "PFC",
            Lossless,
            "HPCC",
        ),
        (
            "star 0ns",
            star(16, Duration::ZERO),
            "PFC",
            Lossless,
            "DCQCN",
        ),
    ] {
        let name = format!("{name} cross {fc} {scheme}");
        scenarios.push(run(name, topology, cross.clone(), mode, scheme));
    }
    // No queue sampling and a horizon off any round time; the outage takes
    // the receiver's link down in drop mode from 30 µs to past the horizon.
    let outage = FaultSpec::new().with_link_fault(LinkFault {
        link: 16,
        at: Duration::from_us(30),
        down_for: Duration::from_ms(5),
        flaps: 0,
        period: Duration::ZERO,
        mode: LinkDownMode::Drop,
    });
    for (name, mode, scheme, end_ps, faults) in [
        ("PFC HPCC", Lossless, "HPCC", 77_777_777, FaultSpec::new()),
        (
            "PFC DCQCN",
            Lossless,
            "DCQCN",
            123_456_789,
            FaultSpec::new(),
        ),
        ("GBN HPCC outage", LossyGoBackN, "HPCC", 77_777_777, outage),
    ] {
        scenarios.push(
            ScenarioSpec::new(
                format!("star 1us cut {name}"),
                star(17, Duration::from_us(1)),
                CcSpec::by_label(scheme),
                Duration::from_ps(end_ps),
            )
            .with_workload(WorkloadSpec::Explicit(incast(17)))
            .with_flow_control(mode)
            .with_buffer_bytes(300_000)
            .with_faults(faults),
        );
    }
    scenarios.push(pfc_storm(0.3, 12, end, 17));
    for (stream, queueing) in [
        QueueingSpec::strict_priority(4),
        QueueingSpec::dwrr(vec![8, 4, 2, 1]),
        QueueingSpec::pias(vec![100_000, 1_000_000]),
    ]
    .into_iter()
    .enumerate()
    {
        scenarios.push(
            ScenarioSpec::new(
                format!("stress {}", queueing.label()),
                TopologyChoice::FatTree(FatTreeParams::small()),
                CcSpec::by_label("HPCC"),
                end,
            )
            .with_seed(18 + stream as u64)
            .with_queue_sampling(Duration::from_us(5))
            .with_workload(WorkloadSpec::poisson_with_prio(
                CdfSpec::FbHadoop,
                0.5,
                PrioritySpec::ShortFlows { threshold: 100_000 },
            ))
            .with_queueing(queueing),
        );
    }
    scenarios
}

#[test]
fn tie_heavy_scenarios_reproduce_the_recorded_digests() {
    let actual: Vec<(String, u64)> = tie_scenarios()
        .iter()
        .map(|spec| (spec.name.clone(), digest_output(&spec.run().out)))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_TIES
        .iter()
        .map(|(n, d)| (n.to_string(), *d))
        .collect();
    assert_eq!(
        actual, expected,
        "an engine change moved the order of simultaneous events \
         (actual digests on the left)"
    );
}
