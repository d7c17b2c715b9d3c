//! The backend boundary: one resolved scenario, several engines to answer it.
//!
//! A [`CompiledScenario`] is everything a simulation run needs — the built
//! topology, the behavioural [`SimConfig`] and the generated flow list —
//! with every spec-level concern (workload generation, CC resolution, RTT
//! suggestion) already resolved. A [`Backend`] turns one into a
//! [`SimOutput`]:
//!
//! * [`PacketBackend`] — the packet-level event-wheel engine
//!   ([`crate::Simulator`]). This is the reference implementation: the
//!   default path, bit-identical to the pre-refactor `Simulator` calls and
//!   pinned by the golden-digest tests.
//! * [`crate::fluid::FluidBackend`] — the Appendix A.2 fluid-model fast
//!   path: solves per-flow rate recursions over the path×resource incidence
//!   matrix instead of moving packets, typically 2–4 orders of magnitude
//!   faster, at the price of modelling CC as its steady state.
//!
//! Both backends are deterministic: the same `CompiledScenario` produces the
//! same `SimOutput` (and therefore the same campaign digest) on every run.

use crate::config::SimConfig;
use crate::output::SimOutput;
use crate::simulator::Simulator;
use hpcc_topology::TopologySpec;
use hpcc_types::FlowSpec;

/// A fully resolved simulation input, independent of the engine that runs it.
pub struct CompiledScenario {
    /// The built network.
    pub topo: TopologySpec,
    /// Host and switch behaviour (CC scheme, horizon, tracing, …).
    pub cfg: SimConfig,
    /// Flows to inject.
    pub flows: Vec<FlowSpec>,
}

/// An engine that can answer a [`CompiledScenario`].
pub trait Backend {
    /// Short identifier used in reports and manifests ("packet", "fluid").
    fn name(&self) -> &'static str;

    /// Execute the scenario and produce the raw measurement records.
    fn run(&self, scenario: CompiledScenario) -> SimOutput;
}

/// Which backend a run should use — the plain-data form of the boundary,
/// carried on scenario specs and resolved with [`backend_for`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The packet-level event-wheel engine (the default, and the reference).
    #[default]
    Packet,
    /// The flow-level fluid model ([`crate::FluidBackend`]; not validated).
    Fluid,
    /// Inert: the parallel partitioned packet engine was removed (it produced
    /// the digest [`Packet`](BackendKind::Packet) produces, at 0.46–1.09× its
    /// speed on 2 threads). Nothing decodes to this variant and nothing runs
    /// it; it exists only because `benchmark/src/traced.rs:410` matches it by
    /// name and that package changes separately.
    ParallelPacket,
}

impl BackendKind {
    /// The backend's short identifier ("packet" / "fluid").
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Packet => "packet",
            BackendKind::Fluid => "fluid",
            BackendKind::ParallelPacket => "parallel_packet",
        }
    }
}

/// What every route to [`BackendKind::ParallelPacket`] answers: decoding it,
/// building a scenario with it, resolving it.
pub const PARALLEL_PACKET_REMOVED: &str =
    "the parallel_packet backend was removed; use \"packet\", \
     which produced the identical digest";

/// Resolve a [`BackendKind`] to its engine. Panics on the inert
/// [`BackendKind::ParallelPacket`], which scenario specs reject before this.
pub fn backend_for(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::Packet => Box::new(PacketBackend),
        BackendKind::Fluid => Box::new(crate::fluid::FluidBackend),
        BackendKind::ParallelPacket => panic!("{PARALLEL_PACKET_REMOVED}"),
    }
}

/// The packet-level event-wheel engine behind the [`Backend`] boundary.
///
/// A thin adapter over [`Simulator`]: construction, flow injection and the
/// run loop are exactly the calls the pre-refactor code made, so output is
/// bit-identical to it (pinned by the golden-digest tests).
pub struct PacketBackend;

impl Backend for PacketBackend {
    fn name(&self) -> &'static str {
        "packet"
    }

    fn run(&self, scenario: CompiledScenario) -> SimOutput {
        let mut sim = Simulator::new(scenario.topo, scenario.cfg);
        sim.add_flows(scenario.flows);
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_resolve_to_matching_backends() {
        assert_eq!(BackendKind::default(), BackendKind::Packet);
        for kind in [BackendKind::Packet, BackendKind::Fluid] {
            assert_eq!(backend_for(kind).name(), kind.label());
        }
    }
}
