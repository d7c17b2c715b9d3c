//! Flow descriptions produced by workload generators and consumed by the
//! simulator and the statistics crate.

use crate::ids::{FlowId, NodeId};
use crate::packet::MTU_PAYLOAD;
use crate::time::SimTime;

/// Application-level priority of a flow.
///
/// The switch scheduling subsystem maps this tag onto a switch data class
/// (see [`FlowPriority::initial_class`]): latency-sensitive flows go to the
/// highest-priority data class, normal flows one class below (when one
/// exists), and [`FlowPriority::Class`] pins an explicit class. All paper
/// experiments use a single data class, where every tag collapses to class 0.
///
/// On the wire (trace files, manifests) the tag is a small integer code:
/// `0` = normal, `1` = latency-sensitive, `2 + c` = explicit data class `c`
/// (see [`FlowPriority::wire_code`] / [`FlowPriority::from_wire_code`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlowPriority {
    /// Regular data flow.
    #[default]
    Normal,
    /// Latency-sensitive flow (e.g. the "mice" of Figure 9e/9f).
    LatencySensitive,
    /// An explicit switch data class (0-based, highest priority first).
    Class(u8),
}

impl FlowPriority {
    /// The integer code this priority uses in trace files and manifests.
    /// Explicit classes above 253 saturate at 255 (far beyond
    /// `Priority::MAX_DATA_CLASSES`, so no valid class is affected).
    pub fn wire_code(self) -> u8 {
        match self {
            FlowPriority::Normal => 0,
            FlowPriority::LatencySensitive => 1,
            FlowPriority::Class(c) => c.saturating_add(2),
        }
    }

    /// Decode a wire code (total: every `u8` maps to a priority).
    pub fn from_wire_code(code: u8) -> FlowPriority {
        match code {
            0 => FlowPriority::Normal,
            1 => FlowPriority::LatencySensitive,
            c => FlowPriority::Class(c - 2),
        }
    }

    /// The switch data class this flow starts in when `n_classes` data
    /// classes are configured (static mapping; PIAS tagging overrides it).
    ///
    /// With a single class everything maps to class 0 — the paper's
    /// deployment. With more classes, latency-sensitive flows take class 0,
    /// normal flows class 1, and explicit classes are clamped into range.
    pub fn initial_class(self, n_classes: u8) -> u8 {
        let last = n_classes.saturating_sub(1);
        match self {
            FlowPriority::LatencySensitive => 0,
            FlowPriority::Normal => 1.min(last),
            FlowPriority::Class(c) => c.min(last),
        }
    }
}

/// A single flow to be injected into the simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSpec {
    /// Unique identifier.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow size in bytes. A size of zero models the paper's "0 byte" RPC
    /// bucket and is carried as a single header-only packet.
    pub size: u64,
    /// Time at which the sender learns about the flow and starts transmitting
    /// (at line rate, per the RDMA model).
    pub start: SimTime,
    /// Application priority tag.
    pub priority: FlowPriority,
}

impl FlowSpec {
    /// Construct a flow spec with [`FlowPriority::Normal`].
    pub fn new(id: FlowId, src: NodeId, dst: NodeId, size: u64, start: SimTime) -> Self {
        FlowSpec {
            id,
            src,
            dst,
            size,
            start,
            priority: FlowPriority::Normal,
        }
    }

    /// Number of data packets this flow needs, [`MTU_PAYLOAD`] bytes a
    /// packet.
    pub fn packet_count(&self) -> u64 {
        if self.size == 0 {
            1
        } else {
            self.size.div_ceil(MTU_PAYLOAD)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_rounds_up_and_handles_zero() {
        let f = FlowSpec::new(FlowId(1), NodeId(0), NodeId(1), 2500, SimTime::ZERO);
        assert_eq!(f.packet_count(), 3);
        let exact = FlowSpec::new(FlowId(2), NodeId(0), NodeId(1), 3000, SimTime::ZERO);
        assert_eq!(exact.packet_count(), 3);
        let zero = FlowSpec::new(FlowId(3), NodeId(0), NodeId(1), 0, SimTime::ZERO);
        assert_eq!(zero.packet_count(), 1);
    }

    #[test]
    fn default_priority_is_normal() {
        let f = FlowSpec::new(FlowId(1), NodeId(0), NodeId(1), 100, SimTime::ZERO);
        assert_eq!(f.priority, FlowPriority::Normal);
    }

    #[test]
    fn wire_codes_round_trip() {
        for p in [
            FlowPriority::Normal,
            FlowPriority::LatencySensitive,
            FlowPriority::Class(0),
            FlowPriority::Class(3),
        ] {
            assert_eq!(FlowPriority::from_wire_code(p.wire_code()), p);
        }
        assert_eq!(FlowPriority::Normal.wire_code(), 0);
        assert_eq!(FlowPriority::LatencySensitive.wire_code(), 1);
        assert_eq!(FlowPriority::Class(1).wire_code(), 3);
    }

    #[test]
    fn initial_class_collapses_to_zero_for_one_class() {
        for p in [
            FlowPriority::Normal,
            FlowPriority::LatencySensitive,
            FlowPriority::Class(3),
        ] {
            assert_eq!(p.initial_class(1), 0, "{p:?}");
        }
        // With four classes: mice first, normal second, explicit clamped.
        assert_eq!(FlowPriority::LatencySensitive.initial_class(4), 0);
        assert_eq!(FlowPriority::Normal.initial_class(4), 1);
        assert_eq!(FlowPriority::Class(2).initial_class(4), 2);
        assert_eq!(FlowPriority::Class(9).initial_class(4), 3);
    }
}
