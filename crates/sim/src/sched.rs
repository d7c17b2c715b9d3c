//! Egress scheduling over the data classes of one switch port.
//!
//! A `Scheduler` decides, each time the port becomes free, which *data*
//! class transmits next (the control class is outside its jurisdiction: the
//! switch always serves control first). The two disciplines are
//!
//! * **strict priority** — the lowest-numbered non-empty, non-paused class
//!   wins; with a single data class this degenerates into the paper's FIFO
//!   and is the default,
//! * **deficit-weighted round robin** — each class accumulates credit in
//!   proportion to its weight and may transmit while its deficit covers the
//!   head packet's wire size; paused classes are skipped without losing
//!   their credit, emptied classes forfeit it (classic DWRR).
//!
//! PIAS is not a third discipline here: PIAS demotes flows at the *sender*
//! (bytes-sent thresholds in [`crate::config::SchedulerSpec::Pias`], mirroring
//! the real system's end-host tagging) and its switches serve the classes in
//! strict priority.
//!
//! Everything is fixed-size (`[u64; MAX_DATA_CLASSES]` deficit counters, no
//! heap), so scheduling adds no allocation to the per-packet hot path, and
//! fully deterministic: the pick is a pure function of the scheduler state
//! and the class snapshot, independent of wall clock or hashing.

use crate::config::{QueueingConfig, SchedulerSpec};
use hpcc_types::Priority;

/// What the scheduler may know about one data class of the port: the wire
/// size of the head-of-line packet (`None` when empty) and whether PFC has
/// paused the class.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ClassLane {
    /// Wire size of the head packet, `None` for an empty queue.
    pub head_wire: Option<u64>,
    /// True while PFC pauses this class.
    pub paused: bool,
}

impl ClassLane {
    #[inline]
    fn eligible(&self) -> bool {
        self.head_wire.is_some() && !self.paused
    }
}

/// Bytes of credit one weight unit buys per DWRR round: comfortably one full
/// data frame ([`hpcc_types::data_wire_size`]), so a weight-1 class earns at
/// least one packet of service per round.
const DWRR_QUANTUM_UNIT: u64 = 2048;

/// Defensive bound on DWRR credit-accumulation rounds per pick; with the
/// quantum at least one MTU the loop settles in one or two rounds, and the
/// fallback (serve the first eligible class) keeps even absurd weight/MTU
/// combinations deterministic and live.
const DWRR_MAX_ROUNDS: u32 = 64;

/// Per-egress-port scheduler state. Constructed once per port from the
/// run's [`QueueingConfig`]; strict priority carries no state at all.
#[derive(Clone, Debug)]
pub(crate) enum Scheduler {
    /// Strict priority (the default; also PIAS's switch-side discipline).
    StrictPriority,
    /// Deficit-weighted round robin.
    Dwrr {
        /// Credit each class earns per visit, `weight * DWRR_QUANTUM_UNIT`.
        quanta: [u64; Priority::MAX_DATA_CLASSES],
        /// Unspent credit per class.
        deficit: [u64; Priority::MAX_DATA_CLASSES],
        /// Class the round-robin pointer rests on.
        cursor: u8,
    },
}

impl Scheduler {
    /// Build the scheduler a port needs under `cfg`.
    pub fn new(cfg: &QueueingConfig) -> Self {
        match &cfg.scheduler {
            SchedulerSpec::Dwrr { weights } => {
                let mut quanta = [DWRR_QUANTUM_UNIT; Priority::MAX_DATA_CLASSES];
                for (q, &w) in quanta.iter_mut().zip(weights) {
                    *q = u64::from(w) * DWRR_QUANTUM_UNIT;
                }
                Scheduler::Dwrr {
                    quanta,
                    deficit: [0; Priority::MAX_DATA_CLASSES],
                    cursor: 0,
                }
            }
            // PIAS switches serve their classes in strict priority.
            _ => Scheduler::StrictPriority,
        }
    }

    /// Choose the data class that transmits next, given the per-class
    /// snapshot. Returns `None` when every class is empty or paused.
    pub fn pick(&mut self, lanes: &[ClassLane]) -> Option<usize> {
        match self {
            Scheduler::StrictPriority => lanes.iter().position(ClassLane::eligible),
            Scheduler::Dwrr {
                quanta,
                deficit,
                cursor,
            } => {
                let n = lanes.len();
                if !lanes.iter().any(ClassLane::eligible) {
                    return None;
                }
                for _ in 0..DWRR_MAX_ROUNDS {
                    for _ in 0..n {
                        let c = *cursor as usize;
                        match lanes[c] {
                            ClassLane {
                                head_wire: None, ..
                            } => {
                                // Empty class forfeits its credit.
                                deficit[c] = 0;
                            }
                            ClassLane { paused: true, .. } => {
                                // Paused class keeps its credit for later.
                            }
                            ClassLane {
                                head_wire: Some(wire),
                                paused: false,
                            } => {
                                if deficit[c] >= wire {
                                    deficit[c] -= wire;
                                    // The pointer stays: the class keeps
                                    // transmitting while its credit lasts.
                                    return Some(c);
                                }
                                deficit[c] += quanta[c];
                            }
                        }
                        *cursor = ((c + 1) % n) as u8;
                    }
                }
                // Unreachable with sane quanta; stay live deterministically.
                lanes.iter().position(ClassLane::eligible)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(wire: Option<u64>, paused: bool) -> ClassLane {
        ClassLane {
            head_wire: wire,
            paused,
        }
    }

    fn dwrr(weights: &[u32]) -> Scheduler {
        Scheduler::new(&QueueingConfig::dwrr(weights.to_vec()))
    }

    #[test]
    fn strict_priority_picks_first_eligible() {
        let mut s = Scheduler::new(&QueueingConfig::legacy());
        assert_eq!(s.pick(&[lane(Some(1106), false)]), Some(0));
        assert_eq!(s.pick(&[lane(None, false)]), None);
        assert_eq!(s.pick(&[lane(Some(1106), true)]), None);
        let lanes = [
            lane(None, false),
            lane(Some(500), true),
            lane(Some(800), false),
        ];
        assert_eq!(s.pick(&lanes), Some(2));
    }

    #[test]
    fn dwrr_shares_by_weight_over_a_long_run() {
        // Two always-backlogged classes with weights 3:1 and equal packet
        // sizes must be served ~3:1.
        let mut s = dwrr(&[3, 1]);
        let lanes = [lane(Some(1106), false), lane(Some(1106), false)];
        let mut served = [0u32; 2];
        for _ in 0..4000 {
            let c = s.pick(&lanes).unwrap();
            served[c] += 1;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.2,
            "3:1 weights served {served:?} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn dwrr_byte_share_is_weight_fair_with_unequal_packets() {
        // Class 0 sends small packets, class 1 large ones, equal weights:
        // DWRR is byte-fair, so class 0 gets ~4x as many *packets*.
        let mut s = dwrr(&[1, 1]);
        let lanes = [lane(Some(250), false), lane(Some(1000), false)];
        let mut bytes = [0u64; 2];
        for _ in 0..4000 {
            let c = s.pick(&lanes).unwrap();
            bytes[c] += lanes[c].head_wire.unwrap();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "equal weights moved bytes {bytes:?} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn dwrr_skips_paused_without_losing_credit_and_resets_empty() {
        let mut s = dwrr(&[1, 1]);
        // Only class 1 eligible while class 0 is paused.
        let paused0 = [lane(Some(1106), true), lane(Some(1106), false)];
        for _ in 0..5 {
            assert_eq!(s.pick(&paused0), Some(1));
        }
        // Resume: class 0 still gets served (kept or re-earns credit).
        let both = [lane(Some(1106), false), lane(Some(1106), false)];
        let mut served0 = 0;
        for _ in 0..10 {
            if s.pick(&both) == Some(0) {
                served0 += 1;
            }
        }
        assert!(served0 >= 4, "resumed class starved: {served0}/10");
        // All empty / all paused -> None.
        assert_eq!(s.pick(&[lane(None, false), lane(None, false)]), None);
        assert_eq!(s.pick(&[lane(Some(1), true), lane(Some(1), true)]), None);
    }

    #[test]
    fn dwrr_is_deterministic() {
        let run = || {
            let mut s = dwrr(&[2, 1, 1]);
            let lanes = [
                lane(Some(1106), false),
                lane(Some(560), false),
                lane(Some(1106), false),
            ];
            (0..100)
                .map(|_| s.pick(&lanes).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
