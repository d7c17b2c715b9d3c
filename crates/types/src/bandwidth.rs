//! Link and flow bandwidths.
//!
//! Bandwidth is stored in bits per second as a `u64`. Helper methods convert
//! between bytes and transmission time at that bandwidth using exact integer
//! arithmetic in picoseconds where possible.

use crate::time::Duration;
use std::fmt;
use std::ops::{Add, Sub};

/// A bandwidth (link capacity or flow rate) in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth (used for a fully throttled flow).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }
    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }
    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }
    /// Gigabits per second as a float.
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Bytes per second as a float.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }
    /// True if the bandwidth is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to serialize `bytes` bytes at this bandwidth.
    ///
    /// Returns [`Duration::MAX`] for zero bandwidth so that callers can treat
    /// a throttled flow as "never ready" rather than dividing by zero.
    #[inline]
    pub fn tx_time(self, bytes: u64) -> Duration {
        /// Picoseconds one byte takes at 1 bps: 8 bits × 1e12.
        const PS_PER_BYTE_AT_1BPS: u64 = 8_000_000_000_000;
        if self.0 == 0 {
            return Duration::MAX;
        }
        // ps = bytes * 8 bits * 1e12 / bps. Up to ≈ 2.3 MB — every frame —
        // the product fits a u64 and one 64-bit division does it; beyond
        // that the same expression in u128 (a `__udivti3` call), saturated.
        if bytes <= u64::MAX / PS_PER_BYTE_AT_1BPS {
            return Duration::from_ps(bytes * PS_PER_BYTE_AT_1BPS / self.0);
        }
        let ps = (bytes as u128 * PS_PER_BYTE_AT_1BPS as u128) / self.0 as u128;
        Duration::from_ps(ps.min(u64::MAX as u128) as u64)
    }

    /// Number of bytes transferred in `d` at this bandwidth (truncating).
    #[inline]
    pub fn bytes_in(self, d: Duration) -> u64 {
        let bits = self.0 as u128 * d.as_ps() as u128 / 1_000_000_000_000;
        (bits / 8) as u64
    }

    /// Bandwidth-delay product in bytes for base RTT `t`.
    #[inline]
    pub fn bdp_bytes(self, t: Duration) -> u64 {
        self.bytes_in(t)
    }

    /// Scale by a float factor (e.g. multiplicative decrease), rounding.
    #[inline]
    pub fn mul_f64(self, x: f64) -> Bandwidth {
        Bandwidth((self.0 as f64 * x).round().max(0.0) as u64)
    }

    /// The smaller of two bandwidths.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
    /// The larger of two bandwidths.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}
impl Sub for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.as_gbps_f64())
    }
}
impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.as_gbps_f64())
        } else {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_times_are_exact() {
        // 1 byte at 100 Gbps = 80 ps; a 1000 B packet = 80 ns.
        let b = Bandwidth::from_gbps(100);
        assert_eq!(b.tx_time(1).as_ps(), 80);
        assert_eq!(b.tx_time(1000).as_ns(), 80);
        // 25 Gbps: 1 byte = 320 ps.
        assert_eq!(Bandwidth::from_gbps(25).tx_time(1).as_ps(), 320);
        // 400 Gbps: 1 byte = 20 ps.
        assert_eq!(Bandwidth::from_gbps(400).tx_time(1).as_ps(), 20);
    }

    #[test]
    fn the_u64_path_of_tx_time_equals_the_u128_expression() {
        use crate::rng::SplitMix64;
        // The expression `tx_time` evaluated before it had a u64 path.
        let reference = |bytes: u64, bps: u64| {
            let ps = (bytes as u128 * 8 * 1_000_000_000_000) / bps as u128;
            Duration::from_ps(ps.min(u64::MAX as u128) as u64)
        };
        let limit = u64::MAX / 8_000_000_000_000;
        let edge_bps = [
            1,
            25_000_000_000,
            100_000_000_000,
            400_000_000_000,
            u64::MAX,
        ];
        let edge_bytes = [0, 1, 60, 1106, limit - 1, limit, limit + 1, u64::MAX];
        for bps in edge_bps {
            for bytes in edge_bytes {
                assert_eq!(
                    Bandwidth::from_bps(bps).tx_time(bytes),
                    reference(bytes, bps),
                    "bytes {bytes}, bps {bps}"
                );
            }
        }
        let seed = 0x7A11;
        let mut rng = SplitMix64::new(seed);
        for i in 0..200_000 {
            // Log-uniform magnitudes, so both sides of the limit and both
            // tiny and huge rates are hit often.
            let bytes = rng.next_u64() >> rng.next_below(64);
            let bps = (rng.next_u64() >> rng.next_below(64)).max(1);
            assert_eq!(
                Bandwidth::from_bps(bps).tx_time(bytes),
                reference(bytes, bps),
                "seed {seed:#x}, draw {i}: bytes {bytes}, bps {bps}"
            );
        }
        for bytes in edge_bytes {
            assert_eq!(Bandwidth::ZERO.tx_time(bytes), Duration::MAX);
        }
    }

    #[test]
    fn zero_bandwidth_never_ready() {
        assert_eq!(Bandwidth::ZERO.tx_time(100), Duration::MAX);
    }

    #[test]
    fn bdp_matches_paper_setup() {
        // 100 Gbps x 13 us base RTT ~= 162.5 KB, the simulation BDP in §5.1.
        let bdp = Bandwidth::from_gbps(100).bdp_bytes(Duration::from_us(13));
        assert_eq!(bdp, 162_500);
        // 25 Gbps x 9 us (testbed T) = 28.125 KB.
        assert_eq!(
            Bandwidth::from_gbps(25).bdp_bytes(Duration::from_us(9)),
            28_125
        );
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let b = Bandwidth::from_gbps(40);
        let d = b.tx_time(9000);
        assert_eq!(b.bytes_in(d), 9000);
    }

    #[test]
    fn scaling_and_bounds() {
        let b = Bandwidth::from_gbps(100);
        assert_eq!(b.mul_f64(0.5), Bandwidth::from_gbps(50));
        assert_eq!(b.min(Bandwidth::from_gbps(25)), Bandwidth::from_gbps(25));
        assert_eq!(b.max(Bandwidth::from_gbps(25)), b);
        assert_eq!(Bandwidth::from_gbps(25).saturating_sub(b), Bandwidth::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Bandwidth::from_gbps(100)), "100.0Gbps");
        assert_eq!(format!("{}", Bandwidth::from_mbps(40)), "40.0Mbps");
    }
}
