//! DCTCP — ECN-fraction based window control (Alizadeh et al., SIGCOMM
//! 2010), used in the paper's simulations as the host-TCP comparison point
//! with slow start removed (§5.1 "We remove the slow start phase in DCTCP
//! for fair comparisons"), i.e. flows start at line rate with a BDP window.
//!
//! Per RTT the sender computes the fraction `F` of acknowledged bytes that
//! carried an ECN echo, maintains `alpha = (1-g) alpha + g F`, and if any
//! marks were seen cuts the window by `alpha/2`; otherwise it increases the
//! window by one MSS per RTT (congestion avoidance).

use crate::api::{clamp_rate, AckEvent, CongestionControl, FlowRateState};
use hpcc_types::{Bandwidth, Duration, SimTime, MTU_PAYLOAD};

/// DCTCP parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DctcpConfig {
    /// EWMA gain `g` for the marked fraction (paper default 1/16).
    pub g: f64,
    /// Minimum pacing rate.
    pub min_rate: Bandwidth,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            g: 1.0 / 16.0,
            min_rate: Bandwidth::from_mbps(100),
        }
    }
}

/// DCTCP window control for one flow.
#[derive(Debug)]
pub struct Dctcp {
    cfg: DctcpConfig,
    line_rate: Bandwidth,
    base_rtt: Duration,
    w_max: u64,
    window: f64,
    alpha: f64,
    /// Bytes acknowledged in the current observation window (one RTT).
    acked_bytes: u64,
    /// Of which carried an ECN echo.
    marked_bytes: u64,
    /// End of the current observation window: when `ack_seq` crosses this,
    /// the per-RTT update runs.
    window_end_seq: u64,
    rate: Bandwidth,
    /// Number of multiplicative decreases applied (for tests / traces).
    pub decrease_events: u64,
}

impl Dctcp {
    /// Create a DCTCP instance with an initial window of one BDP (no slow
    /// start, per the paper's comparison setup). The segment size — the
    /// additive-increase step and the minimum window — is the packet
    /// payload, [`MTU_PAYLOAD`].
    pub fn new(cfg: DctcpConfig, line_rate: Bandwidth, base_rtt: Duration) -> Self {
        let w_init = line_rate.bdp_bytes(base_rtt) + MTU_PAYLOAD;
        Dctcp {
            cfg,
            line_rate,
            base_rtt,
            // Allow the window to grow past one BDP (standing queue), but cap
            // it so an ECN-free path cannot accumulate unbounded inflight.
            w_max: w_init * 4,
            window: w_init as f64,
            alpha: 0.0,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end_seq: 0,
            rate: line_rate,
            decrease_events: 0,
        }
    }

    /// Current `alpha` (EWMA of the marked fraction).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn sync_rate(&mut self) {
        self.window = self.window.clamp(MTU_PAYLOAD as f64, self.w_max as f64);
        let rate = Bandwidth::from_bps((self.window * 8.0 / self.base_rtt.as_secs_f64()) as u64);
        self.rate = clamp_rate(rate, self.cfg.min_rate, self.line_rate);
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, ack: &AckEvent<'_>) {
        self.acked_bytes += ack.newly_acked;
        if ack.ecn_echo {
            self.marked_bytes += ack.newly_acked;
        }
        if ack.ack_seq < self.window_end_seq {
            return;
        }
        // One observation window (≈ one RTT of data) has been acknowledged.
        self.window_end_seq = ack.snd_nxt;
        if self.acked_bytes == 0 {
            return;
        }
        let f = self.marked_bytes as f64 / self.acked_bytes as f64;
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g * f;
        if self.marked_bytes > 0 {
            self.window *= 1.0 - self.alpha / 2.0;
            self.decrease_events += 1;
        } else {
            self.window += MTU_PAYLOAD as f64;
        }
        self.acked_bytes = 0;
        self.marked_bytes = 0;
        self.sync_rate();
    }

    fn on_loss(&mut self, _now: SimTime) {
        // Standard TCP-style halving on loss.
        self.window /= 2.0;
        self.decrease_events += 1;
        self.sync_rate();
    }

    fn state(&self) -> FlowRateState {
        FlowRateState {
            window: self.window as u64,
            rate: self.rate,
        }
    }

    fn name(&self) -> &'static str {
        "DCTCP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::IntHeader;

    const LINE: Bandwidth = Bandwidth::from_gbps(100);
    const RTT: Duration = Duration::from_us(13);

    fn make() -> Dctcp {
        Dctcp::new(DctcpConfig::default(), LINE, RTT)
    }

    fn ack(seq: u64, snd_nxt: u64, bytes: u64, ecn: bool, int: &IntHeader) -> AckEvent<'_> {
        AckEvent {
            now: SimTime::from_us(seq / 1000),
            ack_seq: seq,
            snd_nxt,
            newly_acked: bytes,
            ecn_echo: ecn,
            rtt: RTT,
            int,
        }
    }

    #[test]
    fn starts_with_bdp_window_no_slow_start() {
        let d = make();
        assert_eq!(d.state().window, LINE.bdp_bytes(RTT) + 1000);
        assert_eq!(d.state().rate, LINE);
        assert!(d.state().is_window_limited());
    }

    #[test]
    fn unmarked_rtts_grow_window_by_one_mss() {
        let mut d = make();
        let int = IntHeader::new();
        let w0 = d.state().window;
        // First ACK closes the (empty) initial observation window.
        d.on_ack(&ack(1_000, 150_000, 1000, false, &int));
        let w1 = d.state().window;
        assert_eq!(w1, w0 + 1000);
        // ACKs within the next window do not change it.
        d.on_ack(&ack(50_000, 150_000, 1000, false, &int));
        assert_eq!(d.state().window, w1);
        // Crossing the window end grows it again.
        d.on_ack(&ack(151_000, 300_000, 1000, false, &int));
        assert_eq!(d.state().window, w1 + 1000);
    }

    #[test]
    fn fully_marked_traffic_converges_alpha_to_one_and_halves() {
        let mut d = make();
        let int = IntHeader::new();
        let w0 = d.state().window;
        let mut seq = 1_000;
        for _ in 0..80 {
            d.on_ack(&ack(seq, seq + 10_000, 1000, true, &int));
            seq += 10_001;
        }
        assert!(
            d.alpha() > 0.98,
            "alpha should approach 1, got {}",
            d.alpha()
        );
        assert!(d.state().window < w0 / 4);
        assert!(d.decrease_events > 50);
    }

    #[test]
    fn lightly_marked_traffic_keeps_high_window() {
        let mut d = make();
        let int = IntHeader::new();
        let mut seq = 1_000;
        // 1 marked RTT out of every 10.
        for i in 0..100u64 {
            d.on_ack(&ack(seq, seq + 10_000, 1000, i % 10 == 0, &int));
            seq += 10_001;
        }
        assert!(d.alpha() < 0.3);
        assert!(d.state().window > LINE.bdp_bytes(RTT) / 2);
    }

    #[test]
    fn loss_halves_window() {
        let mut d = make();
        let w0 = d.state().window;
        d.on_loss(SimTime::ZERO);
        assert!(d.state().window <= w0 / 2 + 1);
    }

    #[test]
    fn window_never_collapses_below_minimum() {
        let mut d = make();
        let int = IntHeader::new();
        let mut seq = 1_000;
        for _ in 0..500 {
            d.on_ack(&ack(seq, seq + 1_000, 1000, true, &int));
            seq += 1_001;
            d.on_loss(SimTime::ZERO);
            assert!(d.state().window >= MTU_PAYLOAD);
            assert!(d.state().rate >= DctcpConfig::default().min_rate);
        }
    }
}
