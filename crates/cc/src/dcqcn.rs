//! DCQCN reaction-point (sender) algorithm — the production baseline the
//! paper compares against (Zhu et al., SIGCOMM 2015, as deployed on
//! commodity RoCE NICs).
//!
//! The reaction point keeps a current rate `Rc`, a target rate `Rt` and a
//! congestion estimate `alpha`:
//!
//! * **CNP received** (at most one rate decrease per `Td`, the paper's
//!   "rate-decreasing timer"): `Rt = Rc`, `Rc *= (1 - alpha/2)`,
//!   `alpha = (1-g) alpha + g`, and all increase stages reset.
//! * **Alpha timer** (every `alpha_resume_interval` without a CNP):
//!   `alpha *= (1-g)`.
//! * **Rate increase** happens on two independent triggers — a timer of
//!   period `Ti` (the paper's "rate-increasing timer") and a byte counter —
//!   each advancing a stage counter. Depending on the stages the increase is
//!   *fast recovery* (`Rc = (Rt + Rc)/2`), *additive* (`Rt += Rai`) or
//!   *hyper* (`Rt += Rhai`).
//!
//! The sender starts at line rate, exactly as in the RDMA deployment model.

use crate::api::{clamp_rate, AckEvent, CongestionControl, FlowRateState};
use hpcc_types::{Bandwidth, Duration, SimTime};

/// DCQCN parameters. The defaults follow the vendor defaults used in §5.1
/// (with the ECN thresholds living in the switch configuration, not here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcqcnConfig {
    /// EWMA gain `g` for alpha (default 1/256).
    pub g: f64,
    /// Additive increase step `Rai`.
    pub rai: Bandwidth,
    /// Hyper increase step `Rhai`.
    pub rhai: Bandwidth,
    /// Number of fast-recovery stages `F` before additive increase.
    pub fast_recovery_threshold: u32,
    /// Rate-increase timer period `Ti` (Figure 2: 55 µs, 300 µs, 900 µs).
    pub timer_ti: Duration,
    /// Bytes between byte-counter-triggered increases.
    pub byte_counter: u64,
    /// Alpha update timer (55 µs in the original paper).
    pub alpha_resume_interval: Duration,
    /// Minimum interval between two successive rate decreases `Td`
    /// (Figure 2: 4 µs or 50 µs).
    pub rate_decrease_interval_td: Duration,
    /// Minimum rate.
    pub min_rate: Bandwidth,
    /// Initial alpha.
    pub initial_alpha: f64,
}

impl DcqcnConfig {
    /// Vendor-default configuration used in §5.1 for a NIC of `line_rate`:
    /// `Ti = 300 µs`, `Td = 4 µs`, AI step scaled with the line rate.
    pub fn vendor_default(line_rate: Bandwidth) -> Self {
        let scale = line_rate.as_bps() as f64 / 25e9;
        DcqcnConfig {
            g: 1.0 / 256.0,
            rai: Bandwidth::from_mbps((40.0 * scale).max(1.0) as u64),
            rhai: Bandwidth::from_mbps((400.0 * scale).max(1.0) as u64),
            fast_recovery_threshold: 5,
            timer_ti: Duration::from_us(300),
            byte_counter: 10_000_000,
            alpha_resume_interval: Duration::from_us(55),
            rate_decrease_interval_td: Duration::from_us(4),
            min_rate: Bandwidth::from_mbps(100),
            initial_alpha: 1.0,
        }
    }

    /// Override the two timers swept in Figure 2.
    pub fn with_timers(mut self, ti: Duration, td: Duration) -> Self {
        self.timer_ti = ti;
        self.rate_decrease_interval_td = td;
        self
    }
}

/// DCQCN reaction point for one flow.
#[derive(Debug)]
pub struct Dcqcn {
    cfg: DcqcnConfig,
    line_rate: Bandwidth,
    /// Current rate `Rc`.
    rc: Bandwidth,
    /// Target rate `Rt`.
    rt: Bandwidth,
    alpha: f64,
    /// Stage counters for the timer and byte-counter triggers.
    time_stage: u32,
    byte_stage: u32,
    bytes_since_increase: u64,
    /// Whether a CNP arrived since the last alpha-timer expiry.
    cnp_since_alpha_timer: bool,
    last_decrease: Option<SimTime>,
    /// Next expiry of the rate-increase timer.
    next_increase: SimTime,
    /// Next expiry of the alpha-update timer.
    next_alpha: SimTime,
    /// Count of rate decreases applied (exposed for tests / traces).
    pub decrease_events: u64,
    /// Count of rate increase events applied.
    pub increase_events: u64,
}

impl Dcqcn {
    /// Create a DCQCN instance starting at line rate.
    pub fn new(cfg: DcqcnConfig, line_rate: Bandwidth) -> Self {
        Dcqcn {
            cfg,
            line_rate,
            rc: line_rate,
            rt: line_rate,
            alpha: cfg.initial_alpha,
            time_stage: 0,
            byte_stage: 0,
            bytes_since_increase: 0,
            cnp_since_alpha_timer: false,
            last_decrease: None,
            next_increase: SimTime::ZERO + cfg.timer_ti,
            next_alpha: SimTime::ZERO + cfg.alpha_resume_interval,
            decrease_events: 0,
            increase_events: 0,
        }
    }

    /// Current `alpha` congestion estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current target rate `Rt`.
    pub fn target_rate(&self) -> Bandwidth {
        self.rt
    }

    fn cut_rate(&mut self, now: SimTime) {
        if let Some(t) = self.last_decrease {
            if now.saturating_since(t) < self.cfg.rate_decrease_interval_td {
                // Rate decreases are limited to once per Td; alpha still
                // tracks the congestion notification below.
                self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
                self.cnp_since_alpha_timer = true;
                return;
            }
        }
        self.rt = self.rc;
        self.rc = clamp_rate(
            self.rc.mul_f64(1.0 - self.alpha / 2.0),
            self.cfg.min_rate,
            self.line_rate,
        );
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.time_stage = 0;
        self.byte_stage = 0;
        self.bytes_since_increase = 0;
        self.cnp_since_alpha_timer = true;
        self.last_decrease = Some(now);
        self.decrease_events += 1;
        // Restart both timers relative to the decrease, as the RP spec does.
        self.next_increase = now + self.cfg.timer_ti;
        self.next_alpha = now + self.cfg.alpha_resume_interval;
    }

    fn increase_rate(&mut self) {
        let f = self.cfg.fast_recovery_threshold;
        if self.time_stage < f && self.byte_stage < f {
            // Fast recovery: move half-way back towards the target rate.
        } else if self.time_stage < f || self.byte_stage < f {
            // Additive increase once one trigger passed the threshold.
            self.rt = clamp_rate(self.rt + self.cfg.rai, self.cfg.min_rate, self.line_rate);
        } else {
            // Hyper increase once both triggers are past the threshold.
            self.rt = clamp_rate(self.rt + self.cfg.rhai, self.cfg.min_rate, self.line_rate);
        }
        self.rc = clamp_rate(
            Bandwidth::from_bps((self.rt.as_bps() + self.rc.as_bps()) / 2),
            self.cfg.min_rate,
            self.line_rate,
        );
        self.increase_events += 1;
    }
}

impl CongestionControl for Dcqcn {
    fn on_ack(&mut self, ack: &AckEvent<'_>) {
        // Byte-counter increase trigger.
        self.bytes_since_increase += ack.newly_acked;
        if self.bytes_since_increase >= self.cfg.byte_counter {
            self.bytes_since_increase -= self.cfg.byte_counter;
            self.byte_stage += 1;
            self.increase_rate();
        }
    }

    fn on_cnp(&mut self, now: SimTime) {
        self.cut_rate(now);
    }

    fn on_loss(&mut self, now: SimTime) {
        // DCQCN has no explicit loss reaction; treat it like a notification
        // so that lossy (no-PFC) configurations still back off.
        self.cut_rate(now);
    }

    fn next_timer(&self) -> Option<SimTime> {
        Some(self.next_increase.min(self.next_alpha))
    }

    fn on_timer(&mut self, now: SimTime) {
        if now >= self.next_alpha {
            if !self.cnp_since_alpha_timer {
                self.alpha *= 1.0 - self.cfg.g;
            }
            self.cnp_since_alpha_timer = false;
            self.next_alpha = now + self.cfg.alpha_resume_interval;
        }
        if now >= self.next_increase {
            self.time_stage += 1;
            self.increase_rate();
            self.next_increase = now + self.cfg.timer_ti;
        }
    }

    fn state(&self) -> FlowRateState {
        FlowRateState {
            window: FlowRateState::UNLIMITED_WINDOW,
            rate: self.rc,
        }
    }

    fn name(&self) -> &'static str {
        "DCQCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_types::IntHeader;

    const LINE: Bandwidth = Bandwidth::from_gbps(25);

    fn ack(now_us: u64, bytes: u64, ecn: bool, int: &IntHeader) -> AckEvent<'_> {
        AckEvent {
            now: SimTime::from_us(now_us),
            ack_seq: 0,
            snd_nxt: 0,
            newly_acked: bytes,
            ecn_echo: ecn,
            rtt: Duration::from_us(10),
            int,
        }
    }

    #[test]
    fn starts_at_line_rate_without_window_limit() {
        let d = Dcqcn::new(DcqcnConfig::vendor_default(LINE), LINE);
        assert_eq!(d.state().rate, LINE);
        assert!(!d.state().is_window_limited());
    }

    #[test]
    fn cnp_cuts_rate_and_raises_alpha() {
        let mut d = Dcqcn::new(DcqcnConfig::vendor_default(LINE), LINE);
        // alpha starts at 1.0, so the first cut halves the rate; alpha stays
        // at 1.0 ((1-g)*1 + g) until the alpha timer decays it.
        d.on_cnp(SimTime::from_us(100));
        assert_eq!(d.state().rate, LINE.mul_f64(0.5));
        assert!((d.alpha() - 1.0).abs() < 1e-9);
        assert_eq!(d.target_rate(), LINE);
        assert_eq!(d.decrease_events, 1);
    }

    #[test]
    fn decreases_are_rate_limited_by_td() {
        let cfg = DcqcnConfig::vendor_default(LINE)
            .with_timers(Duration::from_us(300), Duration::from_us(50));
        let mut d = Dcqcn::new(cfg, LINE);
        d.on_cnp(SimTime::from_us(100));
        let r1 = d.state().rate;
        // A second CNP 10 us later is inside Td=50us: no further decrease.
        d.on_cnp(SimTime::from_us(110));
        assert_eq!(d.state().rate, r1);
        assert_eq!(d.decrease_events, 1);
        // A CNP after Td elapses does decrease again.
        d.on_cnp(SimTime::from_us(151));
        assert!(d.state().rate < r1);
        assert_eq!(d.decrease_events, 2);
    }

    #[test]
    fn fast_recovery_converges_back_to_target() {
        let mut d = Dcqcn::new(DcqcnConfig::vendor_default(LINE), LINE);
        d.on_cnp(SimTime::from_us(10));
        let after_cut = d.state().rate;
        assert_eq!(d.target_rate(), LINE);
        // Run the timer wheel until five rate-increase events (fast
        // recovery) have fired; each halves the gap to Rt.
        let mut now = SimTime::from_us(10);
        let mut guard = 0;
        while d.increase_events < 5 {
            now = d.next_timer().unwrap().max(now);
            d.on_timer(now);
            guard += 1;
            assert!(guard < 1000, "timer loop did not make progress");
        }
        let recovered = d.state().rate;
        assert!(recovered > after_cut);
        // After 5 halvings the rate is within ~4% of line rate.
        assert!(recovered.as_bps() as f64 > 0.96 * LINE.as_bps() as f64);
    }

    #[test]
    fn additive_and_hyper_increase_after_fast_recovery() {
        let cfg = DcqcnConfig {
            timer_ti: Duration::from_us(55),
            ..DcqcnConfig::vendor_default(LINE)
        };
        let mut d = Dcqcn::new(cfg, LINE);
        d.on_cnp(SimTime::from_us(10));
        // Exhaust fast recovery via the timer, then additive increases keep
        // pushing the target rate (clamped at line rate).
        let mut now = SimTime::from_us(10);
        let mut guard = 0;
        while d.increase_events < 20 {
            now = d.next_timer().unwrap().max(now);
            d.on_timer(now);
            guard += 1;
            assert!(guard < 10_000, "timer loop did not make progress");
        }
        let r = d.state().rate.as_bps() as f64;
        assert!(
            r > 0.999 * LINE.as_bps() as f64,
            "should recover to ~line rate, got {}",
            d.state().rate
        );
        assert!(d.increase_events >= 20);
        assert_eq!(d.target_rate(), LINE, "target rate is clamped at line rate");
    }

    #[test]
    fn hyper_increase_when_both_stages_exceed_threshold() {
        // A tiny byte counter lets ACKed bytes advance the byte stage past F
        // as well, after which increases use the hyper step.
        let cfg = DcqcnConfig {
            byte_counter: 1_000,
            rai: Bandwidth::from_mbps(1),
            rhai: Bandwidth::from_gbps(1),
            timer_ti: Duration::from_us(10),
            ..DcqcnConfig::vendor_default(LINE)
        };
        let mut d = Dcqcn::new(cfg, LINE);
        d.on_cnp(SimTime::from_us(10));
        // Force the current rate well below target so increases are visible.
        d.on_cnp(SimTime::from_us(20));
        d.on_cnp(SimTime::from_us(30));
        let int = IntHeader::new();
        // Drive both stage counters beyond the threshold: the 10 us increase
        // timer advances the time stage, each 1 KB ACK advances the byte
        // stage.
        let mut now = SimTime::from_us(30);
        for i in 0..8u64 {
            now = d.next_timer().unwrap().max(now);
            d.on_timer(now);
            d.on_timer(now + Duration::from_us(10));
            now += Duration::from_us(10);
            d.on_ack(&ack(31 + i, 1_000, false, &int));
        }
        let before = d.target_rate();
        d.on_ack(&ack(40, 1_000, false, &int));
        let after = d.target_rate();
        // The jump must be the hyper step (1 Gbps), not the 1 Mbps AI step.
        assert!(
            after.as_bps().saturating_sub(before.as_bps()) >= 500_000_000 || after == LINE,
            "expected hyper increase, {before} -> {after}"
        );
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = Dcqcn::new(DcqcnConfig::vendor_default(LINE), LINE);
        d.on_cnp(SimTime::from_us(10));
        let alpha_after_cnp = d.alpha();
        let mut now = SimTime::from_us(10);
        for _ in 0..50 {
            now = d.next_timer().unwrap().max(now);
            d.on_timer(now);
        }
        assert!(d.alpha() < alpha_after_cnp * 0.9);
    }

    #[test]
    fn byte_counter_triggers_increase() {
        let cfg = DcqcnConfig {
            byte_counter: 100_000,
            ..DcqcnConfig::vendor_default(LINE)
        };
        let mut d = Dcqcn::new(cfg, LINE);
        d.on_cnp(SimTime::from_us(10));
        let after_cut = d.state().rate;
        let int = IntHeader::new();
        // 150 KB of ACKed data crosses the 100 KB byte counter once.
        d.on_ack(&ack(20, 150_000, false, &int));
        assert!(d.state().rate > after_cut);
        assert_eq!(d.increase_events, 1);
    }

    #[test]
    fn rate_never_leaves_bounds() {
        let mut d = Dcqcn::new(DcqcnConfig::vendor_default(LINE), LINE);
        let int = IntHeader::new();
        let mut now_us = 10;
        for i in 0..2000u64 {
            now_us += 1 + (i % 7);
            if i % 3 == 0 {
                d.on_cnp(SimTime::from_us(now_us));
            }
            d.on_ack(&ack(now_us, 1000 + (i % 5) * 500, i % 11 == 0, &int));
            if let Some(t) = d.next_timer() {
                if t <= SimTime::from_us(now_us) {
                    d.on_timer(SimTime::from_us(now_us));
                }
            }
            let r = d.state().rate;
            assert!(r >= DcqcnConfig::vendor_default(LINE).min_rate);
            assert!(r <= LINE);
        }
    }

    #[test]
    fn preset_constructors_match_figure2_settings() {
        // AI step scales with line rate: 25G → 40 Mbps, 100G → 160 Mbps.
        assert_eq!(
            DcqcnConfig::vendor_default(LINE).rai,
            Bandwidth::from_mbps(40)
        );
        assert_eq!(
            DcqcnConfig::vendor_default(Bandwidth::from_gbps(100)).rai,
            Bandwidth::from_mbps(160)
        );
    }
}
