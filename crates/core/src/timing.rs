//! The one wall-clock funnel.
//!
//! Simulation results must never depend on the host clock: clippy.toml
//! disallows `Instant::now` and `SystemTime::now` in every workspace target,
//! and this module's [`now`] is the one read outside a test that carries an
//! exception. Two kinds of caller go through it. The campaign runner, the
//! cross-validation harness and the `campaign` binary time their runs, and
//! those times stay outside every canonical byte (`wall_ns` is excluded from
//! digests and from `CampaignReport::to_json`). The campaign fabric's lease
//! timeouts and heartbeat deadlines are liveness, real-time by definition,
//! and never touch a canonical byte either. Either way every wall-clock
//! dependency is grep-able as `timing::now`.

/// Read the monotonic host clock (the workspace's one sanctioned wall-clock
/// read; see the module docs).
#[expect(
    clippy::disallowed_methods,
    reason = "the funnel itself: every other clock read calls this"
)]
pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn clock_is_monotonic() {
        let a = super::now();
        let b = super::now();
        assert!(b >= a);
    }
}
