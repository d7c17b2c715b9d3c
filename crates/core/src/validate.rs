//! Cross-validation of the fluid backend against the packet engine.
//!
//! The fluid backend answers a scenario orders of magnitude faster than the
//! packet engine, but it is a steady-state *model* — the only way to trust
//! it is to run both engines on an overlapping scenario grid and measure how
//! far apart they land. [`ValidationReport::run`] does exactly that: every
//! spec is resolved twice (once per [`BackendSpec`]), both runs execute, and
//! each [`ValidationRow`] records the per-scenario FCT-slowdown and
//! utilization divergence plus both output digests.
//!
//! The canonical JSON ([`ValidationReport::to_json_string`]) contains only
//! deterministic fields — digests, metrics, divergences; wall-clock times
//! live next to it but outside the canonical object, exactly like the
//! campaign wire format. [`ValidationReport::digest`] folds the canonical
//! string, so one pinned integer asserts the entire cross-validation
//! outcome, on every platform.

use crate::campaign::digest_output;
use crate::json::{obj, JsonValue};
use crate::scenario::{BackendSpec, BuildError, ScenarioSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// One scenario, both engines, and how far apart they landed.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    /// Scenario name (from the spec).
    pub name: String,
    /// Congestion-control scheme label.
    pub scheme: String,
    /// Digest of the packet engine's raw output.
    pub packet_digest: u64,
    /// Digest of the fluid backend's raw output.
    pub fluid_digest: u64,
    /// Mean FCT slowdown under the packet engine (`None`: no flow finished).
    pub packet_mean_slowdown: Option<f64>,
    /// Mean FCT slowdown under the fluid backend.
    pub fluid_mean_slowdown: Option<f64>,
    /// Median FCT slowdown under the packet engine.
    pub packet_p50_slowdown: Option<f64>,
    /// Median FCT slowdown under the fluid backend.
    pub fluid_p50_slowdown: Option<f64>,
    /// Average host-NIC utilization under the packet engine.
    pub packet_utilization: f64,
    /// Average host-NIC utilization under the fluid backend.
    pub fluid_utilization: f64,
    /// Flows completed under the packet engine.
    pub packet_completed: usize,
    /// Flows completed under the fluid backend.
    pub fluid_completed: usize,
    /// Events the packet engine processed.
    pub packet_events: u64,
    /// Packet-engine wall time (host-dependent; not in the canonical JSON).
    pub packet_wall: std::time::Duration,
    /// Fluid-backend wall time (host-dependent; not in the canonical JSON).
    pub fluid_wall: std::time::Duration,
}

impl ValidationRow {
    /// Relative divergence of the mean FCT slowdown: `|fluid − packet| /
    /// packet`. Zero when neither engine finished a flow; infinite when
    /// exactly one of them did (the engines disagree about whether the
    /// scenario makes progress at all).
    pub fn slowdown_divergence(&self) -> f64 {
        match (self.packet_mean_slowdown, self.fluid_mean_slowdown) {
            (Some(p), Some(f)) if p > 0.0 => (f - p).abs() / p,
            (None, None) => 0.0,
            _ => f64::INFINITY,
        }
    }

    /// Absolute divergence of the average utilization (both are fractions
    /// of the host NIC rate, so an absolute difference is the honest
    /// comparison near zero).
    pub fn utilization_divergence(&self) -> f64 {
        (self.fluid_utilization - self.packet_utilization).abs()
    }

    fn to_json(&self) -> JsonValue {
        fn opt(v: Option<f64>) -> JsonValue {
            match v {
                Some(x) => JsonValue::Float(x),
                None => JsonValue::Null,
            }
        }
        obj(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("scheme", JsonValue::Str(self.scheme.clone())),
            ("packet_digest", JsonValue::UInt(self.packet_digest)),
            ("fluid_digest", JsonValue::UInt(self.fluid_digest)),
            ("packet_mean_slowdown", opt(self.packet_mean_slowdown)),
            ("fluid_mean_slowdown", opt(self.fluid_mean_slowdown)),
            ("packet_p50_slowdown", opt(self.packet_p50_slowdown)),
            ("fluid_p50_slowdown", opt(self.fluid_p50_slowdown)),
            (
                "packet_utilization",
                JsonValue::Float(self.packet_utilization),
            ),
            (
                "fluid_utilization",
                JsonValue::Float(self.fluid_utilization),
            ),
            (
                "packet_completed",
                JsonValue::UInt(self.packet_completed as u64),
            ),
            (
                "fluid_completed",
                JsonValue::UInt(self.fluid_completed as u64),
            ),
            ("packet_events", JsonValue::UInt(self.packet_events)),
            (
                "slowdown_divergence",
                JsonValue::Float(self.slowdown_divergence()),
            ),
            (
                "utilization_divergence",
                JsonValue::Float(self.utilization_divergence()),
            ),
        ])
    }
}

/// The outcome of cross-validating a scenario grid on both backends.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// One row per scenario, in grid order.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Run every spec on both backends and measure the divergence.
    ///
    /// Each spec is cloned twice — once forced to [`BackendSpec::Packet`],
    /// once to [`BackendSpec::Fluid`] — so the grid may carry any default.
    /// Specs using features the fluid backend rejects (faults, PIAS) fail
    /// with the same typed [`BuildError`] `try_build` reports.
    pub fn run(specs: &[ScenarioSpec]) -> Result<Self, BuildError> {
        let mut rows = Vec::with_capacity(specs.len());
        for spec in specs {
            let host_bw = spec.topology.host_bw();

            let t0 = Instant::now();
            let packet = spec
                .clone()
                .with_backend(BackendSpec::Packet)
                .try_build()?
                .run();
            let packet_wall = t0.elapsed();

            let t1 = Instant::now();
            let fluid = spec
                .clone()
                .with_backend(BackendSpec::Fluid)
                .try_build()?
                .run();
            let fluid_wall = t1.elapsed();

            let p_slow = packet.slowdown_overall();
            let f_slow = fluid.slowdown_overall();
            rows.push(ValidationRow {
                name: spec.name.clone(),
                scheme: spec.scheme_label(),
                packet_digest: digest_output(&packet.out),
                fluid_digest: digest_output(&fluid.out),
                packet_mean_slowdown: p_slow.as_ref().map(|p| p.mean),
                fluid_mean_slowdown: f_slow.as_ref().map(|p| p.mean),
                packet_p50_slowdown: p_slow.as_ref().map(|p| p.p50),
                fluid_p50_slowdown: f_slow.as_ref().map(|p| p.p50),
                packet_utilization: packet.average_utilization(host_bw),
                fluid_utilization: fluid.average_utilization(host_bw),
                packet_completed: packet.out.flows.len(),
                fluid_completed: fluid.out.flows.len(),
                packet_events: packet.out.events_processed,
                packet_wall,
                fluid_wall,
            });
        }
        Ok(ValidationReport { rows })
    }

    /// The largest per-scenario mean-slowdown divergence.
    pub fn max_slowdown_divergence(&self) -> f64 {
        self.rows
            .iter()
            .map(ValidationRow::slowdown_divergence)
            .fold(0.0, f64::max)
    }

    /// The largest per-scenario utilization divergence.
    pub fn max_utilization_divergence(&self) -> f64 {
        self.rows
            .iter()
            .map(ValidationRow::utilization_divergence)
            .fold(0.0, f64::max)
    }

    /// Wall-clock speedup of the fluid backend over the packet engine,
    /// summed over the grid (host-dependent).
    pub fn speedup(&self) -> f64 {
        let packet: f64 = self.rows.iter().map(|r| r.packet_wall.as_secs_f64()).sum();
        let fluid: f64 = self.rows.iter().map(|r| r.fluid_wall.as_secs_f64()).sum();
        if fluid == 0.0 {
            f64::INFINITY
        } else {
            packet / fluid
        }
    }

    /// The canonical JSON object: rows in grid order plus the grid-level
    /// maxima. Only deterministic fields — no wall times, no speedups.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(ValidationRow::to_json).collect()),
            ),
            (
                "max_slowdown_divergence",
                JsonValue::Float(self.max_slowdown_divergence()),
            ),
            (
                "max_utilization_divergence",
                JsonValue::Float(self.max_utilization_divergence()),
            ),
        ])
    }

    /// The canonical JSON rendered to a string (deterministic across runs,
    /// platforms and thread counts).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// FNV-1a digest of the canonical JSON string — one pinned integer
    /// asserts the whole cross-validation outcome.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for byte in self.to_json_string().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// A human-readable comparison table (wall times and speedup included —
    /// this is for eyes, not for digests).
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<24} {:<10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>9}",
            "scenario",
            "scheme",
            "pkt slow",
            "fluid slow",
            "Δrel",
            "pkt util",
            "fluid util",
            "Δabs",
            "speedup"
        );
        for r in &self.rows {
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "-".to_string(),
            };
            let speedup = if r.fluid_wall.as_secs_f64() > 0.0 {
                r.packet_wall.as_secs_f64() / r.fluid_wall.as_secs_f64()
            } else {
                f64::INFINITY
            };
            let _ = writeln!(
                s,
                "{:<24} {:<10} {:>12} {:>12} {:>9.3} {:>12.4} {:>12.4} {:>9.4} {:>8.0}x",
                r.name,
                r.scheme,
                fmt_opt(r.packet_mean_slowdown),
                fmt_opt(r.fluid_mean_slowdown),
                r.slowdown_divergence(),
                r.packet_utilization,
                r.fluid_utilization,
                r.utilization_divergence(),
                speedup,
            );
        }
        let _ = writeln!(
            s,
            "max divergence: slowdown {:.3} (relative), utilization {:.4} (absolute); overall speedup {:.0}x",
            self.max_slowdown_divergence(),
            self.max_utilization_divergence(),
            self.speedup(),
        );
        s
    }
}
