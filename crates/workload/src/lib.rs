//! # hpcc-workload
//!
//! Traffic generation for the HPCC reproduction, structured as a pluggable
//! pipeline — **size sampler × pair sampler × arrival process × trace
//! source** — rather than a single hardcoded generator:
//!
//! * [`FlowSizeCdf`] — empirical flow-size distributions with interpolated
//!   sampling, including the two public traces the paper uses
//!   ([`websearch`], [`fb_hadoop`], §5.1),
//! * [`LoadGenerator`] — Poisson flow arrivals at a target fraction of the
//!   network's host capacity (the "30% / 50% average link load" of the
//!   evaluation), with a pluggable pair-sampling stage,
//! * [`locality`] — the pair samplers: uniform (the paper's default),
//!   rack-level locality matrices ([`LocalitySpec`]) and Zipf heavy-hitter
//!   skew ([`SkewSpec`]), selected by a plain-data [`PairSpec`],
//! * [`priority`] — the priority-assignment stage ([`PrioritySpec`]): tag
//!   generated flows (uniformly or mice-vs-elephants by size) for the
//!   switch scheduling subsystem, without perturbing a single RNG draw,
//! * [`incast()`] / [`IncastGenerator`] — the N-to-1 bursts used throughout
//!   §5.2–§5.4 (e.g. 60-to-1 of 500 KB in Figure 11),
//! * [`trace`] — flow traces as reproducible artifacts: a dependency-free
//!   CSV reader/writer ([`Trace`]), deterministic replay, and export
//!   of any synthetic workload to a trace file ([`Trace::from_flows`]).
//!
//! Every random draw comes from the in-tree deterministic
//! [`SplitMix64`](hpcc_types::rng::SplitMix64) keyed by explicit seeds, so
//! generated workloads are pure functions of their parameters.

pub mod cdf;
pub mod generator;
pub mod incast;
pub mod locality;
pub mod priority;
pub mod trace;

pub use cdf::{fb_hadoop, fixed_size, websearch, FlowSizeCdf};
pub use generator::LoadGenerator;
pub use incast::{incast, IncastGenerator};
pub use locality::{LocalityError, LocalitySpec, PairSampler, PairSpec, SkewSpec};
pub use priority::PrioritySpec;
pub use trace::{Trace, TraceError, TraceRecord, TraceSpec};
