//! Locality-aware and skewed host-pair sampling.
//!
//! The paper's background workloads draw src/dst pairs uniformly at random,
//! but real datacenter traffic is neither rack-uniform nor host-uniform:
//! most bytes stay inside a rack and a few "heavy hitter" hosts dominate.
//! This module supplies the **pair sampler** stage of the workload pipeline
//! (size sampler × pair sampler × arrival process):
//!
//! * [`LocalitySpec`] — a rack-level traffic matrix: either a single
//!   intra-rack fraction (off-rack spread evenly) or a full row-stochastic
//!   rack×rack matrix, validated against the topology's rack count,
//! * [`SkewSpec`] — a Zipf-like heavy-hitter model over hosts: endpoint
//!   popularity follows `1/rank^exponent`, with the rank order drawn
//!   deterministically from the workload seed,
//! * [`PairSpec`] — the plain-data choice between uniform, locality-driven
//!   and skewed sampling (what scenario specs and campaign manifests carry),
//! * [`PairSampler`] — the resolved runtime sampler the
//!   [`crate::LoadGenerator`] consumes.
//!
//! All samplers guarantee `src != dst` and draw every random number from the
//! in-tree deterministic [`SplitMix64`], so sampled pair sequences are a
//! pure function of (spec, topology racks, seed). The uniform sampler
//! reproduces the historical generator's draw sequence bit for bit, keeping
//! pre-existing scenario digests pinned.

use hpcc_types::rng::{derive_seed, SplitMix64};
use std::fmt;

/// Error raised when a locality/skew specification is invalid for the
/// topology it is applied to (matrix shape, row sums, parameter ranges).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalityError(pub String);

impl fmt::Display for LocalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "locality error: {}", self.0)
    }
}

impl std::error::Error for LocalityError {}

fn err<T>(msg: impl Into<String>) -> Result<T, LocalityError> {
    Err(LocalityError(msg.into()))
}

/// Tolerance for row sums of a traffic matrix (`|sum - 1| <= 1e-6`).
const ROW_SUM_TOLERANCE: f64 = 1e-6;

/// A rack-level traffic matrix, as plain data.
///
/// Racks come from [`TopologySpec::host_rack_ids`] (a host's rack is its
/// first-hop switch), so the spec stays valid before the topology is
/// instantiated and the same spec can sweep across fabrics.
///
/// [`TopologySpec::host_rack_ids`]: ../../hpcc_topology/struct.TopologySpec.html#method.host_rack_ids
#[derive(Clone, Debug, PartialEq)]
pub enum LocalitySpec {
    /// With probability `fraction` the destination shares the source's rack;
    /// otherwise it is uniform over the other racks. Equivalent to the
    /// row-stochastic matrix with `fraction` on the diagonal and
    /// `(1 - fraction) / (racks - 1)` elsewhere.
    IntraRack {
        /// Probability that a flow stays inside its source rack, in `[0, 1]`.
        fraction: f64,
    },
    /// An explicit rack×rack matrix: `rows[s][d]` is the probability that a
    /// flow sourced in rack `s` targets rack `d`. Every row must sum to 1
    /// (within `1e-6`) with non-negative finite entries, and the matrix must
    /// be square with one row per topology rack.
    Matrix {
        /// The row-stochastic matrix, one row per source rack.
        rows: Vec<Vec<f64>>,
    },
}

impl LocalitySpec {
    /// Validate against a topology with `racks` racks.
    pub fn validate(&self, racks: usize) -> Result<(), LocalityError> {
        match self {
            LocalitySpec::IntraRack { fraction } => {
                if !fraction.is_finite() || !(0.0..=1.0).contains(fraction) {
                    return err(format!("intra-rack fraction {fraction} not in [0, 1]"));
                }
                if racks < 2 && *fraction < 1.0 {
                    return err(format!(
                        "intra-rack fraction {fraction} < 1 needs at least 2 racks, topology has {racks}"
                    ));
                }
                Ok(())
            }
            LocalitySpec::Matrix { rows } => {
                if rows.len() != racks {
                    return err(format!(
                        "matrix has {} rows, topology has {racks} racks",
                        rows.len()
                    ));
                }
                for (i, row) in rows.iter().enumerate() {
                    if row.len() != racks {
                        return err(format!(
                            "matrix row {i} has {} entries, expected {racks}",
                            row.len()
                        ));
                    }
                    let mut sum = 0.0;
                    for (j, &p) in row.iter().enumerate() {
                        if !p.is_finite() || p < 0.0 {
                            return err(format!(
                                "matrix entry [{i}][{j}] = {p} is not a probability"
                            ));
                        }
                        sum += p;
                    }
                    if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                        return err(format!("matrix row {i} sums to {sum}, expected 1"));
                    }
                }
                Ok(())
            }
        }
    }

    /// The effective row-stochastic matrix for `racks` racks (expanding
    /// [`LocalitySpec::IntraRack`] into its equivalent matrix). Call
    /// [`LocalitySpec::validate`] first; this assumes a valid spec.
    fn rows(&self, racks: usize) -> Vec<Vec<f64>> {
        match self {
            LocalitySpec::IntraRack { fraction } => {
                let off = if racks > 1 {
                    (1.0 - fraction) / (racks - 1) as f64
                } else {
                    0.0
                };
                (0..racks)
                    .map(|s| {
                        (0..racks)
                            .map(|d| if s == d { *fraction } else { off })
                            .collect()
                    })
                    .collect()
            }
            LocalitySpec::Matrix { rows } => rows.clone(),
        }
    }
}

/// A Zipf-like heavy-hitter model over hosts, as plain data.
///
/// Both endpoints are drawn from a Zipf distribution over the host set:
/// the `k`-th most popular host is chosen with probability proportional to
/// `1 / (k + 1)^exponent`. *Which* host occupies which popularity rank is a
/// deterministic shuffle derived from the workload seed, so different seeds
/// move the hot spots around while the same seed always reproduces the same
/// traffic. `exponent = 0` degenerates to uniform; the destination is
/// re-drawn while it equals the source (with a deterministic fallback), so
/// `src != dst` always holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewSpec {
    /// Zipf exponent (≥ 0, finite). Datacenter studies typically fit
    /// 1.0–1.5; larger is more skewed.
    pub exponent: f64,
}

impl SkewSpec {
    /// A skew spec with the given exponent.
    pub fn new(exponent: f64) -> Self {
        SkewSpec { exponent }
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), LocalityError> {
        if !self.exponent.is_finite() || self.exponent < 0.0 {
            return err(format!(
                "zipf exponent {} must be finite and >= 0",
                self.exponent
            ));
        }
        Ok(())
    }
}

/// How a workload draws its src/dst host pairs, as plain data. Resolved into
/// a [`PairSampler`] against a concrete topology at build time.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum PairSpec {
    /// Source and destination uniform over distinct hosts (the paper's
    /// default and the historical behavior).
    #[default]
    Uniform,
    /// Rack-level locality (see [`LocalitySpec`]); hosts inside the chosen
    /// racks are picked uniformly.
    Locality(LocalitySpec),
    /// Zipf heavy-hitter skew over hosts (see [`SkewSpec`]).
    Skew(SkewSpec),
}

impl PairSpec {
    /// Resolve into a runtime sampler for `n_hosts` hosts whose rack
    /// assignment is `rack_of` (one rack id per host index, as produced by
    /// `TopologySpec::host_rack_ids`). `seed` feeds only the *static*
    /// randomness (the skew popularity shuffle) — per-flow draws come from
    /// the RNG handed to [`PairSampler::sample`].
    pub fn build(
        &self,
        n_hosts: usize,
        rack_of: &[usize],
        seed: u64,
    ) -> Result<PairSampler, LocalityError> {
        if n_hosts < 2 {
            return err(format!(
                "pair sampling needs at least 2 hosts, got {n_hosts}"
            ));
        }
        match self {
            PairSpec::Uniform => Ok(PairSampler::Uniform { n: n_hosts }),
            PairSpec::Locality(spec) => {
                if rack_of.len() != n_hosts {
                    return err(format!(
                        "rack assignment covers {} hosts, topology has {n_hosts}",
                        rack_of.len()
                    ));
                }
                let racks = rack_of.iter().copied().max().map_or(0, |m| m + 1);
                spec.validate(racks)?;
                let mut members: Vec<Vec<usize>> = vec![Vec::new(); racks];
                for (host, &r) in rack_of.iter().enumerate() {
                    members[r].push(host);
                }
                if let Some(empty) = members.iter().position(|m| m.is_empty()) {
                    return err(format!("rack {empty} has no hosts"));
                }
                let cum_rows = self::cumulative_rows(spec.rows(racks));
                Ok(PairSampler::Locality {
                    rack_of: rack_of.to_vec(),
                    members,
                    cum_rows,
                })
            }
            PairSpec::Skew(spec) => {
                spec.validate()?;
                // Popularity ranks: a deterministic Fisher–Yates shuffle of
                // the hosts from a dedicated seed stream, so "who is hot"
                // depends on the seed but never on per-flow draws.
                let mut rng = SplitMix64::new(derive_seed(seed, 0x5157)); // "skew" stream
                let mut perm: Vec<usize> = (0..n_hosts).collect();
                for i in (1..n_hosts).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    perm.swap(i, j);
                }
                let mut cum = Vec::with_capacity(n_hosts);
                let mut total = 0.0;
                for k in 0..n_hosts {
                    total += 1.0 / ((k + 1) as f64).powf(spec.exponent);
                    cum.push(total);
                }
                for c in &mut cum {
                    *c /= total;
                }
                Ok(PairSampler::Skew { cum, perm })
            }
        }
    }
}

fn cumulative_rows(rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    rows.into_iter()
        .map(|row| {
            let mut sum = 0.0;
            let mut cum: Vec<f64> = row
                .into_iter()
                .map(|p| {
                    sum += p;
                    sum
                })
                .collect();
            // Guard the last bucket against round-off so a u ~ 1.0 draw
            // always lands inside the matrix.
            if let Some(last) = cum.last_mut() {
                *last = f64::INFINITY;
            }
            cum
        })
        .collect()
}

/// A resolved pair sampler (see [`PairSpec`]). Samplers are immutable; all
/// per-flow randomness comes from the RNG passed to
/// [`PairSampler::sample`].
#[derive(Clone, Debug)]
pub enum PairSampler {
    /// Uniform over distinct host pairs.
    Uniform {
        /// Number of hosts.
        n: usize,
    },
    /// Rack-matrix locality.
    Locality {
        /// Rack id per host index.
        rack_of: Vec<usize>,
        /// Host indices per rack.
        members: Vec<Vec<usize>>,
        /// Cumulative probability rows of the rack matrix.
        cum_rows: Vec<Vec<f64>>,
    },
    /// Zipf heavy-hitter skew.
    Skew {
        /// Cumulative Zipf weights over popularity ranks (normalized).
        cum: Vec<f64>,
        /// `perm[rank]` = host index occupying that popularity rank.
        perm: Vec<usize>,
    },
}

impl PairSampler {
    /// Draw one `(src, dst)` host-index pair; `src != dst` is guaranteed.
    pub fn sample(&self, rng: &mut SplitMix64) -> (usize, usize) {
        match self {
            // Exactly the historical draw sequence (src below n, dst below
            // n-1 with shift) — existing uniform-workload digests depend on
            // it.
            PairSampler::Uniform { n } => {
                let src = rng.next_below(*n as u64) as usize;
                let mut dst = rng.next_below(*n as u64 - 1) as usize;
                if dst >= src {
                    dst += 1;
                }
                (src, dst)
            }
            PairSampler::Locality {
                rack_of,
                members,
                cum_rows,
            } => {
                let n: usize = rack_of.len();
                let src = rng.next_below(n as u64) as usize;
                let src_rack = rack_of[src];
                let u = rng.next_f64();
                let dst_rack = select_bucket(&cum_rows[src_rack], u);
                let pool = &members[dst_rack];
                let dst = if dst_rack == src_rack {
                    if pool.len() < 2 {
                        // A one-host rack cannot host an intra-rack flow;
                        // fall back to a uniform draw over the other hosts.
                        let mut d = rng.next_below(n as u64 - 1) as usize;
                        if d >= src {
                            d += 1;
                        }
                        d
                    } else {
                        // Uniform over the rack minus the source.
                        let pos = rack_position(pool, src);
                        let mut k = rng.next_below(pool.len() as u64 - 1) as usize;
                        if k >= pos {
                            k += 1;
                        }
                        pool[k]
                    }
                } else {
                    pool[rng.next_below(pool.len() as u64) as usize]
                };
                (src, dst)
            }
            PairSampler::Skew { cum, perm } => {
                let draw = |rng: &mut SplitMix64| {
                    let u = rng.next_f64();
                    perm[cum.partition_point(|&c| c < u).min(perm.len() - 1)]
                };
                let src = draw(rng);
                let mut dst = src;
                for _ in 0..64 {
                    dst = draw(rng);
                    if dst != src {
                        break;
                    }
                }
                if dst == src {
                    // Degenerate skew (essentially all mass on one host):
                    // deterministic fallback to the next host index.
                    dst = (src + 1) % perm.len();
                }
                (src, dst)
            }
        }
    }
}

/// Map a uniform draw `u` onto a bucket of a cumulative-probability row,
/// never returning a zero-probability bucket. `partition_point(c < u)`
/// alone would pick a leading zero-weight bucket when `u == 0.0` exactly
/// (a 2^-53 event, but it would violate the matrix contract); skipping
/// zero-width buckets closes that hole. The last bucket's cumulative is
/// `INFINITY`, so the scan always terminates in range.
fn select_bucket(cum_row: &[f64], u: f64) -> usize {
    let mut i = cum_row.partition_point(|&c| c < u);
    while i + 1 < cum_row.len() {
        let width = cum_row[i] - if i == 0 { 0.0 } else { cum_row[i - 1] };
        if width > 0.0 {
            break;
        }
        i += 1;
    }
    i
}

/// Position of `host` inside its (sorted-insertion) rack member list.
fn rack_position(pool: &[usize], host: usize) -> usize {
    pool.iter()
        .position(|&h| h == host)
        .expect("source host is a member of its own rack")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_many(sampler: &PairSampler, seed: u64, n: usize) -> Vec<(usize, usize)> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| sampler.sample(&mut rng)).collect()
    }

    #[test]
    fn uniform_reproduces_the_historical_draw_sequence() {
        let sampler = PairSpec::Uniform.build(8, &[0; 8], 1).unwrap();
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..200 {
            let (src, dst) = sampler.sample(&mut a);
            let old_src = b.next_below(8) as usize;
            let mut old_dst = b.next_below(7) as usize;
            if old_dst >= old_src {
                old_dst += 1;
            }
            assert_eq!((src, dst), (old_src, old_dst));
            assert_ne!(src, dst);
        }
    }

    #[test]
    fn locality_validation_rejects_bad_matrices() {
        let cases: Vec<(LocalitySpec, usize, &str)> = vec![
            (
                LocalitySpec::IntraRack { fraction: 1.2 },
                4,
                "not in [0, 1]",
            ),
            (
                LocalitySpec::IntraRack { fraction: -0.1 },
                4,
                "not in [0, 1]",
            ),
            (
                LocalitySpec::IntraRack { fraction: f64::NAN },
                4,
                "not in [0, 1]",
            ),
            (
                LocalitySpec::IntraRack { fraction: 0.5 },
                1,
                "at least 2 racks",
            ),
            (
                LocalitySpec::Matrix {
                    rows: vec![vec![1.0]],
                },
                2,
                "1 rows",
            ),
            (
                LocalitySpec::Matrix {
                    rows: vec![vec![0.5, 0.5], vec![1.0]],
                },
                2,
                "row 1 has 1 entries",
            ),
            (
                LocalitySpec::Matrix {
                    rows: vec![vec![0.7, 0.2], vec![0.5, 0.5]],
                },
                2,
                "row 0 sums to",
            ),
            (
                LocalitySpec::Matrix {
                    rows: vec![vec![1.5, -0.5], vec![0.5, 0.5]],
                },
                2,
                "not a probability",
            ),
        ];
        for (spec, racks, needle) in cases {
            let e = spec.validate(racks).unwrap_err();
            assert!(e.to_string().contains(needle), "{spec:?}: {e}");
        }
        // Valid specs pass.
        LocalitySpec::IntraRack { fraction: 0.8 }
            .validate(4)
            .unwrap();
        LocalitySpec::Matrix {
            rows: vec![vec![0.9, 0.1], vec![0.3, 0.7]],
        }
        .validate(2)
        .unwrap();
    }

    #[test]
    fn locality_sampler_never_emits_self_pairs_and_respects_the_fraction() {
        // 4 racks of 4 hosts.
        let rack_of: Vec<usize> = (0..16).map(|h| h / 4).collect();
        let spec = PairSpec::Locality(LocalitySpec::IntraRack { fraction: 0.75 });
        let sampler = spec.build(16, &rack_of, 7).unwrap();
        let pairs = draw_many(&sampler, 11, 20_000);
        let mut intra = 0;
        for &(s, d) in &pairs {
            assert_ne!(s, d);
            assert!(s < 16 && d < 16);
            if rack_of[s] == rack_of[d] {
                intra += 1;
            }
        }
        let frac = intra as f64 / pairs.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "intra-rack fraction {frac}");
    }

    #[test]
    fn bucket_selection_never_lands_on_zero_probability_buckets() {
        // u == 0.0 exactly (the 2^-53 RNG corner) must skip leading
        // zero-weight buckets instead of emitting into them.
        let inf = f64::INFINITY;
        assert_eq!(select_bucket(&[0.0, inf], 0.0), 1);
        assert_eq!(select_bucket(&[0.0, 0.0, 0.4, inf], 0.0), 2);
        // Ordinary draws are unchanged by the skip.
        assert_eq!(select_bucket(&[0.3, 0.3, inf], 0.2), 0);
        assert_eq!(select_bucket(&[0.3, 0.3, inf], 0.3), 0);
        assert_eq!(select_bucket(&[0.3, 0.3, inf], 0.31), 2);
        assert_eq!(select_bucket(&[0.5, inf], 0.9999), 1);
    }

    #[test]
    fn locality_matrix_rows_steer_destination_racks() {
        // Rack 0 sends everything to rack 1; rack 1 splits evenly.
        let rack_of = vec![0, 0, 1, 1];
        let spec = PairSpec::Locality(LocalitySpec::Matrix {
            rows: vec![vec![0.0, 1.0], vec![0.5, 0.5]],
        });
        let sampler = spec.build(4, &rack_of, 3).unwrap();
        for (s, d) in draw_many(&sampler, 5, 5_000) {
            assert_ne!(s, d);
            if rack_of[s] == 0 {
                assert_eq!(rack_of[d], 1, "rack 0 must only target rack 1");
            }
        }
    }

    #[test]
    fn single_host_rack_intra_draw_falls_back_instead_of_looping() {
        // Rack 1 has one host; an all-intra matrix would strand it.
        let rack_of = vec![0, 0, 1];
        let spec = PairSpec::Locality(LocalitySpec::IntraRack { fraction: 1.0 });
        let sampler = spec.build(3, &rack_of, 1).unwrap();
        for (s, d) in draw_many(&sampler, 2, 2_000) {
            assert_ne!(s, d);
        }
    }

    #[test]
    fn skew_is_deterministic_per_seed_and_actually_skewed() {
        let spec = PairSpec::Skew(SkewSpec::new(1.2));
        let a = spec.build(32, &[0; 32], 9).unwrap();
        let b = spec.build(32, &[0; 32], 9).unwrap();
        // Same build seed + same draw seed = identical pair sequence.
        assert_eq!(draw_many(&a, 4, 1_000), draw_many(&b, 4, 1_000));
        // A different build seed relocates the hot hosts.
        let c = spec.build(32, &[0; 32], 10).unwrap();
        assert_ne!(draw_many(&a, 4, 1_000), draw_many(&c, 4, 1_000));
        // The most popular source dominates: its share is far above 1/32.
        let pairs = draw_many(&a, 4, 20_000);
        let mut counts = vec![0usize; 32];
        for &(s, d) in &pairs {
            assert_ne!(s, d);
            counts[s] += 1;
        }
        let hottest = *counts.iter().max().unwrap() as f64 / pairs.len() as f64;
        assert!(
            hottest > 0.15,
            "hottest host share {hottest} (uniform ~ 0.03)"
        );
        // Exponent 0 degenerates to (shuffled) uniform.
        let flat = PairSpec::Skew(SkewSpec::new(0.0))
            .build(32, &[0; 32], 9)
            .unwrap();
        let mut counts = vec![0usize; 32];
        for (s, _) in draw_many(&flat, 4, 32_000) {
            counts[s] += 1;
        }
        let hottest = *counts.iter().max().unwrap() as f64 / 32_000.0;
        assert!(hottest < 0.05, "flat skew share {hottest}");
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(PairSpec::Uniform.build(1, &[0], 1).is_err());
        assert!(PairSpec::Skew(SkewSpec::new(f64::NAN))
            .build(4, &[0; 4], 1)
            .is_err());
        assert!(PairSpec::Skew(SkewSpec::new(-1.0))
            .build(4, &[0; 4], 1)
            .is_err());
        // Rack assignment must cover every host.
        let spec = PairSpec::Locality(LocalitySpec::IntraRack { fraction: 0.5 });
        assert!(spec.build(4, &[0, 1], 1).is_err());
        // A rack id with no hosts (sparse ids) is rejected.
        let sparse = PairSpec::Locality(LocalitySpec::Matrix {
            rows: vec![vec![0.5, 0.0, 0.5]; 3],
        });
        assert!(sparse.build(4, &[0, 0, 2, 2], 1).is_err());
    }
}
