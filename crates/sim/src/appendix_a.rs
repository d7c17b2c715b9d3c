//! The paper's Appendix A as a library: the A.2 rate recursion over an
//! explicit path×resource incidence matrix ([`FluidNetwork`]) and the A.3
//! additive-increase equilibrium forms ([`ai_equilibrium_rate`],
//! [`ai_equilibrium_utilization`]). The `fluid_convergence` figure and the
//! lemma tests below exercise them directly; no simulation engine uses
//! them.

/// A fluid network: `I` resources with capacities, `J` paths described by an
/// incidence matrix.
///
/// Appendix A.2 of the paper proves that the synchronous update
///
/// ```text
/// Y(n)     = A · R(n)
/// R_j(n+1) = R_j(n) / max_i { Y_i(n) · A_ij / C_i }
/// ```
///
/// (every path divides its rate by the utilization of its most-loaded
/// resource) reaches a *feasible* allocation after one step, never decreases
/// afterwards, and converges to a Pareto-optimal allocation (the paper's
/// induction removes each saturated resource *and its load* from the
/// network; on the unreduced recursion the remaining paths approach their
/// bottleneck geometrically, so Pareto optimality is verified within a small
/// tolerance rather than after exactly `I` steps).
#[derive(Clone, Debug)]
pub struct FluidNetwork {
    /// `incidence[i][j] == true` iff resource `i` is used by path `j`.
    pub incidence: Vec<Vec<bool>>,
    /// Capacity of each resource.
    pub capacities: Vec<f64>,
}

impl FluidNetwork {
    /// Build a network from an incidence matrix and capacities.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent, a capacity is not positive, or
    /// some path uses no resource (the lemma requires every column of `A` to
    /// be non-zero).
    pub fn new(incidence: Vec<Vec<bool>>, capacities: Vec<f64>) -> Self {
        assert_eq!(incidence.len(), capacities.len(), "one row per resource");
        assert!(!incidence.is_empty(), "need at least one resource");
        let paths = incidence[0].len();
        assert!(paths > 0, "need at least one path");
        for row in &incidence {
            assert_eq!(row.len(), paths, "ragged incidence matrix");
        }
        for &c in &capacities {
            assert!(c > 0.0, "capacities must be positive");
        }
        for j in 0..paths {
            assert!(
                incidence.iter().any(|row| row[j]),
                "path {j} uses no resource"
            );
        }
        FluidNetwork {
            incidence,
            capacities,
        }
    }

    /// Number of resources `I`.
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// Number of paths `J`.
    pub fn paths(&self) -> usize {
        self.incidence[0].len()
    }

    /// Load `Y = A · R` on every resource.
    pub fn loads(&self, rates: &[f64]) -> Vec<f64> {
        self.incidence
            .iter()
            .map(|row| {
                row.iter()
                    .zip(rates)
                    .filter(|(used, _)| **used)
                    .map(|(_, r)| *r)
                    .sum()
            })
            .collect()
    }

    /// True if no resource is loaded above its capacity (within `eps`).
    pub fn is_feasible(&self, rates: &[f64], eps: f64) -> bool {
        self.loads(rates)
            .iter()
            .zip(&self.capacities)
            .all(|(y, c)| *y <= c * (1.0 + eps))
    }

    /// One synchronous update of the Appendix A.2 recursion (equations 5–6).
    pub fn step(&self, rates: &[f64]) -> Vec<f64> {
        let loads = self.loads(rates);
        rates
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let k = self
                    .incidence
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| row[j])
                    .map(|(i, _)| loads[i] / self.capacities[i])
                    .fold(f64::MIN, f64::max);
                r / k.max(f64::MIN_POSITIVE)
            })
            .collect()
    }

    /// Iterate the recursion from `initial` until the rates stop changing
    /// (relative change below `tol`) or `max_steps` is reached. Returns the
    /// trajectory including the initial point.
    pub fn converge(&self, initial: &[f64], tol: f64, max_steps: usize) -> Vec<Vec<f64>> {
        let mut trajectory = vec![initial.to_vec()];
        for _ in 0..max_steps {
            let next = self.step(trajectory.last().unwrap());
            let prev = trajectory.last().unwrap();
            let changed = next
                .iter()
                .zip(prev)
                .any(|(a, b)| (a - b).abs() > tol * b.abs().max(1e-12));
            trajectory.push(next);
            if !changed {
                break;
            }
        }
        trajectory
    }

    /// True if the allocation is Pareto optimal: every path crosses at least
    /// one resource that is (nearly) saturated.
    pub fn is_pareto_optimal(&self, rates: &[f64], eps: f64) -> bool {
        let loads = self.loads(rates);
        (0..self.paths()).all(|j| {
            self.incidence
                .iter()
                .enumerate()
                .filter(|(_, row)| row[j])
                .any(|(i, _)| loads[i] >= self.capacities[i] * (1.0 - eps))
        })
    }
}

/// Appendix A.3: the equilibrium rate of a source whose most congested
/// bottleneck sits at utilization `u`, with target utilization `u_target`
/// and additive increase `a` per RTT: `R = a / (1 - u_target / u)`.
pub fn ai_equilibrium_rate(a: f64, u_target: f64, u: f64) -> f64 {
    assert!(u > u_target, "equilibrium requires U > U_target");
    a / (1.0 - u_target / u)
}

/// Appendix A.3 (inverted): the equilibrium utilization of the most
/// congested bottleneck when its flows settle at rate `r`:
/// `U = U_target / (1 - a / r)`.
pub fn ai_equilibrium_utilization(a: f64, u_target: f64, r: f64) -> f64 {
    assert!(r > a, "rate must exceed the additive increase");
    u_target / (1.0 - a / r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic two-resource line network: path 0 uses both resources,
    /// paths 1 and 2 use one each.
    fn line_network() -> FluidNetwork {
        FluidNetwork::new(
            vec![vec![true, true, false], vec![true, false, true]],
            vec![10.0, 20.0],
        )
    }

    #[test]
    fn one_step_reaches_feasibility() {
        let net = line_network();
        let start = vec![50.0, 50.0, 50.0];
        assert!(!net.is_feasible(&start, 1e-9));
        let after = net.step(&start);
        assert!(
            net.is_feasible(&after, 1e-9),
            "lemma (i): feasible after one step"
        );
    }

    #[test]
    fn rates_never_decrease_after_the_first_step() {
        let net = line_network();
        let trajectory = net.converge(&[50.0, 50.0, 50.0], 1e-12, 20);
        for w in trajectory[1..].windows(2) {
            for (a, b) in w[0].iter().zip(&w[1]) {
                assert!(b + 1e-9 >= *a, "lemma (ii): rates are non-decreasing");
            }
        }
    }

    #[test]
    fn converges_to_pareto_optimum() {
        let net = line_network();
        // The most-utilized resource saturates after exactly one step
        // (lemma): resource 0 carries 10 = C_0 from then on.
        let after_one = net.step(&[50.0, 50.0, 50.0]);
        assert!((net.loads(&after_one)[0] - 10.0).abs() < 1e-9);
        let trajectory = net.converge(&[50.0, 50.0, 50.0], 1e-9, 100);
        let last = trajectory.last().unwrap();
        assert!(
            net.is_pareto_optimal(last, 1e-6),
            "lemma (iii): Pareto optimal"
        );
        // The expected fixed point: resource 0 saturates first (10 split
        // between paths 0 and 1), then path 2 grabs the slack on resource 1.
        assert!((last[0] - 5.0).abs() < 1e-6);
        assert!((last[1] - 5.0).abs() < 1e-6);
        assert!((last[2] - 15.0).abs() < 1e-4);
    }

    #[test]
    fn random_networks_satisfy_the_lemma() {
        // Deterministic pseudo-random sweep over many topologies.
        let mut x: u64 = 0xfeed_beef;
        let mut rand = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        for case in 0..50 {
            let resources = 1 + (rand() * 5.0) as usize;
            let paths = 1 + (rand() * 6.0) as usize;
            let mut incidence = vec![vec![false; paths]; resources];
            for (j, _) in (0..paths).enumerate() {
                // Every path uses at least one resource.
                let forced = (rand() * resources as f64) as usize % resources;
                incidence[forced][j] = true;
                for row in incidence.iter_mut() {
                    if rand() < 0.3 {
                        row[j] = true;
                    }
                }
            }
            let capacities: Vec<f64> = (0..resources).map(|_| 1.0 + rand() * 99.0).collect();
            let net = FluidNetwork::new(incidence, capacities);
            let initial: Vec<f64> = (0..paths).map(|_| 0.1 + rand() * 200.0).collect();
            let after_one = net.step(&initial);
            assert!(
                net.is_feasible(&after_one, 1e-9),
                "case {case}: feasible after one step"
            );
            let trajectory = net.converge(&initial, 1e-10, 200);
            let last = trajectory.last().unwrap();
            assert!(
                net.is_pareto_optimal(last, 1e-3),
                "case {case}: Pareto optimal"
            );
            assert!(net.is_feasible(last, 1e-6), "case {case}: final feasible");
        }
    }

    #[test]
    fn ai_equilibrium_matches_the_papers_example() {
        // §A.3: with U_target = 95%, the utilization stays below 100% as long
        // as a < 5% of the flow rate.
        let a = 0.04;
        let r = 1.0;
        let u = ai_equilibrium_utilization(a, 0.95, r);
        assert!(u < 1.0, "u = {u}");
        let a_too_big = 0.06;
        let u2 = ai_equilibrium_utilization(a_too_big, 0.95, r);
        assert!(u2 > 1.0, "u2 = {u2}");
        // Round-trip between the two forms.
        let r_back = ai_equilibrium_rate(a, 0.95, u);
        assert!((r_back - r).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "path 1 uses no resource")]
    fn rejects_paths_without_resources() {
        FluidNetwork::new(vec![vec![true, false]], vec![10.0]);
    }
}
