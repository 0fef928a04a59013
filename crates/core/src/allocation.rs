//! Bottleneck diagnosis and port allocations.
//!
//! Beyond the scalar throughput, the throughput LP carries two artifacts
//! that performance tools surface to users:
//!
//! * the **bottleneck set** `Q*` — the subset of ports that limits the
//!   experiment (Equation 1's argmax; what IACA reports as the
//!   "bottleneck resource"), and
//! * a **port allocation** — an optimal distribution of µop mass over
//!   ports (the bucket diagram of paper Figure 3).
//!
//! Both are computed exactly: the bottleneck set by the same subset
//! enumeration as the throughput, the allocation from the simplex
//! solution of the LP.

use crate::bottleneck_impl::{compact, MassVector};
use crate::{PortSet, MAX_PORTS};
use pmevo_lp::{Problem, Relation};

/// The diagnosis of one experiment under one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// The smallest maximizing port subset `Q*` of Equation 1.
    pub ports: PortSet,
    /// The throughput `t*` determined by that set.
    pub throughput: f64,
    /// Total µop mass confined to `Q*`.
    pub mass: f64,
}

/// Computes the bottleneck set of Equation 1: the *smallest* subset of
/// ports attaining the maximal mass/size quotient (ties broken toward
/// fewer ports, then lower port numbers, so the result is deterministic
/// and maximally specific).
///
/// Returns `None` for an empty experiment.
///
/// # Panics
///
/// Panics if more than [`crate::bottleneck::MAX_ENUMERABLE_PORTS`]
/// ports are live.
pub fn bottleneck_set(masses: &MassVector) -> Option<Bottleneck> {
    let mut compacted = Vec::new();
    let live = compact(masses, &mut compacted);
    let k = live.len();
    if k == 0 {
        return None;
    }
    let dense_to_global: Vec<usize> = live.iter().collect();
    let size = 1usize << k;
    let mut sum = vec![0.0f64; size];
    for &(mask, mass) in &compacted {
        sum[mask as usize] += mass;
    }
    for bit in 0..k {
        let b = 1usize << bit;
        for q in 0..size {
            if q & b != 0 {
                sum[q] += sum[q ^ b];
            }
        }
    }
    let mut best_q = 1usize;
    let mut best_t = f64::NEG_INFINITY;
    for (q, &s) in sum.iter().enumerate().skip(1) {
        let t = s / (q.count_ones() as f64);
        let better = t > best_t + 1e-12
            || ((t - best_t).abs() <= 1e-12 && q.count_ones() < best_q.count_ones());
        if better {
            best_t = t;
            best_q = q;
        }
    }
    let mut ports = PortSet::EMPTY;
    for bit in 0..k {
        if best_q & (1 << bit) != 0 {
            ports = ports.with(dense_to_global[bit]);
        }
    }
    Some(Bottleneck {
        ports,
        throughput: best_t,
        mass: sum[best_q],
    })
}

/// An optimal distribution of µop mass over ports: entry `(u, k)` is the
/// mass of µop `u` (identified by its port set) executed on port `k` —
/// the paper's `x_uk` variables, i.e. the bucket diagram of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PortAllocation {
    /// `(µop port set, port, mass)` triples with positive mass.
    pub shares: Vec<(PortSet, usize, f64)>,
    /// The optimal throughput (max port load).
    pub throughput: f64,
    /// Number of ports of the underlying machine view (live ports only).
    pub num_ports: usize,
}

impl PortAllocation {
    /// Total mass assigned to `port`.
    pub fn load_of(&self, port: usize) -> f64 {
        self.shares
            .iter()
            .filter(|&&(_, k, _)| k == port)
            .map(|&(_, _, m)| m)
            .sum()
    }

    /// All per-port loads, indexed by port number (dense up to the
    /// highest used port).
    pub fn loads(&self) -> Vec<f64> {
        let max_port = self
            .shares
            .iter()
            .map(|&(_, k, _)| k)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut out = vec![0.0; max_port];
        for &(_, k, m) in &self.shares {
            out[k] += m;
        }
        out
    }
}

/// Solves the throughput LP and extracts the full optimal allocation.
///
/// Returns `None` for an empty experiment.
///
/// # Panics
///
/// Panics if the LP solver fails (impossible for well-formed inputs).
pub fn optimal_allocation(masses: &MassVector) -> Option<PortAllocation> {
    if masses.is_empty() {
        return None;
    }
    let live = masses.live_ports();
    let ports: Vec<usize> = live.iter().collect();

    let mut edge_vars: Vec<Vec<(usize, usize)>> = Vec::with_capacity(masses.len());
    let mut next_var = 0usize;
    for (uop_ports, _) in masses.iter() {
        let vars = uop_ports
            .iter()
            .map(|p| {
                let v = next_var;
                next_var += 1;
                (p, v)
            })
            .collect();
        edge_vars.push(vars);
    }
    let t_var = next_var;
    let mut problem = Problem::minimize(t_var + 1);
    problem.set_objective_coeff(t_var, 1.0);
    for (u, (_, mass)) in masses.iter().enumerate() {
        let terms: Vec<(usize, f64)> = edge_vars[u].iter().map(|&(_, v)| (v, 1.0)).collect();
        problem.add_constraint(&terms, Relation::Eq, mass);
    }
    for &port in &ports {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for vars in &edge_vars {
            for &(p, v) in vars {
                if p == port {
                    terms.push((v, 1.0));
                }
            }
        }
        terms.push((t_var, -1.0));
        problem.add_constraint(&terms, Relation::Le, 0.0);
    }
    let solution = problem
        .solve()
        .expect("throughput LP is feasible and bounded by construction");

    let mut shares = Vec::new();
    for (u, (uop_ports, _)) in masses.iter().enumerate() {
        for &(p, v) in &edge_vars[u] {
            let m = solution.value(v);
            if m > 1e-9 {
                shares.push((uop_ports, p, m));
            }
        }
    }
    Some(PortAllocation {
        shares,
        throughput: solution.objective(),
        num_ports: MAX_PORTS.min(ports.last().map(|p| p + 1).unwrap_or(0)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ports: &[usize]) -> PortSet {
        PortSet::from_ports(ports)
    }

    fn example1() -> MassVector {
        let mut mv = MassVector::new();
        mv.add(ps(&[0, 1]), 2.0); // 2×add
        mv.add(ps(&[0]), 1.0); // mul
        mv.add(ps(&[2]), 1.0); // store
        mv
    }

    #[test]
    fn example2_bottleneck_is_p1_p2() {
        // Paper Example 2: Q* = {P1, P2} (our ports 0, 1).
        let b = bottleneck_set(&example1()).unwrap();
        assert_eq!(b.ports, ps(&[0, 1]));
        assert_eq!(b.throughput, 1.5);
        assert_eq!(b.mass, 3.0);
    }

    #[test]
    fn smallest_bottleneck_set_wins_ties() {
        // Port 0 carries 2 mass; ports {1,2} carry 4 together: both give
        // t = 2; the singleton must be reported.
        let mut mv = MassVector::new();
        mv.add(ps(&[0]), 2.0);
        mv.add(ps(&[1, 2]), 4.0);
        let b = bottleneck_set(&mv).unwrap();
        assert_eq!(b.throughput, 2.0);
        assert_eq!(b.ports, ps(&[0]));
    }

    #[test]
    fn empty_experiment_has_no_bottleneck() {
        assert_eq!(bottleneck_set(&MassVector::new()), None);
        assert_eq!(optimal_allocation(&MassVector::new()), None);
    }

    #[test]
    fn allocation_reproduces_figure3() {
        let alloc = optimal_allocation(&example1()).unwrap();
        assert!((alloc.throughput - 1.5).abs() < 1e-9);
        // Mass conservation per µop.
        let add_mass: f64 = alloc
            .shares
            .iter()
            .filter(|&&(u, _, _)| u == ps(&[0, 1]))
            .map(|&(_, _, m)| m)
            .sum();
        assert!((add_mass - 2.0).abs() < 1e-9);
        // No port exceeds the throughput.
        for (p, load) in alloc.loads().iter().enumerate() {
            assert!(*load <= alloc.throughput + 1e-9, "port {p} overloaded");
        }
        // The bottleneck ports are fully loaded.
        assert!((alloc.load_of(0) - 1.5).abs() < 1e-9);
        assert!((alloc.load_of(1) - 1.5).abs() < 1e-9);
        assert!((alloc.load_of(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_throughput_matches_fast_engine() {
        let mut solver = crate::ThroughputSolver::new();
        let cases: Vec<MassVector> = vec![
            example1(),
            [(ps(&[0, 3]), 2.5), (ps(&[1, 3]), 0.5), (ps(&[0, 1]), 1.5)]
                .into_iter()
                .collect(),
            [(ps(&[5]), 4.0)].into_iter().collect(),
        ];
        for mv in cases {
            let b = bottleneck_set(&mv).unwrap();
            assert!((b.throughput - solver.throughput(&mv)).abs() < 1e-9);
            let a = optimal_allocation(&mv).unwrap();
            assert!((a.throughput - b.throughput).abs() < 1e-7);
        }
    }

    #[test]
    fn high_port_numbers_map_back_correctly() {
        let mut mv = MassVector::new();
        mv.add(ps(&[40]), 3.0);
        mv.add(ps(&[40, 63]), 1.0);
        let b = bottleneck_set(&mv).unwrap();
        assert_eq!(b.ports, ps(&[40]));
        assert_eq!(b.throughput, 3.0);
    }
}
