//! Verifies paper Appendix A: the bottleneck simulation algorithm computes
//! exactly the optimum of the throughput linear program, for random
//! two-level and three-level instances, and the solver and the naive
//! (rescan) oracle agree.

use proptest::prelude::*;
use pmevo_core::bottleneck::{lp_throughput, throughput_naive, MassVector};
use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, ThroughputSolver, UopEntry};

/// The bottleneck kernel through its one entry point.
fn solve(mv: &MassVector) -> f64 {
    ThroughputSolver::new().throughput(mv)
}

/// A random non-empty port set over `num_ports` ports.
fn port_set(num_ports: usize) -> impl Strategy<Value = PortSet> {
    (1u64..(1u64 << num_ports)).prop_map(PortSet::from_mask)
}

fn mass_vector(num_ports: usize) -> impl Strategy<Value = MassVector> {
    proptest::collection::vec((port_set(num_ports), 0.01..20.0f64), 1..8)
        .prop_map(|items| items.into_iter().collect())
}

fn three_level_mapping(num_ports: usize, num_insts: usize) -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(
        proptest::collection::vec((1u32..4, port_set(num_ports)), 1..4),
        num_insts,
    )
    .prop_map(move |decomp| {
        ThreeLevelMapping::new(
            num_ports,
            decomp
                .into_iter()
                .map(|entries| {
                    entries
                        .into_iter()
                        .map(|(n, ps)| UopEntry::new(n, ps))
                        .collect()
                })
                .collect(),
        )
    })
}

fn experiment(num_insts: usize) -> impl Strategy<Value = Experiment> {
    proptest::collection::vec((0..num_insts as u32, 1u32..5), 1..6)
        .prop_map(|counts| {
            counts
                .into_iter()
                .map(|(i, n)| (InstId(i), n))
                .collect::<Experiment>()
        })
}

proptest! {
    // Case budget: capped so the whole workspace suite stays well under
    // a minute; override downward with PROPTEST_CASES=<n> (see vendored
    // proptest). Cases are drawn from a per-test deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Appendix A, two-level: bottleneck == LP optimum.
    #[test]
    fn two_level_bottleneck_equals_lp(mv in mass_vector(6)) {
        let fast = solve(&mv);
        let lp = lp_throughput(&mv);
        prop_assert!((fast - lp).abs() < 1e-6,
            "bottleneck {fast} != LP {lp} for {mv:?}");
    }

    /// The solver and the naive (rescan) oracle agree exactly.
    #[test]
    fn fast_equals_naive(mv in mass_vector(8)) {
        let fast = solve(&mv);
        let naive = throughput_naive(&mv);
        prop_assert!((fast - naive).abs() < 1e-9,
            "fast {fast} != naive {naive} for {mv:?}");
    }

    /// §3.2 reduction: three-level throughput equals the two-level
    /// throughput of the µop mass vector, and equals the LP optimum.
    #[test]
    fn three_level_reduction_is_consistent(
        (m, e) in three_level_mapping(5, 6).prop_flat_map(|m| {
            let n = m.num_insts();
            (Just(m), experiment(n))
        })
    ) {
        let tp = m.throughput(&e);
        let masses = m.uop_masses(&e);
        let via_two_level = solve(&masses);
        prop_assert!((tp - via_two_level).abs() < 1e-12);
        let lp = lp_throughput(&masses);
        prop_assert!((tp - lp).abs() < 1e-6, "3L bottleneck {tp} != LP {lp}");
    }

    /// Monotonicity: adding mass never decreases throughput.
    #[test]
    fn throughput_is_monotone_in_mass(
        mv in mass_vector(6),
        extra in (port_set(6), 0.01..5.0f64),
    ) {
        let base = solve(&mv);
        let mut bigger = mv.clone();
        bigger.add(extra.0, extra.1);
        prop_assert!(solve(&bigger) >= base - 1e-12);
    }

    /// Scaling: throughput is positively homogeneous in the masses.
    #[test]
    fn throughput_is_homogeneous(mv in mass_vector(6), scale in 0.1..10.0f64) {
        let scaled: MassVector = mv.iter().map(|(p, m)| (p, m * scale)).collect();
        let a = solve(&mv) * scale;
        let b = solve(&scaled);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// Lower/upper bounds: total_mass/|P| ≤ t* ≤ total_mass, and t* is at
    /// least the heaviest single µop's mass divided by its width.
    #[test]
    fn throughput_bounds(mv in mass_vector(6)) {
        let t = solve(&mv);
        let total = mv.total_mass();
        let live = mv.live_ports().len() as f64;
        prop_assert!(t <= total + 1e-9);
        prop_assert!(t >= total / live - 1e-9);
        for (p, m) in mv.iter() {
            prop_assert!(t >= m / p.len() as f64 - 1e-9);
        }
    }
}
