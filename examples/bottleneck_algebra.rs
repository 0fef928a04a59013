//! The paper's running example, end to end: the port mappings of
//! Figures 2 and 4, the throughput computation of Example 1, and the
//! equivalence of the bottleneck simulation algorithm with the linear
//! program (Appendix A).
//!
//! Run with: `cargo run --example bottleneck_algebra`

use pmevo::core::bottleneck::{lp_throughput, MassVector};
use pmevo::core::{
    Experiment, InstId, PortSet, ThreeLevelMapping, ThroughputSolver, TwoLevelMapping, UopEntry,
};

fn main() {
    // --- Figure 2: the two-level mapping. ---
    let mul = PortSet::from_ports(&[0]);
    let arith = PortSet::from_ports(&[0, 1]);
    let store = PortSet::from_ports(&[2]);
    let fig2 = TwoLevelMapping::new(3, vec![mul, arith, arith, store]);
    let (i_mul, i_add, _i_sub, i_store) = (InstId(0), InstId(1), InstId(2), InstId(3));

    // --- Example 1: e = {add ↦ 2, mul ↦ 1, store ↦ 1}. ---
    let e = Experiment::from_counts(&[(i_add, 2), (i_mul, 1), (i_store, 1)]);
    let tp = fig2.throughput(&e);
    println!("Example 1: t*({e}) = {tp}  (paper: 1.5 cycles)");
    assert_eq!(tp, 1.5);

    // The bottleneck set Q* = {P1, P2}: mass 3 over 2 ports (Example 2).
    let mut masses = MassVector::new();
    masses.add(arith, 2.0);
    masses.add(mul, 1.0);
    masses.add(store, 1.0);
    for q_size in 1..=3 {
        println!("  subsets of size {q_size} bound t* from below");
    }
    println!(
        "  bottleneck algorithm: {}, LP solver: {}",
        ThroughputSolver::new().throughput(&masses),
        lp_throughput(&masses)
    );

    // --- Figure 4: the three-level mapping with µop decomposition. ---
    let u1 = PortSet::from_ports(&[0]);
    let u2 = PortSet::from_ports(&[0, 1]);
    let u3 = PortSet::from_ports(&[2]);
    let fig4 = ThreeLevelMapping::new(
        3,
        vec![
            vec![UopEntry::new(2, u1)],                       // mul = 2×U1
            vec![UopEntry::new(1, u2)],                       // add = U2
            vec![UopEntry::new(1, u2)],                       // sub = U2
            vec![UopEntry::new(1, u2), UopEntry::new(1, u3)], // store = U2+U3
        ],
    );
    println!("\nFigure 4 mapping: V(m) = {}, {} distinct µops", fig4.volume(), fig4.num_distinct_uops());
    for (name, e) in [
        ("mul alone", Experiment::singleton(i_mul)),
        ("store alone", Experiment::singleton(i_store)),
        ("mul + store", Experiment::pair(i_mul, 1, i_store, 1)),
        ("add + store ×2", Experiment::pair(i_add, 1, i_store, 2)),
    ] {
        let t3 = fig4.throughput(&e);
        let lp = lp_throughput(&fig4.uop_masses(&e));
        println!("  {name:16} t* = {t3:.3}  (LP agrees: {lp:.3})");
        assert!((t3 - lp).abs() < 1e-9);
    }
    println!("\nAppendix A verified on these instances: bottleneck == LP optimum.");
}
