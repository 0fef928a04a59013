//! The concrete numbers from the paper's worked examples, as tests:
//! Figure 2 / Example 1 / Example 2 (two-level), Figure 4 (three-level),
//! and the §3.2 reduction.

use pmevo::core::bottleneck::{lp_throughput, throughput_naive, MassVector};
use pmevo::core::{
    Experiment, InstId, PortSet, ThreeLevelMapping, ThroughputSolver, TwoLevelMapping, UopEntry,
};

const MUL: InstId = InstId(0);
const ADD: InstId = InstId(1);
const SUB: InstId = InstId(2);
const STORE: InstId = InstId(3);

fn figure2() -> TwoLevelMapping {
    TwoLevelMapping::new(
        3,
        vec![
            PortSet::from_ports(&[0]),    // mul -> P1
            PortSet::from_ports(&[0, 1]), // add -> P1, P2
            PortSet::from_ports(&[0, 1]), // sub -> P1, P2
            PortSet::from_ports(&[2]),    // store -> P3
        ],
    )
}

fn figure4() -> ThreeLevelMapping {
    let u1 = PortSet::from_ports(&[0]);
    let u2 = PortSet::from_ports(&[0, 1]);
    let u3 = PortSet::from_ports(&[2]);
    ThreeLevelMapping::new(
        3,
        vec![
            vec![UopEntry::new(2, u1)],
            vec![UopEntry::new(1, u2)],
            vec![UopEntry::new(1, u2)],
            vec![UopEntry::new(1, u2), UopEntry::new(1, u3)],
        ],
    )
}

#[test]
fn example1_throughput_is_one_and_a_half() {
    let e = Experiment::from_counts(&[(ADD, 2), (MUL, 1), (STORE, 1)]);
    assert_eq!(figure2().throughput(&e), 1.5);
}

#[test]
fn example2_bottleneck_set_is_p1_p2() {
    // Equation 1 by hand: the maximizing Q is {P1, P2} with mass 3.
    let m = figure2();
    let e = Experiment::from_counts(&[(ADD, 2), (MUL, 1), (STORE, 1)]);
    // Q = {P1}: only mul is confined -> 1; Q = {P3}: store -> 1;
    // Q = {P1, P2}: mul + 2 add = 3 mass over 2 ports -> 1.5.
    assert_eq!(m.throughput(&e), 1.5);
    // Dropping the store leaves the bottleneck unchanged.
    let e2 = Experiment::from_counts(&[(ADD, 2), (MUL, 1)]);
    assert_eq!(m.throughput(&e2), 1.5);
    // Dropping one add moves the bottleneck to mass 2 over 2 ports.
    let e3 = Experiment::from_counts(&[(ADD, 1), (MUL, 1)]);
    assert_eq!(m.throughput(&e3), 1.0);
}

#[test]
fn add_and_sub_are_interchangeable_in_figure2() {
    let m = figure2();
    let with_add = Experiment::from_counts(&[(ADD, 2), (MUL, 1)]);
    let with_sub = Experiment::from_counts(&[(SUB, 2), (MUL, 1)]);
    let mixed = Experiment::from_counts(&[(ADD, 1), (SUB, 1), (MUL, 1)]);
    assert_eq!(m.throughput(&with_add), m.throughput(&with_sub));
    assert_eq!(m.throughput(&with_add), m.throughput(&mixed));
}

#[test]
fn figure4_store_has_partial_conflict_with_add() {
    // The paper notes the three-level model captures store's partial
    // conflict with add/sub, which the two-level model cannot.
    let m = figure4();
    // store alone: U2 and U3 on different ports -> 1 cycle.
    assert_eq!(m.throughput(&Experiment::singleton(STORE)), 1.0);
    // store + add + sub: three U2 µops over P1, P2 -> 1.5 cycles.
    let e = Experiment::from_counts(&[(STORE, 1), (ADD, 1), (SUB, 1)]);
    assert_eq!(m.throughput(&e), 1.5);
}

#[test]
fn figure4_mul_decomposes_into_two_uops() {
    let m = figure4();
    assert_eq!(m.num_uops_of(MUL), 2);
    assert_eq!(m.throughput(&Experiment::singleton(MUL)), 2.0);
    // Volume: mul 2×1 + add 1×2 + sub 1×2 + store (1×2 + 1×1) = 9.
    assert_eq!(m.volume(), 9);
}

#[test]
fn section_3_2_reduction_to_two_level() {
    let m = figure4();
    let e = Experiment::from_counts(&[(MUL, 1), (ADD, 2), (STORE, 1)]);
    // Manual reduction: e' = {U1 ↦ 2, U2 ↦ 3, U3 ↦ 1}.
    let mut manual = MassVector::new();
    manual.add(PortSet::from_ports(&[0]), 2.0);
    manual.add(PortSet::from_ports(&[0, 1]), 3.0);
    manual.add(PortSet::from_ports(&[2]), 1.0);
    assert_eq!(m.uop_masses(&e), manual);
    // All engines agree on its throughput: bottleneck at {P1,P2} = 5/2.
    assert_eq!(m.throughput(&e), 2.5);
    assert_eq!(ThroughputSolver::new().throughput(&manual), 2.5);
    assert_eq!(throughput_naive(&manual), 2.5);
    assert!((lp_throughput(&manual) - 2.5).abs() < 1e-9);
}
