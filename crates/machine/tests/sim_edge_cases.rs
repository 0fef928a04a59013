//! Edge-case integration tests for the cycle-level simulator: extreme
//! pipeline shapes must degrade gracefully, and throughput must respond
//! to each structural hazard in the expected direction.

mod support;

use pmevo_core::{Experiment, InstId, PortSet, UopEntry};
use pmevo_isa::LoopBuilder;
use pmevo_machine::{platforms, simulate_kernel, Platform};
use support::{custom_platform, edge_decomposition, platform_with};

fn throughput(p: &Platform, e: &Experiment) -> f64 {
    let kernel = LoopBuilder::new(p.isa()).build(e);
    simulate_kernel(p, &kernel, 10, 60).cycles_per_instance
}

#[test]
fn fetch_width_one_serializes_the_front_end() {
    let wide = custom_platform(4, 32, 1, 1);
    let narrow = custom_platform(1, 32, 1, 1);
    let e = Experiment::pair(InstId(0), 1, InstId(3), 1);
    let t_wide = throughput(&wide, &e);
    let t_narrow = throughput(&narrow, &e);
    // 2 µops per experiment at 1 µop/cycle fetch: at least 2 cycles.
    assert!(t_narrow >= 1.9, "narrow fetch throughput {t_narrow}");
    assert!(t_wide < t_narrow, "wider fetch must be at least as fast");
}

#[test]
fn tiny_scheduler_window_still_makes_progress() {
    let p = custom_platform(2, 1, 1, 1);
    let e = Experiment::singleton(InstId(0));
    let t = throughput(&p, &e);
    // Window of one µop: issue can still retire one µop per cycle.
    assert!(t.is_finite() && t >= 0.9, "window-1 throughput {t}");
}

#[test]
fn port_blocking_scales_throughput_linearly() {
    let mut previous = 0.0;
    for blocking in [1u32, 3, 6] {
        let p = custom_platform(4, 32, blocking, 1);
        let t = throughput(&p, &Experiment::singleton(InstId(2)));
        assert!(
            (t - f64::from(blocking)).abs() < 0.2,
            "blocking {blocking} gave throughput {t}"
        );
        assert!(t > previous);
        previous = t;
    }
}

#[test]
fn latency_does_not_affect_dependency_free_throughput() {
    // The §4.2 register allocation breaks dependencies, so even long
    // latencies must not slow the steady state (within window limits).
    let fast = custom_platform(4, 64, 1, 1);
    let slow = custom_platform(4, 64, 1, 12);
    let e = Experiment::pair(InstId(0), 1, InstId(5), 1);
    // A generous register file keeps the dependence distance well above
    // the 12-cycle latency even at 2 instructions per cycle.
    let measure = |p: &Platform| {
        let kernel = LoopBuilder::new(p.isa()).register_file(32, 16).build(&e);
        simulate_kernel(p, &kernel, 10, 60).cycles_per_instance
    };
    let tf = measure(&fast);
    let ts = measure(&slow);
    assert!(
        (tf - ts).abs() / tf < 0.15,
        "latency leaked into throughput: {tf} vs {ts}"
    );
}

#[test]
fn dependency_chains_do_slow_small_register_files() {
    // Conversely: with almost no registers, the same long latency must
    // hurt, because reads land close to their writers.
    let p = custom_platform(4, 64, 1, 12);
    let e = Experiment::singleton(InstId(0));
    let free = {
        let kernel = LoopBuilder::new(p.isa()).build(&e);
        simulate_kernel(&p, &kernel, 10, 60).cycles_per_instance
    };
    let chained = {
        // 4 GPRs = 3 allocatable (one is the base pointer): the 3-operand
        // add form is forced to read its own recent writers.
        let kernel = LoopBuilder::new(p.isa()).register_file(4, 2).build(&e);
        simulate_kernel(&p, &kernel, 10, 60).cycles_per_instance
    };
    assert!(
        chained > free * 2.0,
        "expected dependency slowdown: free {free}, chained {chained}"
    );
}

#[test]
fn built_in_platforms_sustain_full_port_pressure() {
    // Saturating every port class at once must not deadlock or starve:
    // the simulator finishes and throughput stays within the total-µop
    // bound.
    for p in [platforms::skl(), platforms::zen(), platforms::a72()] {
        let n = p.isa().len() as u32;
        let e = Experiment::from_counts(&[
            (InstId(0), 2),
            (InstId(n / 3), 2),
            (InstId(2 * n / 3), 2),
            (InstId(n - 1), 2),
        ]);
        let t = throughput(&p, &e);
        let uops: u32 = e
            .iter()
            .map(|(i, c)| p.ground_truth().num_uops_of(i) * c)
            .sum();
        assert!(t > 0.0 && t <= f64::from(uops) + 1.0, "{}: {t}", p.name());
    }
}

#[test]
#[should_panic(expected = "form add_r64_r64_r64 decomposes into no µops")]
fn forms_without_uops_are_rejected_at_platform_construction() {
    let mut decomp = edge_decomposition();
    decomp[0] = vec![];
    let p = platform_with(decomp, 4, 32, 1, 1);
    throughput(&p, &Experiment::singleton(InstId(0)));
}

#[test]
#[should_panic(expected = "form add_r64_r64_r64 decomposes into no µops")]
fn forms_with_only_zero_count_entries_are_rejected_too() {
    let mut decomp = edge_decomposition();
    decomp[0] = vec![UopEntry::new(0, PortSet::from_ports(&[0]))];
    platform_with(decomp, 4, 32, 1, 1);
}
