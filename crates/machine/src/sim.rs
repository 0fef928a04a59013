//! The cycle-level out-of-order core simulator.
//!
//! Model (mirroring the sketch in paper Figure 1 / §2):
//!
//! * **Rename** — instructions enter in program order; each read operand
//!   captures the index of its producing instruction (the most recent
//!   earlier writer of that register). Write-after-read and
//!   write-after-write hazards do not exist: the register management
//!   engine renames them away.
//! * **Dispatch** — up to `fetch_width` µops per cycle enter the
//!   scheduler window (capacity `window_size` µops). An instruction's
//!   µops enter together with it, in order.
//! * **Issue** — each cycle the scheduler scans waiting µops oldest-first
//!   and issues every µop whose operands are ready to a free port from
//!   its port set (a greedy, non-optimal policy — real schedulers are not
//!   optimal either, which is exactly the model error the paper observes
//!   in Figure 6 for longer experiments). Of the free ports in its set a
//!   µop takes the first one at or after `cycle % num_ports`, wrapping
//!   around, so no port is favoured. Ports accept one µop per cycle; a
//!   µop with `blocking > 1` occupies its port for several cycles
//!   (dividers), one with `blocking == 0` leaves it free.
//!
//!   The loop is event-driven; each of these steps leaves every issue
//!   decision of the scan above unchanged:
//!   - the free ports are a bitmask, and a µop's port is one bit scan of
//!     `ports & free`;
//!   - waiting µops sit in one age-ordered queue per distinct port mask
//!     (a *port class*). A cycle merges, by age, only the queues whose
//!     mask meets a free port, and drops a queue once its ports are
//!     taken: it visits exactly the µops the full scan would find a port
//!     for, in the same order, and none of the others;
//!   - a µop's operand-ready cycle is computed once, when all of its
//!     producers have issued and their completion times are final;
//!   - after a cycle that issued nothing and fetched nothing, time jumps
//!     to the earliest cycle at which a busy port frees or a known
//!     operand-ready time arrives. The skip is exact: until then the
//!     window stays full (or the stream exhausted), no port frees, and no
//!     operand becomes ready, since a µop whose producers have not all
//!     issued cannot become ready while nothing issues. So every skipped
//!     cycle would have been idle as well, and the port rotation, which
//!     only matters when something issues, never sees them.
//! * **Complete** — an instruction's results become available `latency`
//!   cycles after its last µop issued.
//!
//! Throughput is the steady-state number of cycles per kernel iteration,
//! measured between iteration boundaries after a warm-up phase
//! (paper Definition 1).

use crate::platform::Platform;
use pmevo_isa::{Kernel, Reg, RegClass};

/// Result of simulating a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Steady-state cycles per kernel iteration.
    pub cycles_per_iter: f64,
    /// Steady-state cycles per *experiment instance* (divided by the
    /// kernel's unroll factor) — the paper's throughput `t*(e)`.
    pub cycles_per_instance: f64,
    /// Total simulated cycles, including warm-up.
    pub total_cycles: u64,
}

/// A µop waiting in the scheduler window.
#[derive(Debug, Clone, Copy)]
struct WindowUop {
    /// Fetch order: smaller is older.
    seq: u64,
    /// Index into the global instruction stream.
    inst_idx: usize,
    /// Port-blocking duration.
    blocking: u32,
    /// Cycle from which the operands are ready: the latest `complete` of
    /// the producers, cached once all of them are known (`UNKNOWN` until
    /// then).
    ready_at: u64,
}

/// The waiting µops that share one port mask, oldest first.
struct PortClass {
    ports: u64,
    uops: Vec<WindowUop>,
    /// Next µop to visit in this cycle's issue pass.
    read: usize,
    /// Where the next µop kept by this cycle's issue pass goes.
    write: usize,
}

/// Per-dynamic-instruction bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InstState {
    /// Producer instruction indices for each read operand (compressed:
    /// up to 3 tracked producers; extra reads fold into the max).
    deps: [usize; 3],
    /// Number of µops not yet issued.
    uops_left: u32,
    /// Max issue cycle among the instruction's µops so far.
    last_issue: u64,
    /// Cycle when results are available (`UNKNOWN` until known).
    complete: u64,
    /// Result latency.
    latency: u32,
}

const NO_DEP: usize = usize::MAX;

/// A cycle that is not known yet.
const UNKNOWN: u64 = u64::MAX;

/// The port the rotating scan picks from `candidates` (a non-empty mask
/// of free ports in the µop's port set): the lowest candidate at or above
/// `start`, else the lowest candidate.
fn pick_port(candidates: u64, start: usize) -> usize {
    let at_or_above = candidates & (u64::MAX << start);
    if at_or_above != 0 {
        at_or_above.trailing_zeros() as usize
    } else {
        candidates.trailing_zeros() as usize
    }
}

/// Simulates `iters` iterations of `kernel` on `platform` and reports the
/// steady-state throughput measured over the post-warm-up iterations.
///
/// `warmup` iterations are excluded from the measurement; the defaults
/// used by [`Measurer`](crate::Measurer) are generous enough for every
/// built-in platform.
///
/// # Panics
///
/// Panics if the kernel is empty, `iters <= warmup`, or the kernel
/// references forms outside the platform's ISA.
pub fn simulate_kernel(platform: &Platform, kernel: &Kernel, warmup: u32, iters: u32) -> SimResult {
    assert!(!kernel.is_empty(), "cannot simulate an empty kernel");
    assert!(iters > warmup, "need iters > warmup");

    let body = kernel.insts();
    let body_len = body.len();
    let num_ports = platform.num_ports();

    // Pre-resolve per-body-position µop lists and exec parameters; each
    // µop names its port class.
    struct BodyEntry {
        uops: Vec<(usize, u32)>, // (port class, blocking)
        latency: u32,
    }
    let mut classes: Vec<PortClass> = Vec::new();
    let mut entries: Vec<BodyEntry> = Vec::with_capacity(body_len);
    for ki in body {
        let params = platform.exec_params(ki.inst);
        let mut uops = Vec::new();
        for e in platform.ground_truth().decomposition(ki.inst) {
            let ports = e.ports.mask();
            let class = match classes.iter().position(|c| c.ports == ports) {
                Some(c) => c,
                None => {
                    classes.push(PortClass {
                        ports,
                        uops: Vec::new(),
                        read: 0,
                        write: 0,
                    });
                    classes.len() - 1
                }
            };
            let repeated = std::iter::repeat_n((class, params.blocking), e.count as usize);
            uops.extend(repeated);
        }
        entries.push(BodyEntry {
            uops,
            latency: params.latency,
        });
    }

    // Register rename table: last writer instruction index per register.
    let mut last_writer = [[NO_DEP; 64]; 2];
    let reg_slot = |r: Reg| -> (usize, usize) {
        let c = match r.class {
            RegClass::Gpr => 0,
            RegClass::Vec => 1,
        };
        (c, r.index as usize % 64)
    };

    let total_insts = body_len * iters as usize;
    let mut insts: Vec<InstState> = Vec::with_capacity(total_insts);
    // Number of waiting µops (held by their port classes) and the age of
    // the next one to enter.
    let mut window_len = 0usize;
    let mut next_seq = 0u64;
    let mut active: Vec<usize> = Vec::with_capacity(classes.len());

    let mut port_free_at = vec![0u64; num_ports];
    let mut cycle: u64 = 0;
    let mut next_fetch_inst = 0usize; // next dynamic instruction to rename
    let mut fetch_uop_pos = 0usize; // next µop within that instruction
    // Cycle at which the last instruction of each iteration finished
    // issuing; used for the steady-state measurement.
    let mut iter_end_cycle = vec![0u64; iters as usize];
    let mut iters_done = 0usize;

    let fetch_width = platform.fetch_width() as usize;
    let window_size = platform.window_size() as usize;

    while iters_done < iters as usize {
        // --- Issue: oldest-first greedy over waiting µops. ---
        let mut free = port_free_at
            .iter()
            .enumerate()
            .filter(|&(_, &at)| at <= cycle)
            .fold(0u64, |mask, (p, _)| mask | 1 << p);
        let start = (cycle as usize) % num_ports;
        // Earliest known operand-ready cycle after this one, among the
        // µops whose readiness was tested.
        let mut next_ready = UNKNOWN;
        let mut issued_any = false;
        // Oldest-first over the classes that can use a free port: merge
        // them by age, and drop a class once its ports are all taken.
        active.clear();
        for (c, class) in classes.iter_mut().enumerate() {
            class.read = 0;
            class.write = 0;
            if class.ports & free != 0 && !class.uops.is_empty() {
                active.push(c);
            }
        }
        loop {
            let mut oldest = None;
            let mut oldest_seq = u64::MAX;
            for &c in &active {
                let class = &classes[c];
                if let Some(uop) = class.uops.get(class.read) {
                    if uop.seq < oldest_seq {
                        oldest_seq = uop.seq;
                        oldest = Some(c);
                    }
                }
            }
            let Some(c) = oldest else { break };
            let class = &mut classes[c];
            let mut uop = class.uops[class.read];
            class.read += 1;
            if uop.ready_at == UNKNOWN {
                // Producers are older, so once all of them have issued
                // their `complete` times are final.
                uop.ready_at = insts[uop.inst_idx]
                    .deps
                    .iter()
                    .filter(|&&d| d != NO_DEP)
                    .map(|&d| insts[d].complete)
                    .fold(0, u64::max);
            }
            if uop.ready_at > cycle {
                if uop.ready_at != UNKNOWN {
                    next_ready = next_ready.min(uop.ready_at);
                }
                class.uops[class.write] = uop;
                class.write += 1;
                continue;
            }
            let p = pick_port(class.ports & free, start);
            port_free_at[p] = cycle + u64::from(uop.blocking);
            issued_any = true;
            window_len -= 1;
            let st = &mut insts[uop.inst_idx];
            st.uops_left -= 1;
            st.last_issue = st.last_issue.max(cycle);
            if st.uops_left == 0 {
                st.complete = st.last_issue + u64::from(st.latency);
                // Iteration boundary: the last instruction of an
                // iteration finished issuing.
                if uop.inst_idx % body_len == body_len - 1 {
                    iter_end_cycle[uop.inst_idx / body_len] = st.last_issue;
                    iters_done += 1;
                }
            }
            if uop.blocking > 0 {
                free &= !(1 << p);
                active.retain(|&c| classes[c].ports & free != 0);
            }
        }
        for class in &mut classes {
            if class.write < class.read {
                let len = class.uops.len();
                class.uops.copy_within(class.read..len, class.write);
                class.uops.truncate(class.write + len - class.read);
            }
        }

        // --- Fetch/rename: up to fetch_width µops into the window. ---
        let mut fetched = 0;
        while fetched < fetch_width
            && window_len < window_size
            && next_fetch_inst < total_insts
        {
            let body_pos = next_fetch_inst % body_len;
            if fetch_uop_pos == 0 {
                // Rename the instruction: capture RAW producers.
                let ki = &body[body_pos];
                let mut deps = [NO_DEP; 3];
                let mut extra = NO_DEP;
                for (k, &r) in ki.reads.iter().enumerate() {
                    let (c, s) = reg_slot(r);
                    let producer = last_writer[c][s];
                    if k < 3 {
                        deps[k] = producer;
                    } else if producer != NO_DEP && (extra == NO_DEP || producer > extra) {
                        extra = producer;
                    }
                }
                if extra != NO_DEP {
                    // Fold surplus reads into the slot with the oldest dep.
                    deps[2] = if deps[2] == NO_DEP { extra } else { deps[2].max(extra) };
                }
                insts.push(InstState {
                    deps,
                    uops_left: entries[body_pos].uops.len() as u32,
                    last_issue: 0,
                    complete: UNKNOWN,
                    latency: entries[body_pos].latency,
                });
                for &w in &ki.writes {
                    let (c, s) = reg_slot(w);
                    last_writer[c][s] = next_fetch_inst;
                }
            }
            let (class, blocking) = entries[body_pos].uops[fetch_uop_pos];
            classes[class].uops.push(WindowUop {
                seq: next_seq,
                inst_idx: next_fetch_inst,
                blocking,
                ready_at: UNKNOWN,
            });
            next_seq += 1;
            window_len += 1;
            fetch_uop_pos += 1;
            fetched += 1;
            if fetch_uop_pos == entries[body_pos].uops.len() {
                fetch_uop_pos = 0;
                next_fetch_inst += 1;
            }
        }

        if issued_any || fetched > 0 {
            cycle += 1;
            continue;
        }
        // An idle cycle: the window is full or the stream exhausted, and
        // both stay so until something issues. Nothing can issue before
        // a busy port frees or a known operand-ready time arrives, so
        // jump straight to the earliest of those.
        assert!(
            window_len > 0,
            "simulator livelock: nothing left to issue after {iters_done} of {iters} iterations"
        );
        let next_port = port_free_at
            .iter()
            .copied()
            .filter(|&at| at > cycle)
            .min()
            .unwrap_or(UNKNOWN);
        let next_event = next_port.min(next_ready);
        assert!(
            next_event != UNKNOWN,
            "simulator livelock at cycle {cycle}: {window_len} waiting µops and no future event"
        );
        cycle = next_event;
    }

    let total_cycles = cycle;
    let w = warmup as usize;
    let n = iters as usize;
    let span = iter_end_cycle[n - 1].saturating_sub(iter_end_cycle[w]) as f64;
    let cycles_per_iter = span / (n - 1 - w) as f64;
    let cycles_per_instance = cycles_per_iter / f64::from(kernel.instances_per_iter());
    SimResult {
        cycles_per_iter,
        cycles_per_instance,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use pmevo_core::{Experiment, InstId};
    use pmevo_isa::LoopBuilder;

    fn measure(platform: &Platform, e: &Experiment) -> f64 {
        let kernel = LoopBuilder::new(platform.isa()).build(e);
        simulate_kernel(platform, &kernel, 10, 60).cycles_per_instance
    }

    #[test]
    fn single_alu_instruction_is_throughput_bound() {
        let p = platforms::skl();
        let add = p.isa().find("add_r64_r64").unwrap();
        // 4 ALU ports, fetch width 4: one add per 1/4 cycle.
        let tp = measure(&p, &Experiment::singleton(add));
        assert!(
            (tp - 0.25).abs() < 0.05,
            "add throughput {tp}, expected ~0.25"
        );
    }

    #[test]
    fn port_restricted_instruction_hits_its_port_limit() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap();
        // Multiply only runs on port 1: 1 cycle per instruction.
        let tp = measure(&p, &Experiment::singleton(mul));
        assert!((tp - 1.0).abs() < 0.1, "imul throughput {tp}, expected ~1");
    }

    #[test]
    fn blocking_divider_serializes() {
        let p = platforms::a72();
        let div = p.isa().find("sdiv_r64_r64_r64").unwrap();
        let tp = measure(&p, &Experiment::singleton(div));
        // The divider blocks its port for 12 cycles.
        assert!(tp > 10.0, "sdiv throughput {tp}, expected ~12");
    }

    #[test]
    fn disjoint_instructions_overlap() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap(); // port 1
        let load = p.isa().find("mov_r64_m64").unwrap(); // ports 2,3
        let pair = Experiment::pair(mul, 1, load, 1);
        let tp = measure(&p, &pair);
        // Both fit in one cycle: combined throughput ≈ max(1, 0.5) = 1.
        assert!(tp < 1.3, "mul+load throughput {tp}, expected ~1");
    }

    #[test]
    fn conflicting_instructions_add_up() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap(); // port 1 only
        let mulhi = p.isa().find("mulhi_r64_r64").unwrap(); // port 1 + 5
        let tp_pair = measure(&p, &Experiment::pair(mul, 1, mulhi, 1));
        // Both need port 1; mulhi also occupies port 5: bottleneck is
        // port 1 with 2 µops => ~2 cycles.
        assert!(tp_pair > 1.6, "conflicting pair throughput {tp_pair}");
    }

    #[test]
    fn simulator_tracks_optimal_model_on_simple_experiments() {
        // For short dependency-free experiments, the simulator should be
        // close to the bottleneck-model prediction of the ground truth
        // (this is what paper Figure 6 demonstrates at small lengths).
        let p = platforms::skl();
        let gt = p.ground_truth();
        for ids in [[0usize, 40], [10, 80], [5, 120]] {
            let e = Experiment::pair(InstId(ids[0] as u32), 1, InstId(ids[1] as u32), 1);
            let predicted = gt.throughput(&e).max(2.0 / p.fetch_width() as f64);
            let measured = measure(&p, &e);
            let err = (measured - predicted).abs() / predicted;
            assert!(
                err < 0.25,
                "sim {measured} vs model {predicted} for {e} (err {err:.2})"
            );
        }
    }

    #[test]
    fn a72_narrow_frontend_limits_throughput() {
        let p = platforms::a72();
        let add = p.isa().find("add_r64_r64_r64").unwrap();
        let tp = measure(&p, &Experiment::singleton(add));
        // 2 ALU ports but fetch width 3 — port-bound at 0.5.
        assert!((tp - 0.5).abs() < 0.1, "A72 add throughput {tp}");
    }

    #[test]
    fn bitmask_port_choice_matches_the_rotating_scan() {
        // The scan: try ports start, start+1, ... modulo the port count
        // and take the first candidate.
        for num_ports in 1..=10usize {
            for candidates in 1..1u64 << num_ports {
                for start in 0..num_ports {
                    let scanned = (0..num_ports)
                        .map(|off| (start + off) % num_ports)
                        .find(|&p| (candidates >> p) & 1 == 1);
                    assert_eq!(Some(pick_port(candidates, start)), scanned);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "iters > warmup")]
    fn bad_iteration_counts_panic() {
        let p = platforms::skl();
        let k = LoopBuilder::new(p.isa()).build(&Experiment::singleton(InstId(0)));
        simulate_kernel(&p, &k, 10, 10);
    }
}
