//! A small custom platform shared by the simulator's integration suites:
//! the six-form tiny ISA on four ports with a chosen pipeline shape.

#![allow(dead_code)]

use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
use pmevo_isa::synth::tiny_isa;
use pmevo_machine::platform::ExecParams;
use pmevo_machine::{Platform, PlatformInfo};

/// The tiny ISA's default decomposition on four ports: form 2 is the
/// "div" slot the blocking tests use.
pub fn edge_decomposition() -> Vec<Vec<UopEntry>> {
    let u = |count, ports: &[usize]| UopEntry::new(count, PortSet::from_ports(ports));
    vec![
        vec![u(1, &[0, 1])],
        vec![u(1, &[0])],
        vec![u(1, &[2])],
        vec![u(1, &[3])],
        vec![u(1, &[3])],
        vec![u(1, &[1])],
    ]
}

/// A platform over [`edge_decomposition`] where every form has the given
/// blocking and latency.
pub fn custom_platform(fetch: u32, window: u32, blocking: u32, latency: u32) -> Platform {
    platform_with(edge_decomposition(), fetch, window, blocking, latency)
}

/// A platform over the tiny ISA with the given decomposition.
pub fn platform_with(
    decomp: Vec<Vec<UopEntry>>,
    fetch: u32,
    window: u32,
    blocking: u32,
    latency: u32,
) -> Platform {
    let isa = tiny_isa();
    let exec = (0..isa.len())
        .map(|_| ExecParams { latency, blocking })
        .collect();
    Platform::new(
        "EDGE",
        PlatformInfo {
            manufacturer: "test".into(),
            processor: "edge".into(),
            microarch: "edge".into(),
            ports_desc: "4".into(),
            isa_name: "tiny".into(),
            clock_ghz: 1.0,
        },
        isa,
        ThreeLevelMapping::new(4, decomp),
        exec,
        fetch,
        window,
    )
}
