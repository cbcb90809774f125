//! Detects whether the simulator still exposes a memory-backend selection
//! knob. The benchmark never sets a backend of its own: it copies the one
//! the workload config defaults to into the host it builds for the traced
//! run, and that copy only exists while the knob does. Removing the knob
//! (and its tier) from the simulator therefore needs no benchmark edit.

use std::path::Path;

fn main() {
    println!("cargo::rustc-check-cfg=cfg(backend_knob)");
    let memsys = Path::new("../crates/memsys/src/lib.rs");
    let server = Path::new("../crates/platforms/src/server.rs");
    let eventsim = Path::new("../crates/platforms/src/eventsim.rs");
    for p in [memsys, server, eventsim] {
        println!("cargo::rerun-if-changed={}", p.display());
    }
    let has_knob = |p: &Path| {
        std::fs::read_to_string(p)
            .map(|s| {
                s.lines()
                    .any(|l| l.trim_start().starts_with("pub backend:"))
            })
            .unwrap_or(false)
    };
    if [memsys, server, eventsim].into_iter().all(has_knob) {
        println!("cargo::rustc-cfg=backend_knob");
    }
}
