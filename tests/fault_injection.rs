//! Fault-injection sweep: ~100 seeded fault plans per ULP, each run
//! through the differential oracle. Every scenario must end byte-exact
//! against the software golden path, every injected fault must be
//! detected and recovered (re-feed, drain + retry, Force-Recycle or
//! software fallback), and the same seed must reproduce the identical
//! fault sequence, recovery sequence and device statistics.
//!
//! The host is deliberately starved — an 8-page scratchpad and a 48-slot
//! translation table — so the injected pressure actually bites.

use simkit::{DetRng, FaultHandle, FaultKind, FaultPlan};
use smartdimm::{FaultOracle, HostConfig, OffloadOp};

const SEEDS: u64 = 100;
/// Offloads issued per seeded plan (retries can add more).
const OPS_PER_PLAN: u64 = 6;

fn stress_config() -> HostConfig {
    let mut cfg = HostConfig::default();
    cfg.dimm.scratchpad_pages = 8;
    cfg.dimm.xlat_entries = 48;
    cfg.dimm.cam_entries = 4;
    cfg
}

/// Deterministic per-op message content.
fn content(kind: u8, size: usize, seed: u64) -> Vec<u8> {
    match kind {
        0 => ulp_compress::corpus::text(size, seed),
        1 => ulp_compress::corpus::html(size, seed),
        _ => ulp_compress::corpus::random(size, seed),
    }
}

/// Runs one seeded plan of TLS offloads; returns a determinism trace.
fn run_tls_plan(seed: u64) -> Vec<String> {
    let plan = FaultPlan::generate(seed, OPS_PER_PLAN);
    let mut oracle = FaultOracle::new(stress_config(), plan);
    let mut rng = DetRng::new(seed ^ 0x715);
    let key = [0xC3u8; 16];
    for i in 0..OPS_PER_PLAN {
        let size = 64 + rng.gen_range(0..8000) as usize;
        let msg = content((i % 3) as u8, size, rng.gen_range(0..u64::MAX));
        let mut iv = [0u8; 12];
        iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
        let op = if rng.gen_bool(0.5) {
            OffloadOp::TlsEncrypt { key, iv }
        } else {
            OffloadOp::TlsDecrypt { key, iv }
        };
        let outcome = oracle.check(op, &msg, b"hdr173");
        // Injected faults must be visible either as firings with matching
        // recoveries or as nothing at all — never as silent corruption
        // (oracle.check panics on wrong bytes).
        drop(outcome);
        oracle.assert_occupancy_bound();
    }
    trace_of(&mut oracle, seed)
}

/// Runs one seeded plan of compression offloads; returns the trace.
fn run_compress_plan(seed: u64) -> Vec<String> {
    let plan = FaultPlan::generate(seed, OPS_PER_PLAN);
    let mut oracle = FaultOracle::new(stress_config(), plan);
    let mut rng = DetRng::new(seed ^ 0xC0);
    for i in 0..OPS_PER_PLAN {
        let size = 256 + rng.gen_range(0..3840) as usize;
        let page = content((i % 3) as u8, size, rng.gen_range(0..u64::MAX));
        if rng.gen_bool(0.7) {
            oracle.check(OffloadOp::Compress, &page, b"");
        } else {
            let compressed = ulp_compress::deflate::compress(&page);
            if compressed.len() > 4096 {
                // Incompressible content: the stream would exceed the
                // page-granular offload limit. Compress instead.
                oracle.check(OffloadOp::Compress, &page, b"");
            } else {
                oracle.check(OffloadOp::Decompress, &compressed, b"");
            }
        }
        oracle.assert_occupancy_bound();
    }
    trace_of(&mut oracle, seed)
}

/// Everything a re-run with the same seed must reproduce exactly:
/// firings, recoveries, Force-Recycles and device statistics.
fn trace_of(oracle: &mut FaultOracle, seed: u64) -> Vec<String> {
    let mut trace = oracle.fired_log();
    trace.extend(oracle.recoveries().iter().map(|r| format!("{r:?}")));
    trace.push(format!(
        "force_recycles={}",
        oracle.organic_force_recycles()
    ));
    trace.push(format!("stats={:?}", oracle.host().device_stats()));
    trace.push(format!("seed={seed}"));
    trace
}

#[test]
fn tls_sweep_is_byte_exact_and_recovers() {
    let mut fired_any = 0u64;
    for seed in 0..SEEDS {
        let trace = run_tls_plan(seed);
        // `trace_of` appends 3 summary lines after the firing log.
        fired_any += (trace.len() > 3) as u64;
    }
    // FaultPlan::generate always emits at least one event per plan, and
    // most arm inside the 6-offload horizon: the sweep must actually
    // have injected faults, not vacuously passed.
    assert!(
        fired_any >= SEEDS / 4,
        "only {fired_any}/{SEEDS} TLS plans fired any fault"
    );
}

#[test]
fn compression_sweep_is_byte_exact_and_recovers() {
    let mut fired_any = 0u64;
    for seed in 0..SEEDS {
        let trace = run_compress_plan(seed);
        fired_any += (trace.len() > 3) as u64;
    }
    assert!(
        fired_any >= SEEDS / 4,
        "only {fired_any}/{SEEDS} compression plans fired any fault"
    );
}

#[test]
fn force_recycle_fires_across_the_sweep() {
    // Union assertion: across the sweep the scratchpad-hog faults must
    // push the 8-page scratchpad into Force-Recycle at least once, and
    // the device stats must show the reclaimed (self-recycled or
    // explicitly written) lines that recovery implies.
    let mut total_force_recycles = 0u64;
    let mut total_recycled_lines = 0u64;
    for seed in 0..SEEDS {
        let plan = FaultPlan::generate(seed, OPS_PER_PLAN);
        let hogs = plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ScratchHog { .. }));
        if !hogs {
            continue;
        }
        let mut oracle = FaultOracle::new(stress_config(), plan);
        let mut rng = DetRng::new(seed ^ 0x715);
        let key = [0xC3u8; 16];
        for i in 0..OPS_PER_PLAN {
            let size = 64 + rng.gen_range(0..8000) as usize;
            let msg = content((i % 3) as u8, size, rng.gen_range(0..u64::MAX));
            let mut iv = [0u8; 12];
            iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
            let op = if rng.gen_bool(0.5) {
                OffloadOp::TlsEncrypt { key, iv }
            } else {
                OffloadOp::TlsDecrypt { key, iv }
            };
            oracle.check(op, &msg, b"hdr173");
        }
        total_force_recycles += oracle.organic_force_recycles();
        total_recycled_lines += oracle
            .host()
            .device()
            .scratchpad_stats()
            .self_recycled_lines;
    }
    assert!(
        total_force_recycles >= 1,
        "no plan in the sweep drove the host into Force-Recycle"
    );
    assert!(total_recycled_lines > 0, "no lines were ever recycled");
}

#[test]
fn ranks2_sweep_is_byte_exact() {
    // Two ranks per DIMM interleave consecutive line groups across rank
    // address bits. Every seeded fault plan must stay byte-exact and
    // within the scratchpad occupancy bound with one and two DIMMs per
    // channel.
    for dimms in [1usize, 2] {
        for seed in 0..8u64 {
            let plan = FaultPlan::generate(seed, OPS_PER_PLAN);
            let mut cfg = stress_config();
            cfg.mem.dram.topology.ranks = 2;
            cfg.mem.dram.topology.dimms_per_channel = dimms;
            let mut oracle = FaultOracle::new(cfg, plan);
            let mut rng = DetRng::new(seed ^ 0x2a17);
            let key = [0xC3u8; 16];
            for i in 0..OPS_PER_PLAN {
                let size = 64 + rng.gen_range(0..8000) as usize;
                let msg = content((i % 3) as u8, size, rng.gen_range(0..u64::MAX));
                let mut iv = [0u8; 12];
                iv[..8].copy_from_slice(&(seed * 1000 + i).to_le_bytes());
                let op = if rng.gen_bool(0.5) {
                    OffloadOp::TlsEncrypt { key, iv }
                } else {
                    OffloadOp::TlsDecrypt { key, iv }
                };
                oracle.check(op, &msg, b"hdr173");
                oracle.assert_occupancy_bound();
            }
        }
    }
}

#[test]
fn same_seed_reproduces_identical_traces() {
    for seed in [0u64, 13, 42, 77, 99] {
        assert_eq!(
            run_tls_plan(seed),
            run_tls_plan(seed),
            "TLS trace diverged for seed {seed}"
        );
        assert_eq!(
            run_compress_plan(seed),
            run_compress_plan(seed),
            "compression trace diverged for seed {seed}"
        );
    }
}

#[test]
fn different_seeds_give_different_fault_sequences() {
    let traces: Vec<Vec<String>> = (0..16).map(run_tls_plan).collect();
    let distinct: std::collections::HashSet<&Vec<String>> = traces.iter().collect();
    assert!(
        distinct.len() > 8,
        "fault plans barely vary across seeds ({} distinct of 16)",
        distinct.len()
    );
}

#[test]
fn tcp_loss_bursts_force_drops_deterministically() {
    use netsim::tcp::{simulate_transfer, simulate_transfer_with_faults, TcpConfig};
    let cfg = TcpConfig::default();
    let baseline = simulate_transfer(2 << 20, &cfg, |_| 0);
    assert_eq!(baseline.drops, 0, "default config is lossless");

    let plan = FaultPlan {
        seed: 9,
        events: vec![
            simkit::FaultEvent {
                at_offload: 0,
                kind: FaultKind::TcpLossBurst { start: 10, len: 6 },
            },
            simkit::FaultEvent {
                at_offload: 0,
                kind: FaultKind::TcpLossBurst { start: 40, len: 3 },
            },
        ],
    };
    let run = {
        let fault = FaultHandle::new(plan.clone());
        simulate_transfer_with_faults(2 << 20, &cfg, Some(&fault), |_| 0)
    };
    // Every segment in the burst windows was dropped and recovered.
    assert_eq!(run.delivered_bytes, 2 << 20, "transfer must still complete");
    assert_eq!(run.drops, 9, "6 + 3 forced drops");
    assert!(run.retransmits >= 9, "each drop needs a retransmission");
    assert!(run.elapsed_ns > baseline.elapsed_ns, "loss costs time");

    // Identical plan → identical run; no hidden nondeterminism.
    let again = {
        let fault = FaultHandle::new(plan);
        simulate_transfer_with_faults(2 << 20, &cfg, Some(&fault), |_| 0)
    };
    assert_eq!(run, again);
}

#[test]
fn no_fault_handle_means_identical_tcp_behavior() {
    use netsim::tcp::{simulate_transfer, simulate_transfer_with_faults, TcpConfig};
    // The forced-drop hook must not perturb the RNG draw sequence: with
    // loss enabled, a None fault handle reproduces simulate_transfer.
    let cfg = TcpConfig {
        loss_prob: 0.01,
        ..TcpConfig::default()
    };
    let a = simulate_transfer(1 << 20, &cfg, |_| 0);
    let b = simulate_transfer_with_faults(1 << 20, &cfg, None, |_| 0);
    assert_eq!(a, b);
}
