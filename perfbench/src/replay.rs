//! Isolated replays of the simulator's leaf layers over the workload's
//! own inputs: the DSA engines over the payload lines, and the DRAM
//! backend over the traced run's CAS stream.

use std::hint::black_box;
use std::time::Instant;

use memsys::{MemConfig, MemSystem};
use simkit::Cycle;
use smartdimm::dsa::DsaInstance;
use smartdimm::OffloadOp;
use ulp_compress::hwmodel::HwDeflateConfig;

use crate::report::median;
use crate::trace::Cas;

/// Repeats `pass` (which returns the work items it did and the host ns
/// they took) until at least `min_ns` of host time and three passes have
/// gone by; returns the median ns per item over the passes.
fn per_item(min_ns: u64, mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || (start.elapsed().as_nanos() as u64) < min_ns {
        let (items, ns) = pass();
        rates.push(ns as f64 / items.max(1) as f64);
    }
    median(&rates)
}

/// Times `f`, which returns the work items it did.
fn timed(f: impl FnOnce() -> u64) -> (u64, u64) {
    let t = Instant::now();
    let items = f();
    (items, t.elapsed().as_nanos() as u64)
}

/// Feeds every 64-byte line of `msg` through a fresh DSA, in order.
fn feed(op: OffloadOp, msg: &[u8]) -> u64 {
    let mut dsa = DsaInstance::new(op, msg.len(), b"", HwDeflateConfig::default());
    let mut lines = 0u64;
    for (i, chunk) in msg.chunks(64).enumerate() {
        let mut line = [0u8; 64];
        line[..chunk.len()].copy_from_slice(chunk);
        black_box(dsa.process_line(i * 64, &line, chunk.len()));
        lines += 1;
    }
    lines
}

/// Host ns per line of the TLS (out-of-order AES-GCM) DSA.
pub fn dsa_tls_ns_per_line(bodies: &[Vec<u8>], min_ns: u64) -> f64 {
    let op = OffloadOp::TlsEncrypt {
        key: [0x5A; 16],
        iv: [7; 12],
    };
    per_item(min_ns, || {
        timed(|| bodies.iter().map(|b| feed(op, b)).sum())
    })
}

/// Host ns per 4 KB page of the deflate DSA (line absorption plus the
/// `HwCompressor` pass at the page's last line).
pub fn dsa_deflate_ns_per_page(bodies: &[Vec<u8>], min_ns: u64) -> f64 {
    per_item(min_ns, || {
        timed(|| {
            let mut pages = 0;
            for b in bodies {
                for page in b.chunks(4096) {
                    feed(OffloadOp::Compress, page);
                    pages += 1;
                }
            }
            pages
        })
    })
}

/// Host ns per CAS command of a bare backend of the run's own tier and
/// topology (no buffer devices installed), replaying the sampled CAS
/// stream at its recorded cycles. Each timed pass follows an untimed one
/// over the same stream, so the backend's storage is as warm as in the
/// run it was recorded from.
pub fn dram_ns_per_cas(mem: &MemConfig, stream: &[Cas], min_ns: u64) -> f64 {
    let Some(&(last, _, _)) = stream.last() else {
        return 0.0;
    };
    let span = last + 1;
    let mut sys = MemSystem::new(mem.clone());
    let dram = sys.dram_mut();
    let zero = [0u8; 64];
    let mut offset = 0u64;
    let mut pass = || {
        for &(at, write, addr) in stream {
            dram.advance_to(Cycle(offset + at));
            if write {
                black_box(dram.write64(dram::PhysAddr(addr), &zero));
            } else {
                black_box(dram.read64(dram::PhysAddr(addr)));
            }
        }
        offset += span;
        stream.len() as u64
    };
    pass();
    per_item(min_ns, || timed(&mut pass))
}
