//! Output checks. The harness entry points expose no payloads, so the
//! benchmark serves a sample of the workload's own bodies on a host with
//! the workload's topology and arena addresses, through public calls,
//! and checks every result against an independent software reference.

use platforms::server::conn_file_addr;
use platforms::UlpKind;
use smartdimm::configmem::OffloadStatus;
use smartdimm::{CompCpyHost, OffloadOp};
use ulp_compress::hwmodel::decompress_page;
use ulp_crypto::gcm::AesGcm;

use crate::replica::{conn_key, rec_addr, req_iv, ubuf_addr};
use crate::workload::Config;

/// Bodies checked per workload.
const SAMPLES: usize = 64;
const PAGE: usize = 4096;

/// Checks made and checks failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Flips one byte of a result before it is compared, so a test can show
/// that a corrupted payload is caught.
fn tamper(bytes: &mut [u8], on: bool) {
    if on {
        if let Some(b) = bytes.first_mut() {
            *b ^= 0x01;
        }
    }
}

/// Runs the workload's output checks. The TLS workloads check offloaded
/// records (and, where admission control can send requests to the CPU,
/// the CPU path too); the deflate workload checks every page.
pub fn verify(cfg: &Config, ulp: UlpKind, cpu_path: bool, flip: bool) -> Checks {
    let mut host = CompCpyHost::new(cfg.host_config());
    let mut checks = Checks::default();
    let bodies = cfg.bodies();
    for (k, (slot, body)) in bodies.into_iter().take(SAMPLES).enumerate() {
        host.mem_mut().dma_write(conn_file_addr(slot), &body);
        let req = cfg.seed().wrapping_add(k as u64);
        match ulp {
            UlpKind::Tls => {
                checks.record(check_tls_offload(&mut host, slot, req, &body, flip));
                if cpu_path {
                    checks.record(check_cpu_tls(&mut host, slot, req, &body, flip));
                }
            }
            UlpKind::Compression => {
                for (pg, page) in body.chunks(PAGE).enumerate() {
                    checks.record(check_deflate_page(&mut host, slot, pg, page, flip));
                }
            }
            UlpKind::None => {}
        }
    }
    checks
}

/// `comp_cpy` → `use_buffer` + `tag` must equal `AesGcm::seal`.
fn check_tls_offload(
    host: &mut CompCpyHost,
    slot: usize,
    req: u64,
    body: &[u8],
    flip: bool,
) -> bool {
    let (key, iv) = (conn_key(slot), req_iv(req));
    let op = OffloadOp::TlsEncrypt { key, iv };
    let Ok(handle) = host.comp_cpy(
        rec_addr(slot),
        conn_file_addr(slot),
        body.len(),
        op,
        false,
        0,
    ) else {
        return false;
    };
    let mut ct = host.use_buffer(&handle);
    tamper(&mut ct, flip);
    let tag = host.tag(&handle);
    let (want_ct, want_tag) = AesGcm::new_128(&key).seal(&iv, b"", body);
    ct == want_ct && tag == Some(want_tag)
}

/// The CPU path's record must open back to the body.
fn check_cpu_tls(host: &mut CompCpyHost, slot: usize, req: u64, body: &[u8], flip: bool) -> bool {
    let (key, iv) = (conn_key(slot), req_iv(req));
    let gcm = AesGcm::new_128(&key);
    let mem = host.mem_mut();
    let ubuf = ubuf_addr(slot);
    mem.memcpy(ubuf, conn_file_addr(slot), body.len(), 0, false);
    let mut plain = vec![0u8; body.len()];
    mem.load(ubuf, &mut plain, 0);
    let (ct, tag) = gcm.seal(&iv, b"", &plain);
    let rec = rec_addr(slot);
    mem.store(rec, &ct, 0);
    let mut record = vec![0u8; ct.len()];
    mem.load(rec, &mut record, 0);
    tamper(&mut record, flip);
    gcm.open(&iv, b"", &record, &tag).is_ok_and(|pt| pt == body)
}

/// Offloaded deflate of one page must inflate back to the page.
fn check_deflate_page(
    host: &mut CompCpyHost,
    slot: usize,
    pg: usize,
    page: &[u8],
    flip: bool,
) -> bool {
    let off = (pg * PAGE) as u64;
    let src = dram::PhysAddr(conn_file_addr(slot).0 + off);
    let dst = dram::PhysAddr(rec_addr(slot).0 + off);
    let Ok(handle) = host.comp_cpy(dst, src, page.len(), OffloadOp::Compress, true, 0) else {
        return false;
    };
    let mut out = host.use_buffer(&handle);
    tamper(&mut out, flip);
    match host.read_result(&handle).status {
        OffloadStatus::Incompressible => out == page,
        OffloadStatus::Done => decompress_page(&out).is_ok_and(|(p, _)| p == page),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn a_flipped_byte_fails_every_check() {
        for w in Workload::ALL {
            let cfg = w.config(3);
            let cpu_path = w == Workload::TailAdmission10k;
            let clean = verify(&cfg, w.ulp(), cpu_path, false);
            assert!(clean.attempted > 0, "{w:?}");
            assert_eq!(clean.failed, 0, "{w:?}");
            let flipped = verify(&cfg, w.ulp(), cpu_path, true);
            assert_eq!(flipped.attempted, clean.attempted, "{w:?}");
            assert_eq!(flipped.failed, flipped.attempted, "{w:?}");
        }
    }
}
