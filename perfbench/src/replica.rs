//! The traced run: the two harnesses' serving loops re-driven from
//! public calls only, with a span around every call into a layer.
//!
//! `platforms::run_server` and `platforms::run_event_server` expose no
//! hooks, so the benchmark repeats their sequence of public calls
//! (`CompCpyHost::comp_cpy`, `read_result`, `queue_pressure`,
//! `MemSystem::flush`/`dma_read`/`dma_write`/`memcpy`/`load`/`store`,
//! `AesGcm::seal`, clock advances) in the same order with the same
//! arguments. Whether it still does is checked, not assumed: the
//! replica's host telemetry must match the real run's byte for byte
//! (`trace.replica_identical`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dram::PhysAddr;
use platforms::server::conn_file_addr;
use platforms::{CostParams, EventWorkloadConfig, UlpKind, WorkloadConfig};
use simkit::{Cycle, DetRng, EventQueue, Scope};
use smartdimm::{CompCpyHost, HostConfig, OffloadHandle, OffloadOp};
use ulp_crypto::gcm::AesGcm;

use crate::trace::{Tracer, NO_REQ};
use crate::workload::{Config, ARENA_SLOTS};

// The harness's buffer arenas (see `platforms::server`).
const UBUF_BASE: u64 = 0x0C00_3000;
const REC_BASE: u64 = 0x1600_5000;
const SKB_BASE: u64 = 0x2A00_A000;
const CONN_STRIDE: u64 = 0x0002_1000;
const PAGE: usize = 4096;
const PRESSURE_SAMPLE_EVERY: u64 = 16;

pub fn rec_addr(conn: usize) -> PhysAddr {
    PhysAddr(REC_BASE + conn as u64 * CONN_STRIDE)
}

pub fn ubuf_addr(conn: usize) -> PhysAddr {
    PhysAddr(UBUF_BASE + conn as u64 * CONN_STRIDE)
}

fn skb_addr(conn: usize) -> PhysAddr {
    PhysAddr(SKB_BASE + conn as u64 * CONN_STRIDE)
}

pub fn conn_key(conn: usize) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&(conn as u64).to_le_bytes());
    k[8] = 0x5A;
    k
}

pub fn req_iv(req: u64) -> [u8; 12] {
    let mut iv = [0u8; 12];
    iv[..8].copy_from_slice(&req.to_le_bytes());
    iv
}

fn ns_to_cycles(ns: u64) -> u64 {
    (ns * 8 + 2) / 5
}

fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 * 0.625
}

struct Inflight {
    conn: usize,
    req: u64,
    len: usize,
    handles: Vec<OffloadHandle>,
    out_len: usize,
}

/// The harness's per-request pipeline stages for the placements the
/// workloads use: SmartDIMM offload, and the CPU path of admission
/// fallback.
struct Engine {
    ulp: UlpKind,
    cpu: bool,
    costs: CostParams,
}

fn charge(host: &mut CompCpyHost, ns: u64) {
    host.mem_mut().advance(ns_to_cycles(ns));
}

impl Engine {
    fn produce(
        &self,
        host: &mut CompCpyHost,
        tr: &mut Tracer,
        conn: usize,
        req: u64,
        len: usize,
    ) -> Inflight {
        let span = tr.enter(Some(host), "server.produce", req);
        let p = self.costs;
        let file = conn_file_addr(conn);
        let rec = rec_addr(conn);
        let mut fl = Inflight {
            conn,
            req,
            len,
            handles: Vec::new(),
            out_len: len,
        };
        charge(host, p.request_overhead_ns);
        match (self.ulp, self.cpu) {
            (UlpKind::Tls, true) => {
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; len];
                tr.call(host, "memsys.cpu_copy", req, |h| {
                    h.mem_mut().memcpy(ubuf, file, len, 0, false);
                    h.mem_mut().load(ubuf, &mut body, 0);
                });
                charge(host, p.cpu_ns(p.aesni_cpb, len));
                let (ct, _tag) = tr.call(host, "ulp_crypto.seal", req, |_| {
                    AesGcm::new_128(&conn_key(conn)).seal(&req_iv(req), b"", &body)
                });
                tr.call(host, "memsys.cpu_copy", req, |h| {
                    h.mem_mut().store(rec, &ct, 0)
                });
            }
            (UlpKind::Tls, false) => {
                charge(host, p.compcpy_sw_overhead_ns);
                let op = OffloadOp::TlsEncrypt {
                    key: conn_key(conn),
                    iv: req_iv(req),
                };
                let handle = tr.call(host, "compcpy.comp_cpy", req, |h| {
                    h.comp_cpy(rec, file, len, op, false, 0)
                });
                fl.handles.push(handle.expect("offload accepted"));
            }
            (UlpKind::Compression, false) => {
                for pg in 0..len.div_ceil(PAGE) {
                    let n = (len - pg * PAGE).min(PAGE);
                    let src = PhysAddr(file.0 + (pg * PAGE) as u64);
                    let dst = PhysAddr(rec.0 + (pg * PAGE) as u64);
                    charge(host, p.compcpy_sw_overhead_ns);
                    let handle = tr.call(host, "compcpy.comp_cpy", req, |h| {
                        h.comp_cpy(dst, src, n, OffloadOp::Compress, true, 0)
                    });
                    fl.handles.push(handle.expect("offload accepted"));
                }
            }
            (ulp, cpu) => unreachable!("no workload serves {ulp:?} with cpu={cpu}"),
        }
        tr.exit(Some(host), span);
        fl
    }

    fn socket_write(&self, host: &mut CompCpyHost, tr: &mut Tracer, fl: &mut Inflight) {
        let span = tr.enter(Some(host), "server.socket_write", fl.req);
        let rec = rec_addr(fl.conn);
        let len = fl.len;
        match (self.ulp, self.cpu) {
            (UlpKind::Tls, true) => {
                let skb = skb_addr(fl.conn);
                tr.call(host, "memsys.cpu_copy", fl.req, |h| {
                    h.mem_mut().memcpy(skb, rec, len, 0, false)
                });
            }
            (UlpKind::Tls, false) => {
                tr.call(host, "memsys.flush", fl.req, |h| {
                    h.mem_mut().flush(rec, len.div_ceil(64) * 64)
                });
            }
            _ => {
                let mut total = 0usize;
                for handle in &fl.handles {
                    tr.call(host, "memsys.flush", fl.req, |h| {
                        h.mem_mut()
                            .flush(handle.dbuf, handle.size.div_ceil(64) * 64)
                    });
                    let slot = tr.call(host, "compcpy.read_result", fl.req, |h| {
                        h.read_result(handle)
                    });
                    total += slot.out_len as usize;
                }
                fl.out_len = total;
            }
        }
        tr.exit(Some(host), span);
    }

    fn nic_tx(&self, host: &mut CompCpyHost, tr: &mut Tracer, fl: &Inflight) {
        let span = tr.enter(Some(host), "server.nic_tx", fl.req);
        let (addr, len) = if self.cpu {
            (skb_addr(fl.conn), fl.len)
        } else {
            (rec_addr(fl.conn), fl.out_len)
        };
        tr.call(host, "memsys.dma_read", fl.req, |h| {
            std::hint::black_box(h.mem_mut().dma_read(addr, len));
        });
        tr.exit(Some(host), span);
    }
}

/// Runs the traced replica of `cfg`'s harness with the DRAM CAS trace on
/// (sampled into `tr` for the DRAM replay) and returns the simulated
/// machine's telemetry snapshot after the run, for comparison with the
/// harness's own (`workload::host_snapshot`).
pub fn run(cfg: &Config, tr: &mut Tracer) -> String {
    let mut hc = cfg.host_config();
    hc.mem.dram.trace = true;
    let mut host = match cfg {
        Config::LockStep(c) => lockstep(c, hc, tr),
        Config::Event(c) => event(c, hc, tr),
    };
    host.mem_mut().dram_mut().clear_trace();
    let mut scope = Scope::default();
    host.export_telemetry(&mut scope);
    crate::workload::host_snapshot(&scope)
}

/// Builds the host inside a span (no counters exist before it does).
fn new_host(tr: &mut Tracer, hc: HostConfig) -> CompCpyHost {
    let span = tr.enter(None, "compcpy.host_new", NO_REQ);
    let mut host = CompCpyHost::new(hc);
    tr.exit(Some(&mut host), span);
    host
}

/// Traced replica of `platforms::run_server` on the SmartDIMM
/// placement. Returns the host after the run for its telemetry.
fn lockstep(cfg: &WorkloadConfig, hc: HostConfig, tr: &mut Tracer) -> CompCpyHost {
    let root = tr.enter(None, "server.run", NO_REQ);
    let mut host = new_host(tr, hc);
    let engine = Engine {
        ulp: cfg.ulp,
        cpu: false,
        costs: cfg.costs,
    };
    let preload = tr.enter(Some(&mut host), "server.preload", NO_REQ);
    for conn in 0..cfg.connections {
        let body = tr.call(&mut host, "corpus.generate", NO_REQ, |_| {
            cfg.corpus
                .generate(cfg.message_bytes, cfg.seed ^ conn as u64)
        });
        tr.call(&mut host, "memsys.dma_write", NO_REQ, |h| {
            h.mem_mut().dma_write(conn_file_addr(conn), &body)
        });
    }
    tr.exit(Some(&mut host), preload);

    let plan = LockStepPlan::of(cfg);
    let mut rng = DetRng::new(cfg.seed);
    let mut req_counter = 0u64;
    for b in 0..plan.warmup_batches + plan.measure_batches {
        if b == plan.warmup_batches {
            host.mem_mut().dram_mut().reset_stats();
            host.mem_mut().llc_mut().reset_stats();
        }
        let conns: Vec<usize> = (0..plan.batch)
            .map(|_| rng.gen_range(0..cfg.connections as u64) as usize)
            .collect();
        let mut inflight: Vec<Inflight> = Vec::with_capacity(conns.len());
        for &conn in &conns {
            let req = req_counter;
            req_counter += 1;
            inflight.push(engine.produce(&mut host, tr, conn, req, cfg.message_bytes));
        }
        for fl in &mut inflight {
            engine.socket_write(&mut host, tr, fl);
        }
        for fl in &inflight {
            engine.nic_tx(&mut host, tr, fl);
        }
    }
    tr.exit(Some(&mut host), root);
    host
}

/// The lock-step harness's batch schedule.
#[derive(Debug, Clone, Copy)]
pub struct LockStepPlan {
    pub batch: usize,
    pub warmup_batches: usize,
    pub measure_batches: usize,
}

impl LockStepPlan {
    pub fn of(cfg: &WorkloadConfig) -> LockStepPlan {
        let batch = (cfg.connections / cfg.workers).clamp(1, 64) * cfg.workers.min(16);
        LockStepPlan {
            batch,
            warmup_batches: ((cfg.requests / 4).max(cfg.connections)).div_ceil(batch),
            measure_batches: cfg.requests.div_ceil(batch),
        }
    }

    /// Requests served after warm-up (the base of the DRAM and LLC
    /// statistics, which reset there).
    pub fn measured(&self) -> usize {
        self.measure_batches * self.batch
    }

    /// Requests served in the whole run, warm-up included.
    pub fn served(&self) -> usize {
        (self.warmup_batches + self.measure_batches) * self.batch
    }
}

fn req_rng(seed: u64, conn: usize, req: u64, salt: u64) -> DetRng {
    let mix = seed
        ^ (conn as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ req.wrapping_mul(0x9FB2_1C65_1E98_DF25)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    DetRng::new(mix)
}

fn permille_coin(seed: u64, conn: usize, req: u64, salt: u64, permille: u64) -> bool {
    req_rng(seed, conn, req, salt).gen_range(0..1000) < permille
}

fn zipf_cdf(objects: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(objects);
    let mut acc = 0.0f64;
    for rank in 0..objects {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
        if !c.is_finite() {
            *c = 0.0;
        }
    }
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// The event harness's per-object body size.
pub fn object_len(cfg: &EventWorkloadConfig, object: u64) -> usize {
    let span = (cfg.max_object_bytes - cfg.min_object_bytes + 1) as u64;
    let off = req_rng(cfg.seed, 0, object, 0xB0D1).gen_range(0..span);
    cfg.min_object_bytes + off as usize
}

struct Parked {
    fl: Inflight,
    conn: usize,
    req_no: u64,
    vdone: u64,
    cpu: bool,
}

/// Traced replica of `platforms::run_event_server` on the SmartDIMM
/// placement (admission control by CPU fallback or none).
fn event(cfg: &EventWorkloadConfig, hc: HostConfig, tr: &mut Tracer) -> CompCpyHost {
    let root = tr.enter(None, "eventsim.run", NO_REQ);
    let mut host = new_host(tr, hc);
    let offload = Engine {
        ulp: cfg.ulp,
        cpu: false,
        costs: cfg.costs,
    };
    let fallback = Engine {
        ulp: cfg.ulp,
        cpu: true,
        costs: cfg.costs,
    };
    let cdf = zipf_cdf(cfg.objects, cfg.zipf_s);
    let mut slot_object: Vec<Option<u64>> = vec![None; ARENA_SLOTS];
    let mut workers: BinaryHeap<Reverse<u64>> = (0..cfg.workers).map(|_| Reverse(0u64)).collect();
    let mut q: EventQueue<(usize, u64)> = EventQueue::new();
    let per_conn_budget = |conn: usize| -> u64 {
        let base = (cfg.requests / cfg.connections) as u64;
        base + u64::from(conn < cfg.requests % cfg.connections)
    };
    for conn in 0..cfg.connections {
        if per_conn_budget(conn) == 0 {
            break;
        }
        let t0 = req_rng(cfg.seed, conn, 0, 0xA001).gen_range(0..cfg.think_time_ns.max(1));
        q.push(Cycle(ns_to_cycles(t0)), (conn, 0));
    }
    let next_gap_ns = |conn: usize, req_no: u64| -> u64 {
        let mut gap =
            req_rng(cfg.seed, conn, req_no, 0xE0E0).gen_exp(cfg.think_time_ns.max(1) as f64) as u64;
        if permille_coin(cfg.seed, conn, req_no, 0x510C, cfg.slow_client_permille) {
            gap += cfg.slow_drain_ns;
        }
        if permille_coin(cfg.seed, conn, req_no, 0xC4A2, cfg.churn_permille) {
            gap += cfg.reconnect_ns;
        }
        gap
    };
    let admission = cfg.admission.policy != platforms::AdmissionPolicy::None;
    assert!(
        cfg.admission.policy != platforms::AdmissionPolicy::Shed,
        "the replica models CPU fallback, not shedding"
    );
    let mut pressure = 0.0f64;
    let mut processed = 0u64;
    let mut req_id = 0u64;
    let mut parked: VecDeque<Parked> = VecDeque::new();
    let mut vnow = 0u64;
    let mut link_free = 0u64;
    let mut last_completion = 0u64;

    while !q.is_empty() || !parked.is_empty() {
        if parked.len() > cfg.inflight_window || q.is_empty() {
            if let Some(mut p) = parked.pop_front() {
                let engine = if p.cpu { &fallback } else { &offload };
                let m0 = host.mem().now();
                engine.socket_write(&mut host, tr, &mut p.fl);
                engine.nic_tx(&mut host, tr, &p.fl);
                let fin = host.mem().now() - m0;
                let wire_ns = (p.fl.out_len as f64 * 8.0 / cfg.costs.link_gbps).ceil() as u64;
                let tx_start = (p.vdone.max(vnow) + fin).max(link_free);
                let done = tx_start + ns_to_cycles(wire_ns);
                link_free = done;
                last_completion = last_completion.max(done);
                if p.req_no + 1 < per_conn_budget(p.conn) {
                    let gap = next_gap_ns(p.conn, p.req_no);
                    q.push(Cycle(done + ns_to_cycles(gap)), (p.conn, p.req_no + 1));
                }
            }
            continue;
        }
        let Some((Cycle(t), (conn, req_no))) = q.pop() else {
            continue;
        };
        vnow = vnow.max(t);
        if processed.is_multiple_of(PRESSURE_SAMPLE_EVERY) {
            pressure = tr.call(&mut host, "compcpy.queue_pressure", req_id, |h| {
                h.queue_pressure().scalar()
            });
        }
        processed += 1;
        let rejected = admission && pressure > cfg.admission.watermark;

        let u = req_rng(cfg.seed, conn, req_no, 0xC0DE).gen_f64();
        let object = cdf.partition_point(|&c| c < u).min(cfg.objects - 1) as u64;
        let len = object_len(cfg, object);
        let slot = conn % ARENA_SLOTS;
        if slot_object[slot] != Some(object) {
            let body = tr.call(&mut host, "corpus.generate", req_id, |_| {
                cfg.corpus.generate(len, cfg.seed ^ object)
            });
            tr.call(&mut host, "memsys.dma_write", req_id, |h| {
                h.mem_mut().dma_write(conn_file_addr(slot), &body)
            });
            slot_object[slot] = Some(object);
        }
        let Reverse(free_at) = workers.pop().unwrap_or(Reverse(0));
        let start = t.max(free_at);
        let engine = if rejected { &fallback } else { &offload };
        let m0 = host.mem().now();
        let fl = engine.produce(&mut host, tr, slot, req_id, len);
        let produce = host.mem().now() - m0;
        req_id += 1;
        let vdone = start + produce;
        workers.push(Reverse(vdone));
        parked.push_back(Parked {
            fl,
            conn,
            req_no,
            vdone,
            cpu: rejected,
        });
    }
    let vnow_ns = cycles_to_ns(last_completion) as u64;
    let mnow_ns = cycles_to_ns(host.mem().now().0) as u64;
    if vnow_ns > mnow_ns {
        charge(&mut host, vnow_ns - mnow_ns);
    }
    tr.exit(Some(&mut host), root);
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::CacheConfig;
    use platforms::{AdmissionConfig, AdmissionPolicy};

    fn matches_harness(cfg: &Config) {
        let mut reference = crate::workload::run_once(cfg).expect("harness run");
        let mut tr = Tracer::new();
        let replica = run(cfg, &mut tr);
        assert!(
            replica == crate::workload::host_snapshot(reference.scope.scope("host")),
            "the traced replica diverged from the harness for {cfg:?}"
        );
        let prof = crate::trace::analyse(
            &tr.spans,
            crate::trace::LeafCosts {
                dram_ns_per_cas: 1.0,
                dsa_ns_per_line: 1.0,
            },
        )
        .expect("well-formed span tree");
        assert!(prof.by_name["server.produce"].calls > 0);
        assert!(!tr.cas_sample.is_empty());
    }

    #[test]
    fn lockstep_replica_matches_the_harness() {
        for (ulp, interleave) in [(UlpKind::Tls, 1), (UlpKind::Compression, 64)] {
            matches_harness(&Config::LockStep(WorkloadConfig {
                connections: 16,
                requests: 40,
                ulp,
                channels: 4,
                channel_interleave_lines: interleave,
                llc: Some(CacheConfig::mb(2, 16)),
                ..WorkloadConfig::default()
            }));
        }
    }

    #[test]
    fn event_replica_matches_the_harness() {
        matches_harness(&Config::Event(EventWorkloadConfig {
            connections: 1500,
            requests: 300,
            objects: 64,
            churn_permille: 100,
            slow_client_permille: 50,
            scratchpad_pages: Some(8),
            inflight_window: 16,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::CpuFallback,
                watermark: 0.3,
            },
            llc: Some(CacheConfig::mb(2, 16)),
            ..EventWorkloadConfig::default()
        }));
    }
}
