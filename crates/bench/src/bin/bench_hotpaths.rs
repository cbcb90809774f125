//! Self-timing hot-path micro-benchmarks → `BENCH_hotpaths.json`.
//!
//! Measures each hot-path optimization against the retained reference
//! implementation it replaced:
//!
//! 1. `gf128_mul` — GHASH-style GF(2^128) fold: bit-at-a-time
//!    `Gf128::mul_bitwise` vs the table-free carry-less multiply (`*`).
//! 2. `aes_block` — AES-128 over a page of counter blocks: byte-wise
//!    FIPS-197 rounds (`Aes::encrypt_block_ref`) vs the T-table cipher
//!    (`Aes::encrypt_block`).
//! 3. `ooo_gcm_4k` — one partial TLS DSA engine (§V-D) registering a
//!    4 KB page and absorbing its 64 cachelines: one power of `H` per
//!    16 B block (the former 258-entry `HPowers` table) vs one power per
//!    cacheline (`OooGcm`), both on the current AES and multiply.
//! 4. `compcpy_page_copy` — CompCpy's copy step through a
//!    SmartDIMM-backed memory system: per-line loads/stores vs the
//!    batched whole-page path (one buffer-device interception and one
//!    translation probe per 4 KB page).
//! 5. `lz77_match_finder` — LZ77 tokenization: linear window scan
//!    (`tokenize_linear`) vs the hash-chain matcher (`tokenize`).
//! 6. `whole_sim_parallel` — the 4-channel run_report sweep's
//!    independent entries run back to back vs fanned out on a 4-worker
//!    `simkit::par` pool.
//! 7. `dimm_cell_store` — DIMM cell storage under CAS traffic: one
//!    `BTreeMap` entry per 64 B line vs `dram::Dimm`'s 1 KB
//!    bank-striped chunks.
//!
//! All inputs are seeded and deterministic; only the wall-clock timings
//! vary run to run. Modes:
//!
//! * `smoke` — tiny inputs/iterations for CI (ratios not meaningful);
//!   writes to `target/BENCH_hotpaths.smoke.json` so a CI run never
//!   clobbers the committed full-mode numbers,
//! * `full` — the committed numbers at `BENCH_hotpaths.json` (default),
//! * `check` — parse-validate the committed `BENCH_hotpaths.json` and
//!   exit non-zero if it is missing, malformed, or lacks a row (used by
//!   `ci.sh`).
//!
//! Every report records the host's `nproc`: the whole-simulation rows
//! depend on it.

use bench::harness::{json_parses, median_ns_per_op, report, BenchSpec, HotPath};
use cache::CacheConfig;
use dram::dimm::CellCoord;
use dram::{
    AddressMapper, BufferDevice, CasInfo, Dimm, DramTopology, PhysAddr, RdResult, WrResult,
};
use platforms::{run_server, PlatformKind, UlpKind, WorkloadConfig};
use simkit::{Cycle, DetRng};
use smartdimm::{CompCpyHost, HostConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use ulp_crypto::aes::Aes;
use ulp_crypto::gcm::{AesGcm, Direction, OooGcm, CACHELINE};
use ulp_crypto::gf128::Gf128;

/// Rows `check` mode requires in the committed report.
const REQUIRED_ROWS: [&str; 7] = [
    "gf128_mul",
    "aes_block",
    "ooo_gcm_4k",
    "compcpy_page_copy",
    "lz77_match_finder",
    "whole_sim_parallel",
    "dimm_cell_store",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn bench_gf128(spec: BenchSpec, blocks: usize) -> HotPath {
    let mut rng = DetRng::new(0x9e3779b97f4a7c15);
    let mut rand_block = move || {
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut b);
        Gf128::from_bytes(&b)
    };
    let h = rand_block();
    let data: Vec<Gf128> = (0..blocks).map(|_| rand_block()).collect();

    let before = median_ns_per_op(spec, || {
        let mut y = Gf128::ZERO;
        for &b in &data {
            y = (y + b).mul_bitwise(h);
        }
        assert_ne!(y, Gf128::ZERO);
    });
    let after = median_ns_per_op(spec, || {
        let mut y = Gf128::ZERO;
        for &b in &data {
            y = (y + b) * h;
        }
        assert_ne!(y, Gf128::ZERO);
    });
    HotPath {
        name: "gf128_mul",
        before_impl: "Gf128::mul_bitwise (bit-at-a-time, SP 800-38D reference)",
        after_impl: "Gf128 * Gf128 (table-free masked-multiply Karatsuba + reduction)",
        work_units: format!(
            "GHASH fold over {blocks} blocks ({} KB)",
            blocks * 16 / 1024
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_aes(spec: BenchSpec, blocks: usize) -> HotPath {
    let aes = Aes::new_128(&[0x2b; 16]);
    let counters: Vec<[u8; 16]> = (0..blocks as u128).map(|i| i.to_be_bytes()).collect();
    let run = |encrypt: fn(&Aes, &[u8; 16]) -> [u8; 16]| {
        median_ns_per_op(spec, || {
            let mut x = 0u8;
            for c in &counters {
                x ^= encrypt(&aes, c)[0];
            }
            std::hint::black_box(x);
        })
    };
    HotPath {
        name: "aes_block",
        before_impl: "Aes::encrypt_block_ref (byte-wise FIPS-197 rounds)",
        after_impl: "Aes::encrypt_block (compile-time T-tables, u32 round keys)",
        work_units: format!(
            "AES-128 over {blocks} counter blocks ({} KB of keystream)",
            blocks * 16 / 1024
        ),
        before_ns_per_op: run(Aes::encrypt_block_ref),
        after_ns_per_op: run(Aes::encrypt_block),
    }
}

/// The partial TLS engine as it ran with one power of `H` per 16 B
/// block: registration builds `H^1 ..= H^(blocks + 1)` by repeated
/// multiplication, and each ciphertext block multiplies by its own
/// power. Same keystream, same multiply as [`OooGcm`]; returns the
/// partial GHASH accumulator.
fn per_block_powers_engine(gcm: &AesGcm, iv: &[u8; 12], msg: &[u8]) -> [u8; 16] {
    let h = gcm.hash_subkey();
    let total = msg.len().div_ceil(16) + 1;
    let mut powers = Vec::with_capacity(total); // powers[i] = H^(i+1)
    let mut p = h;
    for _ in 0..total {
        powers.push(p);
        p = p * h;
    }
    let mut acc = Gf128::ZERO;
    for (line, chunk) in msg.chunks(CACHELINE).enumerate() {
        let mut ct = chunk.to_vec();
        gcm.xor_keystream(iv, line * CACHELINE, &mut ct);
        for (k, block) in ct.chunks(16).enumerate() {
            let mut b = [0u8; 16];
            b[..block.len()].copy_from_slice(block);
            acc = acc + Gf128::from_bytes(&b) * powers[total - 1 - (line * 4 + k)];
        }
    }
    acc.to_bytes()
}

fn bench_ooo_gcm(spec: BenchSpec) -> HotPath {
    let gcm = AesGcm::new_128(&[0x42; 16]);
    let iv = [7u8; 12];
    let msg = ulp_compress::corpus::text(4096, 3);
    let new_engine = || {
        let mut dsa = OooGcm::with_metadata_policy(
            gcm.clone(),
            iv,
            b"",
            msg.len(),
            Direction::Encrypt,
            false,
        );
        for (line, chunk) in msg.chunks(CACHELINE).enumerate() {
            std::hint::black_box(dsa.process_cacheline(line * CACHELINE, chunk));
        }
        dsa.partial_ghash()
    };
    assert_eq!(
        per_block_powers_engine(&gcm, &iv, &msg),
        new_engine(),
        "both engines must produce the same partial GHASH"
    );
    HotPath {
        name: "ooo_gcm_4k",
        before_impl: "one power of H per 16 B block (258-entry HPowers-style table)",
        after_impl: "OooGcm: Horner per cacheline + one of 64 per-line powers",
        work_units: "partial TLS engine: register a 4 KB page + 64 cachelines".into(),
        before_ns_per_op: median_ns_per_op(spec, || {
            std::hint::black_box(per_block_powers_engine(&gcm, &iv, &msg));
        }),
        after_ns_per_op: median_ns_per_op(spec, || {
            std::hint::black_box(new_engine());
        }),
    }
}

fn bench_compcpy(spec: BenchSpec, pages: usize) -> HotPath {
    let size = pages * 4096;
    let payload: Vec<u8> = {
        let mut rng = DetRng::new(0xC0FFEE);
        let mut v = vec![0u8; size];
        rng.fill_bytes(&mut v);
        v
    };
    // One op = the CompCpy copy step (Algorithm 2 lines 19 + 24-31):
    // flush the source to DRAM, then copy it through the cache while the
    // SmartDIMM intercepts every miss. Pages are unmapped, isolating the
    // copy engine from DSA work (identical in both paths).
    let run = |batch: bool| {
        let mut cfg = HostConfig::default();
        cfg.mem.batch_page_copy = batch;
        let mut host = CompCpyHost::new(cfg);
        let src = host.alloc_pages(pages);
        let dst = host.alloc_pages(pages);
        host.mem_mut().store(src, &payload, 0);
        median_ns_per_op(spec, || {
            let mem = host.mem_mut();
            mem.flush(src, size);
            mem.memcpy(dst, src, size, 0, false);
        })
    };
    let before = run(false);
    let after = run(true);
    HotPath {
        name: "compcpy_page_copy",
        before_impl: "per-line loads/stores (64 CAS interceptions per page)",
        after_impl: "batched page copy (one interception + one xlat probe per page)",
        work_units: format!(
            "flush + copy of {pages} pages ({} KB) through a SmartDIMM memsys",
            pages * 4
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_lz77(spec: BenchSpec, input_len: usize) -> HotPath {
    let data = ulp_compress::corpus::text(input_len, 42);
    let config = ulp_compress::lz77::MatcherConfig::default();
    let before = median_ns_per_op(spec, || {
        let toks = ulp_compress::lz77::tokenize_linear(&data, config);
        assert!(!toks.is_empty());
    });
    let after = median_ns_per_op(spec, || {
        let toks = ulp_compress::lz77::tokenize(&data, config);
        assert!(!toks.is_empty());
    });
    HotPath {
        name: "lz77_match_finder",
        before_impl: "tokenize_linear (exhaustive backwards window scan)",
        after_impl: "tokenize (hash-chain match finder, lazy matching)",
        work_units: format!("tokenize {} KB of seeded text corpus", input_len / 1024),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_whole_sim_parallel(spec: BenchSpec, connections: usize, requests: usize) -> HotPath {
    // One op = the 4-channel slice of the `run_report` sweep: four
    // independent simulations (TLS on CPU and twice on SmartDIMM under
    // fine interleave, deflate under coarse).
    // Before: the entries run one after another on the caller's
    // thread. After: the same entries fanned out on a 4-worker
    // `simkit::par` pool, exactly as `run_report` executes them. Each
    // simulation itself is sequential; results are byte-identical
    // either way (`tests/parallel_determinism.rs` pins this). The ratio
    // is the wall-clock scaling of whole-simulation parallelism,
    // bounded by the slowest single entry (deflate).
    let entries = || -> Vec<(PlatformKind, WorkloadConfig)> {
        let tls_cfg = WorkloadConfig {
            message_bytes: 4096,
            connections,
            requests,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            channels: 4,
            channel_interleave_lines: 1,
            ..WorkloadConfig::default()
        };
        let deflate_cfg = WorkloadConfig {
            ulp: UlpKind::Compression,
            channel_interleave_lines: 64,
            ..tls_cfg.clone()
        };
        vec![
            (PlatformKind::Cpu, tls_cfg.clone()),
            (PlatformKind::SmartDimm, tls_cfg.clone()),
            (PlatformKind::SmartDimm, deflate_cfg),
            (PlatformKind::SmartDimm, tls_cfg),
        ]
    };
    let before = median_ns_per_op(spec, || {
        for (kind, cfg) in entries() {
            let m = run_server(kind, &cfg);
            assert!(m.rps > 0.0);
        }
    });
    let after = median_ns_per_op(spec, || {
        let (metrics, _) =
            simkit::par::run_indexed(4, entries(), |_, (kind, cfg)| run_server(kind, &cfg));
        assert!(metrics.iter().all(|m| m.rps > 0.0));
    });
    HotPath {
        name: "whole_sim_parallel",
        before_impl: "sequential report builder (entries run back to back)",
        after_impl: "4-worker simkit::par fan-out (work-stealing deque, ordered mount)",
        work_units: format!(
            "4-channel run_report entries: TLS cpu + 2x smartdimm fine, \
             deflate coarse, {connections} conns x {requests} reqs"
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

/// A DIMM's cell store as driven by CAS commands.
trait CellStore {
    fn wr_cas(&mut self, info: &CasInfo, data: &[u8; 64]);
    fn rd_cas(&mut self, info: &CasInfo) -> RdResult;
}

impl CellStore for Dimm {
    fn wr_cas(&mut self, info: &CasInfo, data: &[u8; 64]) {
        Dimm::wr_cas(self, info, data);
    }
    fn rd_cas(&mut self, info: &CasInfo) -> RdResult {
        Dimm::rd_cas(self, info)
    }
}

/// The DIMM store before 1 KB chunks: one `BTreeMap` entry per line,
/// keyed by `(rank, bank_index, row, col)`, with the same buffer-device
/// dispatch as [`Dimm`].
struct PerLineDimm {
    cells: BTreeMap<CellCoord, [u8; 64]>,
    buffer: Box<dyn BufferDevice>,
}

impl CellStore for PerLineDimm {
    fn wr_cas(&mut self, info: &CasInfo, data: &[u8; 64]) {
        if let WrResult::Commit(d) = self.buffer.on_wr_cas(info, data) {
            let key = (info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
            self.cells.insert(key, d);
        }
    }
    fn rd_cas(&mut self, info: &CasInfo) -> RdResult {
        let key = (info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
        let dram = self.cells.get(&key).copied().unwrap_or([0u8; 64]);
        self.buffer.on_rd_cas(info, &dram)
    }
}

fn bench_dimm_cell_store(spec: BenchSpec, write_bytes: usize, reads: usize) -> HotPath {
    let mapper = AddressMapper::new(DramTopology::default());
    let topo = *mapper.topology();
    let cas = |line: u64| {
        let loc = mapper.decode(PhysAddr(line * 64));
        CasInfo {
            loc,
            phys: PhysAddr(line * 64),
            bank_index: loc.bank_index(&topo),
            at: Cycle::ZERO,
            tag: 0,
        }
    };
    let lines = (write_bytes / 64) as u64;
    let mut rng = DetRng::new(0xD1A4);
    let read_lines: Vec<u64> = (0..reads).map(|_| rng.gen_range(0..lines)).collect();
    // One op: a fresh store takes every line of the working set in
    // address order, then serves the random reads.
    let op = |store: &mut dyn CellStore| {
        for line in 0..lines {
            store.wr_cas(&cas(line), &[line as u8; 64]);
        }
        let mut sum = 0u64;
        for &line in &read_lines {
            match store.rd_cas(&cas(line)) {
                RdResult::Data(d) => sum += u64::from(d[0]),
                RdResult::Retry => unreachable!("a plain DIMM never retries"),
            }
        }
        sum
    };
    let per_line = || PerLineDimm {
        cells: BTreeMap::new(),
        buffer: Box::new(dram::Passthrough),
    };
    assert_eq!(
        op(&mut per_line()),
        op(&mut Dimm::passthrough()),
        "both stores must return the same data"
    );
    HotPath {
        name: "dimm_cell_store",
        before_impl: "one BTreeMap entry per 64 B line, keyed (rank, bank, row, col)",
        after_impl: "Dimm: BTreeMap of 1 KB chunks, keyed (rank, row, col, bank / 16)",
        work_units: format!(
            "fresh pass-through DIMM: {} MB of sequential line writes, then \
             {reads} random line reads (one channel, default topology)",
            write_bytes >> 20
        ),
        before_ns_per_op: median_ns_per_op(spec, || {
            std::hint::black_box(op(&mut per_line()));
        }),
        after_ns_per_op: median_ns_per_op(spec, || {
            std::hint::black_box(op(&mut Dimm::passthrough()));
        }),
    }
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let out_path = repo_root().join("BENCH_hotpaths.json");

    if mode == "check" {
        return match std::fs::read_to_string(&out_path) {
            Ok(s) if json_parses(&s) && s.contains("bench_hotpaths/v1") => {
                let missing: Vec<&str> = REQUIRED_ROWS
                    .into_iter()
                    .filter(|row| !s.contains(&format!("\"name\": \"{row}\"")))
                    .collect();
                if !missing.is_empty() {
                    eprintln!("[err] {} lacks rows {missing:?}", out_path.display());
                    return ExitCode::FAILURE;
                }
                println!("[ok] {} parses and has every row", out_path.display());
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("[err] {} is not valid report JSON", out_path.display());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("[err] {}: {e}", out_path.display());
                ExitCode::FAILURE
            }
        };
    }

    // The cell-store row's op is a whole 48 MB fill, so full mode times
    // it with a lighter plan of its own.
    let (spec, gf_blocks, pages, lz_len, sweep_scale, cells, out_path) = match mode.as_str() {
        "smoke" => (
            BenchSpec::smoke(),
            256,
            4,
            1024,
            (16, 60),
            (BenchSpec::smoke(), 1 << 20, 1 << 14),
            repo_root().join("target").join("BENCH_hotpaths.smoke.json"),
        ),
        "full" => (
            BenchSpec::full(),
            256,
            32,
            8192,
            (32, 150),
            (
                BenchSpec {
                    warmup_iters: 1,
                    iters: 1,
                    samples: 5,
                },
                48 << 20,
                1 << 20,
            ),
            out_path,
        ),
        other => {
            eprintln!("usage: bench_hotpaths [smoke|full|check] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    println!("hot-path benchmarks ({mode} mode)");
    let paths = vec![
        bench_gf128(spec, gf_blocks),
        bench_aes(spec, gf_blocks),
        bench_ooo_gcm(spec),
        bench_compcpy(spec, pages),
        bench_lz77(spec, lz_len),
        bench_whole_sim_parallel(spec, sweep_scale.0, sweep_scale.1),
        bench_dimm_cell_store(cells.0, cells.1, cells.2),
    ];
    let mut rows = Vec::new();
    for p in &paths {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.0}", p.before_ns_per_op),
            format!("{:.0}", p.after_ns_per_op),
            bench::ratio(p.speedup()),
        ]);
    }
    bench::print_table(
        "hot paths (median ns/op)",
        &["path", "before", "after", "speedup"],
        &rows,
    );

    let doc = report(&mode, spec, &paths).render();
    assert!(json_parses(&doc), "emitted report must be valid JSON");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out_path, doc).expect("write BENCH_hotpaths.json");
    println!("\n[report written to {}]", out_path.display());
    ExitCode::SUCCESS
}
