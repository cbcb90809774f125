//! Multi-channel scale-out (§V-D): per-channel SmartDIMM shards behind
//! one `CompCpyHost`, with cross-channel sbuf/dbuf pairs routed through
//! a phase-matched bounce buffer.
//!
//! Under *coarse* interleave (≥ 64 consecutive cachelines per channel)
//! whole pages map to one channel and consecutive pages rotate channels,
//! so a source page and its destination page can land on different
//! SmartDIMMs. A shard only ever sees the CAS traffic of its own
//! channel, so the driver stages such offloads into a bounce region at
//! the same phase of the interleave period as the source and copies out
//! once the device completes. Every path must stay byte-exact against
//! the software golden path and deterministic across same-seed runs.

use dram::DramTopology;
use simkit::telemetry::Registry;
use simkit::FaultPlan;
use smartdimm::{CompCpyHost, FaultOracle, HostConfig, OffloadOp};
use ulp_crypto::gcm::AesGcm;

/// 64 lines per channel: page-granular (coarse) channel rotation.
const COARSE: usize = 64;

fn host_with(channels: usize, interleave: usize) -> CompCpyHost {
    let mut cfg = HostConfig::default();
    cfg.mem.dram.topology = DramTopology {
        channels,
        channel_interleave_lines: interleave,
        ..DramTopology::default()
    };
    CompCpyHost::new(cfg)
}

/// Encrypts `size` bytes and checks ciphertext + tag against software
/// AES-GCM. Returns how many offloads the host bounced so far.
fn tls_round_trip(host: &mut CompCpyHost, size: usize, aad: &[u8], seed: u64) -> u64 {
    let pages = size.div_ceil(4096);
    let src = host.alloc_pages(pages);
    let dst = host.alloc_pages(pages);
    let msg = ulp_compress::corpus::html(size, seed);
    host.mem_mut().store(src, &msg, 0);
    let key = [0x2Au8; 16];
    let iv = [seed as u8; 12];
    let handle = host
        .comp_cpy_with_aad(
            dst,
            src,
            size,
            OffloadOp::TlsEncrypt { key, iv },
            aad,
            false,
            0,
        )
        .expect("offload accepted");
    let ct = host.use_buffer(&handle);
    let tag = host.tag(&handle).expect("tag available");
    let gcm = AesGcm::new_128(&key);
    let (want_ct, want_tag) = gcm.seal(&iv, aad, &msg);
    assert_eq!(ct, want_ct, "ciphertext ({size}B, seed {seed})");
    assert_eq!(tag, want_tag, "tag ({size}B, seed {seed})");
    host.bounced_offload_count()
}

#[test]
fn cross_channel_tls_two_channels_coarse() {
    // One page per buffer: consecutive page allocations land on
    // alternating channels, so sbuf and dbuf are guaranteed to sit on
    // *different* SmartDIMMs.
    let mut host = host_with(2, COARSE);
    let bounced = tls_round_trip(&mut host, 4096, b"hdr#1", 1);
    assert!(bounced >= 1, "cross-channel pair must take the bounce path");
}

#[test]
fn cross_channel_tls_multi_page() {
    // Three pages: src pages occupy channels (k, k+1, k+2) mod 2 and dst
    // pages start at an odd page offset, so every page pair is
    // phase-mismatched. The partial engines on both shards must combine.
    let mut host = host_with(2, COARSE);
    tls_round_trip(&mut host, 3 * 4096, b"hdr#3", 2);
    tls_round_trip(&mut host, 2 * 4096 + 100, b"", 3);
}

#[test]
fn cross_channel_tls_four_channels() {
    let mut host = host_with(4, COARSE);
    let mut bounced = 0;
    for seed in 0..4 {
        bounced = tls_round_trip(&mut host, 4096, b"hd", 10 + seed);
    }
    assert!(bounced >= 1, "some pair must have crossed channels");
    // Repeated single-page offloads rotate through all four channels.
    let active = (0..4)
        .filter(|&c| host.device_on(c).stats().dsa_lines > 0)
        .count();
    assert!(active >= 2, "only {active} of 4 shards processed lines");
}

#[test]
fn cross_channel_compression_round_trip() {
    let mut host = host_with(2, COARSE);
    let page = ulp_compress::corpus::html(4096, 7);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1); // opposite channel from src
    host.mem_mut().store(src, &page, 0);
    let handle = host
        .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
        .expect("coarse interleave keeps the source on one channel");
    let compressed = host.use_buffer(&handle);
    assert!(host.bounced_offload_count() >= 1);
    assert_eq!(
        ulp_compress::inflate::decompress(&compressed).expect("valid deflate stream"),
        page,
        "compressed output corrupted by the bounce path"
    );

    // And back: decompress across channels too.
    let csrc = host.alloc_pages(1);
    let cdst = host.alloc_pages(1);
    host.mem_mut().store(csrc, &compressed, 0);
    let handle = host
        .comp_cpy(cdst, csrc, compressed.len(), OffloadOp::Decompress, true, 0)
        .expect("decompression accepted");
    let restored = host.use_buffer(&handle);
    assert_eq!(restored, page, "decompression round trip");
}

#[test]
fn fine_interleave_still_rejects_compression() {
    // Fine interleave splits every page across channels: there is no
    // sole channel for the source, so non-size-preserving offloads stay
    // rejected (the pre-existing §V-D restriction).
    let mut host = host_with(2, 1);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    host.mem_mut().store(src, &[7u8; 4096], 0);
    assert_eq!(
        host.comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0),
        Err(smartdimm::CompCpyError::SingleChannelOnly)
    );
}

#[test]
fn cross_channel_offloads_under_fault_injection() {
    // Seeded fault plans against a starved 2-channel coarse-interleave
    // host: the oracle allocates src and dst consecutively, so
    // odd-page-count buffers produce cross-channel pairs. Every scenario
    // must stay byte-exact (oracle.check panics otherwise).
    for seed in 0..12u64 {
        let plan = FaultPlan::generate(seed, 4);
        let mut cfg = HostConfig::default();
        cfg.mem.dram.topology = DramTopology {
            channels: 2,
            channel_interleave_lines: COARSE,
            ..DramTopology::default()
        };
        cfg.dimm.scratchpad_pages = 16;
        cfg.dimm.xlat_entries = 64;
        cfg.dimm.cam_entries = 4;
        let mut oracle = FaultOracle::new(cfg, plan);
        let key = [0x5Cu8; 16];
        for i in 0..4u64 {
            let size = 600 + (seed * 977 + i * 4099) as usize % 7000;
            let msg = ulp_compress::corpus::text(size, seed * 31 + i);
            let mut iv = [0u8; 12];
            iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
            oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"hdr#f");
            oracle.assert_occupancy_bound();
        }
        assert!(
            oracle.host().bounced_offload_count() >= 1,
            "seed {seed}: no offload exercised the bounce path"
        );
    }
}

/// Runs a fixed multi-channel workload and snapshots its telemetry.
fn channel_snapshot(channels: usize, interleave: usize) -> String {
    let mut host = host_with(channels, interleave);
    for seed in 0..6u64 {
        let size = 2048 + (seed * 1777) as usize % 6000;
        tls_round_trip(&mut host, size, b"det", 40 + seed);
    }
    let mut reg = Registry::new();
    host.export_telemetry(reg.scope("host"));
    reg.snapshot()
}

#[test]
fn multi_channel_same_seed_runs_are_byte_identical() {
    for (channels, interleave) in [(2, 1), (2, COARSE), (4, COARSE)] {
        let a = channel_snapshot(channels, interleave);
        let b = channel_snapshot(channels, interleave);
        assert_eq!(
            a, b,
            "{channels}-channel (interleave {interleave}) snapshots diverged"
        );
        // Per-channel sub-scopes must be present in the export.
        for c in 0..channels {
            assert!(a.contains(&format!("\"channel{c}\"")), "missing channel{c}");
        }
        for sub in ["\"device\"", "\"scratchpad\"", "\"xlat\""] {
            assert!(a.contains(sub), "missing {sub} sub-scope");
        }
    }
}
