//! Report-level fan-out must be invisible in simulated state: running
//! independent report entries through `simkit::par::run_indexed` on 1,
//! 2 or 4 workers and mounting their scopes in index order must render
//! byte-identical `telemetry/v1` snapshots. Each entry owns its host
//! and seed, and results come back in input order, so no scheduler
//! decision can reach the snapshot (see `simkit::par` and DESIGN.md
//! §11).

use cache::CacheConfig;
use platforms::{run_server_with_telemetry, PlatformKind, UlpKind, WorkloadConfig};
use simkit::telemetry::{Registry, Scope};

/// Coarse interleave: whole pages pin to one channel, which is what
/// lets non-size-preserving deflate offloads run on a 4-channel system.
const COARSE: usize = 64;

/// The 4-channel TLS (fine interleave) and deflate (coarse interleave)
/// entries, each with its scope path.
fn entries(seed: u64) -> Vec<(&'static str, WorkloadConfig)> {
    let tls = WorkloadConfig {
        message_bytes: 4096,
        connections: 16,
        requests: 64,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        channels: 4,
        channel_interleave_lines: 1, // fine: every offload stripes across shards
        seed,
        ..WorkloadConfig::default()
    };
    let deflate = WorkloadConfig {
        ulp: UlpKind::Compression,
        channel_interleave_lines: COARSE,
        ..tls.clone()
    };
    vec![("server.tls_ch4", tls), ("server.deflate_ch4", deflate)]
}

/// Runs the entries on a `workers`-wide fan-out and mounts each scope
/// in index order, as `run_report` does.
fn fanned_out_snapshot(workers: usize, seed: u64) -> String {
    let (scopes, _) = simkit::par::run_indexed(workers, entries(seed), |_, (path, cfg)| {
        let mut scope = Scope::default();
        run_server_with_telemetry(PlatformKind::SmartDimm, &cfg, &mut scope);
        (path, scope)
    });
    let mut reg = Registry::new();
    for (path, scope) in scopes {
        *reg.scope(path) = scope;
    }
    reg.snapshot()
}

#[test]
fn thread_count_never_changes_the_snapshot() {
    let sequential = fanned_out_snapshot(1, 1);
    assert!(sequential.contains("\"schema\": \"telemetry/v1\""));
    assert!(sequential.contains("\"tls_ch4\""));
    assert!(sequential.contains("\"deflate_ch4\""));
    // Scheduler stats belong to the `run_report/v1` wrapper only.
    assert!(!sequential.contains("steals"));
    for workers in [2usize, 4] {
        assert_eq!(
            sequential,
            fanned_out_snapshot(workers, 1),
            "1 vs {workers} fan-out workers: snapshots diverged"
        );
    }
}

#[test]
fn perturbed_seed_actually_moves_the_snapshot() {
    // Guard against the byte-compare above being vacuous: a different
    // connection-scheduling seed must change at least one metric.
    assert_ne!(
        fanned_out_snapshot(4, 1),
        fanned_out_snapshot(4, 2),
        "seed perturbation left the snapshot unchanged"
    );
}
