//! The buffer device's Bank Table mirrors the controller's bank state.
//!
//! SmartDIMM rebuilds each CAS's physical address from the row its
//! Bank Table shadows (paper §IV-C), so it must see every ACT and PRE
//! the controller issues — including the all-bank precharge before each
//! refresh. A fault-free run therefore ends with no `bank_desyncs` on any
//! channel's device, on every harness and interleave.

use cache::CacheConfig;
use platforms::{
    run_event_server_with_telemetry, run_server_with_telemetry, EventWorkloadConfig, PlatformKind,
    UlpKind, WorkloadConfig,
};
use simkit::telemetry::Registry;

/// Every value of counter `key` in a rendered `telemetry/v1` snapshot
/// (one metric per line: `"key": { "kind": "counter", "value": N }`).
fn counters(snapshot: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\": {{ \"kind\": \"counter\", \"value\": ");
    snapshot
        .lines()
        .filter_map(|l| {
            let idx = l.find(&pat)?;
            let digits: String = l[idx + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse::<u64>().ok()
        })
        .collect()
}

/// Asserts the run refreshed (so PREA was exercised) and that every
/// device ended in sync with its controller.
fn assert_in_sync(snapshot: &str, devices: usize) {
    assert!(
        counters(snapshot, "refreshes").iter().any(|&r| r > 0),
        "the run must span at least one refresh"
    );
    let desyncs = counters(snapshot, "bank_desyncs");
    assert_eq!(desyncs.len(), devices, "one bank_desyncs per device");
    assert!(desyncs.iter().all(|&d| d == 0), "bank desyncs: {desyncs:?}");
}

fn lock_step(ulp: UlpKind, interleave: usize) -> String {
    let cfg = WorkloadConfig {
        message_bytes: 4096,
        connections: 16,
        requests: 64,
        ulp,
        llc: Some(CacheConfig::mb(2, 16)),
        channels: 4,
        channel_interleave_lines: interleave,
        ..WorkloadConfig::default()
    };
    let mut reg = Registry::new();
    run_server_with_telemetry(PlatformKind::SmartDimm, &cfg, reg.scope("server"));
    reg.snapshot()
}

#[test]
fn tls_fine_interleave_stays_in_sync() {
    assert_in_sync(&lock_step(UlpKind::Tls, 1), 4);
}

#[test]
fn deflate_coarse_interleave_stays_in_sync() {
    assert_in_sync(&lock_step(UlpKind::Compression, 64), 4);
}

#[test]
fn event_server_stays_in_sync() {
    let cfg = EventWorkloadConfig {
        connections: 256,
        requests: 300,
        ulp: UlpKind::Tls,
        objects: 64,
        min_object_bytes: 1024,
        max_object_bytes: 8192,
        llc: Some(CacheConfig::mb(2, 16)),
        ..EventWorkloadConfig::default()
    };
    let mut reg = Registry::new();
    run_event_server_with_telemetry(PlatformKind::SmartDimm, &cfg, reg.scope("eventsim"));
    assert_in_sync(&reg.snapshot(), 1);
}
