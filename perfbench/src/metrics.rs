//! The benchmark's metric tables and the functions that fill them.
//! `BENCHMARK.json` lists the same names and units; a test keeps the two
//! in step.

use std::collections::BTreeMap;

use simkit::Scope;

use crate::replica::LockStepPlan;
use crate::report::{json_num, json_str, valid_name, valid_unit, Metric};
use crate::trace::{NameStats, Profile};
use crate::workload::Config;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_rps", "1/s"),
    ("sim_mean_latency_ns", "ns"),
    ("sim_dram_bytes_per_req", "B/req"),
    ("sim_goodput_gbps", "Gb/s"),
];

/// The layer calls the traced run reports `.calls` and `.share` for.
#[cfg(test)]
const TRACED_CALLS: &[&str] = &[
    "compcpy.comp_cpy",
    "compcpy.read_result",
    "compcpy.queue_pressure",
    "memsys.flush",
    "memsys.dma_read",
    "memsys.cpu_copy",
    "ulp_crypto.seal",
];

/// Layers the traced run's host time is split into (self time). `dram`
/// and `dsa` are estimated from the leaf replays; `perfbench` is the
/// tracer's own bookkeeping.
pub const SELF_LAYERS: &[&str] = &[
    "eventsim",
    "server",
    "compcpy",
    "memsys",
    "dram",
    "dsa",
    "ulp_crypto",
    "corpus",
    "perfbench",
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.host_us_per_req", "us"),
    ("trace.overhead_us_per_req", "us"),
    ("trace.replica_identical", "count"),
    ("compcpy.comp_cpy.calls", "count"),
    ("compcpy.comp_cpy.share", "ratio"),
    ("compcpy.comp_cpy.median_ns", "ns"),
    ("compcpy.read_result.calls", "count"),
    ("compcpy.read_result.share", "ratio"),
    ("compcpy.queue_pressure.calls", "count"),
    ("compcpy.queue_pressure.share", "ratio"),
    ("memsys.flush.calls", "count"),
    ("memsys.flush.share", "ratio"),
    ("memsys.flush.median_ns", "ns"),
    ("memsys.dma_read.calls", "count"),
    ("memsys.dma_read.share", "ratio"),
    ("memsys.dma_read.median_ns", "ns"),
    ("memsys.cpu_copy.calls", "count"),
    ("memsys.cpu_copy.share", "ratio"),
    ("ulp_crypto.seal.calls", "count"),
    ("ulp_crypto.seal.share", "ratio"),
    ("eventsim.self_share", "ratio"),
    ("server.self_share", "ratio"),
    ("compcpy.self_share", "ratio"),
    ("memsys.self_share", "ratio"),
    ("dram.self_share", "ratio"),
    ("dsa.self_share", "ratio"),
    ("ulp_crypto.self_share", "ratio"),
    ("corpus.self_share", "ratio"),
    ("perfbench.self_share", "ratio"),
    ("dsa.tls.host_ns_per_line", "ns"),
    ("dsa.deflate.host_us_per_page", "us"),
    ("dram.host_ns_per_cas", "ns"),
    ("cache.llc.miss_rate", "ratio"),
    ("cache.llc.accesses_per_req", "count/req"),
    ("cache.llc.flushes_per_req", "count/req"),
    ("dram.cas_per_req", "count/req"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.activates_per_req", "count/req"),
    ("device.dsa_lines_per_req", "count/req"),
    ("device.self_recycle_ratio", "ratio"),
    ("device.bank_desyncs_per_req", "count/req"),
    ("device.xlat_first_try_ratio", "ratio"),
    ("device.xlat_lookups_per_req", "count/req"),
    ("compcpy.force_recycles", "count"),
    ("compcpy.bounced_offloads_per_req", "count/req"),
    ("scratchpad.peak_bytes", "B"),
    ("eventsim.fallback_ratio", "ratio"),
    ("eventsim.max_pressure", "ratio"),
    ("eventsim.reconnects", "count"),
];

/// Builds the metrics of `table` from `values`, in table order. A name
/// missing from `values`, or one outside the name and unit grammar, is a
/// bug in the benchmark.
pub fn emit(table: &[(&str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("no value for metric {name}"));
            Metric::new(name, *v, unit)
        })
        .collect()
}

/// Host cost of the leaf layers from the isolated replays.
pub struct Replays {
    pub tls_ns_per_line: f64,
    pub deflate_ns_per_page: f64,
    pub dram_ns_per_cas: f64,
}

/// Per-layer host-time values of the traced run.
pub fn layer_values(
    prof: &Profile,
    requests: u64,
    untraced_us_per_req: f64,
    identical: bool,
    replays: &Replays,
) -> BTreeMap<&'static str, f64> {
    let total = prof.total_ns as f64;
    let traced_us = total / 1e3 / requests as f64;
    let mut v = BTreeMap::new();
    v.insert("trace.host_us_per_req", traced_us);
    v.insert("trace.overhead_us_per_req", traced_us - untraced_us_per_req);
    v.insert("trace.replica_identical", f64::from(u8::from(identical)));
    // `<call>.calls`, `<call>.share`, `<call>.median_ns` and
    // `<layer>.self_share`; a call the workload never makes counts 0.
    for &(name, _) in PER_LAYER {
        let Some((head, stat)) = name.rsplit_once('.') else {
            continue;
        };
        let st = prof.by_name.get(head);
        let x = match stat {
            "calls" => st.map_or(0.0, |s| s.calls as f64),
            "share" => st.map_or(0.0, |s| s.inclusive_ns as f64 / total),
            "median_ns" => st.map_or(0.0, NameStats::median_ns),
            "self_share" => prof.self_by_layer.get(head).copied().unwrap_or(0) as f64 / total,
            _ => continue,
        };
        v.insert(name, x);
    }
    v.insert("dsa.tls.host_ns_per_line", replays.tls_ns_per_line);
    v.insert(
        "dsa.deflate.host_us_per_page",
        replays.deflate_ns_per_page / 1e3,
    );
    v.insert("dram.host_ns_per_cas", replays.dram_ns_per_cas);
    v
}

fn counter(scope: &mut Scope, path: &str, name: &str) -> f64 {
    scope.scope(path).counter(name).value() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated counters of the untraced run, each per request or as a
/// ratio with its base. DRAM and LLC statistics cover the measured
/// requests (the lock-step harness resets them after warm-up); device
/// and host counters cover every request served.
pub fn sim_counters(cfg: &Config, run: &mut Scope) -> BTreeMap<&'static str, f64> {
    let (measured, served) = match cfg {
        Config::LockStep(c) => {
            let plan = LockStepPlan::of(c);
            (plan.measured() as f64, plan.served() as f64)
        }
        Config::Event(_) => {
            let done = run.counter("completed_requests").value() as f64;
            (done, done)
        }
    };
    let channels = cfg.host_config().mem.dram.topology.channels;
    let mut v = BTreeMap::new();
    let llc = "host.mem.llc";
    let accesses = counter(run, llc, "accesses");
    v.insert(
        "cache.llc.miss_rate",
        ratio(counter(run, llc, "misses"), accesses),
    );
    v.insert("cache.llc.accesses_per_req", ratio(accesses, measured));
    v.insert(
        "cache.llc.flushes_per_req",
        ratio(counter(run, llc, "flushes"), measured),
    );
    let dram = "host.mem.dram";
    let cas = counter(run, dram, "rd_cas") + counter(run, dram, "wr_cas");
    v.insert("dram.cas_per_req", ratio(cas, measured));
    v.insert(
        "dram.row_hit_rate",
        ratio(counter(run, dram, "row_hits"), cas),
    );
    v.insert(
        "dram.activates_per_req",
        ratio(counter(run, dram, "activates"), measured),
    );
    let (mut dsa_lines, mut self_recycles, mut desyncs) = (0.0, 0.0, 0.0);
    let (mut first_try, mut inserts, mut lookups, mut peak) = (0.0, 0.0, 0.0, 0.0f64);
    for ch in 0..channels {
        let dev = format!("host.channel{ch}.device");
        dsa_lines += counter(run, &dev, "dsa_lines");
        self_recycles += counter(run, &dev, "self_recycles");
        desyncs += counter(run, &dev, "bank_desyncs");
        let xlat = format!("host.channel{ch}.xlat");
        first_try += counter(run, &xlat, "first_try");
        inserts += counter(run, &xlat, "inserts");
        lookups += counter(run, &xlat, "lookups");
        peak = peak.max(counter(
            run,
            &format!("host.channel{ch}.scratchpad"),
            "peak_bytes",
        ));
    }
    v.insert("device.dsa_lines_per_req", ratio(dsa_lines, served));
    v.insert("device.self_recycle_ratio", ratio(self_recycles, dsa_lines));
    v.insert("device.bank_desyncs_per_req", ratio(desyncs, served));
    v.insert("device.xlat_first_try_ratio", ratio(first_try, inserts));
    v.insert("device.xlat_lookups_per_req", ratio(lookups, served));
    v.insert(
        "compcpy.force_recycles",
        counter(run, "host", "force_recycles"),
    );
    v.insert(
        "compcpy.bounced_offloads_per_req",
        ratio(counter(run, "host", "bounced_offloads"), served),
    );
    v.insert("scratchpad.peak_bytes", peak);
    let event = matches!(cfg, Config::Event(_));
    let (fallback, max_pressure, reconnects) = if event {
        (
            ratio(
                run.counter("fallback_under_pressure").value() as f64,
                served,
            ),
            run.gauge("max_pressure").value(),
            run.counter("reconnects").value() as f64,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    v.insert("eventsim.fallback_ratio", fallback);
    v.insert("eventsim.max_pressure", max_pressure);
    v.insert("eventsim.reconnects", reconnects);
    v
}

/// Every span name's calls, inclusive and self time per request, and
/// per-call median, plus every layer's self time per request.
pub fn spans_json(prof: &Profile, requests: u64, spans: usize, file: &str) -> String {
    let per_req = |ns: u64| json_num(ns as f64 / 1e3 / requests as f64);
    let mut out = String::from("{\"file\": ");
    json_str(&mut out, file);
    out.push_str(&format!(", \"count\": {spans}, \"by_name\": {{"));
    for (i, (name, st)) in prof.by_name.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, name);
        out.push_str(&format!(
            ": {{\"calls\": {}, \"inclusive_us_per_req\": {}, \"self_us_per_req\": {}, \"median_ns\": {}}}",
            st.calls,
            per_req(st.inclusive_ns),
            per_req(st.self_ns),
            json_num(st.median_ns())
        ));
    }
    out.push_str("}, \"self_us_per_req\": {");
    for (i, layer) in SELF_LAYERS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, layer);
        out.push_str(": ");
        out.push_str(&per_req(
            prof.self_by_layer.get(layer).copied().unwrap_or(0),
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for call in TRACED_CALLS {
            for stat in ["calls", "share"] {
                let name = format!("{call}.{stat}");
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
            }
        }
        for (name, _) in PER_LAYER {
            if let Some(call) = name.strip_suffix(".median_ns") {
                assert!(TRACED_CALLS.contains(&call), "{name}");
            }
        }
        for layer in SELF_LAYERS {
            let name = format!("{layer}.self_share");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
