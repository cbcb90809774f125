//! Outside-in benchmark of the SmartDIMM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's set-up and repeated runs of
//! the public harness entry point, checks outputs and run-to-run
//! determinism, and reports the end-to-end metrics. With `--trace 1` it
//! runs a traced replica of the same serving loop and reports per-layer
//! host time, self time and simulated counters. The last line of stdout
//! is the result object; the line before it is the full report, also
//! written under `perfbench/out/`.

mod metrics;
mod replay;
mod replica;
mod report;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use report::{json_num, json_str, median, Identity, Metric};
use workload::{Config, Workload};

/// Set-ups timed per run, after one untimed warm-up; `setup_s` is their
/// median.
const SETUP_REPS: usize = 31;
/// Timed runs per invocation: at least this many, so run-to-run
/// determinism is always checked and the median never rests on the
/// process's first run alone (which pays for growing the heap) ...
const MIN_RUNS: usize = 3;
/// ... and at most this many.
const MAX_RUNS: usize = 64;
/// Host time each isolated leaf replay runs for, at least.
const REPLAY_MIN_NS: u64 = 60_000_000;
/// Bodies the leaf replays run over.
const REPLAY_BODIES: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The contract's metrics for this mode.
    metrics: Vec<Metric>,
    /// Everything else for the full report, as JSON members.
    detail: Vec<(String, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The simulator takes its thread count from this variable when the
    // config leaves it at the default; the benchmark measures the default.
    let threads_env = std::env::var(simkit::par::THREADS_ENV).ok();
    std::env::remove_var(simkit::par::THREADS_ENV);
    let identity = Identity::collect(threads_env);

    let cfg = args.workload.config(args.seed);
    let outcome = if args.trace {
        traced(args.workload, &cfg, args.seconds)
    } else {
        end_to_end(args.workload, &cfg, args.seconds)
    };

    let mut report = String::from("{\"schema\": \"perfbench-report/v1\", \"workload\": ");
    json_str(&mut report, args.workload.name());
    report.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"identity\": {}, \"attempted\": {}, \"failed\": {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        identity.json(),
        outcome.attempted,
        outcome.failed
    ));
    for (k, v) in &outcome.detail {
        report.push_str(", ");
        json_str(&mut report, k);
        report.push_str(": ");
        report.push_str(v);
    }
    report.push('}');
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(&name, |path| std::fs::write(path, &report));
    println!("{report}");
    let correct = outcome.failed == 0 && !outcome.metrics.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
}

/// Writes `name` under `out/` beside the package manifest and returns its
/// path relative to the repository root, for reports. A failed write is
/// reported on stderr; the result line does not depend on it.
fn write_out(name: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) -> String {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = package.join("out").join(name);
    if let Err(e) = std::fs::create_dir_all(package.join("out")).and_then(|()| write(&path)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let root = package.parent().unwrap_or(package);
    path.strip_prefix(root)
        .unwrap_or(&path)
        .display()
        .to_string()
}

fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (median(&v[..n.div_ceil(2)]), median(&v[n / 2..]))
}

/// Times set-up and repeated runs through the public entry point.
fn end_to_end(w: Workload, cfg: &Config, seconds: u64) -> Outcome {
    workload::setup_once(cfg);
    let setup: Vec<f64> = (0..SETUP_REPS).map(|_| workload::setup_once(cfg)).collect();
    let checks = verify::verify(cfg, w.ulp(), w == Workload::TailAdmission10k, false);

    let requests = cfg.requests() as u64;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut host_us = Vec::new();
    let mut first: Option<workload::RunOutcome> = None;
    let (mut runs, mut failed_runs, mut lost) = (0u64, 0u64, 0u64);
    loop {
        runs += 1;
        match workload::run_once(cfg) {
            None => failed_runs += 1,
            Some(run) => {
                host_us.push(run.host_ns as f64 / 1e3 / requests as f64);
                lost += run.sim.lost;
                match &first {
                    None => first = Some(run),
                    // Same seed, same program: any difference in the
                    // simulated results or the snapshot is a failure.
                    Some(f) if f.sim != run.sim || f.snapshot != run.snapshot => failed_runs += 1,
                    Some(_) => {}
                }
            }
        }
        let elapsed = start.elapsed();
        let per_run = elapsed / runs as u32;
        if runs as usize >= MAX_RUNS || (runs as usize >= MIN_RUNS && elapsed + per_run > budget) {
            break;
        }
    }
    let attempted = runs * requests + checks.attempted;
    let failed = (failed_runs * requests + lost + checks.failed).min(attempted);

    let mut detail = vec![
        ("runs".to_string(), runs.to_string()),
        (
            "checks".to_string(),
            format!(
                "{{\"attempted\": {}, \"failed\": {}}}",
                checks.attempted, checks.failed
            ),
        ),
    ];
    let Some(first) = first else {
        return Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            detail,
        };
    };
    let sim = &first.sim;
    let mut values = BTreeMap::new();
    values.insert("host_us_per_req", median(&host_us));
    values.insert("setup_s", median(&setup));
    values.insert("peak_rss_mib", report::peak_rss_mib().unwrap_or(f64::NAN));
    values.insert("sim_rps", sim.rps);
    values.insert("sim_mean_latency_ns", sim.mean_latency_ns);
    values.insert("sim_dram_bytes_per_req", sim.dram_bytes_per_req);
    values.insert("sim_goodput_gbps", sim.goodput_gbps);
    let metrics = metrics::emit(metrics::END_TO_END, &values);

    let (q1, q3) = quartiles(&host_us);
    let (s1, s3) = quartiles(&setup);
    let mut extra = vec![
        Metric::new("host_us_per_req.q1", q1, "us"),
        Metric::new("host_us_per_req.q3", q3, "us"),
        Metric::new("setup_s.q1", s1, "s"),
        Metric::new("setup_s.q3", s3, "s"),
        Metric::new("error_rate", failed as f64 / attempted as f64, "ratio"),
    ];
    if let Some(cpu) = sim.cpu_ns_per_req {
        extra.push(Metric::new("sim_cpu_ns_per_req", cpu, "ns"));
    }
    if let Some(p) = sim.percentiles {
        extra.push(Metric::new("sim_p50_ns", p.p50_ns as f64, "ns"));
        extra.push(Metric::new("sim_p99_ns", p.p99_ns as f64, "ns"));
        // The highest percentile with at least ten samples beyond it.
        if p.p999_resolvable {
            extra.push(Metric::new("sim_p999_ns", p.p999_ns as f64, "ns"));
        }
        extra.push(Metric::new(
            "sim_latency_samples",
            p.samples as f64,
            "count",
        ));
    }
    detail.push((
        "metrics".to_string(),
        report::metrics_json(&[metrics.clone(), extra].concat()),
    ));
    detail.push((
        "snapshot_digest".to_string(),
        format!("\"{}\"", workload::digest(&first.snapshot)),
    ));
    let runs_us: Vec<String> = host_us.iter().map(|&v| json_num(v)).collect();
    detail.push((
        "host_us_per_req_by_run".to_string(),
        format!("[{}]", runs_us.join(", ")),
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// The traced run: an untraced reference run, the traced replica, the
/// leaf replays and the per-layer analysis.
fn traced(w: Workload, cfg: &Config, seconds: u64) -> Outcome {
    let checks = verify::verify(cfg, w.ulp(), w == Workload::TailAdmission10k, false);
    let requests = cfg.requests() as u64;

    // Untraced reference runs, for the tracing overhead and the counters.
    let start = Instant::now();
    let mut untraced_us = Vec::new();
    let mut reference = None;
    while untraced_us.is_empty() || start.elapsed() < Duration::from_secs(seconds / 4) {
        let Some(run) = workload::run_once(cfg) else {
            break;
        };
        untraced_us.push(run.host_ns as f64 / 1e3 / requests as f64);
        reference.get_or_insert(run);
        if untraced_us.len() >= MAX_RUNS {
            break;
        }
    }
    let Some(mut reference) = reference else {
        return Outcome {
            attempted: requests + checks.attempted,
            failed: requests + checks.failed,
            metrics: Vec::new(),
            detail: Vec::new(),
        };
    };

    let mut tr = trace::Tracer::new();
    let identical =
        replica::run(cfg, &mut tr) == workload::host_snapshot(reference.scope.scope("host"));

    // Leaf replays over the workload's own inputs.
    let bodies: Vec<Vec<u8>> = cfg
        .bodies()
        .into_iter()
        .take(REPLAY_BODIES)
        .map(|(_, b)| b)
        .collect();
    let tls_ns_per_line = replay::dsa_tls_ns_per_line(&bodies, REPLAY_MIN_NS);
    let deflate_ns_per_page = replay::dsa_deflate_ns_per_page(&bodies, REPLAY_MIN_NS);
    let dram_ns_per_cas =
        replay::dram_ns_per_cas(&cfg.host_config().mem, &tr.cas_sample, REPLAY_MIN_NS);
    let leaf = trace::LeafCosts {
        dram_ns_per_cas,
        dsa_ns_per_line: match w.ulp() {
            platforms::UlpKind::Compression => deflate_ns_per_page / 64.0,
            _ => tls_ns_per_line,
        },
    };

    let spans_file = write_out(&format!("{}-spans.csv", w.name()), |p| tr.write_csv(p));

    // Two checks of the benchmark's own: the span tree is well formed
    // and its self times sum to the run's total, and every span belongs
    // to a listed layer.
    let attempted = requests + checks.attempted + 2;
    let mut failed = reference.sim.lost + checks.failed;
    let mut detail = vec![(
        "checks".to_string(),
        format!(
            "{{\"attempted\": {}, \"failed\": {}}}",
            checks.attempted, checks.failed
        ),
    )];
    let profile = match trace::analyse(&tr.spans, leaf) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: span tree check failed: {e:?}");
            return Outcome {
                attempted,
                failed: failed + 1,
                metrics: Vec::new(),
                detail,
            };
        }
    };
    let untraced = median(&untraced_us);
    let mut values = metrics::layer_values(
        &profile,
        requests,
        untraced,
        identical,
        &metrics::Replays {
            tls_ns_per_line,
            deflate_ns_per_page,
            dram_ns_per_cas,
        },
    );
    let counters = metrics::sim_counters(cfg, &mut reference.scope);
    values.extend(counters.iter().map(|(k, v)| (*k, *v)));
    // Layers outside the fixed list would make the shares not sum to 1.
    let listed: u64 = metrics::SELF_LAYERS
        .iter()
        .map(|l| profile.self_by_layer.get(l).copied().unwrap_or(0))
        .sum();
    if listed != profile.total_ns {
        eprintln!("perfbench: a span belongs to no listed layer");
        failed += 1;
    }
    let metrics = metrics::emit(metrics::PER_LAYER, &values);

    detail.push(("untraced_runs".to_string(), untraced_us.len().to_string()));
    detail.push(("metrics".to_string(), report::metrics_json(&metrics)));
    detail.push((
        "spans".to_string(),
        metrics::spans_json(&profile, requests, tr.spans.len(), &spans_file),
    ));
    detail.push((
        "estimate_capped_spans".to_string(),
        profile.capped_spans.to_string(),
    ));
    detail.push(("cas_replayed".to_string(), tr.cas_sample.len().to_string()));
    detail.push((
        "trace_total_s".to_string(),
        json_num(profile.total_ns as f64 / 1e9),
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}
