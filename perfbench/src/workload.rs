//! The benchmark's workloads: their configs, the host they run on, the
//! timed set-up and the timed end-to-end run through the public entry
//! points (`platforms::run_server_with_telemetry` and
//! `platforms::run_event_server_with_telemetry`).
//!
//! Configs are built from the library's defaults with struct-update
//! syntax and never name the `threads` or `backend` fields, so removing
//! those knobs from the simulator needs no edit here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cache::CacheConfig;
use platforms::{
    AdmissionConfig, AdmissionPolicy, EventWorkloadConfig, PlatformKind, UlpKind, WorkloadConfig,
};
use simkit::telemetry::{Registry, Scope};
use smartdimm::{CompCpyHost, HostConfig};

/// Buffer arenas the event harness multiplexes its connections over.
pub const ARENA_SLOTS: usize = 1024;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lock-step TLS offload, 4 fine-interleaved channels.
    TlsOffload4ch,
    /// Lock-step deflate offload, 4 coarse-interleaved channels.
    DeflateOffload4ch,
    /// Event-driven TLS serving under admission pressure.
    TailAdmission10k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TlsOffload4ch,
        Workload::DeflateOffload4ch,
        Workload::TailAdmission10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TlsOffload4ch => "tls_offload_4ch",
            Workload::DeflateOffload4ch => "deflate_offload_4ch",
            Workload::TailAdmission10k => "tail_admission_10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The ULP the workload's offloads run, which decides the DSA kind.
    pub fn ulp(self) -> UlpKind {
        match self {
            Workload::DeflateOffload4ch => UlpKind::Compression,
            _ => UlpKind::Tls,
        }
    }

    pub fn config(self, seed: u64) -> Config {
        let llc = Some(CacheConfig::mb(2, 16));
        match self {
            Workload::TlsOffload4ch | Workload::DeflateOffload4ch => {
                let interleave = if self == Workload::TlsOffload4ch {
                    1
                } else {
                    64
                };
                Config::LockStep(WorkloadConfig {
                    message_bytes: 4096,
                    connections: 128,
                    ulp: self.ulp(),
                    requests: 2000,
                    channels: 4,
                    channel_interleave_lines: interleave,
                    llc,
                    seed,
                    ..WorkloadConfig::default()
                })
            }
            Workload::TailAdmission10k => Config::Event(EventWorkloadConfig {
                connections: 10240,
                requests: 12000,
                ulp: UlpKind::Tls,
                churn_permille: 100,
                slow_client_permille: 50,
                scratchpad_pages: Some(48),
                objects: 16384,
                zipf_s: 0.5,
                admission: AdmissionConfig {
                    policy: AdmissionPolicy::CpuFallback,
                    watermark: 0.5,
                },
                llc,
                seed,
                ..EventWorkloadConfig::default()
            }),
        }
    }
}

/// A workload's config for one of the two harnesses.
#[derive(Debug, Clone)]
pub enum Config {
    LockStep(WorkloadConfig),
    Event(EventWorkloadConfig),
}

impl Config {
    pub fn requests(&self) -> usize {
        match self {
            Config::LockStep(c) => c.requests,
            Config::Event(c) => c.requests,
        }
    }

    pub fn seed(&self) -> u64 {
        match self {
            Config::LockStep(c) => c.seed,
            Config::Event(c) => c.seed,
        }
    }

    /// The host the harness builds for this config, assembled the same
    /// way the harness does from the same public fields.
    pub fn host_config(&self) -> HostConfig {
        let mut hc = HostConfig::default();
        let (llc, channels, interleave, dimms, sockets, penalty, placement) = match self {
            Config::LockStep(c) => (
                c.llc,
                c.channels,
                c.channel_interleave_lines,
                c.dimms_per_channel,
                c.sockets,
                c.interconnect_penalty_cycles,
                c.placement,
            ),
            Config::Event(c) => (
                c.llc,
                c.channels,
                c.channel_interleave_lines,
                c.dimms_per_channel,
                c.sockets,
                c.interconnect_penalty_cycles,
                c.placement,
            ),
        };
        hc.mem.llc = llc;
        let topo = &mut hc.mem.dram.topology;
        topo.channels = channels;
        topo.channel_interleave_lines = interleave.max(1);
        topo.dimms_per_channel = dimms.max(1);
        topo.sockets = sockets.max(1);
        hc.mem.dram.interconnect_penalty_cycles = penalty;
        hc.sched.policy = placement;
        if let Config::Event(c) = self {
            if let Some(pages) = c.scratchpad_pages {
                hc.dimm.scratchpad_pages = pages;
            }
        }
        copy_default_backend(self, &mut hc);
        hc
    }

    /// Response bodies the run serves, as `(arena slot, body)` pairs:
    /// every connection's page-cache content for the lock-step harness,
    /// one catalog object per arena slot for the event harness.
    pub fn bodies(&self) -> Vec<(usize, Vec<u8>)> {
        match self {
            Config::LockStep(c) => (0..c.connections)
                .map(|conn| {
                    (
                        conn,
                        c.corpus.generate(c.message_bytes, c.seed ^ conn as u64),
                    )
                })
                .collect(),
            Config::Event(c) => (0..c.connections.min(ARENA_SLOTS))
                .map(|slot| {
                    let object = (slot % c.objects) as u64;
                    let len = crate::replica::object_len(c, object);
                    (slot, c.corpus.generate(len, c.seed ^ object))
                })
                .collect(),
        }
    }
}

/// Copies the workload config's default memory backend into the host
/// config (see `build.rs`): the event harness defaults to a different
/// tier than `HostConfig::default()`.
#[cfg(backend_knob)]
fn copy_default_backend(cfg: &Config, hc: &mut HostConfig) {
    hc.mem.backend = match cfg {
        Config::LockStep(c) => c.backend,
        Config::Event(c) => c.backend,
    };
}

#[cfg(not(backend_knob))]
fn copy_default_backend(_: &Config, _: &mut HostConfig) {}

/// One timed set-up: the host with the workload's topology, corpus
/// generation and the `dma_write` preload of every body. Returns host
/// seconds.
pub fn setup_once(cfg: &Config) -> f64 {
    let t = Instant::now();
    let mut host = CompCpyHost::new(cfg.host_config());
    for (slot, body) in cfg.bodies() {
        host.mem_mut()
            .dma_write(platforms::server::conn_file_addr(slot), &body);
    }
    std::hint::black_box(&mut host);
    t.elapsed().as_secs_f64()
}

/// Simulated-time results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    pub rps: f64,
    pub mean_latency_ns: f64,
    pub dram_bytes_per_req: f64,
    pub goodput_gbps: f64,
    /// Lock-step harness only.
    pub cpu_ns_per_req: Option<f64>,
    /// Event harness only: p50, p99 and the p999 estimate.
    pub percentiles: Option<Percentiles>,
    /// Requests not completed plus requests shed.
    pub lost: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub p999_resolvable: bool,
    pub samples: u64,
}

/// One timed end-to-end run.
pub struct RunOutcome {
    pub host_ns: u64,
    pub sim: SimResult,
    /// The run's telemetry scope (harness metrics plus `host`).
    pub scope: Scope,
    /// The rendered `telemetry/v1` snapshot of `scope`.
    pub snapshot: String,
}

/// Runs the workload once through the public entry point. `None` when
/// the run panicked.
pub fn run_once(cfg: &Config) -> Option<RunOutcome> {
    let mut scope = Scope::default();
    let t = Instant::now();
    let sim = catch_unwind(AssertUnwindSafe(|| match cfg {
        Config::LockStep(c) => {
            let m = platforms::run_server_with_telemetry(PlatformKind::SmartDimm, c, &mut scope);
            SimResult {
                rps: m.rps,
                mean_latency_ns: m.avg_request_ns,
                dram_bytes_per_req: m.dram_bytes_per_req,
                goodput_gbps: m.rps * m.wire_bytes_per_req * 8.0 / 1e9,
                cpu_ns_per_req: Some(m.cpu_ns_per_req),
                percentiles: None,
                lost: 0,
            }
        }
        Config::Event(c) => {
            let m =
                platforms::run_event_server_with_telemetry(PlatformKind::SmartDimm, c, &mut scope);
            let completed = m.completed_requests.max(1) as f64;
            let dram_bytes = scope
                .scope("host.mem.dram")
                .counter("bytes_transferred")
                .value();
            SimResult {
                rps: m.completed_requests as f64 * 1e9 / m.makespan_ns,
                mean_latency_ns: m.mean_latency_ns,
                dram_bytes_per_req: dram_bytes as f64 / completed,
                goodput_gbps: m.goodput_gbps,
                cpu_ns_per_req: None,
                percentiles: Some(Percentiles {
                    p50_ns: m.p50_ns,
                    p99_ns: m.p99_ns,
                    p999_ns: m.p999_ns,
                    p999_resolvable: m.p999_resolvable,
                    samples: m.latency.count(),
                }),
                lost: (c.requests as u64).saturating_sub(m.completed_requests) + m.shed_requests,
            }
        }
    }))
    .ok()?;
    let host_ns = t.elapsed().as_nanos() as u64;
    let snapshot = render(&scope);
    Some(RunOutcome {
        host_ns,
        sim,
        scope,
        snapshot,
    })
}

/// Renders a scope as a `telemetry/v1` document.
pub fn render(scope: &Scope) -> String {
    let mut reg = Registry::new();
    *reg.scope("run") = scope.clone();
    reg.snapshot()
}

/// Renders a run's `host` scope (the simulated machine's state) alone.
pub fn host_snapshot(host: &Scope) -> String {
    let mut s = Scope::default();
    *s.scope("host") = host.clone();
    render(&s)
}

/// FNV-1a digest of a snapshot, for reports.
pub fn digest(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
