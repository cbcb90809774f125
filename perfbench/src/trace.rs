//! In-memory span recorder for the traced run, and the self-time
//! analysis over its spans.
//!
//! A span records a call into one layer's public function: its name,
//! host start and end (ns since the tracer's epoch), its parent span and
//! the request it served. Each span also records how many DRAM CAS
//! commands and how many deferred DSA line computations ran inside it,
//! read from public counters before and after the call, so that the
//! analysis can split a span's own time into the part spent in the
//! simulator's DRAM backend and DSA engines (estimated from isolated
//! replays) and the remainder.

use std::io::Write as _;
use std::time::Instant;

use smartdimm::CompCpyHost;

/// Request id of spans that serve no single request.
pub const NO_REQ: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

/// The DRAM replay keeps the CAS commands of one block of consecutive
/// top-level spans out of every `CAS_SAMPLE_EVERY` blocks. Blocks keep the
/// controller-clock advances between commands close to the run's own, so
/// their host cost is charged per command in the same proportion.
const CAS_SAMPLE_BLOCK: u64 = 64;
const CAS_SAMPLE_EVERY: u64 = 4;
/// Upper bound on CAS commands kept for the replay.
const CAS_SAMPLE_CAP: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    /// DRAM CAS commands issued inside the span (children included).
    pub cas: u64,
    /// Deferred DSA line computations run inside the span (children
    /// included).
    pub dsa_lines: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One CAS command of the traced run: cycle, write flag, address.
pub type Cas = (u64, bool, u64);

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// Counter readings at span entry, parallel to `stack`.
    entry: Vec<(u64, u64)>,
    top_spans: u64,
    pub cas_sample: Vec<Cas>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            stack: Vec::new(),
            entry: Vec::new(),
            top_spans: 0,
            cas_sample: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `host` (when it exists yet) supplies the counters.
    pub fn enter(&mut self, host: Option<&mut CompCpyHost>, name: &'static str, req: u64) -> u32 {
        let counters = host.map(counters).unwrap_or((0, 0));
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.entry.push(counters);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            cas: 0,
            dsa_lines: 0,
        });
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, host: Option<&mut CompCpyHost>, id: u32) {
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let (cas0, dsa0) = self.entry.pop().expect("entry pushed with the span");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        let Some(host) = host else { return };
        let (cas1, dsa1) = counters(host);
        // DRAM statistics reset between warm-up and measurement, which
        // happens outside every span but the root.
        span.cas = cas1.saturating_sub(cas0);
        span.dsa_lines = dsa1.saturating_sub(dsa0);
        if self.stack.len() == 1 {
            self.after_top_level(host);
        }
    }

    /// Times `f` as a span.
    pub fn call<R>(
        &mut self,
        host: &mut CompCpyHost,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut CompCpyHost) -> R,
    ) -> R {
        let id = self.enter(Some(host), name, req);
        let r = f(host);
        self.exit(Some(host), id);
        r
    }

    /// Moves the CAS commands of a finished top-level span out of the
    /// DRAM trace (keeping a sample for the replay), inside a span of
    /// its own so the cost shows as tracer bookkeeping.
    fn after_top_level(&mut self, host: &mut CompCpyHost) {
        if !host.mem().dram().trace().is_enabled() {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        let keep = (self.top_spans / CAS_SAMPLE_BLOCK).is_multiple_of(CAS_SAMPLE_EVERY);
        self.top_spans += 1;
        if keep && self.cas_sample.len() < CAS_SAMPLE_CAP {
            for r in host.mem().dram().trace().records() {
                self.cas_sample
                    .push((r.at.raw(), r.kind == "wrCAS", r.value));
            }
        }
        host.mem_mut().dram_mut().clear_trace();
        let end_ns = self.now();
        self.spans.push(Span {
            name: "perfbench.bookkeeping",
            start_ns,
            end_ns,
            parent: self.stack[0],
            req: NO_REQ,
            cas: 0,
            dsa_lines: 0,
        });
        debug_assert_eq!(id as usize + 1, self.spans.len());
    }

    /// Writes every span as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,req,cas,dsa_lines")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == NO_REQ {
                String::new()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{i},{},{},{},{parent},{req},{},{}",
                s.name, s.start_ns, s.end_ns, s.cas, s.dsa_lines
            )?;
        }
        out.flush()
    }
}

/// Cumulative DRAM CAS commands and cumulative DSA line computations
/// run so far (lines fed to a DSA minus lines still queued), read
/// through public accessors that change no simulated state.
fn counters(host: &mut CompCpyHost) -> (u64, u64) {
    let stats = host.mem().dram().stats();
    let cas = stats.rd_cas.value() + stats.wr_cas.value();
    let mut computed = 0u64;
    for ch in 0..host.channels() {
        let dev = host.device_on(ch);
        computed += dev.stats().dsa_lines - dev.pending_feeds() as u64;
    }
    (cas, computed)
}

/// Host cost of the simulator's leaf layers, from isolated replays.
#[derive(Debug, Clone, Copy)]
pub struct LeafCosts {
    pub dram_ns_per_cas: f64,
    pub dsa_ns_per_line: f64,
}

/// Per-layer totals of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Root span duration.
    pub total_ns: u64,
    /// Per span name: call count, inclusive ns, self ns after the
    /// estimated DRAM and DSA time is taken out, and every call's
    /// duration.
    pub by_name: std::collections::BTreeMap<&'static str, NameStats>,
    /// Self ns per layer (the span name's first segment), with the
    /// estimated `dram` and `dsa` layers.
    pub self_by_layer: std::collections::BTreeMap<&'static str, u64>,
    /// Spans whose estimated DRAM and DSA time exceeded their own time
    /// and was capped there.
    pub capped_spans: u64,
}

#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub calls: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

impl NameStats {
    pub fn median_ns(&self) -> f64 {
        let d: Vec<f64> = self.durations.iter().map(|&ns| ns as f64).collect();
        crate::report::median(&d)
    }
}

/// Errors found while checking a span tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A child span lies outside its parent.
    NotNested(usize),
    /// Self times do not add up to the root's duration.
    SumMismatch { total: u64, sum: u64 },
    /// Per request, self times do not add up to the request's spans.
    RequestMismatch(u64),
}

/// The layer a span name belongs to: its first dot-separated segment.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Splits the run's host time into self time per span and per layer.
/// Span 0 must be the root.
pub fn analyse(spans: &[Span], leaf: LeafCosts) -> Result<Profile, TraceError> {
    let n = spans.len();
    let mut child_ns = vec![0u64; n];
    let mut child_cas = vec![0u64; n];
    let mut child_dsa = vec![0u64; n];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(TraceError::NotNested(i));
        }
        child_ns[s.parent as usize] += s.dur();
        child_cas[s.parent as usize] += s.cas;
        child_dsa[s.parent as usize] += s.dsa_lines;
    }
    let mut prof = Profile {
        total_ns: spans.first().map(Span::dur).unwrap_or(0),
        ..Profile::default()
    };
    // Per request: the sum of its top-level spans, and of its self times.
    let mut req_total: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    let mut sum = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let own_ns = s
            .dur()
            .checked_sub(child_ns[i])
            .ok_or(TraceError::NotNested(i))?;
        // The root's own CAS and DSA counts are not meaningful: its
        // counter readings straddle the statistics reset.
        let (own_cas, own_dsa) = if i == 0 {
            (0, 0)
        } else {
            (
                s.cas.saturating_sub(child_cas[i]),
                s.dsa_lines.saturating_sub(child_dsa[i]),
            )
        };
        let dram = (own_cas as f64 * leaf.dram_ns_per_cas).round() as u64;
        let dsa = (own_dsa as f64 * leaf.dsa_ns_per_line).round() as u64;
        let (dram, dsa) = if dram + dsa > own_ns {
            prof.capped_spans += 1;
            let dram_capped = dram.min(own_ns);
            (dram_capped, (own_ns - dram_capped).min(dsa))
        } else {
            (dram, dsa)
        };
        let self_ns = own_ns - dram - dsa;
        let e = prof.by_name.entry(s.name).or_default();
        e.calls += 1;
        e.inclusive_ns += s.dur();
        e.self_ns += self_ns;
        e.durations.push(s.dur());
        *prof.self_by_layer.entry(layer_of(s.name)).or_default() += self_ns;
        *prof.self_by_layer.entry("dram").or_default() += dram;
        *prof.self_by_layer.entry("dsa").or_default() += dsa;
        sum += self_ns + dram + dsa;
        if s.req != NO_REQ {
            let t = req_total.entry(s.req).or_default();
            t.1 += own_ns;
            let top_of_req = s.parent == NO_PARENT || spans[s.parent as usize].req != s.req;
            if top_of_req {
                t.0 += s.dur();
            }
        }
    }
    if sum != prof.total_ns {
        return Err(TraceError::SumMismatch {
            total: prof.total_ns,
            sum,
        });
    }
    if let Some((&req, _)) = req_total.iter().find(|(_, (top, own))| top != own) {
        return Err(TraceError::RequestMismatch(req));
    }
    Ok(prof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, req: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            cas: 0,
            dsa_lines: 0,
        }
    }

    #[test]
    fn self_times_are_non_negative_and_sum_to_the_root() {
        let mut spans = vec![
            span("server.run", 0, 1000, NO_PARENT, NO_REQ),
            span("server.produce", 10, 500, 0, 7),
            span("compcpy.comp_cpy", 20, 400, 1, 7),
            span("server.nic_tx", 600, 900, 0, 7),
            span("memsys.dma_read", 610, 890, 3, 7),
        ];
        // More estimated DRAM and DSA time than the span's own time: the
        // estimate is capped, never driving self time below zero.
        spans[2].cas = 1000;
        spans[2].dsa_lines = 1000;
        spans[1].cas = 1000;
        spans[1].dsa_lines = 1000;
        spans[4].cas = 10;
        spans[3].cas = 10;
        let leaf = LeafCosts {
            dram_ns_per_cas: 5.0,
            dsa_ns_per_line: 3.0,
        };
        let prof = analyse(&spans, leaf).expect("well-formed tree");
        assert_eq!(prof.total_ns, 1000);
        assert_eq!(prof.self_by_layer.values().sum::<u64>(), 1000);
        assert_eq!(prof.capped_spans, 1);
        assert_eq!(prof.self_by_layer["compcpy"], 0);
        assert_eq!(prof.self_by_layer["memsys"], 280 - 50);
        assert_eq!(prof.self_by_layer["dram"], 380 + 50);
        assert_eq!(prof.self_by_layer["server"], 210 + 110 + 20);
        for st in prof.by_name.values() {
            assert!(st.self_ns <= st.inclusive_ns);
        }
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let spans = vec![
            span("server.run", 0, 100, NO_PARENT, NO_REQ),
            span("server.produce", 50, 150, 0, 1),
        ];
        let leaf = LeafCosts {
            dram_ns_per_cas: 0.0,
            dsa_ns_per_line: 0.0,
        };
        assert_eq!(analyse(&spans, leaf).err(), Some(TraceError::NotNested(1)));
    }
}
