//! Trace collection.
//!
//! The Fig. 9 experiment (rdCAS/wrCAS memory trace) and several ablations
//! need a structured record of simulator events. [`TraceSink`] collects
//! [`TraceRecord`]s in memory and renders them as CSV; the bench binaries
//! write them to `results/*.csv`.

use std::fmt::Write as _;

use crate::clock::Cycle;

/// One timestamped trace record: a kind tag, an address-like value and a
/// free-form field list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Cycle,
    /// Event kind, e.g. `"rdCAS"` or `"wrCAS"`.
    pub kind: &'static str,
    /// Primary value, typically a physical address.
    pub value: u64,
    /// Secondary value (e.g. stream / core id).
    pub tag: u64,
}

/// An in-memory trace collector.
///
/// `TraceSink` can be disabled so instrumented simulators pay nothing when
/// no experiment needs the trace.
///
/// # Example
///
/// ```
/// use simkit::{Cycle, TraceSink};
/// let mut sink = TraceSink::enabled();
/// sink.record(Cycle(4), "rdCAS", 0x1000, 0);
/// sink.record(Cycle(9), "wrCAS", 0x2000, 1);
/// let csv = sink.to_csv();
/// assert!(csv.starts_with("cycle,kind,value,tag\n"));
/// assert_eq!(sink.records().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl TraceSink {
    /// Creates a disabled sink: `record` calls are dropped.
    pub fn disabled() -> TraceSink {
        TraceSink::default()
    }

    /// Creates an enabled sink.
    pub fn enabled() -> TraceSink {
        TraceSink {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// Whether records are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if the sink is enabled.
    #[inline]
    pub fn record(&mut self, at: Cycle, kind: &'static str, value: u64, tag: u64) {
        if !self.enabled {
            return;
        }
        self.records.push(TraceRecord {
            at,
            kind,
            value,
            tag,
        });
    }

    /// All collected records, in collection order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Drops all collected records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Renders the trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,kind,value,tag\n");
        for r in &self.records {
            // Writing to a String cannot fail.
            let _ = writeln!(out, "{},{},{},{}", r.at.raw(), r.kind, r.value, r.tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_records() {
        let mut s = TraceSink::disabled();
        s.record(Cycle(1), "rdCAS", 0, 0);
        assert!(s.records().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn enabled_sink_collects_in_order() {
        let mut s = TraceSink::enabled();
        s.record(Cycle(1), "a", 10, 0);
        s.record(Cycle(2), "b", 20, 1);
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.records()[0].kind, "a");
        assert_eq!(s.records()[1].value, 20);
    }

    #[test]
    fn csv_rendering() {
        let mut s = TraceSink::enabled();
        s.record(Cycle(5), "rdCAS", 4096, 2);
        let csv = s.to_csv();
        assert_eq!(csv, "cycle,kind,value,tag\n5,rdCAS,4096,2\n");
        s.clear();
        assert_eq!(s.to_csv(), "cycle,kind,value,tag\n");
    }
}
