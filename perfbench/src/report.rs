//! Metric values, summary statistics, run identity and JSON output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether a metric name matches `[A-Za-z0-9_.-]+`, starts with a letter
/// or digit and fits in 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether a unit matches `[A-Za-z0-9_/%.-]+` and fits in 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Appends `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number in full precision (JSON has no NaN or infinity).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_num(m.value));
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Identity {
    pub nproc: usize,
    pub commit: String,
    pub dirty: Option<bool>,
    /// The value `SMARTDIMM_THREADS` had at start (it is removed before
    /// anything runs, so the simulator takes its default).
    pub threads_env_at_start: Option<String>,
}

impl Identity {
    /// Reads the commit from the repository the benchmark was built in,
    /// and only when that directory is itself a git checkout (git would
    /// otherwise search the parent directories).
    pub fn collect(threads_env_at_start: Option<String>) -> Identity {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives in a subdirectory of the repository");
        let git = |args: &[&str]| -> Option<String> {
            if !root.join(".git").exists() {
                return None;
            }
            let out = std::process::Command::new("git")
                .arg("-C")
                .arg(root)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Identity {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
            threads_env_at_start,
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!("{{\"nproc\": {}, \"commit\": ", self.nproc);
        json_str(&mut out, &self.commit);
        let dirty = self.dirty.map_or("null".to_string(), |d| d.to_string());
        let _ = write!(
            out,
            ", \"dirty\": {dirty}, \"smartdimm_threads_at_start\": "
        );
        match &self.threads_env_at_start {
            Some(v) => json_str(&mut out, v),
            None => out.push_str("null"),
        }
        out.push_str(", \"smartdimm_threads_during_run\": null}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_grammar() {
        assert!(valid_name("dsa.tls.host_ns_per_line"));
        assert!(valid_name("sim_p999_ns"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("space in name"));
        assert!(!valid_name(""));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("B/req"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per request"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
