//! Order statistics, the metric report and its output formats.

use std::fmt::Write as _;

/// The nearest-rank `q`-quantile of `values` (any order): a value some
/// sample actually took.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99.9/p99/p90/p75 that leaves at least ten samples
/// beyond it, as `(label, value)`; `None` below 40 samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
        ("p75", 0.75),
    ]
    .into_iter()
    .find(|&(_, q)| (values.len() as f64 * (1.0 - q)).floor() >= 10.0)
    .map(|(label, q)| (label, quantile(values, q)))
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric: the value that goes into the result line plus
/// the samples it was taken from (for the median/tail/N table).
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one run reports: metrics, operation counts and the named
/// correctness checks (any failing check makes `correct` false).
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed in the table only (labelled secondaries, model output).
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    /// Expectations on performance counters: printed, but a miss is a
    /// finding about the program, not a wrong output, so it leaves
    /// `correct` alone.
    pub findings: Vec<(String, bool, String)>,
    pub notes: Vec<String>,
}

impl Report {
    /// A metric reported as the median of its samples.
    pub fn median(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// A metric reported as one value (a count, a ratio, a probe result).
    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: vec![value],
        });
    }

    pub fn extra(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        self.extras.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn finding(&mut self, name: &str, ok: bool, detail: String) {
        self.findings.push((name.to_string(), ok, detail));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable table, then the one-line JSON result as
    /// the last line of standard output.
    pub fn print(&self) {
        for n in &self.notes {
            println!("note   {n}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check  {:<44} {:<4} {detail}",
                name,
                if *ok { "ok" } else { "FAIL" }
            );
        }
        for (name, ok, detail) in &self.findings {
            println!(
                "expect {:<44} {:<4} {detail}",
                name,
                if *ok { "ok" } else { "MISS" }
            );
        }
        println!(
            "{:<7}{:<44} {:>8} {:>14} {:>22} {:>7}",
            "", "metric", "unit", "median", "tail", "N"
        );
        let rows = self.metrics.iter().map(|m| ("metric", m));
        for (kind, m) in rows.chain(self.extras.iter().map(|m| ("extra", m))) {
            let med = if m.samples.is_empty() {
                m.value
            } else {
                median(&m.samples)
            };
            let tail =
                tail(&m.samples).map_or_else(|| "-".to_string(), |(l, v)| format!("{l}={v:.4}"));
            println!(
                "{:<7}{:<44} {:>8} {:>14.4} {:>22} {:>7}",
                kind,
                m.name,
                m.unit,
                med,
                tail,
                m.samples.len()
            );
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
