//! Percentiles from raw samples, and the run report.

use ld_core::obs::json::Obj;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: such a percentile would be one
/// of the last few samples and would not repeat.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples of one timed phase, in microseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    pub us: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, d: std::time::Duration) {
        self.us.push(d.as_secs_f64() * 1e6);
    }

    pub fn mean(&self) -> f64 {
        self.us.iter().sum::<f64>() / self.us.len().max(1) as f64
    }

    /// Percentile `p`, refusing (with a message naming the shortfall)
    /// when the sample cannot support it.
    pub fn percentile(&mut self, p: f64) -> Result<f64, String> {
        let n = self.us.len();
        percentile(&mut self.us, p).ok_or_else(|| {
            format!("p{p} of {n} samples has fewer than {MIN_BEYOND} samples beyond it")
        })
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else worth keeping: fingerprint, sample counts,
    /// checks, raw counters.
    pub detail: Obj,
    /// Metrics the run could not measure; a run with any prints no
    /// result.
    pub errors: Vec<String>,
    /// A traced run's mean op latency and the parts (the unexplained
    /// remainder last) that add up to it, in microseconds.
    pub attribution: Option<(f64, Vec<f64>)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records `value`, or the reason it could not be measured.
    pub fn measured(&mut self, name: &str, value: Result<f64, String>, unit: &'static str) {
        match value {
            Ok(v) => self.metric(name, v, unit),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Obj::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Obj::new();
            m.f64("value", *value).str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut o = Obj::new();
        o.bool("correct", self.correct)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), None);
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(990.0));
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), None);
        let mut v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(10.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn latencies_name_the_shortfall() {
        let mut l = Latencies { us: vec![1.0; 50] };
        assert!(l.percentile(99.0).unwrap_err().contains("50 samples"));
        assert_eq!(l.percentile(50.0), Ok(1.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.metric("op_p50_us", 12.5, "us");
        assert_eq!(
            r.result_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_us":{"value":12.5,"unit":"us"}}}"#
        );
    }
}
