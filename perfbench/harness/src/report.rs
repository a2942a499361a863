//! Order statistics and the JSON the harness prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Host steal so far: clock ticks the hypervisor ran something else while
/// one of this machine's CPUs had work (the `steal` column of the `cpu`
/// line of /proc/stat, summed over CPUs; 0 where it is not reported).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A point in time, with the host's steal count at that point.
pub struct Mark {
    at: Instant,
    steal: u64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            steal: steal_ticks(),
        }
    }

    /// The share of the machine's CPU time since the mark that the host
    /// stole (clock ticks are 10 ms).
    pub fn steal_share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen_s = steal_ticks().saturating_sub(self.steal) as f64 / 100.0;
        stolen_s / (self.at.elapsed().as_secs_f64() * cpus).max(1e-9)
    }
}

/// One measured value and the share of CPU time the host stole while it
/// was measured.
#[derive(Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub steal: f64,
}

/// The values of the `share` of `samples` the host stole least from,
/// together with every sample whose steal ties the last one kept.
///
/// On a shared host the hypervisor takes the CPU away for stretches of
/// time; a sample taken then measures the host, not the program. Ties
/// are kept together, so no sample is dropped for when in the run it was
/// taken: where the host steals nothing every sample is kept.
fn quiet(samples: &[Sample], share: f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut steals: Vec<f64> = samples.iter().map(|s| s.steal).collect();
    steals.sort_by(f64::total_cmp);
    let keep = ((samples.len() as f64 * share).ceil() as usize).clamp(1, samples.len());
    let cutoff = steals[keep - 1];
    samples
        .iter()
        .filter(|s| s.steal <= cutoff)
        .map(|s| s.value)
        .collect()
}

/// The median of the [`quiet`] samples.
pub fn quiet_median(samples: &[Sample], share: f64) -> f64 {
    median(&quiet(samples, share))
}

/// The aggregate rate of the [`quiet`] samples, each a rate over the
/// same amount of work: the work they did over the time they took (their
/// harmonic mean).
pub fn quiet_rate(samples: &[Sample], share: f64) -> f64 {
    let rates = quiet(samples, share);
    if rates.is_empty() {
        return f64::NAN;
    }
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// The `q`-quantile of `values` (nearest rank, `q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each
    /// value (non-finite values render as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number, or `null` when not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the harness only quotes plain ASCII names and
/// messages, so escaping quotes and backslashes suffices).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
