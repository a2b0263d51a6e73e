//! Shared plumbing of the workloads: arguments, the run report, summary
//! statistics, the simulated-output digest and process measurements.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xsp_core::Fnv128;

/// Command-line arguments of both benchmark binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Directory for run artifacts (socket, self trace).
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--out <dir>]`.
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut out = PathBuf::from("benchmark/out");
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    let s = v
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds '{v}'"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("bad --seconds '{v}'"));
                    }
                    seconds = Some(s);
                }
                "--out" => out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            out,
        })
    }

    /// Derives an independent 64-bit value from the seed and a label.
    pub fn derive(&self, label: &str) -> u64 {
        let mut h = Fnv128::new();
        h.write_field("seed", &self.seed.to_le_bytes());
        h.write_field("label", label.as_bytes());
        h.finish() as u64
    }

    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Engine parallelism of the workloads: one worker per core, as the
/// evaluation engine picks by default.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (including output checks that ran as ops).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced output that
    /// failed its check.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Digest of the simulated outputs (deterministic per seed).
    pub digest: String,
    /// Free-form provenance fields.
    pub info: BTreeMap<&'static str, String>,
    failures: Vec<String>,
}

impl Report {
    /// Records one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason.into());
        }
    }

    /// Records a check: a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Reasons of the first failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Value at quantile `q` (0..=1) of `values`, linearly interpolated
/// between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Operation wall times of a workload's cycle-structured loop, grouped by
/// kind: an operation's position in the cycle (e.g. model × export
/// format). Every kind occurs once per cycle and does the same work each
/// time, so every summary is taken over the **per-kind medians** — the
/// cycle as it runs with each operation at its typical time. On a shared
/// machine, where another tenant can slow a stretch of a run down, this
/// keeps a run's figures steady: a noisy sample near the boundary between
/// a cheap and an expensive kind cannot move a percentile, and rare stalls
/// cannot move a throughput.
#[derive(Default)]
pub struct OpTimes {
    by_kind: BTreeMap<usize, Kind>,
}

#[derive(Default)]
struct Kind {
    ms: Vec<f64>,
    units: usize,
}

impl OpTimes {
    /// Records one operation of `kind` that took `took` and handled
    /// `units` units of work (spans).
    pub fn record(&mut self, kind: usize, took: Duration, units: usize) {
        let k = self.by_kind.entry(kind).or_default();
        k.ms.push(ms(took));
        k.units = units;
    }

    /// Operations recorded.
    pub fn count(&self) -> usize {
        self.by_kind.values().map(|k| k.ms.len()).sum()
    }

    fn medians(&self) -> Vec<f64> {
        self.by_kind.values().map(|k| median(&k.ms)).collect()
    }

    /// Quantile `q` of the per-kind median times, ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.medians(), q)
    }

    /// Operations per second of a cycle at per-kind median times.
    pub fn ops_per_s(&self) -> f64 {
        self.by_kind.len() as f64 / self.cycle_s()
    }

    /// Units of work per second of a cycle at per-kind median times.
    pub fn units_per_s(&self) -> f64 {
        self.by_kind.values().map(|k| k.units).sum::<usize>() as f64 / self.cycle_s()
    }

    fn cycle_s(&self) -> f64 {
        self.medians().iter().sum::<f64>() / 1e3
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs the workload's set-up `reps` times and returns the last result
/// with the median set-up time in seconds. Each earlier result is dropped
/// before the next set-up starts, so the repetitions do not share state.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Order-sensitive digest of simulated outputs (FNV-128 over labeled
/// fields, so it is stable across platforms and processes).
#[derive(Clone, Copy)]
pub struct Digest(Fnv128);

impl Default for Digest {
    fn default() -> Self {
        Self(Fnv128::new())
    }
}

impl Digest {
    /// Folds a labeled string field.
    pub fn str(&mut self, label: &str, value: &str) -> &mut Self {
        self.0.write_field(label, value.as_bytes());
        self
    }

    /// Folds a labeled integer field.
    pub fn u64(&mut self, label: &str, value: u64) -> &mut Self {
        self.0.write_field(label, &value.to_le_bytes());
        self
    }

    /// Folds a labeled float field by its exact bits.
    pub fn f64(&mut self, label: &str, value: f64) -> &mut Self {
        self.0.write_field(label, &value.to_bits().to_le_bytes());
        self
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, label: &str, value: &[u8]) -> &mut Self {
        self.0.write_field(label, value);
        self
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.0.finish()
    }

    /// The digest as 32 hex digits.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

/// Digest of a byte string (output identity checks).
pub fn bytes_digest(bytes: &[u8]) -> u128 {
    Digest::default().bytes("bytes", bytes).finish()
}

/// Peak resident set size since the last reset, MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-cycle peak RSS: each [`PeakRss::lap`] reads the peak since the
/// previous lap and resets it (`/proc/self/clear_refs`), so set-up and
/// one-off transients do not decide the figure; the workload reports the
/// median lap.
#[derive(Default)]
pub struct PeakRss {
    laps: Vec<f64>,
}

impl PeakRss {
    /// Starts measuring: resets the peak to the current RSS.
    pub fn start() -> Self {
        reset_peak_rss();
        Self::default()
    }

    /// Records the peak since the previous lap and resets it.
    pub fn lap(&mut self) {
        self.laps.push(peak_rss_mb());
        reset_peak_rss();
    }

    /// Median lap, MB (the whole-process peak when no lap was taken).
    pub fn median_mb(&self) -> f64 {
        if self.laps.is_empty() {
            peak_rss_mb()
        } else {
            median(&self.laps)
        }
    }
}

fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a metric value as a JSON number with all its digits (JSON has
/// no NaN or infinity; those become 0 and count as a failed check).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
