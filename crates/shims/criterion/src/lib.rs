//! Offline drop-in subset of the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of criterion its benches use: [`Criterion`],
//! [`Criterion::benchmark_group`] / [`BenchmarkGroup`] (with
//! `sample_size`, `bench_function`, `bench_with_input`, `finish`),
//! [`BenchmarkId`], [`Bencher::iter`], [`Bencher::iter_batched`] with
//! [`BatchSize`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Measurement model: each benchmark is warmed up briefly, then the
//! iteration count per sample is calibrated so a sample takes roughly
//! [`TARGET_SAMPLE_NS`]; `sample_size` samples are collected and the
//! mean / median / min per-iteration times reported. On process exit
//! ([`criterion_main!`]) a machine-readable summary is written to
//! `BENCH_<bench-name>.json` in the working directory (the bench name is
//! the executable stem with cargo's trailing `-<hash>` stripped), and a
//! human-readable table goes to stdout.
//!
//! Environment knobs: `BENCH_SAMPLE_SIZE` overrides every group's sample
//! count; `BENCH_OUT_DIR` redirects the JSON summary; `BENCH_FILTER`
//! runs only benchmarks whose full id contains the given substring
//! (filtered runs write a partial summary — redirect `BENCH_OUT_DIR`
//! so they don't clobber a committed full one).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one measured sample.
const TARGET_SAMPLE_NS: u64 = 20_000_000; // 20 ms

/// Opaque-to-the-optimizer identity (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id composed of a function name and a parameter, `"{name}/{param}"`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter's display form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<&String> for BenchmarkId {
    fn from(s: &String) -> Self {
        BenchmarkId { id: s.clone() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One measured benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full id, `group/bench` (or just the bench name outside a group).
    pub id: String,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Median time per iteration.
    pub median_ns: f64,
    /// Fastest sample's time per iteration.
    pub min_ns: f64,
    /// Number of samples collected.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Hardware threads available to this process when the benchmark ran.
    /// A multi-threaded bench is capped by this, so summaries recorded on
    /// different machines stay comparable — an entry measured on a 2-core
    /// runner is not mislabeled as a genuine N-thread result.
    pub threads_effective: usize,
}

/// How many inputs [`Bencher::iter_batched`] builds before timing them.
/// The shim has criterion's one variant its benches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Cheap inputs: up to 1024 per batch.
    SmallInput,
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    iters_per_sample: u64,
    sample_size: usize,
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    /// Runs `routine` repeatedly and records per-iteration timings.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.measure(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Like [`iter`](Bencher::iter), but each call of `routine` consumes
    /// a fresh input from `setup`, and only `routine` is timed: inputs are
    /// built a batch at a time before the clock starts, and outputs are
    /// dropped after it stops.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let BatchSize::SmallInput = size;
        self.measure(|iters| {
            let mut elapsed = Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let n = left.min(1024);
                let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
                let mut outputs = Vec::with_capacity(n as usize);
                let start = Instant::now();
                for input in inputs {
                    outputs.push(std_black_box(routine(input)));
                }
                elapsed += start.elapsed();
                drop(outputs);
                left -= n;
            }
            elapsed
        });
    }

    /// Calibrates and samples `timed`, which runs the benchmark for the
    /// given number of iterations and returns the time they took.
    fn measure(&mut self, mut timed: impl FnMut(u64) -> Duration) {
        // Warm up and calibrate: grow the iteration count until one
        // sample takes about TARGET_SAMPLE_NS.
        let mut iters: u64 = 1;
        loop {
            let elapsed = timed(iters);
            if elapsed >= Duration::from_nanos(TARGET_SAMPLE_NS) || iters >= 1 << 20 {
                break;
            }
            let per_iter = (elapsed.as_nanos() as u64 / iters).max(1);
            let needed = TARGET_SAMPLE_NS / per_iter;
            iters = needed.clamp(iters + 1, iters.saturating_mul(16)).max(1);
        }
        self.iters_per_sample = iters;

        self.per_iter_ns.clear();
        for _ in 0..self.sample_size {
            let elapsed = timed(iters);
            self.per_iter_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

/// The benchmark registry; collects results and prints/saves the summary.
pub struct Criterion {
    records: Vec<BenchRecord>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            records: Vec::new(),
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs a standalone benchmark (no group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.default_sample_size;
        self.run_one(id.to_string(), sample_size, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, sample_size: usize, mut f: F) {
        if let Ok(filter) = std::env::var("BENCH_FILTER") {
            if !filter.is_empty() && !id.contains(&filter) {
                return;
            }
        }
        let sample_size = std::env::var("BENCH_SAMPLE_SIZE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(sample_size)
            .max(1);
        let mut b = Bencher {
            iters_per_sample: 1,
            sample_size,
            per_iter_ns: Vec::new(),
        };
        f(&mut b);
        if b.per_iter_ns.is_empty() {
            return; // closure never called iter()
        }
        let mut sorted = b.per_iter_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = b.per_iter_ns.iter().sum::<f64>() / b.per_iter_ns.len() as f64;
        let median = sorted[sorted.len() / 2];
        let record = BenchRecord {
            id,
            mean_ns: mean,
            median_ns: median,
            min_ns: sorted[0],
            samples: b.per_iter_ns.len(),
            iters_per_sample: b.iters_per_sample,
            threads_effective: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        println!(
            "bench {:<48} mean {:>12}  median {:>12}  min {:>12}  ({} samples x {} iters)",
            record.id,
            fmt_ns(record.mean_ns),
            fmt_ns(record.median_ns),
            fmt_ns(record.min_ns),
            record.samples,
            record.iters_per_sample,
        );
        self.records.push(record);
    }

    /// All results measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Writes `BENCH_<name>.json` with every record measured so far.
    pub fn save_summary(&self, bench_name: &str) {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{bench_name}.json"));
        let mut body = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            body.push_str(&format!(
                "    {{\"id\": {:?}, \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}, \
                 \"threads_effective\": {}}}{comma}\n",
                r.id,
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.samples,
                r.iters_per_sample,
                r.threads_effective,
            ));
        }
        body.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("benchmark summary written to {}", path.display());
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    parent: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs a benchmark under this group's name.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        let n = self.sample_size.unwrap_or(self.parent.default_sample_size);
        self.parent.run_one(full, n, f);
        self
    }

    /// Runs a benchmark that receives `input` by reference.
    pub fn bench_with_input<I, P, F>(&mut self, id: I, input: &P, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        P: ?Sized,
        F: FnMut(&mut Bencher, &P),
    {
        let full = format!("{}/{}", self.name, id.into());
        let n = self.sample_size.unwrap_or(self.parent.default_sample_size);
        self.parent.run_one(full, n, |b| f(b, input));
        self
    }

    /// Ends the group (results are recorded as they run; kept for API parity).
    pub fn finish(&mut self) {}
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench `main`, runs every group, then saves the summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.save_summary(&$crate::bench_name());
        }
    };
}

/// The current executable's stem with cargo's trailing `-<hash>` stripped.
pub fn bench_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    // cargo names bench executables `<name>-<16-hex-digit hash>`.
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        std::env::remove_var("BENCH_SAMPLE_SIZE");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        let (mut built, mut consumed) = (0u64, 0u64);
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    built += 1;
                    vec![1u64; 4]
                },
                |v| {
                    consumed += 1;
                    black_box(v.iter().sum::<u64>())
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!(built, consumed, "every input is consumed once");
        assert_eq!(c.records().len(), 3);
        assert_eq!(c.records()[0].id, "shim/noop");
        assert_eq!(c.records()[1].id, "shim/3");
        assert_eq!(c.records()[2].id, "shim/batched");
        assert!(c
            .records()
            .iter()
            .all(|r| r.mean_ns > 0.0 && r.samples == 5 && r.threads_effective >= 1));

        // Same test (not a separate one) so the process-global env var
        // cannot race another bench-running test.
        std::env::set_var("BENCH_FILTER", "noop");
        let mut filtered = Criterion::default();
        let mut group = filtered.benchmark_group("shim");
        group.sample_size(2);
        group.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
        group.bench_function("other", |b| b.iter(|| black_box(2u64 + 2)));
        group.finish();
        std::env::remove_var("BENCH_FILTER");
        assert_eq!(filtered.records().len(), 1, "filter must skip non-matches");
        assert_eq!(filtered.records()[0].id, "shim/noop");
    }

    #[test]
    fn hash_suffix_is_stripped() {
        // bench_name() reads current_exe, so test the pattern directly.
        let stem = "scheduling-0123456789abcdef";
        let base = match stem.rsplit_once('-') {
            Some((b, h)) if h.len() == 16 && h.chars().all(|c| c.is_ascii_hexdigit()) => b,
            _ => stem,
        };
        assert_eq!(base, "scheduling");
    }
}
