//! Self-contained micro-benchmark harness.
//!
//! The offline build environment cannot fetch Criterion, so the `[[bench]]`
//! targets (all `harness = false`) time themselves with [`std::time::Instant`]
//! through this module: warm up, calibrate an iteration count for a target
//! measurement window, take several batches, and report per-iteration mean
//! and best-batch times in a Criterion-like one-line format.
//!
//! Use [`fn@bench`] for closures cheap enough to loop in batches, and
//! [`bench_with_setup`] when each iteration needs fresh non-timed state
//! (the analogue of Criterion's `iter_batched`).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hpnn_trace::json_escape_into;

/// Target wall-clock length of one measurement batch.
const BATCH_TARGET: Duration = Duration::from_millis(60);

/// Measurement batches per benchmark.
const BATCHES: usize = 5;

/// Warm-up budget before calibration.
const WARMUP: Duration = Duration::from_millis(20);

/// Timing summary for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label (conventionally `group/name`).
    pub name: String,
    /// Iterations per measurement batch.
    pub iters_per_batch: u64,
    /// Mean time per iteration across all batches, in nanoseconds.
    pub mean_ns: f64,
    /// Per-iteration time of the fastest batch, in nanoseconds.
    pub best_ns: f64,
}

impl BenchResult {
    /// Prints the result in a fixed-width, grep-friendly layout.
    pub fn report(&self) -> &Self {
        println!(
            "{:<44} mean {:>10}  best {:>10}  ({} iters/batch, {} batches)",
            self.name,
            fmt_ns(self.mean_ns),
            fmt_ns(self.best_ns),
            self.iters_per_batch,
            BATCHES,
        );
        self
    }

    /// Serializes the result as a JSON object (hand-rolled; the workspace
    /// carries no serde dependency).
    pub fn to_json(&self) -> String {
        let mut name = String::new();
        json_escape_into(&mut name, &self.name);
        format!(
            "{{\"name\":\"{name}\",\"iters_per_batch\":{},\"mean_ns\":{:.3},\"best_ns\":{:.3}}}",
            self.iters_per_batch, self.mean_ns, self.best_ns
        )
    }
}

/// Writes benchmark results plus scalar summary metrics (speedups,
/// thresholds) to `path` as one JSON document:
///
/// ```json
/// {"bench": "...", "metrics": {"...": 1.0}, "results": [{...}]}
/// ```
///
/// CI and the driver scripts consume these files to track performance
/// across commits.
///
/// # Errors
///
/// Propagates any I/O error from writing `path`.
pub fn write_json(
    path: impl AsRef<Path>,
    bench_name: &str,
    metrics: &[(&str, f64)],
    results: &[BenchResult],
) -> std::io::Result<()> {
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"bench\": \"");
    json_escape_into(&mut doc, bench_name);
    doc.push_str("\",\n");
    doc.push_str("  \"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("\n    \"");
        json_escape_into(&mut doc, k);
        doc.push_str(&format!("\": {v:.4}"));
    }
    doc.push_str(if metrics.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    doc.push_str("  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("\n    ");
        doc.push_str(&r.to_json());
    }
    doc.push_str(if results.is_empty() { "]\n" } else { "\n  ]\n" });
    doc.push_str("}\n");
    std::fs::write(path, doc)
}

/// Whether this bench run was started with `--quick`: a short smoke run
/// (as CI does) rather than a measurement.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Path for a benchmark output file.
///
/// Cargo runs `[[bench]]` targets with the package directory as the working
/// directory, which would scatter outputs under `crates/bench/`. Full runs
/// write to the repository root instead, named `BENCH_<topic>.json` (one
/// file per bench binary), so CI and tooling can glob
/// `BENCH_*.json` in one place. A [`quick`] run's numbers are not
/// measurements, so they go to `target/bench-quick/` and never overwrite
/// the committed results.
pub fn bench_output_path(file_name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if quick() {
        let dir = root.join("target/bench-quick");
        // A failure surfaces as the caller's write error on the file.
        let _ = std::fs::create_dir_all(&dir);
        dir.join(file_name)
    } else {
        root.join(file_name)
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Times `f` (keeping its output live via [`black_box`]) and returns the
/// per-iteration statistics. Warm-up and calibration runs are discarded.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm up and estimate the per-iteration cost.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP || warm_iters < 3 {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let iters = ((BATCH_TARGET.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000_000);

    let mut batch_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        batch_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    summarize(name, iters, batch_ns)
}

/// Like [`fn@bench`], but runs `setup` outside the timed region before every
/// iteration — for routines that consume or mutate their input. Iterations
/// are timed individually, so prefer routines of at least ~1 µs.
pub fn bench_with_setup<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> BenchResult {
    // Warm up and estimate cost. The warm-up budget is wall-clock (setup
    // included) so an expensive setup with a cheap routine cannot spin here
    // for minutes; the batch size is then bounded both by the routine time
    // (measurement window) and by the setup-inclusive wall time per
    // iteration (total runtime).
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    let mut warm_spent = Duration::ZERO;
    while warm_start.elapsed() < WARMUP || warm_iters < 3 {
        let state = setup();
        let start = Instant::now();
        black_box(routine(state));
        warm_spent += start.elapsed();
        warm_iters += 1;
    }
    let per_iter = warm_spent.as_secs_f64() / warm_iters as f64;
    let wall_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let by_routine = (BATCH_TARGET.as_secs_f64() / per_iter.max(1e-9)) as u64;
    let by_wall = (4.0 * BATCH_TARGET.as_secs_f64() / wall_per_iter.max(1e-9)) as u64;
    let iters = by_routine.min(by_wall).clamp(1, 1_000_000);

    let mut batch_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let state = setup();
            let start = Instant::now();
            black_box(routine(state));
            spent += start.elapsed();
        }
        batch_ns.push(spent.as_nanos() as f64 / iters as f64);
    }
    summarize(name, iters, batch_ns)
}

fn summarize(name: &str, iters: u64, batch_ns: Vec<f64>) -> BenchResult {
    let mean_ns = batch_ns.iter().sum::<f64>() / batch_ns.len() as f64;
    let best_ns = batch_ns.iter().copied().fold(f64::INFINITY, f64::min);
    BenchResult {
        name: name.to_string(),
        iters_per_batch: iters,
        mean_ns,
        best_ns,
    }
}

/// Prints a section header so multi-group bench binaries read like
/// Criterion output.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let r = bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(r.mean_ns > 0.0);
        assert!(r.best_ns <= r.mean_ns * 1.01);
        assert!(r.iters_per_batch >= 1);
    }

    #[test]
    fn bench_with_setup_excludes_setup_cost() {
        // Setup sleeps; routine is trivial. If setup leaked into the timed
        // region the per-iteration time would be milliseconds.
        let r = bench_with_setup(
            "setup_excluded",
            || std::thread::sleep(Duration::from_micros(500)),
            |()| 1 + 1,
        );
        assert!(
            r.mean_ns < 250_000.0,
            "setup leaked into timing: {} ns",
            r.mean_ns
        );
    }

    #[test]
    fn write_json_roundtrip_shape() {
        let r = BenchResult {
            name: "g/n".into(),
            iters_per_batch: 7,
            mean_ns: 123.456,
            best_ns: 100.0,
        };
        let path = std::env::temp_dir().join("hpnn_bench_json_test.json");
        write_json(&path, "demo", &[("speedup", 2.5)], &[r]).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(doc.contains("\"bench\": \"demo\""));
        assert!(doc.contains("\"speedup\": 2.5000"));
        assert!(doc.contains("\"name\":\"g/n\""));
        assert!(doc.contains("\"iters_per_batch\":7"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        assert!(fmt_ns(5_000_000_000.0).ends_with(" s"));
    }
}
