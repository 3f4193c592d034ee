//! End-to-end benchmark of the HPNN serving and training stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload pipelined-tiny --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host block, the correctness gates and every metric with its
//! unit and sample counts, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer ledger instead.
//! Exits non-zero when any correctness gate fails. See `README.md` beside
//! this package for the workloads and metrics.

mod host;
mod layers;
mod report;
mod schedule;
mod serving;
mod spans;
mod stats;
mod training;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use host::{json_str, Host};
use report::{Metric, Outcome};
use serving::Load;

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_MIN: usize = 5;
/// Further set-ups run while the run has spent less than this on them (up
/// to [`SETUP_MAX`]), so a cheap set-up is timed often enough for a steady
/// median.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Most set-ups per untraced run.
const SETUP_MAX: usize = 50;

/// The workloads this benchmark runs; `BENCHMARK.json` lists the ones
/// whose end-to-end metrics are compared between versions.
pub const WORKLOADS: [&str; 3] = ["pipelined-tiny", "open-convfc", "train-cnn1"];

/// End-to-end metrics and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_share", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("serve.writeback_p99_ms", "ms"),
    ("serve.unaccounted_p99_ms", "ms"),
    ("serve.wakeups_per_reply", "count"),
    ("serve.loop_events_per_reply", "count"),
    ("serve.conn.decode_us", "us"),
    ("serve.conn.admit_us", "us"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.scheduler.queue_wait_p99_ms", "ms"),
    ("serve.scheduler.batch_fill_p50_ms", "ms"),
    ("serve.scheduler.rows_per_batch", "rows"),
    ("serve.scheduler.busy_share", "ratio"),
    ("nn.forward_ms.b1", "ms"),
    ("nn.forward_ms.b8", "ms"),
    ("nn.forward_ms.b32", "ms"),
    ("nn.layer.conv2d_share", "ratio"),
    ("nn.layer.dense_share", "ratio"),
    ("nn.layer.relu_share", "ratio"),
    ("nn.layer.maxpool2d_share", "ratio"),
    ("nn.train.forward_ms", "ms"),
    ("nn.train.backward_ms", "ms"),
    ("nn.train.loss_ms", "ms"),
    ("nn.train.sgd_ms", "ms"),
    ("tensor.gemm_gflops.dense2048.b1", "GFLOP/s"),
    ("tensor.gemm_gflops.dense2048.b32", "GFLOP/s"),
    ("tensor.conv_gflops.conv1", "GFLOP/s"),
    ("tensor.pool.straggler_share", "ratio"),
    ("core.deploy_ms", "ms"),
    ("data.synth_s", "s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.dropped", "count"),
];

/// Most recent trace events kept in the Chrome JSON file.
const CHROME_MAX_EVENTS: usize = 200_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Every set-up timed in one untraced run; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes {
    secs: Vec<f64>,
}

impl SetupTimes {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
        let t0 = Instant::now();
        let fixture = setup()?;
        self.secs.push(t0.elapsed().as_secs_f64());
        Ok(fixture)
    }

    /// Times further set-ups, each torn down at once, until [`SETUP_MIN`]
    /// were timed and [`SETUP_BUDGET`] was spent on them (at most
    /// [`SETUP_MAX`]).
    pub fn fill<T>(
        &mut self,
        mut setup: impl FnMut() -> std::io::Result<T>,
        mut teardown: impl FnMut(T),
    ) -> std::io::Result<()> {
        let start = Instant::now();
        while self.secs.len() < SETUP_MIN
            || (self.secs.len() < SETUP_MAX && start.elapsed() < SETUP_BUDGET)
        {
            let fixture = self.time(&mut setup)?;
            teardown(fixture);
        }
        Ok(())
    }

    /// The `setup_s` metric.
    pub fn metric(&self, what: &str) -> Metric {
        let sorted = stats::sorted(self.secs.clone());
        Metric::new(
            "setup_s",
            stats::median(&sorted),
            "s",
            format!(
                "median of {} set-ups, {:.4} to {:.4} s: {what}",
                sorted.len(),
                sorted.first().copied().unwrap_or(0.0),
                sorted.last().copied().unwrap_or(0.0)
            ),
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} takes a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=120.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "pipelined-tiny" => serving::run(Load::PipelinedTiny, &args),
        "open-convfc" => serving::run(Load::OpenConvfc, &args),
        _ => training::run(&args),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        out.metrics.push(Metric::new(
            "trace.dropped",
            out.trace_dropped as f64,
            "count",
            "events lost to ring overwrites in the traced window",
        ));
    }
    let expected: &[(&'static str, &'static str)] =
        if args.trace { &PER_LAYER } else { &END_TO_END };
    order_metrics(&mut out, expected);
    let host = Host::collect(out.event_threads);
    print_report(&args, &host, &out);
    let saved = save(&args, &host, &out);
    match saved {
        Ok(path) => println!("result written to {}", path.display()),
        Err(e) => eprintln!("could not write the result file: {e}"),
    }
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Puts metrics in `expected` order and turns a missing, extra or
/// non-finite figure into a failed gate: each is a bug in the benchmark.
fn order_metrics(out: &mut Outcome, expected: &[(&'static str, &'static str)]) {
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = out.metrics.swap_remove(i);
                if m.unit != unit || !m.value.is_finite() {
                    out.gate(
                        format!("metric {name} is finite and in {unit}"),
                        false,
                        format!("{} {}", m.value, m.unit),
                    );
                }
                ordered.push(if m.value.is_finite() {
                    m
                } else {
                    Metric::absent(name, unit, "not finite")
                });
            }
            None => {
                out.gate(format!("metric {name} reported"), false, "missing");
                ordered.push(Metric::absent(name, unit, "missing"));
            }
        }
    }
    for extra in std::mem::take(&mut out.metrics) {
        out.gate(
            format!("metric {} is listed", extra.name),
            false,
            "not in BENCHMARK.json",
        );
    }
    out.metrics = ordered;
}

fn print_report(args: &Args, host: &Host, out: &Outcome) {
    println!(
        "workload {} (seed {}, {} s window, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    host.print();
    println!("correctness:");
    for g in &out.gates {
        println!(
            "  [{}] {}: {}",
            if g.ok { "ok" } else { "FAIL" },
            g.name,
            g.detail
        );
    }
    println!(
        "{} metrics:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in &out.metrics {
        println!(
            "  {:<36} {:>14.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for line in &out.lines {
        println!("  {line}");
    }
    if args.trace {
        println!("spans in the traced window (durations in ms):");
        println!(
            "  {:<24} {:>9} {:>12} {:>12} {:>10} {:>10}",
            "span", "count", "total", "self", "p50", "p99"
        );
        for r in &out.spans {
            let pct = |p: Option<stats::Percentile>| {
                p.map_or("-".to_string(), |p| format!("{:.4}", p.value))
            };
            println!(
                "  {:<24} {:>9} {:>12.3} {:>12.3} {:>10} {:>10}{}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                pct(r.p50),
                pct(r.p99),
                r.p99.map_or(String::new(), |p| if p.q < 0.99 {
                    format!(" ({})", p.label())
                } else {
                    String::new()
                })
            );
        }
        if out.trace_dropped > 0 {
            println!(
                "  FLAGGED: the tracer dropped {} events; per-layer figures from this run are incomplete",
                out.trace_dropped
            );
        }
    }
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes the full result (host block, gates, metrics with notes, span
/// table) and, for a traced run, the Chrome trace next to it.
fn save(args: &Args, host: &Host, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{}-seed{}-trace{}-{stamp}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut chrome_note = String::from("null");
    if let Some(trace) = &out.trace {
        let mut trace = trace.clone();
        trace.keep_recent(CHROME_MAX_EVENTS);
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace.to_chrome_json())?;
        chrome_note = json_str(&path.display().to_string());
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    let gates: Vec<String> = out
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&g.name),
                g.ok,
                json_str(&g.detail)
            )
        })
        .collect();
    let spans: Vec<String> = out
        .spans
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                json_str(r.name),
                r.count,
                r.total_ns,
                r.self_ns,
                r.p50.map_or(0.0, |p| p.value),
                r.p99.map_or(0.0, |p| p.value)
            )
        })
        .collect();
    let lines: Vec<String> = out.lines.iter().map(|l| json_str(l)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
         \"gates\": [{}], \"lines\": [{}], \"spans\": [{}], \"trace_dropped\": {}, \"chrome_trace\": {}, \"weights_sha256\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", "),
        gates.join(", "),
        lines.join(", "),
        spans.join(", "),
        out.trace_dropped,
        chrome_note,
        out.weights_sha256.as_deref().map_or("null".to_string(), json_str)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The machine-readable last line of the report.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn lists_match_benchmark_json() {
        let spec = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let count = |needle: &str| spec.matches(needle).count();
        let gated = count("\"why\": ");
        let known = WORKLOADS
            .iter()
            .filter(|w| count(&format!("{{\"name\": \"{w}\", \"why\"")) == 1)
            .count();
        assert_eq!(
            known, gated,
            "every listed workload is one the benchmark runs"
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(count(&entry), 1, "{entry}");
        }
        let names = count("\"name\": ");
        assert_eq!(names, gated + END_TO_END.len() + PER_LAYER.len());
    }
}
