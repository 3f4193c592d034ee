//! The host block every result carries, and process resource readings.
//!
//! Two results are only comparable when they ran on the same kind of host
//! with the same program-level knobs: a 1-core figure never stands in for
//! a multi-core one. [`Host::comparability_key`] is what must match; the
//! commit and source fingerprint say which code ran and are expected to
//! differ between the sides of a comparison.

use std::path::Path;
use std::time::Duration;

/// Program environment variables that change behaviour; the benchmark sets
/// none of them and records what it inherited.
const ENV_KNOBS: [&str; 3] = ["HPNN_THREADS", "HPNN_SIMD", "HPNN_TRACE"];

/// Where and with what the run happened.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// SIMD level the tensor kernels dispatch to.
    pub simd: &'static str,
    /// Lanes of the process-wide tensor pool.
    pub pool_width: usize,
    /// Event-loop threads of the server, when the workload runs one.
    pub event_threads: Option<usize>,
    /// The inherited value of each of [`ENV_KNOBS`].
    pub env: Vec<(&'static str, Option<String>)>,
    /// The checked-out git commit, or `none` outside a git checkout.
    pub commit: String,
    /// SHA-256 over the workspace sources the benchmark builds against.
    pub source_sha256: String,
    /// Runs behind the figures (1 for a single invocation).
    pub runs: usize,
}

impl Host {
    /// Reads the host. `event_threads` comes from the running server.
    pub fn collect(event_threads: Option<usize>) -> Host {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            simd: hpnn_tensor::simd::probe().name(),
            pool_width: hpnn_tensor::pool::global().threads(),
            event_threads,
            env: ENV_KNOBS
                .iter()
                .map(|&k| (k, std::env::var(k).ok()))
                .collect(),
            commit: git_head(&repo),
            source_sha256: source_fingerprint(&repo),
            runs: 1,
        }
    }

    /// Everything that must match for two results to be compared.
    pub fn comparability_key(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_deref().unwrap_or("unset")))
            .collect();
        format!(
            "nproc={} cpu={} simd={} pool_width={} event_threads={} {}",
            self.nproc,
            self.cpu,
            self.simd,
            self.pool_width,
            self.event_threads
                .map_or("none".to_string(), |n| n.to_string()),
            env.join(" ")
        )
    }

    /// Human-readable block.
    pub fn print(&self) {
        println!("host:");
        println!("  nproc           {}", self.nproc);
        println!("  cpu             {}", self.cpu);
        println!("  simd            {}", self.simd);
        println!("  pool width      {}", self.pool_width);
        match self.event_threads {
            Some(n) => println!("  event threads   {n}"),
            None => println!("  event threads   none (no server in this workload)"),
        }
        for (k, v) in &self.env {
            println!("  {k:<15} {}", v.as_deref().unwrap_or("unset"));
        }
        println!("  commit          {}", self.commit);
        println!("  source sha256   {}", self.source_sha256);
        println!("  runs            {}", self.runs);
    }

    /// JSON object for the result file.
    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}: {}",
                    json_str(k),
                    v.as_deref().map_or("null".to_string(), json_str)
                )
            })
            .collect();
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"simd\": {}, \"pool_width\": {}, \
             \"event_threads\": {}, \"env\": {{{}}}, \"commit\": {}, \
             \"source_sha256\": {}, \"runs\": {}, \"key\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(self.simd),
            self.pool_width,
            self.event_threads
                .map_or("null".to_string(), |n| n.to_string()),
            env.join(", "),
            json_str(&self.commit),
            json_str(&self.source_sha256),
            self.runs,
            json_str(&self.comparability_key()),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit `.git/HEAD` names, read from the files (no `git` process,
/// nothing read outside the checkout); `none` outside a git checkout.
fn git_head(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(&format!(" {reference}")))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// SHA-256 over every file under `crates/` plus the root manifest, each
/// prefixed by its relative path, in sorted order: identifies the code
/// under test where no git history is available.
fn source_fingerprint(repo: &Path) -> String {
    let mut files = vec![repo.join("Cargo.toml")];
    collect_files(&repo.join("crates"), &mut files);
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        let rel = f.strip_prefix(repo).unwrap_or(f);
        buf.extend_from_slice(rel.to_string_lossy().as_bytes());
        buf.push(0);
        buf.extend_from_slice(&bytes);
    }
    hpnn_core::sha256(&buf).to_string()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// User plus system CPU time of the whole process: every thread, including
/// threads that have already exited, at nanosecond resolution.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The `peak_rss_mb` metric, read after the measured window.
pub fn peak_rss_metric() -> crate::report::Metric {
    crate::report::Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of the process")
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
