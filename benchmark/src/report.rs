//! What a workload hands back: counts, correctness gates, metrics, and the
//! traced run's span table.

use crate::spans::SpanRow;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample counts or, for a metric that does not apply to the workload,
    /// why it is absent (its value is then 0).
    pub note: String,
}

impl Metric {
    /// A measured figure with its sample note.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }

    /// A figure the workload cannot produce; printed as 0 with the reason.
    pub fn absent(name: &'static str, unit: &'static str, why: &str) -> Self {
        Metric::new(name, 0.0, unit, format!("absent: {why}"))
    }

    /// `Some(v)` as a measured figure, `None` as absent for `why`.
    pub fn maybe(
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        note: impl Into<String>,
        why: &str,
    ) -> Self {
        match value {
            Some(v) => Metric::new(name, v, unit, note),
            None => Metric::absent(name, unit, why),
        }
    }
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that failed, expired or were refused.
    pub failed: u64,
    /// Correctness gates; any failure fails the run.
    pub gates: Vec<Gate>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra report lines (error rate, digests, accuracies, …).
    pub lines: Vec<String>,
    /// Event-loop threads of the workload's server, if it ran one.
    pub event_threads: Option<usize>,
    /// The traced run's per-span table.
    pub spans: Vec<SpanRow>,
    /// Trace events lost to ring overwrites during the traced window.
    pub trace_dropped: u64,
    /// Training: SHA-256 of the final weights every job from the seed
    /// reached, for comparison across runs.
    pub weights_sha256: Option<String>,
    /// The traced window, kept for its Chrome trace-event JSON.
    pub trace: Option<hpnn_trace::Trace>,
}

impl Outcome {
    /// Records a gate.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}
