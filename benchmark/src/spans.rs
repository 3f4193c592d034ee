//! Per-layer ledger from a traced window: self time, the per-span table,
//! and the pool's straggler share.
//!
//! The tracer records no parent links, so nesting is recovered from time:
//! on one thread, guard-style spans (`span!`) are properly nested calls, and
//! a span's parent is the innermost span on the same thread whose interval
//! contains it. Spans recorded after the fact from two timestamps
//! ([`INTERVAL_SPANS`]) are waits, not calls: they enclose unrelated work
//! that ran on their thread meanwhile, so they take no part in nesting.

use std::collections::BTreeMap;

use hpnn_trace::{EventKind, Trace, TraceEvent};

use crate::report::Metric;
use crate::stats::{self, Percentile};

/// Spans the program records from two timestamps (`span_between` /
/// `span_since`) rather than around a call.
pub const INTERVAL_SPANS: &[&str] = &["queue.wait", "batch.fill", "writeback"];

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    fn nests(&self) -> bool {
        !INTERVAL_SPANS.contains(&self.name)
    }
}

/// Drains the tracer while a traced window runs, so that no per-thread
/// ring wraps; any event that was still lost shows in `dropped`.
#[derive(Default)]
pub struct Collector {
    trace: Trace,
}

impl Collector {
    /// Discards anything recorded before and turns tracing on.
    pub fn start() -> Collector {
        hpnn_trace::set_enabled(true);
        let _ = hpnn_trace::take();
        Collector::default()
    }

    /// Moves every event recorded so far into the collector.
    pub fn drain(&mut self) {
        let t = hpnn_trace::take();
        self.trace.dropped += t.dropped;
        self.trace.events.extend(t.events);
        self.trace.threads = t.threads;
    }

    /// Turns tracing off and returns everything recorded since `start`.
    pub fn finish(mut self) -> Trace {
        hpnn_trace::set_enabled(false);
        self.drain();
        self.trace.events.sort_by_key(|e| (e.ts_ns, e.tid));
        self.trace
    }
}

/// The spans (instants dropped) of drained trace events.
pub fn from_events(events: &[TraceEvent]) -> Vec<Span> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| Span {
            name: e.name,
            tid: e.tid,
            start: e.ts_ns,
            end: e.ts_ns + e.dur_ns,
        })
        .collect()
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; an enclosing span sorts before what it encloses.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.tid, s.start, std::cmp::Reverse(s.end))
    });
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        if !s.nests() {
            continue;
        }
        while stack.last().is_some_and(|&p| spans[p].end <= s.start) {
            stack.pop();
        }
        if let Some(&p) = stack.iter().rev().find(|&&p| spans[p].contains(s)) {
            children[p].push((s.start, s.end));
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids))
        .collect()
}

/// Total length of the union of intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// One row of the per-span table.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Median duration, milliseconds.
    pub p50: Option<Percentile>,
    /// Tail duration, milliseconds (p99 or the highest percentile with ten
    /// samples beyond it).
    pub p99: Option<Percentile>,
}

/// Count, total, self time and p50/p99 per span name, largest total first.
pub fn table(spans: &[Span], self_ns: &[u64]) -> Vec<SpanRow> {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        let row = by_name.entry(s.name).or_default();
        row.0.push(s.dur() as f64 / 1e6);
        row.1 += s.dur();
        row.2 += own;
    }
    let mut rows: Vec<SpanRow> = by_name
        .into_iter()
        .map(|(name, (durs, total_ns, self_ns))| {
            let durs = stats::sorted(durs);
            SpanRow {
                name,
                count: durs.len(),
                total_ns,
                self_ns,
                p50: stats::nearest_rank(&durs, 0.5),
                p99: stats::tail(&durs, 0.99),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    rows
}

/// Share of pooled-job time spent beyond the job's longest chunk: the
/// dispatch, wake-up and imbalance cost of fanning a job out.
///
/// A `pool.job` ran on the pool (rather than inline) when its own thread
/// recorded a `pool.chunk` inside it; the pool runs one such job at a time,
/// so every chunk inside that interval, on any thread, is one of its
/// chunks. `None` when no job ran on the pool.
pub fn straggler_share(spans: &[Span]) -> Option<f64> {
    let mut chunks: Vec<&Span> = spans.iter().filter(|s| s.name == "pool.chunk").collect();
    chunks.sort_by_key(|s| s.start);
    let (mut beyond, mut total) = (0u64, 0u64);
    for job in spans.iter().filter(|s| s.name == "pool.job") {
        let first = chunks.partition_point(|c| c.start < job.start);
        let inside: Vec<&&Span> = chunks[first..]
            .iter()
            .take_while(|c| c.start <= job.end)
            .filter(|c| job.contains(c))
            .collect();
        if !inside.iter().any(|c| c.tid == job.tid) {
            continue;
        }
        let longest = inside.iter().map(|c| c.dur()).max().unwrap_or(0);
        beyond += job.dur() - longest;
        total += job.dur();
    }
    (total > 0).then(|| beyond as f64 / total as f64)
}

/// Durations of every `name` span, sorted, in milliseconds.
pub fn durations_ms<'a>(spans: &'a [Span], name: &'a str) -> Vec<f64> {
    stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e6)
            .collect(),
    )
}

/// Summed self time of every `name` span, nanoseconds.
pub fn self_total_ns(spans: &[Span], self_ns: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &v)| v)
        .sum()
}

/// Summed duration of every `name` span, nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur())
        .sum()
}

/// Share of `parent` span time that each NN layer kind takes. A layer's
/// time is its whole span, including the pool work it fans out: layers do
/// not nest in one another, so this is its self time among the layers.
pub fn layer_shares(spans: &[Span], parent: &str) -> Vec<Metric> {
    let denom = total_ns(spans, parent);
    [
        ("nn.layer.conv2d_share", "conv2d"),
        ("nn.layer.dense_share", "dense"),
        ("nn.layer.relu_share", "relu"),
        ("nn.layer.maxpool2d_share", "maxpool2d"),
    ]
    .into_iter()
    .map(|(metric, layer)| {
        let own = total_ns(spans, layer);
        Metric::maybe(
            metric,
            (denom > 0).then(|| own as f64 / denom as f64),
            "ratio",
            format!("{layer} span time / {parent} time"),
            &format!("no {parent} spans"),
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            tid,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span("parent", 1, 0, 100),
            span("child.a", 1, 10, 30),
            span("grandchild", 1, 12, 15),
            // Overlaps child.a without nesting in it: a child of parent.
            span("child.b", 1, 20, 50),
            span("child.c", 1, 60, 70),
            // Other threads and waits never count against the parent.
            span("other.thread", 2, 0, 100),
            span("queue.wait", 1, 5, 95),
        ];
        let own = self_times(&spans);
        // parent: 100 minus [10,50) and [60,70).
        assert_eq!(own[0], 50);
        // child.a: 20 minus its grandchild's 3.
        assert_eq!(own[1], 17);
        assert_eq!(&own[2..], &[3, 30, 10, 100, 90]);
    }

    #[test]
    fn children_ending_past_their_parent_do_not_nest() {
        let spans = [span("a", 1, 0, 10), span("b", 1, 5, 15)];
        assert_eq!(self_times(&spans), vec![10, 10]);
    }

    #[test]
    fn table_aggregates_per_name() {
        let spans = [
            span("outer", 1, 0, 10),
            span("inner", 1, 2, 4),
            span("outer", 1, 20, 40),
            span("inner", 1, 22, 30),
        ];
        let rows = table(&spans, &self_times(&spans));
        assert_eq!(rows[0].name, "outer");
        assert_eq!(
            (rows[0].count, rows[0].total_ns, rows[0].self_ns),
            (2, 30, 20)
        );
        assert_eq!(
            (rows[1].count, rows[1].total_ns, rows[1].self_ns),
            (2, 10, 10)
        );
    }

    #[test]
    fn straggler_share_counts_pooled_jobs_only() {
        let spans = [
            // Pooled job on thread 1: chunks of 40 (own thread) and 60.
            span("pool.job", 1, 0, 100),
            span("pool.chunk", 1, 5, 45),
            span("pool.chunk", 2, 10, 70),
            // Inline job on thread 3 overlapping it: no chunk of its own.
            span("pool.job", 3, 50, 90),
        ];
        let share = straggler_share(&spans).unwrap();
        assert!((share - 0.4).abs() < 1e-12, "{share}");
        assert!(straggler_share(&spans[3..]).is_none());
    }
}
