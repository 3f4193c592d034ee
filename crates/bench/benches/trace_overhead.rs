//! Bench: cost of `hpnn-trace` span recording on the serve hot path.
//!
//! The tracing subsystem instruments every stage of the request pipeline
//! (frame decode, admission, queue wait, batch fill, forward with per-layer
//! children, writeback, pool jobs), so its disabled cost is paid by every
//! production request. This bench pins three properties:
//!
//! 1. **Disabled tracing is free**: a `span!` behind the global off switch
//!    is one relaxed atomic load. The headline assertion budgets 64 span
//!    sites per request (far more than the pipeline actually has) and
//!    requires their combined disabled cost to stay under 2% of the
//!    measured mean serve request.
//! 2. **Enabled tracing is bounded**: flooding a ring with 3x its capacity
//!    keeps at most `ring_capacity()` events and counts every overwritten
//!    slot in the drop counter — memory use cannot grow with load.
//! 3. **The instrumentation is live end to end**: a traced serve+loadgen
//!    run captures spans for every pipeline stage, including per-layer
//!    forward children.
//!
//! Results land in `BENCH_trace.json` at the repository root. Run with
//! `--quick` (as CI does) for a shorter loadgen phase.

use std::time::Duration;

use hpnn_bench::timing::{bench, bench_output_path, fmt_ns, group, quick, write_json, BenchResult};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_serve::{InferMode, LoadgenConfig, LoadgenReport, ServeConfig, ServeRegistry, Server};
use hpnn_tensor::Rng;

/// Span sites budgeted per request when projecting disabled-path cost; the
/// real pipeline has about a dozen, so this is a 5x safety margin.
const SPAN_SITES_PER_REQUEST: f64 = 64.0;

/// Serves a small locked MLP on loopback and drives it with the closed-loop
/// load generator; returns the report for latency/throughput numbers.
fn serve_run(requests_per_client: usize) -> LoadgenReport {
    let mut rng = Rng::new(83);
    let spec = mlp(16, &[64, 64], 4);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("build model");
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "bench")));
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(200))
        .queue_cap(256)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .expect("bench config");
    let server = Server::start(registry, cfg, "127.0.0.1:0").expect("bind loopback server");
    let report = hpnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 4,
        requests_per_client,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 5,
        depth: 4,
        pattern: hpnn_serve::LoadPattern::Steady,
        hot_fraction: None,
        // This bench measures the raw hot path; no stats sampler connection.
        sample_interval: Duration::ZERO,
    })
    .expect("load generation");
    server.shutdown();
    assert_eq!(report.ok, report.requests, "every request must succeed");
    report
}

fn main() {
    let quick = quick();
    let requests_per_client = if quick { 25 } else { 100 };

    group("span recording cost");
    hpnn_trace::set_enabled(false);
    let disabled = bench("span/disabled", || {
        let _g = hpnn_trace::span!("bench.span", 1);
    });
    disabled.report();
    hpnn_trace::set_enabled(true);
    let enabled = bench("span/enabled", || {
        let _g = hpnn_trace::span!("bench.span", 1);
    });
    enabled.report();
    let instant = bench("instant/enabled", || {
        hpnn_trace::instant!("bench.instant", 2);
    });
    instant.report();
    println!(
        "disabled span {} | enabled span {} | enabled instant {}",
        fmt_ns(disabled.best_ns),
        fmt_ns(enabled.best_ns),
        fmt_ns(instant.best_ns),
    );

    group("ring boundedness under flood");
    let cap = hpnn_trace::ring_capacity();
    drop(hpnn_trace::take()); // discard the bench-loop events above
    for i in 0..3 * cap {
        hpnn_trace::instant!("flood", i);
    }
    let flood = hpnn_trace::take();
    println!(
        "flooded {} events into a {cap}-slot ring: kept {}, dropped {}",
        3 * cap,
        flood.events.len(),
        flood.dropped
    );
    assert!(
        flood.events.len() <= cap,
        "ring must cap retained events at {cap}, kept {}",
        flood.events.len()
    );
    assert!(
        flood.dropped >= (2 * cap) as u64,
        "every overwritten slot must be counted: dropped {} of {} overflowed",
        flood.dropped,
        2 * cap
    );

    group("serve hot path (tracing disabled)");
    hpnn_trace::set_enabled(false);
    let cold = serve_run(requests_per_client);
    let request_ns = cold.latency.mean_ns();
    println!(
        "{} requests, mean latency {} at {:.1} req/s",
        cold.ok,
        fmt_ns(request_ns),
        cold.throughput_rps()
    );

    group("serve hot path (tracing enabled)");
    hpnn_trace::set_enabled(true);
    drop(hpnn_trace::take());
    let hot = serve_run(requests_per_client);
    let trace = hpnn_trace::take();
    hpnn_trace::set_enabled(false);
    println!(
        "{} requests, mean latency {} at {:.1} req/s; captured {} events ({} dropped)",
        hot.ok,
        fmt_ns(hot.latency.mean_ns()),
        hot.throughput_rps(),
        trace.events.len(),
        trace.dropped
    );
    for span in ["conn.decode", "queue.wait", "batch.fill", "batch.forward"] {
        assert!(
            trace.events.iter().any(|e| e.name == span),
            "traced serve run must record `{span}` events"
        );
    }

    // The headline number: projected per-request cost of the disabled
    // instrumentation as a fraction of a real request.
    let overhead = disabled.mean_ns * SPAN_SITES_PER_REQUEST / request_ns;
    println!(
        "\ndisabled-path projection: {SPAN_SITES_PER_REQUEST} sites x {} = {:.4}% of a {} request",
        fmt_ns(disabled.mean_ns),
        overhead * 100.0,
        fmt_ns(request_ns),
    );

    let results = vec![
        disabled.clone(),
        enabled.clone(),
        instant.clone(),
        BenchResult {
            name: "serve/untraced".to_string(),
            iters_per_batch: cold.ok,
            mean_ns: cold.latency.mean_ns(),
            best_ns: cold.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: "serve/traced".to_string(),
            iters_per_batch: hot.ok,
            mean_ns: hot.latency.mean_ns(),
            best_ns: hot.latency.quantile_upper_ns(0.5) as f64,
        },
    ];
    let metrics = [
        ("disabled_span_ns", disabled.mean_ns),
        ("enabled_span_ns", enabled.mean_ns),
        ("enabled_instant_ns", instant.mean_ns),
        ("request_mean_ns", request_ns),
        ("disabled_overhead_fraction", overhead),
        ("ring_capacity", cap as f64),
        ("flood_kept", flood.events.len() as f64),
        ("flood_dropped", flood.dropped as f64),
        ("traced_events", trace.events.len() as f64),
        ("traced_dropped", trace.dropped as f64),
        ("untraced_rps", cold.throughput_rps()),
        ("traced_rps", hot.throughput_rps()),
    ];
    let out = bench_output_path("BENCH_trace.json");
    write_json(&out, "trace_overhead", &metrics, &results).expect("write BENCH_trace.json");
    println!("wrote {} ({} results)", out.display(), results.len());

    assert!(
        overhead < 0.02,
        "disabled tracing must cost under 2% of the serve hot path even at \
         {SPAN_SITES_PER_REQUEST} sites/request, got {:.3}%",
        overhead * 100.0
    );
    println!(
        "\nacceptance: disabled tracing <2% of serve hot path — ok ({:.4}%)",
        overhead * 100.0
    );
}
