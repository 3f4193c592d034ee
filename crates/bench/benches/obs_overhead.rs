//! Bench: cost of the live-telemetry subsystem on a serving process.
//!
//! The obs collector wakes once per tick, snapshots the server's counters,
//! diffs against the previous snapshot, evaluates the SLO rules, and pushes
//! one point into the series ring; the exposition listener renders
//! Prometheus text and the JSON series on demand. None of that touches the
//! request hot path — workers and event loops never see the observer — so
//! the only cost that matters is what one tick (plus a scrape) spends of
//! the tick budget. This bench pins that down two ways:
//!
//! 1. **Projection** (the headline assertion): the measured mean cost of
//!    `ObsState::observe_now` plus one full render of both exposition
//!    documents, as a fraction of the default 1 s tick, must stay under 1%.
//!    The state is fed by a *live* server that has already absorbed real
//!    traffic, so snapshots carry populated histograms and shard rows.
//! 2. **A/B sanity**: loadgen throughput with a deliberately aggressive
//!    observer (10 ms tick, metrics listener bound, rules armed) must stay
//!    within a loose factor of the unobserved run. This is a smoke bound,
//!    not a precision claim — closed-loop loopback throughput is noisy.
//!
//! Results land in `BENCH_obs.json` at the repository root. Run with
//! `--quick` (as CI does) for a shorter loadgen phase.

use std::sync::Arc;
use std::time::Duration;

use hpnn_bench::timing::{bench, bench_output_path, fmt_ns, group, quick, write_json, BenchResult};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_obs::slo::SloRule;
use hpnn_obs::{http, ObsOptions, ObsState, Observer};
use hpnn_serve::{InferMode, LoadgenConfig, LoadgenReport, ServeConfig, ServeRegistry, Server};
use hpnn_tensor::Rng;

/// The collector's default production tick; the projection is judged
/// against this budget.
const TICK: Duration = Duration::from_secs(1);

fn build_server() -> Server {
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
    Server::start(registry, cfg, "127.0.0.1:0").expect("bind loopback server")
}

fn drive(server: &Server, requests_per_client: usize) -> LoadgenReport {
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
        // The bench measures the observer's cost, not the sampler's.
        sample_interval: Duration::ZERO,
    })
    .expect("load generation");
    assert_eq!(report.ok, report.requests, "every request must succeed");
    report
}

fn rules() -> Vec<SloRule> {
    // One of each shape: quantile, ratio, counter, rate — so a tick
    // evaluates the whole metric surface.
    [
        "p99_ms > 50 for 3",
        "error_rate > 0.01",
        "worker_panics > 0",
        "rps < 1",
    ]
    .iter()
    .map(|r| SloRule::parse(r).expect("bench rule"))
    .collect()
}

fn main() {
    let quick = quick();
    let requests_per_client = if quick { 25 } else { 100 };

    // A live server with real traffic behind it, so every observed snapshot
    // carries populated histograms and per-shard rows.
    let server = Arc::new(build_server());
    let warm = drive(&server, requests_per_client);
    println!(
        "warm-up: {} requests at {:.1} req/s",
        warm.ok,
        warm.throughput_rps()
    );

    group("collector tick cost");
    let source: hpnn_obs::StatsSource = {
        let s = Arc::clone(&server);
        Arc::new(move || s.metrics())
    };
    let state = ObsState::new(TICK, 120, rules(), None, source).expect("obs state");
    state.observe_now(); // baseline snapshot so every benched tick diffs
    let observe = bench("obs/observe_now", || state.observe_now());
    observe.report();

    group("exposition render cost");
    let prom = bench("obs/render_prometheus", || http::render_prometheus(&state));
    prom.report();
    let series = bench("obs/render_series", || http::render_series(&state));
    series.report();

    let tick_ns = TICK.as_nanos() as f64;
    let tick_cost_ns = observe.mean_ns + prom.mean_ns + series.mean_ns;
    let fraction = tick_cost_ns / tick_ns;
    println!(
        "\nprojection: observe {} + prometheus {} + series {} = {} per {} tick = {:.4}%",
        fmt_ns(observe.mean_ns),
        fmt_ns(prom.mean_ns),
        fmt_ns(series.mean_ns),
        fmt_ns(tick_cost_ns),
        fmt_ns(tick_ns),
        fraction * 100.0,
    );

    group("A/B serve throughput (observer off / aggressively on)");
    let baseline = drive(&server, requests_per_client);
    println!(
        "observer off: {} requests at {:.1} req/s",
        baseline.ok,
        baseline.throughput_rps()
    );
    // 100x the production tick rate, listener bound, rules armed: a worst
    // case far beyond any sane deployment.
    let opts = ObsOptions {
        tick: Duration::from_millis(10),
        history: 120,
        rules: rules(),
        flight: None,
        metrics_addr: Some("127.0.0.1:0".into()),
    };
    let src: hpnn_obs::StatsSource = {
        let s = Arc::clone(&server);
        Arc::new(move || s.metrics())
    };
    let ready: hpnn_obs::ReadyCheck = {
        let s = Arc::clone(&server);
        Arc::new(move || s.is_serving())
    };
    let observer = Observer::start(opts, src, ready).expect("start observer");
    let observed = drive(&server, requests_per_client);
    println!(
        "observer on:  {} requests at {:.1} req/s",
        observed.ok,
        observed.throughput_rps()
    );
    let ratio = observed.throughput_rps() / baseline.throughput_rps();
    drop(observer);
    server.shutdown();

    let results = vec![
        observe.clone(),
        prom.clone(),
        series.clone(),
        BenchResult {
            name: "serve/unobserved".to_string(),
            iters_per_batch: baseline.ok,
            mean_ns: baseline.latency.mean_ns(),
            best_ns: baseline.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: "serve/observed".to_string(),
            iters_per_batch: observed.ok,
            mean_ns: observed.latency.mean_ns(),
            best_ns: observed.latency.quantile_upper_ns(0.5) as f64,
        },
    ];
    let metrics = [
        ("observe_ns", observe.mean_ns),
        ("render_prometheus_ns", prom.mean_ns),
        ("render_series_ns", series.mean_ns),
        ("tick_ns", tick_ns),
        ("tick_cost_fraction", fraction),
        ("unobserved_rps", baseline.throughput_rps()),
        ("observed_rps", observed.throughput_rps()),
        ("observed_over_unobserved", ratio),
    ];
    let out = bench_output_path("BENCH_obs.json");
    write_json(&out, "obs_overhead", &metrics, &results).expect("write BENCH_obs.json");
    println!("wrote {} ({} results)", out.display(), results.len());

    assert!(
        fraction < 0.01,
        "collector tick + full exposition render must cost under 1% of the \
         {} tick, got {:.3}%",
        fmt_ns(tick_ns),
        fraction * 100.0
    );
    // Loose A/B sanity: a 10 ms-tick observer with a bound listener must
    // not halve loopback throughput. Closed-loop rps on a shared machine is
    // noisy, so this is deliberately forgiving — the precise claim is the
    // projection above.
    assert!(
        ratio > 0.5,
        "observed throughput collapsed: {:.1} vs {:.1} req/s",
        observed.throughput_rps(),
        baseline.throughput_rps()
    );
    println!(
        "\nacceptance: collector+exposition {:.4}% of tick (<1%), observed/unobserved {ratio:.2}",
        fraction * 100.0
    );
}
