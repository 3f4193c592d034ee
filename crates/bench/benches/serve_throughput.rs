//! Bench: adaptive micro-batching and protocol-v2 pipelining throughput.
//!
//! Starts a real `hpnn-serve` server on loopback with a locked conv model
//! and drives it with the crate's closed-loop load generator, in two
//! comparisons:
//!
//! 1. **Micro-batching** at high client concurrency: once with coalescing
//!    disabled (`max_batch = 1`, every request is its own forward) and once
//!    with the adaptive coalescer on. The batched configuration must
//!    deliver at least 2x the request throughput of batch=1 — that
//!    multiplier is the whole point of the scheduler.
//! 2. **Pipelining** on a single connection: depth 1 (lock-step, one
//!    request on the wire at a time) against depth 8 (a correlation-
//!    multiplexed window). The deep window must deliver at least 1.5x the
//!    lock-step request throughput — that multiplier is the whole point of
//!    protocol v2.
//!
//! Server-side `STATS` counters are reconciled exactly against the load
//! generator's own counts (replies, rows, busy shedding, histogram totals,
//! admission-depth samples, and a drained in-flight gauge), and everything
//! is recorded to `BENCH_serve.json` at the repository root.
//!
//! Run with `--quick` (as CI does) for a shorter load at the same
//! concurrency; `--depth N` overrides the pipelined window.

use std::time::Duration;

use hpnn_bench::timing::{bench_output_path, fmt_ns, group, quick, write_json, BenchResult};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::{ActKind, LayerSpec, NetworkSpec};
use hpnn_serve::{InferMode, LoadgenConfig, LoadgenReport, ServeConfig, ServeRegistry, Server};
use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng};

/// Concurrent closed-loop clients (the acceptance bar is >= 16).
const CLIENTS: usize = 32;

/// The served architecture: a CNN1-style conv/pool front (two 3x3 conv +
/// 2x2 maxpool stages on a 16x16 input) feeding a 2048-wide two-layer fc
/// head. The fc head puts the forward in the GEMM-bound regime where
/// micro-batching pays: a batch=1 dense forward streams every weight matrix
/// from cache with zero reuse, while a coalesced batch amortises each
/// weight load across all rows in the multi-row GEMM kernel.
fn serve_spec() -> NetworkSpec {
    let c1 = Conv2dGeom::new(1, 16, 16, 8, 3, 1, 1).expect("conv1 geom");
    let c2 = Conv2dGeom::new(8, 8, 8, 16, 3, 1, 1).expect("conv2 geom");
    NetworkSpec::new(
        256,
        vec![
            LayerSpec::Conv2d { geom: c1 },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 8 * 16 * 16,
            },
            LayerSpec::MaxPool2d {
                channels: 8,
                geom: PoolGeom::new(16, 16, 2, 2).expect("pool1 geom"),
            },
            LayerSpec::Conv2d { geom: c2 },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 16 * 8 * 8,
            },
            LayerSpec::MaxPool2d {
                channels: 16,
                geom: PoolGeom::new(8, 8, 2, 2).expect("pool2 geom"),
            },
            LayerSpec::Dense {
                in_features: 256,
                out_features: 2048,
            },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 2048,
            },
            LayerSpec::Dense {
                in_features: 2048,
                out_features: 2048,
            },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 2048,
            },
            LayerSpec::Dense {
                in_features: 2048,
                out_features: 10,
            },
        ],
    )
}

/// Builds the locked conv model served by both scenarios.
fn build_model() -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(401);
    let spec = serve_spec();
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("build serve model");
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    (
        LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default()),
        key,
    )
}

/// Serves the model under `cfg`, drives it with the load generator, and
/// returns the report plus the server's own counters for reconciliation.
fn run_scenario(
    label: &str,
    cfg: ServeConfig,
    clients: usize,
    requests_per_client: usize,
    depth: usize,
) -> (LoadgenReport, hpnn_serve::StatsSnapshot) {
    let (model, key) = build_model();
    let mut registry = ServeRegistry::new();
    registry.add("convfc", model, Some(KeyVault::provision(key, "bench")));
    let server = Server::start(registry, cfg, "127.0.0.1:0").expect("bind loopback server");
    let report = hpnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients,
        requests_per_client,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 77,
        depth,
        pattern: hpnn_serve::LoadPattern::Steady,
        hot_fraction: None,
        // Benches measure the raw hot path; no stats sampler connection.
        sample_interval: Duration::ZERO,
    })
    .expect("load generation");
    let stats = server.metrics();
    server.shutdown();
    println!(
        "{label:<18} {:>8.1} req/s   mean latency {:>10}   {:.1} rows/batch   ({} ok, {} busy)",
        report.throughput_rps(),
        fmt_ns(report.latency.mean_ns()),
        stats.mean_batch_rows(),
        report.ok,
        report.busy,
    );
    (report, stats)
}

fn reconcile(label: &str, report: &LoadgenReport, stats: &hpnn_serve::StatsSnapshot) {
    assert_eq!(
        report.ok, report.requests,
        "{label}: every request must eventually succeed (busy retries enabled)"
    );
    assert_eq!(report.errors, 0, "{label}: no transport/protocol errors");
    assert!(
        report.error_codes.is_empty(),
        "{label}: no typed ERROR replies, got {:?}",
        report.error_codes
    );
    assert_eq!(
        stats.protocol_errors, 0,
        "{label}: well-formed traffic must not trip the protocol-error counter"
    );
    assert_eq!(
        stats.replies_ok, report.ok,
        "{label}: server OK-reply count must match the load generator"
    );
    assert_eq!(
        stats.busy, report.busy,
        "{label}: every BUSY the server shed must be seen by a client"
    );
    assert_eq!(
        stats.rows, report.rows_ok,
        "{label}: server row count must match rows received"
    );
    assert_eq!(
        stats.e2e.count, report.ok,
        "{label}: e2e histogram totals must equal the request count"
    );
    assert_eq!(
        stats.forward.count, report.ok,
        "{label}: forward histogram totals must equal the request count"
    );
    assert_eq!(
        stats.queue_wait.count, report.ok,
        "{label}: one queue-wait sample per OK reply"
    );
    assert_eq!(
        stats.batch_fill.count, report.ok,
        "{label}: one batch-fill sample per OK reply"
    );
    assert_eq!(
        stats.writeback.count, report.ok,
        "{label}: one writeback sample per OK reply"
    );
    assert!(
        stats.uptime_ns > 0,
        "{label}: snapshot must stamp a positive uptime"
    );
    assert!(
        stats.snapshot_seq >= 1,
        "{label}: snapshot sequence starts at 1"
    );
    assert_eq!(
        stats.e2e.buckets.iter().sum::<u64>(),
        stats.e2e.count,
        "{label}: histogram buckets must sum to the sample count"
    );
    assert_eq!(
        stats.depth.count, stats.requests,
        "{label}: exactly one admission-depth sample per admitted request"
    );
    assert_eq!(
        stats.depth.buckets.iter().sum::<u64>(),
        stats.depth.count,
        "{label}: depth buckets must sum to the sample count"
    );
    assert_eq!(
        stats.inflight, 0,
        "{label}: the in-flight gauge must drain to zero with the run over"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = quick();
    let pipeline_depth: usize = args
        .iter()
        .position(|a| a == "--depth")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--depth takes a positive integer"))
        .unwrap_or(8);
    assert!(pipeline_depth >= 1, "--depth takes a positive integer");
    let requests_per_client = if quick { 6 } else { 24 };
    // Single-connection totals for the pipelining comparison.
    let pipeline_requests = if quick { 48 } else { 192 };

    group("serve_throughput");
    println!(
        "{CLIENTS} concurrent clients x {requests_per_client} requests, locked conv+fc2048 model, keyed path\n"
    );

    // Baseline: micro-batching off. max_batch = 1 pops every request as its
    // own forward; max_wait is irrelevant because a single request already
    // fills the batch.
    let batch1_cfg = ServeConfig::builder()
        .max_batch(1)
        .max_wait(Duration::ZERO)
        .queue_cap(4 * CLIENTS)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .expect("batch=1 config");
    let (batch1_report, batch1_stats) =
        run_scenario("batch=1", batch1_cfg, CLIENTS, requests_per_client, 1);
    reconcile("batch=1", &batch1_report, &batch1_stats);

    // Micro-batched: coalesce up to CLIENTS rows per forward; the fill wait
    // only matters at low queue depth.
    let batched_cfg = ServeConfig::builder()
        .max_batch(CLIENTS)
        .max_wait(Duration::from_millis(2))
        .queue_cap(4 * CLIENTS)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .expect("micro-batched config");
    let (batched_report, batched_stats) = run_scenario(
        "micro-batched",
        batched_cfg,
        CLIENTS,
        requests_per_client,
        1,
    );
    reconcile("micro-batched", &batched_report, &batched_stats);

    let speedup = batched_report.throughput_rps() / batch1_report.throughput_rps();
    println!("\nmicro-batching speedup at {CLIENTS} clients: {speedup:.2}x\n");

    // Pipelining comparison: one connection, identical scheduler config; the
    // only variable is how many requests the client keeps in flight. The
    // short fill wait is deliberately small so lock-step is not penalised by
    // the coalescing window — the deep window wins by keeping the server's
    // queue (and thus its batches) full without per-request round trips.
    println!("1 connection x {pipeline_requests} requests, lock-step vs depth {pipeline_depth}\n");
    let pipeline_cfg = ServeConfig::builder()
        .max_batch(pipeline_depth.max(2))
        .max_wait(Duration::from_micros(200))
        .queue_cap(4 * CLIENTS)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .expect("pipeline config");
    let (depth1_report, depth1_stats) =
        run_scenario("depth=1", pipeline_cfg.clone(), 1, pipeline_requests, 1);
    reconcile("depth=1", &depth1_report, &depth1_stats);
    let (deep_report, deep_stats) = run_scenario(
        &format!("depth={pipeline_depth}"),
        pipeline_cfg,
        1,
        pipeline_requests,
        pipeline_depth,
    );
    reconcile("pipelined", &deep_report, &deep_stats);

    let pipeline_speedup = deep_report.throughput_rps() / depth1_report.throughput_rps();
    let deep_mean_depth = deep_stats.depth.sum_ns as f64 / deep_stats.depth.count.max(1) as f64;
    println!(
        "\npipelining speedup at depth {pipeline_depth} on one connection: {pipeline_speedup:.2}x \
         (mean admission depth {deep_mean_depth:.2})"
    );

    let results = vec![
        BenchResult {
            name: format!("serve/batch1/c{CLIENTS}"),
            iters_per_batch: batch1_report.ok,
            mean_ns: batch1_report.latency.mean_ns(),
            best_ns: batch1_report.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: format!("serve/microbatch/c{CLIENTS}"),
            iters_per_batch: batched_report.ok,
            mean_ns: batched_report.latency.mean_ns(),
            best_ns: batched_report.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: "serve/pipeline/depth1".to_string(),
            iters_per_batch: depth1_report.ok,
            mean_ns: depth1_report.latency.mean_ns(),
            best_ns: depth1_report.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: format!("serve/pipeline/depth{pipeline_depth}"),
            iters_per_batch: deep_report.ok,
            mean_ns: deep_report.latency.mean_ns(),
            best_ns: deep_report.latency.quantile_upper_ns(0.5) as f64,
        },
    ];
    let metrics = [
        ("speedup_rps", speedup),
        ("batch1_rps", batch1_report.throughput_rps()),
        ("microbatch_rps", batched_report.throughput_rps()),
        ("clients", CLIENTS as f64),
        ("mean_rows_per_batch", batched_stats.mean_batch_rows()),
        (
            "microbatch_forward_mean_ns",
            batched_stats.forward.mean_ns(),
        ),
        ("batch1_forward_mean_ns", batch1_stats.forward.mean_ns()),
        ("pipeline_depth", pipeline_depth as f64),
        ("pipeline_speedup_rps", pipeline_speedup),
        ("pipeline_depth1_rps", depth1_report.throughput_rps()),
        ("pipeline_deep_rps", deep_report.throughput_rps()),
        ("pipeline_mean_admission_depth", deep_mean_depth),
    ];
    let out = bench_output_path("BENCH_serve.json");
    write_json(&out, "serve_throughput", &metrics, &results).expect("write BENCH_serve.json");
    println!("wrote {} ({} results)", out.display(), results.len());

    assert!(
        batched_stats.mean_batch_rows() > 1.5,
        "scheduler failed to coalesce: {:.2} rows/batch",
        batched_stats.mean_batch_rows()
    );
    assert!(
        speedup >= 2.0,
        "micro-batching must at least double throughput at {CLIENTS} clients, got {speedup:.2}x"
    );
    assert!(
        deep_mean_depth > 1.0,
        "deep window never pipelined: mean admission depth {deep_mean_depth:.2}"
    );
    assert!(
        pipeline_speedup >= 1.5,
        "depth-{pipeline_depth} pipelining must beat lock-step by 1.5x on one \
         connection, got {pipeline_speedup:.2}x"
    );
}
