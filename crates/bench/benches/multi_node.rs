//! Bench: distributed layer-partitioned serving on localhost.
//!
//! Splits the locked conv+fc2048 model from the serve bench at layers
//! `8,9`: a trusted front (conv/pool/activations through the first fc
//! block), the 2048x2048 dense middle — the one stage heavy enough that
//! the default cost model ships it out — and a trusted tail. Three
//! servers run on loopback:
//!
//! * a **worker** with no key vault, serving forwarded stages only,
//! * a **head** holding the vault, offloading the middle stage to the
//!   worker over persistent pipelined `FWD_ACT` links,
//! * a **single-node** control with the same vault and no cluster.
//!
//! The bench proves the pipeline is *bit-identical* to single-node
//! serving, measures throughput for both, and reconciles the forwarding
//! counters exactly: every forward the head sent was received by the
//! worker, answered with a logits reply, and timed in the head's
//! `remote_wait` histogram. Results land in `BENCH_cluster.json`.
//!
//! Run with `--quick` (as CI does) for a shorter load.

use std::sync::Arc;
use std::time::Duration;

use hpnn_bench::timing::{bench_output_path, fmt_ns, group, quick, write_json, BenchResult};
use hpnn_cluster::{ClusterBackend, CostModel};
use hpnn_core::{
    HpnnKey, KeyVault, LayerPartition, LockedModel, ModelMetadata, Schedule, ScheduleKind,
};
use hpnn_nn::{ActKind, LayerSpec, NetworkSpec};
use hpnn_serve::{
    ClusterPlan, InferMode, LoadgenConfig, LoadgenReport, ServeConfig, ServeRegistry, Server,
    Session,
};
use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng};

/// Concurrent closed-loop clients driving each deployment.
const CLIENTS: usize = 8;

/// Same conv+fc2048 architecture as the serve_throughput bench.
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

fn build_model() -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(402);
    let spec = serve_spec();
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("build cluster model");
    (
        {
            net.install_lock_factors(&schedule.derive_lock_factors(&key));
            LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default())
        },
        key,
    )
}

fn batch_cfg() -> ServeConfig {
    ServeConfig::builder()
        .max_batch(CLIENTS)
        .max_wait(Duration::from_millis(1))
        .queue_cap(8 * CLIENTS)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .expect("bench config")
}

fn drive(label: &str, addr: String, requests_per_client: usize) -> LoadgenReport {
    let report = hpnn_serve::loadgen::run(&LoadgenConfig {
        addr,
        clients: CLIENTS,
        requests_per_client,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 78,
        depth: 4,
        pattern: hpnn_serve::LoadPattern::Steady,
        hot_fraction: None,
        // Benches measure the raw hot path; no stats sampler connection.
        sample_interval: Duration::ZERO,
    })
    .expect("load generation");
    println!(
        "{label:<14} {:>8.1} req/s   mean latency {:>10}   ({} ok, {} busy)",
        report.throughput_rps(),
        fmt_ns(report.latency.mean_ns()),
        report.ok,
        report.busy,
    );
    report
}

fn main() {
    let quick = quick();
    let requests_per_client = if quick { 8 } else { 48 };

    group("multi_node");
    let (model, key) = build_model();
    // Cuts 8,9 → trusted front | dense 2048x2048 | trusted tail. The
    // middle stage's ~8.4 Mflop vs ~16 KiB on the wire clears the default
    // cost model's bar; the conv front and the tail hold lock factors and
    // may never leave the vault-holding node.
    let partition =
        Arc::new(LayerPartition::parse_cuts(model.spec(), "8,9").expect("partition spec"));
    assert_eq!(partition.len(), 3);
    assert!(partition.stage(0).trusted_required);
    assert!(!partition.stage(1).trusted_required);
    assert!(partition.stage(2).trusted_required);

    // Worker: no vault. It *cannot* run the locked stages; the plan lets
    // it serve FWD_ACT for the offloadable one.
    let mut registry = ServeRegistry::new();
    registry.add("convfc", model.clone(), None);
    registry.set_plan(0, ClusterPlan::worker(Arc::clone(&partition)));
    let worker = Server::start(registry, batch_cfg(), "127.0.0.1:0").expect("bind worker");

    // Head: vault + routing to the worker.
    let backend = Arc::new(ClusterBackend::new(
        &partition,
        vec![worker.local_addr()],
        &CostModel::default(),
    ));
    assert_eq!(
        backend.route().offloaded(),
        1,
        "exactly the dense middle stage must route to the worker"
    );
    let mut registry = ServeRegistry::new();
    registry.add(
        "convfc",
        model.clone(),
        Some(KeyVault::provision(key, "bench-head")),
    );
    registry.set_plan(0, ClusterPlan::head(Arc::clone(&partition), backend));
    let head = Server::start(registry, batch_cfg(), "127.0.0.1:0").expect("bind head");

    // Control: the whole network on one node, same key.
    let mut registry = ServeRegistry::new();
    registry.add(
        "convfc",
        model,
        Some(KeyVault::provision(key, "bench-solo")),
    );
    let solo = Server::start(registry, batch_cfg(), "127.0.0.1:0").expect("bind single-node");

    // Bit-identity first: identical inputs through both deployments.
    let mut rng = Rng::new(403);
    let mut head_session = Session::connect(head.local_addr()).expect("connect head");
    let mut solo_session = Session::connect(solo.local_addr()).expect("connect single-node");
    let identity_rounds = if quick { 3 } else { 10 };
    for round in 0..identity_rounds {
        let rows = 1 + round % 4;
        let input: Vec<f32> = (0..rows * 256)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect();
        for mode in [InferMode::Keyed, InferMode::Keyless] {
            let a = head_session
                .submit(0, mode, 0, rows, 256, input.clone())
                .expect("submit head");
            let b = solo_session
                .submit(0, mode, 0, rows, 256, input.clone())
                .expect("submit single-node");
            let got = head_session.wait(a).expect("head outcome").data;
            let want = solo_session.wait(b).expect("single-node outcome").data;
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "two-node pipeline must match single-node bit-for-bit"
            );
        }
    }
    drop(head_session);
    drop(solo_session);
    println!(
        "bit-identity: {} round-trips through head+worker match single-node exactly\n",
        identity_rounds * 2
    );
    println!("{CLIENTS} clients x {requests_per_client} requests, keyed path, depth 4\n");

    let solo_report = drive(
        "single-node",
        solo.local_addr().to_string(),
        requests_per_client,
    );
    let cluster_report = drive(
        "two-node",
        head.local_addr().to_string(),
        requests_per_client,
    );

    let head_stats = head.metrics();
    let worker_stats = worker.metrics();
    let solo_stats = solo.metrics();
    head.shutdown();
    worker.shutdown();
    solo.shutdown();

    // Exact counter reconciliation across the node boundary: sent ==
    // received == remote replies, with zero stage traffic anywhere else.
    assert!(head_stats.fwd_sent > 0, "the head never offloaded anything");
    assert_eq!(
        head_stats.fwd_sent, worker_stats.fwd_recv,
        "every forward the head sent must be admitted by the worker"
    );
    assert_eq!(
        worker_stats.replies_ok, worker_stats.fwd_recv,
        "every admitted forward must produce a logits reply"
    );
    assert_eq!(
        head_stats.remote_wait.count, head_stats.fwd_sent,
        "every forward must be timed once in remote_wait"
    );
    assert_eq!(head_stats.fwd_recv, 0, "the head serves no stage traffic");
    assert_eq!(worker_stats.fwd_sent, 0, "the worker never re-forwards");
    assert_eq!(solo_stats.fwd_sent + solo_stats.fwd_recv, 0);
    assert_eq!(cluster_report.errors, 0, "no transport errors via the head");
    assert!(
        cluster_report.error_codes.is_empty(),
        "no typed errors via the head, got {:?}",
        cluster_report.error_codes
    );
    let rw = &head_stats.remote_wait;
    println!(
        "\nforward reconciliation: sent {} == received {} == remote replies {}",
        head_stats.fwd_sent, worker_stats.fwd_recv, worker_stats.replies_ok
    );
    println!(
        "remote_wait: p50 <= {}, p95 <= {}, p99 <= {} over {} hops",
        fmt_ns(rw.quantile_upper_ns(0.50) as f64),
        fmt_ns(rw.quantile_upper_ns(0.95) as f64),
        fmt_ns(rw.quantile_upper_ns(0.99) as f64),
        rw.count
    );
    let ratio = cluster_report.throughput_rps() / solo_report.throughput_rps();
    println!("two-node/single-node throughput ratio: {ratio:.2}x");

    let results = vec![
        BenchResult {
            name: format!("cluster/single_node/c{CLIENTS}"),
            iters_per_batch: solo_report.ok,
            mean_ns: solo_report.latency.mean_ns(),
            best_ns: solo_report.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: format!("cluster/two_node/c{CLIENTS}"),
            iters_per_batch: cluster_report.ok,
            mean_ns: cluster_report.latency.mean_ns(),
            best_ns: cluster_report.latency.quantile_upper_ns(0.5) as f64,
        },
    ];
    let metrics = [
        ("single_node_rps", solo_report.throughput_rps()),
        ("two_node_rps", cluster_report.throughput_rps()),
        ("two_node_over_single", ratio),
        ("fwd_sent", head_stats.fwd_sent as f64),
        ("fwd_recv", worker_stats.fwd_recv as f64),
        ("remote_replies", worker_stats.replies_ok as f64),
        ("remote_wait_mean_ns", rw.mean_ns()),
        ("remote_wait_p50_ns", rw.quantile_upper_ns(0.50) as f64),
        ("remote_wait_p95_ns", rw.quantile_upper_ns(0.95) as f64),
        ("remote_wait_p99_ns", rw.quantile_upper_ns(0.99) as f64),
        ("clients", CLIENTS as f64),
    ];
    let out = bench_output_path("BENCH_cluster.json");
    write_json(&out, "multi_node", &metrics, &results).expect("write BENCH_cluster.json");
    println!("wrote {} ({} results)", out.display(), results.len());
}
