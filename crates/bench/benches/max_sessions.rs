//! Bench: concurrent idle-session capacity on a fixed thread budget.
//!
//! The event-loop front end exists so connection count is no longer bound
//! by thread count. This bench pins an 8-thread budget for connection
//! handling and compares:
//!
//! - **thread-per-connection baseline** (computed): the old front end
//!   spent a reader + writer thread pair per connection, so an 8-thread
//!   budget holds exactly `8 / 2 = 4` concurrent sessions;
//! - **event-loop front end** (measured): 2 event threads multiplex every
//!   socket, so the same budget holds the whole fleet of idle sessions —
//!   the gate requires at least **4x** the baseline, the measured ratio
//!   lands orders of magnitude higher.
//!
//! Every session is real (TCP connect + `HELLO`), held open simultaneously,
//! and proven live at full slab occupancy: sampled sessions run an actual
//! inference, and `STATS` / infer round-trip latency is measured with a
//! thousand-entry poll set resident. Process thread growth is read from
//! `/proc/self/status` to verify no hidden per-connection threads appear.
//!
//! Results and the capacity ratio go to `BENCH_sessions.json` at the
//! repository root. Run with `--quick` (as CI does) for a smaller fleet.

use std::time::Duration;

use hpnn_bench::timing::{bench, bench_output_path, group, quick, write_json, BenchResult};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_serve::{InferMode, ServeConfig, ServeRegistry, Server, Session};
use hpnn_tensor::Rng;

/// Thread budget for connection handling (the comparison's constant).
const THREAD_BUDGET: usize = 8;

/// Threads the retired front end spent per connection (reader + writer).
const THREADS_PER_CONN_BASELINE: usize = 2;

/// Event-loop threads used out of the budget.
const EVENT_THREADS: usize = 2;

/// Required capacity multiple over the thread-per-connection baseline.
const MIN_SESSION_RATIO: f64 = 4.0;

fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn main() {
    let quick = quick();
    let sessions_target: usize = if quick { 256 } else { 1024 };

    let mut rng = Rng::new(71);
    let spec = mlp(6, &[10], 4);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("build mlp");
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));

    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_millis(1))
        .queue_cap(256)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .event_threads(EVENT_THREADS)
        .build()
        .expect("bench config");
    let server = Server::start(registry, cfg, "127.0.0.1:0").expect("serve");
    let addr = server.local_addr();
    assert_eq!(server.event_threads(), EVENT_THREADS);

    group("sessions");
    // The server's full complement of threads exists before any client.
    let threads_before = thread_count();

    let mut fleet = Vec::with_capacity(sessions_target);
    let open = bench_once(&format!("sessions/open_{sessions_target}_idle"), || {
        for _ in 0..sessions_target {
            let mut s = Session::connect(addr).expect("connect");
            s.hello("max-sessions").expect("hello");
            fleet.push(s);
        }
    });
    open.report();

    let threads_grown = match (threads_before, thread_count()) {
        (Some(before), Some(after)) => {
            let grown = after.saturating_sub(before);
            assert!(
                grown <= THREAD_BUDGET,
                "{} idle sessions grew the process by {grown} threads \
                 (budget {THREAD_BUDGET}); per-connection threads are back",
                fleet.len()
            );
            grown as f64
        }
        _ => -1.0, // not on Linux: growth unmeasured
    };

    let held = fleet.len();
    let baseline_sessions = THREAD_BUDGET / THREADS_PER_CONN_BASELINE;
    let ratio = held as f64 / baseline_sessions as f64;
    println!(
        "{held} idle sessions held on {EVENT_THREADS} event threads; \
         thread-per-connection baseline at the same {THREAD_BUDGET}-thread \
         budget: {baseline_sessions} ({ratio:.0}x)"
    );
    assert!(
        ratio >= MIN_SESSION_RATIO,
        "capacity ratio {ratio:.1}x below the {MIN_SESSION_RATIO}x gate"
    );

    // Liveness at full occupancy: every 64th session serves a real request.
    for s in fleet.iter_mut().step_by(64) {
        let t = s
            .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.5; 6])
            .expect("submit");
        let logits = s.wait(t).expect("wait");
        assert_eq!(logits.rows, 1, "expected one logits row at full occupancy");
    }

    // Round-trip latency with the whole fleet resident in the poll set.
    let mut probe = Session::connect(addr).expect("probe connect");
    probe.hello("max-sessions-probe").expect("probe hello");
    let stats_rtt = bench("sessions/stats_rtt_full_slab", || {
        probe.stats().expect("stats")
    });
    stats_rtt.report();
    let infer_rtt = bench("sessions/infer_rtt_full_slab", || {
        let t = probe
            .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.25; 6])
            .expect("submit");
        probe.wait(t).expect("wait")
    });
    infer_rtt.report();

    let stats = server.metrics();
    assert_eq!(stats.open_connections, held as u64 + 1, "probe + fleet");
    drop(fleet);
    drop(probe);
    server.shutdown();
    let stats = server.metrics();
    assert_eq!(stats.open_connections, 0, "slab must drain on shutdown");
    assert_eq!(stats.accept_errors, 0);

    let out = bench_output_path("BENCH_sessions.json");
    write_json(
        &out,
        "max_sessions",
        &[
            ("thread_budget", THREAD_BUDGET as f64),
            ("event_threads", EVENT_THREADS as f64),
            ("sessions_held", held as f64),
            (
                "baseline_sessions_thread_per_conn",
                baseline_sessions as f64,
            ),
            ("session_ratio", ratio),
            ("min_session_ratio", MIN_SESSION_RATIO),
            ("threads_grown", threads_grown),
        ],
        &[open, stats_rtt, infer_rtt],
    )
    .expect("write BENCH_sessions.json");
    println!("wrote {}", out.display());
}

/// Times one non-repeatable setup pass (opening the fleet) as a single
/// measured iteration.
fn bench_once(name: &str, f: impl FnOnce()) -> BenchResult {
    let start = std::time::Instant::now();
    f();
    let ns = start.elapsed().as_nanos() as f64;
    BenchResult {
        name: name.to_string(),
        iters_per_batch: 1,
        mean_ns: ns,
        best_ns: ns,
    }
}
