//! The two serving workloads: `pipelined-tiny` (closed loop, front-end
//! bound) and `open-convfc` (open loop, GEMM bound).
//!
//! The server runs in this process on loopback with the committed
//! `ServeConfig` defaults; the load is driven only through the public wire
//! API. CPU time and peak memory are therefore those of one process that
//! holds both the server and its load generator.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use hpnn_bytes::BytesMut;
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::{mlp, ActKind, LayerSpec, NetworkSpec};
use hpnn_serve::{
    FrameReader, InferMode, Reply, Request, ServeConfig, ServeRegistry, Server, Session,
    StatsDelta, StatsSnapshot, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng, Shape, Tensor};

use crate::report::{Metric, Outcome};
use crate::schedule::{burst_arrivals, open_loop_timing, poisson_arrivals};
use crate::spans::{self, Collector, Span};
use crate::stats;
use crate::{host, layers, Args, SetupTimes};
use hpnn_trace::Trace;

/// The two serving load shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Locked `mlp(100,[64],10)`; two protocol-v2 connections, one per
    /// event-loop thread, each keeping [`DEPTH`] requests in flight.
    PipelinedTiny,
    /// Locked conv+fc2048 model; seeded Poisson arrivals at [`RATE`] on one
    /// connection, one sending and one receiving thread.
    OpenConvfc,
}

/// Requests each closed-loop connection keeps in flight (below the default
/// per-connection limit of 64, so no `BUSY` is expected).
pub const DEPTH: usize = 16;
/// Closed-loop connections (one per event-loop thread on a 2-core host).
pub const CONNECTIONS: usize = 2;
/// Open-loop arrival rate, requests per second. Low enough that the batch
/// worker stays far from saturation on 2 shared cores: at 150 req/s and
/// above, queueing amplified every slowdown of the host into run-to-run
/// latency spreads of 0.25 to 0.8 of the median.
pub const RATE: f64 = 50.0;
/// Open-loop latency limit for goodput.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Distinct pre-generated inputs, cycled through.
const INPUTS: usize = 256;
/// Load before the measured window, so that lazy set-up finishes and the
/// server reaches the state it keeps under this load. (At the seed that
/// state includes event loops whose `WakePipe` has stuck, which happens at a
/// random moment, usually within the first seconds.)
const WARMUP: Duration = Duration::from_secs(5);
/// The open loop's warm-up starts with bursts of [`DEPTH`] requests due
/// together, one every [`BURST_PERIOD`] for [`BURST_WARMUP`]: deep batches
/// hand many replies back at once, so the event loop reaches the state it
/// keeps after a load spike before the Poisson warm-up and window. (At the
/// seed that is a stuck `WakePipe`; at a Poisson rate alone the moment it
/// sticks is random and often falls inside the window.)
const BURST_WARMUP: Duration = Duration::from_secs(2);
/// Gap between warm-up bursts; long enough for a burst to be answered, so
/// in-flight requests stay far below the per-connection limit.
const BURST_PERIOD: Duration = Duration::from_millis(50);
/// Keyless requests checked against `deploy_stolen` after the window.
const KEYLESS_CHECKS: usize = 8;
/// Bound on any blocking read, so a lost reply fails the run instead of
/// hanging it. Far above any latency the workloads produce.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// How often the traced window drains the tracer's rings.
const DRAIN_EVERY: Duration = Duration::from_millis(50);

impl Load {
    fn spec(self) -> NetworkSpec {
        match self {
            Load::PipelinedTiny => mlp(100, &[64], 10),
            Load::OpenConvfc => convfc_spec(),
        }
    }
}

/// The `serve_throughput` model: a CNN1-style conv/pool front (two 3x3
/// conv + 2x2 maxpool stages on a 16x16 input) feeding a 2048-wide
/// two-layer fc head, so a forward is GEMM bound.
pub fn convfc_spec() -> NetworkSpec {
    let c1 = Conv2dGeom::new(1, 16, 16, 8, 3, 1, 1).expect("conv1 geom");
    let c2 = Conv2dGeom::new(8, 8, 8, 16, 3, 1, 1).expect("conv2 geom");
    let relu = |features| LayerSpec::Activation {
        kind: ActKind::Relu,
        features,
    };
    NetworkSpec::new(
        256,
        vec![
            LayerSpec::Conv2d { geom: c1 },
            relu(8 * 16 * 16),
            LayerSpec::MaxPool2d {
                channels: 8,
                geom: PoolGeom::new(16, 16, 2, 2).expect("pool1 geom"),
            },
            LayerSpec::Conv2d { geom: c2 },
            relu(16 * 8 * 8),
            LayerSpec::MaxPool2d {
                channels: 16,
                geom: PoolGeom::new(8, 8, 2, 2).expect("pool2 geom"),
            },
            LayerSpec::Dense {
                in_features: 256,
                out_features: 2048,
            },
            relu(2048),
            LayerSpec::Dense {
                in_features: 2048,
                out_features: 2048,
            },
            relu(2048),
            LayerSpec::Dense {
                in_features: 2048,
                out_features: 10,
            },
        ],
    )
}

/// Builds a keyed model from `spec` with weights and key drawn from `seed`.
pub fn locked_model(spec: NetworkSpec, seed: u64) -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("workload architecture builds");
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    (model, key)
}

/// A raw protocol-v2 connection whose send and receive halves run on two
/// threads. `Session` is blocking and cannot be split, so the open loop
/// drives `Request::encode` / `Reply::decode` / `FrameReader` directly.
struct SplitConn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    next_corr: u32,
}

impl SplitConn {
    fn connect(addr: std::net::SocketAddr) -> io::Result<SplitConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = FrameReader::new(stream.try_clone()?, MAX_FRAME_PAYLOAD);
        let mut conn = SplitConn {
            stream,
            reader,
            next_corr: 1,
        };
        let hello = Request::Hello {
            client: "hpnn-e2e-bench".into(),
        };
        match conn.roundtrip(&hello)? {
            Reply::HelloOk { version, .. } if version == PROTOCOL_VERSION => Ok(conn),
            other => Err(io::Error::other(format!(
                "unexpected HELLO reply {other:?}"
            ))),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> io::Result<Reply> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let mut out = BytesMut::new();
        req.encode(&mut out, PROTOCOL_VERSION, corr);
        self.stream.write_all(&out)?;
        let payload = self
            .reader
            .next_frame()?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        let (_, got, reply) = Reply::decode(&payload).map_err(io::Error::other)?;
        if got != corr {
            return Err(io::Error::other(format!("reply {got} for request {corr}")));
        }
        Ok(reply)
    }
}

/// The load connections of one workload.
enum Conns {
    Closed(Vec<Session>),
    Open(SplitConn),
}

/// A started server with its connections and inputs.
struct Fixture {
    server: Server,
    conns: Conns,
    /// Idle during the windows; carries STATS and the keyless checks.
    control: Session,
    model: LockedModel,
    key: HpnnKey,
    inputs: Vec<Vec<f32>>,
}

impl Fixture {
    /// Builds the model, starts the server, connects and generates the
    /// inputs: everything `setup_s` times.
    fn setup(load: Load, seed: u64) -> io::Result<Fixture> {
        let (model, key) = locked_model(load.spec(), seed);
        let mut registry = ServeRegistry::new();
        registry.add(
            "workload",
            model.clone(),
            Some(KeyVault::provision(key, "bench")),
        );
        let server = Server::start(registry, ServeConfig::default(), "127.0.0.1:0")?;
        let addr = server.local_addr();
        // Load connections first: the accept thread deals connections to
        // event loops round-robin, so they land on distinct loops.
        let conns = match load {
            Load::PipelinedTiny => {
                let mut sessions = Vec::with_capacity(CONNECTIONS);
                for i in 0..CONNECTIONS {
                    let mut s = Session::connect(addr)?;
                    s.set_read_timeout(Some(READ_TIMEOUT))?;
                    s.hello(&format!("hpnn-e2e-bench-{i}"))
                        .map_err(io::Error::other)?;
                    sessions.push(s);
                }
                Conns::Closed(sessions)
            }
            Load::OpenConvfc => Conns::Open(SplitConn::connect(addr)?),
        };
        let mut control = Session::connect(addr)?;
        control.set_read_timeout(Some(READ_TIMEOUT))?;
        control
            .hello("hpnn-e2e-bench-control")
            .map_err(io::Error::other)?;
        let in_features = model.spec().in_features;
        let mut rng = Rng::new(seed).fork(1);
        let inputs = (0..INPUTS)
            .map(|_| (0..in_features).map(|_| rng.normal()).collect())
            .collect();
        Ok(Fixture {
            server,
            conns,
            control,
            model,
            key,
            inputs,
        })
    }

    /// Local reference logits for every input: keyed via
    /// `deploy_trusted`, or keyless via `deploy_stolen`.
    fn references(&self, keyed: bool, count: usize) -> Vec<Vec<f32>> {
        let mut net = if keyed {
            self.model
                .deploy_trusted(&KeyVault::provision(self.key, "reference"))
        } else {
            self.model.deploy_stolen()
        }
        .expect("workload model deploys");
        let cols = self.model.spec().in_features;
        let data: Vec<f32> = self.inputs[..count].concat();
        let x = Tensor::from_vec(Shape::d2(count, cols), data).expect("input volume");
        let y = net.forward(&x, false);
        (0..count).map(|r| y.row(r).to_vec()).collect()
    }

    fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.control.stats().map_err(io::Error::other)
    }

    fn shutdown(self) {
        drop(self.conns);
        drop(self.control);
        self.server.shutdown();
    }
}

/// What the client saw in one window.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    /// Logits bit-identical to the local reference.
    ok: u64,
    /// Logits that differ from the reference in any bit.
    mismatched: u64,
    busy: u64,
    /// Typed error replies (refused, expired, …).
    refused: u64,
    /// Requests lost to a transport or decode failure.
    transport: u64,
    /// Client latency of every `ok` reply, nanoseconds.
    latency_ns: Vec<u64>,
    /// Open loop: generator lateness of every sent request, nanoseconds.
    lag_ns: Vec<u64>,
    /// `ok` replies within [`LATENCY_LIMIT`].
    within_limit: u64,
    /// First failure seen, for the report.
    first_error: Option<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.busy += other.busy;
        self.refused += other.refused;
        self.transport += other.transport;
        self.latency_ns.extend(other.latency_ns);
        self.lag_ns.extend(other.lag_ns);
        self.within_limit += other.within_limit;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    fn note_error(&mut self, e: impl std::fmt::Display) {
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }

    /// Classifies one reply; returns true when it is a correct success.
    fn classify(&mut self, reply: Reply, expected: &[f32]) -> bool {
        match reply {
            Reply::Logits { data, .. } if bits_equal(&data, expected) => {
                self.ok += 1;
                true
            }
            Reply::Logits { .. } => {
                self.mismatched += 1;
                false
            }
            Reply::Busy => {
                self.busy += 1;
                false
            }
            Reply::Error { code, message, .. } => {
                self.refused += 1;
                self.note_error(format!("{code}: {message}"));
                false
            }
            other => {
                self.transport += 1;
                self.note_error(format!("unexpected reply {other:?}"));
                false
            }
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn infer(cols: usize, data: Vec<f32>, mode: InferMode) -> Request {
    Request::Infer {
        model: 0,
        mode,
        deadline_us: 0,
        rows: 1,
        cols,
        data,
    }
}

/// One connection's closed loop: keep [`DEPTH`] requests in flight until
/// `until`, then collect the stragglers.
fn closed_loop(
    session: &mut Session,
    lane: usize,
    inputs: &[Vec<f32>],
    refs: &[Vec<f32>],
    until: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let cols = inputs[0].len();
    let mut inflight: HashMap<u32, (Instant, usize)> = HashMap::with_capacity(DEPTH);
    let mut k = 0usize;
    let mut send = |session: &mut Session, tally: &mut Tally, inflight: &mut HashMap<_, _>| {
        let idx = (k * CONNECTIONS + lane) % inputs.len();
        k += 1;
        let req = infer(cols, inputs[idx].clone(), InferMode::Keyed);
        let t0 = Instant::now();
        tally.sent += 1;
        match session.send(&req) {
            Ok(corr) => {
                inflight.insert(corr, (t0, idx));
                true
            }
            Err(e) => {
                tally.transport += 1;
                tally.note_error(e);
                false
            }
        }
    };
    while inflight.len() < DEPTH && Instant::now() < until {
        if !send(session, &mut tally, &mut inflight) {
            return tally;
        }
    }
    while !inflight.is_empty() {
        let (corr, reply) = match session.recv() {
            Ok(r) => r,
            Err(e) => {
                tally.transport += inflight.len() as u64;
                tally.note_error(e);
                return tally;
            }
        };
        let done = Instant::now();
        let Some((t0, idx)) = inflight.remove(&corr) else {
            tally.note_error(format!("reply for unknown correlation {corr}"));
            continue;
        };
        if tally.classify(reply, &refs[idx]) {
            tally.latency_ns.push((done - t0).as_nanos() as u64);
        }
        if done < until && !send(session, &mut tally, &mut inflight) {
            tally.transport += inflight.len() as u64;
            return tally;
        }
    }
    tally
}

/// The open loop over one split connection: the sender follows `due`, the
/// receiver matches replies by correlation.
fn open_loop(
    conn: &mut SplitConn,
    inputs: &[Vec<f32>],
    refs: &[Vec<f32>],
    due: &[Duration],
    picks: &[usize],
) -> Tally {
    let cols = inputs[0].len();
    let first = conn.next_corr;
    conn.next_corr += due.len() as u32;
    let n = due.len();
    let start = Instant::now();
    let stream = &conn.stream;
    let reader = &mut conn.reader;
    let (sent, received) = thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            let mut writer = stream;
            for (i, &offset) in due.iter().enumerate() {
                let due_at = start + offset;
                let now = Instant::now();
                if due_at > now {
                    thread::sleep(due_at - now);
                }
                let at = start.elapsed();
                let req = infer(cols, inputs[picks[i]].clone(), InferMode::Keyed);
                let mut out = BytesMut::new();
                req.encode(&mut out, PROTOCOL_VERSION, first + i as u32);
                if let Err(e) = writer.write_all(&out) {
                    return (sent, Some(e.to_string()));
                }
                sent.push(at);
            }
            (sent, None)
        });
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<(Duration, Reply)>> = vec![None; n];
            let mut error = None;
            for _ in 0..n {
                let decoded = reader
                    .next_frame()
                    .and_then(|p| p.ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof)))
                    .and_then(|p| Reply::decode(&p).map_err(io::Error::other));
                match decoded {
                    Ok((_, corr, reply)) => {
                        let at = start.elapsed();
                        match corr.checked_sub(first).map(|i| i as usize) {
                            Some(i) if i < n => got[i] = Some((at, reply)),
                            _ => error = Some(format!("reply for unknown correlation {corr}")),
                        }
                    }
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
            (got, error)
        });
        (
            sender.join().expect("open-loop sender"),
            receiver.join().expect("open-loop receiver"),
        )
    });
    let mut tally = Tally::default();
    let (sent_at, send_error) = sent;
    let (replies, recv_error) = received;
    tally.sent = n as u64;
    for e in [send_error, recv_error].into_iter().flatten() {
        tally.note_error(e);
    }
    for (i, reply) in replies.into_iter().enumerate() {
        let (Some(&sent), Some((at, reply))) = (sent_at.get(i), reply) else {
            tally.transport += 1;
            continue;
        };
        let timing = open_loop_timing(due[i], sent, at);
        tally.lag_ns.push(timing.lag.as_nanos() as u64);
        if tally.classify(reply, &refs[picks[i]]) {
            tally.latency_ns.push(timing.latency.as_nanos() as u64);
            if timing.latency <= LATENCY_LIMIT {
                tally.within_limit += 1;
            }
        }
    }
    tally
}

/// When the open loop's requests are due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Seeded Poisson arrivals at [`RATE`].
    Poisson,
    /// Bursts of [`DEPTH`] every [`BURST_PERIOD`].
    Bursts,
}

/// One window of load with the server's STATS taken around it.
struct Window {
    tally: Tally,
    secs: f64,
    cpu: Duration,
    delta: StatsDelta,
}

/// Runs one window of load; `arrivals` paces the open loop. With a
/// collector, the tracer is drained every [`DRAIN_EVERY`] while the load
/// runs.
fn run_window(
    fx: &mut Fixture,
    refs: &[Vec<f32>],
    length: Duration,
    arrivals: Arrivals,
    rng: &mut Rng,
    mut collector: Option<&mut Collector>,
) -> io::Result<Window> {
    let before = fx.stats()?;
    let cpu0 = host::process_cpu_time();
    let start = Instant::now();
    let until = start + length;
    let inputs = &fx.inputs;
    let tally = match &mut fx.conns {
        Conns::Closed(sessions) => thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .enumerate()
                .map(|(lane, session)| {
                    s.spawn(move || closed_loop(session, lane, inputs, refs, until))
                })
                .collect();
            if let Some(c) = collector.as_deref_mut() {
                while !handles.iter().all(|h| h.is_finished()) {
                    thread::sleep(DRAIN_EVERY);
                    c.drain();
                }
            }
            let mut tally = Tally::default();
            for h in handles {
                tally.merge(h.join().expect("closed-loop client"));
            }
            tally
        }),
        Conns::Open(conn) => {
            let due = match arrivals {
                Arrivals::Poisson => poisson_arrivals(rng, RATE, length),
                Arrivals::Bursts => burst_arrivals(DEPTH, BURST_PERIOD, length),
            };
            let picks: Vec<usize> = due.iter().map(|_| rng.below(inputs.len())).collect();
            match collector {
                None => open_loop(conn, inputs, refs, &due, &picks),
                Some(c) => thread::scope(|s| {
                    let h = s.spawn(|| open_loop(conn, inputs, refs, &due, &picks));
                    while !h.is_finished() {
                        thread::sleep(DRAIN_EVERY);
                        c.drain();
                    }
                    h.join().expect("open-loop thread")
                }),
            }
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let cpu = host::process_cpu_time().saturating_sub(cpu0);
    let after = fx.stats()?;
    let delta = after
        .delta_since(&before)
        .ok_or_else(|| io::Error::other("STATS snapshots did not advance"))?;
    Ok(Window {
        tally,
        secs,
        cpu,
        delta,
    })
}

/// Checks a window's client counts against the server's STATS delta and
/// every reply against the local reference.
fn check_window(out: &mut Outcome, label: &str, w: &Window) {
    let t = &w.tally;
    let d = &w.delta;
    out.gate(
        format!("{label}: replies bit-identical to local deploy_trusted + forward"),
        t.mismatched == 0 && t.ok > 0,
        format!("{} identical, {} differing", t.ok, t.mismatched),
    );
    let logits = t.ok + t.mismatched;
    out.gate(
        format!("{label}: STATS reconcile with the client"),
        d.requests == t.sent - t.busy - t.transport
            && d.replies_ok == logits
            && d.e2e.count == logits
            && d.busy == t.busy,
        format!(
            "server requests {} replies_ok {} e2e.count {} busy {}; client sent {} logits {} busy {} lost {}",
            d.requests, d.replies_ok, d.e2e.count, d.busy, t.sent, logits, t.busy, t.transport
        ),
    );
    if let Some(e) = &t.first_error {
        out.lines.push(format!("{label}: first failure: {e}"));
    }
}

/// Prints the window's error rate and the server's own stage histograms.
fn window_lines(out: &mut Outcome, label: &str, w: &Window) {
    let t = &w.tally;
    out.lines.push(format!(
        "{label}: error_rate {:.6} ({} failed of {} attempted: {} busy, {} typed errors, {} lost, {} wrong bits)",
        t.failed() as f64 / t.sent.max(1) as f64,
        t.failed(),
        t.sent,
        t.busy,
        t.refused,
        t.transport,
        t.mismatched
    ));
    let d = &w.delta;
    let stages: Vec<String> = [
        ("e2e", &d.e2e),
        ("queue wait", &d.queue_wait),
        ("batch fill", &d.batch_fill),
        ("forward", &d.forward),
        ("writeback", &d.writeback),
    ]
    .iter()
    .map(|(stage, h)| {
        format!(
            "{stage} {:.3}/{:.3}",
            h.quantile_upper_ns(0.5) as f64 / 1e6,
            h.quantile_upper_ns(0.99) as f64 / 1e6
        )
    })
    .collect();
    out.lines.push(format!(
        "{label}: server stages p50/p99 ms (log2 buckets, {} replies): {}",
        d.replies_ok,
        stages.join(", ")
    ));
}

/// One fixture's warm-up and windows: checks each window and returns them,
/// with the trace of the last window when `trace_last` is set.
fn measure(
    out: &mut Outcome,
    label: &str,
    fx: &mut Fixture,
    refs: &[Vec<f32>],
    lengths: &[Duration],
    trace_last: bool,
    seed: u64,
) -> io::Result<(Vec<Window>, Option<Trace>)> {
    let mut rng = Rng::new(seed).fork(2);
    if let Conns::Open(_) = fx.conns {
        let burst = run_window(fx, refs, BURST_WARMUP, Arrivals::Bursts, &mut rng, None)?;
        check_window(out, &format!("{label} burst warm-up"), &burst);
    }
    let warm = run_window(fx, refs, WARMUP, Arrivals::Poisson, &mut rng, None)?;
    check_window(out, &format!("{label} warm-up"), &warm);
    let mut windows = Vec::with_capacity(lengths.len());
    let mut trace = None;
    for (i, &length) in lengths.iter().enumerate() {
        let w = if trace_last && i + 1 == lengths.len() {
            let mut collector = Collector::start();
            let w = run_window(
                fx,
                refs,
                length,
                Arrivals::Poisson,
                &mut rng,
                Some(&mut collector),
            );
            trace = Some(collector.finish());
            w?
        } else {
            run_window(fx, refs, length, Arrivals::Poisson, &mut rng, None)?
        };
        check_window(out, &format!("{label} window {}", i + 1), &w);
        windows.push(w);
    }
    keyless_check(out, label, fx, refs)?;
    Ok((windows, trace))
}

/// Runs a serving workload.
pub fn run(load: Load, args: &Args) -> io::Result<Outcome> {
    if args.trace {
        return run_traced(load, args);
    }
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    setup.fill(|| Fixture::setup(load, args.seed), Fixture::shutdown)?;
    let mut fx = setup.time(|| Fixture::setup(load, args.seed))?;
    out.event_threads = Some(fx.server.event_threads());
    let refs = fx.references(true, INPUTS);
    let window = Duration::from_secs_f64(args.seconds);
    let (mut windows, _) = measure(&mut out, "run", &mut fx, &refs, &[window], false, args.seed)?;
    fx.shutdown();
    let w = windows.pop().expect("one window");
    window_lines(&mut out, "window", &w);
    out.attempted = w.tally.sent;
    out.failed = w.tally.failed();
    let setup_s = setup.metric("deploy the model, start the server, connect, generate inputs");
    out.metrics = end_to_end(load, &w, setup_s, host::peak_rss_metric());
    Ok(out)
}

/// The traced run: one set-up, an untraced and a traced half window, then
/// the per-layer ledger and the layer probes.
fn run_traced(load: Load, args: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut fx = Fixture::setup(load, args.seed)?;
    out.event_threads = Some(fx.server.event_threads());
    let refs = fx.references(true, INPUTS);
    let half = Duration::from_secs_f64(args.seconds) / 2;
    let (mut windows, trace) = measure(
        &mut out,
        "run",
        &mut fx,
        &refs,
        &[half, half],
        true,
        args.seed,
    )?;
    let trace = trace.expect("last window traced");
    let traced = windows.pop().expect("traced window");
    let untraced = windows.pop().expect("untraced window");
    window_lines(&mut out, "traced window", &traced);
    out.attempted = traced.tally.sent;
    out.failed = traced.tally.failed();
    let spans = spans::from_events(&trace.events);
    let self_ns = spans::self_times(&spans);
    out.spans = spans::table(&spans, &self_ns);
    out.trace_dropped = trace.dropped;
    out.metrics = per_layer(load, &traced, &untraced, &spans, &self_ns);
    let spec = fx.model.spec();
    let frames = layers::Frames::Serving(spec.in_features, spec.out_features());
    fx.shutdown();
    out.metrics.extend(layers::probes(frames, args.seed));
    out.trace = Some(trace);
    Ok(out)
}

/// A handful of keyless requests must equal `deploy_stolen` bit for bit:
/// the paper's invariant that the published weights alone give the
/// attacker's network, not the owner's.
fn keyless_check(
    out: &mut Outcome,
    label: &str,
    fx: &mut Fixture,
    keyed: &[Vec<f32>],
) -> io::Result<()> {
    let stolen = fx.references(false, KEYLESS_CHECKS);
    let cols = fx.model.spec().in_features;
    let mut equal = 0;
    let mut differs_from_keyed = 0;
    for (i, (want, keyed)) in stolen.iter().zip(keyed).enumerate() {
        let t = fx
            .control
            .submit(0, InferMode::Keyless, 0, 1, cols, fx.inputs[i].clone())
            .map_err(io::Error::other)?;
        if let Ok(got) = fx.control.wait(t) {
            equal += usize::from(bits_equal(&got.data, want));
            differs_from_keyed += usize::from(!bits_equal(&got.data, keyed));
        }
    }
    out.gate(
        format!("{label}: keyless replies bit-identical to local deploy_stolen + forward"),
        equal == KEYLESS_CHECKS,
        format!("{equal} of {KEYLESS_CHECKS} identical; {differs_from_keyed} differ from the keyed logits"),
    );
    Ok(())
}

fn end_to_end(load: Load, w: &Window, setup_s: Metric, peak_rss: Metric) -> Vec<Metric> {
    let t = &w.tally;
    let client_ms = stats::sorted_ms(&t.latency_ns);
    let p50 = stats::nearest_rank(&client_ms, 0.5);
    let p99 = stats::tail(&client_ms, 0.99);
    let ops = t.ok as f64 / w.secs;
    let goodput = match load {
        Load::OpenConvfc => Metric::new(
            "goodput_rps",
            t.within_limit as f64 / w.secs,
            "1/s",
            format!(
                "{} of {} attempted within {} ms",
                t.within_limit,
                t.sent,
                LATENCY_LIMIT.as_millis()
            ),
        ),
        Load::PipelinedTiny => Metric::new(
            "goodput_rps",
            ops,
            "1/s",
            "closed loop has no latency limit: every correct reply counts",
        ),
    };
    vec![
        setup_s,
        Metric::new(
            "ops_per_s",
            ops,
            "1/s",
            format!("{} correct replies in {:.3} s", t.ok, w.secs),
        ),
        Metric::maybe(
            "latency_p50_ms",
            p50.map(|p| p.value),
            "ms",
            p50.map_or(String::new(), |p| p.describe()),
            "no samples",
        ),
        Metric::maybe(
            "latency_p99_ms",
            p99.map(|p| p.value),
            "ms",
            p99.map_or(String::new(), |p| p.describe()),
            "fewer than 11 samples",
        ),
        goodput,
        Metric::new(
            "ok_share",
            t.ok as f64 / t.sent.max(1) as f64,
            "ratio",
            format!("{} of {} attempted", t.ok, t.sent),
        ),
        Metric::new(
            "cpu_ms_per_op",
            w.cpu.as_secs_f64() * 1e3 / t.ok.max(1) as f64,
            "ms",
            format!(
                "{:.2} s CPU (server and client) over {} replies",
                w.cpu.as_secs_f64(),
                t.ok
            ),
        ),
        peak_rss,
    ]
}

fn per_layer(
    load: Load,
    w: &Window,
    untraced: &Window,
    spans: &[Span],
    self_ns: &[u64],
) -> Vec<Metric> {
    let d = &w.delta;
    let client_p99 = stats::tail(&stats::sorted_ms(&w.tally.latency_ns), 0.99);
    let replies = d.replies_ok.max(1) as f64;
    let writeback = spans::durations_ms(spans, "writeback");
    let queue_wait = spans::durations_ms(spans, "queue.wait");
    let batch_fill = spans::durations_ms(spans, "batch.fill");
    let wb99 = stats::tail(&writeback, 0.99);
    let qw99 = stats::tail(&queue_wait, 0.99);
    let bf50 = stats::nearest_rank(&batch_fill, 0.5);
    let unaccounted = client_p99.map(|p| {
        let server = d.e2e.quantile_upper_ns(p.q) as f64 / 1e6;
        (p.value - server, p.label())
    });
    let traced_ops = w.tally.ok as f64 / w.secs;
    let untraced_ops = untraced.tally.ok as f64 / untraced.secs;
    let lag = stats::tail(&stats::sorted_ms(&w.tally.lag_ns), 0.99);
    let mut m = vec![
        Metric::maybe(
            "serve.writeback_p99_ms",
            wb99.map(|p| p.value),
            "ms",
            wb99.map_or(String::new(), |p| p.describe()),
            "too few writeback spans",
        ),
        Metric::maybe(
            "serve.unaccounted_p99_ms",
            unaccounted.as_ref().map(|u| u.0),
            "ms",
            unaccounted.as_ref().map_or(String::new(), |u| {
                format!("client {} minus server e2e {}", u.1, u.1)
            }),
            "too few client samples",
        ),
        Metric::new(
            "serve.wakeups_per_reply",
            d.wakeups as f64 / replies,
            "count",
            format!("{} wakeups / {} replies", d.wakeups, d.replies_ok),
        ),
        Metric::new(
            "serve.loop_events_per_reply",
            d.loop_events as f64 / replies,
            "count",
            format!("{} loop events / {} replies", d.loop_events, d.replies_ok),
        ),
        Metric::new(
            "serve.conn.decode_us",
            spans::self_total_ns(spans, self_ns, "conn.decode") as f64 / 1e3 / replies,
            "us",
            "conn.decode self time per reply",
        ),
        Metric::new(
            "serve.conn.admit_us",
            spans::self_total_ns(spans, self_ns, "conn.admit") as f64 / 1e3 / replies,
            "us",
            "conn.admit self time per reply",
        ),
        Metric::maybe(
            "serve.scheduler.queue_wait_p99_ms",
            qw99.map(|p| p.value),
            "ms",
            qw99.map_or(String::new(), |p| p.describe()),
            "too few queue.wait spans",
        ),
        Metric::maybe(
            "serve.scheduler.batch_fill_p50_ms",
            bf50.map(|p| p.value),
            "ms",
            bf50.map_or(String::new(), |p| format!("p50 of {} batches", p.samples)),
            "no batch.fill spans",
        ),
        Metric::new(
            "serve.scheduler.rows_per_batch",
            d.rows as f64 / d.batches.max(1) as f64,
            "rows",
            format!("{} rows / {} batches", d.rows, d.batches),
        ),
        Metric::new(
            "serve.scheduler.busy_share",
            d.busy as f64 / (d.requests + d.busy).max(1) as f64,
            "ratio",
            format!("{} BUSY of {} attempts", d.busy, d.requests + d.busy),
        ),
    ];
    m.extend(spans::layer_shares(spans, "batch.forward"));
    m.push(Metric::maybe(
        "tensor.pool.straggler_share",
        spans::straggler_share(spans),
        "ratio",
        "pool.job time beyond its longest pool.chunk",
        "no job ran on the pool",
    ));
    m.push(match load {
        Load::OpenConvfc => Metric::maybe(
            "loadgen.lag_p99_ms",
            lag.map(|p| p.value),
            "ms",
            lag.map_or(String::new(), |p| p.describe()),
            "too few requests",
        ),
        Load::PipelinedTiny => {
            Metric::absent("loadgen.lag_p99_ms", "ms", "closed loop has no schedule")
        }
    });
    m.push(Metric::new(
        "trace.overhead_share",
        1.0 - traced_ops / untraced_ops.max(f64::MIN_POSITIVE),
        "ratio",
        format!("traced {traced_ops:.1} vs untraced {untraced_ops:.1} ops/s"),
    ));
    m
}
