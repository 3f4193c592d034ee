//! `train-cnn1`: the paper's key-dependent training of CNN1 on the in-tree
//! synthetic Fashion-MNIST stand-in, driven one minibatch at a time through
//! public calls so each stage can be timed and traced.
//!
//! A training job is the full owner run: build the locked network from the
//! seed, then [`EPOCHS`] epochs of minibatch SGD with exactly the schedule
//! of `hpnn_nn::train` (per-epoch shuffle, gradient clipping, warm-up and
//! cosine learning rate). The window runs jobs back to back; every job from
//! one seed must end in bit-identical weights.

use std::io;
use std::time::{Duration, Instant};

use hpnn_core::{sha256, Digest, HpnnKey, HpnnTrainer, LockedModel, ModelMetadata};
use hpnn_data::{Benchmark, Dataset, DatasetScale};
use hpnn_nn::{cnn1, softmax_cross_entropy, ImageDims, Network, Sgd, TrainConfig};
use hpnn_tensor::Rng;
use hpnn_trace::Trace;

use crate::report::{Metric, Outcome};
use crate::spans::{self, Collector, Span};
use crate::stats;
use crate::{host, layers, Args, SetupTimes};

/// Epochs per training job (the accuracy gate is read after one job).
pub const EPOCHS: usize = 15;
/// Minibatch size.
pub const BATCH: usize = 32;
/// CNN1 channel width, as the CLI trains it.
const WIDTH: f32 = 0.5;
/// Learning rate, as the CLI trains it.
const LR: f32 = 0.02;
/// Minibatches run before the measured window on a throwaway job.
const WARMUP_STEPS: usize = 20;
/// How often the traced window drains the tracer's rings.
const DRAIN_EVERY: Duration = Duration::from_millis(50);

/// The dataset and the owner's trainer configuration.
struct Fixture {
    dataset: Dataset,
    trainer: HpnnTrainer,
}

impl Fixture {
    /// Synthesises the dataset and configures the trainer; the caller times
    /// this together with building the first locked network.
    fn setup(seed: u64) -> Fixture {
        let dataset = Benchmark::FashionMnist.synthetic(DatasetScale::SMALL);
        let s = dataset.shape;
        let spec = cnn1(ImageDims::new(s.c, s.h, s.w), dataset.classes, WIDTH)
            .expect("CNN1 fits the small Fashion-MNIST shape");
        let key = HpnnKey::random(&mut Rng::new(seed));
        let config = TrainConfig::default()
            .with_epochs(EPOCHS)
            .with_lr(LR)
            .with_batch_size(BATCH);
        let trainer = HpnnTrainer::new(spec, key)
            .with_config(config)
            .with_seed(seed);
        Fixture { dataset, trainer }
    }
}

/// One training job in progress.
struct Job {
    net: Network,
    opt: Sgd,
    rng: Rng,
    order: Vec<usize>,
    step: usize,
    steps_per_epoch: usize,
}

impl Job {
    fn new(fx: &Fixture) -> Job {
        let cfg = &fx.trainer.config;
        let mut rng = Rng::new(fx.trainer.seed);
        let net = fx
            .trainer
            .build_locked_network(&mut rng)
            .expect("CNN1 builds");
        let n = fx.dataset.train_len();
        Job {
            net,
            opt: Sgd::new(cfg.lr)
                .momentum(cfg.momentum)
                .weight_decay(cfg.weight_decay),
            rng,
            order: (0..n).collect(),
            step: 0,
            steps_per_epoch: n.div_ceil(cfg.batch_size),
        }
    }

    fn total_steps(&self) -> usize {
        self.steps_per_epoch * EPOCHS
    }

    fn done(&self) -> bool {
        self.step == self.total_steps()
    }

    /// One minibatch; returns its rows, whether the loss was finite, and
    /// the time spent in forward, loss, backward and the optimizer.
    fn step(&mut self, fx: &Fixture) -> (usize, bool, [Duration; 4]) {
        let cfg = &fx.trainer.config;
        let pos = self.step % self.steps_per_epoch;
        if pos == 0 && cfg.shuffle {
            self.rng.shuffle(&mut self.order);
        }
        let end = ((pos + 1) * cfg.batch_size).min(self.order.len());
        let chunk = &self.order[pos * cfg.batch_size..end];
        let ds = &fx.dataset;
        let inputs = ds.train_inputs.gather_rows(chunk);
        let labels: Vec<usize> = chunk.iter().map(|&i| ds.train_labels[i]).collect();
        let t0 = Instant::now();
        let logits = {
            let _s = hpnn_trace::span!("bench.train.forward", chunk.len());
            self.net.forward(&inputs, true)
        };
        let t1 = Instant::now();
        let loss = {
            let _s = hpnn_trace::span!("bench.train.loss", chunk.len());
            softmax_cross_entropy(&logits, &labels)
        };
        let t2 = Instant::now();
        {
            let _s = hpnn_trace::span!("bench.train.backward", chunk.len());
            self.net.backward(&loss.grad);
        }
        let t3 = Instant::now();
        {
            let _s = hpnn_trace::span!("bench.train.sgd", chunk.len());
            clip_gradients(&mut self.net, cfg.grad_clip);
            self.opt.lr = cfg.lr_at(self.step, self.total_steps());
            self.opt.step(&mut self.net);
        }
        let phases = [t1 - t0, t2 - t1, t3 - t2, t3.elapsed()];
        self.step += 1;
        (chunk.len(), loss.loss.is_finite(), phases)
    }
}

/// Scales gradients to a global L2 norm of at most `max_norm`, as
/// `hpnn_nn::train` does before every optimizer step.
fn clip_gradients(net: &mut Network, max_norm: f32) {
    if max_norm <= 0.0 {
        return;
    }
    let mut norm_sq = 0.0f32;
    net.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        net.visit_params(&mut |p| p.grad.scale_inplace(scale));
    }
}

/// SHA-256 of every weight's bits, in layer order.
fn weights_digest(net: &mut Network) -> Digest {
    let mut bytes = Vec::new();
    for t in net.export_weights() {
        for v in t.data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    sha256(&bytes)
}

/// What one window of training produced.
struct Window {
    samples: u64,
    failed: u64,
    step_ns: Vec<u64>,
    secs: f64,
    cpu: Duration,
    digests: Vec<Digest>,
    /// The first completed job's network, for the accuracy gate.
    first: Network,
}

/// Trains jobs back to back for `length`, and past it until the first job
/// completes. With a collector, the tracer is drained between steps every
/// [`DRAIN_EVERY`].
fn run_window(fx: &Fixture, length: Duration, mut collector: Option<&mut Collector>) -> Window {
    let cpu0 = host::process_cpu_time();
    let start = Instant::now();
    let until = start + length;
    let mut drained = start;
    let mut job = Job::new(fx);
    let (mut samples, mut failed) = (0u64, 0u64);
    let mut step_ns = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    while first.is_none() || Instant::now() < until {
        let t0 = Instant::now();
        let (rows, finite, _) = job.step(fx);
        step_ns.push(t0.elapsed().as_nanos() as u64);
        samples += rows as u64;
        if !finite {
            failed += rows as u64;
        }
        if let Some(c) = collector.as_deref_mut() {
            if drained.elapsed() >= DRAIN_EVERY {
                c.drain();
                drained = Instant::now();
            }
        }
        if job.done() {
            let mut finished = std::mem::replace(&mut job, Job::new(fx));
            digests.push(weights_digest(&mut finished.net));
            first.get_or_insert(finished.net);
        }
    }
    Window {
        samples,
        failed,
        step_ns,
        secs: start.elapsed().as_secs_f64(),
        cpu: host::process_cpu_time().saturating_sub(cpu0),
        digests,
        first: first.expect("loop ends only after a completed job"),
    }
}

fn check_window(
    out: &mut Outcome,
    label: &str,
    fx: &Fixture,
    w: &mut Window,
    digests: &mut Vec<Digest>,
) {
    digests.extend(w.digests.iter().copied());
    let ds = &fx.dataset;
    let with_key = w.first.accuracy(&ds.test_inputs, &ds.test_labels);
    let model = LockedModel::from_network(
        fx.trainer.spec.clone(),
        &mut w.first,
        fx.trainer.schedule(),
        ModelMetadata::default(),
    );
    let without_key = model
        .deploy_stolen()
        .expect("CNN1 deploys")
        .accuracy(&ds.test_inputs, &ds.test_labels);
    out.gate(
        format!("{label}: accuracy with the key beats accuracy without it"),
        with_key > without_key,
        format!("test accuracy {with_key:.4} with key, {without_key:.4} without"),
    );
    out.gate(
        format!("{label}: no non-finite loss"),
        w.failed == 0,
        format!("{} of {} samples in non-finite steps", w.failed, w.samples),
    );
}

/// Minibatches timed by [`phase_probe`], after as many untimed ones.
const PROBE_STEPS: usize = 100;

/// Benchmark-timed training phases: mean forward, loss, backward and
/// optimizer time per minibatch over [`PROBE_STEPS`] steps of a fresh
/// CNN1 job, so every traced run reports the training layers.
pub fn phase_probe(seed: u64) -> Vec<Metric> {
    let fx = Fixture::setup(seed);
    let mut job = Job::new(&fx);
    for _ in 0..PROBE_STEPS {
        job.step(&fx);
    }
    let mut total = [Duration::ZERO; 4];
    for _ in 0..PROBE_STEPS {
        let (_, _, phases) = job.step(&fx);
        for (t, p) in total.iter_mut().zip(phases) {
            *t += p;
        }
    }
    [
        "nn.train.forward_ms",
        "nn.train.loss_ms",
        "nn.train.backward_ms",
        "nn.train.sgd_ms",
    ]
    .into_iter()
    .zip(total)
    .map(|(name, t)| {
        Metric::new(
            name,
            t.as_secs_f64() * 1e3 / PROBE_STEPS as f64,
            "ms",
            format!("mean over {PROBE_STEPS} CNN1 minibatches of {BATCH}"),
        )
    })
    .collect()
}

/// Synthesises the dataset and builds the first locked network: what
/// `setup_s` times.
fn set_up(seed: u64) -> io::Result<Fixture> {
    let fx = Fixture::setup(seed);
    drop(Job::new(&fx));
    Ok(fx)
}

/// Warm-up, then the windows of one fixture, each checked; with
/// `trace_last`, the last window is traced and its trace returned.
fn measure(
    out: &mut Outcome,
    label: &str,
    fx: &Fixture,
    lengths: &[Duration],
    trace_last: bool,
    digests: &mut Vec<Digest>,
) -> (Vec<Window>, Option<Trace>) {
    let mut warm = Job::new(fx);
    for _ in 0..WARMUP_STEPS {
        warm.step(fx);
    }
    drop(warm);
    let mut windows = Vec::with_capacity(lengths.len());
    let mut trace = None;
    for (i, &length) in lengths.iter().enumerate() {
        let mut w = if trace_last && i + 1 == lengths.len() {
            let mut collector = Collector::start();
            let w = run_window(fx, length, Some(&mut collector));
            trace = Some(collector.finish());
            w
        } else {
            run_window(fx, length, None)
        };
        check_window(
            out,
            &format!("{label} window {}", i + 1),
            fx,
            &mut w,
            digests,
        );
        out.lines.push(format!(
            "{label} window {}: error_rate {:.6} ({} failed of {} attempted samples)",
            i + 1,
            w.failed as f64 / w.samples.max(1) as f64,
            w.failed,
            w.samples
        ));
        windows.push(w);
    }
    (windows, trace)
}

fn digest_gate(out: &mut Outcome, digests: &[Digest]) {
    out.weights_sha256 = digests.first().map(|d| d.to_string());
    out.gate(
        "every job from this seed ends in bit-identical weights",
        digests.windows(2).all(|d| d[0] == d[1]),
        format!(
            "{} jobs of {EPOCHS} epochs; final-weight sha256 {}",
            digests.len(),
            digests.first().map_or("none".into(), |d| d.to_string())
        ),
    );
}

/// Runs `train-cnn1`.
pub fn run(args: &Args) -> io::Result<Outcome> {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    setup.fill(|| set_up(args.seed), drop)?;
    let fx = setup.time(|| set_up(args.seed))?;
    let mut digests = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let (mut windows, _) = measure(&mut out, "run", &fx, &[window], false, &mut digests);
    digest_gate(&mut out, &digests);
    let w = windows.pop().expect("one window");
    out.attempted = w.samples;
    out.failed = w.failed;
    let setup_s = setup.metric("synthesise the dataset, build the locked network");
    out.metrics = end_to_end(&w, setup_s, host::peak_rss_metric());
    Ok(out)
}

fn end_to_end(w: &Window, setup_s: Metric, peak_rss: Metric) -> Vec<Metric> {
    let step_ms = stats::sorted_ms(&w.step_ns);
    let p50 = stats::nearest_rank(&step_ms, 0.5);
    let p99 = stats::tail(&step_ms, 0.99);
    let ok = w.samples - w.failed;
    let ops = ok as f64 / w.secs;
    vec![
        setup_s,
        Metric::new(
            "ops_per_s",
            ops,
            "1/s",
            format!(
                "{ok} samples in {} steps in {:.3} s",
                w.step_ns.len(),
                w.secs
            ),
        ),
        Metric::maybe(
            "latency_p50_ms",
            p50.map(|p| p.value),
            "ms",
            p50.map_or(String::new(), |p| format!("per step: {}", p.describe())),
            "no steps",
        ),
        Metric::maybe(
            "latency_p99_ms",
            p99.map(|p| p.value),
            "ms",
            p99.map_or(String::new(), |p| format!("per step: {}", p.describe())),
            "fewer than 11 steps",
        ),
        Metric::new(
            "goodput_rps",
            ops,
            "1/s",
            "training has no latency limit: every sample of a finite step counts",
        ),
        Metric::new(
            "ok_share",
            ok as f64 / w.samples.max(1) as f64,
            "ratio",
            format!("{ok} of {} samples", w.samples),
        ),
        Metric::new(
            "cpu_ms_per_op",
            w.cpu.as_secs_f64() * 1e3 / ok.max(1) as f64,
            "ms",
            format!("{:.2} s CPU over {ok} samples", w.cpu.as_secs_f64()),
        ),
        peak_rss,
    ]
}

/// The traced run: one set-up, an untraced and a traced half window, then
/// the per-layer ledger and the layer probes.
fn run_traced(args: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let fx = Fixture::setup(args.seed);
    let half = Duration::from_secs_f64(args.seconds) / 2;
    let mut digests = Vec::new();
    let (mut windows, trace) = measure(&mut out, "run", &fx, &[half, half], true, &mut digests);
    digest_gate(&mut out, &digests);
    let trace = trace.expect("last window traced");
    let traced = windows.pop().expect("traced window");
    let untraced = windows.pop().expect("untraced window");
    out.attempted = traced.samples;
    out.failed = traced.failed;
    let rate = |w: &Window| (w.samples - w.failed) as f64 / w.secs;
    let spans = spans::from_events(&trace.events);
    out.spans = spans::table(&spans, &spans::self_times(&spans));
    out.trace_dropped = trace.dropped;
    out.metrics = per_layer(&spans, rate(&traced), rate(&untraced));
    out.metrics
        .extend(layers::probes(layers::Frames::None, args.seed));
    out.trace = Some(trace);
    Ok(out)
}

fn per_layer(spans: &[Span], ops: f64, untraced_ops: f64) -> Vec<Metric> {
    let why = "training workload runs no server";
    let mut m: Vec<Metric> = [
        ("serve.writeback_p99_ms", "ms"),
        ("serve.unaccounted_p99_ms", "ms"),
        ("serve.wakeups_per_reply", "count"),
        ("serve.loop_events_per_reply", "count"),
        ("serve.conn.decode_us", "us"),
        ("serve.conn.admit_us", "us"),
        ("serve.scheduler.queue_wait_p99_ms", "ms"),
        ("serve.scheduler.batch_fill_p50_ms", "ms"),
        ("serve.scheduler.rows_per_batch", "rows"),
        ("serve.scheduler.busy_share", "ratio"),
        ("loadgen.lag_p99_ms", "ms"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::absent(name, unit, why))
    .collect();
    m.extend(spans::layer_shares(spans, "bench.train.forward"));
    m.push(Metric::maybe(
        "tensor.pool.straggler_share",
        spans::straggler_share(spans),
        "ratio",
        "pool.job time beyond its longest pool.chunk",
        "no job ran on the pool",
    ));
    m.push(Metric::new(
        "trace.overhead_share",
        1.0 - ops / untraced_ops.max(f64::MIN_POSITIVE),
        "ratio",
        format!("traced {ops:.1} vs untraced {untraced_ops:.1} samples/s"),
    ));
    m
}
