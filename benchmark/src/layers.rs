//! Benchmark-timed calls into single layers' public functions, for the
//! traced run's per-layer ledger. Each figure is the median over repeated
//! calls, timed with `Instant` outside any traced window.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hpnn_bytes::BytesMut;
use hpnn_core::KeyVault;
use hpnn_data::{Benchmark, DatasetScale};
use hpnn_serve::{InferMode, Reply, Request, PROTOCOL_VERSION};
use hpnn_tensor::{
    conv2d_forward_batch_into, im2col_batch_into, matmul_into, Conv2dGeom, Rng, Shape, Tensor,
};

use crate::report::Metric;
use crate::serving::{convfc_spec, locked_model};
use crate::stats;

/// Wall time each probe spends repeating its call.
const BUDGET: Duration = Duration::from_millis(300);
/// Calls per timed batch for the nanosecond-scale codec probes.
const CODEC_BATCH: usize = 1000;

/// The frame sizes of the workload, if it serves.
pub enum Frames {
    /// A `rows=1` request of `.0` features answered with `.1` logits.
    Serving(usize, usize),
    /// The workload sends no frames.
    None,
}

/// Median seconds per call of `f`, repeated for at least `min_reps` calls
/// and [`BUDGET`], after one untimed warm-up call.
fn median_secs(min_reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&samples), samples.len())
}

fn calls(n: usize) -> String {
    format!("median of {n} calls")
}

/// Every per-layer probe; codec probes only when the workload has frames.
pub fn probes(frames: Frames, seed: u64) -> Vec<Metric> {
    let mut out = codec(frames);
    let mut rng = Rng::new(seed).fork(3);
    let (model, key) = locked_model(convfc_spec(), seed);
    let vault = KeyVault::provision(key, "probe");
    let mut net = model.deploy_trusted(&vault).expect("convfc deploys");
    for (name, b) in [
        ("nn.forward_ms.b1", 1usize),
        ("nn.forward_ms.b8", 8),
        ("nn.forward_ms.b32", 32),
    ] {
        let x = Tensor::randn(Shape::d2(b, 256), 1.0, &mut rng);
        let (secs, n) = median_secs(10, || {
            black_box(net.forward(black_box(&x), false));
        });
        out.push(Metric::new(name, secs * 1e3, "ms", calls(n)));
    }
    for (name, b) in [
        ("tensor.gemm_gflops.dense2048.b1", 1usize),
        ("tensor.gemm_gflops.dense2048.b32", 32),
    ] {
        let a = Tensor::randn(Shape::d2(b, 2048), 1.0, &mut rng);
        let w = Tensor::randn(Shape::d2(2048, 2048), 0.02, &mut rng);
        let mut c = vec![0.0f32; b * 2048];
        let (secs, n) = median_secs(10, || matmul_into(black_box(&a), black_box(&w), &mut c));
        let flops = 2.0 * (b * 2048 * 2048) as f64;
        out.push(Metric::new(name, flops / secs / 1e9, "GFLOP/s", calls(n)));
    }
    {
        // The first conv of the open-convfc model, batch 32.
        let geom = Conv2dGeom::new(1, 16, 16, 8, 3, 1, 1).expect("conv1 geom");
        let batch = 32;
        let input = Tensor::randn(Shape::d2(batch, geom.in_volume()), 1.0, &mut rng);
        let mut cols = Tensor::zeros(Shape::d2(batch * geom.col_cols(), geom.col_rows()));
        im2col_batch_into(&input, &geom, cols.data_mut());
        let w_t = Tensor::randn(Shape::d2(geom.col_rows(), geom.out_c), 0.3, &mut rng);
        let bias = vec![0.1f32; geom.out_c];
        let mut y = vec![0.0f32; batch * geom.out_volume()];
        let (secs, n) = median_secs(10, || {
            conv2d_forward_batch_into(black_box(&cols), &w_t, &bias, &geom, &mut y)
        });
        let flops = 2.0 * (geom.macs_per_sample() * batch) as f64;
        out.push(Metric::new(
            "tensor.conv_gflops.conv1",
            flops / secs / 1e9,
            "GFLOP/s",
            format!("{}, batch {batch}", calls(n)),
        ));
    }
    let (secs, n) = median_secs(5, || {
        black_box(model.deploy_trusted(&vault).expect("convfc deploys"));
    });
    out.push(Metric::new(
        "core.deploy_ms",
        secs * 1e3,
        "ms",
        format!("{} of deploy_trusted on the open-convfc model", calls(n)),
    ));
    let (secs, n) = median_secs(3, || {
        black_box(Benchmark::FashionMnist.synthetic(DatasetScale::SMALL));
    });
    out.push(Metric::new(
        "data.synth_s",
        secs,
        "s",
        format!("{} of the small synthetic Fashion-MNIST", calls(n)),
    ));
    out.extend(crate::training::phase_probe(seed));
    out
}

fn codec(frames: Frames) -> Vec<Metric> {
    let Frames::Serving(cols, logits) = frames else {
        return vec![
            Metric::absent("serve.protocol.encode_ns", "ns", "workload sends no frames"),
            Metric::absent("serve.protocol.decode_ns", "ns", "workload sends no frames"),
        ];
    };
    let req = Request::Infer {
        model: 0,
        mode: InferMode::Keyed,
        deadline_us: 0,
        rows: 1,
        cols,
        data: (0..cols).map(|i| i as f32 * 0.01).collect(),
    };
    let (enc, n_enc) = median_secs(10, || {
        for i in 0..CODEC_BATCH {
            let mut out = BytesMut::new();
            req.encode(&mut out, PROTOCOL_VERSION, i as u32);
            black_box(&out);
        }
    });
    let reply = Reply::Logits {
        rows: 1,
        cols: logits,
        data: (0..logits).map(|i| i as f32 * 0.5).collect(),
    };
    let mut framed = BytesMut::new();
    reply.encode(&mut framed, PROTOCOL_VERSION, 1);
    // The reader hands the decoder the payload after the u32 length prefix.
    let payload = framed[4..].to_vec();
    let (dec, n_dec) = median_secs(10, || {
        for _ in 0..CODEC_BATCH {
            black_box(Reply::decode(black_box(&payload)).expect("logits frame decodes"));
        }
    });
    vec![
        Metric::new(
            "serve.protocol.encode_ns",
            enc * 1e9 / CODEC_BATCH as f64,
            "ns",
            format!("Request::encode of {cols} features; median of {n_enc} x {CODEC_BATCH}"),
        ),
        Metric::new(
            "serve.protocol.decode_ns",
            dec * 1e9 / CODEC_BATCH as f64,
            "ns",
            format!("Reply::decode of {logits} logits; median of {n_dec} x {CODEC_BATCH}"),
        ),
    ]
}
