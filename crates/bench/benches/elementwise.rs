//! Elementwise-tail micro-benchmarks: ReLU forward (locked + unlocked),
//! bias broadcast, and softmax cross-entropy.
//!
//! Each benchmark compares the current vectorized path (dispatched through
//! `hpnn_tensor::simd`) against a faithful reproduction of the scalar
//! implementation it replaced: the per-element `row_mut` activation loop
//! and the four-pass per-row softmax with libm `exp`. The harness asserts
//! the ≥2x speedup on ReLU training forward and softmax-CE at batch ≥ 32
//! whenever the machine dispatches at least AVX2; on scalar-only hardware
//! the gate is skipped with a logged reason.
//!
//! Run with `--quick` (as CI does) for a single-shape smoke run. Results
//! land in `BENCH_elementwise.json` at the repository root.

use hpnn_bench::timing::{bench, bench_output_path, group, quick, write_json, BenchResult};
use hpnn_nn::{softmax_cross_entropy, ActKind, Activation, Layer};
use hpnn_tensor::simd::{self, SimdLevel};
use hpnn_tensor::{Rng, Shape, Tensor};

/// The pre-vectorization activation forward: per-row `row_mut`, per-element
/// dmask branch — exactly the loop `Activation::forward` ran before the
/// simd dispatch layer existed.
fn baseline_relu_forward(
    input: &Tensor,
    factors: Option<&[f32]>,
    train: bool,
) -> (Tensor, Option<Tensor>) {
    let (batch, features) = (input.shape().rows(), input.shape().cols());
    let mut out = input.clone();
    let mut dmask = if train {
        Some(Tensor::zeros([batch, features]))
    } else {
        None
    };
    let kind = ActKind::Relu;
    for r in 0..batch {
        let row = out.row_mut(r);
        match factors {
            Some(factors) => {
                for (j, v) in row.iter_mut().enumerate() {
                    let z = factors[j] * *v;
                    let y = kind.eval(z);
                    if let Some(d) = dmask.as_mut() {
                        d.row_mut(r)[j] = kind.deriv(z, y) * factors[j];
                    }
                    *v = y;
                }
            }
            None => {
                for (j, v) in row.iter_mut().enumerate() {
                    let z = *v;
                    let y = kind.eval(z);
                    if let Some(d) = dmask.as_mut() {
                        d.row_mut(r)[j] = kind.deriv(z, y);
                    }
                    *v = y;
                }
            }
        }
    }
    (out, dmask)
}

/// The pre-vectorization softmax cross-entropy: per-row max fold, libm
/// `exp` + sum, divide, then label/scale passes.
fn baseline_softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (batch, classes) = (logits.shape().rows(), logits.shape().cols());
    let mut grad = Tensor::zeros([batch, classes]);
    let mut loss = 0.0f32;
    let scale = 1.0 / batch as f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let g = grad.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in g.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        for o in g.iter_mut() {
            *o /= sum;
        }
        loss -= (g[label].max(1e-12)).ln();
        g[label] -= 1.0;
        for v in g.iter_mut() {
            *v *= scale;
        }
    }
    (loss * scale, grad)
}

/// The pre-vectorization bias broadcast loop.
fn baseline_add_row_bias(data: &mut [f32], cols: usize, bias: &[f32]) {
    for row in data.chunks_exact_mut(cols) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

fn lock_factors(features: usize) -> Vec<f32> {
    (0..features)
        .map(|j| if j % 3 == 0 { -1.0 } else { 1.0 })
        .collect()
}

/// Vectorized vs baseline ReLU must agree bit-for-bit; softmax-CE uses the
/// polynomial exp, so it is compared within tolerance instead.
fn sanity_check(batch: usize, features: usize, classes: usize, rng: &mut Rng) {
    let z = Tensor::randn([batch, features], 1.0, rng);
    let factors = lock_factors(features);
    for f in [None, Some(factors.as_slice())] {
        let (want_y, want_d) = baseline_relu_forward(&z, f, true);
        let mut act = Activation::new(ActKind::Relu, features);
        if let Some(f) = f {
            act.set_lock_factors(f);
        }
        let y = act.forward(&z, true);
        assert_eq!(y.data(), want_y.data(), "relu forward diverged");
        let ones = Tensor::from_vec(Shape::d2(batch, features), vec![1.0; batch * features])
            .expect("ones volume");
        let dx = act.backward(&ones);
        assert_eq!(dx.data(), want_d.expect("train dmask").data(), "relu dmask");
    }

    let logits = Tensor::randn([batch, classes], 2.0, rng);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % classes).collect();
    let (want_loss, want_grad) = baseline_softmax_cross_entropy(&logits, &labels);
    let out = softmax_cross_entropy(&logits, &labels);
    assert!(
        (out.loss - want_loss).abs() < 1e-4 * want_loss.abs().max(1.0),
        "softmax-CE loss diverged: {} vs {want_loss}",
        out.loss
    );
    assert!(
        out.grad.max_abs_diff(&want_grad) < 1e-6,
        "softmax-CE gradient diverged by {}",
        out.grad.max_abs_diff(&want_grad)
    );

    let bias: Vec<f32> = (0..features).map(|j| j as f32 * 0.01 - 1.0).collect();
    let bias_t = Tensor::from_vec(Shape::d2(1, features), bias.clone()).expect("bias volume");
    let mut want = z.clone();
    baseline_add_row_bias(want.data_mut(), features, &bias);
    let mut got = z.clone();
    got.add_row_bias(&bias_t);
    assert_eq!(got.data(), want.data(), "bias broadcast diverged");
}

fn main() {
    let quick = quick();
    let level = simd::probe();
    println!("elementwise bench: dispatch level {}", level.name());

    let mut rng = Rng::new(42);
    sanity_check(8, 37, 23, &mut rng);

    // (batch, features) for ReLU/bias; (batch, classes) for softmax-CE.
    let shapes: &[(usize, usize)] = if quick {
        &[(32, 1024)]
    } else {
        &[(32, 1024), (64, 2048)]
    };
    let ce_shapes: &[(usize, usize)] = if quick {
        &[(32, 1000)]
    } else {
        &[(32, 1000), (64, 1000)]
    };

    let mut results: Vec<BenchResult> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut gated: Vec<(String, f64)> = Vec::new();

    for &(batch, features) in shapes {
        let tag = format!("b{batch}xf{features}");
        group(&format!("relu {tag}"));
        let z = Tensor::randn([batch, features], 1.0, &mut rng);
        let factors = lock_factors(features);

        for (variant, f) in [("unlocked", None), ("locked", Some(factors.as_slice()))] {
            let base_train = bench(&format!("relu_train/{variant}/{tag}/baseline"), || {
                baseline_relu_forward(&z, f, true)
            });
            base_train.report();
            let mut act = Activation::new(ActKind::Relu, features);
            if let Some(f) = f {
                act.set_lock_factors(f);
            }
            let vec_train = bench(&format!("relu_train/{variant}/{tag}/simd"), || {
                act.forward(&z, true)
            });
            vec_train.report();
            let speedup = base_train.mean_ns / vec_train.mean_ns;
            println!("relu_train/{variant}/{tag} speedup {speedup:.2}x");
            metrics.push((format!("speedup_relu_train/{variant}/{tag}"), speedup));
            if batch >= 32 {
                gated.push((format!("relu_train/{variant}/{tag}"), speedup));
            }
            results.push(base_train);
            results.push(vec_train);
        }

        let base_eval = bench(&format!("relu_eval/{tag}/baseline"), || {
            baseline_relu_forward(&z, None, false)
        });
        base_eval.report();
        let mut act = Activation::new(ActKind::Relu, features);
        let vec_eval = bench(&format!("relu_eval/{tag}/simd"), || act.forward(&z, false));
        vec_eval.report();
        metrics.push((
            format!("speedup_relu_eval/{tag}"),
            base_eval.mean_ns / vec_eval.mean_ns,
        ));
        results.push(base_eval);
        results.push(vec_eval);

        group(&format!("bias {tag}"));
        let bias: Vec<f32> = (0..features).map(|j| j as f32 * 0.01 - 1.0).collect();
        let bias_t = Tensor::from_vec(Shape::d2(1, features), bias.clone()).expect("bias volume");
        let mut buf = z.clone();
        let base_bias = bench(&format!("bias/{tag}/baseline"), || {
            baseline_add_row_bias(buf.data_mut(), features, &bias)
        });
        base_bias.report();
        let mut buf = z.clone();
        let vec_bias = bench(&format!("bias/{tag}/simd"), || buf.add_row_bias(&bias_t));
        vec_bias.report();
        metrics.push((
            format!("speedup_bias/{tag}"),
            base_bias.mean_ns / vec_bias.mean_ns,
        ));
        results.push(base_bias);
        results.push(vec_bias);
    }

    for &(batch, classes) in ce_shapes {
        let tag = format!("b{batch}xc{classes}");
        group(&format!("softmax-CE {tag}"));
        let logits = Tensor::randn([batch, classes], 2.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % classes).collect();
        let base_ce = bench(&format!("softmax_ce/{tag}/baseline"), || {
            baseline_softmax_cross_entropy(&logits, &labels)
        });
        base_ce.report();
        let vec_ce = bench(&format!("softmax_ce/{tag}/simd"), || {
            softmax_cross_entropy(&logits, &labels)
        });
        vec_ce.report();
        let speedup = base_ce.mean_ns / vec_ce.mean_ns;
        println!("softmax_ce/{tag} speedup {speedup:.2}x");
        metrics.push((format!("speedup_softmax_ce/{tag}"), speedup));
        if batch >= 32 {
            gated.push((format!("softmax_ce/{tag}"), speedup));
        }
        results.push(base_ce);
        results.push(vec_ce);
    }

    metrics.push((
        "simd_level".to_string(),
        match level {
            SimdLevel::Scalar => 0.0,
            SimdLevel::Avx2 => 1.0,
            SimdLevel::Avx512 => 2.0,
        },
    ));
    let metric_refs: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let out = bench_output_path("BENCH_elementwise.json");
    write_json(&out, "elementwise", &metric_refs, &results).expect("write BENCH_elementwise.json");
    println!("\nwrote {}", out.display());

    if level < SimdLevel::Avx2 {
        println!(
            "SKIP: ≥2x vectorized-vs-scalar gate needs AVX2; this machine \
             dispatches at {} (detection clamped by HPNN_SIMD, if set)",
            level.name()
        );
        return;
    }
    for (label, s) in &gated {
        assert!(
            *s >= 2.0,
            "{label}: vectorized path only {s:.2}x over the scalar baseline \
             (gate: ≥2x at batch ≥32 on AVX2-capable hardware)"
        );
    }
    println!(
        "all gates passed: {} vectorized-vs-scalar speedups ≥2x",
        gated.len()
    );
}
