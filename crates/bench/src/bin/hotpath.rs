//! Hot-path kernel benchmark: the packed/planned execution substrate
//! against the retained naive references.
//!
//! Each row times one kernel two ways on identical inputs:
//!
//! * **naive** — the reference path kept for exactly this purpose
//!   (`sgemm_ref` triple loops, scalar per-tile Winograd transforms with
//!   16/36 separate naive GEMMs);
//! * **fast** — the register-blocked packed GEMM with a warm
//!   [`ucudnn_conv::EnginePlan`], i.e. what a layer's second and later
//!   micro-batches execute. The im2col rows time the zero-workspace
//!   im2col+GEMM engine twice: on one worker (`_1t`) and on every execution
//!   worker (`_mt`); the other rows are single-threaded engines.
//!
//! The `maxpool` rows time the RealCpu 2×2/2 max-pooling kernels at
//! `train`'s conv1 and conv2 output shapes: naive is the per-element
//! reference loop (`ops::pooling::*_ref`), fast the kernel a RealCpu handle
//! runs. Their `flops` count the window elements read.
//!
//! Results go to stdout and to `BENCH_hotpath.json` (override with
//! `--out <path>`): per-kernel GFLOP/s for both paths plus the speedup.
//! `--smoke` shrinks repetitions for CI. The committed JSON at the repo
//! root backs the numbers quoted in README's Performance section.

use std::time::Instant;
use ucudnn_conv::gemm::{sgemm, sgemm_ref, Trans};
use ucudnn_conv::parallel::{max_workers, set_thread_cap};
use ucudnn_conv::{exec_ref, exec_with_plan, im2col, im2col_gemm, ConvOp, EngineKind, EnginePlan};
use ucudnn_cudnn_sim::ops::pooling;
use ucudnn_cudnn_sim::{CudnnHandle, PoolingDescriptor, PoolingMode, TensorDescriptor};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4, Tensor};

/// One benchmarked kernel: label, shape note, FLOPs per call, and the two
/// timed closures.
struct Kernel<'a> {
    name: &'static str,
    shape: String,
    flops: f64,
    /// Execution workers the fast path may use (the naive path uses one).
    workers: usize,
    naive: Box<dyn FnMut() + 'a>,
    fast: Box<dyn FnMut() + 'a>,
}

struct Row {
    name: &'static str,
    shape: String,
    flops: f64,
    workers: usize,
    naive_us: f64,
    fast_us: f64,
}

impl Row {
    fn naive_gflops(&self) -> f64 {
        self.flops / self.naive_us / 1e3
    }
    fn fast_gflops(&self) -> f64 {
        self.flops / self.fast_us / 1e3
    }
    fn speedup(&self) -> f64 {
        self.naive_us / self.fast_us
    }
}

/// Best-of-`reps` wall times of each kernel's naive and fast paths, in
/// microseconds. Each kernel's pair is interleaved, so both paths see the
/// same background noise, and the kernels are timed in rounds, one pair per
/// kernel per round, so every row samples the same host phases and rows
/// compare with each other. Minimum time is the standard noise-robust
/// estimator on a shared machine (noise only ever adds time).
fn time_pairs_us(reps: usize, kernels: &mut [Kernel]) -> Vec<(f64, f64)> {
    let one = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e6
    };
    // Warm-up: populates plans/caches so "fast" measures the steady state.
    for kern in kernels.iter_mut() {
        one(&mut kern.naive);
        one(&mut kern.fast);
    }
    let mut best = vec![(f64::INFINITY, f64::INFINITY); kernels.len()];
    for _ in 0..reps.max(1) {
        for (kern, (naive, fast)) in kernels.iter_mut().zip(&mut best) {
            *naive = naive.min(one(&mut kern.naive));
            *fast = fast.min(one(&mut kern.fast));
        }
    }
    best
}

fn filled(len: usize, seed: usize) -> Vec<f32> {
    // Deterministic, non-degenerate values in roughly [-1, 1].
    (0..len)
        .map(|i| {
            let v = ((i * 2654435761 + seed * 40503) % 2048) as f32;
            v / 1024.0 - 1.0
        })
        .collect()
}

fn json_escape_free(s: &str) -> &str {
    assert!(
        !s.contains(['"', '\\']) && s.is_ascii(),
        "labels must not need JSON escaping: {s}"
    );
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = ucudnn_bench::flag_value(&args, "--out", "hotpath [--smoke] [--out <path>]")
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let reps = if smoke { 9 } else { 12 };

    // ResNet-shaped 3x3 layer (conv2_x: 64 ch, 56x56) at micro-batch 8 —
    // the acceptance-gate kernel — plus the raw GEMM it lowers to and the
    // other planned engines.
    let g_resnet = ConvGeometry::with_square(
        Shape4::new(8, 64, 56, 56),
        FilterShape::new(64, 64, 3, 3),
        1,
        1,
    );
    // VGG-shaped 3x3 layer: more channels, smaller image.
    let g_vgg = ConvGeometry::with_square(
        Shape4::new(8, 256, 14, 14),
        FilterShape::new(256, 256, 3, 3),
        1,
        1,
    );

    let mut rows: Vec<Row> = Vec::new();
    {
        // Raw GEMM at the ResNet lowering shape: K x CRS @ CRS x HoWo.
        let (m, k, n) = (64, 64 * 9, 56 * 56);
        let a = filled(m * k, 1);
        let b = filled(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        let mut kernels = vec![Kernel {
            name: "sgemm",
            shape: format!("{m}x{n}x{k}"),
            flops: 2.0 * (m * n * k) as f64,
            workers: 1,
            naive: Box::new({
                let (a, b) = (a.clone(), b.clone());
                let mut c = c.clone();
                move || sgemm_ref(Trans::No, Trans::No, m, n, k, 1.0, &a, &b, 0.0, &mut c)
            }),
            fast: Box::new(move || sgemm(Trans::No, Trans::No, m, n, k, 1.0, &a, &b, 0.0, &mut c)),
        }];

        for (tag, g) in [("resnet3x3", &g_resnet), ("vgg3x3", &g_vgg)] {
            let conv_kernels = planned_conv_kernels(tag, g);
            kernels.extend(conv_kernels);
        }
        kernels.extend(aux_kernels());

        let times = time_pairs_us(reps, &mut kernels);
        for (kern, (naive_us, fast_us)) in kernels.iter().zip(times) {
            rows.push(Row {
                name: kern.name,
                shape: kern.shape.clone(),
                flops: kern.flops,
                workers: kern.workers,
                naive_us,
                fast_us,
            });
        }
    }

    println!(
        "{:<28} {:>16} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "kernel", "shape", "workers", "naive GF/s", "fast GF/s", "fast us", "speedup"
    );
    for r in &rows {
        println!(
            "{:<28} {:>16} {:>8} {:>12.2} {:>12.2} {:>12.1} {:>8.2}x",
            r.name,
            r.shape,
            r.workers,
            r.naive_gflops(),
            r.fast_gflops(),
            r.fast_us,
            r.speedup()
        );
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"shape\": \"{}\", \"flops\": {}, \
                 \"workers\": {}, \"naive_us\": {:.3}, \"fast_us\": {:.3}, \
                 \"naive_gflops\": {:.3}, \"fast_gflops\": {:.3}, \
                 \"speedup\": {:.3}}}",
                json_escape_free(r.name),
                json_escape_free(&r.shape),
                r.flops,
                r.workers,
                r.naive_us,
                r.fast_us,
                r.naive_gflops(),
                r.fast_gflops(),
                r.speedup()
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"smoke\": {},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        smoke,
        body.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("cannot create output directory");
    }
    std::fs::write(&out, doc).expect("cannot write benchmark JSON");
    println!("[json] wrote {out}");
}

/// Build the naive/fast kernel pairs for the planned conv engines on `g`.
fn planned_conv_kernels(tag: &'static str, g: &ConvGeometry) -> Vec<Kernel<'static>> {
    let g = *g;
    let x = Tensor::random(g.input, 11).as_slice().to_vec();
    let w = Tensor::random(g.filter.as_shape4(), 12).as_slice().to_vec();
    let y_len = g.output().len();
    let macs = g.macs() as f64;
    let mut kernels = Vec::new();

    // im2col+GEMM forward: naive = im2col + sgemm_ref per sample (the
    // pre-substrate path), fast = warm plan + packed GEMM over bounded
    // blocks, once on one worker and once on every execution worker.
    for (suffix, cap) in [("1t", Some(1)), ("mt", None)] {
        let naive = im2col_naive(g, x.clone(), w.clone());
        let (xa, wa) = (x.clone(), w.clone());
        let mut y = vec![0.0f32; y_len];
        let mut plan = ucudnn_conv::plan::GemmPlan::default();
        let fast = Box::new(move || {
            let prev = set_thread_cap(cap);
            im2col_gemm::forward_with_plan(&g, &xa, &wa, &mut y, 1.0, 0.0, &mut plan);
            set_thread_cap(prev);
        });
        kernels.push(Kernel {
            name: match (tag, suffix) {
                ("resnet3x3", "1t") => "im2col_fwd_resnet3x3_1t",
                ("resnet3x3", _) => "im2col_fwd_resnet3x3_mt",
                (_, "1t") => "im2col_fwd_vgg3x3_1t",
                _ => "im2col_fwd_vgg3x3_mt",
            },
            shape: format!("{g}"),
            flops: 2.0 * macs,
            workers: cap.unwrap_or_else(max_workers),
            naive,
            fast,
        });
    }

    // Winograd forward, F(2x2) and F(4x4) tiles: naive = scalar per-tile
    // transforms and 16/36 separate naive GEMMs, fast = strip-vectorized
    // transforms writing ξ-major packed panels into one batched prepacked
    // GEMM, warm plan.
    for (engine, resnet_name, vgg_name) in [
        (
            EngineKind::Winograd,
            "winograd_fwd_resnet3x3",
            "winograd_fwd_vgg3x3",
        ),
        (
            EngineKind::WinogradF4,
            "winograd4_fwd_resnet3x3",
            "winograd4_fwd_vgg3x3",
        ),
    ] {
        let op = ConvOp::Forward;
        if !ucudnn_conv::supports(engine, op, &g) {
            continue;
        }
        let ws_len = ucudnn_conv::workspace_floats(engine, op, &g);
        let (xa, wa) = (x.clone(), w.clone());
        let mut y = vec![0.0f32; y_len];
        let mut ws = vec![0.0f32; ws_len];
        let naive = Box::new(move || {
            exec_ref(engine, op, &g, &xa, &wa, &mut y, 1.0, 0.0, &mut ws).unwrap();
        });
        let (xa, wa) = (x.clone(), w.clone());
        let mut y = vec![0.0f32; y_len];
        let mut ws = vec![0.0f32; ws_len];
        let mut plan = EnginePlan::for_engine(engine);
        let fast = Box::new(move || {
            exec_with_plan(
                engine, op, &g, &xa, &wa, &mut y, 1.0, 0.0, &mut ws, &mut plan,
            )
            .unwrap();
        });
        kernels.push(Kernel {
            name: if tag == "resnet3x3" {
                resnet_name
            } else {
                vgg_name
            },
            shape: format!("{g}"),
            flops: 2.0 * macs,
            workers: 1,
            naive,
            fast,
        });
    }

    kernels
}

/// The 2×2/2 max-pool rows at `train`'s conv1 and conv2 output shapes, on
/// the ReLU of pseudo-random values in [-1, 1) (as on a conv output), which
/// ties at zero.
fn aux_kernels() -> Vec<Kernel<'static>> {
    let pool = PoolingDescriptor::square(PoolingMode::Max, 2, 0, 2).expect("2x2/2 pooling");
    let mut kernels = Vec::new();
    for (s, [fwd_name, bwd_name]) in [
        (
            Shape4::new(16, 32, 32, 32),
            ["maxpool_fwd_conv1", "maxpool_bwd_conv1"],
        ),
        (
            Shape4::new(16, 64, 16, 16),
            ["maxpool_fwd_conv2", "maxpool_bwd_conv2"],
        ),
    ] {
        let xd = TensorDescriptor::from_shape(s).expect("positive shape");
        let ys = pool.output_dim(&xd).expect("2x2 windows fit");
        let yd = TensorDescriptor::from_shape(ys).expect("positive shape");
        let act: Vec<f32> = Tensor::random(s, 3)
            .as_slice()
            .iter()
            .map(|v| v.max(0.0))
            .collect();
        let dpool = Tensor::random(ys, 5).as_slice().to_vec();

        let window_reads = (yd.len() * pool.window_h * pool.window_w) as f64;
        let shape = format!("{s} 2x2/2");
        let x = act.clone();
        let mut y = vec![0.0f32; yd.len()];
        let naive = Box::new(move || pooling::forward_ref(&pool, 1.0, s, &x, 0.0, &mut y));
        let x = act.clone();
        let mut y = vec![0.0f32; yd.len()];
        let h = CudnnHandle::real_cpu();
        let fast = Box::new(move || {
            h.pooling_forward(&pool, 1.0, &xd, &x, 0.0, &yd, &mut y)
                .expect("max-pool forward");
        });
        kernels.push(Kernel {
            name: fwd_name,
            shape: shape.clone(),
            flops: window_reads,
            workers: 1,
            naive,
            fast,
        });

        let (x, g) = (act.clone(), dpool.clone());
        let mut dx = vec![0.0f32; s.len()];
        let naive = Box::new(move || pooling::backward_ref(&pool, 1.0, s, &g, &x, 0.0, &mut dx));
        let (x, g) = (act, dpool);
        let y = vec![0.0f32; yd.len()];
        let mut dx = vec![0.0f32; s.len()];
        let h = CudnnHandle::real_cpu();
        let fast = Box::new(move || {
            h.pooling_backward(&pool, 1.0, &yd, &y, &yd, &g, &xd, &x, 0.0, &xd, &mut dx)
                .expect("max-pool backward");
        });
        kernels.push(Kernel {
            name: bwd_name,
            shape,
            flops: window_reads,
            workers: 1,
            naive,
            fast,
        });
    }
    kernels
}

/// The im2col rows' naive path on `g`: per sample, the explicit `im2col`
/// lowering and the `sgemm_ref` triple loop.
fn im2col_naive(g: ConvGeometry, x: Vec<f32>, w: Vec<f32>) -> Box<dyn FnMut()> {
    let mut y = vec![0.0f32; g.output().len()];
    let mut col = vec![0.0f32; im2col::col_len(&g)];
    Box::new(move || {
        let (k, crs) = (g.filter.k, g.input.c * g.filter.r * g.filter.s);
        let howo = g.out_h() * g.out_w();
        let in_sample = g.input.sample_len();
        for ni in 0..g.input.n {
            im2col::im2col(&g, &x[ni * in_sample..(ni + 1) * in_sample], &mut col);
            sgemm_ref(
                Trans::No,
                Trans::No,
                k,
                howo,
                crs,
                1.0,
                &w,
                &col,
                0.0,
                &mut y[ni * k * howo..(ni + 1) * k * howo],
            );
        }
    })
}
