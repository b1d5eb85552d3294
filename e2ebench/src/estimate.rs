//! Host-phase-robust estimators.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up to
//! ~2× in phases of seconds to minutes, without steal time showing. A raw
//! median of wall times inherits those phases, so each wall-clock metric is
//! estimated against a benchmark-owned reference workload sampled right
//! next to the measured work: the ratio of the two is steady across phases,
//! and scaling it by a fixed nominal duration keeps the metric in seconds.
//!
//! A reference sample has two parts: scalar compute (128³ f32 matrix
//! multiplies written with bounds-checked indexing, so they stay scalar)
//! and memory traffic (a triad over two 4 MiB arrays), about eight to one
//! by time. Work that computes (training steps, planning, plan replay,
//! server construction) is normalised by the whole sample, serving traffic
//! (socket copies and request parsing) by the memory part alone ([`Mix`]).
//! On the development VM (2 vCPUs), across 5 processes whose raw median
//! training steps ranged over 66..113 ms, the step's median ratio to the
//! whole sample ranged over 2%; across 6 serving processes, the closed-loop
//! time per request normalised by the memory part ranged over 5%, by the
//! whole sample over 49%.

use std::hint::black_box;
use std::time::Instant;

/// Side of the reference matrices.
const REF_N: usize = 128;
/// Matrix multiplies per reference sample.
const REF_MATMULS: usize = 8;
/// Elements of each triad array (4 MiB of f32, twice the L2 of one core of
/// the development VM).
const REF_STREAM_LEN: usize = 1 << 20;
/// Triad passes per reference sample.
const REF_PASSES: usize = 2;

/// One reference sample, seconds per part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefSample {
    /// The matrix multiplies.
    pub compute_s: f64,
    /// The triad passes.
    pub memory_s: f64,
}

impl RefSample {
    /// Both parts.
    pub fn whole_s(&self) -> f64 {
        self.compute_s + self.memory_s
    }

    /// Part-wise mean of the samples taken before and after a measurement.
    pub fn mean(a: &RefSample, b: &RefSample) -> RefSample {
        RefSample {
            compute_s: 0.5 * (a.compute_s + b.compute_s),
            memory_s: 0.5 * (a.memory_s + b.memory_s),
        }
    }
}

/// Which part of a reference sample normalises a measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mix {
    /// The whole sample.
    #[default]
    Whole,
    /// The memory part alone.
    Memory,
}

impl Mix {
    fn of(self, r: &RefSample) -> f64 {
        match self {
            Mix::Whole => r.whole_s(),
            Mix::Memory => r.memory_s,
        }
    }

    /// Fixed scale of the normalised values: one reference part is counted
    /// as this many seconds (about its duration on the unloaded development
    /// VM, so estimates read close to raw wall times there). A unit
    /// conversion, not a measurement; it never changes between runs.
    pub fn nominal_s(self) -> f64 {
        match self {
            Mix::Whole => 0.005,
            Mix::Memory => 0.001,
        }
    }
}

/// The benchmark-owned reference workload.
pub struct RefLoop {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    samples: Vec<RefSample>,
}

impl Default for RefLoop {
    fn default() -> Self {
        Self::new()
    }
}

impl RefLoop {
    /// Reference buffers with fixed contents (8.2 MiB in all).
    pub fn new() -> Self {
        let fill = |len: usize, k: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 7 + k) % 13) as f32 / 13.0 - 0.5)
                .collect()
        };
        Self {
            a: fill(REF_N * REF_N, 1),
            b: fill(REF_N * REF_N, 5),
            c: vec![0.0; REF_N * REF_N],
            x: fill(REF_STREAM_LEN, 3),
            y: fill(REF_STREAM_LEN, 9),
            samples: Vec::new(),
        }
    }

    /// One reference sample; every sample is kept for the host-phase
    /// record.
    pub fn sample(&mut self) -> RefSample {
        let start = Instant::now();
        for _ in 0..REF_MATMULS {
            matmul(black_box(&self.a), black_box(&self.b), &mut self.c);
            black_box(&mut self.c);
        }
        let compute_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..REF_PASSES {
            for (p, &q) in self.x.iter_mut().zip(black_box(&self.y)) {
                *p = *p * 0.5 + q;
            }
            black_box(&mut self.x);
        }
        let s = RefSample {
            compute_s,
            memory_s: start.elapsed().as_secs_f64(),
        };
        self.samples.push(s);
        s
    }

    /// Median and range of each part, in milliseconds, for the run log.
    pub fn summary(&self) -> String {
        let part = |f: fn(&RefSample) -> f64| -> String {
            let ms: Vec<f64> = self.samples.iter().map(|s| f(s) * 1e3).collect();
            format!(
                "median {:.4} ms, range {:.4}..{:.4} ms",
                median(&ms),
                min(&ms),
                max(&ms)
            )
        };
        format!(
            "compute part {}; memory part {}; {} samples",
            part(|s| s.compute_s),
            part(|s| s.memory_s),
            self.samples.len()
        )
    }
}

fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    for i in 0..REF_N {
        for k in 0..REF_N {
            let aik = a[i * REF_N + k];
            for j in 0..REF_N {
                c[i * REF_N + j] += aik * b[k * REF_N + j];
            }
        }
    }
}

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `p` in `0..=1`; NaN when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Smallest value; +inf when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value; -inf when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Wall times paired with the reference taken beside each.
#[derive(Debug, Default, Clone)]
pub struct Paired {
    /// Which reference part normalises these measurements.
    pub mix: Mix,
    /// Measured wall times, seconds.
    pub raw: Vec<f64>,
    /// The normalising reference part, seconds, one per measurement.
    pub reference: Vec<f64>,
}

impl Paired {
    /// An empty series normalised by `mix`.
    pub fn new(mix: Mix) -> Self {
        Self {
            mix,
            ..Self::default()
        }
    }

    /// Record one measurement with its reference sample.
    pub fn push(&mut self, raw_s: f64, reference: &RefSample) {
        self.raw.push(raw_s);
        self.reference.push(self.mix.of(reference));
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Reference-normalised values in seconds: `raw / reference × nominal`.
    pub fn normalised(&self) -> Vec<f64> {
        let nominal = self.mix.nominal_s();
        self.raw
            .iter()
            .zip(&self.reference)
            .map(|(t, r)| t / r * nominal)
            .collect()
    }

    /// The estimator: median of the reference-normalised values, seconds.
    pub fn estimate_s(&self) -> f64 {
        median(&self.normalised())
    }

    /// The estimator for latency under host stalls: first quartile of the
    /// reference-normalised values, seconds. Stalls only ever add latency,
    /// so the low quartile keeps the slices no stall hit.
    pub fn low_estimate_s(&self) -> f64 {
        quantile(&self.normalised(), 0.25)
    }

    /// Median of the raw wall times, seconds.
    pub fn raw_median_s(&self) -> f64 {
        median(&self.raw)
    }

    /// Estimate beside the raw median and range, in milliseconds, for the
    /// run log.
    pub fn summary_ms(&self) -> String {
        let raw: Vec<f64> = self.raw.iter().map(|s| s * 1e3).collect();
        format!(
            "estimate {:.4} ms ({:?} reference); raw median {:.4} ms, range {:.4}..{:.4} ms; n = {}",
            self.estimate_s() * 1e3,
            self.mix,
            median(&raw),
            min(&raw),
            max(&raw),
            raw.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn normalisation_cancels_a_uniform_slowdown() {
        for mix in [Mix::Whole, Mix::Memory] {
            let (mut fast, mut slow) = (Paired::new(mix), Paired::new(mix));
            let r = RefSample {
                compute_s: 0.004,
                memory_s: 0.001,
            };
            let slower = RefSample {
                compute_s: 1.7 * r.compute_s,
                memory_s: 1.7 * r.memory_s,
            };
            for i in 0..5 {
                let t = 0.01 + i as f64 * 1e-4;
                fast.push(t, &r);
                slow.push(1.7 * t, &slower);
            }
            assert!((fast.estimate_s() - slow.estimate_s()).abs() < 1e-12);
            assert!(slow.raw_median_s() > fast.raw_median_s());
        }
    }
}
