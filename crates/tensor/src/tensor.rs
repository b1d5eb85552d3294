//! The dense `f32` tensor used by the CPU engines and the framework.

use crate::fill::DeterministicRng;
use crate::shape::Shape4;

/// A dense `f32` tensor in NCHW layout.
///
/// Because N is the outermost dimension, the samples `[lo, hi)` occupy the
/// contiguous byte range `[lo * sample_len, hi * sample_len)`; micro-batch
/// views are therefore plain subslices (`batch_slice` / `batch_slice_mut`).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Allocate a zero-filled tensor.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Allocate a tensor filled with a constant.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Build a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics when the buffer length does not match the shape.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), shape.len(), "buffer length must match shape");
        Self { shape, data }
    }

    /// Deterministic pseudo-random fill in `[-1, 1)`, reproducible across
    /// runs and platforms (used instead of dataset pixels; see DESIGN.md).
    pub fn random(shape: Shape4, seed: u64) -> Self {
        let mut rng = DeterministicRng::new(seed);
        let data = (0..shape.len())
            .map(|_| rng.next_uniform() * 2.0 - 1.0)
            .collect();
        Self { shape, data }
    }

    /// Shape of this tensor.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Flat read-only view of the whole buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the whole buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.shape.index(n, c, h, w);
        self.data[i] = v;
    }

    /// Contiguous read-only view of samples `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo > hi` or `hi` exceeds the batch size.
    pub fn batch_slice(&self, lo: usize, hi: usize) -> &[f32] {
        assert!(
            lo <= hi && hi <= self.shape.n,
            "batch range {lo}..{hi} out of 0..{}",
            self.shape.n
        );
        let s = self.shape.sample_len();
        &self.data[lo * s..hi * s]
    }

    /// Contiguous mutable view of samples `[lo, hi)`.
    pub fn batch_slice_mut(&mut self, lo: usize, hi: usize) -> &mut [f32] {
        assert!(
            lo <= hi && hi <= self.shape.n,
            "batch range {lo}..{hi} out of 0..{}",
            self.shape.n
        );
        let s = self.shape.sample_len();
        &mut self.data[lo * s..hi * s]
    }

    /// `self = alpha * other + beta * self`, the cuDNN output-scaling
    /// convention μ-cuDNN relies on to accumulate filter gradients across
    /// micro-batches (`beta = 1`).
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn axpby(&mut self, alpha: f32, other: &Tensor, beta: f32) {
        assert_eq!(self.shape, other.shape, "axpby shape mismatch");
        for (d, s) in self.data.iter_mut().zip(other.data.iter()) {
            *d = alpha * *s + beta * *d;
        }
    }

    /// Sum of all elements (testing helper).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Fill with zeros in place, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: Shape4) -> Tensor {
        Tensor::from_vec(shape, (0..shape.len()).map(|i| i as f32).collect())
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape4::new(1, 2, 2, 2));
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(Shape4::new(1, 2, 2, 2), 3.0);
        assert_eq!(f.sum(), 24.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(Shape4::new(2, 3, 4, 5));
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.get(1, 2, 3, 4), 7.5);
        assert_eq!(t.as_slice()[t.shape().index(1, 2, 3, 4)], 7.5);
    }

    #[test]
    fn batch_slice_is_contiguous_view() {
        let t = seq_tensor(Shape4::new(4, 2, 1, 3));
        let s = t.shape().sample_len();
        let view = t.batch_slice(1, 3);
        assert_eq!(view.len(), 2 * s);
        assert_eq!(view[0], s as f32);
        assert_eq!(view[view.len() - 1], (3 * s - 1) as f32);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(Shape4::new(2, 2, 4, 4), 7);
        let b = Tensor::random(Shape4::new(2, 2, 4, 4), 7);
        let c = Tensor::random(Shape4::new(2, 2, 4, 4), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn axpby_accumulates() {
        let shape = Shape4::new(1, 1, 2, 2);
        let mut acc = Tensor::full(shape, 1.0);
        let g = Tensor::full(shape, 2.0);
        // acc = 1*g + 1*acc  (the BackwardFilter accumulation mode)
        acc.axpby(1.0, &g, 1.0);
        assert_eq!(acc.as_slice(), &[3.0; 4]);
        // acc = 2*g + 0*acc  (overwrite mode with scaling)
        acc.axpby(2.0, &g, 0.0);
        assert_eq!(acc.as_slice(), &[4.0; 4]);
    }

    #[test]
    #[should_panic(expected = "batch range")]
    fn batch_slice_rejects_out_of_range() {
        let t = Tensor::zeros(Shape4::new(2, 1, 1, 1));
        let _ = t.batch_slice(1, 3);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut t = Tensor::random(Shape4::new(2, 2, 2, 2), 3);
        t.clear();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.shape(), Shape4::new(2, 2, 2, 2));
    }
}
