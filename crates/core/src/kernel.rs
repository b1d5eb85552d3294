//! Kernel identity: the unit the optimizer reasons about.
//!
//! A *kernel* is one convolution operation (Forward, BackwardData or
//! BackwardFilter) of one layer geometry. Networks that replicate layers of
//! the same size (ResNet) produce identical keys, which is what makes the
//! benchmark/configuration caches effective (§III-D).

use ucudnn_cudnn_sim::ConvOp;
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// Unique identity of an optimizable kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Which convolution operation.
    pub op: ConvOp,
    /// Full mini-batch input shape.
    pub input: Shape4,
    /// Filter shape.
    pub filter: FilterShape,
    /// Height padding.
    pub pad_h: usize,
    /// Width padding.
    pub pad_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
}

impl KernelKey {
    /// Build a key from an operation and geometry.
    pub fn new(op: ConvOp, g: &ConvGeometry) -> Self {
        Self {
            op,
            input: g.input,
            filter: g.filter,
            pad_h: g.pad_h,
            pad_w: g.pad_w,
            stride_h: g.stride_h,
            stride_w: g.stride_w,
        }
    }

    /// The geometry at the full mini-batch size.
    pub fn geometry(&self) -> ConvGeometry {
        ConvGeometry::new(
            self.input,
            self.filter,
            self.pad_h,
            self.pad_w,
            self.stride_h,
            self.stride_w,
        )
    }

    /// The geometry built field by field, without [`ConvGeometry::new`]'s
    /// validation: the fields are public, so a key can hold a geometry
    /// that `new` rejects. Rendering and validating a key read this.
    pub(crate) fn raw_geometry(&self) -> ConvGeometry {
        ConvGeometry {
            input: self.input,
            filter: self.filter,
            pad_h: self.pad_h,
            pad_w: self.pad_w,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
        }
    }

    /// The same kernel at a micro-batch size: the key its benchmarks are
    /// cached under.
    pub fn with_batch(&self, micro_batch: usize) -> Self {
        Self {
            input: self.input.with_batch(micro_batch),
            ..*self
        }
    }

    /// The operation.
    pub fn conv_op(&self) -> ConvOp {
        self.op
    }

    /// Mini-batch size.
    pub fn batch(&self) -> usize {
        self.input.n
    }
}

impl core::fmt::Display for KernelKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}[{}]", self.op, self.raw_geometry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn g() -> ConvGeometry {
        ConvGeometry::with_square(
            Shape4::new(256, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        )
    }

    #[test]
    fn geometry_round_trip() {
        let k = KernelKey::new(ConvOp::Forward, &g());
        assert_eq!(k.geometry(), g());
        assert_eq!(k.batch(), 256);
        assert_eq!(k.with_batch(32).geometry().batch(), 32);
    }

    #[test]
    fn identical_layers_share_a_key() {
        let a = KernelKey::new(ConvOp::BackwardData, &g());
        let b = KernelKey::new(ConvOp::BackwardData, &g());
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn display_renders_an_invalid_key_without_panicking() {
        let valid = KernelKey::new(ConvOp::Forward, &g());
        assert_eq!(valid.to_string(), format!("{}[{}]", ConvOp::Forward, g()));
        let bad = KernelKey {
            stride_h: 0,
            ..valid
        };
        let text = bad.to_string();
        assert!(text.contains("stride=0x"), "{text}");
    }

    #[test]
    fn different_ops_are_different_kernels() {
        let a = KernelKey::new(ConvOp::Forward, &g());
        let b = KernelKey::new(ConvOp::BackwardFilter, &g());
        assert_ne!(a, b);
    }
}
