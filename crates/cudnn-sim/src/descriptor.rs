//! Opaque descriptor types, mirroring `cudnnTensorDescriptor_t`,
//! `cudnnFilterDescriptor_t` and `cudnnConvolutionDescriptor_t`.
//!
//! Only the configuration the paper evaluates is supported: dense NCHW
//! single-precision tensors and 2-D cross-correlation (the mode every
//! framework uses).

use crate::error::{CudnnError, Result};
use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// A 4-D NCHW `f32` tensor descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorDescriptor {
    shape: Shape4,
}

impl TensorDescriptor {
    /// `cudnnSetTensor4dDescriptor(NCHW, FLOAT, n, c, h, w)`.
    pub fn new_4d(n: usize, c: usize, h: usize, w: usize) -> Result<Self> {
        if n == 0 || c == 0 || h == 0 || w == 0 {
            return Err(CudnnError::BadParam(format!(
                "zero tensor dimension {n}x{c}x{h}x{w}"
            )));
        }
        Ok(Self {
            shape: Shape4::new(n, c, h, w),
        })
    }

    /// Build from a shape directly.
    pub fn from_shape(shape: Shape4) -> Result<Self> {
        Self::new_4d(shape.n, shape.c, shape.h, shape.w)
    }

    /// The described shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the tensor holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }
}

/// A KCRS `f32` filter descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterDescriptor {
    shape: FilterShape,
}

impl FilterDescriptor {
    /// `cudnnSetFilter4dDescriptor(FLOAT, NCHW, k, c, r, s)`.
    pub fn new_4d(k: usize, c: usize, r: usize, s: usize) -> Result<Self> {
        if k == 0 || c == 0 || r == 0 || s == 0 {
            return Err(CudnnError::BadParam(format!(
                "zero filter dimension {k}x{c}x{r}x{s}"
            )));
        }
        Ok(Self {
            shape: FilterShape::new(k, c, r, s),
        })
    }

    /// Build from a shape directly.
    pub fn from_shape(shape: FilterShape) -> Result<Self> {
        Self::new_4d(shape.k, shape.c, shape.r, shape.s)
    }

    /// The described filter shape.
    pub fn shape(&self) -> FilterShape {
        self.shape
    }
}

/// A 2-D cross-correlation descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvolutionDescriptor {
    /// Height padding.
    pub pad_h: usize,
    /// Width padding.
    pub pad_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
}

impl ConvolutionDescriptor {
    /// `cudnnSetConvolution2dDescriptor(pad, pad, stride, stride, 1, 1,
    /// CROSS_CORRELATION, FLOAT)`. Dilation is not supported (dilation 1).
    pub fn new_2d(pad_h: usize, pad_w: usize, stride_h: usize, stride_w: usize) -> Result<Self> {
        if stride_h == 0 || stride_w == 0 {
            return Err(CudnnError::BadParam(
                "convolution stride must be positive".into(),
            ));
        }
        Ok(Self {
            pad_h,
            pad_w,
            stride_h,
            stride_w,
        })
    }

    /// Assemble the full geometry, validating descriptor compatibility —
    /// the checks cuDNN performs at call time ([`check_geometry`]).
    pub fn geometry(&self, x: &TensorDescriptor, w: &FilterDescriptor) -> Result<ConvGeometry> {
        let g = ConvGeometry {
            input: x.shape(),
            filter: w.shape(),
            pad_h: self.pad_h,
            pad_w: self.pad_w,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
        };
        check_geometry(&g)?;
        Ok(g)
    }

    /// [`Self::geometry`] of a convolution call, also checking the
    /// descriptor of its output-shaped operand (`y` forward, `dy` backward)
    /// against the computed output.
    pub fn call_geometry(
        &self,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        y: &TensorDescriptor,
    ) -> Result<ConvGeometry> {
        let g = self.geometry(x, w)?;
        if y.shape() != g.output() {
            return Err(CudnnError::BadParam(format!(
                "descriptor {} does not match the computed output {}",
                y.shape(),
                g.output()
            )));
        }
        Ok(g)
    }

    /// `cudnnGetConvolution2dForwardOutputDim`.
    pub fn forward_output_dim(&self, x: &TensorDescriptor, w: &FilterDescriptor) -> Result<Shape4> {
        Ok(self.geometry(x, w)?.output())
    }
}

/// The checks cuDNN makes of a convolution at call time: nonzero input and
/// filter dimensions, positive strides, matching channels and a padded
/// input no smaller than the filter. `ConvGeometry`'s fields are public, so
/// every geometry-taking entry point runs them too: a geometry built as a
/// struct literal is a `BadParam`, never a panic in an engine.
pub fn check_geometry(g: &ConvGeometry) -> Result<()> {
    TensorDescriptor::from_shape(g.input)?;
    FilterDescriptor::from_shape(g.filter)?;
    if g.stride_h == 0 || g.stride_w == 0 {
        return Err(CudnnError::BadParam(
            "convolution stride must be positive".into(),
        ));
    }
    let (xs, ws) = (g.input, g.filter);
    if xs.c != ws.c {
        return Err(CudnnError::BadParam(format!(
            "input channels {} != filter channels {}",
            xs.c, ws.c
        )));
    }
    if xs.h + 2 * g.pad_h < ws.r || xs.w + 2 * g.pad_w < ws.s {
        return Err(CudnnError::BadParam(format!(
            "padded input {}x{} smaller than filter {}x{}",
            xs.h + 2 * g.pad_h,
            xs.w + 2 * g.pad_w,
            ws.r,
            ws.s
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_descriptor_validates() {
        assert!(TensorDescriptor::new_4d(1, 3, 224, 224).is_ok());
        assert!(TensorDescriptor::new_4d(0, 3, 224, 224).is_err());
    }

    #[test]
    fn filter_descriptor_validates() {
        assert!(FilterDescriptor::new_4d(64, 3, 11, 11).is_ok());
        assert!(FilterDescriptor::new_4d(64, 3, 0, 11).is_err());
    }

    #[test]
    fn convolution_descriptor_rejects_zero_stride() {
        assert!(ConvolutionDescriptor::new_2d(1, 1, 0, 1).is_err());
    }

    #[test]
    fn geometry_assembly_and_output_dims() {
        let x = TensorDescriptor::new_4d(128, 3, 224, 224).unwrap();
        let w = FilterDescriptor::new_4d(64, 3, 11, 11).unwrap();
        let c = ConvolutionDescriptor::new_2d(2, 2, 4, 4).unwrap();
        let out = c.forward_output_dim(&x, &w).unwrap();
        assert_eq!(out, Shape4::new(128, 64, 55, 55));
    }

    #[test]
    fn geometry_rejects_channel_mismatch() {
        let x = TensorDescriptor::new_4d(1, 3, 8, 8).unwrap();
        let w = FilterDescriptor::new_4d(4, 5, 3, 3).unwrap();
        let c = ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap();
        assert!(matches!(c.geometry(&x, &w), Err(CudnnError::BadParam(_))));
    }

    #[test]
    fn geometry_rejects_filter_larger_than_input() {
        let x = TensorDescriptor::new_4d(1, 1, 2, 2).unwrap();
        let w = FilterDescriptor::new_4d(1, 1, 5, 5).unwrap();
        let c = ConvolutionDescriptor::new_2d(0, 0, 1, 1).unwrap();
        assert!(c.geometry(&x, &w).is_err());
    }
}
