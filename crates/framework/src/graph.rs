//! The layer graph: a small Caffe-like network IR.
//!
//! Networks are DAGs of typed layers. The graph performs shape inference and
//! enumerates the convolution kernels a training iteration will launch —
//! the inputs both executors and the μ-cuDNN optimizer need.

use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};

/// Index of a node within its [`NetworkDef`].
pub type NodeId = usize;

/// Layer types supported by the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// The network input (data layer).
    Input,
    /// 2-D convolution (cross-correlation) with bias.
    Conv {
        /// Number of output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Max or average pooling.
    Pool {
        /// `true` for max pooling, `false` for average.
        max: bool,
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Rectified linear unit (in-place in Caffe; a separate node here).
    Relu,
    /// Batch normalization with learned scale/shift.
    BatchNorm,
    /// Fully connected layer (flattens its input) with bias.
    FullyConnected {
        /// Output features.
        out: usize,
    },
    /// Elementwise sum of two inputs (residual connections).
    Add,
    /// Channel concatenation of all inputs (DenseNet, Inception).
    Concat,
    /// Global average pooling to 1×1.
    GlobalAvgPool,
}

impl LayerSpec {
    /// Expected number of graph inputs.
    fn arity_ok(&self, n: usize) -> bool {
        match self {
            LayerSpec::Input => n == 0,
            LayerSpec::Add => n == 2,
            LayerSpec::Concat => n >= 2,
            _ => n == 1,
        }
    }

    /// Short kind name for reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Input => "input",
            LayerSpec::Conv { .. } => "conv",
            LayerSpec::Pool { .. } => "pool",
            LayerSpec::Relu => "relu",
            LayerSpec::BatchNorm => "bn",
            LayerSpec::FullyConnected { .. } => "fc",
            LayerSpec::Add => "add",
            LayerSpec::Concat => "concat",
            LayerSpec::GlobalAvgPool => "gap",
        }
    }
}

/// One node of the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Layer name (unique within the network).
    pub name: String,
    /// Layer type and hyper-parameters.
    pub spec: LayerSpec,
    /// Input nodes.
    pub inputs: Vec<NodeId>,
}

/// A network definition: nodes in topological order (enforced by the
/// builder: inputs must precede their consumers).
#[derive(Debug, Clone)]
pub struct NetworkDef {
    /// Network name (e.g. "AlexNet").
    pub name: String,
    nodes: Vec<Node>,
    input_shape: Shape4,
    /// Output shape per node, computed eagerly as nodes are added. Shapes
    /// must be memoized: recursive inference is exponential on DAGs with
    /// multi-input nodes (ResNet's Add, DenseNet's Concat).
    shapes: Vec<Shape4>,
}

impl NetworkDef {
    /// Start a network with the given input shape (N, C, H, W).
    pub fn new(name: impl Into<String>, input_shape: Shape4) -> Self {
        let nodes = vec![Node {
            name: "data".into(),
            spec: LayerSpec::Input,
            inputs: vec![],
        }];
        Self {
            name: name.into(),
            nodes,
            input_shape,
            shapes: vec![input_shape],
        }
    }

    /// The input node.
    pub fn input(&self) -> NodeId {
        0
    }

    /// The input shape.
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// Mini-batch size.
    pub fn batch(&self) -> usize {
        self.input_shape.n
    }

    /// Same network at a different mini-batch size.
    pub fn with_batch(&self, n: usize) -> Self {
        let mut out = self.clone();
        out.input_shape = out.input_shape.with_batch(n);
        // Only the batch dimension changes for every node.
        for s in &mut out.shapes {
            *s = s.with_batch(n);
        }
        out
    }

    /// Add a layer; returns its id.
    ///
    /// # Panics
    /// Panics on dangling inputs, wrong arity, duplicate names, or shapes
    /// that do not validate (caught eagerly via shape inference).
    pub fn add(&mut self, name: impl Into<String>, spec: LayerSpec, inputs: &[NodeId]) -> NodeId {
        let name = name.into();
        assert!(
            self.nodes.iter().all(|n| n.name != name),
            "duplicate layer name {name}"
        );
        assert!(
            spec.arity_ok(inputs.len()),
            "layer {name} ({spec:?}) got {} inputs",
            inputs.len()
        );
        for &i in inputs {
            assert!(
                i < self.nodes.len(),
                "layer {name} references undefined node {i}"
            );
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            spec,
            inputs: inputs.to_vec(),
        });
        // Infer and memoize eagerly; panics with a useful message if the
        // shapes are inconsistent.
        let shape = self.infer_shape(id);
        self.shapes.push(shape);
        id
    }

    /// Convenience: add a conv followed by ReLU; returns the ReLU id.
    pub fn conv_relu(
        &mut self,
        name: &str,
        input: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let c = self.add(
            name.to_string(),
            LayerSpec::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            },
            &[input],
        );
        self.add(format!("{name}.relu"), LayerSpec::Relu, &[c])
    }

    /// Convenience: conv → BN → ReLU; returns the ReLU id.
    pub fn conv_bn_relu(
        &mut self,
        name: &str,
        input: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let c = self.add(
            name.to_string(),
            LayerSpec::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            },
            &[input],
        );
        let b = self.add(format!("{name}.bn"), LayerSpec::BatchNorm, &[c]);
        self.add(format!("{name}.relu"), LayerSpec::Relu, &[b])
    }

    /// All nodes, topologically ordered.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (a network has at least its input node).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Output shape of a node (memoized at construction).
    pub fn output_shape(&self, id: NodeId) -> Shape4 {
        self.shapes[id]
    }

    /// Shape inference for the newest node, reading memoized input shapes.
    fn infer_shape(&self, id: NodeId) -> Shape4 {
        let node = &self.nodes[id];
        let in_shapes: Vec<Shape4> = node.inputs.iter().map(|&i| self.shapes[i]).collect();
        match &node.spec {
            LayerSpec::Input => self.input_shape,
            LayerSpec::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => {
                let g = ConvGeometry::with_square(
                    in_shapes[0],
                    FilterShape::new(*out_channels, in_shapes[0].c, *kernel, *kernel),
                    *pad,
                    *stride,
                );
                g.output()
            }
            LayerSpec::Pool {
                kernel,
                stride,
                pad,
                ..
            } => {
                let (s, name) = (in_shapes[0], &node.name);
                assert!(*kernel > 0, "pool layer {name}: kernel must be positive");
                assert!(*stride > 0, "pool layer {name}: stride must be positive");
                let (ph, pw) = (s.h + 2 * pad, s.w + 2 * pad);
                assert!(
                    ph >= *kernel && pw >= *kernel,
                    "pool layer {name}: padded input {ph}x{pw} smaller than kernel {kernel}x{kernel}"
                );
                // Caffe pooling: ceil-mode output size.
                let oh = (s.h + 2 * pad - kernel).div_ceil(*stride) + 1;
                let ow = (s.w + 2 * pad - kernel).div_ceil(*stride) + 1;
                Shape4::new(s.n, s.c, oh, ow)
            }
            LayerSpec::Relu | LayerSpec::BatchNorm => in_shapes[0],
            LayerSpec::FullyConnected { out } => Shape4::new(in_shapes[0].n, *out, 1, 1),
            LayerSpec::Add => {
                assert_eq!(
                    in_shapes[0], in_shapes[1],
                    "Add inputs must match: {node:?}"
                );
                in_shapes[0]
            }
            LayerSpec::Concat => {
                let first = in_shapes[0];
                let mut c = 0;
                for s in &in_shapes {
                    assert!(
                        s.n == first.n && s.h == first.h && s.w == first.w,
                        "Concat inputs must share N/H/W: {node:?}"
                    );
                    c += s.c;
                }
                Shape4::new(first.n, c, first.h, first.w)
            }
            LayerSpec::GlobalAvgPool => Shape4::new(in_shapes[0].n, in_shapes[0].c, 1, 1),
        }
    }

    /// Convolution geometry of a conv node.
    ///
    /// # Panics
    /// Panics when `id` is not a conv layer.
    pub fn conv_geometry(&self, id: NodeId) -> ConvGeometry {
        let node = &self.nodes[id];
        let LayerSpec::Conv {
            out_channels,
            kernel,
            stride,
            pad,
        } = node.spec
        else {
            panic!("node {} is not a convolution", node.name);
        };
        let input = self.output_shape(node.inputs[0]);
        ConvGeometry::with_square(
            input,
            FilterShape::new(out_channels, input.c, kernel, kernel),
            pad,
            stride,
        )
    }

    /// Ids of all convolution layers, in topological order.
    pub fn conv_layers(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].spec, LayerSpec::Conv { .. }))
            .collect()
    }

    /// Whether a conv node needs a BackwardData pass (everything except
    /// convolutions reading the data layer directly, as in Caffe).
    pub fn needs_backward_data(&self, id: NodeId) -> bool {
        self.nodes[id].inputs[0] != self.input()
    }

    /// Total learnable-parameter count.
    pub fn param_count(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| match &self.nodes[i].spec {
                LayerSpec::Conv {
                    out_channels,
                    kernel,
                    ..
                } => {
                    let cin = self.output_shape(self.nodes[i].inputs[0]).c;
                    out_channels * cin * kernel * kernel + out_channels
                }
                LayerSpec::FullyConnected { out } => {
                    let s = self.output_shape(self.nodes[i].inputs[0]);
                    s.sample_len() * out + out
                }
                LayerSpec::BatchNorm => 2 * self.output_shape(self.nodes[i].inputs[0]).c,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetworkDef {
        let mut net = NetworkDef::new("tiny", Shape4::new(4, 3, 16, 16));
        let c1 = net.conv_relu("conv1", net.input(), 8, 3, 1, 1);
        let p = net.add(
            "pool1",
            LayerSpec::Pool {
                max: true,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[c1],
        );
        let c2 = net.conv_relu("conv2", p, 16, 3, 1, 1);
        net.add("fc", LayerSpec::FullyConnected { out: 10 }, &[c2]);
        net
    }

    #[test]
    fn shape_inference_chains() {
        let net = tiny();
        let last = net.len() - 1;
        assert_eq!(net.output_shape(last), Shape4::new(4, 10, 1, 1));
    }

    #[test]
    fn conv_enumeration_and_geometry() {
        let net = tiny();
        let convs = net.conv_layers();
        assert_eq!(convs.len(), 2);
        let g = net.conv_geometry(convs[1]);
        assert_eq!(g.input, Shape4::new(4, 8, 8, 8));
        assert_eq!(g.filter, FilterShape::new(16, 8, 3, 3));
    }

    #[test]
    fn first_conv_skips_backward_data() {
        let net = tiny();
        let convs = net.conv_layers();
        assert!(!net.needs_backward_data(convs[0]));
        assert!(net.needs_backward_data(convs[1]));
    }

    #[test]
    fn pool_uses_ceil_mode_like_caffe() {
        // AlexNet pool1: 55 → ceil((55-3)/2)+1 = 27.
        let mut net = NetworkDef::new("t", Shape4::new(1, 1, 55, 55));
        let p = net.add(
            "p",
            LayerSpec::Pool {
                max: true,
                kernel: 3,
                stride: 2,
                pad: 0,
            },
            &[net.input()],
        );
        assert_eq!(net.output_shape(p), Shape4::new(1, 1, 27, 27));
    }

    /// A pool layer `kernel`/`stride` (pad 0) on a 1x1 input.
    fn pool_on_one_pixel(kernel: usize, stride: usize) {
        let mut net = NetworkDef::new("t", Shape4::new(1, 1, 1, 1));
        net.add(
            "p",
            LayerSpec::Pool {
                max: true,
                kernel,
                stride,
                pad: 0,
            },
            &[net.input()],
        );
    }

    #[test]
    #[should_panic(expected = "pool layer p: padded input 1x1 smaller than kernel 3x3")]
    fn pool_window_larger_than_its_input_is_rejected() {
        pool_on_one_pixel(3, 1);
    }

    #[test]
    #[should_panic(expected = "pool layer p: stride must be positive")]
    fn pool_stride_zero_is_rejected() {
        pool_on_one_pixel(1, 0);
    }

    #[test]
    #[should_panic(expected = "pool layer p: kernel must be positive")]
    fn pool_kernel_zero_is_rejected() {
        pool_on_one_pixel(0, 1);
    }

    #[test]
    fn concat_sums_channels() {
        let mut net = NetworkDef::new("t", Shape4::new(2, 4, 8, 8));
        let a = net.add(
            "a",
            LayerSpec::Conv {
                out_channels: 3,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[net.input()],
        );
        let b = net.add(
            "b",
            LayerSpec::Conv {
                out_channels: 5,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[net.input()],
        );
        let c = net.add("c", LayerSpec::Concat, &[a, b]);
        assert_eq!(net.output_shape(c).c, 8);
    }

    #[test]
    fn param_count_counts_weights_and_biases() {
        let mut net = NetworkDef::new("t", Shape4::new(1, 3, 4, 4));
        net.add(
            "c",
            LayerSpec::Conv {
                out_channels: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            &[0],
        );
        // 2*3*3*3 + 2 bias = 56
        assert_eq!(net.param_count(), 56);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_names_rejected() {
        let mut net = NetworkDef::new("t", Shape4::new(1, 3, 4, 4));
        net.add("x", LayerSpec::Relu, &[0]);
        net.add("x", LayerSpec::Relu, &[0]);
    }

    #[test]
    #[should_panic(expected = "Add inputs must match")]
    fn add_shape_mismatch_rejected() {
        let mut net = NetworkDef::new("t", Shape4::new(1, 3, 4, 4));
        let a = net.add(
            "a",
            LayerSpec::Conv {
                out_channels: 2,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[0],
        );
        let b = net.add(
            "b",
            LayerSpec::Conv {
                out_channels: 3,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &[0],
        );
        net.add("sum", LayerSpec::Add, &[a, b]);
    }

    #[test]
    fn with_batch_rescales_everything() {
        let net = tiny().with_batch(32);
        assert_eq!(net.batch(), 32);
        assert_eq!(net.conv_geometry(net.conv_layers()[0]).batch(), 32);
    }
}
