//! DNN graph construction with shape inference.

use crate::layer::{Layer, LayerId, LayerKind, PoolKind};
use crate::shape::{conv_out_dim, Dtype, TensorShape};
use std::fmt;

/// Error raised while building or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two inputs of an elementwise add had different shapes.
    ShapeMismatch {
        /// Name of the offending layer.
        layer: String,
        /// The conflicting shapes.
        shapes: (TensorShape, TensorShape),
    },
    /// `Concat` inputs disagreed on spatial extent.
    SpatialMismatch {
        /// Name of the offending layer.
        layer: String,
    },
    /// Grouped convolution whose input channels are not divisible by the
    /// group count.
    BadGroups {
        /// Name of the offending layer.
        layer: String,
        /// Input channel count.
        in_c: usize,
        /// Requested groups.
        groups: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ShapeMismatch { layer, shapes } => write!(
                f,
                "layer {layer}: elementwise inputs have different shapes {} vs {}",
                shapes.0, shapes.1
            ),
            GraphError::SpatialMismatch { layer } => {
                write!(f, "layer {layer}: concat inputs differ in spatial extent")
            }
            GraphError::BadGroups { layer, in_c, groups } => write!(
                f,
                "layer {layer}: input channels {in_c} not divisible by groups {groups}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Handle to a tensor produced during graph construction — either the
/// network input or the output of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(Node);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Input,
    Layer(LayerId),
}

/// A complete DNN model: layers in topological order plus the input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    dtype: Dtype,
    input_shape: TensorShape,
    layers: Vec<Layer>,
}

impl Graph {
    /// Model name (e.g. `"alexnet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element datatype of all tensors in the model.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Shape of the network input.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// All layers, in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over all data-dependency edges `(producer, consumer)`.
    pub fn edges(&self) -> impl Iterator<Item = (LayerId, LayerId)> + '_ {
        self.layers
            .iter()
            .flat_map(|l| l.inputs.iter().map(move |&p| (p, l.id)))
    }

    /// Ids of layers that consume the output of `id`.
    pub fn successors(&self, id: LayerId) -> Vec<LayerId> {
        self.layers
            .iter()
            .filter(|l| l.inputs.contains(&id))
            .map(|l| l.id)
            .collect()
    }

    /// Total MAC count of the model.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(Layer::ops).sum()
    }

    /// Total weight bytes of the model.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes(self.dtype)).sum()
    }

    /// Total DRAM bytes under layerwise execution (sum of `access(l)`).
    pub fn total_access(&self) -> u64 {
        self.layers.iter().map(|l| l.access(self.dtype)).sum()
    }

    /// Renders the graph in Graphviz DOT format (layers as nodes labelled
    /// with name, kind and output shape; data dependencies as edges) for
    /// debugging and documentation.
    ///
    /// ```
    /// # use nnmodel::zoo;
    /// let dot = zoo::squeezenet1_0().to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("fire2_squeeze"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", self.name.replace('-', "_"));
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontsize=10];");
        for l in &self.layers {
            let kind = match l.kind {
                crate::LayerKind::Conv { kernel, stride, groups, .. } => {
                    if groups > 1 && groups == l.input_shape.c {
                        format!("dwconv {kernel}x{kernel}/{stride}")
                    } else if groups > 1 {
                        format!("gconv {kernel}x{kernel}/{stride} g{groups}")
                    } else {
                        format!("conv {kernel}x{kernel}/{stride}")
                    }
                }
                crate::LayerKind::Pool { kernel, stride, .. } => {
                    format!("pool {kernel}x{kernel}/{stride}")
                }
                crate::LayerKind::GlobalAvgPool => "gap".to_string(),
                crate::LayerKind::Fc { out } => format!("fc {out}"),
                crate::LayerKind::Add => "add".to_string(),
                crate::LayerKind::Concat => "concat".to_string(),
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{} ({kind})\\n{} -> {}\"];",
                l.id.index(),
                l.name,
                l.input_shape,
                l.output_shape
            );
        }
        for (from, to) in self.edges() {
            let _ = writeln!(out, "  n{} -> n{};", from.index(), to.index());
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental builder for a [`Graph`] with shape inference.
///
/// Because a layer can only reference tensors that already exist, layer ids
/// come out in topological order by construction.
///
/// # Example
///
/// ```
/// use nnmodel::{GraphBuilder, TensorShape, Dtype};
///
/// let mut b = GraphBuilder::new("tiny", Dtype::Int8, TensorShape::new(3, 32, 32));
/// let x = b.input();
/// let c1 = b.conv("conv1", x, 16, 3, 1, 1)?;
/// let p1 = b.max_pool("pool1", c1, 2, 2);
/// let c2 = b.conv("conv2", p1, 32, 3, 1, 1)?;
/// let g = b.finish();
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.layers()[2].output_shape, TensorShape::new(32, 16, 16));
/// # Ok::<(), nnmodel::GraphError>(())
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Starts a new model with the given input shape.
    pub fn new(name: impl Into<String>, dtype: Dtype, input_shape: TensorShape) -> Self {
        Self {
            graph: Graph {
                name: name.into(),
                dtype,
                input_shape,
                layers: Vec::new(),
            },
        }
    }

    /// Handle to the network input tensor.
    pub fn input(&self) -> NodeId {
        NodeId(Node::Input)
    }

    fn shape_of(&self, node: NodeId) -> TensorShape {
        match node.0 {
            Node::Input => self.graph.input_shape,
            Node::Layer(id) => self.graph.layers[id.0].output_shape,
        }
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: &[NodeId],
        input_shape: TensorShape,
        output_shape: TensorShape,
    ) -> NodeId {
        let id = LayerId(self.graph.layers.len());
        let preds = inputs
            .iter()
            .filter_map(|n| match n.0 {
                Node::Input => None,
                Node::Layer(p) => Some(p),
            })
            .collect();
        self.graph.layers.push(Layer {
            id,
            name: name.into(),
            kind,
            inputs: preds,
            input_shape,
            output_shape,
        });
        NodeId(Node::Layer(id))
    }

    /// Adds a grouped 2-D convolution.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadGroups`] if the input channel count is not
    /// divisible by `groups`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_grouped(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        let in_shape = self.shape_of(from);
        if groups == 0 || !in_shape.c.is_multiple_of(groups) || !out_c.is_multiple_of(groups) {
            return Err(GraphError::BadGroups {
                layer: name,
                in_c: in_shape.c,
                groups,
            });
        }
        let out = TensorShape::new(
            out_c,
            conv_out_dim(in_shape.h, kernel, stride, pad),
            conv_out_dim(in_shape.w, kernel, stride, pad),
        );
        Ok(self.push(
            name,
            LayerKind::Conv {
                out_c,
                kernel,
                stride,
                pad,
                groups,
            },
            &[from],
            in_shape,
            out,
        ))
    }

    /// Adds a dense 2-D convolution (`groups == 1`).
    ///
    /// # Errors
    ///
    /// See [`GraphBuilder::conv_grouped`].
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId, GraphError> {
        self.conv_grouped(name, from, out_c, kernel, stride, pad, 1)
    }

    /// Adds a depthwise convolution (`groups == in_channels`).
    ///
    /// # Errors
    ///
    /// See [`GraphBuilder::conv_grouped`].
    pub fn dw_conv(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId, GraphError> {
        let c = self.shape_of(from).c;
        self.conv_grouped(name, from, c, kernel, stride, pad, c)
    }

    /// Adds a max-pooling layer (no padding).
    pub fn max_pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        kernel: usize,
        stride: usize,
    ) -> NodeId {
        self.pool(name, from, kernel, stride, 0, PoolKind::Max)
    }

    /// Adds a padded pooling layer.
    pub fn pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
        kind: PoolKind,
    ) -> NodeId {
        let in_shape = self.shape_of(from);
        let out = TensorShape::new(
            in_shape.c,
            conv_out_dim(in_shape.h, kernel, stride, pad),
            conv_out_dim(in_shape.w, kernel, stride, pad),
        );
        self.push(
            name,
            LayerKind::Pool {
                kernel,
                stride,
                pad,
                kind,
            },
            &[from],
            in_shape,
            out,
        )
    }

    /// Adds a global average pooling layer (output is `c x 1 x 1`).
    pub fn global_avg_pool(&mut self, name: impl Into<String>, from: NodeId) -> NodeId {
        let in_shape = self.shape_of(from);
        let out = TensorShape::vector(in_shape.c);
        self.push(name, LayerKind::GlobalAvgPool, &[from], in_shape, out)
    }

    /// Adds a fully-connected layer over the flattened input.
    pub fn fc(&mut self, name: impl Into<String>, from: NodeId, out: usize) -> NodeId {
        let in_shape = self.shape_of(from);
        self.push(
            name,
            LayerKind::Fc { out },
            &[from],
            in_shape,
            TensorShape::vector(out),
        )
    }

    /// Adds an elementwise residual addition of two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeMismatch`] if the operands differ in shape.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        let (sa, sb) = (self.shape_of(a), self.shape_of(b));
        if sa != sb {
            return Err(GraphError::ShapeMismatch {
                layer: name,
                shapes: (sa, sb),
            });
        }
        Ok(self.push(name, LayerKind::Add, &[a, b], sa, sa))
    }

    /// Adds a channel concatenation of two or more tensors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SpatialMismatch`] if the operands differ in
    /// spatial extent.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        parts: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        assert!(parts.len() >= 2, "concat requires at least two inputs");
        let first = self.shape_of(parts[0]);
        let mut c = 0;
        for p in parts {
            let s = self.shape_of(*p);
            if (s.h, s.w) != (first.h, first.w) {
                return Err(GraphError::SpatialMismatch { layer: name });
            }
            c += s.c;
        }
        let shape = TensorShape::new(c, first.h, first.w);
        Ok(self.push(name, LayerKind::Concat, parts, shape, shape))
    }

    /// Finalizes the graph.
    pub fn finish(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> GraphBuilder {
        GraphBuilder::new("t", Dtype::Int8, TensorShape::new(3, 8, 8))
    }

    #[test]
    fn chain_topology_and_edges() {
        let mut b = builder();
        let x = b.input();
        let a = b.conv("a", x, 4, 3, 1, 1).unwrap();
        let p = b.max_pool("p", a, 2, 2);
        let _c = b.conv("c", p, 8, 3, 1, 1).unwrap();
        let g = b.finish();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(LayerId(0), LayerId(1)), (LayerId(1), LayerId(2))]);
        assert_eq!(g.successors(LayerId(0)), vec![LayerId(1)]);
        assert_eq!(g.layer(LayerId(2)).input_shape, TensorShape::new(4, 4, 4));
    }

    #[test]
    fn residual_add_checks_shapes() {
        let mut b = builder();
        let x = b.input();
        let a = b.conv("a", x, 4, 3, 1, 1).unwrap();
        let c = b.conv("c", a, 4, 3, 1, 1).unwrap();
        let s = b.add("s", a, c).unwrap();
        let bad = b.conv("d", s, 8, 3, 2, 1).unwrap();
        assert!(matches!(
            b.add("bad", s, bad),
            Err(GraphError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn concat_sums_channels() {
        let mut b = builder();
        let x = b.input();
        let a = b.conv("a", x, 4, 1, 1, 0).unwrap();
        let c = b.conv("c", x, 6, 1, 1, 0).unwrap();
        let cat = b.concat("cat", &[a, c]).unwrap();
        let g = b.finish();
        let _ = cat;
        assert_eq!(g.layers().last().unwrap().output_shape, TensorShape::new(10, 8, 8));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let mut b = builder();
        let x = b.input();
        let a = b.conv("a", x, 4, 1, 1, 0).unwrap();
        let c = b.conv("c", x, 4, 3, 2, 1).unwrap();
        assert!(matches!(
            b.concat("cat", &[a, c]),
            Err(GraphError::SpatialMismatch { .. })
        ));
    }

    #[test]
    fn grouped_conv_validation() {
        let mut b = builder();
        let x = b.input();
        assert!(matches!(
            b.conv_grouped("g", x, 4, 3, 1, 1, 2),
            Err(GraphError::BadGroups { .. })
        ));
        // Depthwise on 3 channels is fine.
        let d = b.dw_conv("dw", x, 3, 1, 1).unwrap();
        let g = b.finish();
        let _ = d;
        let l = g.layers().last().unwrap();
        assert_eq!(l.output_shape.c, 3);
        assert_eq!(l.weight_elems(), 3 * 9);
    }

    #[test]
    fn totals_sum_layers() {
        let mut b = builder();
        let x = b.input();
        let a = b.conv("a", x, 4, 3, 1, 1).unwrap();
        let _ = b.conv("b", a, 8, 3, 1, 1).unwrap();
        let g = b.finish();
        assert_eq!(g.total_ops(), g.layers()[0].ops() + g.layers()[1].ops());
        assert_eq!(
            g.total_access(),
            g.layers()[0].access(Dtype::Int8) + g.layers()[1].access(Dtype::Int8)
        );
    }

    #[test]
    fn error_display() {
        let e = GraphError::BadGroups {
            layer: "x".into(),
            in_c: 3,
            groups: 2,
        };
        assert!(e.to_string().contains("not divisible"));
    }
}
