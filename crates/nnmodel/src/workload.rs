//! The compute view of a graph: anchor work items with reduction layers
//! folded in.
//!
//! The paper's segmentation operates on convolution/fully-connected layers
//! (Figure 4 plots exactly the 26 conv layers of SqueezeNet; the AlexNet
//! case study uses "only Conv layer"). Pooling, residual adds and
//! concatenations carry no weights and negligible MACs, and real
//! accelerators fuse them with the adjacent convolution. [`Workload`]
//! performs that folding, producing one [`WorkItem`] per anchor layer with
//! the paper's `ops(l)` / `access(l)` constants attached.

use crate::graph::Graph;
use crate::layer::{LayerId, LayerKind};
use crate::shape::{Dtype, TensorShape};
use std::fmt;

/// A graph the workload fold cannot lower: a reduction layer fed by
/// tensors that no anchor (conv/FC) produces, so there is no work item to
/// host it. [`crate::validate::validate`] rejects the same graphs with a
/// richer diagnostic; this is the typed error for callers lowering
/// unvalidated graphs via [`Workload::try_from_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A residual `Add` with a non-anchor operand (or no operands).
    UnanchoredAdd {
        /// The offending layer's name.
        layer: String,
    },
    /// A `Concat` with an operand that is neither an anchor nor another
    /// concat.
    UnanchoredConcat {
        /// The offending layer's name.
        layer: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnanchoredAdd { layer } => {
                write!(f, "residual add `{layer}` must be fed by anchor layers")
            }
            WorkloadError::UnanchoredConcat { layer } => {
                write!(f, "concat `{layer}` must be fed by anchor layers")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One unit of schedulable work: an anchor (conv/FC) layer plus any folded
/// reduction layers (pooling after it, residual adds into it, pooling on its
/// input stream).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Index of this item inside its [`Workload`].
    pub index: usize,
    /// Id of the anchor layer in the source graph.
    pub anchor: LayerId,
    /// Name of the anchor layer.
    pub name: String,
    /// MAC count (`ops(l)` in the paper).
    pub ops: u64,
    /// Weight bytes read from DRAM.
    pub w_bytes: u64,
    /// Bytes read from the network input tensor (nonzero only for entry
    /// items).
    pub extern_in_bytes: u64,
    /// Producing items and the bytes read from each: `(producer index,
    /// bytes)`.
    pub preds: Vec<(usize, u64)>,
    /// Bytes of the (post-fold) output feature map.
    pub out_bytes: u64,
    /// Shape streamed into the anchor computation.
    pub in_shape: TensorShape,
    /// Shape of the (post-fold) output.
    pub out_shape: TensorShape,
    /// Kernel extent of the anchor.
    pub kernel: usize,
    /// Stride of the anchor.
    pub stride: usize,
    /// Channel groups of the anchor (`in_c` for depthwise convolutions).
    pub groups: usize,
    /// `true` if the anchor is a fully-connected layer.
    pub is_fc: bool,
}

impl WorkItem {
    /// Total bytes read (input streams plus weights).
    pub fn read_bytes(&self) -> u64 {
        self.extern_in_bytes + self.preds.iter().map(|&(_, b)| b).sum::<u64>() + self.w_bytes
    }

    /// DRAM bytes under layerwise execution — `access(l)`.
    pub fn access(&self) -> u64 {
        self.read_bytes() + self.out_bytes
    }

    /// CTC ratio (MACs per DRAM byte) under layerwise execution.
    pub fn ctc(&self) -> f64 {
        self.ops as f64 / self.access() as f64
    }
}

/// Resolution of "what do you read when you read layer X's output".
#[derive(Debug, Clone)]
enum Source {
    /// A single work item's output.
    Item(usize),
    /// Several items' outputs viewed as one tensor (concat).
    Multi(Vec<usize>, u64),
    /// A forward-folded reduction: read these producers, total `bytes`.
    Folded(Vec<(usize, u64)>, u64),
}

/// The compute view of a [`Graph`]: a DAG of [`WorkItem`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    dtype: Dtype,
    items: Vec<WorkItem>,
    /// Every item's consumers, ascending, in one flat array: item `i`'s
    /// are `consumers[consumer_start[i]..consumer_start[i + 1]]`.
    consumers: Vec<usize>,
    consumer_start: Vec<usize>,
}

impl Workload {
    /// Builds the compute view of `graph` by folding every non-anchor layer
    /// into an adjacent anchor.
    ///
    /// Folding rules:
    /// * pooling / global pooling whose producer is a single anchor is
    ///   folded *backward* (the anchor's output becomes the pooled tensor);
    /// * pooling fed by a concat or the network input is folded *forward*
    ///   (its consumer streams the pre-pool tensor and pools on the fly);
    /// * residual `Add` is folded into its latest producing anchor, which
    ///   gains the skip connection as an extra input stream;
    /// * `Concat` disappears: consumers read all concatenated producers.
    ///
    /// # Panics
    ///
    /// Panics on graphs [`try_from_graph`](Self::try_from_graph) rejects;
    /// zoo and builder-validated graphs never do.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::try_from_graph(graph).expect("graph is fold-compatible")
    }

    /// Fallible form of [`from_graph`](Self::from_graph) for graphs that
    /// did not come from a validated source.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when a reduction layer is not fed by
    /// anchor tensors, which leaves the fold with no host item.
    pub fn try_from_graph(graph: &Graph) -> Result<Self, WorkloadError> {
        let dtype = graph.dtype();
        let mut items: Vec<WorkItem> = Vec::new();
        let mut source: Vec<Source> = Vec::with_capacity(graph.len());

        // Resolve what reading `node`'s tensor means right now.
        fn resolve(
            source: &[Source],
            items: &[WorkItem],
            inputs: &[LayerId],
            input_tensor_bytes: u64,
        ) -> (Vec<(usize, u64)>, u64) {
            if inputs.is_empty() {
                return (Vec::new(), input_tensor_bytes);
            }
            let mut preds = Vec::new();
            let mut ext = 0u64;
            for &p in inputs {
                match &source[p.index()] {
                    Source::Item(i) => preds.push((*i, items[*i].out_bytes)),
                    Source::Multi(v, _total) => {
                        for &i in v {
                            preds.push((i, items[i].out_bytes));
                        }
                    }
                    Source::Folded(v, bytes) => {
                        // Any stream volume not covered by in-graph
                        // producers is read from the network input (e.g. a
                        // pool folded forward off the input tensor).
                        let covered: u64 = v.iter().map(|&(_, b)| b).sum();
                        ext += bytes.saturating_sub(covered);
                        preds.extend(v.iter().copied());
                    }
                }
            }
            (preds, ext)
        }

        let input_bytes = graph.input_shape().bytes(dtype);
        for layer in graph.layers() {
            match layer.kind {
                LayerKind::Conv {
                    kernel,
                    stride,
                    groups,
                    ..
                } => {
                    let (preds, ext) = resolve(&source, &items, &layer.inputs, input_bytes);
                    let idx = items.len();
                    items.push(WorkItem {
                        index: idx,
                        anchor: layer.id,
                        name: layer.name.clone(),
                        ops: layer.ops(),
                        w_bytes: layer.weight_bytes(dtype),
                        extern_in_bytes: ext,
                        preds,
                        out_bytes: layer.output_shape.bytes(dtype),
                        in_shape: layer.input_shape,
                        out_shape: layer.output_shape,
                        kernel,
                        stride,
                        groups,
                        is_fc: false,
                    });
                    source.push(Source::Item(idx));
                }
                LayerKind::Fc { .. } => {
                    let (preds, ext) = resolve(&source, &items, &layer.inputs, input_bytes);
                    let idx = items.len();
                    items.push(WorkItem {
                        index: idx,
                        anchor: layer.id,
                        name: layer.name.clone(),
                        ops: layer.ops(),
                        w_bytes: layer.weight_bytes(dtype),
                        extern_in_bytes: ext,
                        preds,
                        out_bytes: layer.output_shape.bytes(dtype),
                        in_shape: layer.input_shape,
                        out_shape: layer.output_shape,
                        kernel: 1,
                        stride: 1,
                        groups: 1,
                        is_fc: true,
                    });
                    source.push(Source::Item(idx));
                }
                LayerKind::Pool { .. } | LayerKind::GlobalAvgPool => {
                    let producer = layer.inputs.first().copied();
                    match producer.map(|p| source[p.index()].clone()) {
                        Some(Source::Item(i)) => {
                            // Backward fold: the anchor now emits the pooled
                            // tensor.
                            items[i].out_bytes = layer.output_shape.bytes(dtype);
                            items[i].out_shape = layer.output_shape;
                            source.push(Source::Item(i));
                        }
                        other => {
                            // Forward fold: consumers stream the pre-pool
                            // tensor.
                            let (preds, ext) = match other {
                                Some(Source::Multi(v, total)) => {
                                    let per = v.iter().map(|&i| (i, items[i].out_bytes)).collect();
                                    let _ = total;
                                    (per, 0)
                                }
                                Some(Source::Folded(v, _)) => (v, 0),
                                None => (Vec::new(), input_bytes),
                                Some(Source::Item(_)) => unreachable!(),
                            };
                            let bytes = layer.input_shape.bytes(dtype).max(ext);
                            source.push(Source::Folded(preds, bytes));
                        }
                    }
                }
                LayerKind::Add => {
                    // Fold into the latest producing anchor; the other
                    // operand becomes a skip-connection input stream.
                    let mut resolved: Vec<(usize, u64)> = Vec::new();
                    for &p in &layer.inputs {
                        match &source[p.index()] {
                            Source::Item(i) => resolved.push((*i, items[*i].out_bytes)),
                            _ => {
                                return Err(WorkloadError::UnanchoredAdd {
                                    layer: layer.name.clone(),
                                })
                            }
                        }
                    }
                    let host = match resolved.iter().map(|&(i, _)| i).max() {
                        Some(h) => h,
                        None => {
                            return Err(WorkloadError::UnanchoredAdd {
                                layer: layer.name.clone(),
                            })
                        }
                    };
                    // The skip operand is a genuine extra read of the
                    // producer's tensor (duplicate pred entries are allowed
                    // so the bytes are counted per read).
                    for &(p, b) in &resolved {
                        if p != host {
                            items[host].preds.push((p, b));
                        }
                    }
                    source.push(Source::Item(host));
                }
                LayerKind::Concat => {
                    let mut v = Vec::new();
                    for &p in &layer.inputs {
                        match &source[p.index()] {
                            Source::Item(i) => v.push(*i),
                            Source::Multi(inner, _) => v.extend(inner.iter().copied()),
                            _ => {
                                return Err(WorkloadError::UnanchoredConcat {
                                    layer: layer.name.clone(),
                                })
                            }
                        }
                    }
                    let total = layer.output_shape.bytes(dtype);
                    source.push(Source::Multi(v, total));
                }
            }
        }

        // Consumer lists, built after the fold (an add may still append a
        // skip input to an earlier host). Each (producer, consumer) edge
        // counts once, however often the consumer lists the producer.
        let edges = || {
            items.iter().flat_map(|it| {
                it.preds
                    .iter()
                    .enumerate()
                    .filter(|&(k, &(p, _))| it.preds[..k].iter().all(|&(q, _)| q != p))
                    .map(move |(_, &(p, _))| (p, it.index))
            })
        };
        let mut consumer_start = vec![0; items.len() + 1];
        for (p, _) in edges() {
            consumer_start[p + 1] += 1;
        }
        let mut total = 0;
        for start in &mut consumer_start {
            total += *start;
            *start = total;
        }
        let mut next = consumer_start.clone();
        let mut consumers = vec![0; total];
        for (p, c) in edges() {
            consumers[next[p]] = c;
            next[p] += 1;
        }

        Ok(Self {
            name: graph.name().to_string(),
            dtype,
            items,
            consumers,
            consumer_start,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element datatype.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// All work items in topological order.
    pub fn items(&self) -> &[WorkItem] {
        &self.items
    }

    /// Number of work items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total MAC count.
    pub fn total_ops(&self) -> u64 {
        self.items.iter().map(|i| i.ops).sum()
    }

    /// Total DRAM bytes under layerwise execution.
    pub fn total_layerwise_access(&self) -> u64 {
        self.items.iter().map(WorkItem::access).sum()
    }

    /// Items that consume item `i`'s output, in ascending order.
    pub fn consumers(&self, i: usize) -> &[usize] {
        &self.consumers[self.consumer_start[i]..self.consumer_start[i + 1]]
    }

    /// DRAM bytes of a *pipelined* execution of the item set `members`
    /// (intra-set feature-map traffic is eliminated; weights, external
    /// inputs, and outputs consumed outside the set are still DRAM traffic).
    ///
    /// With `members` = all items this gives the full-pipeline access; with
    /// a segment's items it gives the paper's per-segment access used in the
    /// CTC objective (Eq. 5).
    pub fn pipelined_access(&self, members: &[usize]) -> u64 {
        let inset = {
            let mut v = vec![false; self.items.len()];
            for &m in members {
                v[m] = true;
            }
            v
        };
        let mut bytes = 0;
        for &m in members {
            let it = &self.items[m];
            bytes += it.w_bytes + it.extern_in_bytes;
            // Inputs produced outside the set are read from DRAM.
            for &(p, b) in &it.preds {
                if !inset[p] {
                    bytes += b;
                }
            }
            // Output written to DRAM if anyone outside the set (or nobody at
            // all — the network output) consumes it.
            let consumers = self.consumers(m);
            if consumers.is_empty() || consumers.iter().any(|&c| !inset[c]) {
                bytes += it.out_bytes;
            }
        }
        bytes
    }

    /// CTC ratio of the pipelined execution of `members`.
    pub fn pipelined_ctc(&self, members: &[usize]) -> f64 {
        let ops: u64 = members.iter().map(|&m| self.items[m].ops).sum();
        ops as f64 / self.pipelined_access(members) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::shape::{Dtype, TensorShape};

    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain", Dtype::Int8, TensorShape::new(3, 16, 16));
        let x = b.input();
        let c1 = b.conv("c1", x, 8, 3, 1, 1).unwrap();
        let p1 = b.max_pool("p1", c1, 2, 2);
        let c2 = b.conv("c2", p1, 16, 3, 1, 1).unwrap();
        let _f = b.fc("fc", c2, 10);
        b.finish()
    }

    #[test]
    fn pool_folds_backward() {
        let w = Workload::from_graph(&chain());
        assert_eq!(w.len(), 3);
        // c1's output became the pooled 8x8x8 tensor.
        assert_eq!(w.items()[0].out_shape, TensorShape::new(8, 8, 8));
        assert_eq!(w.items()[0].out_bytes, 8 * 8 * 8);
        // c2 reads it.
        assert_eq!(w.items()[1].preds, vec![(0, 8 * 8 * 8)]);
        // fc reads c2.
        assert!(w.items()[2].is_fc);
    }

    #[test]
    fn entry_item_reads_network_input() {
        let w = Workload::from_graph(&chain());
        assert_eq!(w.items()[0].extern_in_bytes, 3 * 16 * 16);
        assert!(w.items()[0].preds.is_empty());
    }

    #[test]
    fn residual_folds_into_latest_anchor() {
        let mut b = GraphBuilder::new("res", Dtype::Int8, TensorShape::new(4, 8, 8));
        let x = b.input();
        let c1 = b.conv("c1", x, 4, 3, 1, 1).unwrap();
        let c2 = b.conv("c2", c1, 4, 3, 1, 1).unwrap();
        let s = b.add("add", c1, c2).unwrap();
        let _c3 = b.conv("c3", s, 4, 3, 1, 1).unwrap();
        let w = Workload::from_graph(&b.finish());
        assert_eq!(w.len(), 3);
        // c2 hosts the add and gains c1 as a skip input.
        let c2i = &w.items()[1];
        assert!(c2i.preds.iter().any(|&(p, _)| p == 0));
        assert_eq!(c2i.preds.len(), 1 + 1);
        // c3 reads only c2 (the add host).
        assert_eq!(w.items()[2].preds.len(), 1);
        assert_eq!(w.items()[2].preds[0].0, 1);
    }

    #[test]
    fn concat_consumers_read_all_parts() {
        let mut b = GraphBuilder::new("cat", Dtype::Int8, TensorShape::new(4, 8, 8));
        let x = b.input();
        let a = b.conv("a", x, 4, 1, 1, 0).unwrap();
        let c = b.conv("c", x, 6, 1, 1, 0).unwrap();
        let cat = b.concat("cat", &[a, c]).unwrap();
        let _d = b.conv("d", cat, 8, 3, 1, 1).unwrap();
        let w = Workload::from_graph(&b.finish());
        assert_eq!(w.len(), 3);
        let d = &w.items()[2];
        assert_eq!(d.preds.len(), 2);
        assert_eq!(d.in_shape.c, 10);
    }

    #[test]
    fn pool_after_concat_folds_forward() {
        let mut b = GraphBuilder::new("cpc", Dtype::Int8, TensorShape::new(4, 8, 8));
        let x = b.input();
        let a = b.conv("a", x, 4, 1, 1, 0).unwrap();
        let c = b.conv("c", x, 4, 1, 1, 0).unwrap();
        let cat = b.concat("cat", &[a, c]).unwrap();
        let p = b.max_pool("p", cat, 2, 2);
        let _d = b.conv("d", p, 8, 3, 1, 1).unwrap();
        let w = Workload::from_graph(&b.finish());
        assert_eq!(w.len(), 3);
        // d reads both concat parts (pre-pool tensors stream through it).
        let d = &w.items()[2];
        assert_eq!(d.preds.len(), 2);
        // d's anchor input shape is the post-pool tensor.
        assert_eq!(d.in_shape, TensorShape::new(8, 4, 4));
    }

    #[test]
    fn pipelined_access_eliminates_internal_fmaps() {
        let w = Workload::from_graph(&chain());
        let all: Vec<usize> = (0..w.len()).collect();
        let pipe = w.pipelined_access(&all);
        let layerwise = w.total_layerwise_access();
        assert!(pipe < layerwise);
        // Pipelined = input + all weights + final output.
        let expect: u64 = w.items()[0].extern_in_bytes
            + w.items().iter().map(|i| i.w_bytes).sum::<u64>()
            + w.items().last().unwrap().out_bytes;
        assert_eq!(pipe, expect);
    }

    #[test]
    fn pipelined_ctc_never_below_layerwise() {
        let w = Workload::from_graph(&chain());
        let all: Vec<usize> = (0..w.len()).collect();
        let layerwise = w.total_ops() as f64 / w.total_layerwise_access() as f64;
        assert!(w.pipelined_ctc(&all) >= layerwise);
    }

    #[test]
    fn singleton_segment_matches_layerwise_access() {
        let w = Workload::from_graph(&chain());
        for i in 0..w.len() {
            assert_eq!(w.pipelined_access(&[i]), w.items()[i].access());
        }
    }

    #[test]
    fn consumers_inverse_of_preds() {
        let w = Workload::from_graph(&chain());
        assert_eq!(w.consumers(0), &[1]);
        assert_eq!(w.consumers(2), &[]);
    }

    #[test]
    fn consumer_lists_match_a_scan_of_preds() {
        for g in crate::zoo::evaluation_models() {
            let w = Workload::from_graph(&g);
            for i in 0..w.len() {
                let scan: Vec<usize> = w
                    .items()
                    .iter()
                    .filter(|it| it.preds.iter().any(|&(p, _)| p == i))
                    .map(|it| it.index)
                    .collect();
                assert_eq!(w.consumers(i), scan, "{} item {i}", g.name());
            }
        }
    }
}
