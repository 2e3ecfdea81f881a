//! AlexNet and VGG16.

use super::{imagenet_input, ZOO_DTYPE};
use crate::graph::{Graph, GraphBuilder, NodeId};

/// AlexNet (Krizhevsky et al.), with the original two-group structure on
/// conv2/conv4/conv5 expressed as grouped convolutions.
pub fn alexnet() -> Graph {
    let mut b = GraphBuilder::new("alexnet", ZOO_DTYPE, imagenet_input());
    let x = b.input();
    let c1 = b.conv("conv1", x, 96, 11, 4, 2).expect("valid conv");
    let p1 = b.max_pool("pool1", c1, 3, 2);
    let c2 = b
        .conv_grouped("conv2", p1, 256, 5, 1, 2, 2)
        .expect("valid conv");
    let p2 = b.max_pool("pool2", c2, 3, 2);
    let c3 = b.conv("conv3", p2, 384, 3, 1, 1).expect("valid conv");
    let c4 = b
        .conv_grouped("conv4", c3, 384, 3, 1, 1, 2)
        .expect("valid conv");
    let c5 = b
        .conv_grouped("conv5", c4, 256, 3, 1, 1, 2)
        .expect("valid conv");
    let p5 = b.max_pool("pool5", c5, 3, 2);
    let f6 = b.fc("fc6", p5, 4096);
    let f7 = b.fc("fc7", f6, 4096);
    let _f8 = b.fc("fc8", f7, 1000);
    b.finish()
}

/// The convolution-only AlexNet of the paper's case study (Tables IV-VI),
/// with every convolution split into its two historical GPU groups
/// `convN_a` / `convN_b` — ten convolution work items in total.
///
/// Group wiring follows the original network: conv2 and conv4/5 groups read
/// only their own half, while conv3 reads both halves.
pub fn alexnet_conv() -> Graph {
    let mut b = GraphBuilder::new("alexnet_conv", ZOO_DTYPE, imagenet_input());
    let x = b.input();
    let half = |b: &mut GraphBuilder, name: &str, from: NodeId, out_c, k, s, p| {
        b.conv(name, from, out_c, k, s, p).expect("valid conv")
    };
    let c1a = half(&mut b, "conv1_a", x, 48, 11, 4, 2);
    let c1b = half(&mut b, "conv1_b", x, 48, 11, 4, 2);
    let p1a = b.max_pool("pool1_a", c1a, 3, 2);
    let p1b = b.max_pool("pool1_b", c1b, 3, 2);
    let c2a = half(&mut b, "conv2_a", p1a, 128, 5, 1, 2);
    let c2b = half(&mut b, "conv2_b", p1b, 128, 5, 1, 2);
    let p2a = b.max_pool("pool2_a", c2a, 3, 2);
    let p2b = b.max_pool("pool2_b", c2b, 3, 2);
    let cat2 = b.concat("concat2", &[p2a, p2b]).expect("same spatial");
    let c3a = half(&mut b, "conv3_a", cat2, 192, 3, 1, 1);
    let c3b = half(&mut b, "conv3_b", cat2, 192, 3, 1, 1);
    let c4a = half(&mut b, "conv4_a", c3a, 192, 3, 1, 1);
    let c4b = half(&mut b, "conv4_b", c3b, 3 * 64, 3, 1, 1);
    let c5a = half(&mut b, "conv5_a", c4a, 128, 3, 1, 1);
    let c5b = half(&mut b, "conv5_b", c4b, 128, 3, 1, 1);
    let p5a = b.max_pool("pool5_a", c5a, 3, 2);
    let _p5b = b.max_pool("pool5_b", c5b, 3, 2);
    let _ = p5a;
    b.finish()
}

/// VGG16 (Simonyan & Zisserman, configuration D).
pub fn vgg16() -> Graph {
    vgg("vgg16", &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)])
}

/// VGG19 (configuration E).
pub fn vgg19() -> Graph {
    vgg("vgg19", &[(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)])
}

fn vgg(name: &str, stages: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(name, ZOO_DTYPE, imagenet_input());
    let mut x = b.input();
    for (si, &(n, c)) in stages.iter().enumerate() {
        for li in 0..n {
            x = b
                .conv(format!("conv{}_{}", si + 1, li + 1), x, c, 3, 1, 1)
                .expect("valid conv");
        }
        x = b.max_pool(format!("pool{}", si + 1), x, 2, 2);
    }
    let f6 = b.fc("fc6", x, 4096);
    let f7 = b.fc("fc7", f6, 4096);
    let _f8 = b.fc("fc8", f7, 1000);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn alexnet_conv1_shape() {
        let g = alexnet();
        let c1 = &g.layers()[0];
        assert_eq!(c1.output_shape.h, 55);
        assert_eq!(c1.output_shape.c, 96);
        // conv1 is ~105 MMACs.
        assert!((100e6..110e6).contains(&(c1.ops() as f64)));
    }

    #[test]
    fn alexnet_fc_dominates_weights() {
        let g = alexnet();
        let fc: u64 = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Fc { .. }))
            .map(|l| l.weight_elems())
            .sum();
        assert!(fc as f64 / g.total_weight_bytes() as f64 > 0.9);
    }

    #[test]
    fn split_alexnet_matches_grouped_conv_ops() {
        // The a/b split reproduces the grouped network's conv MACs.
        let full = alexnet();
        let conv_ops: u64 = full
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv { .. }))
            .map(|l| l.ops())
            .sum();
        let split_ops = alexnet_conv().total_ops();
        let ratio = split_ops as f64 / conv_ops as f64;
        assert!(
            (0.95..1.25).contains(&ratio),
            "split/grouped ops ratio {ratio}"
        );
    }

    #[test]
    fn vgg16_has_13_convs_and_3_fcs() {
        let g = vgg16();
        let convs = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv { .. }))
            .count();
        let fcs = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Fc { .. }))
            .count();
        assert_eq!((convs, fcs), (13, 3));
    }

    #[test]
    fn vgg16_final_fmap_is_7x7() {
        let g = vgg16();
        let last_pool = g
            .layers()
            .iter()
            .rfind(|l| matches!(l.kind, LayerKind::Pool { .. }))
            .expect("has pools");
        assert_eq!(last_pool.output_shape.h, 7);
        assert_eq!(last_pool.output_shape.c, 512);
    }
}
