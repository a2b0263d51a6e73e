//! Layer graphs: the framework-level representation of a model.
//!
//! A [`LayerGraph`] is the *executed* sequence of layers — the paper is
//! explicit that "the measured layers may be different from the ones
//! statically defined in the model graph, since a framework may perform
//! model optimization at runtime" (§III-D2). Model-zoo builders produce
//! graphs in static form; each framework personality rewrites them into its
//! executed form before running.

use serde::{Deserialize, Serialize};
use xsp_dnn::{AttentionParams, ConvParams, DecodeParams};
use xsp_trace::Name;

/// Tensor shape, outermost dimension first (NCHW for image tensors).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorShape(pub Vec<usize>);

impl TensorShape {
    /// NCHW convenience constructor.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        TensorShape(vec![n, c, h, w])
    }

    /// Flat (N, features) shape.
    pub fn nf(n: usize, f: usize) -> Self {
        TensorShape(vec![n, f])
    }

    /// Total element count.
    pub fn elements(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }

    /// Bytes at f32 precision.
    pub fn bytes(&self) -> u64 {
        self.elements() * 4
    }

    /// Leading (batch) dimension; 1 for rank-0 shapes.
    pub fn batch(&self) -> usize {
        self.0.first().copied().unwrap_or(1)
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "⟨{}⟩",
            self.0
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// The operation a layer performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerOp {
    /// Input placeholder / feed staging.
    Data,
    /// 2-D convolution.
    Conv2D(ConvParams),
    /// Depthwise 2-D convolution.
    DepthwiseConv2dNative(ConvParams),
    /// Batch normalization (inference). TensorFlow decomposes this at
    /// rewrite time; MXNet executes it fused.
    FusedBatchNorm,
    /// Broadcast multiply.
    Mul,
    /// Broadcast add.
    Add,
    /// N-ary elementwise sum (residual adds).
    AddN(u8),
    /// Rectified linear unit.
    Relu,
    /// Relu clipped at 6 (MobileNet).
    Relu6,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Channelwise bias add.
    BiasAdd,
    /// Max pooling with square window/stride.
    MaxPool {
        /// Window edge length.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling with square window/stride.
    AvgPool {
        /// Window edge length.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Reduce-mean over spatial dims (global average pooling).
    Mean,
    /// Dense layer as a GEMM.
    MatMul {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Softmax over the trailing dim.
    Softmax,
    /// Channel concatenation (Inception/DenseNet).
    Concat,
    /// Spatial padding.
    Pad,
    /// Metadata-only reshape.
    Reshape,
    /// Layout transpose.
    Transpose,
    /// Conditional gather/reshape; dominates detection models (§IV-A).
    Where,
    /// Non-maximum suppression (host-heavy).
    NonMaxSuppression,
    /// ROI crop-and-resize (detection second stages).
    CropAndResize,
    /// Bilinear resize (segmentation/SSD heads).
    ResizeBilinear,
    /// Local response normalization (AlexNet-era).
    Lrn,
    /// Token + position embedding lookup (transformer input): a gather into
    /// the `vocab × d_model` table.
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Model (hidden) dimension.
        d_model: usize,
    },
    /// Fused Q/K/V projection of a multi-head attention block: one GEMM of
    /// `(3·d_model, batch·seq, d_model)`.
    QkvProjection(AttentionParams),
    /// Scaled `Q·Kᵀ` attention-score product: a strided-batched GEMM of
    /// `seq × seq × head_dim` slices, one per `(example, head)`.
    AttentionScores(AttentionParams),
    /// Softmax over the materialized attention-score rows (fused
    /// scale-mask-softmax kernel).
    AttentionSoftmax(AttentionParams),
    /// `softmax(scores)·V` context product: the second strided-batched GEMM.
    AttentionContext(AttentionParams),
    /// Attention output projection: `(d_model, batch·seq, d_model)` GEMM
    /// re-mixing the concatenated heads.
    AttentionOutput(AttentionParams),
    /// Layer normalization over the trailing (feature) dimension.
    LayerNorm,
    /// GELU activation (transformer feed-forward nonlinearity).
    Gelu,
    /// Appending the decode step's K/V pair to the per-request cache.
    KvCacheAppend(DecodeParams),
    /// Decode-time fused Q/K/V projection: a GEMV batch of
    /// `(3·d_model, batch, d_model)` for the step's single token.
    DecodeQkvProjection(DecodeParams),
    /// Decode `q·K_cacheᵀ` score product streaming the K cache.
    DecodeAttentionScores(DecodeParams),
    /// Softmax over the materialized decode score row.
    DecodeAttentionSoftmax(DecodeParams),
    /// Decode `softmax(scores)·V_cache` context product streaming the V
    /// cache.
    DecodeAttentionContext(DecodeParams),
    /// Decode attention output projection, `(d_model, batch, d_model)` GEMV.
    DecodeAttentionOutput(DecodeParams),
    /// FlashAttention-style fused decode attention: scores, softmax and
    /// context in one kernel, score row never materialized — replaces the
    /// three ops above on the fused path.
    FlashDecodeAttention(DecodeParams),
    /// Dense layer at decode time: same weights as [`LayerOp::MatMul`] but
    /// lowered to a weight-streaming GEMV (only `batch` tokens in flight).
    DecodeLinear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl LayerOp {
    /// The framework type name as it appears in profiles ("Conv2D", ...).
    /// Batch-norm reports the TensorFlow name before rewrite and the fused
    /// name when executed by MXNet; the rewrite replaces it entirely for TF.
    pub fn type_name(&self) -> &'static str {
        match self {
            LayerOp::Data => "Data",
            LayerOp::Conv2D(_) => "Conv2D",
            LayerOp::DepthwiseConv2dNative(_) => "DepthwiseConv2dNative",
            LayerOp::FusedBatchNorm => "BatchNorm",
            LayerOp::Mul => "Mul",
            LayerOp::Add => "Add",
            LayerOp::AddN(_) => "AddN",
            LayerOp::Relu => "Relu",
            LayerOp::Relu6 => "Relu6",
            LayerOp::Sigmoid => "Sigmoid",
            LayerOp::Tanh => "Tanh",
            LayerOp::BiasAdd => "BiasAdd",
            LayerOp::MaxPool { .. } => "MaxPool",
            LayerOp::AvgPool { .. } => "AvgPool",
            LayerOp::Mean => "Mean",
            LayerOp::MatMul { .. } => "MatMul",
            LayerOp::Softmax => "Softmax",
            LayerOp::Concat => "ConcatV2",
            LayerOp::Pad => "Pad",
            LayerOp::Reshape => "Reshape",
            LayerOp::Transpose => "Transpose",
            LayerOp::Where => "Where",
            LayerOp::NonMaxSuppression => "NonMaxSuppressionV3",
            LayerOp::CropAndResize => "CropAndResize",
            LayerOp::ResizeBilinear => "ResizeBilinear",
            LayerOp::Lrn => "LRN",
            LayerOp::Embedding { .. } => "GatherV2",
            LayerOp::QkvProjection(_) => "QkvMatMul",
            LayerOp::AttentionScores(_) => "BatchMatMulQK",
            LayerOp::AttentionSoftmax(_) => "AttentionSoftmax",
            LayerOp::AttentionContext(_) => "BatchMatMulQKV",
            LayerOp::AttentionOutput(_) => "AttentionOutputMatMul",
            LayerOp::LayerNorm => "LayerNorm",
            LayerOp::Gelu => "Gelu",
            LayerOp::KvCacheAppend(_) => "KvCacheAppend",
            LayerOp::DecodeQkvProjection(_) => "DecodeQkvMatMul",
            LayerOp::DecodeAttentionScores(_) => "DecodeBatchMatMulQK",
            LayerOp::DecodeAttentionSoftmax(_) => "DecodeAttentionSoftmax",
            LayerOp::DecodeAttentionContext(_) => "DecodeBatchMatMulQKV",
            LayerOp::DecodeAttentionOutput(_) => "DecodeAttentionOutputMatMul",
            LayerOp::FlashDecodeAttention(_) => "FlashDecodeAttention",
            LayerOp::DecodeLinear { .. } => "DecodeMatMul",
        }
    }

    /// Whether this op is a convolution for the paper's "convolution
    /// percentage" metric (Conv2D + DepthwiseConv2dNative; §IV-A).
    pub fn is_convolution(&self) -> bool {
        matches!(self, LayerOp::Conv2D(_) | LayerOp::DepthwiseConv2dNative(_))
    }

    /// Whether the op lowers to a (possibly batched) dense GEMM — the
    /// transformer tier's counterpart of [`LayerOp::is_convolution`]; the
    /// GEMM latency share is what classifies a model as GEMM-bound.
    pub fn is_gemm(&self) -> bool {
        matches!(
            self,
            LayerOp::MatMul { .. }
                | LayerOp::QkvProjection(_)
                | LayerOp::AttentionScores(_)
                | LayerOp::AttentionContext(_)
                | LayerOp::AttentionOutput(_)
        )
    }

    /// Whether the op belongs to the scaled-dot-product attention chain
    /// (QKV through output projection, softmax included) — prefill or
    /// decode flavor.
    pub fn is_attention(&self) -> bool {
        matches!(
            self,
            LayerOp::QkvProjection(_)
                | LayerOp::AttentionScores(_)
                | LayerOp::AttentionSoftmax(_)
                | LayerOp::AttentionContext(_)
                | LayerOp::AttentionOutput(_)
                | LayerOp::DecodeQkvProjection(_)
                | LayerOp::DecodeAttentionScores(_)
                | LayerOp::DecodeAttentionSoftmax(_)
                | LayerOp::DecodeAttentionContext(_)
                | LayerOp::DecodeAttentionOutput(_)
                | LayerOp::FlashDecodeAttention(_)
        )
    }

    /// Whether the op belongs to the KV-cache decode repertoire (seq=1
    /// serving steps): cache maintenance, decode attention (materialized or
    /// fused), and decode-time GEMV linears.
    pub fn is_decode(&self) -> bool {
        matches!(
            self,
            LayerOp::KvCacheAppend(_)
                | LayerOp::DecodeQkvProjection(_)
                | LayerOp::DecodeAttentionScores(_)
                | LayerOp::DecodeAttentionSoftmax(_)
                | LayerOp::DecodeAttentionContext(_)
                | LayerOp::DecodeAttentionOutput(_)
                | LayerOp::FlashDecodeAttention(_)
                | LayerOp::DecodeLinear { .. }
        )
    }

    /// Whether the op executes entirely on the host (no GPU kernels).
    pub fn is_cpu_only(&self) -> bool {
        matches!(
            self,
            LayerOp::Data | LayerOp::Reshape | LayerOp::NonMaxSuppression
        )
    }
}

/// One executed layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Framework-assigned name ("conv2d_48/Conv2D"); shared with every
    /// layer span a run emits for it.
    pub name: Name,
    /// Operation.
    pub op: LayerOp,
    /// Output tensor shape.
    pub out_shape: TensorShape,
}

impl Layer {
    /// Creates a layer.
    pub fn new(name: impl Into<Name>, op: LayerOp, out_shape: TensorShape) -> Self {
        Self {
            name: name.into(),
            op,
            out_shape,
        }
    }

    /// Bytes of trained parameters the layer carries (f32 weights, biases
    /// and BN statistics). Summed over a graph this approximates the frozen
    /// graph size Table VIII reports.
    pub fn weight_bytes(&self) -> u64 {
        let c = self.out_shape.0.get(1).copied().unwrap_or(1) as u64;
        match &self.op {
            LayerOp::Conv2D(p) => (p.out_c * p.in_c * p.kernel_h * p.kernel_w + p.out_c) as u64 * 4,
            LayerOp::DepthwiseConv2dNative(p) => {
                (p.in_c * p.kernel_h * p.kernel_w + p.in_c) as u64 * 4
            }
            LayerOp::MatMul {
                in_features,
                out_features,
            } => (*in_features as u64 * *out_features as u64 + *out_features as u64) * 4,
            // scale, shift, mean, variance per channel
            LayerOp::FusedBatchNorm => 4 * c * 4,
            LayerOp::BiasAdd => c * 4,
            // token table plus 512 learned positions and 2 segment rows
            // (the BERT embedding layout)
            LayerOp::Embedding { vocab, d_model } => {
                (*vocab as u64 + 512 + 2) * *d_model as u64 * 4
            }
            LayerOp::QkvProjection(p) => {
                let d = p.d_model() as u64;
                (3 * d * d + 3 * d) * 4
            }
            LayerOp::AttentionOutput(p) => {
                let d = p.d_model() as u64;
                (d * d + d) * 4
            }
            LayerOp::DecodeQkvProjection(p) => {
                let d = p.d_model() as u64;
                (3 * d * d + 3 * d) * 4
            }
            LayerOp::DecodeAttentionOutput(p) => {
                let d = p.d_model() as u64;
                (d * d + d) * 4
            }
            LayerOp::DecodeLinear {
                in_features,
                out_features,
            } => (*in_features as u64 * *out_features as u64 + *out_features as u64) * 4,
            // gamma and beta over the trailing feature dimension
            LayerOp::LayerNorm => 2 * self.out_shape.0.last().copied().unwrap_or(1) as u64 * 4,
            _ => 0,
        }
    }

    /// Bytes the framework allocates on the layer's behalf (output tensor;
    /// convolutions also get an algorithm workspace).
    pub fn alloc_bytes(&self) -> u64 {
        let out = self.out_shape.bytes();
        match &self.op {
            // cuDNN workspace: precomp indices ≈ small fraction of output.
            LayerOp::Conv2D(_) => out + out / 32,
            // metadata-only ops allocate nothing
            LayerOp::Reshape | LayerOp::Data => 0,
            _ => out,
        }
    }
}

/// An ordered sequence of layers (execution order).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerGraph {
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl LayerGraph {
    /// Creates a graph from layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Appends a layer and returns its index.
    pub fn push(&mut self, layer: Layer) -> usize {
        self.layers.push(layer);
        self.layers.len() - 1
    }

    /// The batch size, read from the first layer's shape.
    pub fn batch(&self) -> usize {
        self.layers
            .first()
            .map(|l| l.out_shape.batch())
            .unwrap_or(1)
    }

    /// Total trained-parameter footprint of the graph, MB — comparable to
    /// a frozen-graph file size.
    pub fn weights_mb(&self) -> f64 {
        self.layers.iter().map(|l| l.weight_bytes()).sum::<u64>() as f64 / 1e6
    }

    /// Count of layers per type name.
    pub fn type_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut hist: Vec<(&'static str, usize)> = Vec::new();
        for l in &self.layers {
            let t = l.op.type_name();
            match hist.iter_mut().find(|(n, _)| *n == t) {
                Some((_, c)) => *c += 1,
                None => hist.push((t, 1)),
            }
        }
        hist.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_math() {
        let s = TensorShape::nchw(256, 512, 7, 7);
        assert_eq!(s.elements(), 256 * 512 * 49);
        assert_eq!(s.bytes(), 256 * 512 * 49 * 4);
        assert_eq!(s.batch(), 256);
        assert_eq!(s.to_string(), "⟨256, 512, 7, 7⟩");
    }

    #[test]
    fn alloc_matches_paper_table_ii() {
        // Table II: conv2d_48/Conv2D with shape ⟨256, 512, 7, 7⟩ allocates
        // ≈25.7 MB.
        let p = ConvParams {
            batch: 256,
            in_c: 512,
            in_h: 7,
            in_w: 7,
            out_c: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
        };
        let l = Layer::new(
            "conv2d_48/Conv2D",
            LayerOp::Conv2D(p),
            TensorShape::nchw(256, 512, 7, 7),
        );
        let mb = l.alloc_bytes() as f64 / 1e6;
        assert!((mb - 25.7).abs() < 1.0, "got {mb} MB");
    }

    #[test]
    fn first_conv_alloc_matches_paper() {
        // Table II layer 3: ⟨256, 64, 112, 112⟩ allocates ≈822 MB.
        let l = Layer::new(
            "conv2d/Conv2D",
            LayerOp::Conv2D(ConvParams {
                batch: 256,
                in_c: 3,
                in_h: 224,
                in_w: 224,
                out_c: 64,
                kernel_h: 7,
                kernel_w: 7,
                stride: 2,
                pad: 3,
            }),
            TensorShape::nchw(256, 64, 112, 112),
        );
        let mb = l.alloc_bytes() as f64 / 1e6;
        assert!((mb - 822.1).abs() / 822.1 < 0.05, "got {mb} MB");
    }

    #[test]
    fn convolution_classification() {
        let p = ConvParams {
            batch: 1,
            in_c: 3,
            in_h: 8,
            in_w: 8,
            out_c: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
        };
        assert!(LayerOp::Conv2D(p).is_convolution());
        assert!(LayerOp::DepthwiseConv2dNative(p).is_convolution());
        assert!(!LayerOp::Mul.is_convolution());
        assert!(!LayerOp::MatMul {
            in_features: 1,
            out_features: 1
        }
        .is_convolution());
    }

    #[test]
    fn cpu_only_ops() {
        assert!(LayerOp::Reshape.is_cpu_only());
        assert!(LayerOp::NonMaxSuppression.is_cpu_only());
        assert!(!LayerOp::Where.is_cpu_only(), "Where has a gather kernel");
        assert!(!LayerOp::Relu.is_cpu_only());
    }

    #[test]
    fn transformer_op_classification() {
        let p = AttentionParams {
            batch: 1,
            seq: 64,
            heads: 4,
            head_dim: 16,
        };
        assert!(LayerOp::QkvProjection(p).is_gemm());
        assert!(LayerOp::AttentionScores(p).is_gemm());
        assert!(LayerOp::AttentionContext(p).is_gemm());
        assert!(LayerOp::AttentionOutput(p).is_gemm());
        assert!(LayerOp::MatMul {
            in_features: 8,
            out_features: 8
        }
        .is_gemm());
        assert!(!LayerOp::AttentionSoftmax(p).is_gemm());
        assert!(LayerOp::AttentionSoftmax(p).is_attention());
        assert!(!LayerOp::LayerNorm.is_attention());
        assert!(!LayerOp::QkvProjection(p).is_convolution());
        assert!(!LayerOp::QkvProjection(p).is_cpu_only());
    }

    #[test]
    fn transformer_weight_bytes() {
        let p = AttentionParams {
            batch: 1,
            seq: 128,
            heads: 12,
            head_dim: 64,
        };
        let d = 768u64;
        let qkv = Layer::new(
            "qkv",
            LayerOp::QkvProjection(p),
            TensorShape(vec![1, 128, 3 * 768]),
        );
        assert_eq!(qkv.weight_bytes(), (3 * d * d + 3 * d) * 4);
        let out = Layer::new(
            "out",
            LayerOp::AttentionOutput(p),
            TensorShape(vec![1, 128, 768]),
        );
        assert_eq!(out.weight_bytes(), (d * d + d) * 4);
        let ln = Layer::new("ln", LayerOp::LayerNorm, TensorShape(vec![1, 128, 768]));
        assert_eq!(ln.weight_bytes(), 2 * d * 4);
        let emb = Layer::new(
            "emb",
            LayerOp::Embedding {
                vocab: 30522,
                d_model: 768,
            },
            TensorShape(vec![1, 128, 768]),
        );
        assert_eq!(emb.weight_bytes(), (30522 + 512 + 2) * d * 4);
        // the score/softmax/context chain carries no weights
        for op in [
            LayerOp::AttentionScores(p),
            LayerOp::AttentionSoftmax(p),
            LayerOp::AttentionContext(p),
            LayerOp::Gelu,
        ] {
            let l = Layer::new("x", op, TensorShape(vec![1, 12, 128, 128]));
            assert_eq!(l.weight_bytes(), 0);
        }
    }

    #[test]
    fn histogram_sorted_desc() {
        let mut g = LayerGraph::default();
        for i in 0..3 {
            g.push(Layer::new(
                format!("relu{i}"),
                LayerOp::Relu,
                TensorShape::nf(1, 8),
            ));
        }
        g.push(Layer::new("sm", LayerOp::Softmax, TensorShape::nf(1, 8)));
        let h = g.type_histogram();
        assert_eq!(h[0], ("Relu", 3));
        assert_eq!(h[1], ("Softmax", 1));
        assert_eq!(g.len(), 4);
        assert_eq!(g.batch(), 1);
    }
}
