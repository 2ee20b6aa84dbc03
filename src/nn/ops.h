// Copyright (c) 2026 GARCIA reproduction authors.
// Differentiable operations over nn::Tensor.
//
// Every function builds a new tape node whose backward closure accumulates
// into its parents. Shapes follow the row-major convention of core::Matrix:
// a batch is N rows of D-dimensional vectors.

#ifndef GARCIA_NN_OPS_H_
#define GARCIA_NN_OPS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace garcia::core {
class Rng;
}

namespace garcia::nn {

// ----- Linear algebra -----

/// A @ B.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A @ B^T (the similarity-matrix workhorse).
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// X^T.
Tensor Transpose(const Tensor& x);

// ----- Elementwise / broadcast -----

/// A + B (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// A - B (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// A ⊙ B (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// s * X.
Tensor Scale(const Tensor& x, float s);

/// X + c (elementwise constant).
Tensor AddScalar(const Tensor& x, float c);

/// x (NxD) + row-broadcast bias (1xD).
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Row i of x (NxD) scaled by w(i,0); w is Nx1.
Tensor MulColBroadcast(const Tensor& x, const Tensor& w);

/// Mean of a non-empty list of same-shaped tensors (layer readout).
Tensor Average(const std::vector<Tensor>& xs);

// ----- Shape -----

/// [A || B] column-wise; both N rows.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Stacks A on top of B; both D cols.
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// out[i] = x[indices[i]]; gradient scatter-adds. Works on any tensor
/// (embedding lookup when x is a leaf table).
Tensor GatherRows(const Tensor& x, std::vector<uint32_t> indices);

// ----- Activations -----

Tensor Tanh(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor LeakyRelu(const Tensor& x, float slope = 0.2f);
Tensor Sigmoid(const Tensor& x);

/// Numerically stable scalar logistic sigmoid: never exponentiates a
/// positive argument, so it cannot overflow. The shared score->probability
/// helper for every Predict / serving path (and the dz cache of
/// BceWithLogits).
inline float StableSigmoid(float z) {
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}
inline double StableSigmoid(double z) {
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

// ----- Normalization / softmax -----

/// Rows rescaled to unit L2 norm (zero rows pass through unchanged).
Tensor L2NormalizeRows(const Tensor& x, float eps = 1e-12f);

/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& x);

// ----- Reductions -----

/// 1x1 sum of all entries.
Tensor SumAll(const Tensor& x);

/// 1x1 mean of all entries.
Tensor MeanAll(const Tensor& x);

/// Row-wise dot product of same-shaped A, B -> Nx1.
Tensor RowDot(const Tensor& a, const Tensor& b);

// ----- Regularization -----

/// Inverted dropout: keeps entries with prob 1-p and scales by 1/(1-p).
/// p == 0 is the identity. Training-mode only (caller skips at eval).
Tensor Dropout(const Tensor& x, float p, core::Rng* rng);

// ----- Segment ops (variable-degree graph aggregation) -----

/// out[s] = Σ_{e: seg[e]==s} x[e]. x is ExD, seg has E entries < num_segments.
Tensor SegmentSum(const Tensor& x, std::vector<uint32_t> seg,
                  size_t num_segments);

/// Per-segment softmax over Ex1 scores; segments may be empty.
/// Numerically stabilized by the per-segment max.
Tensor SegmentSoftmax(const Tensor& scores, std::vector<uint32_t> seg,
                      size_t num_segments);

// ----- Edge-level attention and aggregation (GARCIA encoder, Eq. 2) -----
//
// Fused forms of the encoder layer's edge chain that never build an E-row
// concatenation. Values and every gradient are bit-identical to the chains
// named below (DESIGN.md §5e, "Fused edge ops").

/// Ex1 attention logits [z_dst || z_src || feat] · w, with z_dst and z_src
/// E x d, feat E x f and w (2d + f) x 1. Equals
/// MatMul(ConcatCols(ConcatCols(z_dst, z_src), feat), w).
Tensor EdgeAttentionLogits(const Tensor& z_dst, const Tensor& z_src,
                           const Tensor& feat, const Tensor& w);

/// out[s] = Σ_{e: seg[e]==s} alpha[e] · [z_src[e] || feat[e]], a
/// num_segments x (d + f) matrix built straight from the edge list. Equals
/// SegmentSum(MulColBroadcast(ConcatCols(z_src, feat), alpha), seg,
/// num_segments).
Tensor WeightedSegmentSum(const Tensor& z_src, const Tensor& feat,
                          const Tensor& alpha, std::vector<uint32_t> seg,
                          size_t num_segments);

}  // namespace garcia::nn

#endif  // GARCIA_NN_OPS_H_
