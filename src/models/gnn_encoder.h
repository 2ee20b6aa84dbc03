// Copyright (c) 2026 GARCIA reproduction authors.
// GNN encoders over the service search graph.
//
// GarciaGnnEncoder implements Eq. 2 of the paper:
//   Aggregate: m_q = Tanh(W_A · Σ_{v∈N_q} α_{q,v} [z_v || e_{q,v}])
//   Update:    z_q^{l+1} = ReLU(W_U [z_q^l || m_q])
//   Readout:   z_q = mean_l z_q^{(l)}
// with α produced by a GAT-style attention over [z_q || z_v || e] and
// normalized per destination via segment softmax.
//
// There is exactly ONE encode implementation, EncodeBlock, which runs the
// L passes over a graph::Block (DESIGN.md §5e): the full-graph pass is the
// trivial all-nodes block, a training minibatch is a sampled block whose
// per-pass compacted src/dst/edge-feature arrays shrink toward the seed
// rows. Seed rows are a prefix of every per-layer representation.
//
// The file also provides the shared symmetric-normalized propagation used
// by the LightGCN family of baselines, in full-graph and per-block-layer
// forms.

#ifndef GARCIA_MODELS_GNN_ENCODER_H_
#define GARCIA_MODELS_GNN_ENCODER_H_

#include <memory>
#include <vector>

#include "graph/neighbor_sampler.h"
#include "graph/search_graph.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace garcia::models {

/// Per-layer node representations of one encoding pass.
struct GnnOutput {
  /// layers[l] is the z^{(l)} matrix, l = 0..L. Over a sampled block the
  /// row count shrinks with l (|A_l| rows, seeds first); over the full
  /// graph every layer has all N rows.
  std::vector<nn::Tensor> layers;
  /// Mean over layers (the readout of Eq. 2), restricted to the block's
  /// readout rows (all nodes for the full graph, the seeds for a sample).
  nn::Tensor readout;
};

/// The adaptive encoder of Sec. IV-A1, bound to one graph partition.
/// Node initial states are id embeddings plus a linear projection of the
/// node attributes (the paper initializes from "original attributes or
/// learnable embedding table"; we use both).
class GarciaGnnEncoder : public nn::Module {
 public:
  /// use_attention=false replaces the learned attention with uniform
  /// 1/deg weights (the "attention vs mean aggregation" ablation of
  /// DESIGN.md §5).
  GarciaGnnEncoder(size_t num_nodes, size_t attr_dim, size_t dim,
                   size_t num_layers, core::Rng* rng,
                   bool use_attention = true);

  /// Runs L layers over the (finalized) graph: EncodeBlock on the trivial
  /// all-nodes block. The graph must have num_nodes nodes and attr_dim
  /// attributes.
  GnnOutput Encode(const graph::SearchGraph& g) const;

  /// Runs L layers over one block of the graph. A sampled block must come
  /// from a NeighborSampler over `g` with matching num_layers; with
  /// fanout 0 the seed readout rows are bit-identical to Encode(g)'s rows
  /// for the same nodes.
  GnnOutput EncodeBlock(const graph::SearchGraph& g,
                        const graph::Block& block) const;

  size_t dim() const { return dim_; }
  size_t num_layers() const { return num_layers_; }
  size_t num_nodes() const { return id_embedding_->num_entities(); }

 private:
  size_t dim_;
  size_t num_layers_;
  bool use_attention_;
  std::unique_ptr<nn::Embedding> id_embedding_;
  std::unique_ptr<nn::Linear> attr_proj_;
  struct Layer {
    std::unique_ptr<nn::Linear> attention;  // w_att: [z_dst||z_src||e] -> 1
    std::unique_ptr<nn::Linear> aggregate;  // W_A: [z_src||e] -> d
    std::unique_ptr<nn::Linear> update;     // W_U: [z||m] -> d
  };
  std::vector<Layer> layers_;
};

/// First `rows` rows of z. The identity (the same tensor, no tape node)
/// when z already has exactly that many rows — full-graph passes stay on
/// the exact pre-block tape.
nn::Tensor SliceRows(const nn::Tensor& z, size_t rows);

/// Mean over per-layer representations restricted to the first `rows`
/// rows of each. Equals nn::Average when every layer already has `rows`
/// rows (the full-graph case).
nn::Tensor LayerMeanReadout(const std::vector<nn::Tensor>& layers,
                            size_t rows);

/// One step of symmetric-normalized sum aggregation (LightGCN style):
/// out[i] = Σ_{e: dst=i} z[src_e] / sqrt(deg(src_e) · deg(dst_e)).
/// `keep` optionally masks edges (SGL edge dropout); degrees are computed
/// on the kept edges.
nn::Tensor GcnPropagate(const nn::Tensor& z,
                        const std::vector<uint32_t>& edge_src,
                        const std::vector<uint32_t>& edge_dst,
                        size_t num_nodes,
                        const std::vector<uint8_t>* keep = nullptr);

/// The same propagation step over one pass of a sampled block. Edge
/// weights come from `inv_sqrt_deg` (full-graph degrees at the GLOBAL
/// endpoints, see graph::InvSqrtDegrees) so a sampled sum is an unbiased
/// restriction of the full-graph sum, not a renormalized one.
nn::Tensor GcnPropagateBlockLayer(const nn::Tensor& z,
                                  const graph::Block& block,
                                  const graph::BlockLayer& layer,
                                  const std::vector<float>& inv_sqrt_deg);

}  // namespace garcia::models

#endif  // GARCIA_MODELS_GNN_ENCODER_H_
