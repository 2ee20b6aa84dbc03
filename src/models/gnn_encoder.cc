#include "models/gnn_encoder.h"

#include <cmath>
#include <numeric>

namespace garcia::models {

using nn::Tensor;

GarciaGnnEncoder::GarciaGnnEncoder(size_t num_nodes, size_t attr_dim,
                                   size_t dim, size_t num_layers,
                                   core::Rng* rng, bool use_attention)
    : dim_(dim), num_layers_(num_layers), use_attention_(use_attention) {
  id_embedding_ = std::make_unique<nn::Embedding>(num_nodes, dim, rng);
  RegisterChild(id_embedding_.get());
  attr_proj_ = std::make_unique<nn::Linear>(attr_dim, dim, rng);
  RegisterChild(attr_proj_.get());
  const size_t de = graph::kEdgeFeatureDim;
  layers_.resize(num_layers);
  for (auto& layer : layers_) {
    layer.attention = std::make_unique<nn::Linear>(2 * dim + de, 1, rng,
                                                   /*bias=*/false);
    layer.aggregate = std::make_unique<nn::Linear>(dim + de, dim, rng);
    layer.update = std::make_unique<nn::Linear>(2 * dim, dim, rng);
    RegisterChild(layer.attention.get());
    RegisterChild(layer.aggregate.get());
    RegisterChild(layer.update.get());
  }
}

Tensor SliceRows(const Tensor& z, size_t rows) {
  if (z.rows() == rows) return z;
  GARCIA_CHECK_LT(rows, z.rows());
  std::vector<uint32_t> prefix(rows);
  std::iota(prefix.begin(), prefix.end(), 0u);
  return nn::GatherRows(z, std::move(prefix));
}

Tensor LayerMeanReadout(const std::vector<Tensor>& layers, size_t rows) {
  bool uniform = true;
  for (const Tensor& l : layers) uniform = uniform && l.rows() == rows;
  if (uniform) return nn::Average(layers);
  std::vector<Tensor> sliced;
  sliced.reserve(layers.size());
  for (const Tensor& l : layers) sliced.push_back(SliceRows(l, rows));
  return nn::Average(sliced);
}

GnnOutput GarciaGnnEncoder::Encode(const graph::SearchGraph& g) const {
  return EncodeBlock(g, graph::Block::FullGraph(g));
}

GnnOutput GarciaGnnEncoder::EncodeBlock(const graph::SearchGraph& g,
                                        const graph::Block& block) const {
  GARCIA_CHECK(g.finalized());
  GARCIA_CHECK_EQ(g.num_nodes(), id_embedding_->num_entities());
  GARCIA_CHECK_EQ(block.num_graph_nodes, g.num_nodes());
  const bool full = block.full_graph;
  if (!full) GARCIA_CHECK_EQ(block.layers.size(), num_layers_);

  GnnOutput out;
  // z^(0): id embedding + projected attributes — the whole table for the
  // full graph, the block's gathered rows otherwise.
  Tensor z;
  if (full) {
    z = nn::Add(id_embedding_->Table(),
                attr_proj_->Forward(Tensor::Constant(g.attributes())));
  } else {
    core::Matrix attrs(block.nodes.size(), g.attr_dim());
    for (size_t i = 0; i < block.nodes.size(); ++i) {
      attrs.CopyRowFrom(g.attributes(), block.nodes[i], i);
    }
    z = nn::Add(nn::GatherRows(id_embedding_->Table(), block.nodes),
                attr_proj_->Forward(Tensor::Constant(std::move(attrs))));
  }
  out.layers.push_back(z);

  // Full graph: one edge-feature constant hoisted out of the layer loop;
  // sampled blocks carry per-pass feature rows instead.
  Tensor full_efeat;
  if (full) full_efeat = Tensor::Constant(g.edge_features());

  for (size_t l = 0; l < num_layers_; ++l) {
    const Layer& layer = layers_[l];
    const std::vector<uint32_t>& src =
        full ? g.edge_src() : block.layers[l].src;
    const std::vector<uint32_t>& dst =
        full ? g.edge_dst() : block.layers[l].dst;
    const size_t ndst = full ? g.num_nodes() : block.layers[l].num_dst;
    if (src.empty()) {
      // No edges: message is zero; update still mixes z with the zero
      // message so parameters stay exercised.
      Tensor zero_m = Tensor::Constant(core::Matrix(ndst, dim_));
      Tensor m = nn::Tanh(layer.aggregate->Forward(
          nn::ConcatCols(zero_m, Tensor::Constant(core::Matrix(
                                     ndst, graph::kEdgeFeatureDim)))));
      z = nn::Relu(layer.update->Forward(
          nn::ConcatCols(SliceRows(z, ndst), m)));
      out.layers.push_back(z);
      continue;
    }
    Tensor efeat =
        full ? full_efeat : Tensor::Constant(block.layers[l].edge_feats);
    // The two E x d gathers are the only edge-row tensors on the tape: the
    // attention logits and the weighted message sum read [z_dst || z_src ||
    // e] and [z_src || e] straight from them (DESIGN.md §5e).
    Tensor z_src = nn::GatherRows(z, src);
    Tensor alpha;
    if (use_attention_) {
      Tensor z_dst = nn::GatherRows(z, dst);
      // Attention logits over [z_dst || z_src || e]; α via per-destination
      // segment softmax ("implemented by the recent emerging attention
      // mechanism", Eq. 2).
      Tensor logits = nn::LeakyRelu(
          nn::EdgeAttentionLogits(z_dst, z_src, efeat,
                                  layer.attention->weight()),
          0.2f);
      alpha = nn::SegmentSoftmax(logits, dst, ndst);
    } else {
      // Uniform 1/deg weights (segment softmax of constant scores).
      alpha = nn::SegmentSoftmax(
          Tensor::Constant(core::Matrix(src.size(), 1)), dst, ndst);
    }
    // Weighted sum of [z_v || e] per destination, then W_A + Tanh.
    Tensor summed = nn::WeightedSegmentSum(z_src, efeat, alpha, dst, ndst);
    Tensor m = nn::Tanh(layer.aggregate->Forward(summed));
    // Update: ReLU(W_U [z || m]) over this pass's destination prefix.
    z = nn::Relu(layer.update->Forward(nn::ConcatCols(SliceRows(z, ndst), m)));
    out.layers.push_back(z);
  }

  out.readout = LayerMeanReadout(out.layers, block.num_readout_rows());
  return out;
}

nn::Tensor GcnPropagate(const nn::Tensor& z,
                        const std::vector<uint32_t>& edge_src,
                        const std::vector<uint32_t>& edge_dst,
                        size_t num_nodes,
                        const std::vector<uint8_t>* keep) {
  GARCIA_CHECK_EQ(edge_src.size(), edge_dst.size());
  GARCIA_CHECK_EQ(z.rows(), num_nodes);
  // Degrees over kept edges. In- and out-degree are tracked separately so
  // asymmetric edge dropout (SGL) keeps every surviving edge weighted; on
  // the bidirectionally-stored graph without dropout they coincide with the
  // undirected degree.
  std::vector<double> deg_in(num_nodes, 0.0), deg_out(num_nodes, 0.0);
  size_t kept = 0;
  for (size_t e = 0; e < edge_src.size(); ++e) {
    if (keep != nullptr && !(*keep)[e]) continue;
    deg_in[edge_dst[e]] += 1.0;
    deg_out[edge_src[e]] += 1.0;
    ++kept;
  }
  if (kept == 0) return Tensor::Constant(core::Matrix(num_nodes, z.cols()));
  // Exactly `kept` survivors are known after the degree pass, so the weight
  // matrix is sized once and filled directly — no full-size scratch copy.
  std::vector<uint32_t> src_kept, dst_kept;
  src_kept.reserve(kept);
  dst_kept.reserve(kept);
  core::Matrix w_kept(kept, 1);
  size_t w = 0;
  for (size_t e = 0; e < edge_src.size(); ++e) {
    if (keep != nullptr && !(*keep)[e]) continue;
    const double d = deg_out[edge_src[e]] * deg_in[edge_dst[e]];
    w_kept.at(w, 0) = d > 0.0 ? static_cast<float>(1.0 / std::sqrt(d)) : 0.0f;
    src_kept.push_back(edge_src[e]);
    dst_kept.push_back(edge_dst[e]);
    ++w;
  }

  Tensor gathered = nn::GatherRows(z, src_kept);
  Tensor weighted =
      nn::MulColBroadcast(gathered, Tensor::Constant(std::move(w_kept)));
  return nn::SegmentSum(weighted, dst_kept, num_nodes);
}

nn::Tensor GcnPropagateBlockLayer(const nn::Tensor& z,
                                  const graph::Block& block,
                                  const graph::BlockLayer& layer,
                                  const std::vector<float>& inv_sqrt_deg) {
  GARCIA_CHECK(!block.full_graph);
  GARCIA_CHECK_GE(z.rows(), layer.num_src);
  if (layer.src.empty()) {
    return Tensor::Constant(core::Matrix(layer.num_dst, z.cols()));
  }
  core::Matrix w(layer.src.size(), 1);
  for (size_t e = 0; e < layer.src.size(); ++e) {
    w.at(e, 0) = inv_sqrt_deg[block.nodes[layer.src[e]]] *
                 inv_sqrt_deg[block.nodes[layer.dst[e]]];
  }
  Tensor gathered = nn::GatherRows(z, layer.src);
  Tensor weighted =
      nn::MulColBroadcast(gathered, Tensor::Constant(std::move(w)));
  return nn::SegmentSum(weighted, layer.dst, layer.num_dst);
}

}  // namespace garcia::models
