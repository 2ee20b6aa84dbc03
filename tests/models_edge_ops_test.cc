// Exactness of the fused edge ops inside the GARCIA encoder layer.
//
// EncodeBlock computes the attention logits with nn::EdgeAttentionLogits and
// the weighted neighbor sum with nn::WeightedSegmentSum. The reference below
// is the generic op chain those two replace (GatherRows, ConcatCols, MatMul,
// LeakyRelu, SegmentSoftmax, MulColBroadcast, SegmentSum), built from the
// encoder's own parameters. Every forward value and every gradient must
// match it bit for bit (memcmp, so even the sign of a zero counts), at any
// thread count, with fusion on or off, on the full graph and on sampled
// blocks, and when one encoder is used twice in a step.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/rng.h"
#include "graph/neighbor_sampler.h"
#include "graph/search_graph.h"
#include "models/gnn_encoder.h"
#include "nn/ops.h"

namespace garcia::models {
namespace {

using core::Matrix;
using core::Rng;
using nn::Tensor;

constexpr size_t kDim = 8;
constexpr size_t kLayers = 2;
constexpr uint64_t kParamSeed = 17;

// Queries x services with `links` random links, `duplicates` of which are
// repeated verbatim, and the last `isolated` queries left without any link
// (zero in-degree). The random part is sized past the kernels' scatter and
// row shard floors so threaded contexts really shard.
graph::SearchGraph MakeGraph(size_t queries, size_t services, size_t links,
                             size_t duplicates, size_t isolated) {
  graph::SearchGraph g(queries, services, 6);
  Rng rng(5);
  g.attributes() = Matrix::Randn(g.num_nodes(), g.attr_dim(), &rng);
  const uint32_t linked_queries = static_cast<uint32_t>(queries - isolated);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < links && linked_queries > 0; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng.UniformInt(linked_queries)),
                       static_cast<uint32_t>(rng.UniformInt(services)));
  }
  for (size_t i = 0; i < duplicates && i < pairs.size(); ++i) {
    pairs.push_back(pairs[i]);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto kind = i % 3 == 0 ? graph::EdgeKind::kCorrelation
                                 : graph::EdgeKind::kInteraction;
    g.AddLink(pairs[i].first, pairs[i].second, kind,
              static_cast<float>(rng.Uniform()),
              static_cast<uint8_t>(rng.UniformInt(8)));
  }
  g.Finalize();
  return g;
}

// The pre-fusion EncodeBlock, op for op, over `enc`'s parameters.
GnnOutput ReferenceEncode(const GarciaGnnEncoder& enc,
                          const graph::SearchGraph& g,
                          const graph::Block& block, bool use_attention) {
  const std::vector<Tensor> params = enc.Parameters();
  // Parameters(): id table, attr W, attr b, then per layer
  // (w_att, W_A, b_A, W_U, b_U).
  auto linear = [](const Tensor& x, const Tensor& w, const Tensor& b) {
    return nn::AddRowBroadcast(nn::MatMul(x, w), b);
  };
  const bool full = block.full_graph;
  GnnOutput out;
  Tensor z;
  if (full) {
    z = nn::Add(params[0], linear(Tensor::Constant(g.attributes()), params[1],
                                  params[2]));
  } else {
    Matrix attrs(block.nodes.size(), g.attr_dim());
    for (size_t i = 0; i < block.nodes.size(); ++i) {
      attrs.CopyRowFrom(g.attributes(), block.nodes[i], i);
    }
    z = nn::Add(nn::GatherRows(params[0], block.nodes),
                linear(Tensor::Constant(std::move(attrs)), params[1],
                       params[2]));
  }
  out.layers.push_back(z);
  Tensor full_efeat;
  if (full) full_efeat = Tensor::Constant(g.edge_features());
  for (size_t l = 0; l < enc.num_layers(); ++l) {
    const Tensor& w_att = params[3 + 5 * l];
    const Tensor& w_agg = params[4 + 5 * l];
    const Tensor& b_agg = params[5 + 5 * l];
    const Tensor& w_upd = params[6 + 5 * l];
    const Tensor& b_upd = params[7 + 5 * l];
    const std::vector<uint32_t>& src =
        full ? g.edge_src() : block.layers[l].src;
    const std::vector<uint32_t>& dst =
        full ? g.edge_dst() : block.layers[l].dst;
    const size_t ndst = full ? g.num_nodes() : block.layers[l].num_dst;
    if (src.empty()) {
      Tensor zero_m = Tensor::Constant(Matrix(ndst, enc.dim()));
      Tensor m = nn::Tanh(linear(
          nn::ConcatCols(zero_m, Tensor::Constant(Matrix(
                                     ndst, graph::kEdgeFeatureDim))),
          w_agg, b_agg));
      z = nn::Relu(linear(nn::ConcatCols(SliceRows(z, ndst), m), w_upd, b_upd));
      out.layers.push_back(z);
      continue;
    }
    Tensor efeat =
        full ? full_efeat : Tensor::Constant(block.layers[l].edge_feats);
    Tensor z_src = nn::GatherRows(z, src);
    Tensor alpha;
    if (use_attention) {
      Tensor z_dst = nn::GatherRows(z, dst);
      Tensor att_in = nn::ConcatCols(nn::ConcatCols(z_dst, z_src), efeat);
      Tensor logits = nn::LeakyRelu(nn::MatMul(att_in, w_att), 0.2f);
      alpha = nn::SegmentSoftmax(logits, dst, ndst);
    } else {
      alpha = nn::SegmentSoftmax(Tensor::Constant(Matrix(src.size(), 1)),
                                 dst, ndst);
    }
    Tensor msg_in = nn::ConcatCols(z_src, efeat);
    Tensor weighted = nn::MulColBroadcast(msg_in, alpha);
    Tensor summed = nn::SegmentSum(weighted, dst, ndst);
    Tensor m = nn::Tanh(linear(summed, w_agg, b_agg));
    z = nn::Relu(linear(nn::ConcatCols(SliceRows(z, ndst), m), w_upd, b_upd));
    out.layers.push_back(z);
  }
  out.readout = LayerMeanReadout(out.layers, block.num_readout_rows());
  return out;
}

// Everything one training step exposes: per-layer values and gradients of
// every encode, the loss, and every parameter gradient.
struct StepResult {
  std::vector<Matrix> values;
  std::vector<Matrix> grads;
};

struct Case {
  std::string name;
  const graph::SearchGraph* graph;
  std::vector<const graph::Block*> blocks;  // one encode per block, one step
  bool attention;
};

StepResult RunStep(const Case& c, bool reference, size_t threads,
                   bool fusion) {
  core::ExecutionContext ctx(threads);
  ctx.set_fusion(fusion);
  core::ScopedExecution scope(&ctx);
  Rng rng(kParamSeed);
  GarciaGnnEncoder enc(c.graph->num_nodes(), c.graph->attr_dim(), kDim,
                       kLayers, &rng, c.attention);
  std::vector<GnnOutput> outs;
  Tensor loss;
  for (const graph::Block* block : c.blocks) {
    outs.push_back(reference
                       ? ReferenceEncode(enc, *c.graph, *block, c.attention)
                       : enc.EncodeBlock(*c.graph, *block));
    const Tensor& r = outs.back().readout;
    // A fixed, sign-mixed projection so every gradient entry differs.
    Rng wrng(3);
    Tensor proj = Tensor::Constant(Matrix::Randn(r.rows(), r.cols(), &wrng));
    Tensor term = nn::SumAll(nn::Tanh(nn::Mul(r, proj)));
    loss = loss.defined() ? nn::Add(loss, term) : term;
  }
  loss.Backward();

  StepResult res;
  res.values.push_back(loss.value());
  for (const GnnOutput& o : outs) {
    res.values.push_back(o.readout.value());
    for (const Tensor& z : o.layers) {
      res.values.push_back(z.value());
      res.grads.push_back(z.has_grad() ? z.grad() : Matrix());
    }
  }
  for (const Tensor& p : enc.Parameters()) {
    res.grads.push_back(p.has_grad() ? p.grad() : Matrix());
  }
  return res;
}

void ExpectSameBits(const std::vector<Matrix>& want,
                    const std::vector<Matrix>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].rows(), got[i].rows()) << what << " #" << i;
    ASSERT_EQ(want[i].cols(), got[i].cols()) << what << " #" << i;
    if (want[i].empty()) continue;  // data() may be null
    EXPECT_EQ(std::memcmp(want[i].data(), got[i].data(),
                          want[i].size() * sizeof(float)),
              0)
        << what << " #" << i << " differs";
  }
}

class EncoderEdgeOpsExactnessTest : public ::testing::Test {
 protected:
  void ExpectMatchesReference(const Case& c) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
      for (bool fusion : {false, true}) {
        const StepResult want = RunStep(c, /*reference=*/true, threads, fusion);
        const StepResult got = RunStep(c, /*reference=*/false, threads, fusion);
        const std::string what = c.name + " threads=" +
                                 std::to_string(threads) +
                                 " fusion=" + std::to_string(fusion);
        ExpectSameBits(want.values, got.values, what + " value");
        ExpectSameBits(want.grads, got.grads, what + " grad");
      }
    }
  }

  // `seeds` distinct nodes spread over queries and services.
  graph::Block Sample(size_t seeds, size_t fanout, uint64_t seed) {
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < seeds; ++i) {
      ids.push_back(static_cast<uint32_t>((i * 7) % graph_.num_nodes()));
    }
    return SampleFrom(ids, fanout, seed);
  }

  graph::Block SampleFrom(const std::vector<uint32_t>& ids, size_t fanout,
                          uint64_t seed) {
    graph::NeighborSampler sampler(&graph_, kLayers, fanout);
    Rng rng(seed);
    return sampler.Sample(ids, &rng);
  }

  // 2.9k directed edges, with duplicate links and zero-in-degree nodes.
  graph::SearchGraph graph_ = MakeGraph(300, 150, 1400, 60, 25);
  graph::Block full_ = graph::Block::FullGraph(graph_);
};

TEST_F(EncoderEdgeOpsExactnessTest, FullGraph) {
  ASSERT_GT(graph_.num_edges(), 2048u);
  for (bool attention : {true, false}) {
    ExpectMatchesReference({"full", &graph_, {&full_}, attention});
  }
}

TEST_F(EncoderEdgeOpsExactnessTest, SampledBlock) {
  const graph::Block block = Sample(64, 8, 11);
  for (bool attention : {true, false}) {
    ExpectMatchesReference({"sampled", &graph_, {&block}, attention});
  }
}

TEST_F(EncoderEdgeOpsExactnessTest, EncoderUsedTwiceInOneStep) {
  // The shared-encoder variant: two encodes feed one loss, so every
  // parameter gradient accumulates over both tapes.
  const graph::Block block = Sample(48, 4, 12);
  for (bool attention : {true, false}) {
    ExpectMatchesReference({"full+full", &graph_, {&full_, &full_}, attention});
    ExpectMatchesReference({"full+sampled", &graph_, {&full_, &block},
                            attention});
  }
}

TEST_F(EncoderEdgeOpsExactnessTest, EmptyEdgeList) {
  const graph::SearchGraph empty = MakeGraph(6, 4, 0, 0, 6);
  ASSERT_EQ(empty.num_edges(), 0u);
  const graph::Block full = graph::Block::FullGraph(empty);
  // Seeds among the zero-in-degree queries sample blocks without edges.
  const graph::Block isolated = SampleFrom({298, 299}, 8, 13);
  ASSERT_TRUE(isolated.layers[0].src.empty());
  for (bool attention : {true, false}) {
    ExpectMatchesReference({"empty", &empty, {&full}, attention});
    ExpectMatchesReference({"isolated-seed", &graph_, {&isolated}, attention});
  }
}

}  // namespace
}  // namespace garcia::models
