// train_full / train_sampled: GarciaModel::Fit on the reference config
// (Sep. A at scale 0.25, 4 pretrain + 10 finetune epochs, 20 batches per
// epoch, training seed 7), then ranking requests against the fitted model.
//
// --seed picks the impression window (the preset's event seed), so every
// seed trains on another window of the same simulated population.
//
// End-to-end metrics:
//   setup_s          median over kSetupBatches batches of the mean time of
//                    one scenario generation
//   work_s           median wall-clock of one Fit over the run's Fits (two
//                    on train_full, four on train_sampled)
//   p50_ms / p90_ms  latency of closed-loop ranking requests against the
//                    fitted model (Predict over every service for one
//                    Zipf-drawn query) sent for a fifth of --seconds in
//                    slices after each Fit, in blocks of kRankBlock
//                    requests: the median of the fastest block, and the
//                    median over blocks of the block p90
//   capacity_rps     requests per second of busy time in the fastest block
//   quality          test-split tail-slice AUC (the paper's headline slice)
//   quality_overall  test-split overall AUC
//
// The traced run repeats the set-up, one Fit and the evaluation, then
// times probe calls into each layer on the same scenario, config and
// thread count, because Fit itself is opaque from outside.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/trace.h"
#include "bench/workloads.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "graph/head_tail.h"
#include "graph/neighbor_sampler.h"
#include "models/common.h"
#include "models/contrastive.h"
#include "models/garcia_model.h"
#include "models/gnn_encoder.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "train/checkpoint.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using garcia::core::Matrix;
using garcia::nn::Tensor;

constexpr double kScale = 0.25;
constexpr size_t kSetupBatches = 9;
constexpr size_t kSetupBatch = 25;

constexpr uint64_t kCheckpointEvery = 25;
constexpr uint64_t kCheckpointKeep = 2;
constexpr int kProbePairs = 3;
constexpr size_t kRankBlock = 1000;
/// Floor on the test tail-slice AUC: a working model ranks clearly better
/// than chance on tail queries.
constexpr double kTailAucFloor = 0.6;

garcia::models::TrainConfig ReferenceConfig(bool sampled) {
  garcia::models::TrainConfig cfg;
  cfg.pretrain_epochs = 4;
  cfg.finetune_epochs = 10;
  cfg.max_batches_per_epoch = 20;
  cfg.seed = 7;
  cfg.sample_fanout = sampled ? 8 : 0;
  cfg.num_threads = sampled ? 0 : 4;
  return cfg;
}

garcia::data::ScenarioConfig ScenarioFor(uint64_t seed) {
  garcia::data::ScenarioConfig cfg =
      garcia::data::PresetConfig(garcia::data::DatasetId::kSepA, kScale);
  cfg.event_seed = 901 + seed;
  return cfg;
}

/// Optimizer steps of one Fit, as GarciaModel::Fit counts them: each
/// pretrain epoch runs max(1, cap / 2) contrastive steps and each finetune
/// epoch min(cap, batches per epoch) steps.
size_t StepsPerFit(const garcia::models::TrainConfig& cfg,
                   const garcia::data::Scenario& s) {
  const size_t per_epoch =
      (s.train.size() + cfg.batch_size - 1) / cfg.batch_size;
  const size_t finetune = cfg.max_batches_per_epoch == 0
                              ? per_epoch
                              : std::min(per_epoch, cfg.max_batches_per_epoch);
  const size_t pretrain = std::max<size_t>(1, cfg.max_batches_per_epoch / 2);
  return cfg.pretrain_epochs * pretrain + cfg.finetune_epochs * finetune;
}

struct FitOutcome {
  std::unique_ptr<garcia::models::GarciaModel> model;
  double seconds = 0.0;
  bool ok = false;
  std::string error;
};

FitOutcome FitOnce(const garcia::models::TrainConfig& cfg,
                   const garcia::data::Scenario& s) {
  FitOutcome out;
  out.model = std::make_unique<garcia::models::GarciaModel>(cfg);
  const auto t0 = Clock::now();
  try {
    ScopedSpan span("models.fit");
    out.model->Fit(s);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.seconds = SecondsSince(t0);
  return out;
}

struct Evaluation {
  garcia::eval::SlicedMetrics sliced;
  bool finite = true;
};

Evaluation Evaluate(garcia::models::GarciaModel* model,
                    const garcia::data::Scenario& s) {
  Evaluation out;
  const std::vector<float> scores = model->Predict(s, s.test);
  std::vector<float> labels(s.test.size());
  std::vector<uint32_t> qids(s.test.size());
  for (size_t i = 0; i < s.test.size(); ++i) {
    labels[i] = s.test[i].label;
    qids[i] = s.test[i].query;
    out.finite = out.finite && std::isfinite(scores[i]);
  }
  out.sliced =
      garcia::eval::ComputeSlicedMetrics(labels, scores, qids, s.split.is_head);
  out.finite = out.finite && scores.size() == s.test.size() &&
               std::isfinite(out.sliced.tail.auc) &&
               std::isfinite(out.sliced.overall.auc);
  return out;
}

struct RankLoop {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  size_t bad = 0;  // requests whose scores were missing or not finite
};

/// Closed-loop ranking requests for `seconds`, appended to `out`: each
/// scores every service for one query drawn from the scenario's own
/// query-popularity skew, Zipf rank r being the query with the r-th most
/// training impressions (ties by id), so the few queries that carry most
/// requests are the scenario's popular ones on every seed.
void RunRankRequests(garcia::models::GarciaModel* model,
                     const garcia::data::Scenario& s, uint64_t seed,
                     double seconds, RankLoop* out) {
  garcia::core::ZipfSampler zipf(s.num_queries(), s.config.zipf_exponent);
  garcia::core::Rng rng(seed ^ 0x5eedULL);
  std::vector<size_t> impressions(s.num_queries(), 0);
  for (const garcia::data::Example& ex : s.train) ++impressions[ex.query];
  std::vector<uint32_t> rank_to_query(s.num_queries());
  for (uint32_t q = 0; q < s.num_queries(); ++q) rank_to_query[q] = q;
  std::stable_sort(rank_to_query.begin(), rank_to_query.end(),
                   [&impressions](uint32_t a, uint32_t b) {
                     return impressions[a] > impressions[b];
                   });
  std::vector<garcia::data::Example> request(s.num_services());
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < seconds) {
    const uint32_t q = rank_to_query[zipf.Sample(&rng)];
    for (uint32_t sv = 0; sv < s.num_services(); ++sv) {
      request[sv].query = q;
      request[sv].service = sv;
    }
    const auto r0 = Clock::now();
    const std::vector<float> scores = model->Predict(s, request);
    out->latency_ms.push_back(1e3 * SecondsSince(r0));
    bool ok = scores.size() == request.size();
    for (float v : scores) ok = ok && std::isfinite(v);
    if (!ok) ++out->bad;
  }
  out->seconds += SecondsSince(t0);
}

// ----- Per-layer probes (traced run) -----

struct ProbeContext {
  const garcia::data::Scenario* s = nullptr;
  const garcia::models::TrainConfig* cfg = nullptr;
  std::optional<garcia::graph::Subgraph> head;
  std::optional<garcia::graph::Subgraph> tail;
};

struct ProbeTotals {
  double sampled_edges = 0.0;  // summed over steps; 0 on the full graph
  size_t steps = 0;
};

/// One probe pass: `reps` training steps' worth of the layer calls the
/// workload makes (sampling, encode forward and backward, Adam), then the
/// edge-shape kernels, on the workload's shapes and thread count.
ProbeTotals ProbePass(const ProbeContext& pc, int reps, uint64_t seed) {
  const garcia::models::TrainConfig& cfg = *pc.cfg;
  const garcia::data::Scenario& s = *pc.s;
  const bool sampled = cfg.sample_fanout > 0;
  garcia::core::ExecutionContext ctx(cfg.num_threads);
  ctx.set_fusion(cfg.fuse_ops);
  garcia::core::ScopedExecution scope(&ctx);
  garcia::core::Rng rng(seed);
  const size_t d = cfg.embedding_dim;

  garcia::models::GarciaGnnEncoder head_enc(
      pc.head->graph.num_nodes(), s.graph.attr_dim(), d, cfg.num_layers, &rng);
  garcia::models::GarciaGnnEncoder tail_enc(
      pc.tail->graph.num_nodes(), s.graph.attr_dim(), d, cfg.num_layers, &rng);
  std::vector<Tensor> params = head_enc.Parameters();
  for (const Tensor& p : tail_enc.Parameters()) params.push_back(p);
  garcia::nn::Adam adam(params, cfg.learning_rate);

  std::optional<garcia::graph::NeighborSampler> head_sampler, tail_sampler;
  if (sampled) {
    head_sampler.emplace(&pc.head->graph, cfg.num_layers, cfg.sample_fanout);
    tail_sampler.emplace(&pc.tail->graph, cfg.num_layers, cfg.sample_fanout);
  }
  garcia::core::Rng batch_rng(cfg.seed);
  garcia::core::Rng sample_rng(cfg.sample_seed);
  garcia::models::BatchIterator batches(s.train.size(), cfg.batch_size,
                                        &batch_rng);
  ProbeTotals totals;
  for (int r = 0; r < reps; ++r) {
    garcia::models::GnnOutput h, t;
    if (sampled) {
      // A finetune step's seeds: each example's query and service rows in
      // the query's partition.
      std::vector<uint32_t> batch = batches.Next();
      if (batch.empty()) {
        batches.Reset();
        batch = batches.Next();
      }
      garcia::graph::SeedSet hs(false), ts(false);
      for (uint32_t i : batch) {
        const garcia::data::Example& ex = s.train[i];
        const bool is_head = s.split.is_head[ex.query];
        const garcia::graph::Subgraph& sub = is_head ? *pc.head : *pc.tail;
        garcia::graph::SeedSet& seeds = is_head ? hs : ts;
        seeds.Map(static_cast<uint32_t>(sub.local_query_of[ex.query]));
        seeds.Map(sub.graph.ServiceNode(ex.service));
      }
      garcia::graph::Block hb, tb;
      {
        ScopedSpan span("graph.sample");
        if (!hs.seeds().empty()) hb = head_sampler->Sample(hs.seeds(), &sample_rng);
        if (!ts.seeds().empty()) tb = tail_sampler->Sample(ts.seeds(), &sample_rng);
      }
      for (const auto* b : {&hb, &tb}) {
        for (const auto& layer : b->layers) {
          totals.sampled_edges += static_cast<double>(layer.src.size());
        }
      }
      ScopedSpan span("models.encode_fwd");
      if (!hs.seeds().empty()) h = head_enc.EncodeBlock(pc.head->graph, hb);
      if (!ts.seeds().empty()) t = tail_enc.EncodeBlock(pc.tail->graph, tb);
      if (h.readout.defined()) h.readout.value();
      if (t.readout.defined()) t.readout.value();
    } else {
      ScopedSpan span("models.encode_fwd");
      h = head_enc.Encode(pc.head->graph);
      t = tail_enc.Encode(pc.tail->graph);
      h.readout.value();
      t.readout.value();
    }
    {
      ScopedSpan span("models.encode_bwd");
      Tensor loss;
      for (const auto* out : {&h, &t}) {
        if (!out->readout.defined()) continue;
        Tensor part = garcia::nn::MeanAll(out->readout);
        loss = loss.defined() ? garcia::nn::Add(loss, part) : part;
      }
      loss.Backward();
    }
    {
      ScopedSpan span("nn.adam_step");
      adam.Step();
      adam.ZeroGrad();
    }
    ++totals.steps;
  }

  // Kernels at the edge-level shape of the larger (tail) partition:
  // Linear([z_dst || z_src || e]) is an E x (2d+ef) by (2d+ef) x d GEMM.
  const garcia::graph::SearchGraph& g = pc.tail->graph;
  const size_t e = g.num_edges();
  const size_t ef = garcia::graph::kEdgeFeatureDim;
  const size_t k = 2 * d + ef;
  Matrix x = Matrix::Randn(e, k, &rng);
  Matrix w = Matrix::Randn(k, d, &rng);
  Matrix c(e, d);
  Matrix scores = Matrix::Randn(e, 1, &rng);
  Matrix alpha(e, 1);
  Matrix msg = Matrix::Randn(e, d + ef, &rng);
  Matrix agg(g.num_nodes(), d + ef);
  for (int r = 0; r < reps; ++r) {
    {
      ScopedSpan span("core.gemm_edge");
      garcia::core::kernels::Gemm(ctx, false, false, 1.0f, x, w, 0.0f, &c);
    }
    {
      ScopedSpan span("core.segment_softmax");
      garcia::core::kernels::SegmentSoftmax(ctx, scores, g.edge_dst(),
                                            g.num_nodes(), &alpha);
    }
    {
      ScopedSpan span("core.segment_sum");
      garcia::core::kernels::SegmentSum(ctx, msg, g.edge_dst(), g.num_nodes(),
                                        &agg);
    }
    {
      Tensor zd = Tensor::Leaf(Matrix::Randn(e, d, &rng), true);
      Tensor zs = Tensor::Leaf(Matrix::Randn(e, d, &rng), true);
      Tensor ft = Tensor::Leaf(Matrix::Randn(e, ef, &rng), true);
      ScopedSpan span("nn.concat");
      Tensor cat = garcia::nn::ConcatCols(garcia::nn::ConcatCols(zd, zs), ft);
      garcia::nn::SumAll(cat).Backward();
    }
  }
  return totals;
}

double MedianSpanMs(const char* name) {
  std::vector<double> v = Tracer::Get().DurationsMs(name);
  return v.empty() ? 0.0 : Median(v);
}

void SetZeroServingMetrics(MetricSet* m) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (spec.name.rfind("serving.", 0) == 0) m->Set(spec.name, 0.0);
  }
  m->Set("bench.gen_lag_ms_p99", 0.0);
}

}  // namespace

int RunTrainWorkload(const RunOptions& opt, bool sampled) {
  Checks checks(opt.workload);
  const garcia::models::TrainConfig base_cfg = ReferenceConfig(sampled);
  std::printf("workload %s: Sep. A scale %.2f, event seed %llu, pretrain %zu + "
              "finetune %zu epochs x %zu batches, fanout %zu, threads %zu\n",
              opt.workload.c_str(), kScale,
              static_cast<unsigned long long>(ScenarioFor(opt.seed).event_seed),
              base_cfg.pretrain_epochs, base_cfg.finetune_epochs,
              base_cfg.max_batches_per_epoch, base_cfg.sample_fanout,
              base_cfg.num_threads);

  // ----- Set-up: scenario generation, repeated for a steady median -----
  // One generation takes a few ms, less than the CPU rotation period, so
  // a sample is the mean over a batch of generations that visits every
  // CPU; setup_s is the median over the batches. Generation is serial on
  // both workloads, so it rotates like the serial Fits below.
  std::vector<double> setup_s;
  garcia::data::Scenario s;
  size_t first_train = 0, first_edges = 0;
  {
    CpuRotation rotation(std::chrono::milliseconds(50));
    for (size_t b = 0; b < kSetupBatches; ++b) {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < kSetupBatch; ++i) {
        {
          ScopedSpan span("data.generate");
          s = garcia::data::GenerateScenario(ScenarioFor(opt.seed));
        }
        if (b == 0 && i == 0) {
          first_train = s.train.size();
          first_edges = s.graph.num_edges();
        }
        checks.Expect(s.train.size() == first_train &&
                          s.graph.num_edges() == first_edges,
                      "setup", "scenario generation is not deterministic");
      }
      setup_s.push_back(SecondsSince(t0) / kSetupBatch);
    }
  }
  std::printf("setup: %zu queries, %zu services, %zu train / %zu test "
              "examples, %zu graph edges (generated %zu times)\n",
              s.num_queries(), s.num_services(), s.train.size(), s.test.size(),
              s.graph.num_edges(), kSetupBatches * kSetupBatch);
  if (!checks.Expect(!s.train.empty() && !s.test.empty(), "setup",
                     "scenario has no train or test examples")) {
    return 1;
  }

  // ----- Fits -----
  // Checkpoints live under the run's scratch directory, which main()
  // removes when the run ends.
  const std::string ckpt_root = opt.scratch_dir + "/checkpoints";
  std::vector<double> fit_s;
  uint64_t fits_attempted = 0, fits_failed = 0;
  std::unique_ptr<garcia::models::GarciaModel> model;
  std::string last_ckpt_dir;
  std::vector<float> final_losses;
  // A fixed number of Fits per run: each Fit is the workload's whole job.
  // Ranking requests run in one slice after every Fit, so they sample the
  // host's speed across the whole run rather than one moment of it.
  const uint64_t fits = opt.trace ? 1 : (sampled ? 4 : 2);
  RankLoop ranking;
  // The serial workload's one thread visits every CPU in turn, so its
  // times (the Fits, the ranking requests and the traced run's probes)
  // follow the machine rather than one vCPU's neighbours.
  std::optional<CpuRotation> rotation;
  if (base_cfg.num_threads == 0) rotation.emplace(std::chrono::milliseconds(50));
  while (fits_attempted < fits) {
    garcia::models::TrainConfig cfg = base_cfg;
    if (sampled) {
      // A fresh directory per Fit: a leftover generation would make the
      // next Fit resume instead of train.
      if (!last_ckpt_dir.empty()) fs::remove_all(last_ckpt_dir);
      last_ckpt_dir =
          ckpt_root + "/fit" + std::to_string(fits_attempted);
      fs::create_directories(last_ckpt_dir);
      cfg.checkpoint_dir = last_ckpt_dir;
      cfg.checkpoint_every_steps = kCheckpointEvery;
      cfg.checkpoint_keep = kCheckpointKeep;
    }
    FitOutcome fit = FitOnce(cfg, s);
    ++fits_attempted;
    if (!fit.ok) {
      ++fits_failed;
      std::printf("fit %llu: FAILED after %.3f s: %s\n",
                  static_cast<unsigned long long>(fits_attempted), fit.seconds,
                  fit.error.c_str());
      continue;
    }
    std::printf("fit %llu: %.3f s, %zu KTCL anchor pairs\n",
                static_cast<unsigned long long>(fits_attempted), fit.seconds,
                fit.model->num_anchor_pairs());
    fit_s.push_back(fit.seconds);
    final_losses.push_back(fit.model->last_finetune_loss());
    model = std::move(fit.model);
    if (!opt.trace) {
      RunRankRequests(model.get(), s, opt.seed + fits_attempted,
                      0.2 * opt.seconds / static_cast<double>(fits), &ranking);
    }
  }
  std::printf("fits: sent %llu, succeeded %llu, failed %llu\n",
              static_cast<unsigned long long>(fits_attempted),
              static_cast<unsigned long long>(fits_attempted - fits_failed),
              static_cast<unsigned long long>(fits_failed));
  if (!checks.Expect(model != nullptr, "fit", "no Fit succeeded")) return 1;
  // Training is deterministic: repeated Fits end on the same loss, bit for
  // bit.
  for (float loss : final_losses) {
    checks.Expect(std::memcmp(&loss, &final_losses.front(), sizeof loss) == 0,
                  "fit", "repeated Fits ended on different losses");
  }

  // ----- Evaluation -----
  Evaluation ev;
  {
    ScopedSpan span("eval.predict_test");
    ev = Evaluate(model.get(), s);
  }
  std::printf("eval: tail AUC %.4f (%zu examples), overall AUC %.4f (%zu "
              "examples)\n",
              ev.sliced.tail.auc, ev.sliced.tail.num_examples,
              ev.sliced.overall.auc, ev.sliced.overall.num_examples);
  checks.Expect(ev.finite, "eval", "Predict scores or AUCs are not finite");
  checks.Expect(ev.sliced.tail.auc >= kTailAucFloor, "eval",
                "tail AUC below the floor " + std::to_string(kTailAucFloor));
  if (!ev.finite) ++fits_failed;

  MetricSet m;
  uint64_t attempted = fits_attempted;
  uint64_t failed = fits_failed;

  if (!opt.trace) {
    std::printf("ranking requests: sent %zu, succeeded %zu, failed %zu "
                "(%.3f s)\n",
                ranking.latency_ms.size(), ranking.latency_ms.size() - ranking.bad,
                ranking.bad, ranking.seconds);
    checks.Expect(ranking.bad == 0, "rank", "ranking request returned bad scores");
    // Per block of kRankBlock requests (about 0.2 s). The host slows down
    // in episodes that only add time, and a block median jumps between the
    // fast and the slow mode when about half its requests fall in an
    // episode, so p50 and capacity come from the fastest block; p90 takes
    // the median block, because the p90 of the rare undisturbed block is
    // an outlier of its own.
    const std::vector<double> block_p50 =
        BlockPercentiles(ranking.latency_ms, kRankBlock, 0.50);
    const std::vector<double> block_p90 =
        BlockPercentiles(ranking.latency_ms, kRankBlock, 0.90);
    double best_block_rps = 0.0;
    for (size_t lo = 0; lo + kRankBlock <= ranking.latency_ms.size();
         lo += kRankBlock) {
      double busy_ms = 0.0;
      for (size_t i = lo; i < lo + kRankBlock; ++i) {
        busy_ms += ranking.latency_ms[i];
      }
      best_block_rps = std::max(best_block_rps, 1e3 * kRankBlock / busy_ms);
    }
    std::printf("ranking latency: p50 %.4f ms (fastest of %zu blocks of %zu), "
                "p90 %.4f ms (median block), %.0f requests/s (fastest "
                "block)\n",
                Min(block_p50), block_p50.size(), kRankBlock,
                Median(block_p90), best_block_rps);
    checks.Expect(!block_p90.empty(), "rank",
                  "fewer ranking requests than one block");
    attempted += ranking.latency_ms.size();
    failed += ranking.bad;

    m.Set("setup_s", Median(setup_s));
    m.Set("work_s", Median(fit_s));
    m.Set("p50_ms", Min(block_p50));
    m.Set("p90_ms", Median(block_p90));
    m.Set("capacity_rps", best_block_rps);
    m.Set("quality", ev.sliced.tail.auc);
    m.Set("quality_overall", ev.sliced.overall.auc);
    m.Set("success_share", 1.0 - static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    m.Set("peak_rss_mb", PeakRssMb());
    const bool printed =
        PrintResult(EndToEndMetrics(), m, checks.all_passed(), attempted, failed);
    return printed && checks.all_passed() ? 0 : 1;
  }

  // ----- Traced run: probes into each layer -----
  Tracer& tracer = Tracer::Get();
  double ktcl_s = 0.0;
  size_t anchor_pairs = 0;
  {
    ScopedSpan span("models.ktcl_mine");
    const auto t0 = Clock::now();
    anchor_pairs = garcia::models::MineKtclAnchors(s).size();
    ktcl_s = SecondsSince(t0);
  }
  checks.Expect(anchor_pairs == model->num_anchor_pairs(), "probe",
                "anchor mining disagrees with the fitted model");

  ProbeContext pc;
  pc.s = &s;
  pc.cfg = &base_cfg;
  pc.head.emplace(garcia::graph::ExtractQuerySubgraph(s.graph,
                                                      s.split.head_queries));
  pc.tail.emplace(garcia::graph::ExtractQuerySubgraph(s.graph,
                                                      s.split.tail_queries));
  const int reps = sampled ? 16 : 4;
  // Overhead of tracing itself: the same probe pass untraced and traced,
  // alternating, after one untimed warm-up pass.
  tracer.SetEnabled(false);
  ProbePass(pc, reps, opt.seed);
  std::vector<double> untraced_s, traced_s;
  ProbeTotals totals;
  for (int pair = 0; pair < kProbePairs; ++pair) {
    tracer.SetEnabled(false);
    auto t0 = Clock::now();
    ProbePass(pc, reps, opt.seed);
    untraced_s.push_back(SecondsSince(t0));
    tracer.SetEnabled(true);
    t0 = Clock::now();
    {
      ScopedSpan span("bench.probes");
      totals = ProbePass(pc, reps, opt.seed);
    }
    traced_s.push_back(SecondsSince(t0));
  }

  // Checkpoint generations written by the Fit (train_sampled only).
  double save_ms = 0.0, load_ms = 0.0, ckpt_bytes = 0.0, generations = 0.0;
  if (sampled) {
    const std::vector<uint64_t> steps =
        garcia::train::ListCheckpointSteps(last_ckpt_dir);
    if (checks.Expect(!steps.empty(), "probe", "Fit wrote no checkpoint")) {
      const uint64_t newest = *std::max_element(steps.begin(), steps.end());
      generations = static_cast<double>(newest / kCheckpointEvery);
      checks.Expect(newest / kCheckpointEvery ==
                        StepsPerFit(base_cfg, s) / kCheckpointEvery,
                    "probe", "checkpoint steps disagree with the step count");
      const std::string path =
          last_ckpt_dir + "/" + garcia::train::CheckpointFileName(newest);
      ckpt_bytes = static_cast<double>(fs::file_size(path));
      const std::string copy = last_ckpt_dir + "/probe-copy.gck";
      for (int r = 0; r < 8; ++r) {
        garcia::core::Result<garcia::train::TrainCheckpoint> ck =
            [&path] {
              ScopedSpan span("train.ckpt_load");
              return garcia::train::LoadCheckpoint(path);
            }();
        if (!checks.Expect(ck.ok(), "probe", "checkpoint does not load")) break;
        ScopedSpan span("train.ckpt_save");
        checks.Expect(garcia::train::SaveCheckpoint(copy, ck.value()).ok(),
                      "probe", "checkpoint does not save");
      }
      save_ms = MedianSpanMs("train.ckpt_save");
      load_ms = MedianSpanMs("train.ckpt_load");
    }
  }

  const double fit_seconds = fit_s.front();
  const double steps = static_cast<double>(StepsPerFit(base_cfg, s));
  const double fwd = MedianSpanMs("models.encode_fwd");
  const double bwd = MedianSpanMs("models.encode_bwd");
  const double adam = MedianSpanMs("nn.adam_step");
  const double sample = sampled ? MedianSpanMs("graph.sample") : 0.0;
  const double attributed_s =
      ktcl_s + 1e-3 * (steps * (fwd + bwd + adam + sample) +
                       generations * save_ms);
  const double gemm_ms = MedianSpanMs("core.gemm_edge");
  const double gemm_flops = 2.0 * static_cast<double>(pc.tail->graph.num_edges()) *
                            static_cast<double>(2 * base_cfg.embedding_dim +
                                                garcia::graph::kEdgeFeatureDim) *
                            static_cast<double>(base_cfg.embedding_dim);

  m.Set("data.generate_s", Median(setup_s));
  m.Set("models.fit_s", fit_seconds);
  m.Set("models.ktcl_mine_s", ktcl_s);
  m.Set("models.anchor_pairs", static_cast<double>(anchor_pairs));
  m.Set("graph.sample_ms_per_step", sample);
  m.Set("graph.sampled_edges_per_step",
        totals.steps == 0 ? 0.0 : totals.sampled_edges / totals.steps);
  m.Set("models.encode_fwd_ms", fwd);
  m.Set("models.encode_bwd_ms", bwd);
  m.Set("nn.concat_bwd_ms", MedianSpanMs("nn.concat"));
  m.Set("core.gemm_edge_ms", gemm_ms);
  m.Set("core.gemm_edge_gflops", gemm_ms > 0 ? gemm_flops / (gemm_ms * 1e6) : 0.0);
  m.Set("core.segment_softmax_ms", MedianSpanMs("core.segment_softmax"));
  m.Set("core.segment_sum_ms", MedianSpanMs("core.segment_sum"));
  m.Set("nn.adam_step_ms", adam);
  m.Set("train.ckpt_save_ms", save_ms);
  m.Set("train.ckpt_load_ms", load_ms);
  m.Set("train.ckpt_bytes", ckpt_bytes);
  m.Set("train.ckpt_generations", generations);
  m.Set("models.fit_attributed_share", attributed_s / fit_seconds);
  m.Set("eval.tail_auc", ev.sliced.tail.auc);
  m.Set("eval.overall_auc", ev.sliced.overall.auc);
  SetZeroServingMetrics(&m);
  m.Set("bench.trace_overhead_pct",
        100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s));
  m.Set("bench.failed_share",
        static_cast<double>(failed) / static_cast<double>(attempted));

  std::printf("\nself time by span (ms):\n");
  for (const auto& [name, ms] : tracer.SelfTimeMs()) {
    std::printf("  %-28s %12.3f\n", name.c_str(), ms);
  }
  if (checks.Expect(tracer.WriteChromeTrace(opt.trace_path), "trace",
                    "cannot write " + opt.trace_path)) {
    std::printf("trace: %zu spans -> %s\n", tracer.Spans().size(),
                opt.trace_path.c_str());
  }
  const bool printed =
      PrintResult(PerLayerMetrics(), m, checks.all_passed(), attempted, failed);
  return printed && checks.all_passed() ? 0 : 1;
}

}  // namespace perfbench
