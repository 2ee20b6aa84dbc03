// Command-line experiment driver: train any of the six models on any of
// the six datasets and report sliced metrics — the fastest way to poke at
// the system without writing code.
//
//   ./build/examples/run_experiment [--model GARCIA] [--dataset "Sep. A"]
//       [--scale 0.4] [--dim 32] [--epochs 10] [--pretrain 4] [--seed 7]
//       [--fanout 0] [--threads 0] [--share] [--no-ktcl] [--no-secl]
//       [--no-igcl] [--tree-levels 5] [--list]
//
// Examples:
//   run_experiment --model LightGCN --dataset Music
//   run_experiment --model GARCIA --share --dataset "Sep. B" --scale 0.25
//   run_experiment --model GARCIA --fanout 4   # minibatch sampled blocks

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/string_util.h"
#include "data/presets.h"
#include "models/registry.h"

using namespace garcia;

namespace {

void PrintUsageAndExit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model NAME] [--dataset NAME] [--scale F] "
               "[--dim N] [--epochs N] [--pretrain N] [--seed N] "
               "[--fanout N] [--threads N] [--share] [--no-ktcl] "
               "[--no-secl] [--no-igcl] [--tree-levels N] [--list]\n",
               argv0);
  std::exit(2);
}

// Upper bound of --threads: far above any core count, far below a value that
// would ask the system for an unreasonable number of workers.
constexpr uint64_t kMaxThreads = 256;

// The value of a count flag, or a usage error for anything but a plain
// decimal in [0, max_value].
uint64_t ParseCountOrExit(const char* argv0, const char* flag,
                          const char* text, uint64_t max_value) {
  uint64_t v = 0;
  if (!core::ParseUnsigned(text, max_value, &v)) {
    std::fprintf(stderr,
                 "%s expects a non-negative integer no greater than %llu, "
                 "got '%s'\n",
                 flag, static_cast<unsigned long long>(max_value), text);
    PrintUsageAndExit(argv0);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name = "GARCIA";
  std::string dataset_name = "Sep. A";
  double scale = 0.4;
  models::TrainConfig cfg;
  cfg.pretrain_epochs = 4;
  cfg.finetune_epochs = 10;
  cfg.max_batches_per_epoch = 20;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        PrintUsageAndExit(argv[0]);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, uint64_t max_value) {
      return static_cast<size_t>(
          ParseCountOrExit(argv[0], flag, need_value(flag), max_value));
    };
    if (!std::strcmp(argv[i], "--model")) {
      model_name = need_value("--model");
    } else if (!std::strcmp(argv[i], "--dataset")) {
      dataset_name = need_value("--dataset");
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = std::atof(need_value("--scale"));
    } else if (!std::strcmp(argv[i], "--dim")) {
      cfg.embedding_dim = count("--dim", UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--epochs")) {
      cfg.finetune_epochs = count("--epochs", UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--pretrain")) {
      cfg.pretrain_epochs = count("--pretrain", UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = count("--seed", UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--fanout")) {
      cfg.sample_fanout = count("--fanout", UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--threads")) {
      cfg.num_threads = count("--threads", kMaxThreads);
    } else if (!std::strcmp(argv[i], "--tree-levels")) {
      cfg.tree_levels = count("--tree-levels", UINT32_MAX);
    } else if (!std::strcmp(argv[i], "--share")) {
      cfg.share_encoders = true;
    } else if (!std::strcmp(argv[i], "--no-ktcl")) {
      cfg.use_ktcl = false;
    } else if (!std::strcmp(argv[i], "--no-secl")) {
      cfg.use_secl = false;
    } else if (!std::strcmp(argv[i], "--no-igcl")) {
      cfg.use_igcl = false;
    } else if (!std::strcmp(argv[i], "--list")) {
      std::printf("models:");
      for (const auto& m : models::AllModelNames()) {
        std::printf(" \"%s\"", m.c_str());
      }
      std::printf("\ndatasets:");
      for (auto id : data::AllDatasets()) {
        std::printf(" \"%s\"", data::DatasetName(id).c_str());
      }
      std::printf("\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      PrintUsageAndExit(argv[0]);
    }
  }

  // Resolve the dataset.
  data::DatasetId dataset = data::DatasetId::kSepA;
  bool found = false;
  for (auto id : data::AllDatasets()) {
    if (data::DatasetName(id) == dataset_name) {
      dataset = id;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown dataset \"%s\" (try --list)\n",
                 dataset_name.c_str());
    return 2;
  }
  bool model_ok = false;
  for (const auto& m : models::AllModelNames()) model_ok |= m == model_name;
  if (!model_ok) {
    std::fprintf(stderr, "unknown model \"%s\" (try --list)\n",
                 model_name.c_str());
    return 2;
  }

  std::printf("dataset=%s scale=%.2f model=%s dim=%zu pretrain=%zu "
              "epochs=%zu seed=%llu fanout=%zu threads=%zu\n",
              dataset_name.c_str(), scale, model_name.c_str(),
              cfg.embedding_dim, cfg.pretrain_epochs, cfg.finetune_epochs,
              static_cast<unsigned long long>(cfg.seed), cfg.sample_fanout,
              cfg.num_threads);

  data::Scenario s = data::GeneratePreset(dataset, scale);
  std::printf("generated: %zu queries / %zu services / %zu train examples / "
              "%zu graph links\n",
              s.num_queries(), s.num_services(), s.train.size(),
              s.graph.num_edges() / 2);

  auto model = models::CreateModel(model_name, cfg);
  const auto fit_start = std::chrono::steady_clock::now();
  model->Fit(s);
  std::printf("fit_s=%.3f\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            fit_start)
                  .count());
  auto m = models::EvaluateModel(model.get(), s, s.test);
  std::printf("\n%-8s %8s %8s %8s\n", "slice", "AUC", "GAUC", "NDCG@10");
  auto row = [](const char* name, const eval::RankingMetrics& r) {
    std::printf("%-8s %8.4f %8.4f %8.4f\n", name, r.auc, r.gauc,
                r.ndcg_at_10);
  };
  row("head", m.head);
  row("tail", m.tail);
  row("overall", m.overall);
  return 0;
}
