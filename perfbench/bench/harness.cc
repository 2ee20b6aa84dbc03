#include "bench/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", false},
      {"work_s", "s", false},
      {"p50_ms", "ms", false},
      {"p90_ms", "ms", false},
      {"capacity_rps", "1/s", true},
      {"quality", "ratio", true},
      {"quality_overall", "ratio", true},
      {"success_share", "ratio", true},
      {"peak_rss_mb", "MB", false},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.generate_s", "s", false},
      {"models.fit_s", "s", false},
      {"models.ktcl_mine_s", "s", false},
      {"models.anchor_pairs", "count", true},
      {"graph.sample_ms_per_step", "ms", false},
      {"graph.sampled_edges_per_step", "count", false},
      {"models.encode_fwd_ms", "ms", false},
      {"models.encode_bwd_ms", "ms", false},
      {"nn.concat_bwd_ms", "ms", false},
      {"core.gemm_edge_ms", "ms", false},
      {"core.gemm_edge_gflops", "GFLOP/s", true},
      {"core.segment_softmax_ms", "ms", false},
      {"core.segment_sum_ms", "ms", false},
      {"nn.adam_step_ms", "ms", false},
      {"train.ckpt_save_ms", "ms", false},
      {"train.ckpt_load_ms", "ms", false},
      {"train.ckpt_bytes", "bytes", false},
      {"train.ckpt_generations", "count", false},
      {"models.fit_attributed_share", "ratio", true},
      {"eval.tail_auc", "ratio", true},
      {"eval.overall_auc", "ratio", true},
      {"serving.index_build_s", "s", false},
      {"serving.index_memory_mb", "MB", false},
      {"serving.latency_ms_p99", "ms", false},
      {"serving.service_us_p50", "us", false},
      {"serving.service_us_p99", "us", false},
      {"serving.queue_wait_us_p50", "us", false},
      {"serving.queue_wait_us_p99", "us", false},
      {"serving.index_query_us_p50", "us", false},
      {"serving.index_query_us_p99", "us", false},
      {"serving.resolve_us_p50", "us", false},
      {"serving.rerank_rows_per_request", "count", false},
      {"serving.rerank_useful_ratio", "ratio", true},
      {"serving.workers_busy_share", "ratio", false},
      {"serving.fresh_share", "ratio", true},
      {"serving.mean_fallback_depth", "tiers", false},
      {"serving.retries_per_request", "count", false},
      {"serving.breaker_short_circuits", "count", false},
      {"serving.deadline_exceeded", "count", false},
      {"bench.gen_lag_ms_p99", "ms", false},
      {"bench.trace_overhead_pct", "%", false},
      {"bench.failed_share", "ratio", false},
  };
  return kMetrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

Percentile ComputePercentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = std::min(samples.size() - 1,
                              static_cast<size_t>(std::max(1.0, rank)) - 1);
  out.value = samples[idx];
  out.beyond = samples.size() - 1 - idx;
  out.reportable = out.beyond >= kMinBeyond;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Min(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

std::vector<double> BlockPercentiles(const std::vector<double>& samples,
                                     size_t block, double p) {
  std::vector<double> out;
  for (size_t lo = 0; block > 0 && lo + block <= samples.size(); lo += block) {
    out.push_back(ComputePercentile(std::vector<double>(samples.begin() + lo,
                                                        samples.begin() + lo + block),
                                    p)
                      .value);
  }
  return out;
}

std::vector<Arrival> PoissonZipfArrivals(
    uint64_t seed, double rate_per_s, double duration_s,
    const garcia::core::ZipfSampler& zipf,
    const std::vector<uint32_t>& rank_to_query) {
  garcia::core::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - U keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    a.query = rank_to_query[zipf.Sample(&rng)];
    out.push_back(a);
  }
  return out;
}

BisectionResult LogBisection(double lo, double hi, int steps,
                             const std::function<bool(double)>& passes) {
  BisectionResult out;
  out.highest_passing = lo;
  double log_lo = std::log(lo);
  double log_hi = std::log(hi);
  for (int s = 0; s < steps; ++s) {
    const double rate = std::exp(0.5 * (log_lo + log_hi));
    out.probed.push_back(rate);
    if (passes(rate)) {
      log_lo = std::log(rate);
      out.highest_passing = rate;
      out.any_passed = true;
    } else {
      log_hi = std::log(rate);
    }
  }
  return out;
}

CpuRotation::CpuRotation(std::chrono::milliseconds period)
    : tid_(static_cast<int>(syscall(SYS_gettid))) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(tid_, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  if (cpus_.size() < 2) return;
  mover_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t next = 0; !cv_.wait_for(lock, period, [this] { return stop_; });
         next = (next + 1) % cpus_.size()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next], &one);
      if (sched_setaffinity(tid_, sizeof one, &one) == 0) ++moves_;
    }
  });
}

CpuRotation::~CpuRotation() {
  if (!mover_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  mover_.join();
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  sched_setaffinity(tid_, sizeof all, &all);
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricSet::Set(const std::string& name, double value) {
  values_[name] = value;
}

bool MetricSet::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool PrintResult(const std::vector<MetricSpec>& catalog,
                 const MetricSet& metrics, bool correct, uint64_t attempted,
                 uint64_t failed) {
  for (const MetricSpec& m : catalog) {
    if (!metrics.Has(m.name) || !std::isfinite(metrics.Get(m.name))) {
      std::fprintf(stderr, "perfbench: metric %s is missing or not finite\n",
                   m.name.c_str());
      return false;
    }
  }
  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const MetricSpec& m : catalog) {
    std::printf("%-34s %18.6f  %s\n", m.name.c_str(), metrics.Get(m.name),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  json += buf;
  json += ", \"metrics\": {";
  for (size_t i = 0; i < catalog.size(); ++i) {
    const MetricSpec& m = catalog[i];
    const double v = metrics.Get(m.name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

bool Checks::Expect(bool ok, const std::string& step,
                    const std::string& what) {
  if (!ok) {
    ++failures_;
    std::printf("CHECK FAILED [%s / %s]: %s\n", workload_.c_str(),
                step.c_str(), what.c_str());
  }
  return ok;
}

}  // namespace perfbench
