// Measurement helpers shared by the benchmark workloads: the metric
// catalog, percentiles with their sample counts, the seeded open-loop
// arrival generator, the fixed-length rate bisection, and the one-line
// JSON result the benchmark prints last.

#ifndef PERFBENCH_BENCH_HARNESS_H_
#define PERFBENCH_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"

namespace perfbench {

// ----- Metric catalog -----

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
};

/// Metrics of an untraced run (every workload prints all of them).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics of a traced run (every workload prints all of them; a layer the
/// workload never reaches reports 0).
const std::vector<MetricSpec>& PerLayerMetrics();

/// Starts with a letter or digit; at most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);
/// At most 16 of [A-Za-z0-9_/%.-], non-empty.
bool ValidUnit(const std::string& unit);

// ----- Percentiles -----

struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly after the percentile's rank position.
  size_t beyond = 0;
  /// True when at least kMinBeyond samples lie beyond the percentile, the
  /// condition for reporting it at all.
  bool reportable = false;
};

constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 1]) of `samples`.
Percentile ComputePercentile(std::vector<double> samples, double p);

/// Median of a non-empty sample (mean of the middle two when even).
double Median(std::vector<double> samples);

/// Arithmetic mean (0 for an empty sample).
double Mean(const std::vector<double>& samples);

/// Smallest value (0 for an empty sample).
double Min(const std::vector<double>& samples);

/// Percentile `p` of each consecutive block of `block` samples, in order;
/// a trailing partial block is dropped.
std::vector<double> BlockPercentiles(const std::vector<double>& samples,
                                     size_t block, double p);

// ----- Open-loop arrivals -----

struct Arrival {
  double at_s = 0.0;   // intended send time from the start of the phase
  uint32_t query = 0;  // query id
};

/// Seeded Poisson arrivals at `rate_per_s` over [0, duration_s), each
/// carrying a query drawn from `zipf` (rank r maps to query rank_to_query[r]).
/// The same (seed, rate, duration) always yields the same arrivals.
std::vector<Arrival> PoissonZipfArrivals(
    uint64_t seed, double rate_per_s, double duration_s,
    const garcia::core::ZipfSampler& zipf,
    const std::vector<uint32_t>& rank_to_query);

// ----- Rate bisection -----

struct BisectionResult {
  double highest_passing = 0.0;  // bracket floor when no probe passed
  bool any_passed = false;
  std::vector<double> probed;    // every probed rate, in order
};

/// Bisects on a log scale over [lo, hi] with exactly `steps` probes, no
/// matter how they come out, so the run length does not grow with the
/// capacity found: each probe is the geometric midpoint of the current
/// bracket, a pass raises the floor and a failure lowers the ceiling.
BisectionResult LogBisection(double lo, double hi, int steps,
                             const std::function<bool(double)>& passes);

// ----- Timing, memory, output -----

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the thread that constructs it to the next CPU of the process's
/// allowed set every `period` until destroyed. On this kind of shared
/// VM a neighbour's load slows one vCPU at a time, in episodes of several
/// seconds, so a serial thread left on one vCPU measures that vCPU's
/// episodes; rotated, it sees every vCPU in turn and its wall-clock
/// follows the mean speed of the machine. A no-op with fewer than two
/// allowed CPUs. Restores the original affinity when destroyed.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds period);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves made so far.
  uint64_t moves() const { return moves_.load(); }

 private:
  std::vector<int> cpus_;
  int tid_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> moves_{0};
  std::thread mover_;
};

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Collected metrics of one run, keyed by catalog name.
class MetricSet {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Prints every catalog metric by name with its unit (human-readable), then
/// the result object as the last stdout line. Returns false (and prints no
/// result line) when a catalog metric is missing or not finite.
bool PrintResult(const std::vector<MetricSpec>& catalog,
                 const MetricSet& metrics, bool correct, uint64_t attempted,
                 uint64_t failed);

/// Correctness bookkeeping: each failed check is printed with the workload
/// and step that failed.
class Checks {
 public:
  explicit Checks(std::string workload) : workload_(std::move(workload)) {}
  /// Records a check; prints "CHECK FAILED" with `what` when !ok.
  bool Expect(bool ok, const std::string& step, const std::string& what);
  bool all_passed() const { return failures_ == 0; }

 private:
  std::string workload_;
  size_t failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HARNESS_H_
