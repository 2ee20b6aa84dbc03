// Entry points of the benchmark workloads (see main.cc for the command
// line and perfbench/run.py for how the benchmark is built and driven).

#ifndef PERFBENCH_BENCH_WORKLOADS_H_
#define PERFBENCH_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of one run.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
  /// Existing directory for the run's scratch files (checkpoints).
  std::string scratch_dir;
};

/// Each returns the process exit code: 0 when every correctness check
/// passed and the result line was printed.
int RunTrainWorkload(const RunOptions& options, bool sampled);
int RunServeWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOADS_H_
