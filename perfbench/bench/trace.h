// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's layers (nothing inside the library is instrumented). Each span
// has a name, start, end, the span that enclosed it on the same thread and,
// for serving, the request index. Spans stay in memory until the run ends,
// when they are written as Chrome trace-event JSON (open the file in
// Perfetto or chrome://tracing) and summarised into per-layer self times.

#ifndef PERFBENCH_BENCH_TRACE_H_
#define PERFBENCH_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  int64_t request = -1;  // serving request index, -1 otherwise
  uint32_t thread = 0;
};

class Tracer {
 public:
  /// The process-wide tracer; disabled until SetEnabled(true).
  static Tracer& Get();

  /// Turns span recording on or off (off at start).
  void SetEnabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Nanoseconds since the tracer's epoch (steady clock).
  int64_t NowNs() const;
  /// Converts a steady-clock time (ns since the clock's epoch) to the
  /// tracer's time base.
  int64_t FromSteadyNs(int64_t steady_ns) const { return steady_ns - epoch_ns_; }

  /// A fresh span id (for a span whose children are recorded before it).
  uint64_t ReserveId();

  /// Records a finished span with an explicit parent; `id` 0 allocates one.
  /// Thread-safe. Returns the span id (0 when disabled).
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, int64_t request = -1, uint64_t id = 0);

  /// Id of the innermost open ScopedSpan on this thread (0 = none).
  static uint64_t CurrentParent();

  std::vector<SpanRecord> Spans() const;

  /// Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time per span name in ms: each span's duration minus the part of
  /// its interval covered by its children.
  std::map<std::string, double> SelfTimeMs() const;

  /// Writes all spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class ScopedSpan;
  Tracer();

  std::atomic<bool> enabled_{false};
  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

/// Records the enclosing scope as a span (no-op while tracing is off) and
/// makes it the parent of spans opened inside it on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t request_;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t prev_parent_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_TRACE_H_
