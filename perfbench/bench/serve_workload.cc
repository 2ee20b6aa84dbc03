// serve_zipf: open-loop serving through serving::BatchRanker::RankBatchAsync
// (3 workers) into a ResilientRanker whose fresh tier probes an SQ8 IVF
// index built with the RetrievalConfig auto-resolve defaults.
//
// Inputs: a clustered catalog of kServices service embeddings and kQueries
// query embeddings (dim kDim) with a fixed query-popularity order, like the
// fixed Sep. A population the training workloads use; and request streams
// drawn from --seed, with Poisson arrivals and a Zipf query mix at the
// Sep. A preset's zipf_exponent. --seed also seeds the ranker's per-run
// fault streams. The ranker has a stale snapshot tier and head anchors and
// runs under the fault profile of bench/serving_throughput (10% lookup
// failures, 5% missing ids, 2.5% bit flips, 2.5% latency spikes).
//
// End-to-end metrics:
//   setup_s          median of three set-ups: catalog generation,
//                    IvfIndex::Build and ranker wiring
//   work_s           wall-clock of serving a fixed closed-loop batch of
//                    kClosedLoopRequests requests through the 3 workers
//                    (median of six batches spread over the run)
//   p50_ms / p90_ms  latency at the fixed offered rate kFixedRate, timed from
//                    each request's intended send time (queueing included):
//                    over kWindowSeconds windows, the median of the window
//                    p50s and the median of the window p90s.
//                    The window p99 is the traced run's
//                    serving.latency_ms_p99: on a shared host it follows the
//                    hypervisor's vCPU steal (a stalled worker holding the
//                    resolve turn stalls all three), which moved it 1-7 ms
//                    between identical runs, too far to gate on
//   capacity_rps     throughput served at the highest offered rate that
//                    meets p99 <= kLatencyLimitMs (median over the probe's
//                    windows), at most 0.1% failed and no growing backlog;
//                    found by a fixed-length log-scale bisection over
//                    [kBracketLo, kBracketHi]
//   quality          recall@10 of fresh-tier results against the
//                    brute-force TopKInnerProduct oracle
//   quality_overall  recall@10 of every served result, degraded tiers
//                    included, against the same oracle

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/trace.h"
#include "bench/workloads.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "data/presets.h"
#include "serving/batch_ranker.h"
#include "serving/embedding_store.h"
#include "serving/fault_injector.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"
#include "serving/resilient_ranker.h"

namespace perfbench {
namespace {

using garcia::core::Matrix;
using garcia::serving::RankedList;

constexpr size_t kServices = 50000;
constexpr size_t kQueries = 20000;
constexpr size_t kDim = 64;
constexpr size_t kClusters = 256;
constexpr uint64_t kCatalogSeed = 20220901;
constexpr size_t kTopK = 10;
constexpr size_t kWorkers = 3;
constexpr int kSetupRepeats = 3;
/// Fixed offered rate of the latency phase: about half the closed-loop
/// saturation of the program this benchmark was introduced with. Fixed
/// once; do not retune it to a faster or slower program.
constexpr double kFixedRate = 3000.0;
constexpr double kLatencyLimitMs = 10.0;
constexpr double kMaxFailedShare = 0.001;
constexpr double kBracketLo = 1000.0;
constexpr double kBracketHi = 64000.0;
constexpr int kBisectionSteps = 7;
constexpr size_t kClosedLoopRequests = 6000;
constexpr int kClosedLoopBatches = 2;
constexpr double kWindowSeconds = 1.0;
constexpr int kProbeWindows = 3;
// Each latency-phase window holds enough requests for a reportable p99.
static_assert(kFixedRate * kWindowSeconds * 0.01 >= 2 * kMinBeyond);
/// Requests of the latency phase replayed serially for the determinism and
/// recall checks.
constexpr size_t kReplayPrefix = 2000;
/// A generator later than this at p99 makes the latency phase invalid.
constexpr double kMaxGenLagMs = 10.0;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Catalog {
  Matrix services;
  Matrix queries;
  std::vector<uint32_t> rank_to_query;  // Zipf rank -> query id
};

/// Clustered embeddings: every row is a cluster center plus noise, so an
/// IVF coarse quantizer has structure to find.
Catalog MakeCatalog(uint64_t seed) {
  garcia::core::Rng rng(Mix(seed, 1));
  Catalog c;
  const Matrix centers = Matrix::Randn(kClusters, kDim, &rng);
  auto fill = [&](size_t rows) {
    Matrix m(rows, kDim);
    for (size_t i = 0; i < rows; ++i) {
      const float* center = centers.row(rng.UniformInt(uint64_t{kClusters}));
      float* row = m.row(i);
      for (size_t j = 0; j < kDim; ++j) {
        row[j] = center[j] + 0.5f * static_cast<float>(rng.Normal());
      }
    }
    return m;
  };
  c.services = fill(kServices);
  c.queries = fill(kQueries);
  c.rank_to_query.resize(kQueries);
  for (uint32_t q = 0; q < kQueries; ++q) c.rank_to_query[q] = q;
  rng.Shuffle(&c.rank_to_query);
  return c;
}

garcia::serving::FaultProfile ServingFaultProfile() {
  garcia::serving::FaultProfile profile;
  profile.seed = 97;
  profile.lookup_failure_rate = 0.10;
  profile.missing_id_rate = 0.05;
  profile.bit_flip_rate = 0.025;
  profile.latency_spike_rate = 0.025;
  return profile;
}

struct Stack {
  std::unique_ptr<Catalog> catalog;
  std::shared_ptr<const garcia::serving::IvfIndex> index;
  std::shared_ptr<garcia::serving::ResilientRanker> ranker;
  double index_build_s = 0.0;
};

Stack SetUp() {
  Stack st;
  {
    ScopedSpan span("data.catalog_generate");
    st.catalog = std::make_unique<Catalog>(MakeCatalog(kCatalogSeed));
  }
  const Catalog& c = *st.catalog;
  {
    ScopedSpan span("serving.index_build");
    const auto t0 = Clock::now();
    garcia::serving::RetrievalConfig rc;
    rc.mode = garcia::serving::RetrievalMode::kIvfSq8;
    // Four build threads: the index is built before any serving starts.
    garcia::core::ExecutionContext ctx(kWorkers + 1);
    st.index = std::make_shared<const garcia::serving::IvfIndex>(
        garcia::serving::IvfIndex::Build(c.services, rc, ctx));
    st.index_build_s = SecondsSince(t0);
  }
  ScopedSpan span("serving.wiring");
  st.ranker = std::make_shared<garcia::serving::ResilientRanker>(
      garcia::serving::EmbeddingStore(c.queries),
      garcia::serving::EmbeddingStore(c.services));
  // Stale tier: yesterday's snapshot lacks the newest 20% of query ids;
  // those cold-start ids anchor onto the hottest queries.
  const size_t keep = kQueries * 8 / 10;
  Matrix stale(keep, kDim);
  for (size_t i = 0; i < keep; ++i) stale.CopyRowFrom(c.queries, i, i);
  st.ranker->SetStaleSnapshot(garcia::serving::EmbeddingStore(std::move(stale)));
  std::vector<int32_t> anchors(kQueries, -1);
  for (size_t q = keep; q < kQueries; ++q) {
    anchors[q] = static_cast<int32_t>(c.rank_to_query[q % 100]);
  }
  st.ranker->SetHeadAnchors(std::move(anchors));
  st.ranker->SetRetrievalIndex(st.index);
  return st;
}

bool WellFormed(const RankedList& r, size_t want) {
  if (r.size() != want) return false;
  for (size_t i = 1; i < r.size(); ++i) {
    const auto& a = r[i - 1];
    const auto& b = r[i];
    if (a.second < b.second || (a.second == b.second && a.first >= b.first)) {
      return false;
    }
  }
  for (const auto& e : r) {
    if (!std::isfinite(e.second) || e.first >= kServices) return false;
  }
  return true;
}

bool SameBytes(const RankedList& a, const RankedList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Runs the calling thread (the load generator) under SCHED_FIFO while in
/// scope, where the host allows it. A generator at normal priority can
/// wait a whole scheduler slice behind a busy worker before it sends a due
/// request; that lateness would be measured as server latency. The
/// generator sleeps between sends, so it never starves the workers.
class RealtimeScope {
 public:
  RealtimeScope() {
    pthread_getschedparam(pthread_self(), &old_policy_, &old_param_);
    sched_param rt{};
    rt.sched_priority = 1;
    granted_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt) == 0;
    static const bool reported = [this] {
      std::printf("load generator priority: %s\n",
                  granted_ ? "SCHED_FIFO"
                           : "normal (SCHED_FIFO not permitted here)");
      return true;
    }();
    (void)reported;
  }
  ~RealtimeScope() {
    if (granted_) pthread_setschedparam(pthread_self(), old_policy_, &old_param_);
  }
  RealtimeScope(const RealtimeScope&) = delete;
  RealtimeScope& operator=(const RealtimeScope&) = delete;

 private:
  int old_policy_ = SCHED_OTHER;
  sched_param old_param_{};
  bool granted_ = false;
};

/// Outcome of one open-loop phase.
struct Phase {
  size_t offered = 0;  // arrivals scheduled
  size_t sent = 0;     // arrivals submitted (less when aborted)
  size_t failed = 0;   // malformed results plus unsent arrivals
  bool aborted = false;
  std::vector<RankedList> results;  // the first `keep` requests only
  std::vector<uint32_t> queries;    // by request index, sent only
  std::vector<double> intended_s;   // by request index, all offered
  std::vector<double> latency_ms;   // intended send -> completion
  std::vector<double> queue_us;     // intended send -> RankAt start
  std::vector<double> service_us;   // RankAt
  std::vector<double> lag_ms;       // intended send -> actual submit
  double wall_s = 0.0;              // first intended send -> last completion
  garcia::serving::ServingHealth health;
};

/// Drives `arrivals` open-loop: one generator (this thread) submits each
/// request at its intended time, batching whatever is already due, and
/// never waits for completions. Stops submitting when more than
/// `max_outstanding` requests are in flight (the rate cannot be sustained).
/// Every result is checked as it completes; only the first `keep` are
/// kept, so the phase's footprint does not grow with its length.
Phase RunOpenLoop(garcia::serving::BatchRanker* server,
                  garcia::serving::ResilientRanker* ranker,
                  const garcia::serving::FaultProfile& profile,
                  uint64_t run_seed, const std::vector<Arrival>& arrivals,
                  size_t max_outstanding, size_t keep) {
  Phase ph;
  ph.offered = arrivals.size();
  const size_t n = arrivals.size();
  std::vector<int64_t> done_ns(n, 0);
  std::vector<double> service_us(n, 0.0);
  std::vector<int64_t> submit_ns(n, 0);
  std::vector<uint8_t> well_formed(n, 0);
  ph.results.resize(std::min(keep, n));
  std::atomic<size_t> completed{0};
  // Result storage of each submitted batch; deque keeps addresses stable
  // while workers write into earlier batches.
  std::deque<std::vector<RankedList>> batches;
  Tracer& tracer = Tracer::Get();
  const bool traced = tracer.enabled();
  const uint64_t phase_span = Tracer::CurrentParent();

  ranker->PrepareForRun(&profile, run_seed);
  server->Reset();
  const RealtimeScope realtime;
  const int64_t t0 = SteadyNs() + 1000000;  // first arrival >= 1 ms out
  auto intended_ns = [&](size_t i) {
    return t0 + static_cast<int64_t>(arrivals[i].at_s * 1e9);
  };
  size_t next = 0;
  while (next < n) {
    const int64_t due = intended_ns(next);
    int64_t now = SteadyNs();
    // Sleep, never spin: the generator must not take a core from the
    // workers. Wake-up slack shows up as lateness, which is measured, and
    // as latency, which is timed from the intended send time anyway.
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = SteadyNs();
    }
    size_t end = next + 1;
    while (end < n && intended_ns(end) <= now) ++end;
    std::vector<garcia::serving::ServeRequest> reqs(end - next);
    for (size_t i = next; i < end; ++i) {
      reqs[i - next].query = arrivals[i].query;
      reqs[i - next].k = kTopK;
      submit_ns[i] = now;
    }
    const size_t base = next;
    batches.emplace_back();
    std::vector<RankedList>* out = &batches.back();
    server->RankBatchAsync(
        reqs, out,
        [&, base, out](size_t i, double micros) {
          const int64_t done = SteadyNs();
          const size_t r = base + i;
          done_ns[r] = done;
          service_us[r] = micros;
          // The worker wrote (*out)[i] just before calling the sink.
          RankedList& list = (*out)[i];
          well_formed[r] = WellFormed(list, std::min(kTopK, kServices));
          if (r < ph.results.size()) ph.results[r] = list;
          RankedList().swap(list);
          if (traced) {
            const int64_t intended = tracer.FromSteadyNs(intended_ns(r));
            const int64_t end_t = tracer.FromSteadyNs(done);
            const int64_t start_t =
                end_t - static_cast<int64_t>(micros * 1e3);
            const uint64_t id = tracer.ReserveId();
            tracer.Record("serving.queue_wait", intended, start_t, id, r);
            tracer.Record("serving.rank_at", start_t, end_t, id, r);
            tracer.Record("serving.request", intended, end_t, phase_span, r,
                          id);
          }
          completed.fetch_add(1, std::memory_order_release);
        });
    next = end;
    if (next - completed.load(std::memory_order_acquire) > max_outstanding) {
      ph.aborted = true;
      break;
    }
  }
  server->Drain();
  ph.health = ranker->health();
  ph.sent = next;
  ph.failed = n - next;  // unsent arrivals count as failed
  ph.results.resize(std::min(ph.results.size(), ph.sent));
  ph.queries.resize(ph.sent);
  int64_t last_done = t0;
  for (size_t r = 0; r < ph.sent; ++r) {
    ph.queries[r] = arrivals[r].query;
    const bool ok = well_formed[r] != 0;
    if (!ok) ++ph.failed;
    const double lat_ms = 1e-6 * static_cast<double>(done_ns[r] - intended_ns(r));
    // A failed request misses any latency limit.
    ph.latency_ms.push_back(ok ? lat_ms : HUGE_VAL);
    ph.service_us.push_back(service_us[r]);
    ph.queue_us.push_back(1e-3 * static_cast<double>(done_ns[r] - intended_ns(r)) -
                          service_us[r]);
    ph.lag_ms.push_back(1e-6 * static_cast<double>(submit_ns[r] - intended_ns(r)));
    last_done = std::max(last_done, done_ns[r]);
  }
  for (size_t r = ph.sent; r < n; ++r) ph.latency_ms.push_back(HUGE_VAL);
  for (size_t r = 0; r < n; ++r) ph.intended_s.push_back(arrivals[r].at_s);
  ph.wall_s = 1e-9 * static_cast<double>(last_done - intended_ns(0));
  return ph;
}

/// Percentile `p` of the latencies of each `window_s`-long slice of the
/// phase, by intended send time.
std::vector<double> WindowPercentiles(const Phase& ph, double window_s,
                                      double p) {
  std::vector<std::vector<double>> windows;
  for (size_t r = 0; r < ph.latency_ms.size(); ++r) {
    const size_t w = static_cast<size_t>(ph.intended_s[r] / window_s);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(ph.latency_ms[r]);
  }
  std::vector<double> out;
  for (const auto& w : windows) {
    if (!w.empty()) out.push_back(ComputePercentile(w, p).value);
  }
  return out;
}

/// p99 within the limit in the median window, failures within the budget,
/// no growing backlog (the last fifth of requests waits no longer than
/// twice the first fifth plus 1 ms), and the generator never had to give
/// up.
bool PhasePasses(const Phase& ph, double window_s) {
  if (ph.aborted || ph.offered == 0) return false;
  if (static_cast<double>(ph.failed) >
      kMaxFailedShare * static_cast<double>(ph.offered)) {
    return false;
  }
  if (Median(WindowPercentiles(ph, window_s, 0.99)) > kLatencyLimitMs) {
    return false;
  }
  const size_t fifth = ph.latency_ms.size() / 5;
  if (fifth == 0) return true;
  std::vector<double> first(ph.latency_ms.begin(), ph.latency_ms.begin() + fifth);
  std::vector<double> last(ph.latency_ms.end() - fifth, ph.latency_ms.end());
  return Median(last) <= 2.0 * Median(first) + 1.0;
}

void PrintPhase(const char* name, const Phase& ph, double rate) {
  const Percentile p50 = ComputePercentile(ph.latency_ms, 0.50);
  const Percentile p99 = ComputePercentile(ph.latency_ms, 0.99);
  std::printf("%s @ %.0f rps: sent %zu of %zu, succeeded %zu, failed %zu%s; "
              "p50 %.3f ms, p99 %.3f ms (n=%zu, %zu beyond)\n",
              name, rate, ph.sent, ph.offered,
              ph.offered - ph.failed, ph.failed,
              ph.aborted ? " (aborted: backlog)" : "", p50.value, p99.value,
              p99.samples, p99.beyond);
}

}  // namespace

int RunServeWorkload(const RunOptions& opt) {
  Checks checks(opt.workload);
  Tracer& tracer = Tracer::Get();
  const double zipf_exponent =
      garcia::data::PresetConfig(garcia::data::DatasetId::kSepA).zipf_exponent;
  std::printf("workload %s: %zu services x %zu queries (dim %zu, %zu "
              "clusters), Zipf %.2f, %zu workers, k=%zu, seed %llu\n",
              opt.workload.c_str(), kServices, kQueries, kDim, kClusters,
              zipf_exponent, kWorkers, kTopK,
              static_cast<unsigned long long>(opt.seed));

  // ----- Set-up, repeated for a steady median -----
  std::vector<double> setup_s, build_s;
  Stack st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    st = Stack();  // release the previous stack before building the next
    const auto t0 = Clock::now();
    st = SetUp();
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(st.index_build_s);
  }
  const garcia::serving::IvfIndex& index = *st.index;
  std::printf("setup: SQ8 IVF nlist %zu, nprobe %zu, %.1f MiB, built in "
              "%.3f s (set-up median %.3f s)\n",
              index.nlist(), index.default_nprobe(),
              static_cast<double>(index.MemoryBytes()) / (1 << 20),
              Median(build_s), Median(setup_s));
  const Catalog& cat = *st.catalog;
  garcia::serving::ResilientRanker* ranker = st.ranker.get();
  const garcia::serving::FaultProfile profile = ServingFaultProfile();
  const garcia::core::ZipfSampler zipf(kQueries, zipf_exponent);
  garcia::serving::ServeConfig serve;
  serve.num_threads = kWorkers;
  garcia::serving::BatchRanker server(st.ranker, serve);

  uint64_t attempted = 0, failed = 0;
  MetricSet m;
  // Requests a capacity probe never sent (it gave up on an unsustainable
  // rate) are the probe's answer, not failures; elsewhere they count.
  auto check_phase = [&](const char* name, const Phase& ph,
                         bool unsent_failed) {
    const size_t unsent = ph.offered - ph.sent;
    attempted += unsent_failed ? ph.offered : ph.sent;
    failed += unsent_failed ? ph.failed : ph.failed - unsent;
    checks.Expect(ph.health.requests == ph.sent, name,
                  "health().requests " + std::to_string(ph.health.requests) +
                      " != sent " + std::to_string(ph.sent));
  };

  // ----- Closed loop: a fixed batch served as fast as possible -----
  // The same open-loop runner with every request due at once: one batch,
  // no pacing.
  // kClosedLoopBatches batches at each of three points of the run (before
  // the latency phase, after it, after the capacity search) so host speed
  // drift averages out.
  std::vector<double> closed_s;
  auto closed_loop = [&](int point) {
    for (int j = 0; j < kClosedLoopBatches; ++j) {
      std::vector<Arrival> batch = PoissonZipfArrivals(
          Mix(opt.seed, 200 + kClosedLoopBatches * point + j), 1.0,
          static_cast<double>(kClosedLoopRequests) * 10, zipf,
          cat.rank_to_query);
      batch.resize(std::min(batch.size(), kClosedLoopRequests));
      for (Arrival& a : batch) a.at_s = 0.0;
      const Phase ph = RunOpenLoop(&server, ranker, profile, opt.seed, batch,
                                   batch.size(), 0);
      closed_s.push_back(ph.wall_s);
      std::printf("closed loop: sent %zu, succeeded %zu, failed %zu in %.3f "
                  "s (%.0f rps)\n",
                  ph.sent, ph.sent - ph.failed, ph.failed, ph.wall_s,
                  static_cast<double>(ph.sent) / ph.wall_s);
      check_phase("closed_loop", ph, true);
      checks.Expect(ph.failed == 0, "closed_loop", "malformed ranked lists");
    }
  };
  if (!opt.trace) closed_loop(0);

  // ----- Open loop at the fixed offered rate -----
  // Half the measurement budget, in whole windows. Untraced runs split it
  // into two slices, one before and one after the capacity search, so the
  // windows sample the host's speed across the run.
  const int windows =
      2 * std::max(2, static_cast<int>(0.25 * opt.seconds / kWindowSeconds));
  const double slice_seconds =
      kWindowSeconds * (opt.trace ? windows : windows / 2);
  const size_t max_outstanding = 1000;
  std::vector<double> window_p50, window_p90, window_p99, lag_ms;
  auto fixed_rate = [&](uint64_t stream, size_t keep) {
    const std::vector<Arrival> arrivals = PoissonZipfArrivals(
        Mix(opt.seed, stream), kFixedRate, slice_seconds, zipf,
        cat.rank_to_query);
    Phase ph;
    {
      ScopedSpan span("serving.fixed_rate_phase");
      ph = RunOpenLoop(&server, ranker, profile, opt.seed, arrivals,
                       max_outstanding, keep);
    }
    PrintPhase("fixed rate", ph, kFixedRate);
    check_phase("fixed_rate", ph, true);
    checks.Expect(ph.failed == 0 && !ph.aborted, "fixed_rate",
                  "requests failed at the fixed offered rate");
    for (double v : WindowPercentiles(ph, kWindowSeconds, 0.50)) {
      window_p50.push_back(v);
    }
    for (double v : WindowPercentiles(ph, kWindowSeconds, 0.90)) {
      window_p90.push_back(v);
    }
    for (double v : WindowPercentiles(ph, kWindowSeconds, 0.99)) {
      window_p99.push_back(v);
    }
    lag_ms.insert(lag_ms.end(), ph.lag_ms.begin(), ph.lag_ms.end());
    return ph;
  };
  // Generator lateness and the window p99s over every fixed-rate slice.
  auto report_fixed_rate = [&] {
    const Percentile lag99 = ComputePercentile(lag_ms, 0.99);
    std::printf("generator lateness: p99 %.3f ms (n=%zu)\n", lag99.value,
                lag99.samples);
    checks.Expect(lag99.value <= kMaxGenLagMs, "fixed_rate",
                  "generator fell behind its schedule; the run is invalid");
    std::printf("fixed rate windows p99 (ms):");
    for (double v : window_p99) std::printf(" %.3f", v);
    std::printf("\n");
    return lag99.value;
  };
  double untraced_service_us = 0.0;
  if (opt.trace) {
    // Same phase untraced first: the difference is the tracing overhead.
    tracer.SetEnabled(false);
    const Phase plain = fixed_rate(100, 0);
    untraced_service_us = Mean(plain.service_us);
    window_p50.clear();
    window_p90.clear();
    window_p99.clear();
    lag_ms.clear();
    tracer.SetEnabled(true);
  }
  const Phase fixed = fixed_rate(100, kReplayPrefix);

  // ----- Serial replay of a prefix: determinism, recall -----
  const size_t prefix = fixed.results.size();
  ranker->PrepareForRun(&profile, opt.seed);
  garcia::core::ExecutionContext oracle_ctx(kWorkers);
  std::vector<std::vector<uint32_t>> oracle(kQueries);
  double fresh_recall = 0.0, all_recall = 0.0;
  size_t fresh_n = 0, mismatched = 0;
  for (size_t i = 0; i < prefix; ++i) {
    garcia::serving::ServingTier tier;
    const RankedList again = ranker->RankAt(i, fixed.queries[i], kTopK, &tier);
    if (!SameBytes(again, fixed.results[i])) ++mismatched;
    std::vector<uint32_t>& truth = oracle[fixed.queries[i]];
    if (truth.empty()) {
      for (const auto& e : garcia::serving::TopKInnerProduct(
               oracle_ctx, cat.queries.row(fixed.queries[i]), kDim,
               cat.services, kTopK)) {
        truth.push_back(e.first);
      }
      std::sort(truth.begin(), truth.end());
    }
    size_t hits = 0;
    for (const auto& e : again) {
      hits += std::binary_search(truth.begin(), truth.end(), e.first) ? 1 : 0;
    }
    const double recall = static_cast<double>(hits) / kTopK;
    all_recall += recall;
    if (tier == garcia::serving::ServingTier::kFresh) {
      fresh_recall += recall;
      ++fresh_n;
    }
  }
  std::printf("serial replay of %zu requests: %zu differ from the concurrent "
              "run; recall@%zu fresh %.4f (%zu requests), all tiers %.4f\n",
              prefix, mismatched, kTopK,
              fresh_n ? fresh_recall / fresh_n : 0.0, fresh_n,
              prefix ? all_recall / prefix : 0.0);
  checks.Expect(prefix > 0 && mismatched == 0, "replay",
                "serial replay is not byte-identical to the concurrent run");
  checks.Expect(fresh_n > 0, "replay", "no request was served fresh");
  if (!opt.trace) closed_loop(1);

  if (!opt.trace) {
    // ----- Capacity: fixed-length bisection on a log scale -----
    // The other half of the budget, split evenly over the probes.
    const double step_seconds = 0.5 * opt.seconds / kBisectionSteps;
    double served_rps = 0.0;
    int step = 0;
    const BisectionResult cap = LogBisection(
        kBracketLo, kBracketHi, kBisectionSteps, [&](double rate) {
          const std::vector<Arrival> arrivals =
              PoissonZipfArrivals(Mix(opt.seed, 300 + step++), rate,
                                  step_seconds, zipf, cat.rank_to_query);
          const size_t limit =
              static_cast<size_t>(rate * 0.05) + 100;  // 50 ms of backlog
          const Phase ph = RunOpenLoop(&server, ranker, profile, opt.seed,
                                       arrivals, limit, 0);
          check_phase("capacity", ph, false);
          const bool pass = PhasePasses(ph, step_seconds / kProbeWindows);
          if (pass) served_rps = static_cast<double>(ph.sent) / ph.wall_s;
          PrintPhase(pass ? "capacity probe PASS" : "capacity probe FAIL", ph,
                     rate);
          return pass;
        });
    std::printf("capacity: offered %.0f rps, served %.0f rps (%d probes over "
                "[%.0f, %.0f])%s\n",
                cap.highest_passing, served_rps, kBisectionSteps, kBracketLo,
                kBracketHi,
                cap.any_passed ? "" : " -- no probe passed");
    checks.Expect(cap.any_passed, "capacity", "no offered rate passed");
    fixed_rate(101, 0);
    closed_loop(2);

    report_fixed_rate();
    m.Set("setup_s", Median(setup_s));
    m.Set("work_s", Median(closed_s));
    m.Set("p50_ms", Median(window_p50));
    m.Set("p90_ms", Median(window_p90));
    m.Set("capacity_rps", served_rps);
    m.Set("quality", fresh_n ? fresh_recall / fresh_n : 0.0);
    m.Set("quality_overall", prefix ? all_recall / prefix : 0.0);
    m.Set("success_share",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted));
    m.Set("peak_rss_mb", PeakRssMb());
    const bool printed = PrintResult(EndToEndMetrics(), m, checks.all_passed(),
                                     attempted, failed);
    return printed && checks.all_passed() ? 0 : 1;
  }

  // ----- Traced run: the index probe replayed on the same stream -----
  std::vector<double> query_us;
  size_t rerank_rows = 0;
  for (size_t i = 0; i < prefix; ++i) {
    garcia::serving::IvfIndex::QueryStats stats;
    const int64_t t0 = tracer.NowNs();
    index.Query(garcia::core::SerialExecution(), cat.queries.row(fixed.queries[i]),
                kTopK, index.default_nprobe(), 0, &stats);
    const int64_t t1 = tracer.NowNs();
    tracer.Record("serving.index_query", t0, t1, 0, static_cast<int64_t>(i));
    query_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    rerank_rows += stats.rerank_rows;
  }
  const garcia::serving::ServingHealth& h = fixed.health;
  double service_sum = 0.0;
  for (double v : fixed.service_us) service_sum += v;
  const double traced_service_us = Mean(fixed.service_us);
  const double rerank_per_request =
      h.quantized_scans ? static_cast<double>(h.rerank_rows) / h.quantized_scans
                        : 0.0;
  const Percentile svc50 = ComputePercentile(fixed.service_us, 0.50);
  const Percentile q50 = ComputePercentile(query_us, 0.50);

  for (const MetricSpec& spec : PerLayerMetrics()) m.Set(spec.name, 0.0);
  m.Set("data.generate_s", Median(tracer.DurationsMs("data.catalog_generate")) * 1e-3);
  m.Set("serving.index_build_s", Median(build_s));
  m.Set("serving.index_memory_mb",
        static_cast<double>(index.MemoryBytes()) / (1 << 20));
  m.Set("serving.latency_ms_p99", Median(window_p99));
  m.Set("serving.service_us_p50", svc50.value);
  m.Set("serving.service_us_p99",
        ComputePercentile(fixed.service_us, 0.99).value);
  m.Set("serving.queue_wait_us_p50",
        ComputePercentile(fixed.queue_us, 0.50).value);
  m.Set("serving.queue_wait_us_p99",
        ComputePercentile(fixed.queue_us, 0.99).value);
  m.Set("serving.index_query_us_p50", q50.value);
  m.Set("serving.index_query_us_p99", ComputePercentile(query_us, 0.99).value);
  m.Set("serving.resolve_us_p50", svc50.value - q50.value);
  m.Set("serving.rerank_rows_per_request", rerank_per_request);
  m.Set("serving.rerank_useful_ratio",
        rerank_per_request > 0 ? kTopK / rerank_per_request : 0.0);
  m.Set("serving.workers_busy_share",
        service_sum * 1e-6 / (kWorkers * fixed.wall_s));
  m.Set("serving.fresh_share", h.FreshServeRate());
  m.Set("serving.mean_fallback_depth", h.MeanFallbackDepth());
  m.Set("serving.retries_per_request",
        h.requests ? static_cast<double>(h.retries) / h.requests : 0.0);
  m.Set("serving.breaker_short_circuits",
        static_cast<double>(h.breaker_short_circuits));
  m.Set("serving.deadline_exceeded", static_cast<double>(h.deadline_exceeded));
  m.Set("bench.gen_lag_ms_p99", report_fixed_rate());
  m.Set("bench.trace_overhead_pct",
        100.0 * (traced_service_us - untraced_service_us) / untraced_service_us);
  m.Set("bench.failed_share",
        static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("index replay: p50 %.1f us, %zu re-rank rows over %zu queries\n",
              q50.value, rerank_rows, prefix);

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
