#include "bench/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t mine = next.fetch_add(1);
  return mine;
}

thread_local uint64_t tls_parent = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_ns_(SteadyNs()) {}

int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

uint64_t Tracer::ReserveId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t parent, int64_t request, uint64_t id) {
  if (!enabled_) return 0;
  SpanRecord r;
  r.parent = parent;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.request = request;
  r.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  r.id = id != 0 ? id : next_id_++;
  spans_.push_back(r);
  return r.id;
}

uint64_t Tracer::CurrentParent() { return tls_parent; }

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& r : spans_) {
    if (name == r.name) out.push_back(1e-6 * static_cast<double>(r.end_ns - r.start_ns));
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeMs() const {
  const std::vector<SpanRecord> spans = Spans();
  // Children of each span, as [start, end) intervals.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const SpanRecord& r : spans) {
    if (r.parent != 0) kids[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& r : spans) {
    int64_t covered = 0;
    auto it = kids.find(r.id);
    if (it != kids.end()) {
      // Union of the children's intervals, clipped to the parent's.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_ns);
        hi = std::min(hi, r.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[r.name] += 1e-6 * static_cast<double>(r.end_ns - r.start_ns - covered);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  const std::vector<SpanRecord> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu",
                 i == 0 ? "" : ",\n", r.name, r.thread, 1e-3 * r.start_ns,
                 1e-3 * (r.end_ns - r.start_ns),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    if (r.request >= 0) {
      std::fprintf(f, ", \"request\": %lld", static_cast<long long>(r.request));
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : name_(name), request_(request) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  id_ = t.ReserveId();
  prev_parent_ = tls_parent;
  tls_parent = id_;
  start_ns_ = t.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Tracer& t = Tracer::Get();
  t.Record(name_, start_ns_, t.NowNs(), prev_parent_, request_, id_);
  tls_parent = prev_parent_;
}

}  // namespace perfbench
