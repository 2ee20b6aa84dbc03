// The benchmark binary.
//
//   perfbench --workload train_full|train_sampled|serve_zipf --seed N
//             --seconds S --trace 0|1 --scratch DIR [--trace_out FILE]
//
// Prints each phase's sent/succeeded/failed counts and every metric by name
// with its unit; the last stdout line is the JSON result object. Exits 0
// only when every correctness check passed. Scratch files (checkpoints) go
// to a fresh directory under DIR that is removed before exit. The traced
// run (--trace 1) writes its Chrome trace-event JSON to FILE.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/trace.h"
#include "bench/workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload train_full|train_sampled|"
               "serve_zipf --seed N --seconds S --trace 0|1 --scratch DIR "
               "[--trace_out FILE]\n",
               why);
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
  ~ScratchDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string scratch_root;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t v = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &v)) Usage("--seed takes a whole number");
      opt.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &v) || v == 0 || v > 600) {
        Usage("--seconds takes a whole number in [1, 600]");
      }
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--scratch") {
      scratch_root = value;
    } else if (flag == "--trace_out") {
      opt.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || scratch_root.empty()) {
    Usage("--seed, --seconds, --trace and --scratch are required");
  }
  if (opt.workload != "train_full" && opt.workload != "train_sampled" &&
      opt.workload != "serve_zipf") {
    Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.trace && opt.trace_path.empty()) {
    Usage("--trace 1 needs --trace_out");
  }

  ScratchDir scratch;
  try {
    std::filesystem::create_directories(scratch_root);
    std::string templ = scratch_root + "/run-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr,
                   "perfbench: workload %s failed in step setup: cannot "
                   "create a scratch directory under %s\n",
                   opt.workload.c_str(), scratch_root.c_str());
      return 2;
    }
    scratch.path = buf.data();
    opt.scratch_dir = scratch.path;

    perfbench::Tracer::Get().SetEnabled(opt.trace);
    if (opt.workload == "serve_zipf") return perfbench::RunServeWorkload(opt);
    return perfbench::RunTrainWorkload(opt, opt.workload == "train_sampled");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 2;
  }
}
