// perfbench — end-to-end and per-layer benchmark of dctrain.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-root <dir>] [--trace-dir <dir>]
//
// Prints a host stamp line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 whenever
// that line was printed (check failures show as "correct": false), 2 on
// bad arguments, 1 when the run could not complete.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace fs = std::filesystem;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp-root <dir>] "
               "[--trace-dir <dir>]\nworkloads:",
               why);
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// A fresh directory for one run's files, removed with everything in it
/// when the run ends.
class RunDir {
 public:
  RunDir(const fs::path& root, const std::string& workload) {
    fs::create_directories(root);
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path_ = root / (workload + "-" + std::to_string(getpid()) + "-" +
                    std::to_string(stamp));
    fs::create_directory(path_);  // throws if it already exists
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string tmp_root = ".bench_build/tmp";
  std::string trace_dir = ".bench_build/traces";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
        have_seconds = opts.seconds > 0.0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opts.trace = val == "1";
        have_trace = true;
      } else if (arg == "--tmp-root") {
        tmp_root = val;
      } else if (arg == "--trace-dir") {
        trace_dir = val;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    return usage(
        "--workload, --seed, --seconds (> 0) and --trace are required");
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opts.workload;
  if (!known) return usage(("unknown workload " + opts.workload).c_str());

  try {
    auto host = perfbench::HostStamp::at_start();
    const RunDir dir(tmp_root, opts.workload);
    opts.tmp_dir = dir.path().string();
    if (opts.trace) {
      fs::create_directories(trace_dir);
      opts.trace_path =
          (fs::path(trace_dir) / (opts.workload + ".trace.json")).string();
    }
    const perfbench::Result result = perfbench::run_workload(opts);
    host.stamp_end();
    std::printf("host %s\n%s\n", host.to_json().c_str(),
                result.to_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
}
