#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

namespace {

// 1-based nearest rank of the q-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile outside (0, 1]");
  }
  // The epsilon keeps q·n that is an integer in exact arithmetic (0.95 ·
  // 200) from rounding up to the next rank.
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::vector<double> slowest_per_step(
    const std::vector<std::vector<double>>& per_rank) {
  if (per_rank.empty()) return {};
  const std::size_t steps = per_rank.front().size();
  std::vector<double> out(steps, 0.0);
  for (const auto& rank : per_rank) {
    if (rank.size() != steps) {
      throw std::invalid_argument("ranks recorded different step counts");
    }
    for (std::size_t s = 0; s < steps; ++s) out[s] = std::max(out[s], rank[s]);
  }
  return out;
}

namespace {

// End (exclusive) of block b when n items are split into `blocks` runs.
std::size_t block_end(std::size_t n, std::size_t blocks, std::size_t b) {
  return n * (b + 1) / blocks;
}

void check_blocks(std::size_t n, std::size_t blocks) {
  if (blocks == 0 || blocks > n) {
    throw std::invalid_argument("need 1 <= blocks <= items");
  }
}

}  // namespace

std::vector<double> per_op_in_blocks(const std::vector<double>& marks,
                                     std::size_t blocks) {
  const std::size_t n = marks.empty() ? 0 : marks.size() - 1;
  check_blocks(n, blocks);
  std::vector<double> out;
  std::size_t lo = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t hi = block_end(n, blocks, b);
    out.push_back((marks[hi] - marks[lo]) / static_cast<double>(hi - lo));
    lo = hi;
  }
  return out;
}

std::vector<double> block_medians(const std::vector<double>& samples,
                                  std::size_t blocks) {
  check_blocks(samples.size(), blocks);
  std::vector<double> out;
  std::size_t lo = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t hi = block_end(samples.size(), blocks, b);
    out.push_back(median(std::vector<double>(
        samples.begin() + static_cast<std::ptrdiff_t>(lo),
        samples.begin() + static_cast<std::ptrdiff_t>(hi))));
    lo = hi;
  }
  return out;
}

double lowest(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("lowest of an empty sample");
  return *std::min_element(v.begin(), v.end());
}

std::map<std::string, std::uint64_t> counter_deltas(
    const dct::obs::MetricsSnapshot& before,
    const dct::obs::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& row : before.counters) base[row.name] = row.value;
  std::map<std::string, std::uint64_t> out;
  for (const auto& row : after.counters) {
    const auto it = base.find(row.name);
    const std::uint64_t from = it == base.end() ? 0 : it->second;
    if (row.value < from) {
      throw std::logic_error("counter " + row.name + " went backwards");
    }
    out[row.name] = row.value - from;
  }
  return out;
}

std::map<std::string, SpanTotal> span_self_times(
    const std::vector<dct::obs::CollectedEvent>& events) {
  using Kind = dct::obs::TraceEvent::Kind;
  std::map<int, std::vector<const dct::obs::TraceEvent*>> by_tid;
  for (const auto& e : events) {
    if (e.event.kind == Kind::kSpan) by_tid[e.tid].push_back(&e.event);
  }
  std::map<std::string, SpanTotal> out;
  for (auto& [tid, spans] : by_tid) {
    // Parents sort before the children they contain: earlier start
    // first, and the longer span first on a tie.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
      return a->dur_ns > b->dur_ns;
    });
    struct Open {
      const dct::obs::TraceEvent* span;
      std::uint64_t covered_ns;
    };
    std::vector<Open> stack;
    const auto close = [&out](const Open& o) {
      auto& t = out[o.span->name];
      const std::uint64_t self =
          o.span->dur_ns > o.covered_ns ? o.span->dur_ns - o.covered_ns : 0;
      t.self_s += static_cast<double>(self) * 1e-9;
      ++t.count;
    };
    for (const auto* s : spans) {
      while (!stack.empty() &&
             stack.back().span->ts_ns + stack.back().span->dur_ns <= s->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        const auto* parent = stack.back().span;
        const std::uint64_t end = std::min(s->ts_ns + s->dur_ns,
                                           parent->ts_ns + parent->dur_ns);
        stack.back().covered_ns += end - s->ts_ns;
      }
      stack.push_back({s, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double load1() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // stop at the first NUL
    const auto b = brand.find_first_not_of(' ');
    const auto e = brand.find_last_not_of(' ');
    if (b != std::string::npos) return brand.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

// Milliseconds for a fixed chain of 2^22 integer mixing steps (about
// 10 ms on a 2 GHz core); the dependency chain keeps it from being
// vectorised or folded away.
double ref_loop_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  sink = x;
  (void)sink;
  return seconds_since(t0) * 1e3;
}

}  // namespace

HostStamp HostStamp::at_start() {
  HostStamp h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.cpu_model = cpu_brand();
  h.load1_start = load1();
  h.ref_loop_ms_start = ref_loop_ms();
  return h;
}

void HostStamp::stamp_end() {
  load1_end = load1();
  ref_loop_ms_end = ref_loop_ms();
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

namespace {

std::string json_number(double v) {
  char buf[32];
  // Shortest representation that reads back as the same double.
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string HostStamp::to_json() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + json_string(cpu_model) +
         ", \"load1_start\": " + json_number(load1_start) +
         ", \"load1_end\": " + json_number(load1_end) +
         ", \"ref_loop_ms_start\": " + json_number(ref_loop_ms_start) +
         ", \"ref_loop_ms_end\": " + json_number(ref_loop_ms_end) + "}";
}

std::string Result::to_json() const {
  bool ok = correct;
  std::string m;
  for (const auto& metric : metrics) {
    double v = metric.value;
    if (!std::isfinite(v)) {
      ok = false;
      v = 0.0;
    }
    if (!m.empty()) m += ", ";
    m += json_string(metric.name) + ": {\"value\": " + json_number(v) +
         ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return std::string("{\"correct\": ") + (ok ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + m +
         "}}";
}

}  // namespace perfbench
