// The modeled half: price every registered allreduce algorithm on the
// Minsky fat-tree at {16, 32, 64} nodes × {4 MiB, 100 MiB}, the DIMD
// shuffle of ImageNet-1k at each size, and the epoch model for
// ResNet-50 / GoogLeNet-BN, baseline and optimised. Each priced item is
// one "plan"; sweeps repeat in a seed-shuffled order until the run's
// time is used.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "allreduce/algorithm.hpp"
#include "ledger.hpp"
#include "netsim/cluster.hpp"
#include "trainer/epoch_model.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ns = dct::netsim;

namespace {

constexpr int kNodes[] = {16, 32, 64};
constexpr std::uint64_t kPayloads[] = {std::uint64_t{4} << 20,
                                       std::uint64_t{100} << 20};
/// Back-to-back fabric-set builds per set-up. One set builds in about
/// 2 us, where a cache miss or an interrupt doubles the time, so a set-up
/// is timed as the fastest of the batch.
constexpr int kSetupBuilds = 2000;
/// ImageNet-1k at the epoch model's mean compressed record size.
constexpr std::uint64_t kDatasetBytes = 1'281'167ull * 60'000ull;

struct Plan {
  enum class Kind { kAllreduce, kShuffle, kEpoch } kind;
  std::string name;  ///< algorithm, or model for kEpoch
  int nodes = 0;
  std::uint64_t payload = 0;
  bool baseline = false;
};

std::vector<Plan> make_plans() {
  std::vector<Plan> plans;
  for (const auto& algo : dct::allreduce::algorithm_names()) {
    for (const int n : kNodes) {
      for (const auto p : kPayloads) {
        plans.push_back({Plan::Kind::kAllreduce, algo, n, p, false});
      }
    }
  }
  for (const int n : kNodes) {
    plans.push_back(
        {Plan::Kind::kShuffle, "dimd", n, kDatasetBytes / n, false});
  }
  for (const char* model : {"resnet50", "googlenetbn"}) {
    for (const int n : kNodes) {
      for (const bool baseline : {false, true}) {
        plans.push_back({Plan::Kind::kEpoch, model, n, 0, baseline});
      }
    }
  }
  return plans;
}

/// Fabrics by node count: the set-up a sweep prices on.
using Fabrics = std::map<int, std::unique_ptr<ns::Topology>>;

Fabrics build_fabrics() {
  Fabrics f;
  for (const int n : kNodes) {
    ns::ClusterConfig c;
    c.nodes = n;
    f[n] = ns::make_fabric(c);
  }
  return f;
}

/// What pricing one plan produced.
struct Priced {
  double seconds = 0.0;   ///< modeled makespan / shuffle / epoch time
  std::uint64_t flows = 0;
  std::size_t ops = 0;
};

/// The pipeline granularity netsim::allreduce_time_s uses.
std::uint64_t pipeline_bytes(std::uint64_t payload) {
  return std::max<std::uint64_t>(
      64 * 1024, std::min<std::uint64_t>(1 << 20, payload));
}

Priced price(const Plan& p, const Fabrics& fabrics) {
  Priced out;
  switch (p.kind) {
    case Plan::Kind::kAllreduce: {
      ns::AllreduceParams params;
      params.payload_bytes = p.payload;
      params.ranks = p.nodes;
      params.reduce_bw_Bps = ns::ClusterConfig{}.reduce_bw_Bps;
      params.pipeline_bytes = pipeline_bytes(p.payload);
      ns::CommSchedule schedule;
      {
        dct::obs::SpanScope s("netsim.allreduce_schedule", kBenchCat);
        schedule = ns::allreduce_schedule(p.name, params);
      }
      dct::obs::SpanScope s("netsim.simulate", kBenchCat);
      const auto r = ns::simulate(*fabrics.at(p.nodes), schedule,
                                  ns::sim_options_for(p.name));
      out.seconds = r.makespan_s;
      out.flows = r.flows;
      out.ops = schedule.size();
      break;
    }
    case Plan::Kind::kShuffle: {
      dct::obs::SpanScope s("netsim.shuffle_time_s", kBenchCat);
      ns::ClusterConfig c;
      c.nodes = p.nodes;
      out.seconds = ns::shuffle_time_s(c, p.payload, p.nodes);
      break;
    }
    case Plan::Kind::kEpoch: {
      dct::obs::SpanScope s("epoch_model.estimate_epoch", kBenchCat);
      dct::trainer::EpochModelConfig c;
      c.model = p.name;
      c.nodes = p.nodes;
      c.cluster.nodes = p.nodes;
      c = p.baseline ? dct::trainer::with_open_source_baseline(c)
                     : dct::trainer::with_all_optimizations(c);
      out.seconds = dct::trainer::estimate_epoch(c).epoch_s;
      break;
    }
  }
  return out;
}

std::string describe(const Plan& p) {
  return p.name + "@" + std::to_string(p.nodes) + "n/" +
         std::to_string(p.payload) + "B" + (p.baseline ? "/baseline" : "");
}

struct Section {
  std::vector<double> plan_s;  ///< every plan's wall time, in pricing order
  /// Least wall and CPU time each plan took over the sweeps, by plan
  /// index: interference from other work on the host only ever slows a
  /// plan, so its fastest reading is the least disturbed.
  std::vector<double> best_wall;
  std::vector<double> best_cpu;
  std::vector<double> setup_s;  ///< fastest fabric-set build, per sweep
  std::uint64_t flows = 0;
  std::uint64_t ops = 0;
  std::uint64_t allreduce_plans = 0;
};

/// Plans per second at each plan's least-disturbed time.
double plans_per_s(const Section& sec) {
  return static_cast<double>(sec.best_wall.size()) /
         std::accumulate(sec.best_wall.begin(), sec.best_wall.end(), 0.0);
}

/// Sweep in seed-shuffled order until `seconds` have passed and at least
/// `min_plans` were priced (whole sweeps only). Checks every result.
Section sweep(const std::vector<Plan>& plans, dct::Rng& rng, double seconds,
              std::size_t min_plans, Result& result,
              std::map<std::string, double>& fig5) {
  Section sec;
  sec.best_wall.assign(plans.size(), std::numeric_limits<double>::infinity());
  sec.best_cpu.assign(plans.size(), std::numeric_limits<double>::infinity());
  std::vector<std::size_t> order(plans.size());
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || sec.plan_s.size() < min_plans) {
    // Set-up, repeated before every sweep so that its median samples the
    // host across the whole run.
    Fabrics fabrics;
    double setup = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kSetupBuilds; ++i) {
      const auto ts = Clock::now();
      fabrics = build_fabrics();
      setup = std::min(setup, seconds_since(ts));
    }
    sec.setup_s.push_back(setup);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order.begin(), order.end());
    for (const std::size_t i : order) {
      const Plan& p = plans[i];
      dct::obs::SpanScope span("bench.plan", kBenchCat,
                               static_cast<std::int64_t>(i));
      const auto tp = Clock::now();
      const double cpu = process_cpu_seconds();
      const Priced r = price(p, fabrics);
      const double wall = seconds_since(tp);
      sec.plan_s.push_back(wall);
      sec.best_wall[i] = std::min(sec.best_wall[i], wall);
      sec.best_cpu[i] = std::min(sec.best_cpu[i], process_cpu_seconds() - cpu);
      ++result.attempted;
      if (!(std::isfinite(r.seconds) && r.seconds > 0.0)) {
        result.fail("plan " + describe(p) + " priced at " +
                    std::to_string(r.seconds) + " s");
      }
      if (p.kind == Plan::Kind::kAllreduce) {
        sec.flows += r.flows;
        sec.ops += r.ops;
        ++sec.allreduce_plans;
        if (p.nodes == 32 && p.payload == kPayloads[1]) {
          fig5[p.name] = r.seconds;
        }
      }
    }
  }
  return sec;
}

/// Fig. 5 at 32 nodes and 100 MiB: multicolor beats ring beats the
/// OpenMPI default, and the split build + simulate path prices exactly
/// what netsim::allreduce_time_s does.
void check_fig5(const std::map<std::string, double>& fig5, Result& result) {
  const double mc = fig5.at("multicolor");
  const double ring = fig5.at("ring");
  const double ompi = fig5.at("openmpi_default");
  if (!(mc < ring && ring < ompi)) {
    result.fail("Fig. 5 order broken at 32 nodes, 100 MiB: multicolor " +
                std::to_string(mc) + " s, ring " + std::to_string(ring) +
                " s, openmpi_default " + std::to_string(ompi) + " s");
  }
  ns::ClusterConfig c;
  c.nodes = 32;
  for (const char* algo : {"multicolor", "ring", "openmpi_default"}) {
    const double ref = ns::allreduce_time_s(c, algo, kPayloads[1]);
    if (ref != fig5.at(algo)) {
      result.fail(std::string(algo) + " priced " +
                  std::to_string(fig5.at(algo)) +
                  " s here but allreduce_time_s gives " + std::to_string(ref));
    }
  }
}

}  // namespace

Result run_plan_sweep(const RunOptions& opts) {
  Result result;
  const std::vector<Plan> plans = make_plans();
  dct::Rng rng(opts.seed);
  std::map<std::string, double> fig5;

  const double section_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Section a = sweep(plans, rng, section_s, kMinTimedOps, result, fig5);
  const double ips_a = plans_per_s(a);
  check_fig5(fig5, result);

  if (!opts.trace) {
    result.add("items_per_s", ips_a, "1/s");
    result.add("op_ms_p50", median(a.best_wall) * 1e3, "ms");
    result.add("cpu_ms_per_item",
               std::accumulate(a.best_cpu.begin(), a.best_cpu.end(), 0.0) /
                   static_cast<double>(a.best_cpu.size()) * 1e3,
               "ms");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    result.add("setup_s", median(a.setup_s), "s");
    return result;
  }

  dct::obs::Tracer::reset();
  dct::obs::Tracer::set_enabled(true);
  const Section b = sweep(plans, rng, section_s, 1, result, fig5);
  dct::obs::Tracer::set_enabled(false);
  const auto self = span_self_times(dct::obs::Tracer::collect());
  const auto self_s = [&self](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? SpanTotal{} : it->second;
  };
  const auto per_call = [](const SpanTotal& t) {
    return t.count == 0 ? 0.0 : t.self_s / static_cast<double>(t.count);
  };
  const SpanTotal build = self_s("netsim.allreduce_schedule");
  const SpanTotal sim = self_s("netsim.simulate");
  const double plans_b = static_cast<double>(b.allreduce_plans);

  Ledger ledger;
  ledger.set("op_ms_p95", percentile(a.plan_s, 0.95) * 1e3);
  ledger.set("netsim.schedule_build_ms", per_call(build) * 1e3);
  ledger.set("netsim.simulate_ms", per_call(sim) * 1e3);
  ledger.set("netsim.flows_per_plan", static_cast<double>(b.flows) / plans_b);
  ledger.set("netsim.ops_per_plan", static_cast<double>(b.ops) / plans_b);
  ledger.set("netsim.sim_us_per_flow",
             sim.self_s / static_cast<double>(b.flows) * 1e6);
  ledger.set("epoch_model.estimate_us",
             per_call(self_s("epoch_model.estimate_epoch")) * 1e6);
  ledger.set("obs.trace_overhead_pct", (ips_a / plans_per_s(b) - 1.0) * 100.0);
  if (!opts.trace_path.empty()) {
    dct::obs::Tracer::write_chrome_trace(opts.trace_path);
  }
  ledger.emit(result);
  return result;
}

}  // namespace perfbench
