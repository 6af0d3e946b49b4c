// Unit tests of the benchmark's own code: order statistics, slowest-rank
// aggregation, counter deltas, span self times, the JSON result line,
// and agreement between the metric catalogue and BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "harness.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, MedianOfOddAndEvenSamples) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

std::size_t count_above(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

TEST(Stats, P95OfTwoHundredSamplesLeavesTenBeyond) {
  auto v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.95), 190.0);
  EXPECT_EQ(count_above(v, percentile(v, 0.95)), 10u);
  const auto w = one_to(199);
  EXPECT_EQ(count_above(w, percentile(w, 0.95)), 9u);
  const auto m = one_to(20);
  EXPECT_EQ(count_above(m, percentile(m, 0.5)), 10u);
  // Section A of every run times enough ops for a p95 with ten beyond it.
  const auto a = one_to(static_cast<int>(kMinTimedOps));
  EXPECT_GE(count_above(a, percentile(a, 0.95)), 10u);
}

TEST(Stats, PercentileEdges) {
  const auto v = one_to(10);
  EXPECT_EQ(percentile(v, 1.0), 10.0);
  EXPECT_EQ(percentile(v, 0.5), 5.0);
  EXPECT_EQ(percentile(v, 0.01), 1.0);
  EXPECT_THROW(percentile(v, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, PerOpInBlocksSplitsConsecutiveOps) {
  // Five ops costing 1, 1, 2, 2, 4 as cumulative readings.
  const std::vector<double> marks = {0, 1, 2, 4, 6, 10};
  EXPECT_EQ(per_op_in_blocks(marks, 1), (std::vector<double>{2.0}));
  // Blocks of two and three ops.
  EXPECT_EQ(per_op_in_blocks(marks, 2), (std::vector<double>{1.0, 8.0 / 3}));
  EXPECT_EQ(per_op_in_blocks(marks, 5),
            (std::vector<double>{1.0, 1.0, 2.0, 2.0, 4.0}));
  EXPECT_THROW(per_op_in_blocks(marks, 6), std::invalid_argument);
  EXPECT_THROW(per_op_in_blocks(marks, 0), std::invalid_argument);
  EXPECT_THROW(per_op_in_blocks({}, 1), std::invalid_argument);
}

TEST(Stats, BlockMediansAndLowest) {
  const std::vector<double> v = {5, 1, 3, 9, 7, 8, 2};
  // Blocks of three and four samples.
  EXPECT_EQ(block_medians(v, 2), (std::vector<double>{3.0, 7.5}));
  EXPECT_EQ(block_medians(v, 7), v);
  EXPECT_THROW(block_medians(v, 8), std::invalid_argument);
  EXPECT_EQ(lowest(v), 1.0);
  EXPECT_THROW(lowest({}), std::invalid_argument);
}

TEST(Stats, SlowestRankSetsEachStep) {
  const std::vector<std::vector<double>> per_rank = {{1.0, 5.0, 3.0},
                                                     {2.0, 4.0, 6.0},
                                                     {0.5, 4.5, 1.0}};
  EXPECT_EQ(slowest_per_step(per_rank), (std::vector<double>{2.0, 5.0, 6.0}));
  EXPECT_TRUE(slowest_per_step({}).empty());
  EXPECT_THROW(slowest_per_step({{1.0, 2.0}, {1.0}}), std::invalid_argument);
}

TEST(Stats, CounterDeltas) {
  dct::obs::MetricsSnapshot before;
  before.counters = {{"a", 5}, {"b", 1}};
  dct::obs::MetricsSnapshot after;
  after.counters = {{"a", 8}, {"b", 1}, {"c", 4}};
  const auto d = counter_deltas(before, after);
  EXPECT_EQ(d.at("a"), 3u);
  EXPECT_EQ(d.at("b"), 0u);
  EXPECT_EQ(d.at("c"), 4u);  // registered in between: counts from zero
  EXPECT_THROW(counter_deltas(after, before), std::logic_error);
}

dct::obs::CollectedEvent span(const char* name, std::uint64_t ts,
                              std::uint64_t dur, int tid) {
  dct::obs::CollectedEvent e{};
  dct::obs::copy_label(e.event.name, name);
  dct::obs::copy_label(e.event.cat, "t");
  e.event.ts_ns = ts;
  e.event.dur_ns = dur;
  e.event.kind = dct::obs::TraceEvent::Kind::kSpan;
  e.tid = tid;
  return e;
}

TEST(Stats, SpanSelfTimeSubtractsDirectChildrenOnTheSameThread) {
  std::vector<dct::obs::CollectedEvent> ev = {
      span("step", 0, 100, 1),       span("fwd", 10, 20, 1),
      span("bwd", 40, 50, 1),        span("reduce", 50, 10, 1),
      span("step", 200, 100, 1),     span("worker", 20, 60, 2),
  };
  auto instant = span("mark", 15, 0, 1);
  instant.event.kind = dct::obs::TraceEvent::Kind::kInstant;
  ev.push_back(instant);
  const auto self = span_self_times(ev);
  EXPECT_NEAR(self.at("step").self_s, (30 + 100) * 1e-9, 1e-15);
  EXPECT_EQ(self.at("step").count, 2u);
  EXPECT_NEAR(self.at("fwd").self_s, 20e-9, 1e-15);
  EXPECT_NEAR(self.at("bwd").self_s, 40e-9, 1e-15);
  EXPECT_NEAR(self.at("reduce").self_s, 10e-9, 1e-15);
  // A span on another thread is never a child, whatever it overlaps.
  EXPECT_NEAR(self.at("worker").self_s, 60e-9, 1e-15);
  EXPECT_EQ(self.count("mark"), 0u);
}

TEST(Output, ResultLineHasExactlyTheContractKeys) {
  Result r;
  r.attempted = 1000;
  r.add("latency_ms", 1.2034, "ms");
  r.add("setup_s", 0.1 + 0.2, "s");
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"s\"}}}");
}

TEST(Output, FailuresAndNonFiniteValuesMarkTheRunIncorrect) {
  Result r;
  r.attempted = 3;
  r.fail("loss was NaN");
  EXPECT_EQ(r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {}}");
  Result inf;
  inf.attempted = 1;
  inf.add("x", std::numeric_limits<double>::infinity(), "ms");
  EXPECT_EQ(inf.to_json(),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"x\": {\"value\": 0, \"unit\": \"ms\"}}}");
}

TEST(Output, LedgerEmitsEveryPerLayerMetricInCatalogueOrder) {
  Ledger l;
  l.set("nn.conv1.fwd_ms", 2.5);
  EXPECT_THROW(l.set("nn.conv9.fwd_ms", 1.0), std::out_of_range);
  Result r;
  l.emit(r);
  ASSERT_EQ(r.metrics.size(), per_layer_specs().size());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(r.metrics[i].name, per_layer_specs()[i].name);
    EXPECT_EQ(r.metrics[i].unit, per_layer_specs()[i].unit);
    EXPECT_EQ(r.metrics[i].value,
              r.metrics[i].name == "nn.conv1.fwd_ms" ? 2.5 : 0.0);
  }
}

TEST(Output, HostStampIsJson) {
  auto h = HostStamp::at_start();
  h.stamp_end();
  EXPECT_GE(h.nproc, 1);
  const std::string j = h.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"cpu_model\": "), std::string::npos);
  EXPECT_NE(j.find("\"load1_end\": "), std::string::npos);
}

// BENCHMARK.json writes one metric per line as
//   {"name": "<n>", "unit": "<u>", "better": "<b>"...
TEST(Catalogue, BenchmarkJsonListsTheSameMetricsAndWorkloads) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << "cannot read " << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::size_t listed = 0;
  for (std::size_t p = json.find("\"better\":"); p != std::string::npos;
       p = json.find("\"better\":", p + 1)) {
    ++listed;
  }
  std::size_t expected = 0;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const auto& s : *specs) {
      ++expected;
      const std::string row = std::string("{\"name\": \"") + s.name +
                              "\", \"unit\": \"" + s.unit +
                              "\", \"better\": \"" + s.better + "\"";
      EXPECT_NE(json.find(row), std::string::npos) << row;
    }
  }
  EXPECT_EQ(listed, expected);
  for (const auto& w : workload_names()) {
    EXPECT_NE(json.find("{\"name\": \"" + w + "\", \"why\": "),
              std::string::npos)
        << w;
  }
}

}  // namespace
}  // namespace perfbench
