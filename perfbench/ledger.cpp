#include "ledger.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"items_per_s", "1/s", "higher"},
      {"op_ms_p50", "ms", "lower"},
      {"cpu_ms_per_item", "ms", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"setup_s", "s", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // Tail of the op times of the untraced section (at least 200 ops).
      // Not an end-to-end metric: on a shared host its run-to-run spread
      // exceeds the 0.25 regression bound of those (METRICS.md).
      {"op_ms_p95", "ms", "lower"},
      // trainer
      {"trainer.compute_ms", "ms", "lower"},
      {"trainer.data_ms", "ms", "lower"},
      {"trainer.exposed_comm_ms", "ms", "lower"},
      {"trainer.sgd_ms", "ms", "lower"},
      {"trainer.comm_bytes_per_step", "B", "lower"},
      {"trainer.checkpoint_save_ms", "ms", "lower"},
      {"trainer.loss_final", "nats", "lower"},
      // nn (SmallCNN, replica 0, the workload's per-GPU batch)
      {"nn.conv0.fwd_ms", "ms", "lower"},
      {"nn.conv0.bwd_ms", "ms", "lower"},
      {"nn.bn0.fwd_ms", "ms", "lower"},
      {"nn.bn0.bwd_ms", "ms", "lower"},
      {"nn.relu0.fwd_ms", "ms", "lower"},
      {"nn.relu0.bwd_ms", "ms", "lower"},
      {"nn.pool0.fwd_ms", "ms", "lower"},
      {"nn.pool0.bwd_ms", "ms", "lower"},
      {"nn.conv1.fwd_ms", "ms", "lower"},
      {"nn.conv1.bwd_ms", "ms", "lower"},
      {"nn.bn1.fwd_ms", "ms", "lower"},
      {"nn.bn1.bwd_ms", "ms", "lower"},
      {"nn.relu1.fwd_ms", "ms", "lower"},
      {"nn.relu1.bwd_ms", "ms", "lower"},
      {"nn.pool1.fwd_ms", "ms", "lower"},
      {"nn.pool1.bwd_ms", "ms", "lower"},
      {"nn.flatten.fwd_ms", "ms", "lower"},
      {"nn.flatten.bwd_ms", "ms", "lower"},
      {"nn.linear.fwd_ms", "ms", "lower"},
      {"nn.linear.bwd_ms", "ms", "lower"},
      {"nn.conv0.gflops", "GFLOP/s", "higher"},
      {"nn.conv1.gflops", "GFLOP/s", "higher"},
      {"nn.linear.gflops", "GFLOP/s", "higher"},
      // tensor / kernels
      {"tensor.gemm_gflops", "GFLOP/s", "higher"},
      {"kernels.reduce_add_gbs", "GB/s", "higher"},
      {"kernels.axpy_gbs", "GB/s", "higher"},
      {"kernels.gemm_gflop_per_step", "GFLOP", "lower"},
      {"kernels.reduce_gb_per_step", "GB", "lower"},
      {"kernels.scratch_hit_ratio", "ratio", "higher"},
      {"kernels.scratch_lookups_per_step", "count", "lower"},
      // dpt
      {"dpt.forward_backward_ms", "ms", "lower"},
      {"dpt.apply_gradients_ms", "ms", "lower"},
      {"dpt.h2d_mb_per_step", "MB", "lower"},
      {"dpt.p2p_mb_per_step", "MB", "lower"},
      {"dpt.serialized_callbacks_per_step", "count", "lower"},
      {"dpt.sync_points_per_step", "count", "lower"},
      // data
      {"data.sample_ms", "ms", "lower"},
      {"data.shuffle_ms", "ms", "lower"},
      {"data.shuffle_mb_per_call", "MB", "lower"},
      // storage
      {"storage.load_batch_ms", "ms", "lower"},
      {"storage.prefetch_wait_ms_p50", "ms", "lower"},
      {"storage.prefetch_wait_ms_p95", "ms", "lower"},
      {"storage.record_write_mb_s", "MB/s", "higher"},
      // allreduce
      {"allreduce.run_ms", "ms", "lower"},
      {"allreduce.algbw_gbs", "GB/s", "higher"},
      {"allreduce.bytes_per_rank", "B", "lower"},
      {"allreduce.messages_per_rank", "count", "lower"},
      // comm
      {"comm.buckets_per_step", "count", "lower"},
      {"comm.wire_mb_per_step", "MB", "lower"},
      {"comm.exposed_ms_p50", "ms", "lower"},
      {"comm.exposed_ms_p95", "ms", "lower"},
      // simmpi
      {"simmpi.pingpong_us", "us", "lower"},
      {"simmpi.stream_gbs", "GB/s", "higher"},
      {"simmpi.messages_per_step", "count", "lower"},
      {"simmpi.mb_per_step", "MB", "lower"},
      // netsim
      {"netsim.schedule_build_ms", "ms", "lower"},
      {"netsim.simulate_ms", "ms", "lower"},
      {"netsim.flows_per_plan", "count", "lower"},
      {"netsim.ops_per_plan", "count", "lower"},
      {"netsim.sim_us_per_flow", "us", "lower"},
      // epoch model / gpusim
      {"epoch_model.estimate_us", "us", "lower"},
      // obs
      {"obs.trace_overhead_pct", "%", "lower"},
  };
  return specs;
}

namespace {

std::size_t index_of(std::string_view name) {
  const auto& specs = per_layer_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (name == specs[i].name) return i;
  }
  throw std::out_of_range("no per-layer metric " + std::string(name));
}

}  // namespace

Ledger::Ledger() : values_(per_layer_specs().size(), 0.0) {}

void Ledger::set(std::string_view name, double value) {
  values_[index_of(name)] = value;
}

void Ledger::emit(Result& out) const {
  const auto& specs = per_layer_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.add(specs[i].name, values_[i], specs[i].unit);
  }
}

}  // namespace perfbench
