#include "probes.hpp"

#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "allreduce/algorithm.hpp"
#include "data/dimd.hpp"
#include "data/record_file.hpp"
#include "kernels/kernels.hpp"
#include "nn/sgd.hpp"
#include "storage/donkey_pool.hpp"
#include "tensor/ops.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dt = dct::tensor;

namespace {

constexpr int kReps = 7;

void fill_uniform(std::span<float> v, dct::Rng& rng) {
  for (auto& x : v) x = 2.0f * rng.next_float() - 1.0f;
}

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  dct::Rng rng(seed);
  std::vector<float> v(n);
  fill_uniform(v, rng);
  return v;
}

// SmallCNN layer labels: kind plus an index for kinds that repeat
// (conv0, bn0, ..., pool1, flatten, linear).
std::vector<std::string> layer_labels(dct::nn::Sequential& net) {
  static const std::map<std::string, std::string> kShort = {
      {"conv2d", "conv"}, {"batchnorm2d", "bn"}, {"relu", "relu"},
      {"maxpool2d", "pool"}, {"flatten", "flatten"}, {"linear", "linear"}};
  std::map<std::string, int> total;
  for (std::size_t i = 0; i < net.size(); ++i) ++total[net.layer(i).name()];
  std::map<std::string, int> seen;
  std::vector<std::string> out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const std::string kind = net.layer(i).name();
    const auto it = kShort.find(kind);
    std::string label = it == kShort.end() ? kind : it->second;
    if (total[kind] > 1) label += std::to_string(seen[kind]++);
    out.push_back(label);
  }
  return out;
}

}  // namespace

void probe_local_layers(const ProbeTarget& t, Ledger& ledger) {
  auto& net = t.trainer.table().replica(0);
  const auto& m = t.cfg.model;
  dt::Tensor x({t.cfg.batch_per_gpu, m.channels, m.image, m.image});
  dct::Rng rng(t.seed * 13 + 5);
  fill_uniform(x.flat(), rng);

  const auto labels = layer_labels(net);
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto& layer = net.layer(i);
    const std::string& label = labels[i];
    dt::Tensor y;
    dt::Tensor gy;
    std::vector<double> fwd;
    std::vector<double> bwd;
    for (int r = 0; r < kReps; ++r) {
      {
        dct::obs::SpanScope s("probe.nn.forward", kBenchCat);
        const auto t0 = Clock::now();
        y = layer.forward(x, /*train=*/true);
        fwd.push_back(seconds_since(t0));
      }
      if (gy.shape() != y.shape()) gy = dt::Tensor::full(y.shape(), 1e-3f);
      dct::obs::SpanScope s("probe.nn.backward", kBenchCat);
      const auto t0 = Clock::now();
      const dt::Tensor gx = layer.backward(gy);
      bwd.push_back(seconds_since(t0));
    }
    const double fwd_s = median(fwd);
    ledger.set("nn." + label + ".fwd_ms", fwd_s * 1e3);
    ledger.set("nn." + label + ".bwd_ms", median(bwd) * 1e3);

    const auto params = layer.params();
    if (label == "conv0" || label == "conv1") {
      // weight [Co, Ci·k·k] times im2col columns [Ci·k·k, N·Ho·Wo].
      const auto& w = params.at(0)->value;
      const double cols =
          static_cast<double>(y.dim(0) * y.dim(2) * y.dim(3));
      const double flops = 2.0 * static_cast<double>(w.numel()) * cols;
      ledger.set("nn." + label + ".gflops", flops / fwd_s * 1e-9);
      if (label == "conv1") {
        const dt::Tensor a({w.dim(0), w.dim(1)});
        dt::Tensor b({w.dim(1), static_cast<std::int64_t>(cols)});
        dt::Tensor c({w.dim(0), static_cast<std::int64_t>(cols)});
        fill_uniform(b.flat(), rng);
        const double g = time_median("probe.tensor.gemm", kReps, [&] {
          dt::gemm(a, false, b, false, c);
        });
        ledger.set("tensor.gemm_gflops", flops / g * 1e-9);
      }
    } else if (label == "linear") {
      const auto& w = params.at(0)->value;
      const double flops =
          2.0 * static_cast<double>(x.dim(0)) * static_cast<double>(w.numel());
      ledger.set("nn.linear.gflops", flops / fwd_s * 1e-9);
    }
    x = std::move(y);
  }

  // Streaming kernels at the gradient payload size: each call reads two
  // arrays and writes one.
  const auto n = static_cast<std::size_t>(t.trainer.table().param_count());
  std::vector<float> dst = random_vector(n, t.seed * 17 + 1);
  const std::vector<float> src = random_vector(n, t.seed * 17 + 2);
  const double bytes = 3.0 * static_cast<double>(n) * sizeof(float);
  const double ra = time_median("probe.kernels.reduce_add", kReps, [&] {
    dct::kernels::reduce_add(dst.data(), src.data(), n);
  });
  const double ax = time_median("probe.kernels.axpy", kReps, [&] {
    dct::kernels::axpy(-0.5f, src.data(), dst.data(), n);
  });
  ledger.set("kernels.reduce_add_gbs", bytes / ra * 1e-9);
  ledger.set("kernels.axpy_gbs", bytes / ax * 1e-9);
}

void probe_apply_gradients(const ProbeTarget& t, Ledger& ledger) {
  auto& table = t.trainer.table();
  const std::vector<float> zeros(static_cast<std::size_t>(table.param_count()),
                                 0.0f);
  const dct::nn::Sgd sgd(t.cfg.sgd);
  const double s = time_median("probe.dpt.apply_gradients", kReps, [&] {
    table.apply_gradients(zeros, sgd, 0.0f);
  });
  ledger.set("dpt.apply_gradients_ms", s * 1e3);
}

void probe_allreduce(const ProbeTarget& t, Ledger& ledger, Result& result) {
  auto& comm = t.comm;
  const auto algo = dct::allreduce::make_algorithm(t.cfg.allreduce);
  const auto naive = dct::allreduce::make_algorithm("naive");
  const auto n = static_cast<std::size_t>(t.trainer.table().param_count());
  const auto rank_seed =
      t.seed * 31 + static_cast<std::uint64_t>(comm.rank());

  // Check 1, bit-equality with naive: multiples of 2^-8 below 2^4 in
  // magnitude, whose sums over any order and any realistic world size are
  // exact in float32, so every correct algorithm returns naive's bits.
  // (Ring and multicolor add in another order than naive, so on general
  // floats they agree with it only to rounding.)
  std::vector<float> got(n);
  dct::Rng rng(rank_seed);
  for (auto& x : got) {
    x = std::ldexp(static_cast<float>(rng.next_int(-4096, 4096)), -8);
  }
  std::vector<float> want = got;
  algo->run(comm, std::span<float>(got));
  naive->run(comm, std::span<float>(want));
  const int exact =
      std::memcmp(got.data(), want.data(), n * sizeof(float)) == 0 ? 1 : 0;

  // Check 2, general floats: within the float32 tolerance the repo's
  // allreduce tests use, and bit-identical on every rank (below).
  const std::vector<float> input = random_vector(n, rank_seed);
  got = input;
  want = input;
  algo->run(comm, std::span<float>(got));
  naive->run(comm, std::span<float>(want));
  const double tol = 1e-5 * comm.size();
  int close = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(std::fabs(static_cast<double>(got[i]) - want[i]) <= tol)) close = 0;
  }
  const auto exact_all = comm.allgather_value(exact);
  const auto close_all = comm.allgather_value(close);
  const auto crc_all = comm.allgather_value(
      dct::crc32(got.data(), n * sizeof(float)));

  std::vector<double> times;
  dct::allreduce::RankTraffic traffic;
  for (int r = 0; r < kReps; ++r) {
    got = input;
    traffic = {};
    comm.barrier();
    dct::obs::SpanScope s("probe.allreduce.run", kBenchCat);
    const auto t0 = Clock::now();
    algo->run(comm, std::span<float>(got), &traffic);
    times.push_back(seconds_since(t0));
  }
  if (comm.rank() != 0) return;
  for (std::size_t r = 0; r < exact_all.size(); ++r) {
    const std::string who = t.cfg.allreduce + " on rank " + std::to_string(r);
    if (exact_all[r] == 0) {
      result.fail(who + " differs from naive on exact sums");
    }
    if (close_all[r] == 0) result.fail(who + " is beyond tolerance of naive");
    if (crc_all[r] != crc_all[0]) result.fail(who + " differs from rank 0");
  }
  const double run_s = median(times);
  ledger.set("allreduce.run_ms", run_s * 1e3);
  ledger.set("allreduce.algbw_gbs",
             static_cast<double>(n * sizeof(float)) / run_s * 1e-9);
  ledger.set("allreduce.bytes_per_rank",
             static_cast<double>(traffic.bytes_sent));
  ledger.set("allreduce.messages_per_rank",
             static_cast<double>(traffic.messages_sent));
}

void probe_simmpi(const ProbeTarget& t, Ledger& ledger) {
  auto& comm = t.comm;
  constexpr int kPingTag = 0x5eb0;
  constexpr int kStreamTag = 0x5eb1;
  constexpr int kRoundTrips = 200;
  constexpr int kStreamMessages = 8;
  std::vector<std::byte> small(4096);
  std::vector<std::byte> big(std::size_t{4} << 20);
  const auto small_span = std::span<std::byte>(small);
  const auto big_span = std::span<std::byte>(big);

  comm.barrier();
  if (comm.rank() == 0) {
    dct::obs::SpanScope s("probe.simmpi.pingpong", kBenchCat);
    const auto t0 = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      comm.send_bytes(small_span, 1, kPingTag);
      comm.recv_bytes(small_span, 1, kPingTag);
    }
    ledger.set("simmpi.pingpong_us",
               seconds_since(t0) / (2.0 * kRoundTrips) * 1e6);
  } else if (comm.rank() == 1) {
    for (int i = 0; i < kRoundTrips; ++i) {
      comm.recv_bytes(small_span, 0, kPingTag);
      comm.send_bytes(small_span, 0, kPingTag);
    }
  }

  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    comm.barrier();
    if (comm.rank() == 0) {
      dct::obs::SpanScope s("probe.simmpi.stream", kBenchCat);
      const auto t0 = Clock::now();
      for (int i = 0; i < kStreamMessages; ++i) {
        comm.send_bytes(big_span, 1, kStreamTag);
      }
      comm.recv_bytes(small_span.first(1), 1, kStreamTag);
      times.push_back(seconds_since(t0));
    } else if (comm.rank() == 1) {
      for (int i = 0; i < kStreamMessages; ++i) {
        comm.recv_bytes(big_span, 0, kStreamTag);
      }
      comm.send_bytes(small_span.first(1), 0, kStreamTag);
    }
  }
  if (comm.rank() == 0) {
    ledger.set("simmpi.stream_gbs", static_cast<double>(kStreamMessages) *
                                        static_cast<double>(big.size()) /
                                        median(times) * 1e-9);
  }
}

void probe_shuffle(const ProbeTarget& t, Ledger& ledger) {
  auto& comm = t.comm;
  dct::data::DimdStore store(comm, t.cfg.dimd);
  store.load_partition(dct::data::SyntheticImageGenerator(t.cfg.dataset));
  dct::Rng rng(t.seed * 7 + static_cast<std::uint64_t>(comm.rank()) + 1);
  std::vector<double> times;
  std::vector<double> bytes;
  for (int r = 0; r < 3; ++r) {
    comm.barrier();
    dct::obs::SpanScope s("probe.data.shuffle", kBenchCat);
    const auto t0 = Clock::now();
    bytes.push_back(static_cast<double>(store.shuffle(rng)));
    times.push_back(seconds_since(t0));
  }
  if (comm.rank() != 0) return;
  ledger.set("data.shuffle_ms", median(times) * 1e3);
  ledger.set("data.shuffle_mb_per_call", median(bytes) * 1e-6);
}

void probe_load_batch(const ProbeTarget& t, Ledger& ledger) {
  dct::data::RecordFile file(*t.cfg.record_blob_path, *t.cfg.record_index_path);
  dct::storage::DonkeyPool pool(file, t.cfg.dataset.image,
                                t.cfg.donkey_threads);
  std::uint64_t seed = t.seed * 101;
  const double s = time_median("probe.storage.load_batch", kReps, [&] {
    pool.load_batch(t.trainer.node_batch(), seed++);
  });
  ledger.set("storage.load_batch_ms", s * 1e3);
}

void probe_checkpoint(const ProbeTarget& t, Ledger& ledger) {
  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    t.comm.barrier();
    dct::obs::SpanScope s("probe.trainer.save_checkpoint", kBenchCat);
    const auto t0 = Clock::now();
    t.trainer.save_checkpoint();
    times.push_back(seconds_since(t0));
  }
  if (t.comm.rank() == 0) {
    ledger.set("trainer.checkpoint_save_ms", median(times) * 1e3);
  }
}

}  // namespace perfbench
