// The executed half: SmallCNN trained through simmpi::Runtime +
// trainer::DistributedTrainer.
//
// One run: set-up (repeated, median reported), warm-up steps, section A
// (untraced, timed, at least kMinTimedOps steps), and in a traced run
// section B (tracing on, spans around every step() call) followed by the
// output checks and the per-layer probes. An untraced run reports its
// end-to-end metrics from section A; a traced run reports per-layer
// metrics from section B and the probes, and the A-vs-B throughput
// difference as the tracing overhead.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "data/record_file.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "simmpi/runtime.hpp"
#include "trainer/distributed_trainer.hpp"
#include "util/crc32.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using dct::trainer::StepMetrics;
using dct::trainer::TrainerConfig;

namespace {

struct TrainingWorkload {
  int ranks = 1;
  TrainerConfig cfg;
  /// Load batches through the donkey file path from a record file
  /// written during set-up (instead of in-memory DIMD sampling).
  bool record_file = false;
};

TrainingWorkload make_workload(const std::string& name, std::uint64_t seed) {
  TrainingWorkload w;
  auto& c = w.cfg;
  c.seed = seed;
  c.dataset.seed = seed;
  if (name == "compute_1r") {
    w.ranks = 1;
    c.gpus_per_node = 2;
    c.optimized_dpt = true;
    c.model = {.classes = 10, .image = 32, .channels = 3};
    c.dataset.images = 1024;
    c.batch_per_gpu = 32;
  } else if (name == "comm_4r") {
    w.ranks = 4;
    c.gpus_per_node = 1;
    c.optimized_dpt = true;
    c.model = {.classes = 4000, .image = 16, .channels = 3};
    c.dataset.images = 4096;
    c.batch_per_gpu = 2;
    c.allreduce = "multicolor";
    c.comm.bucket_bytes = std::size_t{4} << 20;
    c.comm.overlap = true;
    c.shuffle_every = 4;
  } else if (name == "baseline_io_2r") {
    w.ranks = 2;
    w.record_file = true;
    c.gpus_per_node = 2;
    c.optimized_dpt = false;
    c.model = {.classes = 10, .image = 16, .channels = 3};
    c.dataset.images = 1024;
    c.batch_per_gpu = 32;
    c.allreduce = "ring";
    c.donkey_threads = 2;
    c.prefetch_depth = 2;
    c.checkpoint_every = 10;
  } else {
    throw std::invalid_argument("unknown training workload " + name);
  }
  c.dataset.classes = c.model.classes;
  c.dataset.image = {c.model.channels, c.model.image, c.model.image};
  return w;
}

constexpr int kWarmupSteps = 10;
/// Set-ups timed in an untraced run (median reported), half of them
/// before and half after the timed section.
constexpr int kSetups = 7;
/// Blocks of consecutive steps a timed section is split into; the
/// end-to-end figures come from the least-disturbed block.
constexpr std::size_t kBlocks = 10;
/// Section B (traced) times at least this many steps.
constexpr std::size_t kMinTracedSteps = 50;
/// trainer.loss_final: mean rank-0 loss over steps [180, 200) of section
/// A, a fixed window so the value does not depend on machine speed.
constexpr std::size_t kLossWindowEnd = kMinTimedOps;
constexpr std::size_t kLossWindow = 20;

/// One rank's record of a timed section.
struct SectionLog {
  std::vector<double> step_s;  ///< step() wall time, per step
  std::vector<StepMetrics> metrics;
  /// Rank 0 only: section wall clock and process CPU time at the start
  /// and after every step (steps + 1 readings).
  std::vector<double> wall_marks;
  std::vector<double> cpu_marks;
};

/// What each rank records; written only by its own rank thread, read by
/// the main thread after Runtime::run has joined them.
struct RankLog {
  SectionLog a;  ///< untraced
  SectionLog b;  ///< traced (traced run only)
  std::uint64_t nonfinite_losses = 0;
  dct::dpt::DptStats dpt_before;
  dct::dpt::DptStats dpt_after;
};

/// Rank-0 measurements shared by all ranks' sections.
struct Shared {
  std::vector<std::uint32_t> crcs;
  dct::obs::MetricsSnapshot counters_before;
  dct::obs::MetricsSnapshot counters_after;
  std::vector<dct::obs::CollectedEvent> events;
};

// Steps that fill `seconds` at the warm-up pace, at least `min_steps`;
// decided on rank 0 and broadcast so every rank runs the same count.
std::size_t agree_steps(dct::simmpi::Communicator& comm, double seconds,
                        double warm_step_s, std::size_t min_steps) {
  std::uint64_t n = 0;
  if (comm.rank() == 0) {
    const double fit = seconds / std::max(warm_step_s, 1e-6);
    n = std::max<std::uint64_t>(min_steps,
                                static_cast<std::uint64_t>(std::ceil(fit)));
  }
  comm.bcast(std::span<std::uint64_t>(&n, 1), 0);
  return static_cast<std::size_t>(n);
}

// One timed section, opened and closed by a barrier.
void timed_steps(dct::simmpi::Communicator& comm,
                 dct::trainer::DistributedTrainer& tr, std::size_t steps,
                 SectionLog& out, RankLog& log) {
  const bool root = comm.rank() == 0;
  out.step_s.resize(steps);
  out.metrics.resize(steps);
  comm.barrier();
  const auto t0 = Clock::now();
  if (root) {
    out.wall_marks.assign(1, 0.0);
    out.cpu_marks.assign(1, process_cpu_seconds());
  }
  for (std::size_t s = 0; s < steps; ++s) {
    dct::obs::SpanScope span("bench.step", kBenchCat,
                             static_cast<std::int64_t>(tr.iteration()));
    const auto ts = Clock::now();
    out.metrics[s] = tr.step();
    out.step_s[s] = seconds_since(ts);
    if (!std::isfinite(out.metrics[s].loss)) ++log.nonfinite_losses;
    if (root) {
      out.wall_marks.push_back(seconds_since(t0));
      out.cpu_marks.push_back(process_cpu_seconds());
    }
  }
  comm.barrier();
}

double mean_of(const std::vector<StepMetrics>& ms,
               double (*field)(const StepMetrics&)) {
  double sum = 0.0;
  for (const auto& m : ms) sum += field(m);
  return ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
}

void fill_step_ledger(const std::vector<RankLog>& logs, const Shared& sec,
                      Ledger& ledger) {
  // Trainer phases from StepMetrics, averaged over ranks and steps.
  double compute = 0.0, data = 0.0, comm = 0.0, bytes = 0.0;
  for (const auto& log : logs) {
    const auto& ms = log.b.metrics;
    data += mean_of(ms, [](const StepMetrics& m) { return m.data_seconds; });
    comm += mean_of(ms,
                    [](const StepMetrics& m) { return m.allreduce_seconds; });
    compute += mean_of(ms, [](const StepMetrics& m) {
      return m.step_seconds - m.data_seconds - m.allreduce_seconds;
    });
    bytes += mean_of(ms, [](const StepMetrics& m) {
      return static_cast<double>(m.comm_bytes);
    });
  }
  const double ranks = static_cast<double>(logs.size());
  ledger.set("trainer.compute_ms", compute / ranks * 1e3);
  ledger.set("trainer.data_ms", data / ranks * 1e3);
  ledger.set("trainer.exposed_comm_ms", comm / ranks * 1e3);
  ledger.set("trainer.comm_bytes_per_step", bytes / ranks);

  const auto& ma = logs.front().a.metrics;
  double loss = 0.0;
  for (std::size_t s = kLossWindowEnd - kLossWindow; s < kLossWindowEnd; ++s) {
    loss += ma[s].loss;
  }
  ledger.set("trainer.loss_final", loss / kLossWindow);

  // Self times of the program's own phase spans, per call.
  const auto self = span_self_times(sec.events);
  const auto per_call_ms = [&self](const char* span) {
    const auto it = self.find(span);
    return it == self.end() || it->second.count == 0
               ? 0.0
               : it->second.self_s / static_cast<double>(it->second.count) *
                     1e3;
  };
  ledger.set("dpt.forward_backward_ms", per_call_ms("forward_backward"));
  ledger.set("data.sample_ms", per_call_ms("sample"));
  ledger.set("trainer.sgd_ms", per_call_ms("sgd"));

  // Counters: process-wide deltas over section B.
  const double steps = static_cast<double>(logs.front().b.step_s.size());
  const double rank_steps = steps * ranks;
  auto d = counter_deltas(sec.counters_before, sec.counters_after);
  const auto delta = [&d](const char* name) {
    return static_cast<double>(d[name]);
  };
  ledger.set("kernels.gemm_gflop_per_step",
             delta("kernels.gemm_flops") / steps * 1e-9);
  ledger.set("kernels.reduce_gb_per_step",
             delta("kernels.reduce_bytes") / steps * 1e-9);
  const double lookups =
      delta("kernels.scratch_hits") + delta("kernels.scratch_misses");
  ledger.set("kernels.scratch_lookups_per_step", lookups / steps);
  ledger.set("kernels.scratch_hit_ratio",
             lookups > 0 ? delta("kernels.scratch_hits") / lookups : 0.0);
  ledger.set("comm.buckets_per_step",
             delta("comm.buckets_reduced") / rank_steps);
  ledger.set("comm.wire_mb_per_step",
             delta("comm.wire_bytes") / rank_steps * 1e-6);
  ledger.set("simmpi.messages_per_step",
             delta("simmpi.messages_sent") / rank_steps);
  ledger.set("simmpi.mb_per_step",
             delta("simmpi.bytes_sent") / rank_steps * 1e-6);

  for (const auto& h : sec.counters_after.histograms) {
    if (h.h.count == 0) continue;
    if (h.name == "comm.exposed_seconds") {
      ledger.set("comm.exposed_ms_p50", h.h.p50 * 1e3);
      ledger.set("comm.exposed_ms_p95", h.h.p95 * 1e3);
    } else if (h.name == "prefetch.wait_seconds") {
      ledger.set("storage.prefetch_wait_ms_p50", h.h.p50 * 1e3);
      ledger.set("storage.prefetch_wait_ms_p95", h.h.p95 * 1e3);
    }
  }

  // DataParallelTable transfer ledger of rank 0, per step.
  const auto& a = logs.front().dpt_before;
  const auto& b = logs.front().dpt_after;
  ledger.set("dpt.h2d_mb_per_step",
             static_cast<double>(b.h2d_bytes - a.h2d_bytes) / steps * 1e-6);
  ledger.set("dpt.p2p_mb_per_step",
             static_cast<double>(b.p2p_bytes - a.p2p_bytes) / steps * 1e-6);
  ledger.set("dpt.serialized_callbacks_per_step",
             static_cast<double>(b.serialized_callbacks -
                                 a.serialized_callbacks) /
                 steps);
  ledger.set("dpt.sync_points_per_step",
             static_cast<double>(b.sync_points - a.sync_points) / steps);
}

}  // namespace

bool is_training_workload(const std::string& name) {
  return name == "compute_1r" || name == "comm_4r" || name == "baseline_io_2r";
}

Result run_training(const RunOptions& opts) {
  const TrainingWorkload w = make_workload(opts.workload, opts.seed);
  const int setups = opts.trace ? 1 : kSetups;
  const double section_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const double images_per_step = static_cast<double>(
      w.cfg.batch_per_gpu * w.cfg.gpus_per_node * w.ranks);

  std::vector<double> setup_s;
  double record_mb_s = 0.0;
  double rss_mb = 0.0;
  std::vector<RankLog> logs(static_cast<std::size_t>(w.ranks));
  Shared shared;
  Ledger ledger;
  Result result;

  // The measured trainer comes from the middle set-up, so the repeats
  // sample the host both before and after the timed sections.
  const int measured_rep = setups / 2;
  for (int rep = 0; rep < setups; ++rep) {
    const bool measured = rep == measured_rep;
    const auto t0 = Clock::now();
    TrainerConfig cfg = w.cfg;
    if (w.record_file) {
      // Each set-up writes its own record file and checkpoint directory
      // inside the run's fresh temporary directory.
      const fs::path dir =
          fs::path(opts.tmp_dir) / ("setup" + std::to_string(rep));
      fs::create_directories(dir);
      const std::string blob = (dir / "records.blob").string();
      const std::string index = (dir / "records.index").string();
      const auto tw = Clock::now();
      const auto bytes =
          dct::data::build_synthetic_record_file(cfg.dataset, blob, index);
      record_mb_s = static_cast<double>(bytes) / seconds_since(tw) * 1e-6;
      cfg.record_blob_path = blob;
      cfg.record_index_path = index;
      cfg.checkpoint_dir = (dir / "ckpt").string();
    }
    dct::simmpi::Runtime runtime(w.ranks);
    runtime.run([&](dct::simmpi::Communicator& comm) {
      dct::trainer::DistributedTrainer tr(comm, cfg);
      comm.barrier();
      const bool root = comm.rank() == 0;
      if (root) setup_s.push_back(seconds_since(t0));
      if (!measured) return;
      RankLog& log = logs[static_cast<std::size_t>(comm.rank())];

      // Warm-up, which also sets the pace for choosing step counts.
      SectionLog warm;
      timed_steps(comm, tr, kWarmupSteps, warm, log);
      const double pace = root ? warm.wall_marks.back() / kWarmupSteps : 0.0;

      timed_steps(comm, tr, agree_steps(comm, section_s, pace, kMinTimedOps),
                  log.a, log);

      if (opts.trace) {
        const double pace_a =
            root ? log.a.wall_marks.back() / log.a.step_s.size() : 0.0;
        const std::size_t n_b =
            agree_steps(comm, section_s, pace_a, kMinTracedSteps);
        comm.barrier();
        if (root) {
          dct::obs::Metrics::histogram("comm.exposed_seconds").reset();
          dct::obs::Metrics::histogram("prefetch.wait_seconds").reset();
          shared.counters_before = dct::obs::Metrics::snapshot();
          dct::obs::Tracer::reset();
          dct::obs::Tracer::set_enabled(true);
        }
        log.dpt_before = tr.table().stats();
        timed_steps(comm, tr, n_b, log.b, log);
        log.dpt_after = tr.table().stats();
        if (root) shared.counters_after = dct::obs::Metrics::snapshot();
      }
      // Read before the later set-ups, whose fresh rank threads allocate
      // in fresh malloc arenas and would add noise to the high-water mark.
      if (root) rss_mb = peak_rss_mb();

      // Output check: every rank ends with the same parameters.
      const auto params = tr.snapshot_params();
      const auto crcs = comm.allgather_value(
          dct::crc32(params.data(), params.size() * sizeof(float)));
      if (root) shared.crcs = crcs;

      if (opts.trace) {
        const ProbeTarget target{comm, tr, cfg, opts.seed};
        if (comm.size() > 1) {
          probe_allreduce(target, ledger, result);
          probe_simmpi(target, ledger);
        }
        if (cfg.shuffle_every > 0 && !cfg.record_blob_path) {
          probe_shuffle(target, ledger);
        }
        if (cfg.checkpoint_every > 0) probe_checkpoint(target, ledger);
        if (root) {
          probe_local_layers(target, ledger);
          probe_apply_gradients(target, ledger);
          if (cfg.record_blob_path) probe_load_batch(target, ledger);
        }
        comm.barrier();
        if (root) {
          dct::obs::Tracer::set_enabled(false);
          shared.events = dct::obs::Tracer::collect();
        }
      }
    });
  }

  // Output checks: finite losses on every step, identical parameters.
  const SectionLog& a = logs.front().a;
  const SectionLog& b = logs.front().b;
  result.attempted = a.step_s.size() + b.step_s.size();
  for (std::size_t r = 0; r < logs.size(); ++r) {
    if (logs[r].nonfinite_losses > 0) {
      result.fail("rank " + std::to_string(r) + " saw " +
                  std::to_string(logs[r].nonfinite_losses) +
                  " non-finite losses");
    }
    if (shared.crcs.at(r) != shared.crcs.front()) {
      result.fail("rank " + std::to_string(r) +
                  " parameters differ from rank 0 (CRC32)");
    }
  }

  // Interference from other work on the host only ever slows a block of
  // steps, so the fastest block is the least-disturbed reading of the
  // program's own speed.
  const auto images_per_s = [&](const SectionLog& sec) {
    return images_per_step / lowest(per_op_in_blocks(sec.wall_marks, kBlocks));
  };
  std::vector<std::vector<double>> per_rank;
  for (const auto& log : logs) per_rank.push_back(log.a.step_s);
  const auto slowest = slowest_per_step(per_rank);
  if (!opts.trace) {
    result.add("items_per_s", images_per_s(a), "1/s");
    result.add("op_ms_p50", lowest(block_medians(slowest, kBlocks)) * 1e3,
               "ms");
    result.add("cpu_ms_per_item",
               lowest(per_op_in_blocks(a.cpu_marks, kBlocks)) /
                   images_per_step * 1e3,
               "ms");
    result.add("peak_rss_mb", rss_mb, "MiB");
    result.add("setup_s", median(setup_s), "s");
    return result;
  }

  ledger.set("op_ms_p95", percentile(slowest, 0.95) * 1e3);
  fill_step_ledger(logs, shared, ledger);
  if (w.record_file) ledger.set("storage.record_write_mb_s", record_mb_s);
  ledger.set("obs.trace_overhead_pct",
             (images_per_s(a) / images_per_s(b) - 1.0) * 100.0);
  if (!opts.trace_path.empty()) {
    dct::obs::Tracer::write_chrome_trace(opts.trace_path);
  }
  ledger.emit(result);
  return result;
}

}  // namespace perfbench
