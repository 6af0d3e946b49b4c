// Per-layer probes of a traced training run. Each probe times calls into
// one layer's public API at the workload's own shapes, after the timed
// steps and the output checks, each call inside a benchmark span. Only
// rank 0 writes to the Ledger and the Result.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "ledger.hpp"
#include "simmpi/communicator.hpp"
#include "trainer/distributed_trainer.hpp"

namespace perfbench {

struct ProbeTarget {
  dct::simmpi::Communicator& comm;
  dct::trainer::DistributedTrainer& trainer;
  const dct::trainer::TrainerConfig& cfg;
  std::uint64_t seed;
};

/// Rank-local (call on rank 0 only): every SmallCNN layer's forward and
/// backward on replica 0, conv/linear GFLOP/s, tensor::gemm at conv1's
/// im2col shape, and kernels::reduce_add / axpy at the gradient size.
void probe_local_layers(const ProbeTarget& t, Ledger& ledger);

/// Rank-local (rank 0): DataParallelTable::apply_gradients with a zero
/// gradient at learning rate 0, which leaves the parameters unchanged.
void probe_apply_gradients(const ProbeTarget& t, Ledger& ledger);

/// Collective: the workload's allreduce on its gradient payload. Its
/// result must equal "naive" bit for bit on inputs whose sums are exact,
/// match it within float32 tolerance on general inputs, and be the same
/// on every rank; a mismatch is recorded in `result` on rank 0.
void probe_allreduce(const ProbeTarget& t, Ledger& ledger, Result& result);

/// Collective: 4 KiB ping-pong and a 4 MiB stream between ranks 0 and 1.
void probe_simmpi(const ProbeTarget& t, Ledger& ledger);

/// Collective: DimdStore::shuffle on a store built from the workload's
/// DimdConfig and dataset.
void probe_shuffle(const ProbeTarget& t, Ledger& ledger);

/// Rank-local (rank 0): DonkeyPool::load_batch of one node batch from the
/// workload's record file.
void probe_load_batch(const ProbeTarget& t, Ledger& ledger);

/// Collective: DistributedTrainer::save_checkpoint().
void probe_checkpoint(const ProbeTarget& t, Ledger& ledger);

}  // namespace perfbench
