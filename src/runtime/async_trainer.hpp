#pragma once
// Asynchronous pipeline runtime (paper §2.3 / Fig. 4b): PipeDream-style
// 1F1B execution with no flush and per-micro-batch optimizer updates.
//
// Weight stashing: when enabled (the PipeDream scheme), each stage keeps the
// parameter version a micro-batch used in its forward pass and restores it
// for that micro-batch's backward, so the gradient is mathematically
// consistent (computed at a single — if stale — weight vector). Updates are
// always applied to the latest weights. When disabled, backward runs on the
// latest weights ("discrepancy", as tolerated by PipeMare-style schemes),
// which trades the stash memory for gradient bias.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "runtime/gang.hpp"
#include "runtime/worker.hpp"
#include "schedule/async.hpp"

namespace hanayo::runtime {

struct AsyncTrainerConfig {
  model::ModelConfig model;
  int P = 4;               ///< pipeline devices (= stages)
  int micro_batches = 8;   ///< micro-batches per reported step (batch rows)
  int mb_sequences = 1;    ///< sequences per micro-batch
  uint64_t seed = 1;
  OptKind opt = OptKind::Sgd;
  float lr = 0.05f;
  float momentum = 0.0f;
  bool weight_stashing = true;
  int prefetch_depth = 2;  ///< receives posted ahead (RecvAhead); < 0 throws
};

/// Per-step report of the asynchronous run.
struct AsyncStats {
  float mean_loss = 0.0f;            ///< mean over the step's micro-batches
  std::vector<int64_t> stash_bytes;  ///< peak stash size per device
  std::vector<int> stash_entries;    ///< peak stashed versions per device
};

/// Drives `P` stage workers (one Gang member each) through the continuous
/// asynchronous schedule.
/// One call to `train` consumes the stream of `steps * micro_batches`
/// micro-batches (cycling over the batch rows) and returns per-step losses.
class AsyncTrainer {
 public:
  explicit AsyncTrainer(AsyncTrainerConfig cfg);
  ~AsyncTrainer();

  /// Runs the asynchronous pipeline for `steps` logical steps over `batch`
  /// (`micro_batches * mb_sequences` rows of ids in [0, vocab)). Returns
  /// each step's mean loss, in order — under asynchronous updates these
  /// are the convergence signal the paper's §2.3 discusses.
  std::vector<float> train(const Batch& batch, int steps);

  /// Copies of all parameters, keyed by name (after `train` returned).
  std::map<std::string, tensor::Tensor> snapshot_params();

  /// Statistics from the last `train` call.
  const AsyncStats& last_stats() const { return stats_; }

  int64_t batch_rows() const {
    return static_cast<int64_t>(cfg_.micro_batches) * cfg_.mb_sequences;
  }
  const schedule::Schedule& schedule() const { return sched_; }

 private:
  class StageWorker;

  AsyncTrainerConfig cfg_;
  Gang gang_;                 ///< member d runs workers_[d]
  schedule::Schedule sched_;  ///< rebuilt per train() for the stream length
  std::unique_ptr<comm::World> world_;
  std::vector<std::unique_ptr<StageWorker>> workers_;
  AsyncStats stats_;
};

}  // namespace hanayo::runtime
