#pragma once
// Multi-threaded pipeline trainer: builds the schedule, constructs one worker
// per (replica, pipeline rank), and drives steps on a runtime::Gang.

#include <map>
#include <memory>
#include <string>

#include "runtime/engine.hpp"
#include "runtime/gang.hpp"
#include "runtime/worker.hpp"
#include "schedule/algorithms.hpp"

namespace hanayo::runtime {

struct TrainerConfig {
  model::ModelConfig model;
  schedule::ScheduleRequest sched;  ///< algo, P, B, waves
  int dp = 1;                       ///< data-parallel replicas
  int mb_sequences = 1;             ///< sequences per micro-batch
  uint64_t seed = 1;
  OptKind opt = OptKind::Sgd;
  float lr = 0.1f;
  float momentum = 0.0f;
  int prefetch_depth = 2;  ///< receives posted ahead (RecvAhead); < 0 throws
  /// Enable activation recomputation (gradient checkpointing) on all stages.
  bool recompute = false;
  /// Enable ZeRO-1 optimizer-state sharding across each stage's
  /// gradient-sync group (no-op when every stage has a single holder).
  bool zero1 = false;
  /// Transmit stage-boundary activations/gradients as packed fp16.
  bool fp16_comm = false;
  /// Global gradient-norm clipping threshold (0 disables).
  float max_grad_norm = 0.0f;
  /// Per-step learning-rate schedule; overrides `lr` when set.
  std::optional<model::LrSchedule> lr_schedule;
  /// Record real wall-clock Forward/Backward spans each step (see
  /// Trainer::last_timeline).
  bool record_timeline = false;
};

class Trainer {
 public:
  /// Builds and validates the schedule, partitions the model, constructs
  /// dp * P workers. Throws on invalid configurations (with the validator's
  /// diagnosis in the message).
  explicit Trainer(TrainerConfig cfg);

  /// Runs one synchronous training iteration. `batch` must contain
  /// dp * B * mb_sequences rows of ids in [0, vocab). Returns the loss.
  float train_step(const Batch& batch);

  /// Number of batch rows expected per step.
  int64_t batch_rows() const;

  /// Copies of all parameters of replica 0, keyed by name — used to compare
  /// against the sequential reference.
  std::map<std::string, tensor::Tensor> snapshot_params();

  /// Writes all parameters (replica 0's copy) to a checkpoint file. With
  /// `include_optimizer` the optimizer slots and step counter are written
  /// too (name-addressed, so a full-state resume works across parallel
  /// configurations). Optimizer state cannot be exported under ZeRO-1
  /// (it is shard-sized); that combination throws.
  void save_checkpoint(const std::string& path,
                       bool include_optimizer = false);
  /// Loads parameters by name into every worker (all replicas and both
  /// Chimera copies), so a checkpoint taken under one parallel
  /// configuration restores under any other. Optimizer records, when
  /// present in the file, are restored as well — training then continues
  /// exactly as if it had never stopped.
  void load_checkpoint(const std::string& path);

  const schedule::Schedule& schedule() const { return sched_; }
  /// Peak runtime cache bytes per pipeline rank (replica 0), last step.
  std::vector<int64_t> peak_cache_bytes() const;
  /// Optimizer-state bytes per worker (all replicas, replica-major). Under
  /// ZeRO-1 each entry is ~1/D of the unsharded value.
  std::vector<int64_t> optimizer_state_bytes() const;
  /// Real compute spans of the last step, per pipeline rank (replica 0),
  /// all measured against one shared origin so overlap across devices is
  /// directly visible. Empty unless TrainerConfig::record_timeline.
  std::vector<std::vector<ComputeSpan>> last_timeline() const;

 private:
  TrainerConfig cfg_;
  schedule::Schedule sched_;
  Gang gang_;                                     // member i runs workers_[i]
  std::vector<float> losses_;                     // per worker, last step
  std::unique_ptr<comm::World> world_;
  std::vector<std::unique_ptr<Worker>> workers_;  // replica-major
  std::chrono::steady_clock::time_point timeline_origin_;
};

}  // namespace hanayo::runtime
