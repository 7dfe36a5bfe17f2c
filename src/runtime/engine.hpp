#pragma once
// Single-process reference engine: executes the same model, loss and
// optimizer sequentially, with no pipeline. This is the ground truth the
// equivalence tests compare every schedule against, and the baseline the
// examples print speedups over.

#include <memory>

#include "model/optimizer.hpp"
#include "model/transformer.hpp"
#include "runtime/worker.hpp"

namespace hanayo::runtime {

class SequentialEngine {
 public:
  /// `micro_batches` and `mb_sequences` describe how the batch rows are
  /// grouped; gradients are scaled exactly like the pipeline runtime's
  /// (1 / micro_batches), so results are comparable.
  SequentialEngine(const model::ModelConfig& cfg, int micro_batches,
                   int mb_sequences, uint64_t seed, OptKind opt, float lr,
                   float momentum = 0.0f);

  /// One full training step over the batch; returns the mean loss.
  float train_step(const Batch& batch);

  /// Global gradient-norm clipping (0 disables) — the single-process
  /// reference for the pipeline runtime's distributed clip.
  void set_max_grad_norm(float v) { max_grad_norm_ = v; }
  /// Per-step learning-rate schedule; mirrors TrainerConfig::lr_schedule.
  void set_lr_schedule(model::LrSchedule s) { lr_schedule_ = s; }

  /// Forward-only evaluation over groups of `mb_sequences` rows; returns
  /// the mean of their losses. Gradients are left untouched and every
  /// forward cache is freed.
  float eval(const Batch& batch);

  model::StageModule& module() { return module_; }

 private:
  int micro_batches_;
  int mb_sequences_;
  model::StageModule module_;
  std::unique_ptr<model::Optimizer> optimizer_;
  float max_grad_norm_ = 0.0f;
  std::optional<model::LrSchedule> lr_schedule_;
  int64_t opt_steps_ = 0;
};

}  // namespace hanayo::runtime
