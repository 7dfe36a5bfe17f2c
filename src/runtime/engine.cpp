#include "runtime/engine.hpp"

#include <cmath>
#include <stdexcept>

#include "model/loss.hpp"

namespace hanayo::runtime {

using tensor::Tensor;

SequentialEngine::SequentialEngine(const model::ModelConfig& cfg,
                                   int micro_batches, int mb_sequences,
                                   uint64_t seed, OptKind opt, float lr,
                                   float momentum)
    : micro_batches_(micro_batches),
      mb_sequences_(mb_sequences),
      module_(cfg.layer_descs(), 0, static_cast<int>(cfg.layer_descs().size()),
              seed, cfg.init_std) {
  if (opt == OptKind::Sgd) {
    optimizer_ = std::make_unique<model::Sgd>(lr, momentum);
  } else {
    optimizer_ = std::make_unique<model::AdamW>(lr);
  }
}

float SequentialEngine::train_step(const Batch& batch) {
  const int64_t expect = static_cast<int64_t>(micro_batches_) * mb_sequences_;
  if (batch.inputs.size(0) != expect) {
    throw std::invalid_argument("SequentialEngine: batch rows != B * mb_sequences");
  }
  const float scale = 1.0f / static_cast<float>(micro_batches_);
  float total = 0.0f;
  for (int m = 0; m < micro_batches_; ++m) {
    const int64_t row0 = static_cast<int64_t>(m) * mb_sequences_;
    Tensor logits =
        module_.forward(slice_rows(batch.inputs, row0, mb_sequences_), m);
    auto [loss, dlogits] = model::cross_entropy(
        logits, slice_rows(batch.targets, row0, mb_sequences_), scale);
    total += loss;
    module_.backward(dlogits, m);
  }
  const auto params = module_.params();
  if (max_grad_norm_ > 0.0f) {
    double sq = 0.0;
    for (const model::Param* p : params) {
      sq += model::grad_sq_sum(*p, 0, p->grad.numel());
    }
    // Match the runtime's arithmetic: the distributed path reduces the sum
    // of squares as a float before taking the root.
    const double norm = std::sqrt(static_cast<double>(static_cast<float>(sq)));
    if (norm > max_grad_norm_) {
      model::scale_grads(params, max_grad_norm_ / static_cast<float>(norm));
    }
  }
  if (lr_schedule_.has_value()) {
    optimizer_->set_lr(lr_schedule_->at(opt_steps_));
  }
  optimizer_->step(params);
  for (model::Param* p : params) p->zero_grad();
  ++opt_steps_;
  return total;
}

float SequentialEngine::eval(const Batch& batch) {
  const int64_t n = batch.inputs.size(0);
  if (n % mb_sequences_ != 0) {
    throw std::invalid_argument(
        "SequentialEngine: eval rows not a multiple of mb_sequences");
  }
  float total = 0.0f;
  int count = 0;
  for (int64_t row0 = 0; row0 < n; row0 += mb_sequences_, ++count) {
    const int mb = 10000 + count;  // clear of train_step's micro-batch ids
    Tensor logits =
        module_.forward(slice_rows(batch.inputs, row0, mb_sequences_), mb);
    module_.drop_cache(mb);
    total += model::cross_entropy(
                 logits, slice_rows(batch.targets, row0, mb_sequences_))
                 .first;
  }
  return count > 0 ? total / static_cast<float>(count) : 0.0f;
}

}  // namespace hanayo::runtime
