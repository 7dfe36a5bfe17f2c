#pragma once
// Optimizers applied at the synchronous flush (paper Fig. 4a).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/layers.hpp"

namespace hanayo::model {

/// A contiguous flat slice [begin, end) of one parameter — the unit ZeRO-1
/// optimizer-state sharding updates (each data-parallel rank owns one shard
/// of every parameter and keeps optimizer state only for it).
struct ParamShard {
  Param* param = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using each param's accumulated gradient, then the
  /// caller is expected to zero the grads (the runtime does this).
  virtual void step(const std::vector<Param*>& params) = 0;
  /// Shard-wise update: touches only value[begin, end) of each entry and
  /// allocates optimizer state sized to the shard. Updating every shard of a
  /// parameter (across ranks) is element-wise identical to a full `step`.
  virtual void step_shards(const std::vector<ParamShard>& shards) = 0;
  /// Bytes of optimizer state currently held — what ZeRO-1 shrinks by D.
  virtual int64_t state_bytes() const = 0;
  /// Learning rate (mutable so schedules can drive it between steps).
  virtual void set_lr(float lr) = 0;
  virtual float lr() const = 0;

  /// Exports the state for `params` as name-addressed tensors (snapshot
  /// copies): "opt.<algo>.<slot>.<param name>" plus scalar bookkeeping like
  /// "opt.adamw.t". Params without state yet (never stepped) are omitted.
  /// Not supported for shard-sized state (ZeRO-1) — use a new optimizer
  /// after a ZeRO restore instead.
  virtual std::vector<std::pair<std::string, tensor::Tensor>> state_snapshot(
      const std::vector<Param*>& params) const = 0;

  /// Restores state written by `state_snapshot`. Entries missing from
  /// `state` leave the slot uninitialised (cold-start semantics); shape
  /// mismatches throw.
  virtual void load_state(
      const std::vector<Param*>& params,
      const std::map<std::string, tensor::Tensor>& state) = 0;
};

/// Sum of squared gradient elements of `p` over the flat range [begin, end).
double grad_sq_sum(const Param& p, int64_t begin, int64_t end);

/// Multiplies every gradient of every param by `factor` in place.
void scale_grads(const std::vector<Param*>& params, float factor);

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0f);
  void step(const std::vector<Param*>& params) override;
  void step_shards(const std::vector<ParamShard>& shards) override;
  int64_t state_bytes() const override;
  std::vector<std::pair<std::string, tensor::Tensor>> state_snapshot(
      const std::vector<Param*>& params) const override;
  void load_state(const std::vector<Param*>& params,
                  const std::map<std::string, tensor::Tensor>& state) override;

  void set_lr(float lr) override { lr_ = lr; }
  float lr() const override { return lr_; }

 private:
  float lr_, momentum_;
  std::unordered_map<Param*, tensor::Tensor> velocity_;
};

/// AdamW (decoupled weight decay).
class AdamW : public Optimizer {
 public:
  AdamW(float lr, float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f,
        float weight_decay = 0.0f);
  void step(const std::vector<Param*>& params) override;
  void step_shards(const std::vector<ParamShard>& shards) override;
  int64_t state_bytes() const override;
  std::vector<std::pair<std::string, tensor::Tensor>> state_snapshot(
      const std::vector<Param*>& params) const override;
  void load_state(const std::vector<Param*>& params,
                  const std::map<std::string, tensor::Tensor>& state) override;

  void set_lr(float lr) override { lr_ = lr; }
  float lr() const override { return lr_; }

 private:
  struct Slot {
    tensor::Tensor m, v;
  };
  float lr_, beta1_, beta2_, eps_, wd_;
  int64_t t_ = 0;
  std::unordered_map<Param*, Slot> slots_;
};

}  // namespace hanayo::model
