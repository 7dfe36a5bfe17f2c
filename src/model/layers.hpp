#pragma once
// Neural-network layers with explicit, per-micro-batch activation caches.
//
// Pipeline parallelism interleaves the forward passes of many micro-batches
// before their backwards run, so unlike a tape-based autograd, every layer
// here stores its saved-for-backward tensors keyed by micro-batch id, in a
// `SavedStore`. The cache footprint (`cached_bytes`) is the paper's `Ma`
// (Figs. 3 and 8) in fp32: it grows when a forward completes, shrinks when
// the matching backward consumes it, and for a sequence-length micro-batch
// equals exactly twice the fp16 `LayerDesc::activation_bytes` of the layer.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hanayo::runtime {
class KvStore;  // K/V storage (runtime/kv_store.hpp); layers hold a
                // non-owning pointer wired by StageModule
}  // namespace hanayo::runtime

namespace hanayo::model {

using tensor::Rng;
using tensor::Tensor;

/// The per-micro-batch saved-for-backward state of one layer: `forward`
/// puts, `backward` takes, activation recomputation drops. `T` is a Tensor
/// or a struct of them with a `bytes()` member. Every layer's cache goes
/// through this one type, so how the slots are stored is decided here.
template <class T>
class SavedStore {
 public:
  void put(int mb, T v) { slots_.insert_or_assign(mb, std::move(v)); }

  /// Removes and returns micro-batch `mb`'s state; throws std::logic_error
  /// naming `owner` when no forward saved it.
  T take(int mb, std::string_view owner) {
    auto it = slots_.find(mb);
    if (it == slots_.end()) {
      throw std::logic_error(std::string(owner) +
                             ": backward without forward for mb " +
                             std::to_string(mb));
    }
    T v = std::move(it->second);
    slots_.erase(it);
    return v;
  }

  void drop(int mb) { slots_.erase(mb); }

  int64_t bytes() const {
    int64_t b = 0;
    for (const auto& [mb, v] : slots_) b += v.bytes();
    return b;
  }

 private:
  std::unordered_map<int, T> slots_;
};

/// A learnable parameter with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.zero(); }
};

/// Base class for all layers.
///
/// Contract: `forward(x, mb)` may be called for several micro-batches before
/// any `backward`; `backward(dy, mb)` consumes (and frees) the cache of
/// micro-batch `mb` and accumulates parameter gradients (+=).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x, int mb) = 0;
  virtual Tensor backward(const Tensor& dy, int mb) = 0;

  /// Inference forward: computes exactly the same function as `forward` but
  /// saves nothing for backward. `pos0` is the absolute sequence position of
  /// the first row of `x` (tokens [pos0, pos0 + t) of the sequence); `slot`
  /// identifies the decode stream, so stateful layers (attention's KV cache)
  /// can keep one incremental context per in-flight sequence. Stateless
  /// layers ignore both. Numerics contract: for causal models, the *last
  /// row* of the result is bit-identical whether the prefix was processed in
  /// one call (pos0 = 0) or token-by-token through the same slot — the
  /// ascending-k kernels make KV-cache decode match full-prefix recompute.
  virtual Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) = 0;

  /// The one KV hook: attach the store that holds every decode stream's
  /// K/V rows (runtime::KvStore — the only place they live). Stateful
  /// layers (attention) register one lane in it; stateless layers ignore
  /// it. StageModule wires it before the first decode — its own store, or
  /// the serving runtime's — and owns every other KV operation (slot
  /// drop, byte accounting, fp16 format).
  virtual void set_kv_store(runtime::KvStore* store) { (void)store; }

  /// Appends pointers to this layer's parameters (stable across calls).
  virtual void collect_params(std::vector<Param*>& out) = 0;

  /// Discards the saved-for-backward cache of micro-batch `mb` without
  /// running a backward — used by activation recomputation, which re-runs
  /// the forward later to rebuild it.
  virtual void drop_cache(int mb) = 0;

  virtual std::string name() const = 0;

  /// Bytes currently held in saved-for-backward caches.
  virtual int64_t cached_bytes() const = 0;
};

/// y = x W + b over the last dimension.
class Linear : public Layer {
 public:
  /// Weights ~ N(0, init_std^2), bias zero; deterministic given `rng`.
  Linear(std::string name, int64_t in, int64_t out, Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override { return saved_x_.bytes(); }

  void drop_cache(int mb) override { saved_x_.drop(mb); }

  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  Tensor apply(const Tensor& x) const;

  std::string name_;
  int64_t in_, out_;
  Param w_, b_;
  SavedStore<Tensor> saved_x_;  // forward input (original shape)
};

/// LayerNorm over the last dimension with learned gain/bias.
class LayerNorm : public Layer {
 public:
  LayerNorm(std::string name, int64_t dim, float eps = 1e-5f);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override { saved_.drop(mb); }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override { return saved_.bytes(); }

 private:
  struct Saved {
    Tensor xhat;     // normalised input
    Tensor inv_std;  // per-row 1/sigma
    int64_t bytes() const { return xhat.bytes() + inv_std.bytes(); }
  };
  /// The one row loop; writes `sv` (sized here) only when it is non-null.
  Tensor normalize(const Tensor& x, Saved* sv) const;

  std::string name_;
  int64_t dim_;
  float eps_;
  Param g_, b_;
  SavedStore<Saved> saved_;
};

/// Elementwise GELU.
class Gelu : public Layer {
 public:
  explicit Gelu(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>&) override {}
  void drop_cache(int mb) override { saved_x_.drop(mb); }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override { return saved_x_.bytes(); }

 private:
  std::string name_;
  SavedStore<Tensor> saved_x_;
};

/// Token + learned positional embedding. Input: [b, t] of token ids (stored
/// as floats); output: [b, t, h]. backward() returns an empty tensor (there
/// is no gradient w.r.t. token ids).
class Embedding : public Layer {
 public:
  Embedding(std::string name, int64_t vocab, int64_t max_seq, int64_t hidden,
            Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  /// Positional rows are read at `pos0 + j`: decoding token `pos0` embeds
  /// with the same positional vector the full-prefix forward would use.
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override { saved_ids_.drop(mb); }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override { return saved_ids_.bytes(); }

 private:
  /// Embeds tokens at positions [pos0, pos0 + t); pos0 is 0 in training.
  Tensor embed(const Tensor& ids, int64_t pos0) const;

  std::string name_;
  int64_t vocab_, max_seq_, hidden_;
  Param tok_, pos_;
  SavedStore<Tensor> saved_ids_;
};

}  // namespace hanayo::model
