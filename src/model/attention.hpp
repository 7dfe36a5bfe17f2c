#pragma once
// Multi-head self-attention with manual backward.

#include "model/layers.hpp"

namespace hanayo::model {

/// Standard transformer MHA: fused QKV projection, per-head scaled dot
/// product, optional causal masking (GPT-style), output projection.
/// Input/output shape: [b, t, h].
class MultiHeadAttention : public Layer {
 public:
  MultiHeadAttention(std::string name, int64_t hidden, int64_t heads,
                     bool causal, Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  /// Incremental-decode forward over the attached KV store. Appends the
  /// K/V rows of `x`'s tokens to the slot's pages, then attends each new
  /// token over the cached prefix one page run at a time, in place: scores
  /// from one gemm_bt per run written at the run's column offset, context
  /// from one gemm per run accumulating in ascending column order — the
  /// kernels reload C and keep ascending-k order, so this is bitwise one
  /// call over a contiguous panel. fp16 pages are dequantised run by run
  /// into a per-layer scratch. `pos0` must equal the cached length (tokens
  /// arrive in order) and streams are batch-1 (std::invalid_argument
  /// otherwise). The last row is bit-identical to a full-prefix recompute:
  /// K/V rows are per-token ascending-k dots whichever call produced them,
  /// and the final row's score/context extents coincide with the
  /// row-blocked training path's.
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  /// Registers this layer's lane in `store` (nullptr detaches) and sizes
  /// the fp16 dequantisation scratch to one page run.
  void set_kv_store(runtime::KvStore* store) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override {
    qkv_proj_.drop_cache(mb);
    out_proj_.drop_cache(mb);
    saved_.drop(mb);
  }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override {
    return qkv_proj_.cached_bytes() + out_proj_.cached_bytes() + saved_.bytes();
  }

 private:
  /// What backward reads besides the projections' own saves (out_proj_
  /// holds the pre-projection context).
  struct Saved {
    Tensor qkv;    // [b, t, 3h]
    Tensor probs;  // [b, heads, t, t] post-softmax attention
    int64_t bytes() const { return qkv.bytes() + probs.bytes(); }
  };

  std::string name_;
  int64_t hidden_, heads_, dk_;
  bool causal_;
  Linear qkv_proj_;
  Linear out_proj_;
  SavedStore<Saved> saved_;
  /// Decode state: the non-owning store handle, this layer's lane in it,
  /// and the page-run scratch fp16 pages dequantise into (each head writes
  /// only its own dk columns, so the heads share it).
  runtime::KvStore* store_ = nullptr;
  int lane_ = -1;
  std::vector<float> run_scratch_;
};

}  // namespace hanayo::model
