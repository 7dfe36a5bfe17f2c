#pragma once
// Model descriptions (GPT-style / BERT-style, as evaluated in the paper §5)
// and the stage-module container that pipeline workers execute.
//
// Two representations:
//  * `LayerDesc` — a lightweight planning record (parameter count, FLOPs,
//    activation bytes) used by the partitioner, cost model and simulator.
//  * `Layer` objects — the runnable layers, instantiated lazily by each
//    worker only for the stages it owns (this is what keeps Mw at
//    "one model / P" per device, the paper's memory headline).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/attention.hpp"
#include "model/layers.hpp"

namespace hanayo::model {

/// Planning record for one layer of the network. `AttnHalf`/`MlpHalf` are
/// the two residual sub-layers of a transformer block, used when a
/// configuration needs more pipeline stages than there are whole blocks
/// (operator-granularity partitioning, as Megatron-LM does).
struct LayerDesc {
  enum class Type { Embedding, Block, AttnHalf, MlpHalf, FinalNorm, LMHead };

  Type type = Type::Block;
  int index = 0;  ///< global position in the network (also the init seed salt)
  int64_t hidden = 0;
  int64_t heads = 0;
  int64_t ffn = 0;    ///< MLP inner dim (4*hidden)
  int64_t vocab = 0;  ///< used by Embedding / LMHead
  int64_t seq = 0;
  bool causal = true;

  /// Number of learnable scalars.
  int64_t param_count() const;
  /// Forward FLOPs for a micro-batch of `tokens` tokens (b*t).
  double fwd_flops(int64_t tokens) const;
  /// Bytes of saved-for-backward state for a micro-batch of `tokens`.
  int64_t activation_bytes(int64_t tokens) const;
  /// Bytes of the output activation crossing to the next layer.
  int64_t output_bytes(int64_t tokens) const;
};

/// Architecture hyper-parameters. `causal=true` gives the GPT-style decoder,
/// `causal=false` the BERT-style encoder; both are trained with a token-level
/// cross-entropy head (the throughput-relevant computation is identical).
struct ModelConfig {
  std::string name = "model";
  int64_t layers = 4;
  int64_t heads = 4;
  int64_t hidden = 64;
  int64_t vocab = 1000;
  int64_t seq = 32;
  bool causal = true;
  float init_std = 0.02f;
  /// Emit each transformer block as two half-layers (attention, MLP) so the
  /// partitioner can form up to ~2x more stages. Purely a granularity
  /// choice; the math is identical.
  bool split_blocks = false;

  /// Paper §5: "GPT-style model has 128 layers, 16 attention heads, and a
  /// hidden size of 1024".
  static ModelConfig gpt_paper();
  /// Paper §5: "BERT-style model consists of 64 layers, 64 attention heads,
  /// and a hidden size of 2560".
  static ModelConfig bert_paper();
  /// Small configuration for unit tests and examples (runs in milliseconds).
  static ModelConfig tiny(int64_t layers = 4, int64_t hidden = 32,
                          int64_t heads = 2, int64_t vocab = 67,
                          int64_t seq = 8, bool causal = true);

  /// Model zoo for the planner/examples: standard public shapes.
  static ModelConfig gpt2_small();   ///< 12L, 12H, 768
  static ModelConfig gpt2_medium();  ///< 24L, 16H, 1024
  static ModelConfig gpt2_xl();      ///< 48L, 25H, 1600
  static ModelConfig bert_base();    ///< 12L, 12H, 768, bidirectional
  static ModelConfig bert_large();   ///< 24L, 16H, 1024, bidirectional

  /// The full layer list: Embedding, `layers` transformer blocks, FinalNorm,
  /// LMHead.
  std::vector<LayerDesc> layer_descs() const;

  int64_t total_params() const;
};

/// The attention half of a block: x + MHA(LN(x)). The LayerNorm is named
/// `name + ln`; Block passes ".ln1" to keep its checkpoint keys.
class AttnResidual : public Layer {
 public:
  AttnResidual(std::string name, int64_t hidden, int64_t heads, bool causal,
               Rng& rng, float init_std, const std::string& ln = ".ln");
  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void set_kv_store(runtime::KvStore* s) override { attn_.set_kv_store(s); }
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override {
    ln_.drop_cache(mb);
    attn_.drop_cache(mb);
  }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override {
    return ln_.cached_bytes() + attn_.cached_bytes();
  }

 private:
  std::string name_;
  LayerNorm ln_;
  MultiHeadAttention attn_;
};

/// The MLP half of a block: x + FC2(GELU(FC1(LN(x)))). The LayerNorm is
/// named `name + ln`; Block passes ".ln2".
class MlpResidual : public Layer {
 public:
  MlpResidual(std::string name, int64_t hidden, Rng& rng, float init_std,
              const std::string& ln = ".ln");
  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override {
    ln_.drop_cache(mb);
    fc1_.drop_cache(mb);
    act_.drop_cache(mb);
    fc2_.drop_cache(mb);
  }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override {
    return ln_.cached_bytes() + fc1_.cached_bytes() + act_.cached_bytes() +
           fc2_.cached_bytes();
  }

 private:
  std::string name_;
  LayerNorm ln_;
  Linear fc1_;
  Gelu act_;
  Linear fc2_;
};

/// Pre-LN transformer block: x + MHA(LN(x)), then x + MLP(LN(x)) — its
/// attention half followed by its MLP half, so each half's arithmetic and
/// saved state exist once. Parameters keep the names `<name>.ln1.*`,
/// `<name>.attn.*`, `<name>.ln2.*`, `<name>.fc1.*`, `<name>.fc2.*`.
class Block : public Layer {
 public:
  Block(std::string name, int64_t hidden, int64_t heads, bool causal, Rng& rng,
        float init_std);

  Tensor forward(const Tensor& x, int mb) override {
    return mlp_.forward(attn_.forward(x, mb), mb);
  }
  Tensor backward(const Tensor& dy, int mb) override {
    return attn_.backward(mlp_.backward(dy, mb), mb);
  }
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override {
    return mlp_.forward_infer(attn_.forward_infer(x, pos0, slot), pos0, slot);
  }
  void set_kv_store(runtime::KvStore* s) override { attn_.set_kv_store(s); }
  void collect_params(std::vector<Param*>& out) override {
    attn_.collect_params(out);
    mlp_.collect_params(out);
  }
  void drop_cache(int mb) override {
    attn_.drop_cache(mb);
    mlp_.drop_cache(mb);
  }
  std::string name() const override { return attn_.name(); }
  int64_t cached_bytes() const override {
    return attn_.cached_bytes() + mlp_.cached_bytes();
  }

 private:
  AttnResidual attn_;
  MlpResidual mlp_;
};

/// Instantiates the runnable layer for a planning record. `base_seed` makes
/// initialisation a pure function of (seed, layer index): a layer gets
/// identical weights no matter which worker builds it or in which order —
/// the property the pipeline-vs-sequential equivalence tests rely on.
std::unique_ptr<Layer> build_layer(const LayerDesc& d, uint64_t base_seed,
                                   float init_std);

/// A contiguous run of layers owned by one (device, chunk). This is the
/// paper's "local module": the unit referenced by the action list's local
/// module rank.
class StageModule {
 public:
  StageModule();
  StageModule(const std::vector<LayerDesc>& descs, int begin, int end,
              uint64_t base_seed, float init_std);
  ~StageModule();
  StageModule(StageModule&&) noexcept;
  StageModule& operator=(StageModule&&) noexcept;

  Tensor forward(const Tensor& x, int mb);
  Tensor backward(const Tensor& dy, int mb);

  /// Discards what `forward` saved for micro-batch `mb` — every layer's
  /// cache and the recompute input — when no backward will follow.
  void drop_cache(int mb);

  /// Incremental-decode forward through this stage's layers: nothing is
  /// saved for backward, attention layers extend their per-`slot` K/V rows
  /// in the KV store, and positional state is read at absolute offset
  /// `pos0`. For causal models the last row of the result is bit-identical
  /// to a full-prefix recompute (see Layer::forward_infer). Streams are
  /// batch-1.
  ///
  /// A module with no attached store builds its own at the first decode:
  /// 16-token pages, no prefix cache, fp16 per set_kv_fp16, slots
  /// [0, kBareSlots). A closed slot opens implicitly when decode arrives
  /// at pos0 == 0; a slot outside the table throws std::invalid_argument.
  Tensor decode(const Tensor& x, int64_t pos0, int slot);

  /// Slot table of the module's own store (see decode).
  static constexpr int kBareSlots = 8;

  /// Frees one decode stream's K/V rows in the module's store (called
  /// when a sequence completes and its slot is recycled).
  void drop_slot(int slot);

  /// Bytes of the store's pages that open decode streams reference — the
  /// serving analogue of `cached_bytes`; 0 once every slot is dropped.
  /// Page-rounded: a stream holds whole pages.
  int64_t slot_bytes() const;

  /// Half-precision K/V pages for the module's own store
  /// (InferConfig::kv_fp16). Throws std::logic_error while its decode
  /// streams are in flight; an attached store keeps its own format.
  void set_kv_fp16(bool on);

  /// Attaches `store` (nullptr detaches) as the store every attention layer
  /// of this stage decodes through: each registers one lane. The serving
  /// runtime calls it once per chunk, in deterministic worker construction
  /// order, and opens/drops slots on the store itself. Throws
  /// std::logic_error while the module's own store has streams in flight.
  void set_kv_store(runtime::KvStore* store);

  /// Activation recomputation (gradient checkpointing, Chen et al. 2016 —
  /// one of the orthogonal memory techniques the paper's related work
  /// combines with pipeline parallelism). When enabled, `forward` discards
  /// all layer caches and stores only the stage *input*; `backward` re-runs
  /// the forward to rebuild them. Trades ~50% more stage compute for O(1)
  /// cached tensors per in-flight micro-batch.
  void set_recompute(bool on) { recompute_ = on; }
  bool recompute() const { return recompute_; }

  std::vector<Param*> params();
  void zero_grads();
  int64_t cached_bytes() const;
  int64_t param_count() const;
  int layer_begin() const { return begin_; }
  int layer_end() const { return end_; }

 private:
  int begin_ = 0, end_ = 0;
  bool recompute_ = false;
  std::vector<std::unique_ptr<Layer>> layers_;
  SavedStore<Tensor> saved_inputs_;
  /// KV wiring: the store decode runs against (attached, or own_kv_), the
  /// module's own store once built, and what building one needs.
  runtime::KvStore* kv_ = nullptr;
  std::unique_ptr<runtime::KvStore> own_kv_;
  bool kv_fp16_ = false;
  int kv_lanes_ = 0;       ///< attention layers in this stage
  int64_t kv_hidden_ = 0;  ///< their row width
  int64_t kv_seq_ = 0;     ///< positions a stream of the own store may hold
};

}  // namespace hanayo::model
