#include "model/transformer.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/kv_store.hpp"
#include "tensor/ops.hpp"

namespace hanayo::model {

// ------------------------------------------------------------- LayerDesc

int64_t LayerDesc::param_count() const {
  switch (type) {
    case Type::Embedding:
      return vocab * hidden + seq * hidden;
    case Type::Block:
      // qkv: h*3h + 3h, out: h*h + h, 2 LN: 4h, mlp: h*f + f + f*h + h
      return hidden * 3 * hidden + 3 * hidden + hidden * hidden + hidden +
             4 * hidden + hidden * ffn + ffn + ffn * hidden + hidden;
    case Type::AttnHalf:
      return hidden * 3 * hidden + 3 * hidden + hidden * hidden + hidden +
             2 * hidden;
    case Type::MlpHalf:
      return 2 * hidden + hidden * ffn + ffn + ffn * hidden + hidden;
    case Type::FinalNorm:
      return 2 * hidden;
    case Type::LMHead:
      return hidden * vocab + vocab;
  }
  return 0;
}

double LayerDesc::fwd_flops(int64_t tokens) const {
  const double t = static_cast<double>(tokens);
  const double h = static_cast<double>(hidden);
  switch (type) {
    case Type::Embedding:
      return t * h;  // gather + add
    case Type::Block: {
      const double f = static_cast<double>(ffn);
      const double qkv = 2.0 * t * h * 3.0 * h;
      const double attn = 2.0 * 2.0 * t * static_cast<double>(seq) * h;
      const double out = 2.0 * t * h * h;
      const double mlp = 2.0 * t * h * f * 2.0;
      return qkv + attn + out + mlp;
    }
    case Type::AttnHalf: {
      const double qkv = 2.0 * t * h * 3.0 * h;
      const double attn = 2.0 * 2.0 * t * static_cast<double>(seq) * h;
      const double out = 2.0 * t * h * h;
      return qkv + attn + out;
    }
    case Type::MlpHalf:
      return 2.0 * t * h * static_cast<double>(ffn) * 2.0;
    case Type::FinalNorm:
      return 8.0 * t * h;
    case Type::LMHead:
      return 2.0 * t * h * static_cast<double>(vocab);
  }
  return 0.0;
}

int64_t LayerDesc::activation_bytes(int64_t tokens) const {
  // Mixed-precision training (the paper's setup): activations are fp16.
  // Each term is one saved tensor (README, "What each layer saves"); a
  // LayerNorm saves xhat plus one 1/sigma per row.
  const int64_t f4 = 2;
  const int64_t probs = (tokens / (seq > 0 ? seq : 1)) * heads * seq * seq;
  // ln xhat + qkv in + out-proj in (h each), qkv (3h), probs, 1/sigma
  const int64_t attn =
      tokens * hidden * 3 + tokens * 3 * hidden + probs + tokens;
  // ln xhat + fc1 in (h each), gelu in + fc2 in (ffn each), 1/sigma
  const int64_t mlp = tokens * hidden * 2 + tokens * ffn * 2 + tokens;
  switch (type) {
    case Type::Embedding:
      return tokens * f4;  // cached token ids
    case Type::Block:
      return (attn + mlp) * f4;
    case Type::AttnHalf:
      return attn * f4;
    case Type::MlpHalf:
      return mlp * f4;
    case Type::FinalNorm:
      return (tokens * hidden + tokens) * f4;
    case Type::LMHead:
      return tokens * hidden * f4;
  }
  return 0;
}

int64_t LayerDesc::output_bytes(int64_t tokens) const {
  // fp16 activations cross stage boundaries in mixed-precision training.
  switch (type) {
    case Type::LMHead:
      return tokens * vocab * 2;
    default:
      return tokens * hidden * 2;
  }
}

// ------------------------------------------------------------ ModelConfig

ModelConfig ModelConfig::gpt_paper() {
  ModelConfig c;
  c.name = "gpt-128L";
  c.layers = 128;
  c.heads = 16;
  c.hidden = 1024;
  c.vocab = 50257;
  c.seq = 1024;
  c.causal = true;
  return c;
}

ModelConfig ModelConfig::bert_paper() {
  ModelConfig c;
  c.name = "bert-64L";
  c.layers = 64;
  c.heads = 64;
  c.hidden = 2560;
  c.vocab = 30522;
  c.seq = 512;
  c.causal = false;
  return c;
}

ModelConfig ModelConfig::tiny(int64_t layers, int64_t hidden, int64_t heads,
                              int64_t vocab, int64_t seq, bool causal) {
  ModelConfig c;
  c.name = "tiny";
  c.layers = layers;
  c.hidden = hidden;
  c.heads = heads;
  c.vocab = vocab;
  c.seq = seq;
  c.causal = causal;
  return c;
}

namespace {
ModelConfig preset(const char* name, int64_t layers, int64_t heads,
                   int64_t hidden, int64_t vocab, int64_t seq, bool causal) {
  ModelConfig c;
  c.name = name;
  c.layers = layers;
  c.heads = heads;
  c.hidden = hidden;
  c.vocab = vocab;
  c.seq = seq;
  c.causal = causal;
  return c;
}
}  // namespace

ModelConfig ModelConfig::gpt2_small() {
  return preset("gpt2-small", 12, 12, 768, 50257, 1024, true);
}
ModelConfig ModelConfig::gpt2_medium() {
  return preset("gpt2-medium", 24, 16, 1024, 50257, 1024, true);
}
ModelConfig ModelConfig::gpt2_xl() {
  return preset("gpt2-xl", 48, 25, 1600, 50257, 1024, true);
}
ModelConfig ModelConfig::bert_base() {
  return preset("bert-base", 12, 12, 768, 30522, 512, false);
}
ModelConfig ModelConfig::bert_large() {
  return preset("bert-large", 24, 16, 1024, 30522, 512, false);
}

std::vector<LayerDesc> ModelConfig::layer_descs() const {
  std::vector<LayerDesc> out;
  out.reserve(static_cast<size_t>(layers + 3));
  int idx = 0;
  LayerDesc emb;
  emb.type = LayerDesc::Type::Embedding;
  emb.index = idx++;
  emb.hidden = hidden;
  emb.vocab = vocab;
  emb.seq = seq;
  emb.causal = causal;
  out.push_back(emb);
  for (int64_t i = 0; i < layers; ++i) {
    LayerDesc b;
    b.index = idx;
    b.hidden = hidden;
    b.heads = heads;
    b.ffn = 4 * hidden;
    b.seq = seq;
    b.causal = causal;
    if (split_blocks) {
      b.type = LayerDesc::Type::AttnHalf;
      b.index = idx++;
      out.push_back(b);
      b.type = LayerDesc::Type::MlpHalf;
      b.index = idx++;
      out.push_back(b);
    } else {
      b.type = LayerDesc::Type::Block;
      b.index = idx++;
      out.push_back(b);
    }
  }
  LayerDesc fn;
  fn.type = LayerDesc::Type::FinalNorm;
  fn.index = idx++;
  fn.hidden = hidden;
  fn.seq = seq;
  out.push_back(fn);
  LayerDesc head;
  head.type = LayerDesc::Type::LMHead;
  head.index = idx++;
  head.hidden = hidden;
  head.vocab = vocab;
  head.seq = seq;
  out.push_back(head);
  return out;
}

int64_t ModelConfig::total_params() const {
  int64_t n = 0;
  for (const LayerDesc& d : layer_descs()) n += d.param_count();
  return n;
}

// ----------------------------------------------------------------- Block

// The halves are built attention first, so the weights draw from `rng` in
// the order qkv, out, fc1, fc2.
Block::Block(std::string name, int64_t hidden, int64_t heads, bool causal,
             Rng& rng, float init_std)
    : attn_(name, hidden, heads, causal, rng, init_std, ".ln1"),
      mlp_(std::move(name), hidden, rng, init_std, ".ln2") {}

// ---------------------------------------------------------- AttnResidual

AttnResidual::AttnResidual(std::string name, int64_t hidden, int64_t heads,
                           bool causal, Rng& rng, float init_std,
                           const std::string& ln)
    : name_(std::move(name)),
      ln_(name_ + ln, hidden),
      attn_(name_ + ".attn", hidden, heads, causal, rng, init_std) {}

Tensor AttnResidual::forward(const Tensor& x, int mb) {
  return tensor::add(x, attn_.forward(ln_.forward(x, mb), mb));
}

Tensor AttnResidual::backward(const Tensor& dy, int mb) {
  Tensor dbranch = ln_.backward(attn_.backward(dy, mb), mb);
  return tensor::add(dy, dbranch);
}

Tensor AttnResidual::forward_infer(const Tensor& x, int64_t pos0, int slot) {
  return tensor::add(
      x, attn_.forward_infer(ln_.forward_infer(x, pos0, slot), pos0, slot));
}

void AttnResidual::collect_params(std::vector<Param*>& out) {
  ln_.collect_params(out);
  attn_.collect_params(out);
}

// ----------------------------------------------------------- MlpResidual

MlpResidual::MlpResidual(std::string name, int64_t hidden, Rng& rng,
                         float init_std, const std::string& ln)
    : name_(std::move(name)),
      ln_(name_ + ln, hidden),
      fc1_(name_ + ".fc1", hidden, 4 * hidden, rng, init_std),
      act_(name_ + ".gelu"),
      fc2_(name_ + ".fc2", 4 * hidden, hidden, rng, init_std) {}

Tensor MlpResidual::forward(const Tensor& x, int mb) {
  Tensor m = fc2_.forward(act_.forward(fc1_.forward(ln_.forward(x, mb), mb), mb), mb);
  return tensor::add(x, m);
}

Tensor MlpResidual::backward(const Tensor& dy, int mb) {
  Tensor dbranch = ln_.backward(
      fc1_.backward(act_.backward(fc2_.backward(dy, mb), mb), mb), mb);
  return tensor::add(dy, dbranch);
}

Tensor MlpResidual::forward_infer(const Tensor& x, int64_t pos0, int slot) {
  Tensor m = fc2_.forward_infer(
      act_.forward_infer(
          fc1_.forward_infer(ln_.forward_infer(x, pos0, slot), pos0, slot),
          pos0, slot),
      pos0, slot);
  return tensor::add(x, m);
}

void MlpResidual::collect_params(std::vector<Param*>& out) {
  ln_.collect_params(out);
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

// ------------------------------------------------------------ build_layer

std::unique_ptr<Layer> build_layer(const LayerDesc& d, uint64_t base_seed,
                                   float init_std) {
  // One RNG per layer, seeded by the global layer index: init is independent
  // of which worker builds the layer and of build order.
  Rng rng(base_seed * 0x1000193ULL + static_cast<uint64_t>(d.index) + 1);
  // Built via append rather than `"L" + std::to_string(...)`: the rvalue
  // operator+ overload trips GCC 12's -Wrestrict false positive (PR105651)
  // under -O2, and CI compiles with -Werror.
  std::string nm = "L";
  nm += std::to_string(d.index);
  switch (d.type) {
    case LayerDesc::Type::Embedding:
      return std::make_unique<Embedding>(nm + ".emb", d.vocab, d.seq, d.hidden,
                                         rng, init_std);
    case LayerDesc::Type::Block:
      return std::make_unique<Block>(nm + ".blk", d.hidden, d.heads, d.causal,
                                     rng, init_std);
    case LayerDesc::Type::AttnHalf:
      return std::make_unique<AttnResidual>(nm + ".attn", d.hidden, d.heads,
                                            d.causal, rng, init_std);
    case LayerDesc::Type::MlpHalf:
      return std::make_unique<MlpResidual>(nm + ".mlp", d.hidden, rng, init_std);
    case LayerDesc::Type::FinalNorm:
      return std::make_unique<LayerNorm>(nm + ".lnf", d.hidden);
    case LayerDesc::Type::LMHead:
      return std::make_unique<Linear>(nm + ".head", d.hidden, d.vocab, rng,
                                      init_std);
  }
  throw std::logic_error("build_layer: unknown type");
}

// ------------------------------------------------------------ StageModule

StageModule::StageModule() = default;
StageModule::~StageModule() = default;
StageModule::StageModule(StageModule&&) noexcept = default;
StageModule& StageModule::operator=(StageModule&&) noexcept = default;

StageModule::StageModule(const std::vector<LayerDesc>& descs, int begin,
                         int end, uint64_t base_seed, float init_std)
    : begin_(begin), end_(end) {
  if (begin < 0 || end > static_cast<int>(descs.size()) || begin > end) {
    throw std::invalid_argument("StageModule: bad layer range");
  }
  for (int i = begin; i < end; ++i) {
    const LayerDesc& d = descs[static_cast<size_t>(i)];
    layers_.push_back(build_layer(d, base_seed, init_std));
    if (d.type == LayerDesc::Type::Block ||
        d.type == LayerDesc::Type::AttnHalf) {
      ++kv_lanes_;
      kv_hidden_ = d.hidden;
    }
    kv_seq_ = std::max(kv_seq_, d.seq);
  }
}

Tensor StageModule::forward(const Tensor& x, int mb) {
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h, mb);
  if (recompute_) {
    drop_cache(mb);
    saved_inputs_.put(mb, x);
  }
  return h;
}

void StageModule::drop_cache(int mb) {
  for (auto& l : layers_) l->drop_cache(mb);
  saved_inputs_.drop(mb);
}

Tensor StageModule::backward(const Tensor& dy, int mb) {
  if (recompute_) {
    // Rebuild the caches with a second forward pass (deterministic, so the
    // gradients are bit-identical to the cached path).
    Tensor h = saved_inputs_.take(mb, "StageModule (recompute)");
    for (auto& l : layers_) h = l->forward(h, mb);
  }
  Tensor g = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g, mb);
  }
  return g;
}

Tensor StageModule::decode(const Tensor& x, int64_t pos0, int slot) {
  if (kv_lanes_ > 0 && kv_ == nullptr) {
    // Own store: every slot of the table can hold a full-context stream.
    runtime::KvStoreConfig kc;
    const int64_t pages =
        (std::max<int64_t>(kv_seq_, 1) + kc.page_tokens - 1) / kc.page_tokens;
    kc.pool_pages = kBareSlots * pages * kv_lanes_;
    kc.row_elems = kv_hidden_;
    kc.max_slots = kBareSlots;
    kc.fp16 = kv_fp16_;
    kc.prefix_cache = false;
    own_kv_ = std::make_unique<runtime::KvStore>(kc);
    kv_ = own_kv_.get();
    for (auto& l : layers_) l->set_kv_store(kv_);
  }
  if (own_kv_ != nullptr && pos0 == 0 && !own_kv_->slot_open(slot)) {
    if (!own_kv_->open_slot(slot, {}, kv_seq_, nullptr)) {
      throw std::logic_error("StageModule: own KV pool exhausted");
    }
  }
  Tensor h = x;
  for (auto& l : layers_) h = l->forward_infer(h, pos0, slot);
  return h;
}

void StageModule::drop_slot(int slot) {
  if (kv_ != nullptr) kv_->drop_slot(slot);
}

int64_t StageModule::slot_bytes() const {
  return kv_ != nullptr ? kv_->slot_ref_bytes() : 0;
}

void StageModule::set_kv_fp16(bool on) {
  if (on == kv_fp16_) return;
  if (own_kv_ != nullptr) set_kv_store(nullptr);  // rebuilt at next decode
  kv_fp16_ = on;
}

void StageModule::set_kv_store(runtime::KvStore* store) {
  if (own_kv_ != nullptr && own_kv_->slot_ref_pages() > 0) {
    throw std::logic_error(
        "StageModule: KV store changed while decode streams are in flight");
  }
  own_kv_.reset();
  kv_ = store;
  for (auto& l : layers_) l->set_kv_store(store);
}

std::vector<Param*> StageModule::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) l->collect_params(out);
  return out;
}

void StageModule::zero_grads() {
  for (Param* p : params()) p->zero_grad();
}

int64_t StageModule::cached_bytes() const {
  int64_t b = 0;
  for (const auto& l : layers_) b += l->cached_bytes();
  return b + saved_inputs_.bytes();
}

int64_t StageModule::param_count() const {
  int64_t n = 0;
  for (const auto& l : layers_) {
    std::vector<Param*> ps;
    const_cast<Layer&>(*l).collect_params(ps);
    for (Param* p : ps) n += p->value.numel();
  }
  return n;
}

}  // namespace hanayo::model
