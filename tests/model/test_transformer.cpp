#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/loss.hpp"
#include "model/partition.hpp"
#include "model/transformer.hpp"
#include "tensor/ops.hpp"

namespace hm = hanayo::model;
namespace ht = hanayo::tensor;

TEST(ModelConfig, PaperConfigs) {
  const auto gpt = hm::ModelConfig::gpt_paper();
  EXPECT_EQ(gpt.layers, 128);
  EXPECT_EQ(gpt.heads, 16);
  EXPECT_EQ(gpt.hidden, 1024);
  EXPECT_TRUE(gpt.causal);
  const auto bert = hm::ModelConfig::bert_paper();
  EXPECT_EQ(bert.layers, 64);
  EXPECT_EQ(bert.heads, 64);
  EXPECT_EQ(bert.hidden, 2560);
  EXPECT_FALSE(bert.causal);
}

TEST(ModelConfig, LayerDescsStructure) {
  const auto cfg = hm::ModelConfig::tiny(4);
  const auto descs = cfg.layer_descs();
  ASSERT_EQ(descs.size(), 7u);  // emb + 4 blocks + norm + head
  EXPECT_EQ(descs.front().type, hm::LayerDesc::Type::Embedding);
  EXPECT_EQ(descs[1].type, hm::LayerDesc::Type::Block);
  EXPECT_EQ(descs[5].type, hm::LayerDesc::Type::FinalNorm);
  EXPECT_EQ(descs.back().type, hm::LayerDesc::Type::LMHead);
  for (size_t i = 0; i < descs.size(); ++i) {
    EXPECT_EQ(descs[i].index, static_cast<int>(i));
  }
}

TEST(LayerDesc, ParamCountMatchesBuiltLayer) {
  const auto cfg = hm::ModelConfig::tiny(2, 16, 2, 31, 8);
  for (const auto& d : cfg.layer_descs()) {
    auto layer = hm::build_layer(d, 5, 0.02f);
    std::vector<hm::Param*> ps;
    layer->collect_params(ps);
    int64_t n = 0;
    for (auto* p : ps) n += p->value.numel();
    EXPECT_EQ(n, d.param_count()) << "layer " << d.index;
  }
}

TEST(LayerDesc, FlopsAndBytesPositiveAndMonotonic) {
  const auto cfg = hm::ModelConfig::tiny(2, 16, 2, 31, 8);
  for (const auto& d : cfg.layer_descs()) {
    EXPECT_GT(d.fwd_flops(8), 0.0);
    EXPECT_GT(d.fwd_flops(16), d.fwd_flops(8));
    EXPECT_GT(d.output_bytes(8), 0);
    EXPECT_GE(d.activation_bytes(8), 0);
  }
}

TEST(BuildLayer, DeterministicAcrossBuildOrder) {
  const auto cfg = hm::ModelConfig::tiny(3, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  // Build layer 2 alone vs. after building layers 0 and 1: identical.
  auto alone = hm::build_layer(descs[2], 7, 0.02f);
  auto l0 = hm::build_layer(descs[0], 7, 0.02f);
  auto l1 = hm::build_layer(descs[1], 7, 0.02f);
  auto after = hm::build_layer(descs[2], 7, 0.02f);
  std::vector<hm::Param*> pa, pb;
  alone->collect_params(pa);
  after->collect_params(pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ht::max_abs_diff(pa[i]->value, pb[i]->value), 0.0f);
  }
}

TEST(BuildLayer, DifferentSeedsDiffer) {
  const auto cfg = hm::ModelConfig::tiny(1, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  auto a = hm::build_layer(descs[1], 1, 0.02f);
  auto b = hm::build_layer(descs[1], 2, 0.02f);
  std::vector<hm::Param*> pa, pb;
  a->collect_params(pa);
  b->collect_params(pb);
  // At least one randomly initialised parameter must differ (the first
  // params are LayerNorm gains, which are deterministically ones).
  float diff = 0.0f;
  for (size_t i = 0; i < pa.size(); ++i) {
    diff = std::max(diff, ht::max_abs_diff(pa[i]->value, pb[i]->value));
  }
  EXPECT_GT(diff, 0.0f);
}

TEST(StageModule, SplitChainEqualsFullModel) {
  // Running [0, k) then [k, n) must equal running [0, n) — the property that
  // makes pipeline stages composable.
  const auto cfg = hm::ModelConfig::tiny(4, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  const int n = static_cast<int>(descs.size());
  hm::StageModule full(descs, 0, n, 11, cfg.init_std);
  ht::Rng rng(3);
  ht::Tensor ids({2, 8});
  for (auto& v : ids.flat()) v = static_cast<float>(rng.index(31));

  ht::Tensor ref = full.forward(ids, 0);
  for (int k = 1; k < n; ++k) {
    hm::StageModule a(descs, 0, k, 11, cfg.init_std);
    hm::StageModule b(descs, k, n, 11, cfg.init_std);
    ht::Tensor mid = a.forward(ids, 0);
    ht::Tensor out = b.forward(mid, 0);
    EXPECT_LE(ht::max_abs_diff(out, ref), 1e-5f) << "split at " << k;
  }
}

TEST(StageModule, SplitBackwardEqualsFullModel) {
  const auto cfg = hm::ModelConfig::tiny(2, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  const int n = static_cast<int>(descs.size());
  const int k = 3;
  ht::Rng rng(5);
  ht::Tensor ids({1, 8});
  for (auto& v : ids.flat()) v = static_cast<float>(rng.index(31));
  ht::Tensor tgt({8});
  for (auto& v : tgt.flat()) v = static_cast<float>(rng.index(31));

  hm::StageModule full(descs, 0, n, 13, cfg.init_std);
  ht::Tensor logits = full.forward(ids, 0);
  auto [loss, dl] = hm::cross_entropy(logits, tgt);
  full.backward(dl, 0);

  hm::StageModule a(descs, 0, k, 13, cfg.init_std);
  hm::StageModule b(descs, k, n, 13, cfg.init_std);
  ht::Tensor logits2 = b.forward(a.forward(ids, 0), 0);
  auto [loss2, dl2] = hm::cross_entropy(logits2, tgt);
  EXPECT_NEAR(loss2, loss, 1e-5f);
  a.backward(b.backward(dl2, 0), 0);

  // Compare the grads of the full model against the concatenated stages.
  auto pf = full.params();
  auto pa = a.params();
  auto pb = b.params();
  std::vector<hm::Param*> split;
  split.insert(split.end(), pa.begin(), pa.end());
  split.insert(split.end(), pb.begin(), pb.end());
  ASSERT_EQ(pf.size(), split.size());
  for (size_t i = 0; i < pf.size(); ++i) {
    EXPECT_LE(ht::max_abs_diff(pf[i]->grad, split[i]->grad), 1e-5f)
        << pf[i]->name;
  }
}

TEST(StageModule, ZeroGradsClearsEverything) {
  const auto cfg = hm::ModelConfig::tiny(1, 8, 2, 17, 4);
  const auto descs = cfg.layer_descs();
  hm::StageModule m(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  ht::Tensor ids({1, 4}, std::vector<float>{1, 2, 3, 4});
  ht::Tensor y = m.forward(ids, 0);
  m.backward(ht::Tensor::ones(y.shape()), 0);
  m.zero_grads();
  for (auto* p : m.params()) EXPECT_EQ(ht::max_abs(p->grad), 0.0f);
}

TEST(StageModule, ParamCountMatchesConfigTotal) {
  const auto cfg = hm::ModelConfig::tiny(3, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  hm::StageModule m(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  EXPECT_EQ(m.param_count(), cfg.total_params());
}

TEST(StageModule, BadRangeThrows) {
  const auto cfg = hm::ModelConfig::tiny(1);
  const auto descs = cfg.layer_descs();
  EXPECT_THROW(hm::StageModule(descs, 2, 1, 1, 0.02f), std::invalid_argument);
  EXPECT_THROW(hm::StageModule(descs, 0, 99, 1, 0.02f), std::invalid_argument);
}

TEST(ModelConfig, ZooPresets) {
  EXPECT_EQ(hm::ModelConfig::gpt2_small().layers, 12);
  EXPECT_EQ(hm::ModelConfig::gpt2_medium().hidden, 1024);
  EXPECT_EQ(hm::ModelConfig::gpt2_xl().heads, 25);
  EXPECT_TRUE(hm::ModelConfig::gpt2_xl().causal);
  EXPECT_FALSE(hm::ModelConfig::bert_base().causal);
  EXPECT_EQ(hm::ModelConfig::bert_large().layers, 24);
  // Parameter counts in the right ballpark (GPT-2 small ~124M).
  const double gpt2s = static_cast<double>(hm::ModelConfig::gpt2_small().total_params());
  EXPECT_GT(gpt2s, 100e6);
  EXPECT_LT(gpt2s, 200e6);
}

TEST(ModelConfig, SplitBlocksDoublesBlockEntries) {
  auto cfg = hm::ModelConfig::tiny(5);
  const auto whole = cfg.layer_descs();
  cfg.split_blocks = true;
  const auto split = cfg.layer_descs();
  EXPECT_EQ(split.size(), whole.size() + 5);
  // Param counts must agree between the two granularities.
  int64_t a = 0, b = 0;
  for (const auto& d : whole) a += d.param_count();
  for (const auto& d : split) b += d.param_count();
  EXPECT_EQ(a, b);
  // As must total FLOPs.
  double fa = 0.0, fb = 0.0;
  for (const auto& d : whole) fa += d.fwd_flops(16);
  for (const auto& d : split) fb += d.fwd_flops(16);
  EXPECT_NEAR(fa, fb, 1e-6 * fa);
  // And the planner's saved-activation bytes (Ma): Block == AttnHalf + MlpHalf.
  int64_t ma = 0, mb = 0;
  for (const auto& d : whole) ma += d.activation_bytes(16);
  for (const auto& d : split) mb += d.activation_bytes(16);
  EXPECT_EQ(ma, mb);
}

TEST(StageModule, ParamNamesArePinned) {
  // Checkpoints key on these names, in this order.
  auto cfg = hm::ModelConfig::tiny(1, 16, 2, 31, 8);
  auto names = [](hm::StageModule& m) {
    std::vector<std::string> out;
    for (const hm::Param* p : m.params()) out.push_back(p->name);
    return out;
  };
  hm::StageModule block(cfg.layer_descs(), 1, 2, 3, cfg.init_std);
  EXPECT_EQ(names(block),
            (std::vector<std::string>{
                "L1.blk.ln1.g", "L1.blk.ln1.b", "L1.blk.attn.qkv.w",
                "L1.blk.attn.qkv.b", "L1.blk.attn.out.w", "L1.blk.attn.out.b",
                "L1.blk.ln2.g", "L1.blk.ln2.b", "L1.blk.fc1.w", "L1.blk.fc1.b",
                "L1.blk.fc2.w", "L1.blk.fc2.b"}));
  cfg.split_blocks = true;
  hm::StageModule halves(cfg.layer_descs(), 1, 3, 3, cfg.init_std);
  EXPECT_EQ(names(halves),
            (std::vector<std::string>{
                "L1.attn.ln.g", "L1.attn.ln.b", "L1.attn.attn.qkv.w",
                "L1.attn.attn.qkv.b", "L1.attn.attn.out.w",
                "L1.attn.attn.out.b", "L2.mlp.ln.g", "L2.mlp.ln.b",
                "L2.mlp.fc1.w", "L2.mlp.fc1.b", "L2.mlp.fc2.w",
                "L2.mlp.fc2.b"}));
}

TEST(ModelConfig, SplitHalvesComputeSameFunctionAsBlock) {
  // AttnResidual(MlpResidual(x)) with the same weights == Block(x) is not
  // required (independent seeds), but both must be differentiable units
  // that chain: run a split model end to end.
  auto cfg = hm::ModelConfig::tiny(2, 16, 2, 31, 8);
  cfg.split_blocks = true;
  const auto descs = cfg.layer_descs();
  hm::StageModule m(descs, 0, static_cast<int>(descs.size()), 3, cfg.init_std);
  ht::Rng rng(9);
  ht::Tensor ids({1, 8});
  for (auto& v : ids.flat()) v = static_cast<float>(rng.index(31));
  ht::Tensor y = m.forward(ids, 0);
  EXPECT_EQ(y.shape(), (ht::Shape{1, 8, 31}));
  m.backward(ht::Tensor::ones(y.shape()), 0);
  EXPECT_EQ(m.cached_bytes(), 0);
}
