#include <gtest/gtest.h>

#include "model/loss.hpp"
#include "model/transformer.hpp"
#include "tensor/ops.hpp"

namespace hm = hanayo::model;
namespace ht = hanayo::tensor;

namespace {
const auto kCfg = hm::ModelConfig::tiny(4, 16, 2, 31, 8);

ht::Tensor make_ids(ht::Rng& rng, int64_t b, int64_t t) {
  ht::Tensor ids({b, t});
  for (auto& v : ids.flat()) v = static_cast<float>(rng.index(31));
  return ids;
}
}  // namespace

TEST(Recompute, GradientsBitIdentical) {
  const auto descs = kCfg.layer_descs();
  const int n = static_cast<int>(descs.size());
  hm::StageModule cached(descs, 0, n, 3, kCfg.init_std);
  hm::StageModule recomp(descs, 0, n, 3, kCfg.init_std);
  recomp.set_recompute(true);

  ht::Rng rng(1);
  ht::Tensor ids = make_ids(rng, 2, 8);
  ht::Tensor tgt({16});
  for (auto& v : tgt.flat()) v = static_cast<float>(rng.index(31));

  ht::Tensor y1 = cached.forward(ids, 0);
  ht::Tensor y2 = recomp.forward(ids, 0);
  EXPECT_EQ(ht::max_abs_diff(y1, y2), 0.0f);

  auto [l1, d1] = hm::cross_entropy(y1, tgt);
  auto [l2, d2] = hm::cross_entropy(y2, tgt);
  cached.backward(d1, 0);
  recomp.backward(d2, 0);

  const auto p1 = cached.params(), p2 = recomp.params();
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(ht::max_abs_diff(p1[i]->grad, p2[i]->grad), 0.0f) << p1[i]->name;
  }
}

TEST(Recompute, CachedBytesMuchSmaller) {
  const auto descs = kCfg.layer_descs();
  const int n = static_cast<int>(descs.size());
  hm::StageModule cached(descs, 1, n - 1, 3, kCfg.init_std);  // blocks only
  hm::StageModule recomp(descs, 1, n - 1, 3, kCfg.init_std);
  recomp.set_recompute(true);
  ht::Rng rng(2);
  ht::Tensor x = rng.randn({2, 8, 16});
  cached.forward(x, 0);
  recomp.forward(x, 0);
  EXPECT_GT(cached.cached_bytes(), 4 * recomp.cached_bytes());
  // Recompute holds exactly the input.
  EXPECT_EQ(recomp.cached_bytes(), x.bytes());
}

TEST(Recompute, MultipleMicroBatchesInFlight) {
  const auto descs = kCfg.layer_descs();
  const int n = static_cast<int>(descs.size());
  hm::StageModule m(descs, 1, n - 1, 3, kCfg.init_std);
  m.set_recompute(true);
  ht::Rng rng(3);
  ht::Tensor x0 = rng.randn({1, 8, 16});
  ht::Tensor x1 = rng.randn({1, 8, 16});
  ht::Tensor y0 = m.forward(x0, 0);
  ht::Tensor y1 = m.forward(x1, 1);
  EXPECT_EQ(m.cached_bytes(), x0.bytes() + x1.bytes());
  m.backward(ht::Tensor::ones(y1.shape()), 1);
  m.backward(ht::Tensor::ones(y0.shape()), 0);
  EXPECT_EQ(m.cached_bytes(), 0);
}

TEST(Recompute, BackwardWithoutForwardThrows) {
  const auto descs = kCfg.layer_descs();
  hm::StageModule m(descs, 1, 2, 3, kCfg.init_std);
  m.set_recompute(true);
  EXPECT_THROW(m.backward(ht::Tensor({1, 8, 16}), 7), std::logic_error);
}

TEST(Recompute, DropCacheClearsEveryLayerKind) {
  // Forward then drop on every layer type: cached_bytes must reach zero.
  const auto cfg = hm::ModelConfig::tiny(1, 16, 2, 31, 8);
  auto descs = cfg.layer_descs();
  ht::Rng rng(4);
  for (const auto& d : descs) {
    auto layer = hm::build_layer(d, 11, cfg.init_std);
    ht::Tensor x;
    if (d.type == hm::LayerDesc::Type::Embedding) {
      x = make_ids(rng, 1, 8);
    } else if (d.type == hm::LayerDesc::Type::LMHead ||
               d.type == hm::LayerDesc::Type::FinalNorm ||
               d.type == hm::LayerDesc::Type::Block) {
      x = rng.randn({1, 8, 16});
    }
    layer->forward(x, 0);
    EXPECT_GT(layer->cached_bytes(), 0) << layer->name();
    // fp32 saves are exactly twice the planner's fp16 Ma at t == seq.
    EXPECT_EQ(layer->cached_bytes(), 2 * d.activation_bytes(8))
        << layer->name();
    layer->drop_cache(0);
    EXPECT_EQ(layer->cached_bytes(), 0) << layer->name();
  }
}

TEST(Recompute, SplitHalvesSupportDropCache) {
  auto cfg = hm::ModelConfig::tiny(2, 16, 2, 31, 8);
  cfg.split_blocks = true;
  const auto descs = cfg.layer_descs();
  ht::Rng rng(5);
  ht::Tensor x = rng.randn({1, 8, 16});
  for (const auto& d : descs) {
    if (d.type != hm::LayerDesc::Type::AttnHalf &&
        d.type != hm::LayerDesc::Type::MlpHalf) {
      continue;
    }
    auto layer = hm::build_layer(d, 11, cfg.init_std);
    layer->forward(x, 0);
    EXPECT_EQ(layer->cached_bytes(), 2 * d.activation_bytes(8))
        << layer->name();
    layer->drop_cache(0);
    EXPECT_EQ(layer->cached_bytes(), 0) << layer->name();
  }
}
