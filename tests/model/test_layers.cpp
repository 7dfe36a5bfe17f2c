#include <gtest/gtest.h>

#include "model/attention.hpp"
#include "model/layers.hpp"
#include "tensor/ops.hpp"

namespace hm = hanayo::model;
namespace ht = hanayo::tensor;

TEST(Linear, ForwardShape) {
  ht::Rng rng(1);
  hm::Linear lin("l", 4, 6, rng, 0.1f);
  ht::Tensor x = rng.randn({2, 3, 4});
  ht::Tensor y = lin.forward(x, 0);
  EXPECT_EQ(y.shape(), (ht::Shape{2, 3, 6}));
  lin.backward(ht::Tensor(y.shape()), 0);
}

TEST(Linear, BiasApplied) {
  ht::Rng rng(1);
  hm::Linear lin("l", 2, 2, rng, 0.0f);  // zero weights
  lin.bias().value[0] = 3.0f;
  lin.bias().value[1] = -1.0f;
  ht::Tensor x({1, 2}, std::vector<float>{5, 7});
  ht::Tensor y = lin.forward(x, 0);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], -1.0f);
}

TEST(Linear, CachePerMicroBatch) {
  ht::Rng rng(2);
  hm::Linear lin("l", 3, 3, rng, 0.1f);
  ht::Tensor x0 = rng.randn({2, 3});
  ht::Tensor x1 = rng.randn({2, 3});
  lin.forward(x0, 0);
  EXPECT_GT(lin.cached_bytes(), 0);
  const int64_t one = lin.cached_bytes();
  lin.forward(x1, 1);
  EXPECT_EQ(lin.cached_bytes(), 2 * one);
  lin.backward(ht::Tensor({2, 3}), 1);
  EXPECT_EQ(lin.cached_bytes(), one);
  lin.backward(ht::Tensor({2, 3}), 0);
  EXPECT_EQ(lin.cached_bytes(), 0);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  ht::Rng rng(3);
  hm::Linear lin("l", 2, 2, rng, 0.1f);
  EXPECT_THROW(lin.backward(ht::Tensor({1, 2}), 5), std::logic_error);
}

TEST(Linear, GradsAccumulateAcrossMicroBatches) {
  ht::Rng rng(4);
  hm::Linear lin("l", 2, 2, rng, 0.1f);
  ht::Tensor x = ht::Tensor::ones({1, 2});
  ht::Tensor dy = ht::Tensor::ones({1, 2});
  lin.forward(x, 0);
  lin.backward(dy, 0);
  const float g1 = lin.weight().grad[0];
  lin.forward(x, 1);
  lin.backward(dy, 1);
  EXPECT_FLOAT_EQ(lin.weight().grad[0], 2.0f * g1);
}

TEST(LayerNorm, NormalisesRows) {
  hm::LayerNorm ln("ln", 8);
  ht::Rng rng(5);
  ht::Tensor x = rng.randn({4, 8}, 3.0f);
  ht::Tensor y = ln.forward(x, 0);
  for (int64_t i = 0; i < 4; ++i) {
    double mu = 0, var = 0;
    for (int64_t j = 0; j < 8; ++j) mu += y.at(i, j);
    mu /= 8;
    for (int64_t j = 0; j < 8; ++j) var += (y.at(i, j) - mu) * (y.at(i, j) - mu);
    var /= 8;
    EXPECT_NEAR(mu, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GainBiasApplied) {
  hm::LayerNorm ln("ln", 2);
  std::vector<hm::Param*> ps;
  ln.collect_params(ps);
  ps[0]->value.fill(2.0f);  // gain
  ps[1]->value.fill(1.0f);  // bias
  ht::Tensor x({1, 2}, std::vector<float>{-1, 1});
  ht::Tensor y = ln.forward(x, 0);
  EXPECT_NEAR(y[0], 2.0f * -1.0f + 1.0f, 1e-3f);
  EXPECT_NEAR(y[1], 2.0f * 1.0f + 1.0f, 1e-3f);
}

TEST(LayerNorm, BackwardWithoutForwardThrows) {
  hm::LayerNorm ln("ln", 4);
  ht::Rng rng(5);
  EXPECT_THROW(ln.backward(ht::Tensor({2, 4}), 3), std::logic_error);
  ln.forward(rng.randn({2, 4}), 3);
  ln.backward(ht::Tensor({2, 4}), 3);
  EXPECT_EQ(ln.cached_bytes(), 0);
  EXPECT_THROW(ln.backward(ht::Tensor({2, 4}), 3), std::logic_error);
}

TEST(Gelu, CacheLifecycle) {
  hm::Gelu g("g");
  ht::Rng rng(6);
  ht::Tensor x = rng.randn({3, 3});
  g.forward(x, 7);
  EXPECT_GT(g.cached_bytes(), 0);
  g.backward(ht::Tensor({3, 3}), 7);
  EXPECT_EQ(g.cached_bytes(), 0);
  EXPECT_THROW(g.backward(ht::Tensor({3, 3}), 7), std::logic_error);
}

TEST(Embedding, LookupAddsTokenAndPosition) {
  ht::Rng rng(7);
  hm::Embedding emb("e", 10, 4, 3, rng, 0.1f);
  ht::Tensor ids({1, 2}, std::vector<float>{3, 5});
  ht::Tensor y = emb.forward(ids, 0);
  EXPECT_EQ(y.shape(), (ht::Shape{1, 2, 3}));
  std::vector<hm::Param*> ps;
  emb.collect_params(ps);
  const ht::Tensor& tok = ps[0]->value;
  const ht::Tensor& pos = ps[1]->value;
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), tok.at(3, 0) + pos.at(0, 0));
  EXPECT_FLOAT_EQ(y.at(0, 1, 2), tok.at(5, 2) + pos.at(1, 2));
}

TEST(Embedding, OutOfVocabThrows) {
  ht::Rng rng(8);
  hm::Embedding emb("e", 10, 4, 3, rng, 0.1f);
  ht::Tensor ids({1, 1}, std::vector<float>{10});
  EXPECT_THROW(emb.forward(ids, 0), std::out_of_range);
}

TEST(Embedding, BackwardScattersIntoRows) {
  ht::Rng rng(9);
  hm::Embedding emb("e", 6, 4, 2, rng, 0.1f);
  ht::Tensor ids({1, 2}, std::vector<float>{4, 4});
  emb.forward(ids, 0);
  ht::Tensor dy({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  ht::Tensor dx = emb.backward(dy, 0);
  EXPECT_TRUE(dx.empty());
  std::vector<hm::Param*> ps;
  emb.collect_params(ps);
  // token 4 receives both positions' gradients
  EXPECT_FLOAT_EQ(ps[0]->grad.at(4, 0), 4.0f);
  EXPECT_FLOAT_EQ(ps[0]->grad.at(4, 1), 6.0f);
  // position grads
  EXPECT_FLOAT_EQ(ps[1]->grad.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(ps[1]->grad.at(1, 0), 3.0f);
}

TEST(Embedding, BackwardWithoutForwardThrows) {
  ht::Rng rng(9);
  hm::Embedding emb("e", 6, 4, 2, rng, 0.1f);
  EXPECT_THROW(emb.backward(ht::Tensor({1, 2, 2}), 1), std::logic_error);
  emb.forward(ht::Tensor({1, 2}, std::vector<float>{1, 2}), 1);
  emb.backward(ht::Tensor({1, 2, 2}), 1);
  EXPECT_EQ(emb.cached_bytes(), 0);
  EXPECT_THROW(emb.backward(ht::Tensor({1, 2, 2}), 1), std::logic_error);
}

TEST(MultiHeadAttention, BackwardWithoutForwardThrows) {
  ht::Rng rng(11);
  hm::MultiHeadAttention mha("a", 8, 2, /*causal=*/true, rng, 0.1f);
  EXPECT_THROW(mha.backward(ht::Tensor({1, 3, 8}), 2), std::logic_error);
  EXPECT_EQ(mha.cached_bytes(), 0);  // the throw touched no projection
  mha.forward(rng.randn({1, 3, 8}), 2);
  mha.backward(ht::Tensor({1, 3, 8}), 2);
  EXPECT_EQ(mha.cached_bytes(), 0);
  EXPECT_THROW(mha.backward(ht::Tensor({1, 3, 8}), 2), std::logic_error);
}

TEST(Embedding, TooLongSequenceThrows) {
  ht::Rng rng(10);
  hm::Embedding emb("e", 6, 2, 2, rng, 0.1f);
  ht::Tensor ids({1, 3}, std::vector<float>{0, 1, 2});
  EXPECT_THROW(emb.forward(ids, 0), std::invalid_argument);
}
