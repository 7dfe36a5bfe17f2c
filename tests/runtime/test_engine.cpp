// SequentialEngine::eval is forward-only: it leaves the gradients a caller
// has accumulated untouched, frees every forward cache, and returns the
// mean cross-entropy of plain forwards over the batch's micro-batches; a
// batch that does not split into whole micro-batches is rejected.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/hanayo.hpp"
#include "runtime/worker.hpp"

using namespace hanayo;

namespace {
const ModelConfig kModel = ModelConfig::tiny(/*layers=*/6, /*hidden=*/16,
                                             /*heads=*/2, /*vocab=*/37,
                                             /*seq=*/5);
constexpr int kMicroBatches = 3;
constexpr int kMbSequences = 2;
constexpr uint64_t kSeed = 21;
}  // namespace

TEST(SequentialEngine, EvalIsForwardOnly) {
  for (bool recompute : {false, true}) {
    runtime::SequentialEngine eng(kModel, kMicroBatches, kMbSequences, kSeed,
                                  OptKind::Sgd, 0.1f);
    eng.module().set_recompute(recompute);
    Rng rng(4);
    const Batch batch =
        synthetic_batch(kModel, kMicroBatches * kMbSequences, rng);

    // A caller mid-accumulation: one manual forward/backward leaves
    // nonzero gradients behind.
    const auto [loss0, dlogits] = model::cross_entropy(
        eng.module().forward(runtime::slice_rows(batch.inputs, 0,
                                                 kMbSequences),
                             0),
        runtime::slice_rows(batch.targets, 0, kMbSequences));
    eng.module().backward(dlogits, 0);
    std::vector<tensor::Tensor> grads;
    bool any_nonzero = false;
    for (const model::Param* p : eng.module().params()) {
      grads.push_back(p->grad);
      for (float g : p->grad.flat()) any_nonzero |= g != 0.0f;
    }
    ASSERT_TRUE(any_nonzero);

    const float loss = eng.eval(batch);

    const auto params = eng.module().params();
    ASSERT_EQ(params.size(), grads.size());
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(grads[i].data(), params[i]->grad.data(),
                               static_cast<size_t>(grads[i].bytes())))
          << "param " << i << " recompute=" << recompute;
    }
    EXPECT_EQ(eng.module().cached_bytes(), 0) << "recompute=" << recompute;

    // Same weights, plain forwards over the same rows.
    model::StageModule ref(kModel.layer_descs(), 0,
                           static_cast<int>(kModel.layer_descs().size()),
                           kSeed, kModel.init_std);
    float total = 0.0f;
    for (int m = 0; m < kMicroBatches; ++m) {
      const int64_t row0 = static_cast<int64_t>(m) * kMbSequences;
      total += model::cross_entropy(
                   ref.forward(runtime::slice_rows(batch.inputs, row0,
                                                   kMbSequences),
                               m),
                   runtime::slice_rows(batch.targets, row0, kMbSequences))
                   .first;
    }
    EXPECT_EQ(loss, total / static_cast<float>(kMicroBatches))
        << "recompute=" << recompute;
  }
}

TEST(SequentialEngine, EvalRejectsPartialMicroBatch) {
  runtime::SequentialEngine eng(kModel, kMicroBatches, kMbSequences, kSeed,
                                OptKind::Sgd, 0.1f);
  Rng rng(5);
  const Batch batch = synthetic_batch(kModel, kMbSequences + 1, rng);
  EXPECT_THROW(eng.eval(batch), std::invalid_argument);
}
