// Heap-allocation accounting on the serving and training hot paths.
//
// The ROADMAP's end state is a zero-allocation steady-state decode; this
// test is the acceptance metric. It measures the heap allocations of one
// steady-state decode pass with the counting allocator
// (tensor/alloc_stats.hpp) and asserts the arena-era invariant: ZERO.
// Everything a pass touches — activations, attention scratch, comm frames,
// request handles, mailbox slots — comes from pass-lifetime arenas, pooled
// objects, or capacity-retaining containers that stopped growing during
// warm-up.
//
// Methodology: two drains on a warmed pipeline that differ only in their
// continuation length, so setup, prefill, admission and completion costs
// cancel exactly and the quotient is the marginal cost of one pure decode
// pass. The training probe uses the same differential trick over
// train_step() calls; its budget is measured-and-ratcheted rather than
// zero (PipeDream weight stashing and optimizer-state maps keep a small
// per-step node churn that is not on the serving latency path).

#include <gtest/gtest.h>

#include <vector>

#include "core/hanayo.hpp"
#include "model/transformer.hpp"
#include "runtime/infer.hpp"
#include "runtime/trainer.hpp"
#include "tensor/alloc_stats.hpp"

using namespace hanayo;
using runtime::InferConfig;
using runtime::InferencePipeline;
using tensor::AllocStats;
using tensor::Tensor;

namespace {

// History of this budget (P=2 Hanayo pipeline, 6-layer tiny model, greedy,
// gcc 12 / libstdc++): 221 measured at the seed (per-pass worker-thread
// spawns, per-layer activations, attention scratch, comm frames); locked
// at 384 as a regression fence; ratcheted to 0 when pass-lifetime arenas,
// the persistent worker gang, pooled comm requests and slot-vector
// mailboxes landed. Zero is an invariant now, not a headroom budget: any
// failure here means a new per-pass allocation source crept onto the
// decode hot path. Fix the source — never raise this number.
constexpr int64_t kDecodePassAllocBudget = 0;

// Steady-state training step, same differential methodology, on this
// configuration (P=2, B=4, dp=1, gcc 12 / libstdc++). History: 461 per
// step (bound 512) while the Trainer spawned and joined its worker threads
// every step; 458 (bound 458) once steps ran on a persistent runtime::Gang;
// 375-376 (bound 376, from 455-456) once the worker's (mb, pos) activation
// and gradient slots became flat vectors and posted receives a fixed
// RecvAhead ring; 307-308 (bound 308) once each LayerNorm kept one saved
// record per micro-batch instead of two map entries (17 LayerNorms x 4
// micro-batches = 68 nodes). What remains is mostly the model layers'
// per-micro-batch SavedStore map nodes, plus the parameter lists gathered
// at the flush and optimizer step and the odd mailbox queue growth.
// Tensor payloads themselves already come from the iteration arena, and
// none of this is on the serving latency path. Ratchet DOWN as
// training-side pooling grows; never raise without a CHANGES.md note.
constexpr int64_t kTrainStepAllocBudget = 308;

// The same step at dp=2, the only training configuration whose flush runs
// gradient collectives (every chunk group has two members). Locked at 664,
// measured both when every parameter ran its own allreduce and once each
// chunk's gradients moved in one coalesced allreduce: the collectives'
// payloads come from the iteration arena either way. Same ratchet rule as
// above.
constexpr int64_t kDpTrainStepAllocBudget = 664;

InferConfig tiny_serving_config() {
  InferConfig cfg;
  cfg.model = model::ModelConfig::tiny(
      /*layers=*/6, /*hidden=*/32, /*heads=*/2, /*vocab=*/67, /*seq=*/96);
  cfg.sched.algo = schedule::Algo::Hanayo;
  cfg.sched.P = 2;
  cfg.sched.waves = 1;
  cfg.max_batch = 1;
  cfg.max_new_tokens = 64;
  cfg.seed = 5;
  return cfg;
}

// Shared body: measures the marginal allocations of one steady-state
// decode pass on `cfg` (differential methodology, see file comment) and
// checks them against the budget.
void expect_decode_pass_within_budget(const InferConfig& cfg) {
  InferencePipeline pipe(cfg);
  Tensor prompt({1, 8});
  for (int64_t i = 0; i < prompt.numel(); ++i) {
    prompt[i] = static_cast<float>(1 + i);
  }

  const auto drain_with = [&](int max_new) {
    pipe.enqueue(prompt, max_new);
    const AllocStats before = tensor::alloc_stats();
    const auto done = pipe.drain();
    EXPECT_EQ(done.size(), 1u);
    EXPECT_EQ(done.front().tokens.size(), static_cast<size_t>(max_new));
    return tensor::alloc_stats() - before;
  };

  // Warm-up drain: compiles/caches the forward-only schedule, first-touch
  // grows the pass arenas and pools and the KV slot, so the measured runs
  // see steady state only. Its nonzero alloc count doubles as the proof
  // that the counting hook is live in this binary (a dead hook would make
  // the zero assertions below vacuous).
  const AllocStats warm = drain_with(4);
  ASSERT_GT(warm.allocs, 0) << "counting allocator hook inactive?";

  constexpr int kShort = 4;
  constexpr int kLong = 36;
  const AllocStats a = drain_with(kShort);
  const AllocStats b = drain_with(kLong);

  // The runs differ by exactly (kLong - kShort) pure decode passes.
  const int64_t extra_passes = kLong - kShort;
  const int64_t per_pass = (b.allocs - a.allocs) / extra_passes;

  ::testing::Test::RecordProperty("allocs_per_decode_pass",
                                  static_cast<int>(per_pass));
  EXPECT_LE(per_pass, kDecodePassAllocBudget)
      << "steady-state decode hit the heap; every pass-lifetime buffer "
         "must come from the arena (see core/hanayo.hpp contributor "
         "rules). Diagnose with tensor::alloc_stats_trace(true) around "
         "the decode region.";

  // Steady state also means no drift: what a pass allocates it frees.
  EXPECT_NEAR(static_cast<double>(b.frees - a.frees),
              static_cast<double>(b.allocs - a.allocs),
              static_cast<double>(extra_passes));
}

}  // namespace

TEST(AllocStats, CountsKnownAllocations) {
  const AllocStats before = tensor::alloc_stats();
  {
    auto v = std::vector<float>(4096);
    v[0] = 1.0f;
  }
  const AllocStats d = tensor::alloc_stats() - before;
  EXPECT_GE(d.allocs, 1);
  EXPECT_GE(d.frees, 1);
  EXPECT_GE(d.bytes, static_cast<int64_t>(4096 * sizeof(float)));
}

TEST(AllocDecode, SteadyStateDecodePassStaysWithinBudget) {
  expect_decode_pass_within_budget(tiny_serving_config());
}

TEST(AllocDecode, PagedSteadyStateDecodePassStaysWithinBudget) {
  // Zero budget with the paged KV store on the hot path too: page-table
  // lookups must not allocate in steady state — appends pop the
  // pre-reserved free list, gathers fill member scratch panels that grow
  // geometrically and then stay put.
  InferConfig cfg = tiny_serving_config();
  cfg.paged_kv = true;
  cfg.kv_page_tokens = 16;
  expect_decode_pass_within_budget(cfg);
}

TEST(AllocTrain, SteadyStateTrainStepStaysWithinBudget) {
  runtime::TrainerConfig tc;
  tc.model = model::ModelConfig::tiny(8, 16, 2, 37, 6);
  tc.sched.algo = schedule::Algo::Hanayo;
  tc.sched.P = 2;
  tc.sched.B = 4;
  tc.sched.waves = 1;
  tc.seed = 17;
  tc.lr = 0.05f;
  runtime::Trainer t(tc);
  Rng rng(3);
  const runtime::Batch batch = synthetic_batch(tc.model, t.batch_rows(), rng);

  const auto steps = [&](int n) {
    const AllocStats before = tensor::alloc_stats();
    for (int i = 0; i < n; ++i) (void)t.train_step(batch);
    return tensor::alloc_stats() - before;
  };

  // Warm-up: grows worker arenas, optimizer state and comm pools; also
  // proves the counting hook is live.
  const AllocStats warm = steps(3);
  ASSERT_GT(warm.allocs, 0) << "counting allocator hook inactive?";

  constexpr int kShort = 2;
  constexpr int kLong = 10;
  const AllocStats a = steps(kShort);
  const AllocStats b = steps(kLong);
  const int64_t per_step = (b.allocs - a.allocs) / (kLong - kShort);

  ::testing::Test::RecordProperty("allocs_per_train_step",
                                  static_cast<int>(per_step));
  EXPECT_LE(per_step, kTrainStepAllocBudget)
      << "steady-state training step allocates more than the locked "
         "baseline; re-measure and document in CHANGES.md";
  EXPECT_NEAR(static_cast<double>(b.frees - a.frees),
              static_cast<double>(b.allocs - a.allocs),
              static_cast<double>(kLong - kShort));
}

TEST(AllocTrain, SteadyStateDpTrainStepStaysWithinBudget) {
  runtime::TrainerConfig tc;
  tc.model = model::ModelConfig::tiny(8, 16, 2, 37, 6);
  tc.sched.algo = schedule::Algo::Hanayo;
  tc.sched.P = 2;
  tc.sched.B = 4;
  tc.sched.waves = 1;
  tc.dp = 2;
  tc.seed = 17;
  tc.lr = 0.05f;
  runtime::Trainer t(tc);
  Rng rng(3);
  const runtime::Batch batch = synthetic_batch(tc.model, t.batch_rows(), rng);

  const auto steps = [&](int n) {
    const AllocStats before = tensor::alloc_stats();
    for (int i = 0; i < n; ++i) (void)t.train_step(batch);
    return tensor::alloc_stats() - before;
  };
  const AllocStats warm = steps(3);
  ASSERT_GT(warm.allocs, 0) << "counting allocator hook inactive?";

  constexpr int kShort = 2;
  constexpr int kLong = 10;
  const AllocStats a = steps(kShort);
  const AllocStats b = steps(kLong);
  const int64_t per_step = (b.allocs - a.allocs) / (kLong - kShort);

  ::testing::Test::RecordProperty("allocs_per_dp_train_step",
                                  static_cast<int>(per_step));
  EXPECT_LE(per_step, kDpTrainStepAllocBudget)
      << "steady-state dp=2 training step allocates more than the locked "
         "baseline; re-measure and document in CHANGES.md";
  EXPECT_NEAR(static_cast<double>(b.frees - a.frees),
              static_cast<double>(b.allocs - a.allocs),
              static_cast<double>(kLong - kShort));
}
