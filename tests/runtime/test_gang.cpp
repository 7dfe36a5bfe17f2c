// runtime::Gang — the runtime's single fork/join primitive — plus the two
// bad-token-id regressions it sits next to: a training step or a serving
// drain that dispatched an out-of-vocabulary id used to hang (one stage
// threw, its peers blocked in recv forever). Both are now rejected with
// std::invalid_argument before any work is dispatched.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hanayo.hpp"
#include "runtime/async_trainer.hpp"
#include "runtime/gang.hpp"
#include "runtime/infer.hpp"
#include "runtime/trainer.hpp"
#include "tensor/alloc_stats.hpp"

using namespace hanayo;
using runtime::Gang;
using tensor::AllocStats;
using tensor::Tensor;

TEST(Gang, EveryIndexRunsExactlyOncePerRun) {
  constexpr int kN = 4;
  constexpr int kEpochs = 1000;
  Gang gang(kN);
  std::vector<std::atomic<int>> hits(kN);
  for (int e = 0; e < kEpochs; ++e) {
    gang.run([&](int64_t i, int64_t end) {
      EXPECT_EQ(end, i + 1);
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    // run() returned, so every member of this epoch has finished.
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), e + 1)
          << "index " << i << " at epoch " << e;
    }
  }
}

TEST(Gang, IndexZeroRunsOnTheCallingThread) {
  Gang gang(3);
  std::vector<std::thread::id> ids(3);
  gang.run([&](int64_t i, int64_t) {
    ids[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_NE(ids[1], std::this_thread::get_id());
  EXPECT_NE(ids[2], std::this_thread::get_id());
  EXPECT_NE(ids[1], ids[2]);
}

namespace {

// Live threads of this process (Linux /proc); -1 where unavailable.
int process_threads() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace

TEST(Gang, SizeOneSpawnsNoThread) {
  // Let threads joined by earlier tests finish exiting, so the counts
  // below only move because of the gangs constructed here.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int base = process_threads();
  if (base < 0) GTEST_SKIP() << "no /proc/self/status";
  {
    Gang solo(1);
    EXPECT_EQ(process_threads(), base);
    std::thread::id ran_on;
    solo.run([&](int64_t, int64_t) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
  {
    Gang trio(3);  // positive control: n - 1 threads
    EXPECT_EQ(process_threads(), base + 2);
  }
}

TEST(Gang, RethrowsFirstErrorOnlyAfterEveryMemberReturned) {
  constexpr int kN = 4;
  Gang gang(kN);
  std::atomic<int> returned{0};
  try {
    gang.run([&](int64_t i, int64_t) {
      if (i == 1 || i == 3) {
        returned.fetch_add(1);
        throw std::runtime_error("member " + std::to_string(i));
      }
      // The non-throwing members finish well after the throwers, so a
      // premature rethrow would see returned < kN.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      returned.fetch_add(1);
    });
    FAIL() << "run() swallowed the members' exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(returned.load(), kN);
    const std::string what = e.what();
    EXPECT_TRUE(what == "member 1" || what == "member 3") << what;
  }

  // The gang survives the failure: the next run is clean and complete.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(gang.run([&](int64_t, int64_t) { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), kN);
}

TEST(Gang, SteadyStateRunIsAllocationFree) {
  Gang gang(4);
  std::atomic<int64_t> sum{0};
  const auto body = [&](int64_t i, int64_t) { sum.fetch_add(i); };
  gang.run(body);  // warm-up: first wake of every member
  const AllocStats before = tensor::alloc_stats();
  for (int e = 0; e < 200; ++e) gang.run(body);
  const AllocStats d = tensor::alloc_stats() - before;
  EXPECT_EQ(d.allocs, 0);
  EXPECT_EQ(sum.load(), 201 * (0 + 1 + 2 + 3));
}

namespace {

// Counts exits of threads that touched the thread_local below: its
// destructor runs as the thread terminates, before a join can return.
std::atomic<int> g_exited{0};
struct ExitProbe {
  ~ExitProbe() { g_exited.fetch_add(1); }
};
thread_local ExitProbe t_probe;

}  // namespace

TEST(Gang, DestructorJoinsIdleGang) {
  { Gang never_ran(3); }  // idle from birth: must not hang

  g_exited.store(0);
  {
    Gang gang(3);
    gang.run([&](int64_t i, int64_t) {
      if (i > 0) (void)&t_probe;  // odr-use: constructs the member's probe
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(g_exited.load(), 0);  // members idle, not exited
  }
  EXPECT_EQ(g_exited.load(), 2);  // ~Gang joined both member threads
}

TEST(Gang, NestedGangsRunInsideMembers) {
  // A server drain runs each replica's pipeline passes on an inner gang
  // from inside an outer gang member; both take Rank::Gang, one after the
  // other (checked under HANAYO_SYNC_CHECKS).
  Gang outer(2);
  Gang inner_a(2);
  Gang inner_b(2);
  std::atomic<int> ran{0};
  for (int e = 0; e < 50; ++e) {
    outer.run([&](int64_t o, int64_t) {
      Gang& inner = o == 0 ? inner_a : inner_b;
      inner.run([&](int64_t, int64_t) { ran.fetch_add(1); });
    });
  }
  EXPECT_EQ(ran.load(), 50 * 4);
}

// ---------------------------------------------------- bad-id regressions

TEST(BadTokenIds, TrainStepRejectsOutOfVocabIdsInsteadOfHanging) {
  runtime::TrainerConfig tc;
  tc.model = ModelConfig::tiny(8, 16, 2, 37, 6);
  tc.sched.algo = schedule::Algo::GPipe;
  tc.sched.P = 2;
  tc.sched.B = 4;
  tc.seed = 17;
  runtime::Trainer trainer(tc);
  Rng rng(3);
  const Batch good = synthetic_batch(tc.model, trainer.batch_rows(), rng);

  Batch bad_input = good;
  bad_input.inputs[3] = 99.0f;
  EXPECT_THROW(trainer.train_step(bad_input), std::invalid_argument);
  Batch bad_target = good;
  bad_target.targets[5] = -1.0f;
  EXPECT_THROW(trainer.train_step(bad_target), std::invalid_argument);

  // Nothing was dispatched, so the trainer is still usable.
  EXPECT_TRUE(std::isfinite(trainer.train_step(good)));
}

TEST(BadTokenIds, AsyncTrainRejectsOutOfVocabIds) {
  runtime::AsyncTrainerConfig cfg;
  cfg.model = ModelConfig::tiny(6, 16, 2, 29, 6);
  cfg.P = 2;
  cfg.micro_batches = 4;
  runtime::AsyncTrainer trainer(cfg);
  Rng rng(4);
  Batch batch = synthetic_batch(cfg.model, trainer.batch_rows(), rng);
  batch.inputs[0] = 29.0f;
  EXPECT_THROW(trainer.train(batch, 1), std::invalid_argument);
}

TEST(BadTokenIds, EnqueueRejectsOutOfVocabPromptInsteadOfHangingDrain) {
  runtime::InferConfig cfg;
  cfg.model = ModelConfig::tiny(6, 32, 2, 67, 32);
  cfg.sched.algo = schedule::Algo::Hanayo;
  cfg.sched.P = 2;
  cfg.sched.waves = 1;
  cfg.max_batch = 2;
  cfg.max_new_tokens = 3;
  runtime::InferencePipeline pipe(cfg);

  Tensor bad({1, 3});
  bad[0] = 1.0f;
  bad[1] = 99.0f;
  bad[2] = 2.0f;
  EXPECT_THROW(pipe.enqueue(bad), std::invalid_argument);
  // Thrown before the request was counted: conservation stays exact.
  EXPECT_EQ(pipe.stats().submitted, 0);
  EXPECT_TRUE(pipe.drain().empty());

  Tensor good({1, 3});
  good[0] = 1.0f;
  good[1] = 5.0f;
  good[2] = 2.0f;
  pipe.enqueue(good);
  const auto done = pipe.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front().tokens.size(), 3u);
  EXPECT_EQ(pipe.stats().submitted, 1);
}
