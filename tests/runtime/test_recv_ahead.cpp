// runtime::RecvAhead — the one receive prefetcher behind the Trainer's
// Worker, the AsyncTrainer's stage workers and the serving InferWorker.
//
// Prefetch depth is a pure latency knob: every depth must give the same
// numbers, bit for bit, on every engine. A negative depth is a
// configuration error caught at construction, and an absurdly large one
// must not cost memory: the ring of posted receives is bounded by the
// script's receive count, not by the depth. A prefetch bug shows up as a
// peer blocked in recv, so this target runs under a CTest timeout.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/communicator.hpp"
#include "core/hanayo.hpp"
#include "runtime/async_trainer.hpp"
#include "runtime/infer.hpp"
#include "runtime/recv_ahead.hpp"
#include "runtime/trainer.hpp"
#include "tensor/alloc_stats.hpp"

using namespace hanayo;
using runtime::AsyncTrainer;
using runtime::AsyncTrainerConfig;
using runtime::Completion;
using runtime::InferConfig;
using runtime::InferencePipeline;
using runtime::InferenceServer;
using runtime::RecvAhead;
using tensor::Tensor;

namespace {

const std::vector<int> kDepths = {0, 1, 2, 16};

AsyncTrainerConfig async_config(int depth) {
  AsyncTrainerConfig cfg;
  cfg.model = ModelConfig::tiny(/*layers=*/6, /*hidden=*/16, /*heads=*/2,
                                /*vocab=*/29, /*seq=*/6);
  cfg.P = 3;
  cfg.micro_batches = 4;
  cfg.seed = 21;
  cfg.lr = 0.05f;
  cfg.prefetch_depth = depth;
  return cfg;
}

InferConfig serving_config(int depth, int dp) {
  InferConfig cfg;
  cfg.model = ModelConfig::tiny(/*layers=*/6, /*hidden=*/32, /*heads=*/2,
                                /*vocab=*/67, /*seq=*/24);
  cfg.sched.algo = schedule::Algo::Hanayo;
  cfg.sched.P = 2;
  cfg.sched.waves = 1;
  cfg.dp = dp;
  cfg.max_batch = 3;
  cfg.max_new_tokens = 6;
  cfg.seed = 17;
  cfg.prefetch_depth = depth;
  return cfg;
}

/// Five prompts of different lengths, so passes batch several streams.
std::vector<Tensor> prompts() {
  std::vector<Tensor> out;
  for (int r = 0; r < 5; ++r) {
    Tensor p({1, 2 + r});
    for (int64_t i = 0; i < p.numel(); ++i) {
      p[i] = static_cast<float>((7 * r + 3 * i + 1) % 67);
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Every request's tokens, in request-id order, separated by -1.
template <class Engine>
std::vector<int64_t> serve(Engine& engine) {
  for (const Tensor& p : prompts()) engine.enqueue(p, 6);
  std::vector<int64_t> flat;
  for (const Completion& c : engine.drain()) {
    flat.insert(flat.end(), c.tokens.begin(), c.tokens.end());
    flat.push_back(-1);
  }
  return flat;
}

std::vector<uint32_t> bits(const std::vector<float>& v) {
  std::vector<uint32_t> out;
  for (float f : v) out.push_back(std::bit_cast<uint32_t>(f));
  return out;
}

}  // namespace

TEST(RecvAhead, AsyncTrainerLossesAreBitwiseEqualAcrossDepths) {
  std::vector<uint32_t> ref;
  for (int depth : kDepths) {
    const AsyncTrainerConfig cfg = async_config(depth);
    AsyncTrainer trainer(cfg);
    Rng rng(4);
    const Batch batch = synthetic_batch(cfg.model, trainer.batch_rows(), rng);
    const std::vector<uint32_t> got = bits(trainer.train(batch, /*steps=*/3));
    if (ref.empty()) {
      ref = got;
    } else {
      EXPECT_EQ(got, ref) << "depth " << depth;
    }
  }
}

TEST(RecvAhead, PipelineTokensAreIdenticalAcrossDepths) {
  std::vector<int64_t> ref;
  for (int depth : kDepths) {
    InferencePipeline pipe(serving_config(depth, /*dp=*/1));
    const std::vector<int64_t> got = serve(pipe);
    if (ref.empty()) {
      ref = got;
    } else {
      EXPECT_EQ(got, ref) << "depth " << depth;
    }
  }
}

TEST(RecvAhead, DataParallelServerTokensAreIdenticalAcrossDepths) {
  std::vector<int64_t> ref;
  for (int depth : kDepths) {
    InferenceServer server(serving_config(depth, /*dp=*/2));
    const std::vector<int64_t> got = serve(server);
    if (ref.empty()) {
      ref = got;
    } else {
      EXPECT_EQ(got, ref) << "depth " << depth;
    }
  }
}

TEST(RecvAhead, NegativeDepthIsRejectedByEveryEngine) {
  EXPECT_THROW(RecvAhead{-1}, std::invalid_argument);

  runtime::TrainerConfig tc;
  tc.model = ModelConfig::tiny(4, 16, 2, 29, 6);
  tc.sched.algo = schedule::Algo::Hanayo;
  tc.sched.P = 2;
  tc.sched.B = 2;
  tc.sched.waves = 1;
  tc.prefetch_depth = -1;
  EXPECT_THROW(runtime::Trainer{tc}, std::invalid_argument);

  EXPECT_THROW(AsyncTrainer{async_config(-1)}, std::invalid_argument);
  EXPECT_THROW(InferencePipeline{serving_config(-1, 1)},
               std::invalid_argument);
  EXPECT_THROW(InferenceServer{serving_config(-1, 2)}, std::invalid_argument);
}

TEST(RecvAhead, HugeDepthCostsNoConstructionMemory) {
  const auto construction_bytes = [](int depth) {
    const int64_t before = tensor::alloc_stats().bytes;
    InferencePipeline pipe(serving_config(depth, /*dp=*/1));
    return tensor::alloc_stats().bytes - before;
  };
  (void)construction_bytes(2);  // first-use statics and pools
  const int64_t shallow = construction_bytes(2);
  const int64_t huge = construction_bytes(1 << 20);
  EXPECT_LT(huge - shallow, int64_t{64} << 10)
      << "depth 2: " << shallow << " B, depth 2^20: " << huge << " B";

  // ...and such a pipeline still serves the same tokens.
  InferencePipeline deep(serving_config(1 << 20, /*dp=*/1));
  InferencePipeline shallow_pipe(serving_config(2, /*dp=*/1));
  EXPECT_EQ(serve(deep), serve(shallow_pipe));
}

TEST(RecvAhead, TakeOutOfScriptOrderThrows) {
  // Device 0 receives two activations from device 1.
  schedule::DeviceScript script;
  script.device = 0;
  for (int mb = 0; mb < 2; ++mb) {
    schedule::Action a;
    a.op = schedule::Op::RecvAct;
    a.mb = mb;
    a.pos = 1;
    a.peer = 1;
    script.actions.push_back(a);
  }
  schedule::Action fwd;
  fwd.op = schedule::Op::Forward;
  script.actions.push_back(fwd);

  comm::World world(2);
  comm::Communicator me(&world, 0);
  comm::Communicator peer(&world, 1);
  RecvAhead recv(/*depth=*/2);
  recv.start(script, me, /*peer_base=*/0);

  EXPECT_THROW(recv.take(1), std::logic_error);  // action 0 is due first
  EXPECT_THROW(recv.take(2), std::logic_error);  // nor is a later action

  // The failed calls left the window intact: both receives still land.
  for (int mb = 0; mb < 2; ++mb) {
    peer.send(0, comm::make_tag(comm::Kind::Activation, mb, 0),
              Tensor({1}, static_cast<float>(10 + mb)));
  }
  EXPECT_EQ(recv.take(0)[0], 10.0f);
  EXPECT_EQ(recv.take(1)[0], 11.0f);
}
