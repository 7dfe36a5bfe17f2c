// Microbenchmarks of the collective algorithms and the fp16 codec — the
// communication substrate the wave runtime and the ZeRO-1 flush sit on.
// BM_AllreducePerTensor / BM_AllreduceCoalesced compare one Naive allreduce
// per gradient tensor with the flush's one coalesced allreduce per chunk.

#include <benchmark/benchmark.h>

#include <functional>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/fp16.hpp"

namespace hc = hanayo::comm;
namespace ht = hanayo::tensor;

namespace {

/// Runs `fn` once per rank on its own thread and waits for all of them.
void run_group(int n, const std::function<void(hc::Communicator&)>& fn) {
  hc::World world(n);
  std::vector<std::thread> ts;
  for (int r = 0; r < n; ++r) {
    ts.emplace_back([&world, r, &fn] {
      hc::Communicator c(&world, r);
      fn(c);
    });
  }
  for (auto& t : ts) t.join();
}

hc::Group full_group(int n) {
  hc::Group g;
  for (int r = 0; r < n; ++r) g.ranks.push_back(r);
  return g;
}

void bm_allreduce(benchmark::State& state, hc::AllreduceAlgo algo) {
  const int n = static_cast<int>(state.range(0));
  const int64_t numel = state.range(1);
  const hc::Group g = full_group(n);
  for (auto _ : state) {
    run_group(n, [&](hc::Communicator& c) {
      ht::Tensor t({numel}, std::vector<float>(static_cast<size_t>(numel), 1.0f));
      hc::allreduce_sum(c, g, t, 0, algo);
      benchmark::DoNotOptimize(t.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * numel * 4 * n);
}

}  // namespace

static void BM_AllreduceNaive(benchmark::State& state) {
  bm_allreduce(state, hc::AllreduceAlgo::Naive);
}
BENCHMARK(BM_AllreduceNaive)->Args({4, 1 << 12})->Args({4, 1 << 16})->Args({8, 1 << 14});

static void BM_AllreduceRing(benchmark::State& state) {
  bm_allreduce(state, hc::AllreduceAlgo::Ring);
}
BENCHMARK(BM_AllreduceRing)->Args({4, 1 << 12})->Args({4, 1 << 16})->Args({8, 1 << 14});

static void BM_AllreduceRecursiveDoubling(benchmark::State& state) {
  bm_allreduce(state, hc::AllreduceAlgo::RecursiveDoubling);
}
BENCHMARK(BM_AllreduceRecursiveDoubling)->Args({4, 1 << 16})->Args({8, 1 << 14});

static void BM_ReduceScatterAllgather(benchmark::State& state) {
  // The ZeRO-1 flush pattern.
  const int n = static_cast<int>(state.range(0));
  const int64_t numel = state.range(1);
  const hc::Group g = full_group(n);
  for (auto _ : state) {
    run_group(n, [&](hc::Communicator& c) {
      ht::Tensor t({numel}, std::vector<float>(static_cast<size_t>(numel), 1.0f));
      ht::Tensor shard = hc::reduce_scatter_sum(c, g, t, 0);
      ht::Tensor full = hc::allgather_shards(c, g, shard, numel, 4);
      benchmark::DoNotOptimize(full.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * numel * 4 * n);
}
BENCHMARK(BM_ReduceScatterAllgather)->Args({4, 1 << 14})->Args({8, 1 << 14});

namespace {

/// One transformer Block's 12 gradient tensors at hidden `h` (ffn 4h): what
/// the training flush synchronises per block of a chunk.
std::vector<ht::Tensor> block_grads(int64_t h) {
  const int64_t f = 4 * h;
  std::vector<ht::Tensor> out;
  for (const ht::Shape& s : std::vector<ht::Shape>{
           {h}, {h}, {h, 3 * h}, {3 * h}, {h, h}, {h}, {h}, {h}, {h, f}, {f},
           {f, h}, {h}}) {
    out.emplace_back(s, 1.0f);
  }
  return out;
}

/// Data-parallel gradient sync of one block on a group of 2: rank 0 runs
/// on the benchmark thread, rank 1 on a peer thread started once per run,
/// so each iteration times the collectives alone, not thread start-up.
void bm_grad_sync(benchmark::State& state, bool coalesced) {
  const int64_t h = state.range(0);
  hc::World world(2);
  const hc::Group g = full_group(2);
  // Both ranks' gradients are made before the peer starts.
  std::vector<ht::Tensor> grads[2] = {block_grads(h), block_grads(h)};
  std::vector<ht::Tensor*> ptrs[2];
  for (int r = 0; r < 2; ++r) {
    for (ht::Tensor& t : grads[r]) ptrs[r].push_back(&t);
  }
  const auto sync = [&](hc::Communicator& c) {
    const int r = c.rank();
    if (coalesced) {
      hc::allreduce_sum(c, g, ptrs[r], 0);
    } else {
      for (size_t i = 0; i < grads[r].size(); ++i) {
        hc::allreduce_sum(c, g, grads[r][i], static_cast<int>(2 * i));
      }
    }
  };
  const benchmark::IterationCount iters = state.max_iterations;
  std::thread peer([&] {
    hc::Communicator c(&world, 1);
    for (benchmark::IterationCount i = 0; i < iters; ++i) sync(c);
  });
  hc::Communicator c(&world, 0);
  int64_t bytes = 0;
  for (const ht::Tensor& t : grads[0]) bytes += t.bytes();
  for (auto _ : state) {
    sync(c);
    benchmark::DoNotOptimize(grads[0].front().data());
    benchmark::ClobberMemory();
  }
  peer.join();
  state.SetBytesProcessed(state.iterations() * bytes * 2);
}

}  // namespace

static void BM_AllreducePerTensor(benchmark::State& state) {
  bm_grad_sync(state, /*coalesced=*/false);
}
BENCHMARK(BM_AllreducePerTensor)->Arg(32)->Arg(128)->UseRealTime();

static void BM_AllreduceCoalesced(benchmark::State& state) {
  bm_grad_sync(state, /*coalesced=*/true);
}
BENCHMARK(BM_AllreduceCoalesced)->Arg(32)->Arg(128)->UseRealTime();

static void BM_Fp16Pack(benchmark::State& state) {
  ht::Tensor t({state.range(0)});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = 0.001f * static_cast<float>(i);
  for (auto _ : state) {
    ht::Tensor packed = hc::pack_fp16(t);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(state.iterations() * t.numel() * 4);
}
BENCHMARK(BM_Fp16Pack)->Arg(1 << 12)->Arg(1 << 18);

static void BM_Fp16RoundTrip(benchmark::State& state) {
  ht::Tensor t({state.range(0)});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = 0.001f * static_cast<float>(i);
  for (auto _ : state) {
    ht::Tensor back = hc::unpack_fp16(hc::pack_fp16(t));
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * t.numel() * 4);
}
BENCHMARK(BM_Fp16RoundTrip)->Arg(1 << 12)->Arg(1 << 16);

BENCHMARK_MAIN();
