// google-benchmark microbenchmarks for the tensor substrate.

#include <benchmark/benchmark.h>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

static void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

static void BM_MatmulThreaded(benchmark::State& state) {
  const int64_t n = 512;
  ht::IntraOpScope scope(static_cast<int>(state.range(0)));
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
// Wall clock: the main thread's CPU time covers only its own chunk of the
// intra-op pool's work, which would overstate threaded throughput.
BENCHMARK(BM_MatmulThreaded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void BM_Transpose(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(5);
  ht::Tensor a = rng.randn({n, n});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::transpose(a));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024);

static void BM_AddBias(benchmark::State& state) {
  ht::Rng rng(6);
  ht::Tensor a = rng.randn({512, 512});
  ht::Tensor bias = rng.randn({512});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::add_bias(a, bias));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_AddBias);

static void BM_ColSum(benchmark::State& state) {
  ht::Rng rng(7);
  ht::Tensor a = rng.randn({512, 512});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::col_sum(a));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_ColSum);

static void BM_MatmulBt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::matmul_bt(a, b));
  }
}
BENCHMARK(BM_MatmulBt)->Arg(64);

static void BM_Softmax(benchmark::State& state) {
  ht::Rng rng(2);
  ht::Tensor a = rng.randn({256, 256});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::softmax_lastdim(a));
  }
}
BENCHMARK(BM_Softmax);

static void BM_Gelu(benchmark::State& state) {
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({1 << 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::gelu(a));
  }
}
BENCHMARK(BM_Gelu);

static void BM_GeluGrad(benchmark::State& state) {
  ht::Rng rng(3);
  ht::Tensor x = rng.randn({1 << 16});
  ht::Tensor dy = rng.randn({1 << 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::gelu_grad(x, dy));
  }
}
BENCHMARK(BM_GeluGrad);

static void BM_Randn(benchmark::State& state) {
  ht::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.randn({1 << 12}));
  }
}
BENCHMARK(BM_Randn);

BENCHMARK_MAIN();
