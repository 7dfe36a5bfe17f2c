// GEMM kernel microbenchmarks: seed-naive baseline vs the blocked kernels.
//
// The `Naive*` benchmarks are verbatim copies of the seed's triple-loop
// matmuls (including their data-dependent zero-skip branches), kept here so
// the before/after speedup stays measurable in-repo after tensor/ops.cpp
// moved onto tensor/kernels.hpp. `Blocked*` runs the production kernels;
// the `/threads:N` variants measure the intra-op pool (on a single-core CI
// container they time-slice and show no speedup — run on real hardware for
// scaling numbers).
//
//   ./bench/micro_gemm --benchmark_format=json --benchmark_out=BENCH_gemm.json
//
// items_per_second is FLOP/s (2*m*n*k per multiply). The JSON context's
// `gemm_isa` names the micro-kernel variant the host dispatched to.

#include <benchmark/benchmark.h>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

namespace {

// ---- seed baselines (src/tensor/ops.cpp as of the v0 seed) --------------

ht::Tensor naive_matmul(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

ht::Tensor naive_matmul_bt(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  ht::Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

ht::Tensor naive_matmul_at(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a.data() + kk * m;
    const float* brow = b.data() + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.data() + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

void set_flops(benchmark::State& state, int64_t n) {
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

}  // namespace

// ---- matmul -------------------------------------------------------------

static void BM_NaiveMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmul)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  ht::IntraOpScope scope(threads);
  ht::Rng rng(1);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::kernels::gemm(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
// UseRealTime: with the intra-op pool the main thread's CPU time covers
// only its own chunk, which would overstate threaded throughput; wall
// clock is the honest denominator.
BENCHMARK(BM_BlockedMatmul)
    ->ArgsProduct({{128, 256, 512}, {1}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlockedMatmul)
    ->ArgsProduct({{512}, {2, 4}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- transposed variants ------------------------------------------------

static void BM_NaiveMatmulBt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(2);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_bt(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmulBt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmulBt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(2);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::kernels::gemm_bt(n, n, n, a.data(), n, b.data(), n, c.data(), n,
                         false);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_BlockedMatmulBt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_NaiveMatmulAt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_at(a, b));
  set_flops(state, n);
}
BENCHMARK(BM_NaiveMatmulAt)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_BlockedMatmulAt(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(3);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor c({n, n});
  for (auto _ : state) {
    ht::kernels::gemm_at(n, n, n, a.data(), n, b.data(), n, c.data(), n,
                         false);
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_BlockedMatmulAt)->Arg(512)->Unit(benchmark::kMillisecond);

// ---- large-k decode shapes ---------------------------------------------
//
// Skinny m, wide k (hidden -> vocab projections): the micro-kernel reads A
// in place with a stride of k floats per row.

static void BM_MatmulLargeK(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = 256;
  ht::IntraOpScope scope(1);
  ht::Rng rng(5);
  ht::Tensor a = rng.randn({m, k});
  ht::Tensor b = rng.randn({k, n});
  ht::Tensor c({m, n});
  for (auto _ : state) {
    ht::kernels::gemm(m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_MatmulLargeK)
    ->ArgsProduct({{8, 64}, {1024, 4096}})
    ->ArgNames({"m", "k"})
    ->Unit(benchmark::kMillisecond);

// ---- Linear layer shapes (hidden 128, 32 rows per micro-batch) ----------
//
// The three gemms of model::Linear at the train-wide perfbench model's
// widths: fwd y = x W (gemm), dx = dy W^T (gemm_bt), dW += x^T dy
// (gemm_at, accumulating). Arguments are the layer's (rows, out, in) —
// qkv 384/128, fc1 512/128, fc2 128/512 — and every row does 2*rows*out*in
// FLOPs, so the three passes of one layer compare directly.

namespace {

struct LinearOperands {
  int64_t rows, out, in;
  ht::Tensor x, w, dy, y, dx, dw;
  explicit LinearOperands(const benchmark::State& state)
      : rows(state.range(0)), out(state.range(1)), in(state.range(2)) {
    ht::Rng rng(6);
    x = rng.randn({rows, in});
    w = rng.randn({in, out});
    dy = rng.randn({rows, out});
    y = ht::Tensor({rows, out});
    dx = ht::Tensor({rows, in});
    dw = ht::Tensor({in, out});
  }
  int64_t flops() const { return 2 * rows * out * in; }
};

void linear_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "out", "in"})
      ->Args({32, 384, 128})
      ->Args({32, 512, 128})
      ->Args({32, 128, 512})
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

static void BM_LinearFwd(benchmark::State& state) {
  ht::IntraOpScope scope(1);
  LinearOperands o(state);
  for (auto _ : state) {
    ht::kernels::gemm(o.rows, o.out, o.in, o.x.data(), o.in, o.w.data(),
                      o.out, o.y.data(), o.out, false);
    benchmark::DoNotOptimize(o.y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * o.flops());
}
BENCHMARK(BM_LinearFwd)->Apply(linear_shapes);

static void BM_LinearDx(benchmark::State& state) {
  ht::IntraOpScope scope(1);
  LinearOperands o(state);
  for (auto _ : state) {
    ht::kernels::gemm_bt(o.rows, o.in, o.out, o.dy.data(), o.out, o.w.data(),
                         o.out, o.dx.data(), o.in, false);
    benchmark::DoNotOptimize(o.dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * o.flops());
}
BENCHMARK(BM_LinearDx)->Apply(linear_shapes);

static void BM_LinearDw(benchmark::State& state) {
  ht::IntraOpScope scope(1);
  LinearOperands o(state);
  for (auto _ : state) {
    ht::kernels::gemm_at(o.in, o.out, o.rows, o.x.data(), o.in, o.dy.data(),
                         o.out, o.dw.data(), o.out, true);
    benchmark::DoNotOptimize(o.dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * o.flops());
}
BENCHMARK(BM_LinearDw)->Apply(linear_shapes);

// ---- accumulate forms (gradient path: no temporary, no zero pass) -------

static void BM_MatmulAtAccum(benchmark::State& state) {
  const int64_t n = state.range(0);
  ht::IntraOpScope scope(1);
  ht::Rng rng(4);
  ht::Tensor a = rng.randn({n, n});
  ht::Tensor b = rng.randn({n, n});
  ht::Tensor grad({n, n});
  for (auto _ : state) {
    ht::kernels::gemm_at(n, n, n, a.data(), n, b.data(), n, grad.data(), n,
                         true);
    benchmark::DoNotOptimize(grad.data());
  }
  set_flops(state, n);
}
BENCHMARK(BM_MatmulAtAccum)->Arg(256)->Unit(benchmark::kMillisecond);

// BENCHMARK_MAIN plus the GEMM ISA the run dispatched to, so every
// BENCH_gemm JSON says which micro-kernel its numbers measure.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("gemm_isa", ht::kernels::gemm_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
