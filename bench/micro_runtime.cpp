// google-benchmark microbenchmarks: real threaded execution of one training
// iteration under each schedule on a tiny model — the end-to-end cost of
// the action-list interpreter, prefetching and gradient sync.

#include <benchmark/benchmark.h>

#include "core/hanayo.hpp"

using namespace hanayo;

namespace {

void run_bench(benchmark::State& state, Algo algo, int W) {
  const int P = static_cast<int>(state.range(0));
  const int B = 8;
  // 14 blocks -> 17 partitionable layers: enough for Hanayo W=2 on P=4
  // (16 stages), the deepest configuration in the sweep.
  const ModelConfig model = ModelConfig::tiny(/*layers=*/14, /*hidden=*/32,
                                              /*heads=*/2, /*vocab=*/101,
                                              /*seq=*/8);
  Session session = Session::builder()
                        .model(model)
                        .algo(algo)
                        .pipeline(P)
                        .micro_batches(B)
                        .waves(W)
                        .vchunks(W)
                        .seed(1)
                        .learning_rate(0.01f)
                        .build();
  Rng rng(2);
  const Batch batch = synthetic_batch(model, session.batch_rows(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.step(batch).loss);
  }
  state.SetItemsProcessed(state.iterations() * B);
}

}  // namespace

static void BM_TrainStep_GPipe(benchmark::State& state) {
  run_bench(state, Algo::GPipe, 1);
}
static void BM_TrainStep_Dapple(benchmark::State& state) {
  run_bench(state, Algo::Dapple, 1);
}
static void BM_TrainStep_ChimeraWave(benchmark::State& state) {
  run_bench(state, Algo::ChimeraWave, 1);
}
static void BM_TrainStep_Hanayo2(benchmark::State& state) {
  run_bench(state, Algo::Hanayo, 2);
}
// UseRealTime: the pipeline workers run on gang threads while the driving
// thread mostly waits, so its CPU time is a small fraction of a step and
// items_per_second derived from it is inflated many times over. Wall
// clock is the honest denominator.
BENCHMARK(BM_TrainStep_GPipe)
    ->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainStep_Dapple)
    ->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainStep_ChimeraWave)
    ->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainStep_Hanayo2)
    ->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

static void BM_SequentialReference(benchmark::State& state) {
  const auto model = ModelConfig::tiny(12, 32, 2, 101, 8);
  Session session = Session::builder()
                        .model(model)
                        .micro_batches(8)
                        .seed(1)
                        .learning_rate(0.01f)
                        .backend(BackendKind::Reference)
                        .build();
  Rng rng(3);
  const Batch batch = synthetic_batch(model, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.step(batch).loss);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SequentialReference)->UseRealTime()->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
