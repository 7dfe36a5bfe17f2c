#pragma once
// Workload runners. Each fills the metrics of its mode (end-to-end with
// tracing off, per-layer when traced) and runs the correctness gate.

#include <cstdint>
#include <string>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  explicit RunResult(Mode mode) : metrics(mode) {}
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::string detail;  ///< one line per gate violation
};

void run_train(const WorkloadSpec& w, const RunOptions& opt, Tracer& tracer,
               RunResult& out);

/// Per-layer calls at the workload's shapes (serve-chat's for the serving
/// layers): tensor kernels, model layers, comm, KV store, data loading and
/// schedule compilation.
void measure_layers(const WorkloadSpec& w, uint64_t seed, Tracer& tracer,
                    Metrics& out);

/// Serving-layer metrics at serve-chat's traffic (its model, prompts and
/// closed loop of clients) for a short loop. Its requests count in `out`'s
/// attempted and failed.
void probe_serving_runtime(uint64_t seed, Tracer& tracer, RunResult& out);

}  // namespace perfbench
