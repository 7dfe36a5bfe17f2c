#pragma once
// Every metric the benchmark can emit, with its unit and the end-to-end
// metric (and workload) a change to its layer should move. This table is
// the single definition: BENCHMARK.json declares the same names (the
// benchmark's tests check it), and a run refuses to emit a name missing
// here or to leave one out.
//
// End-to-end metrics (every declared workload):
//   tok_per_s      step tokens / median loop iteration (data + step)
//   step_ms_p50    Session::step wall
//   setup_s        build + warm-up steps, median of fresh set-ups
//   peak_rss_mb    getrusage max RSS
//   peak_cache_mb  activation cache, max over ranks
//
// The serving layers are measured at serve-chat's traffic, a workload that
// is not declared (it did not settle on a shared host). Their targets name
// the serve-chat metrics a change should move once it is declared again;
// on train-* the prediction is "no change".

#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Mode { EndToEnd, PerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Mode mode;
  /// Per-layer only: the end-to-end metric and workload this layer metric
  /// should move; on other workloads the prediction is "no change".
  const char* moves;
};

inline const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // ---- end to end (tracing off) ----
      {"tok_per_s", "tok/s", Mode::EndToEnd, ""},
      {"step_ms_p50", "ms", Mode::EndToEnd, ""},
      {"setup_s", "s", Mode::EndToEnd, ""},
      {"peak_rss_mb", "MiB", Mode::EndToEnd, ""},
      {"peak_cache_mb", "MiB", Mode::EndToEnd, ""},
      // ---- tensor ----
      {"tensor.gemm_fwd_gflops", "GFLOP/s", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      {"tensor.gemm_dx_gflops", "GFLOP/s", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      {"tensor.gemm_dw_gflops", "GFLOP/s", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      {"tensor.gelu_fwd_ns_per_elem", "ns", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      {"tensor.gelu_bwd_ns_per_elem", "ns", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      {"tensor.softmax_ns_per_elem", "ns", Mode::PerLayer, "step_ms_p50, tok_per_s @ train-wide"},
      // ---- model, training ----
      {"model.attn_fwd_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.attn_bwd_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.mlp_fwd_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.mlp_bwd_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.head_fwd_bwd_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.bwd_over_fwd", "ratio", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      {"model.optimizer_step_us", "us", Mode::PerLayer, "step_ms_p50 @ train-wide"},
      // ---- model, serving ----
      {"model.prefill_us", "us", Mode::PerLayer, "ttft_ms_p50 @ serve-chat (not declared)"},
      {"model.decode_us", "us", Mode::PerLayer, "tpot_ms_p50 @ serve-chat (not declared)"},
      // ---- comm ----
      {"comm.p2p_roundtrip_us", "us", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      {"comm.allreduce_us", "us", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      {"comm.msgs_per_step", "count", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      {"comm.bytes_per_step", "B", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      // ---- schedule ----
      {"schedule.compile_us", "us", Mode::PerLayer, "setup_s @ train-wide, train-tiny-dp"},
      {"schedule.sim_bubble_ratio", "ratio", Mode::PerLayer, "step_ms_p50 @ train-wide, train-tiny-dp (beside runtime.bubble_ratio)"},
      // ---- runtime, training ----
      {"runtime.bubble_ratio", "ratio", Mode::PerLayer, "step_ms_p50 @ train-wide, train-tiny-dp"},
      {"runtime.stage_busy_ms_max", "ms", Mode::PerLayer, "step_ms_p50 @ train-wide, train-tiny-dp"},
      {"runtime.step_overhead_ms", "ms", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      {"runtime.allocs_per_step", "count", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      // ---- runtime, serving ----
      {"runtime.serve.prefill_pass_ms", "ms", Mode::PerLayer, "ttft_ms_p50 @ serve-chat (not declared)"},
      {"runtime.serve.decode_pass_ms", "ms", Mode::PerLayer, "tpot_ms_p50 @ serve-chat (not declared)"},
      {"runtime.serve.queue_wait_ms_p50", "ms", Mode::PerLayer, "ttft_ms_p50 @ serve-chat (not declared)"},
      {"runtime.kv.prefix_hit_rate", "ratio", Mode::PerLayer, "serve_tok_per_s @ serve-chat (not declared)"},
      {"runtime.kv.pages_peak", "count", Mode::PerLayer, "peak_kv_mb @ serve-chat (not declared)"},
      {"runtime.kv.open_slot_us", "us", Mode::PerLayer, "tpot_ms_p50 @ serve-chat (not declared)"},
      {"runtime.kv.append_us", "us", Mode::PerLayer, "tpot_ms_p50 @ serve-chat (not declared)"},
      // ---- data, api, tracing ----
      {"data.batch_us", "us", Mode::PerLayer, "step_ms_p50 @ train-tiny-dp"},
      {"api.build_s", "s", Mode::PerLayer, "setup_s @ train-wide, train-tiny-dp"},
      {"trace_overhead_pct", "%", Mode::PerLayer, "step_ms_p50 @ train-wide, train-tiny-dp (traced minus untraced)"},
  };
  return table;
}

/// Name -> value for one run. `set` rejects names outside the table or of
/// the wrong mode; `check_complete` rejects a run that left one out.
class Metrics {
 public:
  explicit Metrics(Mode mode) : mode_(mode) {}

  void set(const std::string& name, double value);
  /// Throws std::logic_error naming every table entry of this mode that
  /// was never set.
  void check_complete() const;

  const std::map<std::string, double>& values() const { return values_; }

 private:
  Mode mode_;
  std::map<std::string, double> values_;
};

const MetricDef* find_metric(const std::string& name);

/// True when `name` is made only of [A-Za-z0-9_.-] and starts with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
