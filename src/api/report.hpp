#pragma once
// Structured results shared by every Session backend. One vocabulary
// replaces the scattered per-runtime accessors (Trainer::last_timeline,
// peak_cache_bytes, AsyncTrainer::last_stats, simulate()'s SimResult):
// whatever executes a step — worker threads, the sequential reference, or
// the discrete-event simulator — reports through StepReport / RunReport.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perf/planner.hpp"
#include "runtime/infer.hpp"
#include "runtime/worker.hpp"
#include "sim/event_sim.hpp"

namespace hanayo::api {

/// Which engine executes the session's schedule.
enum class BackendKind {
  Threads,    ///< multi-threaded pipeline workers (runtime::Trainer)
  Reference,  ///< single-process sequential ground truth (SequentialEngine)
  Sim,        ///< discrete-event cost-model simulation (sim::simulate)
  Async,      ///< asynchronous 1F1B threads, no flush (runtime::AsyncTrainer)
};

const char* backend_name(BackendKind kind);

/// Result of one training step on any backend.
struct StepReport {
  int step = 0;          ///< 0-based index within this session
  float loss = 0.0f;     ///< global mean loss (NaN for Sim: nothing executed)
  double wall_s = 0.0;   ///< measured wall time; predicted makespan for Sim
  bool predicted = false;  ///< true when the numbers come from the simulator
};

/// Memory footprint of the last executed step. Entries are empty when a
/// backend has no such notion (e.g. stash ledgers outside Async).
struct MemoryReport {
  std::vector<int64_t> peak_cache_bytes;       ///< per pipeline rank
  std::vector<int64_t> optimizer_state_bytes;  ///< per worker, replica-major
  std::vector<int64_t> stash_bytes;            ///< async weight stash peak
  std::vector<int> stash_entries;              ///< async stashed versions
};

/// Cumulative result of a session's steps — the one result type every
/// backend produces. `candidate` echoes the configuration plus the
/// throughput/bubble/memory numbers (simulated for Sim, measured for live
/// backends), so a run renders exactly like a planner row.
struct RunReport {
  BackendKind backend = BackendKind::Threads;
  perf::Candidate candidate;
  std::vector<StepReport> steps;
  MemoryReport memory;
  /// Real compute spans per pipeline rank (replica 0); filled when the
  /// session was built with record_timeline on a Threads backend.
  std::vector<std::vector<runtime::ComputeSpan>> timeline;
  /// The raw simulation, when the backend is Sim (timeline spans included
  /// when record_timeline was set).
  std::optional<sim::SimResult> sim;

  /// Loss of the last step (NaN if no steps ran or the backend is Sim).
  float final_loss() const;
  /// Sum of the per-step wall (or predicted) seconds.
  double total_wall_s() const;
  /// One Fig. 10-style row via the same formatter as Candidate::to_string.
  std::string to_string() const;
};

/// Cumulative result of an InferenceSession — the serving analogue of
/// RunReport. Measured on the live backends; predicted (from the
/// forward-only event simulation) for Sim and for predict() on any backend.
///
/// With dp > 1 replicas, counters and seconds are *sums over replicas*
/// (seconds are busy time, not elapsed time — replicas run concurrently);
/// `replicas` keeps the per-replica breakdown, and the throughput
/// accessors divide the summed seconds by dp to recover the concurrent
/// wall-clock estimate.
struct ServeReport {
  BackendKind backend = BackendKind::Threads;
  bool predicted = false;
  bool feasible = true;     ///< stage constraints satisfied (predictions)
  /// Prediction-only memory verdict (the planner's pruning model): the
  /// most loaded device's weights + full-context KV, and whether it
  /// exceeds the cluster's per-device capacity. Measured backends leave
  /// these at their defaults (they would have failed to allocate instead).
  bool oom = false;
  double peak_mem_gb = 0.0;
  std::string note;
  int dp = 1;               ///< serving replicas the sums below span
  int64_t requests = 0;
  int64_t prompt_tokens = 0;
  int64_t generated_tokens = 0;
  int prefill_passes = 0;   ///< pipeline passes containing a prefill
  int decode_passes = 0;    ///< pure decode passes
  double prefill_s = 0.0;
  double decode_s = 0.0;
  int64_t peak_kv_bytes = 0;
  /// KV page columns: pool pages allocated at report time / the run's
  /// high-water mark (every live run pages its KV; zero for predictions
  /// and the Reference backend), and the prefix cache's admission hits /
  /// prompt tokens those hits skipped at prefill (== prefill tokens saved;
  /// zero unless InferenceConfig::paged_kv enables the prefix cache).
  int64_t kv_pages_in_use = 0;
  int64_t kv_pages_peak = 0;
  int64_t prefix_hits = 0;
  int64_t prefix_hit_tokens = 0;
  /// Outcome counters (see runtime::ServeStats): after a full drain,
  /// submitted == completed + rejected + cancelled + timed_out. `requests`
  /// above counts *admitted* requests; under admission control the two
  /// differ by the rejected/expired-while-queued ones.
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t timed_out = 0;
  /// Per-request latency samples of served requests (measured backends;
  /// predictions leave them empty and use the event-sim quantiles below).
  std::vector<double> ttft_samples_s;
  std::vector<double> per_token_samples_s;
  /// Load-model echo, filled by predict_serving when the config carries an
  /// offered arrival rate (`InferenceConfig::offered_req_s`): the fluid
  /// M/D/1-flavoured overload model the serving planner ranks under.
  double offered_req_s = 0.0;
  double capacity_req_s = 0.0;          ///< dp * max_batch / batch-turnaround
  double utilization = 0.0;             ///< offered / capacity
  double predicted_rejected_rate = 0.0; ///< bounded queue sheds this fraction
  double predicted_timeout_rate = 0.0;  ///< deadline expires this fraction
  /// Overload fraction that neither serves nor sheds — unbounded queue
  /// growth when no deadline/queue backstop exists
  /// (perf::LoadPrediction::backlogged_rate).
  double predicted_backlogged_rate = 0.0;
  double predicted_queue_wait_s = 0.0;  ///< steady-state mean admission wait
  /// Distributional TTFT under the offered load: queueing-wait quantile
  /// plus the prefill pass wall (perf::LoadPrediction::p50/p99_ttft_s).
  double predicted_p50_ttft_s = 0.0;
  double predicted_p99_ttft_s = 0.0;
  /// Per-replica counters (index = replica id); empty on the sequential
  /// Reference, one entry per replica on Threads and in predictions.
  /// submitted/rejected live in the totals only (admission control runs
  /// before a replica ever sees the request).
  std::vector<runtime::ServeStats> replicas;

  /// Copies the merged counters of a drain into this report (the one
  /// ServeStats -> ServeReport mapping; backends and predict_serving both
  /// go through here).
  void set_totals(const runtime::ServeStats& st);

  /// The merged counters as a ServeStats (inverse of set_totals) — what
  /// the rate accessors below feed to the shared runtime::serve_*
  /// arithmetic.
  runtime::ServeStats totals() const;

  /// Summed busy seconds across replicas (== elapsed time when dp == 1).
  double total_wall_s() const { return prefill_s + decode_s; }
  /// Elapsed-time estimate for the concurrent replicas: the slowest
  /// replica's busy seconds when the per-replica breakdown is present
  /// (robust to skewed admission — an idle replica contributes nothing),
  /// else the summed seconds divided by dp.
  double wall_estimate_s() const;
  double prefill_wall_estimate_s() const;
  /// Prompt tokens absorbed per second of (concurrent) prefill time.
  double prefill_tokens_per_s() const;
  /// Generated tokens per second over the whole run (the serving headline;
  /// scales with dp since replicas decode concurrently).
  double tokens_per_s() const;
  /// Mean decode-pass latency — the time one batch of sequences waits for
  /// its next token. A per-pass mean, so dp leaves it unchanged.
  double per_token_latency_s() const;
  /// Measured TTFT / per-request mean inter-token quantiles over the
  /// latency samples (nearest-rank ceil, runtime::quantile_nearest_rank);
  /// 0 when no samples (predictions, or nothing served).
  double p50_ttft_s() const;
  double p99_ttft_s() const;
  double p50_request_token_latency_s() const;
  double p99_request_token_latency_s() const;
  /// Prompt tokens the prefix cache kept out of prefill (paged_kv with
  /// prefix caching; 0 otherwise).
  int64_t prefill_tokens_saved() const { return prefix_hit_tokens; }
  /// Fraction of admitted prompt tokens served from cached pages, in
  /// [0, 1]; 0 when nothing was admitted.
  double prefix_hit_rate() const {
    return prompt_tokens > 0
               ? static_cast<double>(prefix_hit_tokens) /
                     static_cast<double>(prompt_tokens)
               : 0.0;
  }
  /// One-line human-readable summary.
  std::string to_string() const;
};

}  // namespace hanayo::api
