#pragma once
// hanayo::InferenceSession — the serving front door of the library.
//
// The paper frames wave scheduling as a universal way to express pipeline
// execution; forward-only inference is its second instantiation. The same
// builder chain that configures a training Session configures a serving
// pipeline — plus serving knobs — and underneath, the same schedule
// generator compiles forward-only wave programs that the worker runtime
// streams prefill micro-batches and KV-cache decode steps through:
//
//   auto server = hanayo::InferenceSession::builder()
//                     .model(hanayo::ModelConfig::tiny(14))
//                     .algo(hanayo::Algo::Hanayo)
//                     .pipeline(4).waves(2)
//                     .backend(hanayo::BackendKind::Threads)
//                     .max_batch(4).max_new_tokens(8)
//                     .sampling(hanayo::Sampling::TopK(8, 0.8f))
//                     .eos(2)                 // stop token id
//                     .data_parallel(2)       // dp pipeline replicas
//                     .build();
//   server.enqueue(prompt_ids);               // [t] token-id tensor
//   auto done = server.run();                 // Completion{id, tokens, stop_reason}
//   std::puts(server.report().to_string().c_str());
//   auto sla = server.predict();              // forward-only dry run
//
// Guarantees, mirroring the training side: Threads and Reference produce
// token-identical decodes under every sampling policy — greedy because the
// logits are bit-identical (KV-cache decode equals a full-prefix recompute
// on the deterministic kernels), top-k/temperature because each request
// samples from its own RNG stream split from (seed, request id), which no
// batch composition or replica assignment can shift — and predict() agrees
// exactly with the Sim backend's forward-only timeline, including the dp
// and early-stop modelling.

#include <memory>
#include <vector>

#include "api/config.hpp"
#include "api/report.hpp"
#include "api/session.hpp"
#include "perf/serve_planner.hpp"

namespace hanayo::api {

using runtime::Completion;
using runtime::TokenCallback;
using runtime::TokenEvent;

/// The pluggable serving engine behind an InferenceSession: pipelined
/// worker threads, the sequential full-prefix-recompute reference, or the
/// forward-only event simulation.
class InferBackend {
 public:
  virtual ~InferBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Queues a prompt ([t] or [1, t] token ids); returns the request id.
  /// `on_token` (optional) streams each selected token back at the pass
  /// boundary that produced it (the Sim dry run produces no tokens and
  /// never calls it). `deadline_s` > 0 is a relative per-request SLA
  /// overriding the config default.
  virtual int64_t enqueue(tensor::Tensor prompt, int max_new_tokens,
                          TokenCallback on_token = {},
                          double deadline_s = 0.0) = 0;

  /// Requests cancellation of `id`; honoured at the engine's next pass
  /// boundary (the Sim dry run ignores it). Unknown ids are a no-op.
  virtual void cancel(int64_t id) { (void)id; }

  /// Generates until the queue is empty; completions in enqueue order.
  /// (Sim predicts instead of executing: completions carry no tokens.)
  virtual std::vector<Completion> drain() = 0;

  /// The forward-only schedule for a full batch, when the engine compiles
  /// one (null for the sequential reference).
  virtual const schedule::Schedule* schedule() const { return nullptr; }

  /// Fills the serving counters (measured, or predicted for Sim).
  virtual void finalize(ServeReport& rep) const = 0;
};

/// Builds the serving engine `cfg.backend` names. Throws
/// std::invalid_argument on configurations no engine accepts (non-causal
/// models, the Async backend). Algorithm/stage feasibility follows each
/// engine's stance: the live backends throw at construction
/// (Chimera/PipeDream, infeasible stage counts), while the Sim dry run —
/// like the training Sim backend — reports them as an infeasible result.
std::unique_ptr<InferBackend> make_infer_backend(const InferenceConfig& cfg);

/// The forward-only timeline prediction for a serving configuration: per
/// replica, one full-batch prefill pass plus decode passes for the expected
/// continuation length (max_new_tokens, shortened by the geometric
/// stop-token model when stop tokens are configured), event-simulated
/// against the config's cluster and replicated over cfg.dp (replicas are
/// independent, so replication is exact). This is the single code path
/// behind InferenceSession::predict() and the Sim backend's report, which
/// is why the two agree exactly (the serving analogue of Sim ≡ evaluate).
ServeReport predict_serving(const InferenceConfig& cfg);

class InferenceSession {
 public:
  class Builder;

  /// Entry point: InferenceSession::builder().model(...)....build().
  static Builder builder();

  /// Builds and validates the configured serving engine. Throws on
  /// configurations the engine rejects.
  explicit InferenceSession(InferenceConfig cfg);

  InferenceSession(InferenceSession&&) = default;
  InferenceSession& operator=(InferenceSession&&) = default;

  /// Queues a prompt ([t] or [1, t] token-id tensor). `max_new_tokens` of 0
  /// uses the config default. `on_token` (optional) streams the request's
  /// tokens one at a time: it fires at every pass boundary with the newly
  /// selected token, in generation order (with dp > 1 replicas, callbacks
  /// of *different* requests may run concurrently from different replica
  /// threads; one request's events never do). `deadline_s` > 0 is a
  /// relative per-request SLA overriding the config default. Returns the
  /// request id — also the cancel() handle.
  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens = 0,
                  TokenCallback on_token = {}, double deadline_s = 0.0);

  /// Requests cancellation of a queued or mid-decode request (thread-safe,
  /// callable while run() executes on another thread): the sequence aborts
  /// at the next pass boundary, frees its KV slot, and completes as
  /// StopReason::Cancelled with its partial tokens.
  void cancel(int64_t id) { backend_->cancel(id); }

  /// Serves every queued request to completion (continuous batching up to
  /// max_batch concurrent streams); returns completions in enqueue order.
  std::vector<Completion> run();

  /// Cumulative serving report (predicted numbers on the Sim backend).
  ServeReport report() const;

  /// Forward-only timeline prediction for this configuration — available on
  /// every backend, no execution.
  ServeReport predict() const { return predict_serving(cfg_); }

  /// The compiled forward-only schedule, or nullptr when the engine
  /// executes none (the sequential Reference).
  const schedule::Schedule* schedule() const { return backend_->schedule(); }

  const InferenceConfig& config() const { return cfg_; }
  InferBackend& backend() { return *backend_; }

 private:
  InferenceConfig cfg_;
  std::unique_ptr<InferBackend> backend_;
};

/// Serving builder: the shared core plus serving knobs.
class InferenceSession::Builder
    : public BuilderCore<InferenceSession::Builder, InferenceConfig> {
 public:
  /// Concurrent decode streams (KV-cache slots / continuous-batch width).
  Builder& max_batch(int n) { cfg_.max_batch = n; return *this; }
  /// Default continuation cap per request.
  Builder& max_new_tokens(int n) { cfg_.max_new_tokens = n; return *this; }
  /// Token-selection policy: Sampling::Greedy() (default),
  /// Sampling::TopK(k, temperature) or Sampling::Temperature(t).
  Builder& sampling(Sampling s) { cfg_.sampling = s; return *this; }
  /// Replaces the stop-token set: any of these ids ends a sequence early.
  Builder& stop_tokens(std::vector<int64_t> ids) {
    cfg_.stop_tokens = std::move(ids);
    return *this;
  }
  /// Adds one stop token (chainable; EOS is just a stop token by convention).
  Builder& eos(int64_t id) { cfg_.stop_tokens.push_back(id); return *this; }
  /// Data-parallel serving replicas draining one shared request queue.
  Builder& data_parallel(int dp) { cfg_.dp = dp; return *this; }
  /// Half-precision KV-cache storage (see InferenceConfig::kv_fp16).
  Builder& kv_fp16(bool on = true) { cfg_.kv_fp16 = on; return *this; }
  /// Prefix caching and the page/pool knobs of the KV page store (see
  /// InferenceConfig::paged_kv): shared prompt-prefix pages. Decode tokens
  /// stay bitwise identical to a run without it.
  Builder& paged_kv(bool on = true) { cfg_.paged_kv = on; return *this; }
  /// Token rows per KV page (per attention layer; paged_kv only).
  Builder& kv_page_tokens(int n) { cfg_.kv_page_tokens = n; return *this; }
  /// Per-replica page-pool size (paged_kv only); 0 derives a pool where
  /// max_batch worst-case streams always fit.
  Builder& kv_pool_pages(int64_t n) { cfg_.kv_pool_pages = n; return *this; }
  /// Cross-request prefix caching toggle (paged_kv only; default on).
  Builder& prefix_cache(bool on = true) {
    cfg_.prefix_cache = on;
    return *this;
  }
  /// Pre-size hint (MiB) for each worker's pass-lifetime tensor arena;
  /// 0 derives the reserve from model/schedule shapes. A hint, not a
  /// limit (see InferenceConfig::arena_reserve_mb).
  Builder& arena_reserve_mb(int mb) {
    cfg_.arena_reserve_mb = mb;
    return *this;
  }
  /// Nominal prompt length for predict()/Sim (see InferenceConfig).
  Builder& prompt_tokens(int64_t n) { cfg_.prompt_tokens = n; return *this; }
  /// Default per-request SLA, seconds from enqueue (0 = none); misses
  /// complete as StopReason::DeadlineExceeded within one pass.
  Builder& deadline_s(double s) { cfg_.deadline_s = s; return *this; }
  /// Bounded admission queue: `cap` of 0 derives dp * max_batch (one full
  /// turnover of the cluster's KV slots). Refused requests complete as
  /// StopReason::Rejected.
  Builder& queue(QueuePolicy policy, int cap = 0) {
    cfg_.queue_policy = policy;
    cfg_.max_queue = cap;
    return *this;
  }
  /// Offered open-loop arrival rate for predict()'s load model (req/s).
  Builder& offered_load(double req_s) {
    cfg_.offered_req_s = req_s;
    return *this;
  }
  /// Deterministic fault injection (see runtime::FaultInjection).
  Builder& fault(FaultInjection f) { cfg_.fault = f; return *this; }

  /// Self-configuration: runs the decode-aware serving planner
  /// (perf::plan_serving) over (algo, P, W, max_batch, dp) against the
  /// builder's cluster (or the target's device count lowered through the
  /// calibrated-or-default rule) and adopts the winning candidate plus the
  /// load assumptions it was scored under — so the session's predict()
  /// reproduces the planner's winning row bit-for-bit. Throws
  /// std::invalid_argument when no candidate is usable.
  Builder& auto_plan(const perf::ServeTarget& target);

  InferenceSession build() { return InferenceSession(cfg_); }
};

}  // namespace hanayo::api
