// The three concrete serving engines behind api::make_infer_backend:
// data-parallel pipelined worker replicas (runtime::InferenceServer), the
// sequential full-prefix-recompute reference, and the forward-only event
// simulation.

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string>

#include "api/inference.hpp"
#include "runtime/infer.hpp"
#include "tensor/rng.hpp"

namespace hanayo::api {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Pipelined forward-only wave schedules with KV-cache decode and
/// continuous batching; dp > 1 runs that many pipeline replicas off one
/// shared request queue — wraps runtime::InferenceServer.
class ThreadInferBackend final : public InferBackend {
 public:
  explicit ThreadInferBackend(const InferenceConfig& cfg)
      : cfg_(cfg), server_(cfg.infer_config()) {}

  BackendKind kind() const override { return BackendKind::Threads; }

  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens,
                  TokenCallback on_token, double deadline_s) override {
    return server_.enqueue(std::move(prompt), max_new_tokens,
                           std::move(on_token), deadline_s);
  }

  void cancel(int64_t id) override { server_.cancel(id); }

  std::vector<Completion> drain() override { return server_.drain(); }

  const schedule::Schedule* schedule() const override {
    // The full-batch program — representative of the steady serving state.
    return &const_cast<runtime::InferenceServer&>(server_).schedule_for(
        cfg_.max_batch);
  }

  void finalize(ServeReport& rep) const override {
    rep.backend = BackendKind::Threads;
    rep.dp = server_.dp();
    rep.replicas = server_.replica_stats();
    // server_.stats() (not a bare merge): the submitted/rejected counters
    // live on the server's enqueue side, outside any replica.
    rep.set_totals(server_.stats());
  }

 private:
  InferenceConfig cfg_;
  runtime::InferenceServer server_;
};

/// Sequential ground truth: one full-prefix recompute per generated token,
/// no KV reuse across steps, no pipeline, no replication (dp is ignored —
/// replicas hold identical weights, so the reference for any assignment is
/// the same). Tokens are bit-identical to the Threads backend under every
/// sampling policy: logits match bitwise, and both engines select through
/// sample_last_row with the same per-request (seed, id) RNG stream.
class ReferenceInferBackend final : public InferBackend {
 public:
  explicit ReferenceInferBackend(const InferenceConfig& cfg)
      : cfg_(cfg),
        module_(cfg.model.layer_descs(), 0,
                static_cast<int>(cfg.model.layer_descs().size()), cfg.seed,
                cfg.model.init_std) {
    // Same half-precision cache quantization as the pipeline workers, so
    // the token-identity guarantee extends to kv_fp16 runs.
    module_.set_kv_fp16(cfg.kv_fp16);
  }

  BackendKind kind() const override { return BackendKind::Reference; }

  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens,
                  TokenCallback on_token, double deadline_s) override {
    // Same admission rules as the pipeline, by construction (shared helper).
    // The reference queue itself stays unbounded — bounded-queue
    // backpressure is a property of the live server's shared queue, not of
    // the sequential ground truth.
    runtime::InferRequest r = runtime::make_infer_request(
        std::move(prompt), max_new_tokens, cfg_.max_new_tokens,
        cfg_.model.seq, cfg_.model.vocab, next_id_++, deadline_s,
        cfg_.deadline_s);
    r.on_token = std::move(on_token);
    const int64_t id = r.id;
    queue_.push_back(std::move(r));
    stats_.submitted += 1;
    return id;
  }

  void cancel(int64_t id) override { cancelled_.push_back(id); }

  std::vector<Completion> drain() override {
    std::vector<Completion> out;
    while (!queue_.empty()) {
      runtime::InferRequest r = std::move(queue_.front());
      queue_.pop_front();
      // The sequential analogue of the pipeline's admission checks: a
      // cancelled or already-expired request terminates without decoding.
      if (consume_cancelled(r.id)) {
        out.push_back(unserved(r, runtime::StopReason::Cancelled));
        stats_.cancelled += 1;
        continue;
      }
      if (r.deadline_s > 0.0 && runtime::serve_clock_s() > r.deadline_s) {
        out.push_back(unserved(r, runtime::StopReason::DeadlineExceeded));
        stats_.timed_out += 1;
        continue;
      }
      stats_.requests += 1;
      stats_.prompt_tokens += r.prompt.size(1);
      // The request's own sampling stream — the same split the pipeline
      // replicas use, which is what makes stochastic decodes comparable.
      tensor::Rng rng(
          tensor::Rng::split(cfg_.seed, static_cast<uint64_t>(r.id)));
      std::vector<int64_t> seq;
      for (int64_t i = 0; i < r.prompt.size(1); ++i) {
        seq.push_back(static_cast<int64_t>(r.prompt[i]));
      }
      Completion c;
      c.id = r.id;
      c.prompt_tokens = r.prompt.size(1);
      c.enqueue_s = r.enqueue_s;
      c.admit_s = runtime::serve_clock_s();
      for (int step = 0; step < r.max_new_tokens; ++step) {
        // Step boundary == the sequential engine's pass boundary: cancel
        // marks and deadline misses abort here with the partial tokens.
        if (consume_cancelled(r.id)) {
          c.stop_reason = runtime::StopReason::Cancelled;
          stats_.cancelled += 1;
          break;
        }
        if (r.deadline_s > 0.0 && runtime::serve_clock_s() > r.deadline_s) {
          c.stop_reason = runtime::StopReason::DeadlineExceeded;
          stats_.timed_out += 1;
          break;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const float u = cfg_.sampling.stochastic() ? rng.uniform() : 0.0f;
        tensor::Tensor x({1, static_cast<int64_t>(seq.size())});
        for (size_t i = 0; i < seq.size(); ++i) {
          x[static_cast<int64_t>(i)] = static_cast<float>(seq[i]);
        }
        // Full-prefix recompute: a fresh KV stream every step.
        module_.drop_slot(0);
        tensor::Tensor y = module_.decode(x, 0, 0);
        stats_.peak_kv_bytes =
            std::max(stats_.peak_kv_bytes, module_.slot_bytes());
        const int64_t best = runtime::sample_last_row(y, cfg_.sampling, u);
        seq.push_back(best);
        if (c.tokens.empty()) c.first_token_s = runtime::serve_clock_s();
        c.tokens.push_back(best);
        stats_.generated_tokens += 1;
        const double wall = seconds_since(t0);
        if (step == 0) {
          stats_.prefill_passes += 1;
          stats_.prefill_s += wall;
        } else {
          stats_.decode_passes += 1;
          stats_.decode_s += wall;
        }
        const bool hit_stop = runtime::is_stop_token(cfg_.stop_tokens, best);
        // Streaming: one event per selected token, same boundary semantics
        // as the pipeline's pass boundary.
        if (r.on_token) {
          r.on_token(runtime::TokenEvent{
              r.id, best, step, hit_stop || step + 1 == r.max_new_tokens});
        }
        if (hit_stop) {
          c.stop_reason = runtime::StopReason::StopToken;
          break;
        }
      }
      module_.drop_slot(0);
      c.finish_s = runtime::serve_clock_s();
      if (c.served()) {
        stats_.completed += 1;
        stats_.ttft_samples_s.push_back(c.ttft_s());
        const double per_tok = c.per_token_s();
        if (per_tok >= 0.0) stats_.per_token_samples_s.push_back(per_tok);
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  void finalize(ServeReport& rep) const override {
    rep.backend = BackendKind::Reference;
    rep.dp = 1;  // sequential: there is nothing to replicate
    rep.set_totals(stats_);
  }

 private:
  bool consume_cancelled(int64_t id) {
    const auto it = std::find(cancelled_.begin(), cancelled_.end(), id);
    if (it == cancelled_.end()) return false;
    cancelled_.erase(it);
    return true;
  }

  static Completion unserved(const runtime::InferRequest& r,
                             runtime::StopReason why) {
    Completion c;
    c.id = r.id;
    c.prompt_tokens = r.prompt.size(1);
    c.stop_reason = why;
    c.enqueue_s = r.enqueue_s;
    c.finish_s = runtime::serve_clock_s();
    return c;
  }

  InferenceConfig cfg_;
  model::StageModule module_;
  std::deque<runtime::InferRequest> queue_;
  std::vector<int64_t> cancelled_;
  int64_t next_id_ = 0;
  runtime::ServeStats stats_;
};

/// Forward-only dry run: executes nothing; enqueue/drain book-keep request
/// ids and the report is predict_serving's event-simulated timeline — the
/// same code path as InferenceSession::predict(), hence exact agreement.
class SimInferBackend final : public InferBackend {
 public:
  explicit SimInferBackend(const InferenceConfig& cfg) : cfg_(cfg) {}

  BackendKind kind() const override { return BackendKind::Sim; }

  // A dry run produces no tokens, so the streaming callback never fires
  // (and deadlines/cancellation have nothing to abort).
  int64_t enqueue(tensor::Tensor, int, TokenCallback, double) override {
    return next_id_++;
  }

  std::vector<Completion> drain() override {
    std::vector<Completion> out;
    for (int64_t id = drained_; id < next_id_; ++id) {
      Completion c;
      c.id = id;
      out.push_back(std::move(c));  // predicted: no tokens are produced
    }
    drained_ = next_id_;
    return out;
  }

  const schedule::Schedule* schedule() const override {
    if (sched_.scripts.empty()) {
      schedule::ScheduleRequest req = cfg_.effective_sched();
      req.B = cfg_.max_batch;
      const int S = schedule::stages_for(req);
      if (S > static_cast<int>(cfg_.model.layer_descs().size())) {
        return nullptr;  // infeasible: no schedule compiles
      }
      sched_ = schedule::make_forward_schedule(req);
    }
    return &sched_;
  }

  void finalize(ServeReport& rep) const override {
    rep = predict_serving(cfg_);
    rep.backend = BackendKind::Sim;
  }

 private:
  InferenceConfig cfg_;
  mutable schedule::Schedule sched_;
  int64_t next_id_ = 0;
  int64_t drained_ = 0;
};

}  // namespace

std::unique_ptr<InferBackend> make_infer_backend(const InferenceConfig& cfg) {
  // Causality is a model property, not a feasibility result: no serving
  // engine — not even the dry run — can extend a bidirectional model's
  // prefix token by token, so every backend rejects it up front. The same
  // goes for unusable sampling parameters and replica counts.
  if (!cfg.model.causal) {
    throw std::invalid_argument(
        "inference: decode needs a causal model (each new token may "
        "only extend, never revise, the prefix)");
  }
  cfg.sampling.validate();
  if (cfg.dp < 1) {
    throw std::invalid_argument("inference: dp < 1");
  }
  switch (cfg.backend) {
    case BackendKind::Threads:
      return std::make_unique<ThreadInferBackend>(cfg);
    case BackendKind::Reference:
      return std::make_unique<ReferenceInferBackend>(cfg);
    case BackendKind::Sim:
      return std::make_unique<SimInferBackend>(cfg);
    case BackendKind::Async:
      throw std::invalid_argument(
          "inference: the Async (no-flush) runtime is a training engine; "
          "serving uses Threads, Reference or Sim");
  }
  throw std::invalid_argument("unknown backend kind");
}

}  // namespace hanayo::api
