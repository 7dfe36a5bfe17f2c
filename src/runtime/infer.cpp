#include "runtime/infer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "runtime/kv_store.hpp"
#include "runtime/recv_ahead.hpp"
#include "schedule/validate.hpp"

namespace hanayo::runtime {

using comm::Kind;
using comm::make_tag;
using schedule::Action;
using schedule::Op;
using tensor::Rng;
using tensor::Tensor;

double serve_clock_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile_nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return samples[rank - 1];
}

FaultInjection FaultInjection::from_env() {
  FaultInjection f;
  const char* s = std::getenv("HANAYO_FAULT_SEED");
  if (s == nullptr || *s == '\0') return f;
  f.seed = std::strtoull(s, nullptr, 10);
  if (f.seed != 0) {
    f.slow_pass_prob = 0.25;
    f.slow_pass_us = 200;
  }
  return f;
}

int kv_lanes(const model::ModelConfig& model) {
  int lanes = 0;
  for (const model::LayerDesc& d : model.layer_descs()) {
    if (d.type == model::LayerDesc::Type::Block ||
        d.type == model::LayerDesc::Type::AttnHalf) {
      ++lanes;
    }
  }
  return lanes;
}

// Worst-case page demand of one full-context stream: its KV rows for every
// lane, plus — when the prefix cache is live — one copy-on-write spare page
// per lane (after a stream publishes its prefix, appending to the now-shared
// tail page copies it first). This is the unit both the default pool sizing
// and the derived queue cap price in, so a default-sized pool always admits
// max_batch worst-case streams.
static int64_t worst_case_stream_pages(const InferConfig& cfg) {
  const int64_t pg = std::max(1, cfg.kv_page_tokens);
  const int64_t per_seq =
      (cfg.model.seq + pg - 1) / pg + (cfg.prefix_cache ? 1 : 0);
  return per_seq * std::max(1, kv_lanes(cfg.model));
}

int64_t derived_pool_pages(const InferConfig& cfg) {
  if (cfg.kv_pool_pages > 0) return cfg.kv_pool_pages;
  return static_cast<int64_t>(std::max(1, cfg.max_batch)) *
         worst_case_stream_pages(cfg);
}

// The replica's one KV store. paged_kv only switches on the prefix cache
// and the pool/page knobs: without it every stream keeps private pages of
// the default size in a pool derived from max_batch.
static KvStoreConfig kv_store_config(InferConfig cfg) {
  if (!cfg.paged_kv) {
    cfg.prefix_cache = false;
    cfg.kv_pool_pages = 0;
    cfg.kv_page_tokens = InferConfig{}.kv_page_tokens;
  }
  KvStoreConfig kc;
  kc.page_tokens = cfg.kv_page_tokens;
  kc.pool_pages = derived_pool_pages(cfg);
  kc.row_elems = cfg.model.hidden;
  kc.max_slots = cfg.max_batch;
  kc.fp16 = cfg.kv_fp16;
  kc.prefix_cache = cfg.prefix_cache;
  return kc;
}

int derived_queue_cap(const InferConfig& cfg) {
  int streams = std::max(1, cfg.max_batch);
  if (cfg.paged_kv) {
    // Pool-derived stream count: how many worst-case full-context
    // sequences the page pool can hold at once (never above max_batch —
    // slots still bound concurrency). With the default pool sizing this
    // equals max_batch, so paging never shrinks the derived cap.
    const int64_t per_seq = worst_case_stream_pages(cfg);
    const int64_t fit = derived_pool_pages(cfg) / std::max<int64_t>(1, per_seq);
    streams = static_cast<int>(
        std::min<int64_t>(std::max<int64_t>(fit, 1), streams));
  }
  return std::max(1, cfg.dp) * streams;
}

void Sampling::validate() const {
  if (kind == Kind::TopK && k < 1) {
    throw std::invalid_argument("sampling: top-k needs k >= 1");
  }
  if (kind == Kind::TopP && !(p > 0.0f && p <= 1.0f)) {
    throw std::invalid_argument("sampling: top-p needs p in (0, 1]");
  }
  if (stochastic() && !(temperature > 0.0f)) {
    throw std::invalid_argument("sampling: temperature must be > 0");
  }
}

int64_t greedy_argmax_last_row(const Tensor& logits) {
  const int64_t t = logits.size(1), V = logits.size(2);
  const float* row = logits.data() + (t - 1) * V;
  int64_t best = 0;
  for (int64_t v = 1; v < V; ++v) {
    if (row[v] > row[best]) best = v;
  }
  return best;
}

int64_t sample_last_row(const Tensor& logits, const Sampling& s, float u) {
  if (!s.stochastic()) return greedy_argmax_last_row(logits);
  const int64_t t = logits.size(1), V = logits.size(2);
  const float* row = logits.data() + (t - 1) * V;
  const double T = static_cast<double>(s.temperature);

  if (s.kind == Sampling::Kind::TopK) {
    // Candidate pool: the k best ids, ranked (logit desc, index asc). The
    // rank order doubles as the CDF walk order, so ties and rounding
    // resolve identically on every backend, and u = 0 always lands on the
    // most likely candidate.
    const int64_t k = std::min<int64_t>(std::max(s.k, 1), V);
    std::vector<int64_t> cand(static_cast<size_t>(V));
    std::iota(cand.begin(), cand.end(), int64_t{0});
    const auto by_logit = [row](int64_t a, int64_t b) {
      return row[a] > row[b] || (row[a] == row[b] && a < b);
    };
    std::partial_sort(cand.begin(), cand.begin() + k, cand.end(), by_logit);
    cand.resize(static_cast<size_t>(k));
    // Stable softmax at temperature T; invert the CDF at u. Sequential
    // double accumulation: deterministic given identical logits.
    const double mx = static_cast<double>(row[cand.front()]);
    double total = 0.0;
    std::vector<double> cum(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      total += std::exp((static_cast<double>(row[cand[i]]) - mx) / T);
      cum[i] = total;
    }
    const double target = static_cast<double>(u) * total;
    for (size_t i = 0; i < cand.size(); ++i) {
      if (cum[i] > target) return cand[i];
    }
    return cand.back();
  }

  if (s.kind == Sampling::Kind::TopP) {
    // Nucleus pool: rank the whole vocabulary (logit desc, index asc), take
    // the shortest prefix whose softmax mass reaches p of the total, then
    // invert the pool's CDF at u. Rank order doubles as the walk order, so
    // ties and rounding resolve identically on every backend; p = 1 admits
    // the full vocabulary (the same distribution as Temperature, though the
    // two walk orders map the same u to different tokens), and u = 0 lands
    // on the most likely candidate. One O(V log V) sort plus sequential
    // double accumulation — deterministic given identical logits.
    std::vector<int64_t> cand(static_cast<size_t>(V));
    std::iota(cand.begin(), cand.end(), int64_t{0});
    std::sort(cand.begin(), cand.end(), [row](int64_t a, int64_t b) {
      return row[a] > row[b] || (row[a] == row[b] && a < b);
    });
    const double mx = static_cast<double>(row[cand.front()]);
    double total = 0.0;
    std::vector<double> mass(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      mass[i] = std::exp((static_cast<double>(row[cand[i]]) - mx) / T);
      total += mass[i];
    }
    const double want = static_cast<double>(s.p) * total;
    double pool = 0.0;
    size_t n = 0;
    while (n < cand.size()) {
      pool += mass[n];
      ++n;
      if (pool >= want) break;  // always admits at least one candidate
    }
    const double target = static_cast<double>(u) * pool;
    double cum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      cum += mass[i];
      if (cum > target) return cand[i];
    }
    return cand[n - 1];
  }

  // Temperature over the full vocabulary: three O(V) passes in ascending
  // index order, no scratch — this runs per generated token on the serving
  // hot path. The walk order is arbitrary for a CDF inversion; the
  // cross-backend guarantee only needs it fixed and the accumulation
  // sequential (identical bits wherever the logits came from).
  double mx = static_cast<double>(row[0]);
  for (int64_t v = 1; v < V; ++v) {
    mx = std::max(mx, static_cast<double>(row[v]));
  }
  double total = 0.0;
  for (int64_t v = 0; v < V; ++v) {
    total += std::exp((static_cast<double>(row[v]) - mx) / T);
  }
  const double target = static_cast<double>(u) * total;
  double cum = 0.0;
  for (int64_t v = 0; v < V; ++v) {
    cum += std::exp((static_cast<double>(row[v]) - mx) / T);
    if (cum > target) return v;
  }
  return V - 1;
}

bool is_stop_token(const std::vector<int64_t>& stop_tokens, int64_t tok) {
  return std::find(stop_tokens.begin(), stop_tokens.end(), tok) !=
         stop_tokens.end();
}

ServeStats merge_stats(const std::vector<ServeStats>& per_replica) {
  ServeStats m;
  for (const ServeStats& s : per_replica) {
    m.requests += s.requests;
    m.prompt_tokens += s.prompt_tokens;
    m.generated_tokens += s.generated_tokens;
    m.prefill_passes += s.prefill_passes;
    m.decode_passes += s.decode_passes;
    m.prefill_s += s.prefill_s;
    m.decode_s += s.decode_s;
    m.peak_kv_bytes += s.peak_kv_bytes;
    m.kv_pages_in_use += s.kv_pages_in_use;
    m.kv_pages_peak += s.kv_pages_peak;
    m.prefix_hits += s.prefix_hits;
    m.prefix_hit_tokens += s.prefix_hit_tokens;
    m.submitted += s.submitted;
    m.completed += s.completed;
    m.rejected += s.rejected;
    m.cancelled += s.cancelled;
    m.timed_out += s.timed_out;
    m.ttft_samples_s.insert(m.ttft_samples_s.end(), s.ttft_samples_s.begin(),
                            s.ttft_samples_s.end());
    m.per_token_samples_s.insert(m.per_token_samples_s.end(),
                                 s.per_token_samples_s.begin(),
                                 s.per_token_samples_s.end());
  }
  return m;
}

double serve_wall_estimate_s(const ServeStats& totals,
                             const std::vector<ServeStats>& replicas, int dp) {
  if (replicas.empty()) {
    return (totals.prefill_s + totals.decode_s) / std::max(1, dp);
  }
  double w = 0.0;
  for (const ServeStats& r : replicas) w = std::max(w, r.prefill_s + r.decode_s);
  return w;
}

double serve_prefill_wall_estimate_s(const ServeStats& totals,
                                     const std::vector<ServeStats>& replicas,
                                     int dp) {
  if (replicas.empty()) return totals.prefill_s / std::max(1, dp);
  double w = 0.0;
  for (const ServeStats& r : replicas) w = std::max(w, r.prefill_s);
  return w;
}

double serve_prefill_tokens_per_s(const ServeStats& totals,
                                  const std::vector<ServeStats>& replicas,
                                  int dp) {
  const double wall = serve_prefill_wall_estimate_s(totals, replicas, dp);
  return wall > 0.0 ? static_cast<double>(totals.prompt_tokens) / wall : 0.0;
}

double serve_tokens_per_s(const ServeStats& totals,
                          const std::vector<ServeStats>& replicas, int dp) {
  const double wall = serve_wall_estimate_s(totals, replicas, dp);
  return wall > 0.0 ? static_cast<double>(totals.generated_tokens) / wall
                    : 0.0;
}

double serve_per_token_latency_s(const ServeStats& totals) {
  return totals.decode_passes > 0 ? totals.decode_s / totals.decode_passes
                                  : 0.0;
}

InferRequest make_infer_request(Tensor prompt, int max_new_tokens,
                                int default_new_tokens, int64_t model_seq,
                                int64_t model_vocab, int64_t id,
                                double deadline_s, double default_deadline_s) {
  if (prompt.dim() == 1) prompt = prompt.reshaped({1, prompt.numel()});
  if (prompt.dim() != 2 || prompt.size(0) != 1 || prompt.numel() < 1) {
    throw std::invalid_argument("enqueue: prompt must be [t] or [1, t] ids");
  }
  check_token_ids(prompt, model_vocab, "enqueue: prompt");
  const int want = max_new_tokens > 0 ? max_new_tokens : default_new_tokens;
  if (prompt.size(1) + want - 1 > model_seq) {
    throw std::invalid_argument(
        "enqueue: prompt + continuation exceeds the model's " +
        std::to_string(model_seq) + " positions");
  }
  InferRequest r;
  r.id = id;
  r.prompt = std::move(prompt);
  r.max_new_tokens = want;
  r.enqueue_s = serve_clock_s();
  const double sla = deadline_s > 0.0 ? deadline_s : default_deadline_s;
  r.deadline_s = sla > 0.0 ? r.enqueue_s + sla : 0.0;
  return r;
}

namespace {

/// Terminal Completion for a request aborted without (or after losing) a KV
/// slot: reject at enqueue, cancel/timeout while queued.
Completion unserved_completion(const InferRequest& r, StopReason why) {
  Completion c;
  c.id = r.id;
  c.prompt_tokens = r.prompt.size(1);
  c.stop_reason = why;
  c.enqueue_s = r.enqueue_s;
  c.finish_s = serve_clock_s();
  return c;
}

}  // namespace

// ------------------------------------------------------------ RequestQueue

void RequestQueue::configure(QueuePolicy policy, int cap) {
  std::lock_guard lk(mu_);
  policy_ = policy;
  cap_ = cap;
}

int64_t RequestQueue::enqueue(const InferConfig& cfg, Tensor prompt,
                              int max_new_tokens, TokenCallback on_token,
                              double deadline_s) {
  std::lock_guard lk(mu_);
  InferRequest r = make_infer_request(
      std::move(prompt), max_new_tokens, cfg.max_new_tokens, cfg.model.seq,
      cfg.model.vocab, next_id_++, deadline_s, cfg.deadline_s);
  r.on_token = std::move(on_token);
  const int64_t id = r.id;
  ++counts_.submitted;
  const bool bounded = policy_ != QueuePolicy::Unbounded && cap_ > 0;
  if (bounded && policy_ == QueuePolicy::RejectNew &&
      static_cast<int>(q_.size()) >= cap_) {
    ++counts_.rejected;
    rejected_.push_back(unserved_completion(r, StopReason::Rejected));
    return id;
  }
  q_.push_back(std::move(r));
  while (bounded && policy_ == QueuePolicy::ShedOldest &&
         static_cast<int>(q_.size()) > cap_) {
    ++counts_.rejected;
    rejected_.push_back(unserved_completion(q_.front(), StopReason::Rejected));
    q_.pop_front();
  }
  return id;
}

void RequestQueue::take_rejected(std::vector<Completion>& out) {
  std::lock_guard lk(mu_);
  out.insert(out.end(), std::make_move_iterator(rejected_.begin()),
             std::make_move_iterator(rejected_.end()));
  rejected_.clear();
}

void RequestQueue::add_enqueue_stats(ServeStats& s) const {
  std::lock_guard lk(mu_);
  s.submitted += counts_.submitted;
  s.rejected += counts_.rejected;
}

void RequestQueue::push_front(InferRequest r) {
  std::lock_guard lk(mu_);
  q_.push_front(std::move(r));
}

bool RequestQueue::pop(InferRequest& out) {
  std::lock_guard lk(mu_);
  if (q_.empty()) return false;
  out = std::move(q_.front());
  q_.pop_front();
  return true;
}

std::vector<InferRequest> RequestQueue::take_expired(double now_s) {
  std::lock_guard lk(mu_);
  std::vector<InferRequest> out;
  for (auto it = q_.begin(); it != q_.end();) {
    if (it->deadline_s > 0.0 && now_s > it->deadline_s) {
      out.push_back(std::move(*it));
      it = q_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void RequestQueue::cancel(int64_t id) {
  std::lock_guard lk(mu_);
  if (std::find(cancelled_.begin(), cancelled_.end(), id) ==
      cancelled_.end()) {
    cancelled_.push_back(id);
  }
}

bool RequestQueue::consume_cancelled(int64_t id) {
  std::lock_guard lk(mu_);
  const auto it = std::find(cancelled_.begin(), cancelled_.end(), id);
  if (it == cancelled_.end()) return false;
  cancelled_.erase(it);
  return true;
}

bool RequestQueue::any_cancelled() const {
  std::lock_guard lk(mu_);
  return !cancelled_.empty();
}

bool RequestQueue::empty() const {
  std::lock_guard lk(mu_);
  return q_.empty();
}

int RequestQueue::size() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(q_.size());
}

// ----------------------------------------------------------- InferWorker

/// Activation-footprint estimate for one worker's pass arena, derived from
/// the model/schedule shapes the way sim/memory derives weight bytes. A
/// pass's arena high-water is the *sum* of its allocations (bump pointers
/// reclaim only at reset), so the worst case — every stream prefilling a
/// full context — sums the per-layer temporaries (QKV/MLP panels, O(t*h)
/// floats each; attention probs, O(heads*t^2)) over this device's share of
/// the layers plus one logits row. The estimate is deliberately generous
/// (the arena retains whatever it grows to) but capped: sizing is a hint,
/// growth remains legal.
static int64_t derived_arena_bytes(const InferConfig& cfg) {
  if (cfg.arena_reserve_mb > 0) {
    return static_cast<int64_t>(cfg.arena_reserve_mb) << 20;
  }
  const model::ModelConfig& m = cfg.model;
  const int64_t t = std::max<int64_t>(1, m.seq);
  const int64_t h = std::max<int64_t>(1, m.hidden);
  const int64_t stages = std::max(1, cfg.sched.P);
  const int64_t layers_per_dev = (m.layers + stages - 1) / stages + 2;
  const int64_t per_layer = 16 * t * h + m.heads * t * t;
  const int64_t floats =
      static_cast<int64_t>(std::max(1, cfg.max_batch)) *
      (per_layer * layers_per_dev + 2 * t * std::max<int64_t>(h, m.vocab));
  const int64_t bytes = floats * static_cast<int64_t>(sizeof(float));
  return std::min<int64_t>(bytes, int64_t{256} << 20);
}

/// One serving pipeline worker: owns the local stage chunks (the same
/// partition the trainer would build) and interprets the forward-only action
/// list of one pass, receiving through the runtime's one prefetcher
/// (RecvAhead, paper §4.2). The last-stage worker additionally turns each
/// micro-batch's final-row logits into the next token via the configured
/// sampling policy (the micro-batch's uniform draw rides in on its
/// PassEntry).
///
/// Zero-allocation steady state: every pass-lifetime tensor this worker
/// creates (received activations, chunk outputs, kernel scratch) draws from
/// the worker's own arena, reset at pass entry; the interpreter's working
/// state (activation slots, next tokens) lives in member vectors that are
/// cleared — never shrunk — per pass, and RecvAhead's ring of posted
/// receives stops growing after the first pass.
class InferWorker {
 public:
  /// Every attention layer of this worker's chunks registers one lane in
  /// the replica's `kv` store, in chunk order.
  InferWorker(const InferConfig& cfg, const schedule::Placement& pl, int rank,
              comm::Communicator comm, KvStore* kv)
      : rank_(rank), sampling_(cfg.sampling), comm_(std::move(comm)),
        recv_(cfg.prefetch_depth),
        arena_(derived_arena_bytes(cfg)) {
    const auto descs = cfg.model.layer_descs();
    const auto ranges =
        model::partition_layers(descs, pl.stages(), cfg.model.seq);
    for (int c = 0; c < pl.chunks_per_device(); ++c) {
      const model::StageRange& r =
          ranges[static_cast<size_t>(pl.stage_of(rank, c))];
      chunks_.emplace_back(descs, r.begin, r.end, cfg.seed,
                           cfg.model.init_std);
      chunks_.back().set_kv_store(kv);
    }
  }

  /// Interprets this device's script for one pass. `plan[mb]` describes
  /// micro-batch mb's decode stream.
  void run_pass(const schedule::Schedule& sched,
                const std::vector<PassEntry>& plan) {
    // Reset-at-entry (see ArenaScope): the previous pass's payloads —
    // including activations sent to peers — were all consumed before its
    // Flush barrier released us, so reclaiming them here is safe.
    tensor::ArenaScope pass_arena(arena_);
    const schedule::DeviceScript& script =
        sched.scripts[static_cast<size_t>(rank_)];
    const int S = sched.placement.stages();
    // Activation slot (mb, pos) lives at mb*(S+1) + (pos+1); an empty
    // tensor (numel 0 — moves leave tensors empty) marks a vacant slot.
    act_.clear();
    act_.resize(plan.size() * static_cast<size_t>(S + 1));
    const auto act_at = [&](int mb, int pos) -> Tensor& {
      return act_[static_cast<size_t>(mb) * static_cast<size_t>(S + 1) +
                  static_cast<size_t>(pos + 1)];
    };
    next_tokens_.assign(plan.size(), -1);

    recv_.start(script, comm_, /*peer_base=*/0);

    for (size_t i = 0; i < script.actions.size(); ++i) {
      const Action& a = script.actions[i];
      switch (a.op) {
        case Op::LoadInput:
          act_at(a.mb, -1) = plan[static_cast<size_t>(a.mb)].input;
          break;

        case Op::RecvAct:
          act_at(a.mb, a.pos - 1) = recv_.take(i);
          break;

        case Op::Forward: {
          Tensor& x = act_at(a.mb, a.pos == 0 ? -1 : a.pos - 1);
          if (x.numel() == 0) {
            throw std::logic_error("InferWorker: missing input activation");
          }
          const PassEntry& e = plan[static_cast<size_t>(a.mb)];
          Tensor y =
              chunks_[static_cast<size_t>(a.chunk)].decode(x, e.pos0, e.slot);
          x = Tensor();
          if (a.pos == S - 1) {
            next_tokens_[static_cast<size_t>(a.mb)] =
                sample_last_row(y, sampling_, e.u);
          } else {
            act_at(a.mb, a.pos) = std::move(y);
          }
          break;
        }

        case Op::SendAct: {
          Tensor& y = act_at(a.mb, a.pos);
          if (y.numel() == 0) {
            throw std::logic_error("InferWorker: missing activation to send");
          }
          comm_.isend(a.peer, make_tag(Kind::Activation, a.mb, a.pos),
                      std::move(y));
          y = Tensor();
          break;
        }

        case Op::Flush:
          comm_.barrier();
          break;

        default:
          throw std::logic_error(
              "InferWorker: backward-phase action in forward-only schedule");
      }
    }
  }

  const std::vector<int64_t>& next_tokens() const { return next_tokens_; }

 private:
  int rank_;
  Sampling sampling_;
  comm::Communicator comm_;
  RecvAhead recv_;
  std::vector<model::StageModule> chunks_;
  std::vector<int64_t> next_tokens_;
  std::vector<Tensor> act_;  ///< flat (mb, pos) slots, rebuilt per pass
  tensor::Arena arena_;  ///< pass-lifetime allocations, reset per pass
};

// ------------------------------------------------------ InferencePipeline

InferencePipeline::InferencePipeline(InferConfig cfg, RequestQueue* shared,
                                     int replica_index)
    : cfg_(std::move(cfg)), replica_index_(replica_index),
      queue_(shared ? shared : &own_queue_),
      gang_(cfg_.sched.P),
      driver_arena_(int64_t{1} << 20) {
  if (!cfg_.model.causal) {
    throw std::invalid_argument(
        "InferencePipeline: decode needs a causal model (each new "
        "token may only extend, never revise, the prefix)");
  }
  if (cfg_.max_batch < 1) {
    throw std::invalid_argument("InferencePipeline: max_batch < 1");
  }
  if (cfg_.max_new_tokens < 1) {
    throw std::invalid_argument("InferencePipeline: max_new_tokens < 1");
  }
  cfg_.sampling.validate();
  if (!cfg_.fault.enabled()) cfg_.fault = FaultInjection::from_env();
  if (cfg_.fault.enabled()) {
    fault_rng_ = Rng(
        Rng::split(cfg_.fault.seed, static_cast<uint64_t>(replica_index_)));
  }
  if (shared == nullptr) {
    // Standalone replica: admission control applies to the owned queue too
    // (one replica's worth of the derived slot-turnover capacity — or the
    // pool-derived stream count when paging is on).
    InferConfig solo = cfg_;
    solo.dp = 1;
    own_queue_.configure(cfg_.queue_policy, cfg_.max_queue > 0
                                                ? cfg_.max_queue
                                                : derived_queue_cap(solo));
  }
  // Compiling B=1 up front surfaces unsupported algorithms (Chimera,
  // PipeDream) and infeasible stage counts at construction time.
  (void)schedule_for(1);
  placement_ = schedule::make_placement(cfg_.sched);
  last_stage_device_ = placement_.at(0, placement_.stages() - 1).device;

  const int P = cfg_.sched.P;
  world_ = std::make_unique<comm::World>(P);
  store_ = std::make_unique<KvStore>(kv_store_config(cfg_));
  for (int d = 0; d < P; ++d) {
    workers_.push_back(std::make_unique<InferWorker>(
        cfg_, placement_, d, comm::Communicator(world_.get(), d),
        store_.get()));
  }
  for (int s = cfg_.max_batch - 1; s >= 0; --s) free_slots_.push_back(s);
  active_.reserve(static_cast<size_t>(cfg_.max_batch));
  still_.reserve(static_cast<size_t>(cfg_.max_batch));
  plan_.reserve(static_cast<size_t>(cfg_.max_batch));
}

InferencePipeline::~InferencePipeline() = default;

const schedule::Schedule& InferencePipeline::schedule_for(int batch) {
  auto it = sched_cache_.find(batch);
  if (it == sched_cache_.end()) {
    schedule::ScheduleRequest req = cfg_.sched;
    req.B = batch;
    schedule::Schedule sched = schedule::make_forward_schedule(req);
    const schedule::ValidationResult vr = schedule::validate(sched);
    if (!vr.ok) {
      throw std::logic_error("InferencePipeline: invalid schedule: " + vr.error);
    }
    it = sched_cache_.emplace(batch, std::move(sched)).first;
  }
  return it->second;
}

int64_t InferencePipeline::slot_bytes() const {
  return store_->slot_ref_bytes();
}

int64_t InferencePipeline::pages_in_use() const {
  return store_->pages_in_use();
}

void InferencePipeline::clear_prefix_cache() { store_->clear_prefix_cache(); }

void InferencePipeline::finish_unserved(const InferRequest& r,
                                        StopReason why) {
  done_.push_back(unserved_completion(r, why));
  if (why == StopReason::Cancelled) {
    ++stats_.cancelled;
  } else if (why == StopReason::Rejected) {
    ++stats_.rejected;
  } else {
    ++stats_.timed_out;
  }
}

void InferencePipeline::admit() {
  // A request counts toward this replica's stats when the replica actually
  // admits it — with a shared queue, that is what makes per-replica stats
  // merge into exact cluster totals.
  const double now = serve_clock_s();
  // Deadline sweep of the whole queue first: queued requests time out
  // within one pass of their deadline even while every slot is busy.
  for (const InferRequest& r : queue_->take_expired(now)) {
    finish_unserved(r, StopReason::DeadlineExceeded);
  }
  while (!free_slots_.empty()) {
    InferRequest r;
    if (!queue_->pop(r)) break;
    if (queue_->consume_cancelled(r.id)) {
      finish_unserved(r, StopReason::Cancelled);
      continue;
    }
    if (r.deadline_s > 0.0 && now > r.deadline_s) {
      finish_unserved(r, StopReason::DeadlineExceeded);
      continue;
    }
    ActiveSeq seq;
    seq.slot = free_slots_.back();
    // Price the request in pages it can actually need (worst-case growth
    // minus cached prefix pages), not a worst-case slot. open_slot reserves
    // that budget atomically, so an admitted stream can never hit pool
    // exhaustion mid-decode.
    const int64_t t = r.prompt.size(1);
    seq.prompt_ids.resize(static_cast<size_t>(t));
    const float* p = r.prompt.data();
    for (int64_t j = 0; j < t; ++j) {
      seq.prompt_ids[static_cast<size_t>(j)] = static_cast<int64_t>(p[j]);
    }
    const int64_t final_len = t + r.max_new_tokens - 1;
    int64_t shared = 0;
    bool ok = store_->open_slot(seq.slot, seq.prompt_ids, final_len, &shared);
    if (!ok) {
      // Preempt the reclaimable part of the prefix cache and retry: the
      // first attempt maximises sharing, this one maximises free pages.
      (void)store_->evict_unreferenced();
      ok = store_->open_slot(seq.slot, seq.prompt_ids, final_len, &shared);
    }
    if (!ok) {
      if (active_.empty()) {
        // Even a fully drained, evicted pool cannot reserve this request's
        // worst case — admitting it would wedge the drain, so refuse it
        // outright (backpressure, like a full bounded queue).
        finish_unserved(r, StopReason::Rejected);
        continue;
      }
      // Pool dry under load: the request keeps its place in line and
      // retries once a finishing stream releases its reservation.
      queue_->push_front(std::move(r));
      break;
    }
    seq.shared_tokens = shared;
    ++stats_.requests;
    stats_.prompt_tokens += r.prompt.size(1);
    seq.id = r.id;
    free_slots_.pop_back();
    seq.prompt_tokens = r.prompt.size(1);
    seq.remaining = r.max_new_tokens;
    // One admission-time reservation keeps the per-token push_back off the
    // steady-state decode pass's allocation budget.
    seq.generated.reserve(static_cast<size_t>(r.max_new_tokens));
    seq.input_prompt = std::move(r.prompt);
    seq.rng = Rng(Rng::split(cfg_.seed, static_cast<uint64_t>(seq.id)));
    seq.on_token = std::move(r.on_token);
    seq.enqueue_s = r.enqueue_s;
    seq.deadline_s = r.deadline_s;
    seq.admit_s = now;
    active_.push_back(std::move(seq));
  }
}

void InferencePipeline::finish_active(ActiveSeq& seq, StopReason why,
                                      double now_s) {
  Completion c;
  c.id = seq.id;
  c.prompt_tokens = seq.prompt_tokens;
  c.tokens = std::move(seq.generated);
  c.stop_reason = why;
  c.enqueue_s = seq.enqueue_s;
  c.admit_s = seq.admit_s;
  c.first_token_s = seq.first_token_s;
  c.finish_s = now_s;
  done_.push_back(std::move(c));
  store_->drop_slot(seq.slot);
  free_slots_.push_back(seq.slot);
  if (why == StopReason::Cancelled) {
    ++stats_.cancelled;
  } else {
    ++stats_.timed_out;
  }
}

void InferencePipeline::reap_aborted() {
  if (active_.empty()) return;
  const double now = serve_clock_s();
  // Fast path for the steady state (no deadlines hit, no cancel marks):
  // no allocation, no rebuild — the per-pass allocation budget of
  // tests/runtime/test_alloc_decode.cpp stays untouched.
  bool any = queue_->any_cancelled();
  for (const ActiveSeq& s : active_) {
    if (any) break;
    any = s.deadline_s > 0.0 && now > s.deadline_s;
  }
  if (!any) return;
  std::vector<ActiveSeq> still;
  still.reserve(active_.size());
  for (ActiveSeq& seq : active_) {
    if (queue_->consume_cancelled(seq.id)) {
      finish_active(seq, StopReason::Cancelled, now);
    } else if (seq.deadline_s > 0.0 && now > seq.deadline_s) {
      finish_active(seq, StopReason::DeadlineExceeded, now);
    } else {
      still.push_back(std::move(seq));
    }
  }
  active_ = std::move(still);
}

void InferencePipeline::inject_faults() {
  const FaultInjection& f = cfg_.fault;
  if (!f.enabled()) return;
  int stall_us = 0;
  if (replica_index_ == f.stuck_replica && passes_run_ < f.stuck_passes) {
    stall_us += f.stuck_us;
  }
  if (f.slow_pass_prob > 0.0 &&
      static_cast<double>(fault_rng_.uniform()) < f.slow_pass_prob) {
    stall_us += f.slow_pass_us;
  }
  if (stall_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

void InferencePipeline::run_pass() {
  // Driver-side pass arena: the plan's input tensors (the [1, 1] decode
  // feeds, prefix-hit prompt tails, prompt copies) live exactly one pass —
  // the gang consumes them before its Flush barrier — so they draw from
  // this arena, reclaimed wholesale at the next pass's entry.
  tensor::ArenaScope pass_arena(driver_arena_);
  plan_.clear();
  bool any_prefill = false;
  for (ActiveSeq& seq : active_) {
    PassEntry e;
    e.slot = seq.slot;
    // One uniform per generated token, drawn from the request's own stream:
    // draw order is per-sequence, so batch composition, pass interleaving
    // and replica assignment cannot shift it.
    if (cfg_.sampling.stochastic()) e.u = seq.rng.uniform();
    if (!seq.prefilled) {
      if (seq.shared_tokens > 0) {
        // Prefix hit: the first shared_tokens rows are already in cached
        // pages (bitwise what this prefill would have computed), so the
        // prefill micro-batch carries only the unshared suffix.
        e.pos0 = seq.shared_tokens;
        const int64_t rest = seq.prompt_tokens - seq.shared_tokens;
        Tensor tail({1, rest});
        const float* src = seq.input_prompt.data() + seq.shared_tokens;
        std::copy(src, src + rest, tail.data());
        e.input = std::move(tail);
      } else {
        e.pos0 = 0;
        e.input = seq.input_prompt;
      }
      any_prefill = true;
    } else {
      e.pos0 = seq.len;
      Tensor one({1, 1});
      one[0] = static_cast<float>(seq.last_token);
      e.input = std::move(one);
    }
    plan_.push_back(std::move(e));
  }

  const schedule::Schedule& sched =
      schedule_for(static_cast<int>(plan_.size()));
  const auto t0 = std::chrono::steady_clock::now();
  // Injected stalls land inside the timed region: a fault-degraded run
  // shows its degradation in prefill_s/decode_s like a real slow device.
  inject_faults();
  ++passes_run_;
  gang_.run([&](int64_t i, int64_t) {
    workers_[static_cast<size_t>(i)]->run_pass(sched, plan_);
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (any_prefill) {
    ++stats_.prefill_passes;
    stats_.prefill_s += wall;
  } else {
    ++stats_.decode_passes;
    stats_.decode_s += wall;
  }

  // Sample the KV footprint before completed streams are dropped: the pass
  // that finishes a sequence is exactly when its cache is fullest.
  stats_.peak_kv_bytes = std::max(stats_.peak_kv_bytes, slot_bytes());
  stats_.kv_pages_peak = std::max(stats_.kv_pages_peak, pages_in_use());

  const double now = serve_clock_s();
  const std::vector<int64_t>& toks =
      workers_[static_cast<size_t>(last_stage_device_)]->next_tokens();
  still_.clear();
  for (size_t i = 0; i < active_.size(); ++i) {
    ActiveSeq& seq = active_[i];
    const int64_t tok = toks[i];
    if (!seq.prefilled) {
      seq.prefilled = true;
      seq.len = seq.prompt_tokens;
      // Offer the completed prompt to the prefix tree so later requests
      // with a common prefix can share its pages (before any potential
      // drop below, so a one-token completion still seeds the cache).
      store_->publish(seq.slot, seq.prompt_ids);
      seq.prompt_ids.clear();
      seq.prompt_ids.shrink_to_fit();
      seq.input_prompt = Tensor();
    } else {
      seq.len += 1;
    }
    if (seq.generated.empty()) seq.first_token_s = now;
    seq.generated.push_back(tok);
    seq.last_token = tok;
    --seq.remaining;
    ++stats_.generated_tokens;
    // A stop token ends the sequence at this pass boundary (the token is
    // recorded); otherwise the continuation cap decides.
    const bool hit_stop = is_stop_token(cfg_.stop_tokens, tok);
    // Streaming: the token leaves the engine at the pass boundary that
    // selected it, before the next pass starts.
    if (seq.on_token) {
      seq.on_token(TokenEvent{seq.id, tok,
                              static_cast<int>(seq.generated.size()) - 1,
                              hit_stop || seq.remaining == 0});
    }
    if (hit_stop || seq.remaining == 0) {
      Completion c;
      c.id = seq.id;
      c.prompt_tokens = seq.prompt_tokens;
      c.tokens = std::move(seq.generated);
      c.stop_reason = hit_stop ? StopReason::StopToken : StopReason::MaxTokens;
      c.enqueue_s = seq.enqueue_s;
      c.admit_s = seq.admit_s;
      c.first_token_s = seq.first_token_s;
      c.finish_s = now;
      ++stats_.completed;
      stats_.ttft_samples_s.push_back(seq.first_token_s - seq.enqueue_s);
      if (c.tokens.size() >= 2) {
        stats_.per_token_samples_s.push_back(
            (now - seq.first_token_s) /
            static_cast<double>(c.tokens.size() - 1));
      }
      done_.push_back(std::move(c));
      store_->drop_slot(seq.slot);
      free_slots_.push_back(seq.slot);
    } else {
      still_.push_back(std::move(seq));
    }
  }
  // Ping-pong swap: both vectors retain their capacity across passes.
  active_.swap(still_);
}

std::vector<Completion> InferencePipeline::drain() {
  for (;;) {
    admit();
    // Pass boundary: cancelled / deadline-expired sequences abort here,
    // their KV slots freed before the next pass is planned.
    reap_aborted();
    if (active_.empty()) {
      // Aborts may have freed every slot while the queue still holds
      // work — loop back to admit; momentarily-empty queue ends the drain.
      if (queue_->empty()) break;
      continue;
    }
    run_pass();
  }
  std::vector<Completion> out = std::move(done_);
  done_.clear();
  own_queue_.take_rejected(out);  // empty when serving a shared queue
  std::sort(out.begin(), out.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  return out;
}

ServeStats InferencePipeline::stats() const {
  ServeStats out = stats_;
  out.kv_pages_in_use = store_->pages_in_use();
  out.prefix_hits = store_->prefix_hits();
  out.prefix_hit_tokens = store_->prefix_hit_tokens();
  own_queue_.add_enqueue_stats(out);
  return out;
}

// ------------------------------------------------------- InferenceServer

InferenceServer::InferenceServer(InferConfig cfg)
    : cfg_(std::move(cfg)), gang_(cfg_.dp) {
  queue_.configure(cfg_.queue_policy, cfg_.max_queue > 0
                                          ? cfg_.max_queue
                                          : derived_queue_cap(cfg_));
  for (int r = 0; r < cfg_.dp; ++r) {
    replicas_.push_back(std::make_unique<InferencePipeline>(cfg_, &queue_, r));
  }
}

std::vector<Completion> InferenceServer::drain() {
  std::vector<std::vector<Completion>> per(replicas_.size());
  gang_.run([&](int64_t r, int64_t) {
    per[static_cast<size_t>(r)] = replicas_[static_cast<size_t>(r)]->drain();
  });
  std::vector<Completion> out;
  for (auto& v : per) {
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  queue_.take_rejected(out);
  std::sort(out.begin(), out.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  return out;
}

ServeStats InferenceServer::stats() const {
  ServeStats out = merge_stats(replica_stats());
  queue_.add_enqueue_stats(out);
  return out;
}

std::vector<ServeStats> InferenceServer::replica_stats() const {
  std::vector<ServeStats> out;
  out.reserve(replicas_.size());
  for (const auto& r : replicas_) out.push_back(r->stats());
  return out;
}

int64_t InferenceServer::slot_bytes() const {
  int64_t b = 0;
  for (const auto& r : replicas_) b += r->slot_bytes();
  return b;
}

int64_t InferenceServer::pages_in_use() const {
  int64_t p = 0;
  for (const auto& r : replicas_) p += r->pages_in_use();
  return p;
}

void InferenceServer::clear_prefix_cache() {
  for (const auto& r : replicas_) r->clear_prefix_cache();
}

}  // namespace hanayo::runtime
