#pragma once
// Forward-only pipeline serving runtime.
//
// The training runtime interprets a wave schedule's F/B program; serving is
// the same machinery with the backward half removed and a feedback edge
// added: the last stage's selected token re-enters stage 0 as the next
// decode step's input. The engine keeps a FIFO request queue and batches
// admitted sequences up to `max_batch` concurrent decode streams —
// continuous batching at pass granularity: whenever a sequence completes
// (its continuation cap, or a stop token), the freed KV slot is handed to
// the next queued request at the following pass boundary, and that
// request's prefill micro-batch rides through the pipeline alongside the
// ongoing sequences' decode micro-batches.
//
// Token selection is a policy (`Sampling`): greedy argmax, or seeded
// top-k / temperature sampling driven by a per-request RNG stream split
// from (InferConfig::seed, request id) — so stochastic decodes are
// bit-identical across the Threads and Reference engines, across runs, and
// across data-parallel replica assignment.
//
// `dp > 1` scales out with `InferenceServer`: dp independent
// InferencePipeline replicas (each its own comm::World of P workers)
// drain one shared mutex-guarded RequestQueue, and per-replica ServeStats
// merge into cluster totals.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/sync.hpp"
#include "model/transformer.hpp"
#include "runtime/gang.hpp"
#include "runtime/worker.hpp"
#include "schedule/algorithms.hpp"
#include "tensor/arena.hpp"
#include "tensor/rng.hpp"

namespace hanayo::runtime {

/// Monotonic seconds since a process-wide epoch (first call). Every serving
/// timestamp — enqueue, admission, first token, finish, deadlines — is a
/// double on this one clock, so durations computed across threads and
/// replicas are consistent.
double serve_clock_s();

/// Nearest-rank (ceil) quantile of `samples` (copied and sorted here);
/// 0 when empty. The same indexing rule as the planner's p99 passes: for
/// n <= 100 samples the p99 is the largest one, so an SLA bound checked
/// against it errs on the safe side.
double quantile_nearest_rank(std::vector<double> samples, double q);

/// Token-selection policy for serving. The factories mirror the historical
/// enum spelling: `Sampling::Greedy()` is the deterministic argmax the
/// cross-backend token-identity guarantee was first stated for; TopK, TopP
/// (nucleus) and Temperature are the stochastic policies, driven by one
/// uniform draw per generated token from the request's seeded RNG stream —
/// which is what keeps them equally testable.
struct Sampling {
  enum class Kind { Greedy, TopK, TopP, Temperature };
  Kind kind = Kind::Greedy;
  int k = 0;                 ///< TopK: candidate-pool size (>= 1)
  float p = 1.0f;            ///< TopP: nucleus probability mass (0 < p <= 1)
  float temperature = 1.0f;  ///< softmax temperature (> 0)

  static Sampling Greedy() { return {}; }
  static Sampling TopK(int k, float temperature = 1.0f) {
    Sampling s;
    s.kind = Kind::TopK;
    s.k = k;
    s.temperature = temperature;
    return s;
  }
  /// Nucleus sampling (Holtzman et al.): the candidate pool is the smallest
  /// probability-ranked prefix of the vocabulary whose softmax mass reaches
  /// `p`; the draw inverts the renormalised CDF of that pool.
  static Sampling TopP(float p, float temperature = 1.0f) {
    Sampling s;
    s.kind = Kind::TopP;
    s.p = p;
    s.temperature = temperature;
    return s;
  }
  static Sampling Temperature(float t) {
    Sampling s;
    s.kind = Kind::Temperature;
    s.temperature = t;
    return s;
  }

  /// True when decoding consumes RNG draws (anything but greedy).
  bool stochastic() const { return kind != Kind::Greedy; }

  /// Throws std::invalid_argument on unusable parameters (TopK k < 1,
  /// TopP p outside (0, 1], temperature <= 0).
  void validate() const;
};

/// One streamed token: fired at the pass boundary that selected it, before
/// the next pass starts — token-at-a-time streaming completions.
struct TokenEvent {
  int64_t request_id = -1;
  int64_t token = -1;
  int index = 0;      ///< 0-based position within the continuation
  bool last = false;  ///< this token completes the request (stop/cap)
};

/// Per-request streaming callback. Events of one request arrive in
/// generation order from the replica serving it; with dp > 1, callbacks of
/// different requests may run concurrently (one per replica thread).
using TokenCallback = std::function<void(const TokenEvent&)>;

/// One queued generation request. `prompt` is a [t] or [1, t] tensor of
/// token ids.
struct InferRequest {
  int64_t id = -1;
  tensor::Tensor prompt;
  int max_new_tokens = 0;
  TokenCallback on_token;   ///< optional streaming callback
  double enqueue_s = 0.0;   ///< serve_clock_s() at enqueue
  /// Absolute serve_clock_s() deadline; 0 = none. Checked on admission and
  /// at every pass boundary: an expired sequence is aborted mid-decode, its
  /// KV slot freed immediately, and its Completion stamped
  /// StopReason::DeadlineExceeded within one pass of the deadline.
  double deadline_s = 0.0;
};

/// Why a sequence stopped generating.
enum class StopReason {
  MaxTokens,         ///< hit its continuation cap
  StopToken,         ///< emitted one of the configured stop tokens
  DeadlineExceeded,  ///< missed its deadline (queued or mid-decode)
  Cancelled,         ///< client-side cancel() before completion
  Rejected,          ///< bounded queue refused admission (backpressure)
};

/// One finished request: the decoded continuation, in generation order
/// (tokens of one sequence are never reordered). A stop token, when one
/// ends the sequence, is the last entry of `tokens`. Aborted requests
/// (deadline / cancel / reject) carry whatever tokens were generated
/// before the abort — possibly none.
///
/// Timestamps are serve_clock_s() values; `admit_s` and `first_token_s`
/// are -1 when the request was never admitted / never produced a token.
struct Completion {
  int64_t id = -1;
  int64_t prompt_tokens = 0;
  std::vector<int64_t> tokens;
  StopReason stop_reason = StopReason::MaxTokens;
  double enqueue_s = 0.0;
  double admit_s = -1.0;
  double first_token_s = -1.0;
  double finish_s = 0.0;

  /// Time to first token (enqueue -> first token); -1 when none emitted.
  double ttft_s() const {
    return first_token_s < 0 ? -1.0 : first_token_s - enqueue_s;
  }
  /// Mean inter-token latency after the first token; -1 below 2 tokens.
  double per_token_s() const {
    return tokens.size() < 2 || first_token_s < 0
               ? -1.0
               : (finish_s - first_token_s) /
                     static_cast<double>(tokens.size() - 1);
  }
  /// True for the normal terminal states (cap or stop token).
  bool served() const {
    return stop_reason == StopReason::MaxTokens ||
           stop_reason == StopReason::StopToken;
  }
};

/// Admission policy of a bounded RequestQueue (backpressure).
enum class QueuePolicy {
  Unbounded,   ///< classic behaviour: every enqueue is eventually served
  RejectNew,   ///< queue full -> the new request is refused (Rejected)
  ShedOldest,  ///< queue full -> the oldest queued request is evicted
};

/// Deterministic fault injection, a test hook for graceful-degradation
/// proofs: all faults derive from one seed (split per replica), so a
/// failing run replays exactly. `seed == 0` disables everything;
/// `from_env()` reads HANAYO_FAULT_SEED so stress binaries can be
/// fault-injected without a rebuild. Faults only ever add latency —
/// correctness invariants (conservation, token identity, slot-leak
/// freedom) must hold under any injection.
struct FaultInjection {
  uint64_t seed = 0;            ///< 0 = off
  double slow_pass_prob = 0.0;  ///< per-pass chance of an injected stall
  int slow_pass_us = 0;         ///< stall length for a slow pass
  int stuck_replica = -1;       ///< replica index to wedge (-1 = none)
  int stuck_passes = 0;         ///< number of initial passes it stays wedged
  int stuck_us = 0;             ///< stall length per wedged pass

  bool enabled() const { return seed != 0; }
  /// HANAYO_FAULT_SEED=<n> -> {seed=n, slow_pass_prob=0.25,
  /// slow_pass_us=200}; unset/0 -> disabled.
  static FaultInjection from_env();
};

struct InferConfig {
  model::ModelConfig model;
  /// algo, P, waves/vchunks and the tf/tb ordering costs. `B` is ignored:
  /// the engine compiles one forward-only schedule per concurrent-sequence
  /// count as the batch composition changes.
  schedule::ScheduleRequest sched;
  int dp = 1;              ///< data-parallel pipeline replicas (InferenceServer)
  int max_batch = 4;       ///< concurrent decode streams (KV-cache slots)
  int max_new_tokens = 16; ///< default continuation cap per request
  Sampling sampling;       ///< token-selection policy (default greedy)
  /// Emitting any of these ids ends the sequence early (the id itself is
  /// recorded); its KV slot frees at the next pass boundary.
  std::vector<int64_t> stop_tokens;
  /// Store cached K/V pages as fp16 words (dequantised run by run for the
  /// attention kernels): halves every slot's resident bytes; decode logits
  /// move within fp16 rounding of the fp32-cache run.
  bool kv_fp16 = false;
  /// K/V rows always live in one pooled page store per replica
  /// (runtime/kv_store.hpp), and admission is always priced in pages.
  /// paged_kv only switches on the knobs below: the prefix cache and the
  /// pool/page sizes. Off means private pages of the default size in the
  /// derived pool. Decode is bitwise identical either way.
  bool paged_kv = false;
  int kv_page_tokens = 16;  ///< rows per page per attention layer (paged_kv)
  /// Total pages in the per-replica pool (paged_kv). 0 derives
  /// max_batch * ceil(seq / page_tokens) * lanes (+1 copy-on-write spare
  /// per stream and lane with the prefix cache), so every slot can hold a
  /// full-context stream.
  int64_t kv_pool_pages = 0;
  /// Cross-request prefix caching (radix tree + copy-on-write; paged_kv).
  /// Off keeps every stream's pages private.
  bool prefix_cache = true;
  uint64_t seed = 1;
  int prefetch_depth = 2;  ///< receives posted ahead (RecvAhead); < 0 throws
  /// Default per-request SLA, seconds from enqueue; 0 = no deadline.
  /// enqueue()'s per-request deadline overrides it.
  double deadline_s = 0.0;
  /// Admission control: with a bounded policy, at most `max_queue` requests
  /// wait (excess handled per the policy and stamped Rejected).
  QueuePolicy queue_policy = QueuePolicy::Unbounded;
  /// Queue capacity for the bounded policies; 0 derives `dp * max_batch` —
  /// the queue never holds more work than one full turnover of the
  /// cluster's KV slots (the `slot_bytes` budget), so admitted-but-waiting
  /// work is bounded by the same memory model the planner prices.
  int max_queue = 0;
  FaultInjection fault;  ///< deterministic fault injection (tests/benches)
  /// Pass-arena reserve per pipeline worker, MiB. Every pass-lifetime
  /// tensor (activations, logits, kernel scratch, the pass plan's inputs)
  /// comes from a per-worker bump arena that resets at the pass boundary;
  /// this knob pre-sizes it so even warm-up never grows a slab. 0 derives
  /// an estimate from the model/schedule shapes (the arena still grows
  /// geometrically on demand if the estimate falls short — sizing is a
  /// performance hint, never a correctness limit).
  int arena_reserve_mb = 0;
};

/// The derived bounded-queue capacity (see InferConfig::max_queue). With
/// paging on, the per-replica stream count derives from pool capacity
/// (worst-case full-context streams the pool can hold, capped by
/// max_batch) instead of assuming max_batch worst-case slots.
int derived_queue_cap(const InferConfig& cfg);

/// Attention lanes the model registers with a KV store: one per
/// Block/AttnHalf layer desc.
int kv_lanes(const model::ModelConfig& model);

/// The derived per-replica pool size (see InferConfig::kv_pool_pages).
int64_t derived_pool_pages(const InferConfig& cfg);

/// Cumulative serving counters (see api::ServeReport for the user-facing
/// vocabulary these feed).
///
/// Outcome conservation: every submitted request reaches exactly one
/// terminal state, so after a full drain
///   submitted == completed + cancelled + timed_out + rejected
/// holds on merged cluster totals (`terminal()` is the right-hand side).
/// `submitted`/`rejected` are stamped at the enqueue side (the server, or
/// a pipeline owning its queue); the serving replica stamps the other
/// three — so per-replica rows conserve only in aggregate.
struct ServeStats {
  int64_t requests = 0;  ///< admitted into a KV slot (not: submitted)
  int64_t prompt_tokens = 0;
  int64_t generated_tokens = 0;
  int prefill_passes = 0;  ///< passes containing at least one prefill entry
  int decode_passes = 0;   ///< pure decode passes
  double prefill_s = 0.0;
  double decode_s = 0.0;
  int64_t peak_kv_bytes = 0;  ///< max over passes, summed across devices

  /// KV page accounting. `kv_pages_in_use` is a gauge sampled at stats()
  /// time; the peak is tracked per pass. Prefix hits count admissions that
  /// reused cached prompt pages (always zero without paged_kv's prefix
  /// cache); hit tokens are exactly the prefill tokens those admissions
  /// skipped.
  int64_t kv_pages_in_use = 0;
  int64_t kv_pages_peak = 0;
  int64_t prefix_hits = 0;
  int64_t prefix_hit_tokens = 0;

  int64_t submitted = 0;  ///< enqueue() calls (before admission control)
  int64_t completed = 0;  ///< served to MaxTokens / StopToken
  int64_t rejected = 0;   ///< refused by the bounded queue
  int64_t cancelled = 0;  ///< client cancel() (queued or mid-decode)
  int64_t timed_out = 0;  ///< deadline exceeded (queued or mid-decode)

  /// Requests that reached a terminal state (conservation right-hand side).
  int64_t terminal() const {
    return completed + rejected + cancelled + timed_out;
  }

  /// Latency samples of *served* requests (aborted ones excluded — SLA
  /// quantiles describe survivors). Appended at completion time, never on
  /// the steady-state decode path, so the per-pass allocation budget
  /// (tests/runtime/test_alloc_decode.cpp) is untouched.
  std::vector<double> ttft_samples_s;       ///< enqueue -> first token
  std::vector<double> per_token_samples_s;  ///< mean inter-token, per request
};

/// Element-wise sum — replica stats into cluster totals. Counters and busy
/// seconds add; peak_kv_bytes adds too, because replicas occupy disjoint
/// devices (the sum is the cluster-wide footprint when peaks coincide).
/// Latency samples concatenate, so quantiles over the merge span every
/// replica's survivors.
ServeStats merge_stats(const std::vector<ServeStats>& per_replica);

/// The one arithmetic behind every serving throughput/latency number —
/// api::ServeReport's accessors and the serving planner's candidate rows
/// both delegate here, which is what makes their equality structural
/// rather than maintained by parallel edits. `totals` are the merged
/// counters; `replicas` the per-replica breakdown (may be empty, e.g. the
/// sequential Reference), `dp` the replica count the sums span.
///
/// Elapsed-time estimate for concurrent replicas: the slowest replica's
/// busy seconds when the breakdown is present (robust to skewed admission
/// — an idle replica contributes nothing), else summed seconds over dp.
double serve_wall_estimate_s(const ServeStats& totals,
                             const std::vector<ServeStats>& replicas, int dp);
double serve_prefill_wall_estimate_s(const ServeStats& totals,
                                     const std::vector<ServeStats>& replicas,
                                     int dp);
/// Prompt tokens absorbed per second of (concurrent) prefill time.
double serve_prefill_tokens_per_s(const ServeStats& totals,
                                  const std::vector<ServeStats>& replicas,
                                  int dp);
/// Generated tokens per second over the whole run (scales with dp).
double serve_tokens_per_s(const ServeStats& totals,
                          const std::vector<ServeStats>& replicas, int dp);
/// Mean decode-pass latency (a per-pass mean, so dp leaves it unchanged).
double serve_per_token_latency_s(const ServeStats& totals);

/// Greedy head shared by every serving engine: the argmax of the final
/// row of a [1, t, V] logits tensor, first index winning ties. Threads and
/// Reference both select through this, which is what makes their
/// token-identity guarantee a single-definition property.
int64_t greedy_argmax_last_row(const tensor::Tensor& logits);

/// The full selection head: greedy dispatches to the argmax; TopK /
/// Temperature invert the (temperature-scaled, stable-softmax) CDF of the
/// candidate pool at the request's uniform draw `u` in [0, 1). TopK ranks
/// its pool (logit desc, index asc); Temperature walks the whole
/// vocabulary in index order, O(V). Either way the walk order is fixed and
/// the accumulation sequential double — bit-identical wherever the logits
/// are.
int64_t sample_last_row(const tensor::Tensor& logits, const Sampling& s,
                        float u);

/// True when `tok` is one of the configured stop tokens.
bool is_stop_token(const std::vector<int64_t>& stop_tokens, int64_t tok);

/// Shared request admission: normalises a [t] or [1, t] prompt of ids in
/// [0, model_vocab), applies the config-default continuation length, and
/// enforces the positional bound (prompt + continuation - 1 must fit
/// `model_seq`; the last generated token never re-enters the cache). Stamps
/// `enqueue_s` with the current serve clock and resolves the deadline:
/// `deadline_s` > 0 is a relative SLA from now, 0 falls back to
/// `default_deadline_s` (the config default; 0 again means none). Throws
/// std::invalid_argument.
InferRequest make_infer_request(tensor::Tensor prompt, int max_new_tokens,
                                int default_new_tokens, int64_t model_seq,
                                int64_t model_vocab, int64_t id,
                                double deadline_s = 0.0,
                                double default_deadline_s = 0.0);

/// Mutex-guarded FIFO of pending requests — the single queue dp pipeline
/// replicas drain concurrently (each pop hands one request to whichever
/// replica has a free KV slot first). Also the front door (ids, admission
/// control, submitted/rejected counts) and the cancellation rendezvous:
/// cancel(id) records the id here, and whichever replica holds (or pops)
/// the request consumes the mark at its next pass boundary.
class RequestQueue {
 public:
  /// Sets the admission policy; `cap` is ignored for Unbounded.
  void configure(QueuePolicy policy, int cap);

  /// Builds the next request id's InferRequest (make_infer_request; throws
  /// before counting) and enqueues it under the admission policy. Refused
  /// requests (RejectNew: the new one when full; ShedOldest: the evicted
  /// head) become Rejected completions for take_rejected(). Returns the id.
  int64_t enqueue(const InferConfig& cfg, tensor::Tensor prompt,
                  int max_new_tokens, TokenCallback on_token,
                  double deadline_s);
  /// Moves the pending Rejected completions to the end of `out`.
  void take_rejected(std::vector<Completion>& out);
  /// Adds the enqueue-side submitted/rejected counters to `s`.
  void add_enqueue_stats(ServeStats& s) const;
  /// Returns a popped request to the queue head, preserving FIFO order —
  /// used by admission when the KV pool cannot reserve pages for the
  /// oldest request yet (it stays first in line; no policy check, the
  /// request was already admitted past it once).
  void push_front(InferRequest r);
  /// Pops the oldest request into `out`; false when empty.
  bool pop(InferRequest& out);
  /// Removes and returns every queued request whose deadline has passed —
  /// called by replicas each admission sweep, so queued requests time out
  /// within one pass of their deadline even when all slots are busy.
  std::vector<InferRequest> take_expired(double now_s);
  /// Marks `id` for cancellation (thread-safe, any time). The mark is
  /// honoured at the serving replica's next pass boundary — or at pop time
  /// if the request is still queued. Unknown/finished ids are a no-op
  /// (the mark sits in the registry until consumed or forgotten by it).
  void cancel(int64_t id);
  /// True (and consumes the mark) if `id` was cancelled.
  bool consume_cancelled(int64_t id);
  /// True when any cancel mark is pending — the replicas' cheap pass-
  /// boundary guard before the per-sequence consume_cancelled sweep.
  bool any_cancelled() const;
  bool empty() const;
  int size() const;

 private:
  mutable sync::Mutex<sync::Rank::ServeQueue> mu_;
  std::deque<InferRequest> q_;
  std::vector<int64_t> cancelled_;  ///< pending cancel marks (few at a time)
  QueuePolicy policy_ = QueuePolicy::Unbounded;
  int cap_ = 0;
  int64_t next_id_ = 0;
  ServeStats counts_;                 ///< submitted / rejected only
  std::vector<Completion> rejected_;  ///< refused, not yet drained
};

/// One micro-batch of one pipeline pass (internal, shared with InferWorker).
struct PassEntry {
  int slot = 0;        ///< KV-cache stream
  int64_t pos0 = 0;    ///< absolute position of input's first token
  float u = 0.0f;      ///< this step's uniform draw (stochastic sampling)
  tensor::Tensor input;  ///< [1, t] token ids (prompt, or one decoded token)
};

class InferWorker;
class KvStore;

class InferencePipeline {
 public:
  /// Builds one pipeline replica of `cfg.sched.P` worker devices. Requires
  /// a causal model (decode re-feeds the last position) and a
  /// unidirectional algorithm (no Chimera). When `shared` is non-null the
  /// replica admits from that queue instead of its own (InferenceServer);
  /// `cfg.dp` is ignored here — replication lives in InferenceServer.
  /// `replica_index` selects this replica's fault-injection stream.
  explicit InferencePipeline(InferConfig cfg, RequestQueue* shared = nullptr,
                             int replica_index = 0);
  ~InferencePipeline();

  /// Queues a prompt; returns the request id (also the cancel handle).
  /// `max_new_tokens` of 0 uses the config default. `on_token` (optional)
  /// streams each selected token at the pass boundary that produced it;
  /// an aborted request's stream simply stops (its last event has
  /// last == false). `deadline_s` > 0 is a relative SLA from now; 0 uses
  /// the config default. Throws if a prompt id lies outside [0, vocab) or
  /// prompt length + continuation would exceed `model.seq`.
  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens = 0,
                  TokenCallback on_token = {}, double deadline_s = 0.0) {
    return queue_->enqueue(cfg_, std::move(prompt), max_new_tokens,
                           std::move(on_token), deadline_s);
  }

  /// Requests cancellation of `id` (thread-safe, callable concurrently
  /// with drain). Honoured at the next pass boundary: the sequence's KV
  /// slot frees immediately and its Completion is stamped Cancelled with
  /// whatever tokens were already generated. Unknown or already-finished
  /// ids are a harmless no-op.
  void cancel(int64_t id) { queue_->cancel(id); }

  /// Runs pipeline passes until the request queue is empty and every
  /// admitted sequence has completed or aborted; returns the completions
  /// of this drain in request-id (enqueue) order.
  std::vector<Completion> drain();

  bool idle() const { return queue_->empty() && active_.empty(); }
  /// Replica counters, including enqueue-side submitted/rejected when this
  /// pipeline owns its queue. Not meaningful concurrently with drain().
  ServeStats stats() const;
  const InferConfig& config() const { return cfg_; }

  /// Bytes of the KV pages live slots reference — 0 whenever no sequence
  /// is mid-flight (the no-slot-leak invariant). The prefix cache's
  /// retained pages are excluded: they are reclaimable.
  int64_t slot_bytes() const;

  /// Pages currently allocated from this replica's pool (slots + prefix
  /// cache). After clear_prefix_cache() on a drained replica this returns
  /// 0 — the no-page-leak invariant.
  int64_t pages_in_use() const;
  /// Drops every unreferenced prefix-cache page (none without paged_kv).
  void clear_prefix_cache();

  /// The forward-only schedule compiled for `batch` concurrent sequences
  /// (compiled and validated on first use, then cached).
  const schedule::Schedule& schedule_for(int batch);

 private:
  struct ActiveSeq {
    int64_t id = -1;
    int slot = -1;
    int64_t len = 0;          ///< tokens already in the KV cache
    int64_t prompt_tokens = 0;
    int remaining = 0;        ///< new tokens still to generate
    bool prefilled = false;
    int64_t last_token = -1;
    tensor::Tensor input_prompt;  ///< pending prompt (dropped after prefill)
    /// The prompt as token ids (kept until the prefix tree has been
    /// offered the prompt via KvStore::publish), and how many leading
    /// tokens admission found already cached (prefill starts at that
    /// position).
    std::vector<int64_t> prompt_ids;
    int64_t shared_tokens = 0;
    tensor::Rng rng{0};       ///< per-request sampling stream (seed, id)
    std::vector<int64_t> generated;
    TokenCallback on_token;   ///< streaming callback (may be empty)
    double enqueue_s = 0.0;
    double deadline_s = 0.0;  ///< absolute; 0 = none
    double admit_s = 0.0;
    double first_token_s = -1.0;
  };

  void admit();
  /// Stamps a terminal Completion for a request that never got (or no
  /// longer holds) a KV slot, and counts the matching stats_ outcome.
  void finish_unserved(const InferRequest& r, StopReason why);
  /// Pass-boundary abort sweep: cancelled or deadline-expired active
  /// sequences drop their slot now (KV freed immediately) and complete
  /// with their partial tokens.
  void reap_aborted();
  void finish_active(ActiveSeq& seq, StopReason why, double now_s);
  void inject_faults();
  void run_pass();

  InferConfig cfg_;
  schedule::Placement placement_;
  int last_stage_device_ = 0;
  int replica_index_ = 0;
  std::unique_ptr<comm::World> world_;
  std::vector<std::unique_ptr<InferWorker>> workers_;
  std::map<int, schedule::Schedule> sched_cache_;
  RequestQueue own_queue_;
  RequestQueue* queue_ = nullptr;  ///< own_queue_, or the server's shared one
  std::unique_ptr<KvStore> store_;  ///< every stream's K/V pages
  std::vector<ActiveSeq> active_;
  std::vector<int> free_slots_;
  std::vector<Completion> done_;
  ServeStats stats_;
  tensor::Rng fault_rng_{0};  ///< per-replica fault stream (seed, replica)
  int passes_run_ = 0;        ///< lifetime pass count (fault scheduling)

  /// Member i runs workers_[i]'s share of each pass (0 on drain's thread).
  Gang gang_;

  /// Driver-side pass arena (plan inputs, per-pass temporaries) plus the
  /// reused pass containers — cleared, never shrunk, each pass.
  tensor::Arena driver_arena_;
  std::vector<PassEntry> plan_;
  std::vector<ActiveSeq> still_;
};

/// Data-parallel serving: `cfg.dp` independent InferencePipeline replicas
/// (identical weights — same seed — on disjoint comm::Worlds) drain one
/// shared RequestQueue concurrently. Completions merge in request-id order;
/// ServeStats are kept per replica and merged on demand. Because sampling
/// streams are split from (seed, request id), which replica serves a
/// request never changes its tokens.
class InferenceServer {
 public:
  explicit InferenceServer(InferConfig cfg);

  /// Queues a prompt on the shared queue; returns the request id (also the
  /// cancel handle). `on_token` streams the request's tokens from whichever
  /// replica serves it (events of one request are ordered; different
  /// requests' callbacks may run concurrently, one per replica thread).
  /// `deadline_s` > 0 is a relative SLA from now; 0 uses the config
  /// default. Under a bounded queue policy the request may be refused (or
  /// evict the oldest queued one) — the refused request surfaces as a
  /// StopReason::Rejected completion from the next drain().
  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens = 0,
                  TokenCallback on_token = {}, double deadline_s = 0.0) {
    return queue_.enqueue(cfg_, std::move(prompt), max_new_tokens,
                          std::move(on_token), deadline_s);
  }

  /// Requests cancellation of `id` (thread-safe, callable concurrently with
  /// drain); honoured at the serving replica's next pass boundary.
  void cancel(int64_t id) { queue_.cancel(id); }

  /// Drains the shared queue on all replicas concurrently (one gang member
  /// per replica); completions of this drain in request-id order.
  std::vector<Completion> drain();

  int dp() const { return static_cast<int>(replicas_.size()); }
  const InferConfig& config() const { return cfg_; }

  /// Cluster totals: merge_stats over the replicas plus the server-side
  /// submitted/rejected counters (admission control happens here, before
  /// any replica sees the request — so those two live in totals only).
  ServeStats stats() const;
  /// Per-replica counters, index = replica id.
  std::vector<ServeStats> replica_stats() const;

  /// Resident KV bytes summed over replicas — 0 when fully drained.
  int64_t slot_bytes() const;

  /// Allocated pages summed over replicas; see
  /// InferencePipeline::pages_in_use.
  int64_t pages_in_use() const;
  /// Drops unreferenced prefix-cache pages on every replica.
  void clear_prefix_cache();

  /// Replica 0's compiled forward-only schedule for `batch` streams (all
  /// replicas compile identical programs).
  const schedule::Schedule& schedule_for(int batch) {
    return replicas_[0]->schedule_for(batch);
  }

 private:
  InferConfig cfg_;
  Gang gang_;  ///< member r drains replicas_[r]
  RequestQueue queue_;
  std::vector<std::unique_ptr<InferencePipeline>> replicas_;
};

}  // namespace hanayo::runtime
