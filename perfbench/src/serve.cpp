// Serving probe of the traced run: serve-chat's traffic (a paged-KV
// InferenceSession driven by a closed loop of clients) for a short loop,
// read through the session's report.

#include <functional>
#include <map>

#include "common.hpp"
#include "runners.hpp"

namespace perfbench {

using namespace hanayo;

namespace {

constexpr int kWarmupRequestsPerClient = 2;
constexpr double kProbeLoopS = 0.5;

InferenceSession build_server(const WorkloadSpec& w, uint64_t seed) {
  return InferenceSession::builder()
      .model(w.model)
      .algo(Algo::Hanayo)
      .pipeline(w.P)
      .waves(w.W)
      .data_parallel(w.dp)
      .backend(BackendKind::Threads)
      .max_batch(w.max_batch)
      .max_new_tokens(w.new_tokens)
      .sampling(Sampling::Greedy())
      .paged_kv(true)
      .kv_page_tokens(w.page_tokens)
      .prefix_cache(true)
      .seed(seed)
      .build();
}

using PromptFn = std::function<Tensor(int client, int64_t k)>;
using MoreFn = std::function<bool(int client, int64_t k)>;

/// Closed loop of clients on the thread that calls run(): a client sends
/// its next request from the token callback that delivers its previous
/// request's last token, while `more(client, k)` holds for its k-th.
class ClosedLoop {
 public:
  ClosedLoop(InferenceSession& server, int clients, int new_tokens,
             PromptFn prompt, MoreFn more)
      : server_(server),
        new_tokens_(new_tokens),
        prompt_(std::move(prompt)),
        more_(std::move(more)),
        sent_(static_cast<size_t>(clients), 0) {}
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void submit(int client) {
    const int64_t k = sent_[static_cast<size_t>(client)]++;
    const int64_t id = server_.enqueue(
        prompt_(client, k), new_tokens_, [this, client](const TokenEvent& e) {
          if (e.last && more_(client, sent_[static_cast<size_t>(client)])) {
            submit(client);
          }
        });
    client_of_[id] = client;
  }
  int client_of(int64_t id) const { return client_of_.at(id); }
  int64_t submitted() const { return static_cast<int64_t>(client_of_.size()); }

 private:
  InferenceSession& server_;
  int new_tokens_;
  PromptFn prompt_;
  MoreFn more_;
  std::vector<int64_t> sent_;
  std::map<int64_t, int> client_of_;
};

struct ServeLoop {
  std::vector<Completion> done;
  int64_t submitted = 0;
  ServeReport before, after;  ///< session report around the loop
};

ServeLoop serve_loop(InferenceSession& s, const WorkloadSpec& w,
                     const std::vector<int>& order, PromptFn prompt,
                     MoreFn more, Tracer& tr) {
  ServeLoop L;
  L.before = s.report();
  ClosedLoop loop(s, w.clients, w.new_tokens, std::move(prompt),
                  std::move(more));
  auto span = tr.scope("serve.loop");
  for (int c : order) loop.submit(c);
  {
    auto run = tr.scope("api.run");
    L.done = s.run();
  }
  L.submitted = loop.submitted();
  L.after = s.report();
  if (tr.enabled()) {
    // Request lifetimes, one track per client; serve-clock stamps are
    // shifted onto the benchmark's clock.
    const double shift = now_s() - runtime::serve_clock_s();
    for (const Completion& c : L.done) {
      const int track = 100 + loop.client_of(c.id);
      tr.add("serve.request", c.enqueue_s + shift, c.finish_s + shift,
             span.index(), track);
      if (c.first_token_s >= 0) {
        tr.add("serve.ttft", c.enqueue_s + shift, c.first_token_s + shift,
               span.index(), track);
      }
    }
  }
  return L;
}

/// Closed-loop warm-up: two requests per client, same shapes as the timed
/// loop, so schedules, arenas and the prefix cache are in steady state.
void warm_up(InferenceSession& s, const WorkloadSpec& w, const ChatInputs& in,
             Tracer& tr) {
  serve_loop(
      s, w, in.client_order(),
      [&in](int client, int64_t k) {
        return in.warmup(client * kWarmupRequestsPerClient + k);
      },
      [](int, int64_t k) { return k < kWarmupRequestsPerClient; }, tr);
}

ServeLoop timed_loop(InferenceSession& s, const WorkloadSpec& w,
                     const ChatInputs& in, double seconds, Tracer& tr) {
  const double stop_at = now_s() + seconds;
  return serve_loop(
      s, w, in.client_order(),
      [&in](int client, int64_t k) { return in.prompt(client, k); },
      [stop_at](int, int64_t) { return now_s() < stop_at; }, tr);
}

/// Serving-runtime figures of one loop.
void set_serving_runtime(const ServeLoop& L, Metrics& m) {
  const ServeReport& a = L.before;
  const ServeReport& b = L.after;
  const double prefill_passes = b.prefill_passes - a.prefill_passes;
  const double decode_passes = b.decode_passes - a.decode_passes;
  m.set("runtime.serve.prefill_pass_ms",
        (b.prefill_s - a.prefill_s) / prefill_passes * 1e3);
  m.set("runtime.serve.decode_pass_ms",
        (b.decode_s - a.decode_s) / decode_passes * 1e3);
  std::vector<double> wait;
  for (const Completion& c : L.done) {
    if (c.admit_s >= 0) wait.push_back(c.admit_s - c.enqueue_s);
  }
  m.set("runtime.serve.queue_wait_ms_p50", median(wait) * 1e3);
  m.set("runtime.kv.prefix_hit_rate",
        static_cast<double>(b.prefix_hit_tokens - a.prefix_hit_tokens) /
            static_cast<double>(b.prompt_tokens - a.prompt_tokens));
  m.set("runtime.kv.pages_peak", static_cast<double>(b.kv_pages_peak));
}

}  // namespace

void probe_serving_runtime(uint64_t seed, Tracer& tracer, RunResult& out) {
  auto span = tracer.scope("probe.serving");
  const WorkloadSpec& w = serve_chat();
  const ChatInputs in(w, seed);
  InferenceSession server = build_server(w, seed);
  warm_up(server, w, in, tracer);
  const ServeLoop L = timed_loop(server, w, in, kProbeLoopS, tracer);
  int64_t served = 0;
  for (const Completion& c : L.done) served += c.served() ? 1 : 0;
  out.attempted += L.submitted;
  if (served < L.submitted) {
    out.failed += L.submitted - served;
    out.correct = false;
    out.detail += "serving probe: " + std::to_string(L.submitted - served) +
                  " requests not served\n";
  }
  set_serving_runtime(L, out.metrics);
}

}  // namespace perfbench
