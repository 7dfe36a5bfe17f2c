// Training workloads: a Threads-backend Hanayo session stepped over
// DataLoader batches for the run's seconds, then replayed on the Reference
// backend.

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "common.hpp"
#include "gate.hpp"
#include "runners.hpp"
#include "tensor/alloc_stats.hpp"

namespace perfbench {

using namespace hanayo;

namespace {

constexpr int kWarmupSteps = 2;
constexpr int kReplaySteps = 2;  ///< first timed steps replayed on Reference

/// setup_s is the median of fresh set-ups timed at the end of the run: at
/// least kMinSetups, then more until kSetupBudgetS seconds went into them,
/// so a short set-up is sampled often enough to settle. A process's first
/// set-up (the measured session's) runs on cold caches and idle cores and
/// takes several times longer, and running them after the timed loop keeps
/// their heap churn out of peak_rss_mb.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 64;
constexpr double kSetupBudgetS = 3.0;

Session build_session(const WorkloadSpec& w, uint64_t seed, BackendKind kind,
                      bool timeline) {
  // The sequential reference takes the whole global batch as one replica.
  const bool ref = kind == BackendKind::Reference;
  return Session::builder()
      .model(w.model)
      .algo(Algo::Hanayo)
      .pipeline(w.P)
      .waves(w.W)
      .micro_batches(ref ? w.B * w.dp : w.B)
      .data_parallel(ref ? 1 : w.dp)
      .mb_sequences(w.mb_sequences)
      .seed(seed)
      .learning_rate(0.05f)
      .momentum(0.9f)
      .backend(kind)
      .record_timeline(timeline)
      .build();
}

/// Session build plus warm-up steps: what a user waits for before the
/// first steady-state step.
struct Setup {
  std::optional<Session> session;
  std::vector<float> warm_losses;
  double build_s = 0.0;
  double setup_s = 0.0;
};

Setup set_up(const WorkloadSpec& w, uint64_t seed, const TrainInputs& in,
             bool timeline, Tracer& tr) {
  auto span = tr.scope("setup");
  Setup s;
  const double t0 = now_s();
  {
    auto b = tr.scope("api.build");
    s.session.emplace(build_session(w, seed, BackendKind::Threads, timeline));
  }
  s.build_s = now_s() - t0;
  for (int k = 0; k < kWarmupSteps; ++k) {
    auto st = tr.scope("api.step.warmup");
    s.warm_losses.push_back(s.session->step(in.batch(k)).loss);
  }
  s.setup_s = now_s() - t0;
  return s;
}

/// One timed stretch of steps. With `timeline`, also the per-step runtime
/// figures read from the workers' compute spans.
struct Loop {
  std::vector<double> step_s;
  std::vector<float> losses;  ///< NaN where the step threw
  std::set<size_t> failed;    ///< indices into `losses`
  std::vector<double> iter_s;  ///< data loading plus step, per good step
  std::vector<double> bubble, busy_max_s, overhead_s, allocs;
};

/// Length of the union of [start, end) intervals.
double covered_s(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_end = -1e300;
  for (const auto& [s, e] : iv) {
    if (s > cur_end) {
      total += e - s;
      cur_end = e;
    } else if (e > cur_end) {
      total += e - cur_end;
      cur_end = e;
    }
  }
  return total;
}

Loop timed_loop(Session& s, const TrainInputs& in, double seconds,
                int min_steps, bool timeline, Tracer& tr, std::string* detail) {
  Loop L;
  auto run_span = tr.scope("train.loop");
  const double t0 = now_s();
  for (int64_t k = kWarmupSteps;
       now_s() - t0 < seconds || static_cast<int>(L.losses.size()) < min_steps;
       ++k) {
    const double iter_t0 = now_s();
    Batch batch;
    {
      auto d = tr.scope("data.batch");
      batch = in.batch(k);
    }
    // Every binary linked with the library counts allocations (its
    // alloc_stats.cpp defines the global operator new, so the archive
    // member resolves the first reference to it); only traced loops read
    // the counters.
    const tensor::AllocStats a0 =
        timeline ? tensor::alloc_stats() : tensor::AllocStats{};
    double step_t0 = 0.0;
    int step_span = -1;
    try {
      auto sp = tr.scope("api.step");
      step_span = sp.index();
      step_t0 = now_s();
      const StepReport r = s.step(batch);
      L.step_s.push_back(r.wall_s);
      L.losses.push_back(r.loss);
      if (!std::isfinite(r.loss)) {
        L.failed.insert(L.losses.size() - 1);
        *detail += "step " + std::to_string(k) + ": non-finite loss\n";
      } else {
        L.iter_s.push_back(now_s() - iter_t0);
      }
    } catch (const std::exception& e) {
      L.losses.push_back(NAN);
      L.failed.insert(L.losses.size() - 1);
      *detail += "step " + std::to_string(k) + " threw: " + e.what() + "\n";
      break;  // the session's state is unknown after a failed step
    }
    if (!timeline) continue;
    L.allocs.push_back(
        static_cast<double>((tensor::alloc_stats() - a0).allocs));
    const RunReport rep = s.report();
    double busy_total = 0.0, busy_max = 0.0, makespan = 0.0;
    std::vector<std::pair<double, double>> all;
    for (size_t rank = 0; rank < rep.timeline.size(); ++rank) {
      double busy = 0.0;
      for (const runtime::ComputeSpan& c : rep.timeline[rank]) {
        busy += c.end - c.start;
        makespan = std::max(makespan, c.end);
        all.emplace_back(c.start, c.end);
        tr.add(c.backward ? "runtime.backward" : "runtime.forward",
               step_t0 + c.start, step_t0 + c.end, step_span,
               1 + static_cast<int>(rank));
      }
      busy_total += busy;
      busy_max = std::max(busy_max, busy);
    }
    const double ranks = static_cast<double>(rep.timeline.size());
    L.bubble.push_back(makespan > 0.0 ? 1.0 - busy_total / (makespan * ranks)
                                      : 0.0);
    L.busy_max_s.push_back(busy_max);
    L.overhead_s.push_back(L.step_s.back() - covered_s(std::move(all)));
  }
  return L;
}

/// Adds a session's steps to `out`, failing those that threw, gave a
/// non-finite loss, or differ from the Reference replay `want` (warm-up
/// and first timed steps).
void gate(const Setup& s, const Loop& l, const std::vector<float>& want,
          RunResult& out) {
  std::vector<float> got = s.warm_losses;
  for (size_t i = 0; i < l.losses.size() && i < kReplaySteps; ++i) {
    got.push_back(l.losses[i]);
  }
  std::set<size_t> failed;  // indices over warm-up + timed steps
  for (size_t i : l.failed) failed.insert(kWarmupSteps + i);
  // A loop cut short by a throw replays only the steps it ran.
  const std::vector<float> ref(
      want.begin(), want.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(got.size(), want.size())));
  for (size_t i : loss_mismatches(got, ref, &out.detail)) failed.insert(i);
  out.attempted += kWarmupSteps + static_cast<int64_t>(l.losses.size());
  out.failed += static_cast<int64_t>(failed.size());
  if (!failed.empty()) out.correct = false;
}

}  // namespace

void run_train(const WorkloadSpec& w, const RunOptions& opt, Tracer& tracer,
               RunResult& out) {
  const TrainInputs in(w, opt.seed);
  Tracer untraced(false, 0, "");

  // The measured session. Its set-up is the process's first, so setup_s is
  // timed on fresh sessions at the end of the run (see kMinSetups).
  std::optional<Setup> kept = set_up(w, opt.seed, in, false, untraced);
  Session& session = *kept->session;

  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Loop L =
      timed_loop(session, in, seconds, 3, false, untraced, &out.detail);
  const double peak_rss = peak_rss_mb();
  const double p50 = median(L.step_s);

  // Correctness gate: every session the run steps must match the Reference
  // replay of the warm-up and first timed steps.
  std::vector<float> want;
  {
    auto span = tracer.scope("gate.reference_replay");
    Session ref = build_session(w, opt.seed, BackendKind::Reference, false);
    for (int64_t k = 0; k < kWarmupSteps + kReplaySteps; ++k) {
      want.push_back(ref.step(in.batch(k)).loss);
    }
  }
  gate(*kept, L, want, out);

  if (!opt.trace) {
    const RunReport rep = session.report();
    Metrics& m = out.metrics;
    // Tokens of one step over the median loop iteration (data loading plus
    // step): a median, so a stall of the shared host moves it less than a
    // total-over-wall ratio.
    m.set("tok_per_s", static_cast<double>(session.batch_rows() * w.model.seq) /
                           median(L.iter_s));
    m.set("step_ms_p50", p50 * 1e3);
    m.set("peak_rss_mb", peak_rss);
    int64_t peak = 0;
    for (int64_t b : rep.memory.peak_cache_bytes) peak = std::max(peak, b);
    m.set("peak_cache_mb", static_cast<double>(peak) / kMiB);
  } else {
    // Traced half: a session recording worker compute spans, with the
    // benchmark's own spans around every call.
    Setup traced = set_up(w, opt.seed, in, true, tracer);
    const Loop T = timed_loop(*traced.session, in, seconds, 3, true, tracer,
                              &out.detail);
    gate(traced, T, want, out);
    Metrics& m = out.metrics;
    m.set("runtime.bubble_ratio", median(T.bubble));
    m.set("runtime.stage_busy_ms_max", median(T.busy_max_s) * 1e3);
    m.set("runtime.step_overhead_ms", median(T.overhead_s) * 1e3);
    m.set("schedule.sim_bubble_ratio", traced.session->predict().bubble_ratio);
    m.set("runtime.allocs_per_step", median(T.allocs));
    m.set("trace_overhead_pct", (median(T.step_s) / p50 - 1.0) * 100.0);
    const schedule::Schedule* sched = traced.session->schedule();
    const double msgs = static_cast<double>(
        (sched->count(schedule::Op::SendAct) +
         sched->count(schedule::Op::SendGrad)) *
        w.dp);
    m.set("comm.msgs_per_step", msgs);
    m.set("comm.bytes_per_step",
          msgs * static_cast<double>(w.mb_sequences * w.model.seq *
                                     w.model.hidden) *
              sizeof(float));
  }

  kept.reset();  // one live session at a time
  std::vector<double> setup_s, build_s;
  const double setups_t0 = now_s();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (now_s() - setups_t0 < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    const Setup s = set_up(w, opt.seed, in, false, untraced);
    setup_s.push_back(s.setup_s);
    build_s.push_back(s.build_s);
  }
  out.metrics.set(opt.trace ? "api.build_s" : "setup_s",
                  median(opt.trace ? build_s : setup_s));
}

}  // namespace perfbench
