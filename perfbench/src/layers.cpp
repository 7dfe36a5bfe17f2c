// Per-layer calls at a workload's shapes, timed from outside through each
// module's public functions.

#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "runners.hpp"
#include "model/loss.hpp"
#include "runtime/kv_store.hpp"

namespace perfbench {

using namespace hanayo;

namespace {

/// Keeps results observable so no call can be dropped.
volatile float g_sink = 0.0f;
void keep(const Tensor& t) { g_sink = g_sink + t[0]; }

/// Median seconds of `body` over `n` calls, each preceded by an untimed
/// `prep` (state a call consumes, e.g. a forward before a backward).
template <class Prep, class Body>
double median_call_s(int n, Prep&& prep, Body&& body) {
  std::vector<double> s;
  s.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    prep();
    const double t0 = now_s();
    body();
    s.push_back(now_s() - t0);
  }
  return median(std::move(s));
}

struct Shapes {
  int64_t b = 1;   ///< sequences per forward
  int64_t t = 1;   ///< tokens per sequence
  int64_t h = 1;   ///< hidden
  int64_t rows() const { return b * t; }
};

/// One micro-batch of the training workload.
Shapes forward_shapes(const WorkloadSpec& w) {
  return {w.mb_sequences, w.model.seq, w.model.hidden};
}

void measure_tensor(const WorkloadSpec& w, Rng& rng, Tracer& tr, Metrics& m) {
  auto span = tr.scope("tensor");
  const Shapes sh = forward_shapes(w);
  const int64_t h = sh.h, T = sh.rows();
  // The block's Linear shapes (in, out): fused QKV, output projection, and
  // the two MLP layers.
  const int64_t shapes[][2] = {{h, 3 * h}, {h, h}, {h, 4 * h}, {4 * h, h}};
  double flops = 0.0, fwd = 0.0, dx = 0.0, dw = 0.0;
  for (const auto& s : shapes) {
    const Tensor x = rng.randn({T, s[0]});
    const Tensor wt = rng.randn({s[0], s[1]});
    const Tensor dy = rng.randn({T, s[1]});
    flops += 2.0 * static_cast<double>(T * s[0] * s[1]);
    {
      auto c = tr.scope("tensor.matmul");
      fwd += time_per_call_s([&] { keep(tensor::matmul(x, wt)); });
    }
    {
      auto c = tr.scope("tensor.matmul_bt");
      dx += time_per_call_s([&] { keep(tensor::matmul_bt(dy, wt)); });
    }
    {
      auto c = tr.scope("tensor.matmul_at");
      dw += time_per_call_s([&] { keep(tensor::matmul_at(x, dy)); });
    }
  }
  m.set("tensor.gemm_fwd_gflops", flops / fwd / 1e9);
  m.set("tensor.gemm_dx_gflops", flops / dx / 1e9);
  m.set("tensor.gemm_dw_gflops", flops / dw / 1e9);

  const Tensor act = rng.randn({T, 4 * h});
  const Tensor dact = rng.randn({T, 4 * h});
  const double elems = static_cast<double>(act.numel());
  {
    auto c = tr.scope("tensor.gelu");
    m.set("tensor.gelu_fwd_ns_per_elem",
          time_per_call_s([&] { keep(tensor::gelu(act)); }) / elems * 1e9);
  }
  {
    auto c = tr.scope("tensor.gelu_grad");
    m.set("tensor.gelu_bwd_ns_per_elem",
          time_per_call_s([&] { keep(tensor::gelu_grad(act, dact)); }) /
              elems * 1e9);
  }
  // Attention scores: [b * heads, t, t].
  const Tensor scores = rng.randn({sh.b * w.model.heads, sh.t, sh.t});
  {
    auto c = tr.scope("tensor.softmax");
    m.set("tensor.softmax_ns_per_elem",
          time_per_call_s([&] { keep(tensor::softmax_lastdim(scores)); }) /
              static_cast<double>(scores.numel()) * 1e9);
  }
}

/// Transformer blocks one pipeline stage holds (ceil over the stages the
/// workload's schedule partitions the model into).
int blocks_per_stage(const WorkloadSpec& w) {
  schedule::ScheduleRequest req;
  req.algo = Algo::Hanayo;
  req.P = w.P;
  req.waves = w.W;
  const int stages = schedule::stages_for(req);
  return static_cast<int>((w.model.layers + stages - 1) / stages);
}

model::StageModule stage_blocks(const WorkloadSpec& w, uint64_t seed) {
  // descs[0] is the embedding; blocks follow.
  return model::StageModule(w.model.layer_descs(), 1, 1 + blocks_per_stage(w),
                            seed, w.model.init_std);
}

void measure_model(const WorkloadSpec& w, uint64_t seed, Rng& rng, Tracer& tr,
                   Metrics& m) {
  auto span = tr.scope("model");
  const Shapes sh = forward_shapes(w);
  const int64_t h = sh.h;
  constexpr int kCalls = 15;
  Rng init(seed);
  model::AttnResidual attn("bench.attn", h, w.model.heads, w.model.causal, init,
                           w.model.init_std);
  model::MlpResidual mlp("bench.mlp", h, init, w.model.init_std);
  model::Linear head("bench.head", h, w.model.vocab, init, w.model.init_std);
  const Tensor x = rng.randn({sh.b, sh.t, h}, 0.5f);
  const Tensor dy = rng.randn({sh.b, sh.t, h}, 0.01f);
  Tensor targets({sh.b, sh.t});
  for (int64_t i = 0; i < targets.numel(); ++i) {
    targets[i] = static_cast<float>(rng.index(w.model.vocab));
  }
  auto none = [] {};
  double attn_fwd, attn_bwd, mlp_fwd, mlp_bwd;
  {
    auto c = tr.scope("model.attn_fwd");
    attn_fwd = median_call_s(kCalls, none, [&] { keep(attn.forward(x, 0)); });
  }
  {
    auto c = tr.scope("model.attn_bwd");
    attn_bwd = median_call_s(
        kCalls, [&] { keep(attn.forward(x, 0)); },
        [&] { keep(attn.backward(dy, 0)); });
  }
  {
    auto c = tr.scope("model.mlp_fwd");
    mlp_fwd = median_call_s(kCalls, none, [&] { keep(mlp.forward(x, 0)); });
  }
  {
    auto c = tr.scope("model.mlp_bwd");
    mlp_bwd = median_call_s(
        kCalls, [&] { keep(mlp.forward(x, 0)); },
        [&] { keep(mlp.backward(dy, 0)); });
  }
  attn.drop_cache(0);
  mlp.drop_cache(0);
  m.set("model.attn_fwd_us", attn_fwd * 1e6);
  m.set("model.attn_bwd_us", attn_bwd * 1e6);
  m.set("model.mlp_fwd_us", mlp_fwd * 1e6);
  m.set("model.mlp_bwd_us", mlp_bwd * 1e6);
  m.set("model.bwd_over_fwd", (attn_bwd + mlp_bwd) / (attn_fwd + mlp_fwd));
  {
    auto c = tr.scope("model.head_fwd_bwd");
    m.set("model.head_fwd_bwd_us",
          median_call_s(kCalls, none, [&] {
            const Tensor logits = head.forward(x, 0);
            const auto [loss, dlogits] = model::cross_entropy(logits, targets);
            keep(head.backward(dlogits, 0));
          }) * 1e6);
  }

  {
    auto c = tr.scope("model.optimizer_step");
    model::StageModule stage = stage_blocks(w, seed);
    model::Sgd opt(0.05f, 0.9f);
    const std::vector<model::Param*> params = stage.params();
    m.set("model.optimizer_step_us",
          median_call_s(kCalls, none, [&] { opt.step(params); }) * 1e6);
  }
}

/// One pipeline stage of serve-chat's model: prefill at its prompt length,
/// decode at mid-generation.
void measure_model_serving(uint64_t seed, Rng& rng, Tracer& tr, Metrics& m) {
  auto span = tr.scope("model.serving");
  const WorkloadSpec& sv = serve_chat();
  const int64_t h = sv.model.hidden;
  constexpr int kCalls = 15;
  model::StageModule stage = stage_blocks(sv, seed);
  const int64_t prompt = sv.prompt_tokens;
  const int64_t context = prompt + sv.new_tokens / 2;
  const Tensor px = rng.randn({1, prompt, h}, 0.5f);
  const Tensor cx = rng.randn({1, context, h}, 0.5f);
  const Tensor one = rng.randn({1, 1, h}, 0.5f);
  {
    auto c = tr.scope("model.prefill");
    m.set("model.prefill_us",
          median_call_s(
              kCalls, [&] { stage.drop_slot(0); },
              [&] { keep(stage.decode(px, 0, 0)); }) *
              1e6);
  }
  {
    auto c = tr.scope("model.decode");
    m.set("model.decode_us",
          median_call_s(
              kCalls,
              [&] {
                stage.drop_slot(0);
                keep(stage.decode(cx, 0, 0));
              },
              [&] { keep(stage.decode(one, context, 0)); }) *
              1e6);
  }
  stage.drop_slot(0);
}

void measure_comm(const WorkloadSpec& w, uint64_t seed, Rng& rng, Tracer& tr,
                  Metrics& m) {
  auto span = tr.scope("comm");
  const Shapes sh = forward_shapes(w);
  constexpr int kRoundtrips = 200;
  constexpr int kAllreduces = 40;
  {
    // An activation between two threads and back.
    auto c = tr.scope("comm.p2p_roundtrip");
    comm::World world(2);
    comm::Communicator c0(&world, 0), c1(&world, 1);
    const Tensor act = rng.randn({sh.b, sh.t, sh.h});
    std::thread echo([&] {
      for (int i = 0; i < kRoundtrips; ++i) {
        Tensor t = c1.recv(0, comm::make_tag(comm::Kind::Activation, i, 0));
        c1.send(0, comm::make_tag(comm::Kind::Gradient, i, 0), std::move(t));
      }
    });
    std::vector<double> rt;
    for (int i = 0; i < kRoundtrips; ++i) {
      const double t0 = now_s();
      c0.send(1, comm::make_tag(comm::Kind::Activation, i, 0), act);
      keep(c0.recv(1, comm::make_tag(comm::Kind::Gradient, i, 0)));
      rt.push_back(now_s() - t0);
    }
    echo.join();
    m.set("comm.p2p_roundtrip_us", median(std::move(rt)) * 1e6);
  }
  {
    // One stage's gradient, summed across a data-parallel group of 2.
    auto c = tr.scope("comm.allreduce");
    model::StageModule stage = stage_blocks(w, seed);
    const int64_t n = stage.param_count();
    comm::World world(2);
    comm::Communicator c0(&world, 0), c1(&world, 1);
    const comm::Group group{{0, 1}};
    Tensor g0 = rng.randn({n}), g1 = rng.randn({n});
    std::thread peer([&] {
      for (int i = 0; i < kAllreduces; ++i) {
        comm::allreduce_sum(c1, group, g1, i + 1);
      }
    });
    std::vector<double> ar;
    for (int i = 0; i < kAllreduces; ++i) {
      const double t0 = now_s();
      comm::allreduce_sum(c0, group, g0, i + 1);
      ar.push_back(now_s() - t0);
    }
    peer.join();
    m.set("comm.allreduce_us", median(std::move(ar)) * 1e6);
  }
}

void measure_kv(Rng& rng, Tracer& tr, Metrics& m) {
  auto span = tr.scope("runtime.kv");
  const WorkloadSpec& sv = serve_chat();
  const int lanes = runtime::kv_lanes(sv.model);
  const int64_t final_len = sv.prompt_tokens + sv.new_tokens;
  runtime::KvStoreConfig cfg;
  cfg.page_tokens = sv.page_tokens;
  cfg.row_elems = sv.model.hidden;
  cfg.max_slots = sv.max_batch;
  cfg.pool_pages = static_cast<int64_t>(sv.max_batch) * lanes *
                   ((sv.model.seq + sv.page_tokens - 1) / sv.page_tokens);
  cfg.prefix_cache = true;
  runtime::KvStore store(cfg);
  for (int l = 0; l < lanes; ++l) store.register_lane();

  const std::vector<float> row(static_cast<size_t>(sv.model.hidden), 0.25f);
  std::vector<int64_t> ids(static_cast<size_t>(sv.prompt_tokens));
  for (auto& id : ids) id = rng.index(sv.model.vocab);
  int64_t shared = 0;
  auto open = [&](int slot, const std::vector<int64_t>& prompt) {
    if (!store.open_slot(slot, prompt, final_len, &shared)) {
      throw std::runtime_error("kv: pool exhausted");
    }
  };
  auto fill = [&](int slot, int64_t rows) {
    for (int l = 0; l < lanes; ++l) {
      for (int64_t r = 0; r < rows; ++r) {
        store.append(l, slot, row.data(), row.data());
      }
    }
  };
  // Publish one prompt so later admissions hit the prefix cache, as the
  // chat workload's shared head does.
  open(0, ids);
  fill(0, sv.prompt_tokens);
  store.publish(0, ids);
  store.drop_slot(0);

  std::vector<int64_t> other = ids;
  other.back() = (other.back() + 1) % sv.model.vocab;
  constexpr int kCalls = 50;
  {
    auto c = tr.scope("runtime.kv.open_slot");
    m.set("runtime.kv.open_slot_us",
          median_call_s(
              kCalls, [&] { store.drop_slot(1); }, [&] { open(1, other); }) *
              1e6);
    store.drop_slot(1);
  }
  {
    // Appends of a whole generation, every lane, into a private stream.
    auto c = tr.scope("runtime.kv.append");
    std::vector<int64_t> fresh(ids.size());
    for (auto& id : fresh) id = rng.index(sv.model.vocab);
    fresh.front() = (ids.front() + 1) % sv.model.vocab;
    const double per_round = median_call_s(
        kCalls,
        [&] {
          store.drop_slot(2);
          open(2, fresh);
        },
        [&] { fill(2, final_len); });
    store.drop_slot(2);
    m.set("runtime.kv.append_us",
          per_round / static_cast<double>(lanes * final_len) * 1e6);
  }
}

void measure_data_and_schedule(const WorkloadSpec& w, uint64_t seed,
                               Tracer& tr, Metrics& m) {
  {
    auto c = tr.scope("data.batch");
    const TrainInputs in(w, seed);
    int64_t k = 0;
    m.set("data.batch_us",
          time_per_call_s([&] { keep(in.batch(k++).inputs); }) * 1e6);
  }
  {
    auto c = tr.scope("schedule.compile");
    schedule::ScheduleRequest req;
    req.algo = Algo::Hanayo;
    req.P = w.P;
    req.waves = w.W;
    req.B = w.B;
    m.set("schedule.compile_us",
          time_per_call_s([&] {
            const schedule::Schedule s = schedule::make_schedule(req);
            g_sink = g_sink + static_cast<float>(s.scripts.size());
          }) * 1e6);
  }
}

}  // namespace

void measure_layers(const WorkloadSpec& w, uint64_t seed, Tracer& tracer,
                    Metrics& out) {
  auto span = tracer.scope("layers");
  Rng rng(Rng::split(seed, 0x1a7e5));
  measure_tensor(w, rng, tracer, out);
  measure_model(w, seed, rng, tracer, out);
  measure_model_serving(seed, rng, tracer, out);
  measure_comm(w, seed, rng, tracer, out);
  measure_kv(rng, tracer, out);
  measure_data_and_schedule(w, seed, tracer, out);
}

}  // namespace perfbench
