#include "runtime/worker.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "comm/fp16.hpp"
#include "model/loss.hpp"

namespace hanayo::runtime {

using comm::Kind;
using comm::make_tag;
using model::StageModule;
using schedule::Action;
using schedule::Op;
using tensor::Tensor;

void check_token_ids(const Tensor& ids, int64_t vocab, const std::string& who) {
  for (int64_t i = 0; i < ids.numel(); ++i) {
    if (!(ids[i] >= 0.0f && ids[i] < static_cast<float>(vocab))) {  // NaN too
      throw std::invalid_argument(who + ": token id outside [0, " +
                                  std::to_string(vocab) + ")");
    }
  }
}

Tensor slice_rows(const Tensor& src, int64_t row0, int64_t rows) {
  const int64_t seq = src.size(1);
  Tensor out({rows, seq});
  std::memcpy(out.data(), src.data() + row0 * seq,
              static_cast<size_t>(rows * seq) * sizeof(float));
  return out;
}

Worker::Worker(WorkerParams params, comm::Communicator comm)
    : p_(std::move(params)),
      comm_(std::move(comm)),
      recv_(p_.prefetch_depth) {
  const schedule::Placement& pl = p_.sched->placement;
  const int d = p_.pipeline_rank;
  const auto descs = p_.model.layer_descs();
  const int64_t tokens = static_cast<int64_t>(p_.mb_sequences) * p_.model.seq;
  const auto ranges = model::partition_layers(descs, pl.stages(), tokens);

  for (int c = 0; c < pl.chunks_per_device(); ++c) {
    const int st = pl.stage_of(d, c);
    chunk_stages_.push_back(st);
    chunk_of_stage_[st] = c;
    const model::StageRange& r = ranges[static_cast<size_t>(st)];
    chunks_.emplace_back(descs, r.begin, r.end, p_.seed, p_.model.init_std);
    chunks_.back().set_recompute(p_.recompute);
  }
  if (p_.opt == OptKind::Sgd) {
    optimizer_ = std::make_unique<model::Sgd>(p_.lr, p_.momentum);
  } else {
    optimizer_ = std::make_unique<model::AdamW>(p_.lr);
  }
  if (static_cast<int>(p_.chunk_groups.size()) != pl.chunks_per_device()) {
    throw std::invalid_argument("Worker: chunk_groups size mismatch");
  }
}

Tensor Worker::mb_rows(const Tensor& src, int m) const {
  const int64_t row0 =
      (static_cast<int64_t>(p_.replica) * p_.sched->B + m) * p_.mb_sequences;
  return slice_rows(src, row0, p_.mb_sequences);
}

Tensor& Worker::slot(std::vector<Tensor>& slots, int m, int pos) const {
  const size_t per_mb = static_cast<size_t>(p_.sched->placement.stages()) + 1;
  return slots[static_cast<size_t>(m) * per_mb + static_cast<size_t>(pos + 1)];
}

void Worker::note_memory() {
  int64_t cur = 0;
  for (const StageModule& c : chunks_) cur += c.cached_bytes();
  for (const Tensor& v : act_) cur += v.bytes();
  for (const Tensor& v : grad_) cur += v.bytes();
  peak_cache_bytes_ = std::max(peak_cache_bytes_, cur);
}

float Worker::run_iteration(const Batch& batch) {
  // Everything with iteration lifetime bump-allocates from the worker's
  // arena; the reset at scope entry recycles last iteration's slabs (safe:
  // the previous iteration's Flush barrier guaranteed consumption).
  tensor::ArenaScope iter_arena(arena_);
  const schedule::Schedule& sched = *p_.sched;
  const schedule::DeviceScript& script = sched.scripts[static_cast<size_t>(p_.pipeline_rank)];
  const int S = sched.placement.stages();
  const int B = sched.B;
  const float scale = 1.0f / static_cast<float>(B * p_.dp);

  const size_t slots = static_cast<size_t>(B) * static_cast<size_t>(S + 1);
  act_.clear();
  act_.resize(slots);
  grad_.clear();
  grad_.resize(slots);
  peak_cache_bytes_ = 0;
  timeline_.clear();
  float loss_local = 0.0f;

  const auto since_origin = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         *p_.timeline_origin)
        .count();
  };

  recv_.start(script, comm_, p_.replica * sched.P);

  for (size_t i = 0; i < script.actions.size(); ++i) {
    const Action& a = script.actions[i];
    switch (a.op) {
      case Op::LoadInput:
        slot(act_, a.mb, -1) = mb_rows(batch.inputs, a.mb);
        break;

      case Op::RecvAct:
      case Op::RecvGrad: {
        Tensor got = recv_.take(i);
        if (p_.fp16_comm) got = comm::unpack_fp16(got);
        if (a.op == Op::RecvAct) {
          slot(act_, a.mb, a.pos - 1) = std::move(got);
        } else {
          slot(grad_, a.mb, a.pos + 1) = std::move(got);
        }
        break;
      }

      case Op::Forward: {
        Tensor& x = slot(act_, a.mb, a.pos == 0 ? -1 : a.pos - 1);
        if (x.numel() == 0) {
          throw std::logic_error("Forward: missing input activation");
        }
        StageModule& chunk = chunks_[static_cast<size_t>(a.chunk)];
        const double t0 = p_.timeline_origin ? since_origin() : 0.0;
        Tensor y = chunk.forward(x, a.mb);
        if (p_.timeline_origin) {
          timeline_.push_back({a.mb, a.pos, false, t0, since_origin()});
        }
        x = Tensor();
        slot(act_, a.mb, a.pos) = std::move(y);
        note_memory();
        break;
      }

      case Op::SendAct: {
        Tensor& y = slot(act_, a.mb, a.pos);
        if (y.numel() == 0) throw std::logic_error("SendAct: missing activation");
        Tensor payload = p_.fp16_comm ? comm::pack_fp16(y) : std::move(y);
        comm_.isend(a.peer + p_.replica * sched.P,
                    make_tag(Kind::Activation, a.mb, a.pos), std::move(payload));
        y = Tensor();
        break;
      }

      case Op::Backward: {
        Tensor dy;
        if (a.pos == S - 1) {
          Tensor& logits = slot(act_, a.mb, a.pos);
          if (logits.numel() == 0) throw std::logic_error("Backward: missing logits");
          auto [loss, dlogits] = model::cross_entropy(
              logits, mb_rows(batch.targets, a.mb), scale);
          loss_local += loss;
          dy = std::move(dlogits);
          logits = Tensor();
        } else {
          Tensor& g = slot(grad_, a.mb, a.pos + 1);
          if (g.numel() == 0) throw std::logic_error("Backward: missing gradient");
          dy = std::move(g);
          g = Tensor();
        }
        StageModule& chunk = chunks_[static_cast<size_t>(a.chunk)];
        const double t0 = p_.timeline_origin ? since_origin() : 0.0;
        Tensor dx = chunk.backward(dy, a.mb);
        if (p_.timeline_origin) {
          timeline_.push_back({a.mb, a.pos, true, t0, since_origin()});
        }
        if (a.pos > 0) slot(grad_, a.mb, a.pos) = std::move(dx);
        note_memory();
        break;
      }

      case Op::SendGrad: {
        Tensor& g = slot(grad_, a.mb, a.pos);
        if (g.numel() == 0) throw std::logic_error("SendGrad: missing gradient");
        Tensor payload = p_.fp16_comm ? comm::pack_fp16(g) : std::move(g);
        comm_.isend(a.peer + p_.replica * sched.P,
                    make_tag(Kind::Gradient, a.mb, a.pos), std::move(payload));
        g = Tensor();
        break;
      }

      case Op::Flush: {
        comm_.barrier();
        // Global mean loss (sum of the per-micro-batch scaled losses).
        tensor::Tensor lt({1});
        lt[0] = loss_local;
        comm::allreduce_sum(comm_, p_.world_group, lt, /*phase=*/900000);
        loss_local = lt[0];
        // Gradient sync: per chunk, across every holder of the same stage
        // (data-parallel replicas, plus Chimera's bidirectional copy). One
        // coalesced allreduce carries all of a chunk's gradients, so a
        // device pays one collective's latency per chunk, not one per
        // parameter (sim/event_sim prices one allreduce of the device's
        // whole gradient). Under ZeRO-1 the allreduce becomes a
        // per-parameter reduce-scatter: each holder only needs the summed
        // gradient of the parameter shard it owns.
        //
        // Chunks are processed in GLOBAL stage order, not local chunk order:
        // the collectives block, and two devices that hold the same pair of
        // stages in opposite local order (exactly what Chimera's mirrored
        // placement produces) would otherwise each start with a different
        // group and deadlock. A total order over stages makes every device's
        // collective sequence a subsequence of the same global sequence, so
        // no cyclic wait can form.
        for (const size_t c : stage_ordered_chunks()) {
          const comm::Group& g = p_.chunk_groups[c];
          if (g.size() <= 1) continue;
          const auto params = chunks_[c].params();
          const auto phase_of = [&](size_t pi) {
            return static_cast<int>((static_cast<size_t>(chunk_stages_[c]) * 4096 + pi) * 2);
          };
          if (p_.zero_shard) {
            const int gi = g.index_of(comm_.rank());
            for (size_t pi = 0; pi < params.size(); ++pi) {
              Tensor& grad = params[pi]->grad;
              Tensor shard =
                  comm::reduce_scatter_sum(comm_, g, grad, phase_of(pi));
              const auto [b, e] =
                  comm::shard_bounds(grad.numel(), g.size(), gi);
              std::memcpy(grad.data() + b, shard.data(),
                          static_cast<size_t>(e - b) * sizeof(float));
            }
          } else {
            flush_grads_.clear();
            for (model::Param* pp : params) flush_grads_.push_back(&pp->grad);
            comm::allreduce_sum(comm_, g, flush_grads_, phase_of(0));
          }
        }
        // Global gradient clipping: ||g|| over every distinct parameter.
        // Each holder of a stage contributes its (synced, identical) sum of
        // squares divided by the holder count — under ZeRO-1 it contributes
        // its disjoint shard fully — so the world allreduce counts every
        // element exactly once.
        if (p_.max_grad_norm > 0.0f) {
          double local_sq = 0.0;
          for (size_t c = 0; c < chunks_.size(); ++c) {
            const comm::Group& g = p_.chunk_groups[c];
            for (model::Param* pp : chunks_[c].params()) {
              if (p_.zero_shard && g.size() > 1) {
                const int gi = g.index_of(comm_.rank());
                const auto [b, e] =
                    comm::shard_bounds(pp->grad.numel(), g.size(), gi);
                local_sq += model::grad_sq_sum(*pp, b, e);
              } else {
                local_sq += model::grad_sq_sum(*pp, 0, pp->grad.numel()) /
                            static_cast<double>(g.size());
              }
            }
          }
          const float total_sq = comm::allreduce_scalar(
              comm_, p_.world_group, static_cast<float>(local_sq),
              /*phase=*/910000);
          const double norm = std::sqrt(static_cast<double>(total_sq));
          if (norm > p_.max_grad_norm) {
            const float coef = p_.max_grad_norm / static_cast<float>(norm);
            for (StageModule& c : chunks_) {
              model::scale_grads(c.params(), coef);
            }
          }
        }
        break;
      }

      case Op::OptStep: {
        // Optimizer state (momentum / Adam moments) is created lazily on
        // the first step and must outlive every iteration — keep it off
        // the pass arena.
        tensor::ArenaPause no_arena;
        if (p_.lr_schedule.has_value()) {
          optimizer_->set_lr(p_.lr_schedule->at(opt_steps_));
        }
        if (p_.zero_shard) {
          zero_opt_step();
        } else {
          std::vector<model::Param*> all;
          for (StageModule& c : chunks_) {
            for (model::Param* pp : c.params()) all.push_back(pp);
          }
          optimizer_->step(all);
          for (model::Param* pp : all) pp->zero_grad();
        }
        ++opt_steps_;
        break;
      }
    }
  }
  return loss_local;
}

std::vector<size_t> Worker::stage_ordered_chunks() const {
  std::vector<size_t> order(chunks_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return chunk_stages_[a] < chunk_stages_[b];
  });
  return order;
}

void Worker::zero_opt_step() {
  // Each member of a chunk's gradient-sync group updates only its parameter
  // shard (its summed gradients were placed there by the flush's
  // reduce-scatter), then the updated shards are allgathered so every holder
  // ends with the complete — and identical — new parameter values.
  std::vector<model::ParamShard> shards;
  struct Gather {
    model::Param* param;
    const comm::Group* group;
    int64_t begin, end;
    int phase;
  };
  std::vector<Gather> gathers;
  std::vector<model::Param*> all;
  // Same global stage order as the flush (see run_iteration): the
  // allgathers block, so every group member must reach them in the same
  // sequence.
  for (const size_t c : stage_ordered_chunks()) {
    const comm::Group& g = p_.chunk_groups[c];
    const auto params = chunks_[c].params();
    for (size_t pi = 0; pi < params.size(); ++pi) {
      model::Param* pp = params[pi];
      all.push_back(pp);
      if (g.size() <= 1) {
        shards.push_back({pp, 0, pp->value.numel()});
        continue;
      }
      const int gi = g.index_of(comm_.rank());
      const auto [b, e] = comm::shard_bounds(pp->value.numel(), g.size(), gi);
      shards.push_back({pp, b, e});
      const int phase = static_cast<int>(
          (static_cast<size_t>(chunk_stages_[c]) * 4096 + pi) * 2 + 1);
      gathers.push_back({pp, &g, b, e, phase});
    }
  }
  optimizer_->step_shards(shards);
  for (const Gather& ga : gathers) {
    Tensor mine({ga.end - ga.begin});
    std::memcpy(mine.data(), ga.param->value.data() + ga.begin,
                static_cast<size_t>(ga.end - ga.begin) * sizeof(float));
    Tensor full = comm::allgather_shards(comm_, *ga.group, mine,
                                         ga.param->value.numel(), ga.phase);
    std::memcpy(ga.param->value.data(), full.data(),
                static_cast<size_t>(full.numel()) * sizeof(float));
  }
  for (model::Param* pp : all) pp->zero_grad();
}

int64_t Worker::optimizer_state_bytes() const {
  return optimizer_->state_bytes();
}

std::vector<std::pair<std::string, tensor::Tensor>>
Worker::optimizer_state_snapshot() {
  std::vector<model::Param*> all;
  for (StageModule& c : chunks_) {
    for (model::Param* pp : c.params()) all.push_back(pp);
  }
  return optimizer_->state_snapshot(all);
}

void Worker::load_optimizer_state(
    const std::map<std::string, tensor::Tensor>& state) {
  std::vector<model::Param*> all;
  for (StageModule& c : chunks_) {
    for (model::Param* pp : c.params()) all.push_back(pp);
  }
  optimizer_->load_state(all, state);
}

}  // namespace hanayo::runtime
