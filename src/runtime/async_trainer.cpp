#include "runtime/async_trainer.hpp"

#include <stdexcept>

#include "model/loss.hpp"
#include "model/partition.hpp"
#include "runtime/recv_ahead.hpp"

namespace hanayo::runtime {

using comm::Kind;
using comm::make_tag;
using schedule::Action;
using schedule::Op;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// StageWorker: one device of the asynchronous pipeline.

class AsyncTrainer::StageWorker {
 public:
  StageWorker(const AsyncTrainerConfig& cfg, int device,
              comm::Communicator comm)
      : cfg_(cfg), device_(device), comm_(std::move(comm)),
        recv_(cfg.prefetch_depth) {
    const auto descs = cfg.model.layer_descs();
    const int64_t tokens =
        static_cast<int64_t>(cfg.mb_sequences) * cfg.model.seq;
    const auto ranges = model::partition_layers(descs, cfg.P, tokens);
    const model::StageRange& r = ranges[static_cast<size_t>(device)];
    module_ = model::StageModule(descs, r.begin, r.end, cfg.seed,
                                 cfg.model.init_std);
    if (cfg.opt == OptKind::Sgd) {
      optimizer_ = std::make_unique<model::Sgd>(cfg.lr, cfg.momentum);
    } else {
      optimizer_ = std::make_unique<model::AdamW>(cfg.lr);
    }
  }

  /// Interprets this device's action list over the continuous stream.
  /// `mb_loss` (length = stream size) is filled on the last device.
  void run(const schedule::Schedule& sched, const Batch& batch,
           std::vector<float>* mb_loss) {
    const schedule::DeviceScript& script =
        sched.scripts[static_cast<size_t>(device_)];
    const int P = sched.P;
    stash_peak_bytes_ = 0;
    stash_peak_entries_ = 0;

    // Receives go through the runtime's one prefetcher (paper §4.2), as in
    // the synchronous Worker.
    recv_.start(script, comm_, /*peer_base=*/0);

    std::map<int, Tensor> act_in;    // mb -> input activation
    std::map<int, Tensor> act_out;   // mb -> output (kept on last stage)
    std::map<int, Tensor> grad_in;   // mb -> output-gradient
    std::map<int, Tensor> grad_out;  // mb -> input-gradient to send

    for (size_t i = 0; i < script.actions.size(); ++i) {
      const Action& a = script.actions[i];
      switch (a.op) {
        case Op::LoadInput:
          act_in[a.mb] = mb_rows(batch.inputs, a.mb);
          break;

        case Op::RecvAct:
        case Op::RecvGrad:
          (a.op == Op::RecvAct ? act_in : grad_in)[a.mb] = recv_.take(i);
          break;

        case Op::Forward: {
          const auto it = act_in.find(a.mb);
          if (it == act_in.end()) {
            throw std::logic_error("async Forward: missing input");
          }
          if (cfg_.weight_stashing) stash_params(a.mb);
          Tensor y = module_.forward(it->second, a.mb);
          act_in.erase(it);
          act_out[a.mb] = std::move(y);
          break;
        }

        case Op::SendAct: {
          const auto it = act_out.find(a.mb);
          if (it == act_out.end()) {
            throw std::logic_error("async SendAct: missing activation");
          }
          comm_.isend(a.peer, make_tag(Kind::Activation, a.mb, a.pos),
                      std::move(it->second));
          act_out.erase(it);
          break;
        }

        case Op::Backward: {
          Tensor dy;
          if (device_ == P - 1) {
            const auto it = act_out.find(a.mb);
            if (it == act_out.end()) {
              throw std::logic_error("async Backward: missing logits");
            }
            auto [loss, dlogits] =
                model::cross_entropy(it->second, mb_rows(batch.targets, a.mb));
            if (mb_loss != nullptr) {
              (*mb_loss)[static_cast<size_t>(a.mb)] = loss;
            }
            dy = std::move(dlogits);
            act_out.erase(it);
          } else {
            const auto it = grad_in.find(a.mb);
            if (it == grad_in.end()) {
              throw std::logic_error("async Backward: missing gradient");
            }
            dy = std::move(it->second);
            grad_in.erase(it);
          }
          Tensor dx;
          if (cfg_.weight_stashing) {
            // PipeDream semantics: the backward runs against the weight
            // version the forward used; the update is applied (by the
            // following OptStep) to the *latest* weights.
            swap_with_stash(a.mb);
            dx = module_.backward(dy, a.mb);
            swap_with_stash(a.mb);
            drop_stash(a.mb);
          } else {
            dx = module_.backward(dy, a.mb);
          }
          if (device_ > 0) grad_out[a.mb] = std::move(dx);
          break;
        }

        case Op::SendGrad: {
          const auto it = grad_out.find(a.mb);
          if (it == grad_out.end()) {
            throw std::logic_error("async SendGrad: missing gradient");
          }
          comm_.isend(a.peer, make_tag(Kind::Gradient, a.mb, a.pos),
                      std::move(it->second));
          grad_out.erase(it);
          break;
        }

        case Op::OptStep: {
          const auto params = module_.params();
          optimizer_->step(params);
          for (model::Param* p : params) p->zero_grad();
          break;
        }

        case Op::Flush:
          throw std::logic_error("async schedule contains Flush");
      }
    }
  }

  model::StageModule& module() { return module_; }
  int64_t stash_peak_bytes() const { return stash_peak_bytes_; }
  int stash_peak_entries() const { return stash_peak_entries_; }

 private:
  /// Rows of stream micro-batch m (the stream cycles over the batch).
  Tensor mb_rows(const Tensor& src, int m) const {
    const int64_t row0 =
        static_cast<int64_t>(m % cfg_.micro_batches) * cfg_.mb_sequences;
    return slice_rows(src, row0, cfg_.mb_sequences);
  }

  void stash_params(int mb) {
    std::vector<Tensor> copy;
    for (model::Param* p : module_.params()) copy.push_back(p->value);
    stash_[mb] = std::move(copy);
    stash_peak_entries_ =
        std::max(stash_peak_entries_, static_cast<int>(stash_.size()));
    int64_t total = 0;
    for (const auto& [m, vs] : stash_) {
      for (const Tensor& t : vs) total += t.bytes();
    }
    stash_peak_bytes_ = std::max(stash_peak_bytes_, total);
  }

  void swap_with_stash(int mb) {
    const auto it = stash_.find(mb);
    if (it == stash_.end()) {
      throw std::logic_error("async: missing stashed weights");
    }
    const auto params = module_.params();
    if (params.size() != it->second.size()) {
      throw std::logic_error("async: stash size mismatch");
    }
    for (size_t k = 0; k < params.size(); ++k) {
      std::swap(params[k]->value, it->second[k]);
    }
  }

  void drop_stash(int mb) { stash_.erase(mb); }

  AsyncTrainerConfig cfg_;
  int device_;
  comm::Communicator comm_;
  RecvAhead recv_;
  model::StageModule module_;
  std::unique_ptr<model::Optimizer> optimizer_;
  std::map<int, std::vector<Tensor>> stash_;  // mb -> weight version
  int64_t stash_peak_bytes_ = 0;
  int stash_peak_entries_ = 0;
};

// ---------------------------------------------------------------------------
// AsyncTrainer

AsyncTrainer::AsyncTrainer(AsyncTrainerConfig cfg)
    : cfg_(std::move(cfg)), gang_(cfg_.P) {
  if (cfg_.P < 1 || cfg_.micro_batches < 1) {
    throw std::invalid_argument("AsyncTrainer: P and micro_batches >= 1");
  }
  world_ = std::make_unique<comm::World>(cfg_.P);
  for (int d = 0; d < cfg_.P; ++d) {
    workers_.push_back(std::make_unique<StageWorker>(
        cfg_, d, comm::Communicator(world_.get(), d)));
  }
}

AsyncTrainer::~AsyncTrainer() = default;

std::vector<float> AsyncTrainer::train(const Batch& batch, int steps) {
  if (batch.inputs.size(0) != batch_rows()) {
    throw std::invalid_argument("AsyncTrainer::train: batch has " +
                                std::to_string(batch.inputs.size(0)) +
                                " rows, expected " +
                                std::to_string(batch_rows()));
  }
  for (const Tensor* ids : {&batch.inputs, &batch.targets}) {
    check_token_ids(*ids, cfg_.model.vocab, "AsyncTrainer::train");
  }
  if (steps < 1) throw std::invalid_argument("AsyncTrainer::train: steps >= 1");

  const int N = steps * cfg_.micro_batches;
  schedule::AsyncRequest req;
  req.P = cfg_.P;
  req.total_micro_batches = N;
  sched_ = schedule::make_async_schedule(req);
  const schedule::ValidationResult vr = schedule::validate_async(sched_);
  if (!vr.ok) throw std::logic_error("AsyncTrainer: invalid schedule: " + vr.error);

  std::vector<float> mb_loss(static_cast<size_t>(N), 0.0f);
  gang_.run([&](int64_t d, int64_t) {
    workers_[static_cast<size_t>(d)]->run(
        sched_, batch, d + 1 == cfg_.P ? &mb_loss : nullptr);
  });

  stats_ = AsyncStats{};
  for (const auto& w : workers_) {
    stats_.stash_bytes.push_back(w->stash_peak_bytes());
    stats_.stash_entries.push_back(w->stash_peak_entries());
  }
  std::vector<float> step_loss(static_cast<size_t>(steps), 0.0f);
  for (int s = 0; s < steps; ++s) {
    float sum = 0.0f;
    for (int m = 0; m < cfg_.micro_batches; ++m) {
      sum += mb_loss[static_cast<size_t>(s * cfg_.micro_batches + m)];
    }
    step_loss[static_cast<size_t>(s)] = sum / static_cast<float>(cfg_.micro_batches);
  }
  stats_.mean_loss = step_loss.back();
  return step_loss;
}

std::map<std::string, tensor::Tensor> AsyncTrainer::snapshot_params() {
  std::map<std::string, tensor::Tensor> out;
  for (const auto& w : workers_) {
    for (model::Param* p : w->module().params()) {
      out.emplace(p->name, p->value);
    }
  }
  return out;
}

}  // namespace hanayo::runtime
