#include "runtime/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "model/checkpoint.hpp"
#include "schedule/validate.hpp"

namespace hanayo::runtime {

Trainer::Trainer(TrainerConfig cfg)
    : cfg_(std::move(cfg)), gang_(cfg_.dp * cfg_.sched.P) {
  sched_ = schedule::make_schedule(cfg_.sched);
  const schedule::ValidationResult vr = schedule::validate(sched_);
  if (!vr.ok) throw std::logic_error("Trainer: invalid schedule: " + vr.error);

  const int P = sched_.P;
  const int D = cfg_.dp;
  world_ = std::make_unique<comm::World>(D * P);
  losses_.resize(static_cast<size_t>(D * P));

  // Gradient-sync groups: for each model stage, every (replica, device,
  // chunk) holding that stage.
  const schedule::Placement& pl = sched_.placement;
  std::vector<comm::Group> stage_group(static_cast<size_t>(pl.stages()));
  for (int r = 0; r < D; ++r) {
    for (int d = 0; d < P; ++d) {
      for (int c = 0; c < pl.chunks_per_device(); ++c) {
        stage_group[static_cast<size_t>(pl.stage_of(d, c))].ranks.push_back(r * P + d);
      }
    }
  }
  for (auto& g : stage_group) std::sort(g.ranks.begin(), g.ranks.end());

  comm::Group world_group;
  for (int i = 0; i < D * P; ++i) world_group.ranks.push_back(i);

  for (int r = 0; r < D; ++r) {
    for (int d = 0; d < P; ++d) {
      WorkerParams wp;
      wp.model = cfg_.model;
      wp.sched = &sched_;
      wp.pipeline_rank = d;
      wp.replica = r;
      wp.dp = D;
      wp.mb_sequences = cfg_.mb_sequences;
      wp.seed = cfg_.seed;
      wp.opt = cfg_.opt;
      wp.lr = cfg_.lr;
      wp.momentum = cfg_.momentum;
      wp.prefetch_depth = cfg_.prefetch_depth;
      wp.recompute = cfg_.recompute;
      wp.zero_shard = cfg_.zero1;
      wp.fp16_comm = cfg_.fp16_comm;
      wp.max_grad_norm = cfg_.max_grad_norm;
      wp.lr_schedule = cfg_.lr_schedule;
      if (cfg_.record_timeline) wp.timeline_origin = &timeline_origin_;
      wp.world_group = world_group;
      for (int c = 0; c < pl.chunks_per_device(); ++c) {
        wp.chunk_groups.push_back(stage_group[static_cast<size_t>(pl.stage_of(d, c))]);
      }
      workers_.push_back(std::make_unique<Worker>(
          std::move(wp), comm::Communicator(world_.get(), r * P + d)));
    }
  }
}

int64_t Trainer::batch_rows() const {
  return static_cast<int64_t>(cfg_.dp) * sched_.B * cfg_.mb_sequences;
}

float Trainer::train_step(const Batch& batch) {
  if (batch.inputs.size(0) != batch_rows()) {
    throw std::invalid_argument("train_step: batch has " +
                                std::to_string(batch.inputs.size(0)) +
                                " rows, expected " + std::to_string(batch_rows()));
  }
  for (const tensor::Tensor* ids : {&batch.inputs, &batch.targets}) {
    check_token_ids(*ids, cfg_.model.vocab, "train_step");
  }
  timeline_origin_ = std::chrono::steady_clock::now();
  gang_.run([&](int64_t i, int64_t) {
    losses_[static_cast<size_t>(i)] =
        workers_[static_cast<size_t>(i)]->run_iteration(batch);
  });
  return losses_[0];
}

std::map<std::string, tensor::Tensor> Trainer::snapshot_params() {
  // Replica 0; the first Chimera holder wins (the copies are identical).
  std::map<std::string, tensor::Tensor> out;
  for (int d = 0; d < sched_.P; ++d) {
    for (auto& chunk : workers_[static_cast<size_t>(d)]->chunks()) {
      for (model::Param* p : chunk.params()) out.emplace(p->name, p->value);
    }
  }
  return out;
}

void Trainer::save_checkpoint(const std::string& path,
                              bool include_optimizer) {
  if (include_optimizer && cfg_.zero1) {
    throw std::logic_error(
        "save_checkpoint: optimizer state is shard-sized under ZeRO-1; "
        "save parameters only and restart the optimizer after restore");
  }
  const std::map<std::string, tensor::Tensor> params = snapshot_params();
  std::vector<model::NamedTensor> records;
  records.reserve(params.size());
  for (const auto& [name, t] : params) records.push_back({name, &t});

  // Optimizer slots, deduplicated by record name (replica 0's workers;
  // Chimera's two holders carry identical state).
  std::map<std::string, tensor::Tensor> opt_state;
  tensor::Tensor steps({1});
  if (include_optimizer) {
    for (int d = 0; d < sched_.P; ++d) {
      for (auto& [name, t] :
           workers_[static_cast<size_t>(d)]->optimizer_state_snapshot()) {
        opt_state.emplace(name, std::move(t));
      }
    }
    for (const auto& [name, t] : opt_state) records.push_back({name, &t});
    steps[0] = static_cast<float>(workers_[0]->opt_steps());
    records.push_back({"trainer.opt_steps", &steps});
  }
  model::save_checkpoint(path, records);
}

void Trainer::load_checkpoint(const std::string& path) {
  const auto all = model::load_all(path);
  for (auto& w : workers_) {
    for (auto& chunk : w->chunks()) {
      for (model::Param* p : chunk.params()) {
        const auto it = all.find(p->name);
        if (it == all.end()) {
          throw std::runtime_error("load_checkpoint: missing parameter " +
                                   p->name);
        }
        if (it->second.shape() != p->value.shape()) {
          throw std::runtime_error("load_checkpoint: shape mismatch for " +
                                   p->name);
        }
        p->value = it->second;
      }
    }
    w->load_optimizer_state(all);
    if (const auto it = all.find("trainer.opt_steps"); it != all.end()) {
      w->set_opt_steps(static_cast<int64_t>(it->second[0]));
    }
  }
}

std::vector<int64_t> Trainer::peak_cache_bytes() const {
  std::vector<int64_t> out;
  for (int d = 0; d < sched_.P; ++d) {
    out.push_back(workers_[static_cast<size_t>(d)]->last_peak_cache_bytes());
  }
  return out;
}

std::vector<int64_t> Trainer::optimizer_state_bytes() const {
  std::vector<int64_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->optimizer_state_bytes());
  return out;
}

std::vector<std::vector<ComputeSpan>> Trainer::last_timeline() const {
  std::vector<std::vector<ComputeSpan>> out;
  for (int d = 0; d < sched_.P; ++d) {
    out.push_back(workers_[static_cast<size_t>(d)]->last_timeline());
  }
  return out;
}

}  // namespace hanayo::runtime
