#include "workloads.hpp"

#include <numeric>

namespace perfbench {

using hanayo::ModelConfig;
using hanayo::Rng;
using hanayo::Tensor;

namespace {

// Stream ids for Rng::split: the system head, the client order, and the
// per-request tails of the timed and warm-up prompt families.
constexpr uint64_t kHeadStream = 1;
constexpr uint64_t kOrderStream = 2;
constexpr uint64_t kTimedBase = uint64_t{1} << 40;
constexpr uint64_t kWarmupBase = uint64_t{3} << 40;
constexpr uint64_t kRequestsPerClient = uint64_t{1} << 24;

constexpr int64_t kDatasetSequences = 4096;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec wide;
  wide.name = "train-wide";
  wide.model = ModelConfig::tiny(14, 128, 4, 101, 32);
  wide.P = 4;
  wide.W = 2;
  wide.dp = 1;
  wide.B = 8;
  wide.mb_sequences = 1;
  out.push_back(wide);

  WorkloadSpec dp;
  dp.name = "train-tiny-dp";
  dp.model = ModelConfig::tiny(14, 32, 2, 101, 8);
  dp.P = 2;
  dp.W = 2;
  dp.dp = 2;
  dp.B = 16;
  dp.mb_sequences = 1;
  out.push_back(dp);
  return out;
}

WorkloadSpec make_serve_chat() {
  WorkloadSpec chat;
  chat.name = "serve-chat";
  chat.model = ModelConfig::tiny(14, 64, 2, 101, 128);
  chat.P = 2;
  chat.W = 2;
  chat.dp = 1;
  chat.max_batch = 8;
  chat.clients = 8;
  chat.prompt_tokens = 32;
  chat.shared_prefix_tokens = 16;
  chat.new_tokens = 32;
  chat.page_tokens = 16;
  return chat;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const WorkloadSpec& serve_chat() {
  static const WorkloadSpec chat = make_serve_chat();
  return chat;
}

// ------------------------------------------------------------ TrainInputs

TrainInputs::TrainInputs(const WorkloadSpec& w, uint64_t seed) {
  corpus_ = std::make_unique<hanayo::data::SyntheticCorpus>(w.model.vocab, seed);
  hanayo::data::LoaderConfig lc;
  lc.dataset_sequences = kDatasetSequences;
  lc.seq_len = w.model.seq;
  lc.micro_batches = w.B;
  lc.mb_sequences = w.mb_sequences;
  lc.dp = w.dp;
  lc.seed = seed;
  lc.shuffle = true;
  loader_ = std::make_unique<hanayo::data::DataLoader>(corpus_.get(), lc);
}

hanayo::runtime::Batch TrainInputs::batch(int64_t step) const {
  const int64_t per_epoch = loader_->batches_per_epoch();
  return loader_->batch(step / per_epoch, step % per_epoch);
}

// ------------------------------------------------------------- ChatInputs

ChatInputs::ChatInputs(const WorkloadSpec& w, uint64_t seed)
    : w_(&w), seed_(seed) {
  Rng head(Rng::split(seed, kHeadStream));
  for (int i = 0; i < w.shared_prefix_tokens; ++i) {
    head_.push_back(head.index(w.model.vocab));
  }
  order_.resize(static_cast<size_t>(w.clients));
  std::iota(order_.begin(), order_.end(), 0);
  Rng order(Rng::split(seed, kOrderStream));
  for (int i = w.clients - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(order_[static_cast<size_t>(i)],
              order_[static_cast<size_t>(order.index(i + 1))]);
  }
}

Tensor ChatInputs::make(uint64_t stream) const {
  const int64_t t = w_->prompt_tokens;
  Tensor p({1, t});
  for (size_t i = 0; i < head_.size(); ++i) {
    p[static_cast<int64_t>(i)] = static_cast<float>(head_[i]);
  }
  Rng tail(Rng::split(seed_, stream));
  for (int64_t i = static_cast<int64_t>(head_.size()); i < t; ++i) {
    p[i] = static_cast<float>(tail.index(w_->model.vocab));
  }
  return p;
}

Tensor ChatInputs::prompt(int client, int64_t k) const {
  return make(kTimedBase + static_cast<uint64_t>(client) * kRequestsPerClient +
              static_cast<uint64_t>(k));
}

Tensor ChatInputs::warmup(int64_t k) const {
  return make(kWarmupBase + static_cast<uint64_t>(k));
}

}  // namespace perfbench
