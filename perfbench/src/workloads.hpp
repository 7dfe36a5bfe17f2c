#pragma once
// The benchmark's workloads and the inputs it generates for them. All
// inputs are a pure function of (workload, seed): the library only ever
// sees the generated batches and prompts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hanayo.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  hanayo::ModelConfig model;
  int P = 2;
  int W = 2;
  int dp = 1;
  // Training.
  int B = 8;  ///< micro-batches per replica per step
  int mb_sequences = 1;
  // Serving (closed loop: each client sends its next request when the
  // previous one's last token arrives).
  int max_batch = 8;
  int clients = 8;
  int prompt_tokens = 32;
  int shared_prefix_tokens = 16;  ///< system head common to every prompt
  int new_tokens = 32;
  int page_tokens = 16;
};

/// Every workload run.py can name: the training workloads.
const std::vector<WorkloadSpec>& workloads();
/// nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);

/// serve-chat's traffic: not a declared workload, but the shapes at which
/// the traced run measures every serving layer (see probe_serving_runtime).
const WorkloadSpec& serve_chat();

/// Training batches: a seeded SyntheticCorpus behind a DataLoader shaped
/// like the session (dp * B * mb_sequences rows per step).
class TrainInputs {
 public:
  TrainInputs(const WorkloadSpec& w, uint64_t seed);
  /// The batch for global step `step` (epochs wrap).
  hanayo::runtime::Batch batch(int64_t step) const;

 private:
  std::unique_ptr<hanayo::data::SyntheticCorpus> corpus_;
  std::unique_ptr<hanayo::data::DataLoader> loader_;
};

/// Chat prompts: every prompt is the seeded system head followed by a
/// seeded tail unique to (client, request index).
class ChatInputs {
 public:
  ChatInputs(const WorkloadSpec& w, uint64_t seed);
  /// Order in which the clients send their first requests.
  const std::vector<int>& client_order() const { return order_; }
  /// Prompt of client `client`'s `k`-th request, as a [1, t] tensor.
  hanayo::Tensor prompt(int client, int64_t k) const;
  /// Warm-up prompts, disjoint from the timed stream.
  hanayo::Tensor warmup(int64_t k) const;

 private:
  hanayo::Tensor make(uint64_t stream) const;

  const WorkloadSpec* w_;
  uint64_t seed_;
  std::vector<int64_t> head_;
  std::vector<int> order_;
};

}  // namespace perfbench
