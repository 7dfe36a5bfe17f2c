#pragma once
// One pipeline worker: owns the local model chunks and interprets its
// device's action list (paper §4.1), receiving through the runtime's one
// prefetcher, RecvAhead (§4.2).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <optional>

#include "comm/collectives.hpp"
#include "model/lr_schedule.hpp"
#include "model/optimizer.hpp"
#include "model/partition.hpp"
#include "model/transformer.hpp"
#include "runtime/recv_ahead.hpp"
#include "schedule/actions.hpp"
#include "tensor/arena.hpp"

namespace hanayo::runtime {

/// One iteration's data: token ids shaped [sequences, seq_len], row-aligned
/// with targets. Rows are grouped replica-major, micro-batch-minor.
struct Batch {
  tensor::Tensor inputs;
  tensor::Tensor targets;
};

/// Throws std::invalid_argument unless every id lies in [0, vocab). Checked
/// before dispatch: a stage throwing mid-pass would strand its peers in recv.
void check_token_ids(const tensor::Tensor& ids, int64_t vocab,
                     const std::string& who);

/// Copies rows [row0, row0 + rows) of `src` (shaped [N, seq]) into a new
/// [rows, seq] tensor: one micro-batch's inputs or targets.
tensor::Tensor slice_rows(const tensor::Tensor& src, int64_t row0,
                          int64_t rows);

enum class OptKind { Sgd, AdamW };

/// One executed compute action with real wall-clock endpoints, in seconds
/// relative to the trainer's iteration origin — the runtime analogue of the
/// simulator's TimelineSpan, used to visualise real overlap.
struct ComputeSpan {
  int mb = 0;
  int pos = 0;
  bool backward = false;
  double start = 0.0;
  double end = 0.0;
};

struct WorkerParams {
  model::ModelConfig model;
  const schedule::Schedule* sched = nullptr;  ///< shared, owned by Trainer
  int pipeline_rank = 0;
  int replica = 0;
  int dp = 1;
  int mb_sequences = 1;
  uint64_t seed = 1;
  OptKind opt = OptKind::Sgd;
  float lr = 0.1f;
  float momentum = 0.0f;
  /// Maximum number of receive requests posted ahead of need (0 disables
  /// prefetching — then receives block at the consuming action; < 0 is
  /// rejected at construction).
  int prefetch_depth = 2;
  /// Activation recomputation on every chunk (see StageModule::set_recompute).
  bool recompute = false;
  /// Transmit activations/gradients between stages as packed fp16 (mixed
  /// precision, related work §6): halves the P2P volume at the cost of
  /// fp16 rounding on every boundary crossing.
  bool fp16_comm = false;
  /// Global gradient-norm clipping (0 disables). The norm spans every
  /// distinct model parameter exactly once, computed with a world-wide
  /// scalar allreduce at the flush, so every worker scales identically.
  float max_grad_norm = 0.0f;
  /// Per-step learning rate; overrides `lr` when set. All workers evaluate
  /// the same step counter, so rates stay globally consistent.
  std::optional<model::LrSchedule> lr_schedule;
  /// When non-null, Forward/Backward wall-clock spans are recorded relative
  /// to this shared origin (set by the Trainer just before the step).
  const std::chrono::steady_clock::time_point* timeline_origin = nullptr;
  /// ZeRO-1 optimizer-state sharding (related work §6): each member of a
  /// chunk's gradient-sync group owns one shard of every parameter. At the
  /// flush, gradients are reduce-scattered instead of allreduced; at the
  /// optimizer step each rank updates only its shard and the updated values
  /// are allgathered. Optimizer state shrinks by the group size; results are
  /// bit-identical to unsharded training.
  bool zero_shard = false;
  /// Gradient-sync group per local chunk (ranks holding the same stage
  /// across replicas — and, for Chimera, across the bidirectional copies).
  std::vector<comm::Group> chunk_groups;
  /// All ranks, for the loss reduction.
  comm::Group world_group;
};

class Worker {
 public:
  Worker(WorkerParams params, comm::Communicator comm);

  /// Executes one full iteration of this worker's action list. Returns the
  /// globally reduced mean loss (identical on every worker after the flush).
  float run_iteration(const Batch& batch);

  int global_rank() const { return comm_.rank(); }
  /// Local chunks, ordered by local module rank (for tests/snapshots).
  std::vector<model::StageModule>& chunks() { return chunks_; }
  /// Stage id per local chunk.
  const std::vector<int>& chunk_stages() const { return chunk_stages_; }
  /// Peak of (sum of layer caches + in-transit buffers) observed during the
  /// last iteration, in bytes. The runtime analogue of the simulator's Ma.
  int64_t last_peak_cache_bytes() const { return peak_cache_bytes_; }
  /// Bytes of optimizer state this worker holds (ZeRO-1 shrinks this by the
  /// gradient-sync group size).
  int64_t optimizer_state_bytes() const;
  /// Name-addressed snapshot of this worker's optimizer state (for
  /// checkpoints). Throws under ZeRO-1, where state is shard-sized.
  std::vector<std::pair<std::string, tensor::Tensor>> optimizer_state_snapshot();
  /// Restores optimizer state saved by `optimizer_state_snapshot`.
  void load_optimizer_state(const std::map<std::string, tensor::Tensor>& state);
  /// Optimizer steps taken (drives the LR schedule across a resume).
  int64_t opt_steps() const { return opt_steps_; }
  void set_opt_steps(int64_t n) { opt_steps_ = n; }
  /// Wall-clock compute spans of the last iteration (empty unless
  /// WorkerParams::timeline_origin was set).
  const std::vector<ComputeSpan>& last_timeline() const { return timeline_; }

 private:
  /// Rows of micro-batch m in this replica's share of a batch.
  tensor::Tensor mb_rows(const tensor::Tensor& src, int m) const;
  /// Slot (m, pos) of act_ or grad_; pos runs from -1 (the loaded input)
  /// to S - 1. An empty tensor marks a vacant slot.
  tensor::Tensor& slot(std::vector<tensor::Tensor>& slots, int m, int pos) const;
  void note_memory();
  void zero_opt_step();
  /// Local chunk indices sorted by global stage id — the iteration order for
  /// blocking collectives (see the deadlock note at the flush).
  std::vector<size_t> stage_ordered_chunks() const;

  WorkerParams p_;
  comm::Communicator comm_;
  RecvAhead recv_;
  std::vector<model::StageModule> chunks_;
  std::vector<int> chunk_stages_;
  std::map<int, int> chunk_of_stage_;  // stage id -> local chunk index
  std::unique_ptr<model::Optimizer> optimizer_;
  int64_t peak_cache_bytes_ = 0;
  int64_t opt_steps_ = 0;
  std::vector<ComputeSpan> timeline_;
  /// One chunk's gradient list for the flush's coalesced allreduce, kept
  /// so steady-state flushes reuse its capacity.
  std::vector<tensor::Tensor*> flush_grads_;

  // Iteration-scoped (m, pos) slots, cleared per run but never shrunk.
  std::vector<tensor::Tensor> act_;   // activation output by pos
  std::vector<tensor::Tensor> grad_;  // input-grad of pos

  /// Iteration-lifetime tensor arena: run_iteration opens an ArenaScope on
  /// it, so activations, gradients-in-flight, attention scratch and comm
  /// staging bump-allocate here and the slabs are reused every step. The
  /// scope resets at ENTRY, which is safe because the previous iteration
  /// ended with a Flush barrier — every cross-worker payload has been
  /// consumed by then. Long-lived allocations inside the scope (lazily
  /// created optimizer state) are wrapped in ArenaPause.
  tensor::Arena arena_;
};

}  // namespace hanayo::runtime
