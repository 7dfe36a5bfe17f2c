#pragma once
// Collective operations built on the P2P transport.
//
// Used by the runtime for the data-parallel gradient synchronisation that
// the paper performs at every flush ("the replicas employed by Chimera can
// now be considered as standard data parallelism", §3.2) — one coalesced
// Naive allreduce per model chunk, not one per parameter — for scattering
// the loss back to rank 0, and by the ZeRO-1 optimizer-state sharding
// extension (related work §6: "These techniques are independent of pipeline
// parallelism and can be combined").
//
// Three allreduce algorithms are provided, mirroring the choices a real
// NCCL/MPI deployment makes:
//   * Naive              — reduce-to-root then broadcast. O(n) messages from
//                          one hot rank; summation order is fixed (group rank
//                          order) so results are bit-reproducible. Default.
//                          Also coalesced: a list of tensors travels as one
//                          packed message per member each way, bitwise equal
//                          to reducing each tensor on its own.
//   * Ring               — bandwidth-optimal reduce-scatter + allgather ring,
//                          2(n−1) steps of numel/n elements each.
//   * RecursiveDoubling  — log2(n) rounds of pairwise exchange; falls back to
//                          Ring for non-power-of-two groups.
// All algorithms produce identical sums up to floating-point reassociation;
// the tests pin the exact tolerance.

#include <span>
#include <vector>

#include "comm/communicator.hpp"

namespace hanayo::comm {

/// A static subgroup of ranks (e.g. the D replicas holding the same model
/// chunk). All members must call the collective with the same `group`.
struct Group {
  std::vector<int> ranks;

  /// Index of `rank` within the group; -1 if absent.
  int index_of(int rank) const;
  int size() const { return static_cast<int>(ranks.size()); }
};

enum class AllreduceAlgo { Naive, Ring, RecursiveDoubling };

/// Sum-allreduce of `t` in place across `group`. The default Naive algorithm
/// uses a deterministic reduction order (rank order within the group) so
/// data-parallel runs are exactly reproducible. `phase` disambiguates
/// concurrent collectives on one group.
void allreduce_sum(Communicator& comm, const Group& group, tensor::Tensor& t,
                   int phase, AllreduceAlgo algo = AllreduceAlgo::Naive);

/// Coalesced Naive sum-allreduce of every tensor in `ts`, in place. Each
/// non-root member packs its tensors into one message to group rank 0; the
/// root adds each received slice straight into its own tensors (group rank
/// order, as above) and sends one packed message back to each member, which
/// unpacks it into its tensors. So a non-root sends 1 message and the root
/// n−1, whatever the tensor count, and every element is bitwise equal to
/// per-tensor Naive `allreduce_sum`. All members must pass tensors of the
/// same sizes in the same order. Uses `phase` and `phase + 1`.
void allreduce_sum(Communicator& comm, const Group& group,
                   std::span<tensor::Tensor* const> ts, int phase);

/// Sum-reduce of `t` into the copy held by group.ranks[root_index]; other
/// ranks' tensors are left untouched. Deterministic summation order.
void reduce_sum(Communicator& comm, const Group& group, tensor::Tensor& t,
                int root_index, int phase);

/// Broadcast from group.ranks[root_index] to all members, in place.
void broadcast(Communicator& comm, const Group& group, tensor::Tensor& t,
               int root_index, int phase);

/// Gathers each member's (identically-shaped) tensor; returns the
/// concatenation along a new leading axis, in group rank order, on every
/// member ([n, ...local shape]).
tensor::Tensor allgather(Communicator& comm, const Group& group,
                         const tensor::Tensor& local, int phase);

/// Reduce-scatter: sums `t` across the group and returns this rank's
/// contiguous shard of the flattened sum (shard boundaries from
/// `shard_bounds`). `t` is consumed as scratch (contents unspecified after).
tensor::Tensor reduce_scatter_sum(Communicator& comm, const Group& group,
                                  tensor::Tensor& t, int phase);

/// Inverse of `reduce_scatter_sum`: every member contributes its shard and
/// receives the full flat tensor of `total` elements, shards placed at the
/// positions `shard_bounds` assigns.
tensor::Tensor allgather_shards(Communicator& comm, const Group& group,
                                const tensor::Tensor& shard, int64_t total,
                                int phase);

/// Gathers one float from each member to group.ranks[0]; returns the values
/// (in group rank order) on the root and an empty vector elsewhere.
std::vector<float> gather_scalar(Communicator& comm, const Group& group,
                                 float value, int phase);

/// Sum-allreduce of one scalar across the group; returns the sum on every
/// member. Used for global gradient-norm clipping.
float allreduce_scalar(Communicator& comm, const Group& group, float value,
                       int phase);

/// The contiguous [begin, end) range of flat indices that member `i` of an
/// `n`-way sharding owns, for a tensor of `numel` elements. The remainder
/// (numel % n) is distributed one element each to the first ranks, so shard
/// sizes differ by at most one.
std::pair<int64_t, int64_t> shard_bounds(int64_t numel, int n, int i);

}  // namespace hanayo::comm
