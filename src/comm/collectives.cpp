#include "comm/collectives.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace hanayo::comm {

int Group::index_of(int rank) const {
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == rank) return static_cast<int>(i);
  }
  return -1;
}

namespace {

Tag coll_tag(int phase, int step) {
  return make_tag(Kind::Collective, step, 0, phase);
}

int require_member(const Group& group, const Communicator& comm,
                   const char* what) {
  const int me = group.index_of(comm.rank());
  if (me < 0) {
    throw std::invalid_argument(std::string(what) + ": rank not in group");
  }
  return me;
}

/// Sums `src` into `dst[offset..offset+len)`.
void accumulate(float* dst, const float* src, int64_t len) {
  for (int64_t i = 0; i < len; ++i) dst[i] += src[i];
}

/// One message holding every tensor of `ts` back to back.
tensor::Tensor pack(std::span<tensor::Tensor* const> ts, int64_t total) {
  tensor::Tensor out = tensor::Tensor::uninitialized({total});
  float* dst = out.data();
  for (const tensor::Tensor* t : ts) {
    dst = std::copy_n(t->data(), t->numel(), dst);
  }
  return out;
}

void check_packed(const tensor::Tensor& msg, int64_t total) {
  if (msg.numel() != total) {
    throw std::runtime_error("allreduce_sum: mismatched member sizes");
  }
}

/// Ring allreduce: n−1 reduce-scatter steps followed by n−1 allgather steps,
/// each moving one of n contiguous chunks around the ring. Bandwidth per rank
/// is 2·(n−1)/n · numel — the NCCL ring bound.
void allreduce_ring(Communicator& comm, const Group& group, tensor::Tensor& t,
                    int phase) {
  const int me = group.index_of(comm.rank());
  const int n = group.size();
  const int64_t numel = t.numel();
  const int next = group.ranks[static_cast<size_t>((me + 1) % n)];
  const int prev = group.ranks[static_cast<size_t>((me + n - 1) % n)];

  auto chunk_of = [&](int idx) { return shard_bounds(numel, n, ((idx % n) + n) % n); };

  // Reduce-scatter phase: after step s, rank r holds the partial sum of
  // chunk (r − s) over s+1 contributions; after n−1 steps rank r owns the
  // full sum of chunk (r + 1) mod n.
  for (int s = 0; s < n - 1; ++s) {
    auto [sb, se] = chunk_of(me - s);
    tensor::Tensor out({se - sb});
    std::memcpy(out.data(), t.data() + sb,
                static_cast<size_t>(se - sb) * sizeof(float));
    Request sreq = comm.isend(next, coll_tag(phase, s), std::move(out));
    auto [rb, re] = chunk_of(me - s - 1);
    tensor::Tensor in;
    Request rreq = comm.irecv(prev, coll_tag(phase, s), &in);
    rreq->wait();
    accumulate(t.data() + rb, in.data(), re - rb);
    sreq->wait();
  }
  // Allgather phase: circulate the completed chunks.
  for (int s = 0; s < n - 1; ++s) {
    auto [sb, se] = chunk_of(me + 1 - s);
    tensor::Tensor out({se - sb});
    std::memcpy(out.data(), t.data() + sb,
                static_cast<size_t>(se - sb) * sizeof(float));
    Request sreq = comm.isend(next, coll_tag(phase, n + s), std::move(out));
    auto [rb, re] = chunk_of(me - s);
    tensor::Tensor in;
    Request rreq = comm.irecv(prev, coll_tag(phase, n + s), &in);
    rreq->wait();
    std::memcpy(t.data() + rb, in.data(),
                static_cast<size_t>(re - rb) * sizeof(float));
    sreq->wait();
  }
}

/// Recursive doubling: in round k, ranks whose indices differ in bit k
/// exchange full buffers and add. Requires power-of-two group size.
void allreduce_recursive_doubling(Communicator& comm, const Group& group,
                                  tensor::Tensor& t, int phase) {
  const int me = group.index_of(comm.rank());
  const int n = group.size();
  for (int mask = 1, round = 0; mask < n; mask <<= 1, ++round) {
    const int peer_idx = me ^ mask;
    const int peer = group.ranks[static_cast<size_t>(peer_idx)];
    tensor::Tensor copy = t;
    // Both sides post the send before the receive (the transport's sends are
    // non-blocking eager deposits, so mutual exchange cannot deadlock).
    Request sreq = comm.isend(peer, coll_tag(phase, round), std::move(copy));
    tensor::Tensor in;
    Request rreq = comm.irecv(peer, coll_tag(phase, round), &in);
    rreq->wait();
    // Fixed order: lower index first, so both peers compute the same sum.
    // Either way the result lands in t's own storage: callers pass
    // long-lived tensors (Param::grad), and adopting the received buffer
    // would alias them into the sender's pass arena.
    if (me < peer_idx) {
      t.add_(in);
    } else {
      in.add_(t);
      std::memcpy(t.data(), in.data(),
                  static_cast<size_t>(t.numel()) * sizeof(float));
    }
    sreq->wait();
  }
}

}  // namespace

std::pair<int64_t, int64_t> shard_bounds(int64_t numel, int n, int i) {
  if (n <= 0 || i < 0 || i >= n) {
    throw std::invalid_argument("shard_bounds: bad shard index");
  }
  const int64_t base = numel / n;
  const int64_t rem = numel % n;
  const int64_t begin = base * i + std::min<int64_t>(i, rem);
  const int64_t len = base + (i < rem ? 1 : 0);
  return {begin, begin + len};
}

void allreduce_sum(Communicator& comm, const Group& group, tensor::Tensor& t,
                   int phase, AllreduceAlgo algo) {
  require_member(group, comm, "allreduce_sum");
  const int n = group.size();
  if (n == 1) return;
  switch (algo) {
    case AllreduceAlgo::Ring:
      if (t.numel() >= n) {
        allreduce_ring(comm, group, t, phase);
        return;
      }
      break;  // degenerate payload: fall through to naive
    case AllreduceAlgo::RecursiveDoubling:
      if (std::has_single_bit(static_cast<unsigned>(n))) {
        allreduce_recursive_doubling(comm, group, t, phase);
        return;
      }
      if (t.numel() >= n) {
        allreduce_ring(comm, group, t, phase);
        return;
      }
      break;
    case AllreduceAlgo::Naive:
      break;
  }
  tensor::Tensor* const one[] = {&t};
  allreduce_sum(comm, group, one, phase);
}

void allreduce_sum(Communicator& comm, const Group& group,
                   std::span<tensor::Tensor* const> ts, int phase) {
  const int me = require_member(group, comm, "allreduce_sum");
  const int n = group.size();
  if (n == 1) return;
  int64_t total = 0;
  for (const tensor::Tensor* t : ts) total += t->numel();
  // Reduce to group rank 0 in fixed order, then broadcast. O(n) messages;
  // determinism (fixed summation order) is the priority, not bandwidth.
  // Messages are packed straight from and into the callers' tensors
  // (long-lived Param::grads): a received payload lives in its sender's
  // pass arena and is only read, never adopted.
  if (me == 0) {
    for (int i = 1; i < n; ++i) {
      const tensor::Tensor part =
          comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
      check_packed(part, total);
      const float* src = part.data();
      for (tensor::Tensor* t : ts) {
        accumulate(t->data(), src, t->numel());
        src += t->numel();
      }
    }
    for (int i = 1; i < n; ++i) {
      comm.send(group.ranks[static_cast<size_t>(i)], coll_tag(phase + 1, i),
                pack(ts, total));
    }
  } else {
    comm.send(group.ranks[0], coll_tag(phase, me), pack(ts, total));
    const tensor::Tensor in =
        comm.recv(group.ranks[0], coll_tag(phase + 1, me));
    check_packed(in, total);
    const float* src = in.data();
    for (tensor::Tensor* t : ts) {
      std::copy_n(src, t->numel(), t->data());
      src += t->numel();
    }
  }
}

void reduce_sum(Communicator& comm, const Group& group, tensor::Tensor& t,
                int root_index, int phase) {
  const int me = require_member(group, comm, "reduce_sum");
  const int n = group.size();
  if (n == 1) return;
  if (me == root_index) {
    for (int i = 0; i < n; ++i) {
      if (i == root_index) continue;
      tensor::Tensor part =
          comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
      t.add_(part);
    }
  } else {
    comm.send(group.ranks[static_cast<size_t>(root_index)],
              coll_tag(phase, me), t);
  }
}

void broadcast(Communicator& comm, const Group& group, tensor::Tensor& t,
               int root_index, int phase) {
  const int me = require_member(group, comm, "broadcast");
  const int n = group.size();
  if (n == 1) return;
  if (me == root_index) {
    for (int i = 0; i < n; ++i) {
      if (i == root_index) continue;
      comm.send(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i), t);
    }
  } else {
    tensor::Tensor in = comm.recv(group.ranks[static_cast<size_t>(root_index)],
                                  coll_tag(phase, me));
    if (t.numel() == in.numel()) {
      // In place: callers pass long-lived tensors (Param::grad) and the
      // received buffer lives in the root's pass arena — adopting it would
      // dangle once the root's next iteration resets that arena.
      std::memcpy(t.data(), in.data(),
                  static_cast<size_t>(t.numel()) * sizeof(float));
    } else {
      t = std::move(in);  // caller passed an empty placeholder
    }
  }
}

tensor::Tensor allgather(Communicator& comm, const Group& group,
                         const tensor::Tensor& local, int phase) {
  const int me = require_member(group, comm, "allgather");
  const int n = group.size();
  tensor::Shape out_shape;
  out_shape.push_back(n);
  for (int64_t d = 0; d < local.dim(); ++d) out_shape.push_back(local.size(d));
  tensor::Tensor out(std::move(out_shape));
  const int64_t stride = local.numel();
  std::memcpy(out.data() + stride * me, local.data(),
              static_cast<size_t>(stride) * sizeof(float));
  if (n == 1) return out;
  // Everyone sends their slice to everyone else; eager sends first, then the
  // n−1 receives, so mutual exchange cannot deadlock.
  std::vector<Request> sends;
  sends.reserve(static_cast<size_t>(n) - 1);
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    tensor::Tensor copy = local;
    sends.push_back(comm.isend(group.ranks[static_cast<size_t>(i)],
                               coll_tag(phase, me), std::move(copy)));
  }
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    tensor::Tensor in =
        comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
    if (in.numel() != stride) {
      throw std::runtime_error("allgather: mismatched member sizes");
    }
    std::memcpy(out.data() + stride * i, in.data(),
                static_cast<size_t>(stride) * sizeof(float));
  }
  Communicator::wait_all(sends);
  return out;
}

tensor::Tensor reduce_scatter_sum(Communicator& comm, const Group& group,
                                  tensor::Tensor& t, int phase) {
  const int me = require_member(group, comm, "reduce_scatter_sum");
  const int n = group.size();
  const int64_t numel = t.numel();
  auto [mb, me_end] = shard_bounds(numel, n, me);
  if (n == 1) {
    tensor::Tensor shard({me_end - mb});
    std::memcpy(shard.data(), t.data() + mb,
                static_cast<size_t>(me_end - mb) * sizeof(float));
    return shard;
  }
  // Each rank sends the shard owned by peer i directly to i, then sums the
  // n−1 contributions it receives for its own shard. Summation is performed
  // strictly in group rank order (rank 0's contribution first), so the result
  // is bit-identical to the Naive allreduce — the property the ZeRO-1
  // equivalence tests rely on.
  std::vector<Request> sends;
  sends.reserve(static_cast<size_t>(n) - 1);
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    auto [b, e] = shard_bounds(numel, n, i);
    tensor::Tensor piece({e - b});
    std::memcpy(piece.data(), t.data() + b,
                static_cast<size_t>(e - b) * sizeof(float));
    sends.push_back(comm.isend(group.ranks[static_cast<size_t>(i)],
                               coll_tag(phase, me), std::move(piece)));
  }
  tensor::Tensor shard;
  for (int i = 0; i < n; ++i) {
    tensor::Tensor contrib;
    if (i == me) {
      contrib = tensor::Tensor({me_end - mb});
      std::memcpy(contrib.data(), t.data() + mb,
                  static_cast<size_t>(me_end - mb) * sizeof(float));
    } else {
      contrib =
          comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
      if (contrib.numel() != me_end - mb) {
        throw std::runtime_error("reduce_scatter_sum: mismatched shard sizes");
      }
    }
    if (i == 0) {
      shard = std::move(contrib);
    } else {
      shard.add_(contrib);
    }
  }
  Communicator::wait_all(sends);
  return shard;
}

tensor::Tensor allgather_shards(Communicator& comm, const Group& group,
                                const tensor::Tensor& shard, int64_t total,
                                int phase) {
  const int me = require_member(group, comm, "allgather_shards");
  const int n = group.size();
  auto [mb, me_end] = shard_bounds(total, n, me);
  if (shard.numel() != me_end - mb) {
    throw std::invalid_argument("allgather_shards: shard has the wrong size");
  }
  tensor::Tensor out({total});
  std::memcpy(out.data() + mb, shard.data(),
              static_cast<size_t>(shard.numel()) * sizeof(float));
  if (n == 1) return out;
  std::vector<Request> sends;
  sends.reserve(static_cast<size_t>(n) - 1);
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    tensor::Tensor copy = shard;
    sends.push_back(comm.isend(group.ranks[static_cast<size_t>(i)],
                               coll_tag(phase, me), std::move(copy)));
  }
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    auto [b, e] = shard_bounds(total, n, i);
    tensor::Tensor in =
        comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
    if (in.numel() != e - b) {
      throw std::runtime_error("allgather_shards: mismatched shard sizes");
    }
    std::memcpy(out.data() + b, in.data(),
                static_cast<size_t>(e - b) * sizeof(float));
  }
  Communicator::wait_all(sends);
  return out;
}

std::vector<float> gather_scalar(Communicator& comm, const Group& group,
                                 float value, int phase) {
  const int me = require_member(group, comm, "gather_scalar");
  const int n = group.size();
  if (me == 0) {
    std::vector<float> out(static_cast<size_t>(n));
    out[0] = value;
    for (int i = 1; i < n; ++i) {
      tensor::Tensor t =
          comm.recv(group.ranks[static_cast<size_t>(i)], coll_tag(phase, i));
      out[static_cast<size_t>(i)] = t[0];
    }
    return out;
  }
  tensor::Tensor t({1});
  t[0] = value;
  comm.send(group.ranks[0], coll_tag(phase, me), std::move(t));
  return {};
}

float allreduce_scalar(Communicator& comm, const Group& group, float value,
                       int phase) {
  tensor::Tensor t({1});
  t[0] = value;
  allreduce_sum(comm, group, t, phase);
  return t[0];
}

}  // namespace hanayo::comm
