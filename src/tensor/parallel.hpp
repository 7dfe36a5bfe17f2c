#pragma once
// Intra-op parallelism for the tensor kernels.
//
// A single persistent pool of worker threads, shared by every kernel in the
// process, partitions index ranges into contiguous chunks. Determinism is a
// hard requirement (the test suite compares pipeline-parallel training
// against a sequential reference bit-for-bit), so the partition is static:
// chunk boundaries depend only on the range and the thread count, and every
// output element is produced by exactly one chunk in a fixed order. A kernel
// that keeps its per-element accumulation order independent of the partition
// is therefore bit-identical for 1 and N threads.
//
// The intra-op thread count composes with the runtime's inter-op threads
// (a runtime::Gang runs one member per pipeline worker): when many workers are
// running, each should use 1 intra-op thread; a single-worker session can
// give the whole machine to the kernels. `Session` plumbs this through
// `SessionConfig::intra_op_threads` (0 = pick automatically).

#include <cstdint>
#include <type_traits>

namespace hanayo::tensor {

/// Current intra-op thread count (>= 1).
int intra_op_threads();

/// Sets the intra-op thread count. n <= 0 selects the hardware concurrency.
/// Threads are created lazily on first use and persist for the process.
void set_intra_op_threads(int n);

/// Hardware concurrency as seen by the pool (>= 1).
int max_intra_op_threads();

/// A non-owning view of a `void(int64_t, int64_t)` callable — the
/// parallel_for chunk body. Unlike std::function, constructing one never
/// allocates (it is a {object pointer, trampoline} pair), which is what
/// keeps a steady-state decode pass at zero heap traffic no matter how
/// many kernels fan out per layer. Binding a temporary lambda is safe
/// here because parallel_for blocks until every chunk has retired, and a
/// temporary lives to the end of the full-expression that spawned it.
class ChunkFn {
 public:
  ChunkFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ChunkFn> &&
                std::is_invocable_v<const F&, int64_t, int64_t>>>
  ChunkFn(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, int64_t b, int64_t e) {
          (*static_cast<const F*>(o))(b, e);
        }) {}

  void operator()(int64_t begin, int64_t end) const {
    call_(obj_, begin, end);
  }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, int64_t, int64_t) = nullptr;
};

/// Runs fn(begin, end) over a static partition of [0, n) into at most
/// intra_op_threads() contiguous chunks. Ranges shorter than `grain` run
/// inline on the caller; nested calls from inside a pool worker also run
/// inline (no recursive fan-out). Blocks until every chunk has finished.
/// Allocation-free on every path (pool submission included).
void parallel_for(int64_t n, int64_t grain, ChunkFn fn);

/// RAII override of the intra-op thread count (used by benches and tests to
/// compare 1-vs-N results on the same process-wide pool).
class IntraOpScope {
 public:
  explicit IntraOpScope(int n) : saved_(intra_op_threads()) {
    set_intra_op_threads(n);
  }
  ~IntraOpScope() { set_intra_op_threads(saved_); }
  IntraOpScope(const IntraOpScope&) = delete;
  IntraOpScope& operator=(const IntraOpScope&) = delete;

 private:
  int saved_;
};

}  // namespace hanayo::tensor
