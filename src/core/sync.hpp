#pragma once
// Lock-rank checked synchronization primitives.
//
// Every mutex in the repo carries a compile-time rank, and a thread may
// only acquire locks in strictly increasing rank order. That single rule
// makes lock-order deadlocks structurally impossible: a cycle in the
// waits-for graph would need at least one edge from a higher rank to a
// lower one, which the checker (or a code review against the table below)
// rejects. The rank table is the repo's whole locking policy in one place:
//
//   IntraOpSubmit (10)  tensor/parallel — pool submission gate; held across
//                       the whole parallel_for region, so it must be the
//                       outermost lock a kernel thread can own.
//   IntraOpPool   (20)  tensor/parallel — pool job/wakeup state; acquired
//                       while IntraOpSubmit is held (10 < 20).
//   ServeQueue    (30)  runtime/infer — shared request FIFO dp replicas
//                       drain; never held across model or comm calls.
//   Gang          (35)  runtime/gang — fork/join hand-off state, never
//                       held across a member body, so comm and kernel
//                       locks nest inside (35 < 40/50/60/70/80), and so
//                       does another gang: a server drain member runs its
//                       replica's pass gang after the outer one released.
//   WorldBarrier  (40)  comm/mailbox — World::barrier rendezvous.
//   Mailbox       (50)  comm/mailbox — one rank's message queue. The
//                       transport completes requests only after releasing
//                       this (50 < 60 keeps even an accidental nesting
//                       legal in the deadlock-free direction).
//   CommRequest   (60)  comm/mailbox — per-operation completion handles;
//                       innermost, no code path acquires anything under it.
//   KvPool        (70)  runtime/kv_store — paged KV pool free-list,
//                       refcounts and prefix-tree state; a leaf taken by
//                       worker threads mid-pass (page alloc/COW) and by the
//                       pipeline thread between passes, never held across
//                       kernels or parallel_for.
//   CommPool      (80)  comm/communicator — the recycling block pool
//                       behind irecv request handles. A true leaf: taken
//                       for a free-list push/pop only, while no other
//                       lock is held (allocation happens before the
//                       mailbox lock, deallocation after every unlock).
//
// New subsystems add a named rank here (never reuse a value, leave gaps
// for future layers) and document which existing ranks they may hold
// concurrently. Checking is active when HANAYO_SYNC_CHECKS is defined
// (Debug and sanitizer builds wire it up in CMake): each thread keeps a
// stack of held ranks and a violating acquisition aborts with both ranks
// named. In Release the wrappers compile down to the raw std::mutex —
// ranks cost nothing at runtime, but every lock site still names its
// place in the hierarchy.

#include <condition_variable>
#include <mutex>

namespace hanayo::sync {

/// The global lock hierarchy. Values are the acquisition order: a thread
/// holding rank r may only acquire ranks strictly greater than r.
enum class Rank : int {
  IntraOpSubmit = 10,
  IntraOpPool = 20,
  ServeQueue = 30,
  Gang = 35,
  WorldBarrier = 40,
  Mailbox = 50,
  CommRequest = 60,
  KvPool = 70,
  CommPool = 80,
};

/// Human-readable rank name for diagnostics.
const char* rank_name(Rank r);

namespace detail {
#if defined(HANAYO_SYNC_CHECKS)
/// Aborts (after printing both ranks) unless `r` is strictly greater than
/// every rank the calling thread already holds; records the acquisition.
void note_acquire(Rank r);
/// Records a successful try_lock — same ordering rule as note_acquire.
void note_release(Rank r);
/// Number of ranks the calling thread currently holds (tests).
int held_depth();
#else
inline void note_acquire(Rank) {}
inline void note_release(Rank) {}
inline int held_depth() { return 0; }
#endif
}  // namespace detail

/// A std::mutex at a fixed place in the lock hierarchy. Satisfies
/// *Lockable*, so std::lock_guard / std::unique_lock / std::scoped_lock
/// work unchanged — porting a lock site is a type swap.
template <Rank R>
class Mutex {
 public:
  static constexpr Rank rank = R;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    detail::note_acquire(R);
    mu_.lock();
  }

  bool try_lock() {
    // The order check happens only on success: a failed try_lock leaves
    // the thread's held set unchanged, and a blocking fallback would be
    // checked by its own lock() call.
    if (!mu_.try_lock()) return false;
    detail::note_acquire(R);
    return true;
  }

  void unlock() {
    detail::note_release(R);
    mu_.unlock();
  }

 private:
  std::mutex mu_;
};

/// Condition variable usable with any ranked Mutex (condition_variable_any
/// re-locks through Mutex::lock/unlock, so the held-rank stack stays exact
/// across the wait's release/reacquire cycle).
class CondVar {
 public:
  template <class Lock>
  void wait(Lock& lk) {
    cv_.wait(lk);
  }
  template <class Lock, class Pred>
  void wait(Lock& lk, Pred pred) {
    cv_.wait(lk, std::move(pred));
  }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hanayo::sync
