#include "core/sync.hpp"

#include <cstdio>
#include <cstdlib>

namespace hanayo::sync {

const char* rank_name(Rank r) {
  switch (r) {
    case Rank::IntraOpSubmit:
      return "IntraOpSubmit";
    case Rank::IntraOpPool:
      return "IntraOpPool";
    case Rank::ServeQueue:
      return "ServeQueue";
    case Rank::Gang:
      return "Gang";
    case Rank::WorldBarrier:
      return "WorldBarrier";
    case Rank::Mailbox:
      return "Mailbox";
    case Rank::CommRequest:
      return "CommRequest";
    case Rank::KvPool:
      return "KvPool";
    case Rank::CommPool:
      return "CommPool";
  }
  return "?";
}

#if defined(HANAYO_SYNC_CHECKS)

namespace detail {

namespace {
// Held ranks of the current thread, outermost first. A fixed array keeps
// the tracking allocation-free (the checker must not perturb the
// allocation counts the hot-path tests assert on); depth beyond the
// capacity would itself be a hierarchy bug worth aborting on.
constexpr int kMaxHeld = 16;
thread_local Rank t_held[kMaxHeld];
thread_local int t_depth = 0;
}  // namespace

void note_acquire(Rank r) {
  if (t_depth > 0) {
    const Rank top = t_held[t_depth - 1];
    if (static_cast<int>(r) <= static_cast<int>(top)) {
      std::fprintf(stderr,
                   "hanayo::sync lock-rank inversion: acquiring %s(%d) while "
                   "holding %s(%d); locks must be taken in strictly "
                   "increasing rank order\n",
                   rank_name(r), static_cast<int>(r), rank_name(top),
                   static_cast<int>(top));
      std::abort();
    }
  }
  if (t_depth >= kMaxHeld) {
    std::fprintf(stderr, "hanayo::sync: more than %d locks held\n", kMaxHeld);
    std::abort();
  }
  t_held[t_depth++] = r;
}

void note_release(Rank r) {
  // Scoped guards release in LIFO order, but std::unique_lock allows any
  // order; drop the innermost matching entry.
  for (int i = t_depth - 1; i >= 0; --i) {
    if (t_held[i] == r) {
      for (int j = i; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
      --t_depth;
      return;
    }
  }
  std::fprintf(stderr,
               "hanayo::sync: releasing %s(%d) which this thread does not "
               "hold\n",
               rank_name(r), static_cast<int>(r));
  std::abort();
}

int held_depth() { return t_depth; }

}  // namespace detail

#endif  // HANAYO_SYNC_CHECKS

}  // namespace hanayo::sync
