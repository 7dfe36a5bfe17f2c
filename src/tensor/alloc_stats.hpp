#pragma once
// Heap-allocation accounting for hot-path budgets.
//
// The ROADMAP's zero-allocation steady-state item needs a measurement, not
// a hope: this hook counts every `operator new` / `operator delete` in the
// process so tests can assert "a decode pass performs at most N heap
// allocations" and ratchet N toward zero as arenas land.
//
// Mechanism: alloc_stats.cpp defines the replaceable global allocation
// functions (funnelling through std::malloc/std::free) with relaxed atomic
// counters in front. Linking rule: that object file also defines global
// `operator new`, so in a static link against libhanayo.a the first `new`
// anywhere in the program pulls it in — every binary that links the
// library counts, whether or not it ever calls `alloc_stats()`. The
// counters are process-wide and thread-safe; take a snapshot before and
// after the region of interest and subtract.

#include <cstdint>

namespace hanayo::tensor {

/// Cumulative process-wide allocation counters since start.
struct AllocStats {
  int64_t allocs = 0;  ///< operator new calls
  int64_t frees = 0;   ///< operator delete calls (non-null)
  int64_t bytes = 0;   ///< bytes requested across all allocs

  AllocStats operator-(const AllocStats& rhs) const {
    return {allocs - rhs.allocs, frees - rhs.frees, bytes - rhs.bytes};
  }
};

/// Snapshot of the counters (counting runs from program start; see the
/// linking rule above).
AllocStats alloc_stats();

/// Diagnostic tap for hunting the last allocations on a "zero" path: while
/// enabled, every counted allocation writes a short backtrace to stderr
/// (via backtrace_symbols_fd — itself allocation-free, so the tap cannot
/// recurse). Process-wide; flip it around the narrowest region possible.
/// No-op on platforms without <execinfo.h>.
void alloc_stats_trace(bool on);

}  // namespace hanayo::tensor
