#pragma once
// The correctness gate: a timed run only counts when its outputs match the
// sequential Reference backend.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Threads-vs-Reference loss tolerance, the one
/// Session.ThreadBackendMatchesReferenceLosses asserts.
constexpr float kLossTol = 3e-4f;

/// Indices of the steps whose loss is non-finite or differs from the
/// reference by more than `tol` (a length mismatch flags every missing
/// step). Appends one line per violation to `detail`.
std::vector<size_t> loss_mismatches(const std::vector<float>& got,
                                    const std::vector<float>& ref,
                                    std::string* detail, float tol = kLossTol);

}  // namespace perfbench
