#include "gate.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<size_t> loss_mismatches(const std::vector<float>& got,
                                    const std::vector<float>& ref,
                                    std::string* detail, float tol) {
  std::vector<size_t> bad;
  const size_t n = std::max(got.size(), ref.size());
  for (size_t i = 0; i < n; ++i) {
    const bool present = i < got.size() && i < ref.size();
    if (present && std::isfinite(got[i]) && std::isfinite(ref[i]) &&
        std::fabs(got[i] - ref[i]) <= tol) {
      continue;
    }
    bad.push_back(i);
    *detail += "step " + std::to_string(i) + ": loss " +
               (i < got.size() ? std::to_string(got[i]) : "missing") +
               " vs reference " +
               (i < ref.size() ? std::to_string(ref[i]) : "missing") + "\n";
  }
  return bad;
}

}  // namespace perfbench
