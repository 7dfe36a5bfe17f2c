#pragma once
// Host/build stamp printed with every result: two result sets are only
// comparable when everything but the commit matches (run.py enforces it).

#include <cstdint>
#include <string>

namespace perfbench {

struct Stamp {
  int nproc = 0;
  std::string cpu_model;
  std::string isa;  ///< CPU-supported: "avx512f,avx2,fma" subset, or "base"
  std::string compiler;
  std::string build_type;
  bool native_arch = false;
  std::string commit;  ///< supplied by the caller; "none" outside git

  /// One-line JSON object.
  std::string to_json() const;
};

Stamp host_stamp(const std::string& commit);

/// Aggregate CPU time counters of the host (/proc/stat "cpu" line, in
/// clock ticks); zeros when unavailable.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes read_cpu_times();
/// Share of the host's CPU time stolen by the hypervisor between two
/// reads — a shared machine's contention, printed beside each result.
double steal_share(const CpuTimes& before, const CpuTimes& after);

}  // namespace perfbench
