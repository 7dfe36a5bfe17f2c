#include "stamp.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>

#include "json.hpp"

namespace perfbench {

namespace {

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string cpu_isa() {
  __builtin_cpu_init();
  std::string out;
  auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  return out.empty() ? "base" : out;
}

}  // namespace

Stamp host_stamp(const std::string& commit) {
  Stamp s;
  s.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  s.cpu_model = cpu_model_name();
  s.isa = cpu_isa();
  s.compiler = PERFBENCH_COMPILER;
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.native_arch = PERFBENCH_NATIVE_ARCH != 0;
  s.commit = commit;
  return s;
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string Stamp::to_json() const {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"cpu_model\": " << json_string(cpu_model)
     << ", \"isa\": " << json_string(isa)
     << ", \"compiler\": " << json_string(compiler)
     << ", \"build_type\": " << json_string(build_type)
     << ", \"native_arch\": " << (native_arch ? "true" : "false")
     << ", \"commit\": " << json_string(commit) << "}";
  return os.str();
}

}  // namespace perfbench
