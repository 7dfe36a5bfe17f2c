// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload train-wide --seed 1 --seconds 10 --trace 0
//             [--commit <id>] [--trace-out trace.json]
//   perfbench --list-metrics
//
// Human-readable lines first, then a `stamp:` line, then (last) one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 gives the end-to-end metrics with tracing off;
// --trace 1 gives the per-layer metrics and writes the spans as a Chrome
// trace. Exits 1 when the correctness gate fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "json.hpp"
#include "runners.hpp"
#include "stamp.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--trace-out PATH]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

void list_metrics() {
  std::printf("[\n");
  const auto& table = metric_table();
  for (size_t i = 0; i < table.size(); ++i) {
    const MetricDef& d = table[i];
    std::printf("  {\"name\": %s, \"unit\": %s, \"mode\": %s, \"moves\": %s}%s\n",
                json_string(d.name).c_str(), json_string(d.unit).c_str(),
                d.mode == Mode::EndToEnd ? "\"end_to_end\"" : "\"per_layer\"",
                json_string(d.moves).c_str(), i + 1 < table.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "none", trace_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const WorkloadSpec* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0)) return usage("--seconds must be > 0");
  if (trace < 0) return usage("--trace must be 0 or 1");

  const RunOptions opt{seed, seconds, trace == 1};
  Tracer tracer(opt.trace, size_t{1} << 18,
                w->name + "/seed" + std::to_string(seed));
  RunResult res(opt.trace ? Mode::PerLayer : Mode::EndToEnd);
  const CpuTimes cpu0 = read_cpu_times();
  try {
    auto root = tracer.scope("perfbench.run");
    run_train(*w, opt, tracer, res);
    if (opt.trace) {
      probe_serving_runtime(seed, tracer, res);
      measure_layers(*w, seed, tracer, res.metrics);
    }
    res.metrics.check_complete();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w->name.c_str(), e.what());
    return 3;
  }

  std::printf("workload %s seed %llu: attempted %lld failed %lld correct %s\n",
              w->name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), res.correct ? "yes" : "no");
  for (const auto& [name, value] : res.metrics.values()) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value,
                find_metric(name)->unit);
  }
  if (opt.trace) {
    std::printf("self time by span (s):\n");
    for (const auto& [name, s] : tracer.self_time_s()) {
      std::printf("  %-34s %12.6f\n", name.c_str(), s);
    }
    if (tracer.dropped() > 0) {
      std::printf("trace buffer full: %lld spans dropped\n",
                  static_cast<long long>(tracer.dropped()));
    }
    if (!trace_out.empty()) {
      if (!tracer.write_chrome(trace_out, host_stamp(commit).to_json())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 3;
      }
      std::printf("trace: %s (%zu spans)\n", trace_out.c_str(),
                  tracer.spans().size());
    }
  }
  std::printf("host steal: %.1f%% of CPU time during the run\n",
              100.0 * steal_share(cpu0, read_cpu_times()));
  if (!res.correct) std::fprintf(stderr, "correctness gate failed:\n%s", res.detail.c_str());
  std::printf("stamp: %s\n", host_stamp(commit).to_json().c_str());

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : res.metrics.values()) {
    json += first ? "" : ", ";
    first = false;
    json += json_string(name) + ": {\"value\": " + json_number(value) +
            ", \"unit\": " + json_string(find_metric(name)->unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
