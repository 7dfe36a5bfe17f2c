#include "metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& d : metric_table()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Metrics::set(const std::string& name, double value) {
  const MetricDef* d = find_metric(name);
  if (d == nullptr || d->mode != mode_) {
    throw std::logic_error("metric not declared for this mode: " + name);
  }
  values_[name] = value;
}

void Metrics::check_complete() const {
  std::string missing;
  for (const MetricDef& d : metric_table()) {
    if (d.mode == mode_ && values_.count(d.name) == 0) {
      missing += std::string(" ") + d.name;
    }
  }
  if (!missing.empty()) throw std::logic_error("metrics not measured:" + missing);
}

}  // namespace perfbench
