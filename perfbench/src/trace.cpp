#include "trace.hpp"

#include <fstream>
#include <map>

#include "common.hpp"
#include "json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled, size_t capacity, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)) {
  if (enabled_) {
    spans_.reserve(capacity);
    open_.reserve(64);
    origin_ = now_s();
  }
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_->spans_[static_cast<size_t>(index_)].t1 = now_s();
  t_->open_.pop_back();
}

Tracer::Scope Tracer::scope(const char* name) {
  if (!enabled_) return Scope(this, -1);
  if (spans_.size() == spans_.capacity() || open_.size() == open_.capacity()) {
    ++dropped_;
    return Scope(this, -1);
  }
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_s();
  spans_.push_back(Span{name, t, t, parent, 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::add(const char* name, double t0, double t1, int parent,
                 int track) {
  if (!enabled_) return;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, t0, t1, parent, track});
}

std::vector<std::pair<std::string, double>> Tracer::self_time_s() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].t1 - spans_[i].t0;
  }
  for (const Span& s : spans_) {
    if (s.parent < 0 || s.track != 0) continue;
    self[static_cast<size_t>(s.parent)] -= s.t1 - s.t0;
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].track == 0) by_name[spans_[i].name] += self[i];
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& stamp) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n  {\"name\": \"stamp\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
         "\"args\": "
      << stamp << "}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n  {\"name\": " << json_string(s.name)
        << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": "
        << json_number((s.t0 - origin_) * 1e6)
        << ", \"dur\": " << json_number((s.t1 - s.t0) * 1e6)
        << ", \"pid\": 0, \"tid\": " << s.track
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"run\": " << json_string(run_id_) << "}}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
