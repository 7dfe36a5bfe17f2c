#pragma once
// Spans recorded by the benchmark around its own calls into each layer.
// The buffer is sized before the run (no allocation while recording) and
// written at exit as Chrome-trace JSON — the same top-level-array format
// sim/trace emits, so measured and simulated traces open side by side.
//
// Every span has a name, start, end, parent (index of the enclosing span,
// -1 at top level) and the run id. Spans on the benchmark's own thread
// nest; worker compute spans read from the runtime's record_timeline are
// attached to the step span that produced them on a per-rank track.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal: recording never allocates
    double t0 = 0.0;        ///< seconds on the steady clock
    double t1 = 0.0;
    int parent = -1;
    int track = 0;  ///< 0 = benchmark thread, 1 + r = pipeline rank r
  };

  /// Closes its span on destruction. Inert when the tracer is disabled or
  /// its buffer is full.
  class Scope {
   public:
    Scope(Tracer* t, int index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    /// Index of this span (parent for attached spans); -1 when inert.
    int index() const { return index_; }

   private:
    Tracer* t_;
    int index_;
  };

  /// A disabled tracer records nothing and allocates nothing.
  Tracer(bool enabled, size_t capacity, std::string run_id);

  bool enabled() const { return enabled_; }
  Scope scope(const char* name);
  /// Records a finished span under `parent` on `track` (worker spans).
  void add(const char* name, double t0, double t1, int parent, int track);
  int64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name on the benchmark's track: each span's
  /// duration minus the part its same-track children cover. Sorted by
  /// name.
  std::vector<std::pair<std::string, double>> self_time_s() const;

  /// Writes the spans as a Chrome-trace JSON array, led by a metadata
  /// event carrying `stamp` (a JSON object); false on I/O error.
  bool write_chrome(const std::string& path, const std::string& stamp) const;

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  int64_t dropped_ = 0;
  double origin_ = 0.0;
};

}  // namespace perfbench
