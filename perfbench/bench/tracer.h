// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer (name, start, end, parent,
// operation id), kept in memory, and written out once the run ends. The
// traced run drives one caller, so the recorder needs no locking.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t op = 0;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double Ms() const { return end_ms - start_ms; }
  };

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const char* name, int64_t op) {
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ms = NowMs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes the innermost open span and returns its duration in ms.
  double End() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ms = NowMs();
    return span.Ms();
  }

  /// Durations (ms) of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(span.Ms());
    }
    return out;
  }

  /// Per span name: count, p50 duration and p50 self time (duration minus
  /// the part covered by child spans; children never overlap because one
  /// caller records them in sequence).
  void PrintSummary() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_ms[span.parent] += span.Ms();
    }
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& entry = by_name[spans_[i].name];
      entry.first.push_back(spans_[i].Ms());
      entry.second.push_back(spans_[i].Ms() - child_ms[i]);
    }
    for (const auto& [name, entry] : by_name) {
      std::printf("# span %-28s n=%-5zu p50 %9.3f ms  self p50 %9.3f ms\n",
                  name.c_str(), entry.first.size(), Median(entry.first),
                  Median(entry.second));
    }
  }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "{\"id\": %zu, \"name\": \"%s\", \"op\": %lld, "
                   "\"parent\": %d, \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                   i, s.name, static_cast<long long>(s.op), s.parent,
                   s.start_ms, s.end_ms);
    }
    return std::fclose(file) == 0;
  }

 private:
  double NowMs() const { return origin_.Ms(); }

  Stopwatch origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
