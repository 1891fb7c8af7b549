// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, and the request it belongs to. Spans are kept in memory and
// written out as one JSON document when the run ends. A span's self time
// is its duration minus the part of its interval that its children cover;
// children may overlap one another (parallel work), so the covered part
// is the length of the union of their intervals, clipped to the parent.

#ifndef GENT_PERFBENCH_SPANS_H_
#define GENT_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Length of the union of half-open intervals [first, second).
inline double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0, cur_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Self time of a span [start, end) whose children cover `children`.
inline double SelfTime(double start, double end,
                       const std::vector<std::pair<double, double>>& children) {
  std::vector<std::pair<double, double>> clipped;
  clipped.reserve(children.size());
  for (const auto& [s, e] : children) {
    clipped.emplace_back(std::max(s, start), std::min(e, end));
  }
  return (end - start) - UnionLength(std::move(clipped));
}

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t request = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span now; returns its id for End and for children.
  int64_t Begin(std::string name, int64_t parent, uint64_t request) {
    Span s;
    s.name = std::move(name);
    s.start_ms = NowMs();
    s.end_ms = s.start_ms;
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
  }

  /// Closes span `id` now and returns its duration in ms.
  double End(int64_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ms = NowMs();
    return s.duration_ms();
  }

  /// Records a span with explicit times (ms since the recorder's origin).
  int64_t Add(std::string name, double start_ms, double end_ms, int64_t parent,
              uint64_t request) {
    spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, request});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  /// Self time of every span, indexed like spans(): its duration minus
  /// the union of its direct children's intervals.
  std::vector<double> SelfMs() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& c : spans_) {
      if (c.parent >= 0) {
        children[static_cast<size_t>(c.parent)].emplace_back(c.start_ms,
                                                             c.end_ms);
      }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = SelfTime(spans_[i].start_ms, spans_[i].end_ms, children[i]);
    }
    return self;
  }

  /// Writes one JSON document: `header` (comma-terminated members), a
  /// per-name summary of count, total and self time, and every span.
  /// False on an I/O error.
  bool WriteJson(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    struct Summary {
      size_t count = 0;
      double total_ms = 0, self_ms = 0;
    };
    std::map<std::string, Summary> by_name;
    const std::vector<double> self = SelfMs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      Summary& sum = by_name[spans_[i].name];
      ++sum.count;
      sum.total_ms += spans_[i].duration_ms();
      sum.self_ms += self[i];
    }
    std::fprintf(f, "{%s\"summary\": {", header.c_str());
    size_t k = 0;
    for (const auto& [name, sum] : by_name) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %zu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f}",
                   k++ ? "," : "", name.c_str(), sum.count, sum.total_ms,
                   sum.self_ms);
    }
    std::fprintf(f, "},\n\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f, \"parent\": %lld, \"request\": %llu}%s\n",
                   i, s.name.c_str(), s.start_ms, s.end_ms,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // GENT_PERFBENCH_SPANS_H_
