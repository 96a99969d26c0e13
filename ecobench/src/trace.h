// Span recorder for the benchmark's traced run.
//
// The benchmark wraps each public call it makes into an engine layer in a
// span (name, start, end, parent span, query id). Spans stay in memory and
// are written out once, when the run ends. A span's layer is the part of its
// name before the first '.', e.g. "exec.ExecutePlanQuery" belongs to "exec".
// The root span of each benchmark call is "client.call": its self time is the
// benchmark's own work between the layer calls.

#ifndef ECOBENCH_TRACE_H_
#define ECOBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ecobench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        ///< index into the span list, -1 for a root
  int64_t query = -1;     ///< benchmark call index the span belongs to
};

class Tracer {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int Begin(const char* name, int64_t query);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name within each root span's subtree, keyed by the
  /// root's span index. A span's self time is its duration minus the time
  /// its direct children cover.
  std::map<int, std::map<std::string, int64_t>> SelfNsByRoot() const;

  /// Checks that every span is closed, that each child lies inside its
  /// parent, that siblings do not overlap, and that the self times under
  /// each root sum to the root's duration. Returns "" when all hold.
  std::string CheckNesting() const;

  /// Appends every span to an open JSON array, tagged with `workload`.
  void AppendJson(std::FILE* out, const std::string& workload,
                  bool* first) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span. A null tracer records nothing, so untraced runs pay one
/// branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace ecobench

#endif  // ECOBENCH_TRACE_H_
