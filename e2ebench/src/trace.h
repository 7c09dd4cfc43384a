// In-memory spans for the traced run.
//
// A span records name, start, end, parent span and request id; spans are
// kept in memory and written out once, when the run ends.  A layer's self
// time is its spans' duration minus the duration of their child spans.
// Inner loops that would produce one span per canonical tree (tree builds,
// matcher evaluations) are recorded as one aggregate child span per call,
// whose duration is the summed per-tree time.
//
// Single-threaded: the traced replay runs on one thread.  With tracing
// disabled every call is a branch and nothing is recorded, which is how the
// untraced replay pass measures the tracer's own overhead.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = -1;
  };

  struct LayerTotals {
    int64_t count = 0;
    int64_t self_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span.  Returns its id (-1 when
  /// disabled).
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t id);

  /// Records a closed child of span `parent` lasting `duration_ns`.
  void AddAggregate(const char* name, int32_t parent, int64_t duration_ns);

  /// Per span name: number of spans and summed self time.
  std::map<std::string, LayerTotals> Totals() const;

  /// Writes every span as one tab-separated line.  False on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
