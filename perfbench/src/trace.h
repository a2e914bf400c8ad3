// In-memory span recorder for the traced run. A span is opened around each
// call the benchmark makes into a layer; spans of one user query share a
// query id. Everything stays in memory until the run ends, when the spans
// are written out as JSON and summarized as self time per layer.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  int query = -1;   // user-query id, -1 outside a query
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span whose parent is the innermost open span.
  int Begin(const std::string& name);
  /// Closes span `id` and returns its duration in microseconds.
  double End(int id);

  void set_query(int query) { query_ = query; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name: each span's duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, double> SelfTimeUs() const;

  /// Writes every span as one JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int query_ = -1;
};

/// Opens a span for the enclosing scope. `Close()` ends it early and returns
/// its duration in microseconds; the destructor closes it otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Close() {
    if (!closed_) {
      us_ = tracer_->End(id_);
      closed_ = true;
    }
    return us_;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
  double us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
