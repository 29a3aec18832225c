// Span recorder for the traced benchmark pass.
//
// A span is one call into a layer's public functions, timed from the
// benchmark's own wrappers: its name ("<layer>.<what>"), start and end
// (seconds since the recorder was created), the span that caused it, and the
// session/request it belongs to. Spans stay in memory and are written out
// once, when the benchmark ends. A layer's self time is a span's duration
// minus the part of it that its child spans cover.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage: "<layer>.<what>"
  double start = 0.0;     // seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;        // index of the causing span, -1 for a root
  int session = -1;       // session / request id, -1 when none
};

struct SpanTotal {
  double seconds = 0.0;       // summed durations
  double self_seconds = 0.0;  // durations minus child coverage
  long long calls = 0;
};

// Thread-safe. Spans opened with Scope nest per thread: the parent of a new
// span is the innermost span its thread has open.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now() const;

  int open(const char* name, int session = -1);
  // Closes span `id`, the calling thread's innermost; returns its end time.
  double close(int id);
  // Records a span known only after the fact (explicit times and parent).
  int add(const char* name, double start, double end, int parent, int session);
  // Re-parents the spans in [first, last) whose parent is `from` and that
  // start before `before`.
  void reparent(int first, int last, int from, int to, double before);
  // Index the next recorded span will get.
  int size() const;

  std::vector<Span> spans() const;
  // Per span name over every recorded span.
  std::map<std::string, SpanTotal> totals() const;
  void write_json(const std::string& path) const;

  // RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int session = -1)
        : tracer_(tracer), id_(tracer.open(name, session)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
