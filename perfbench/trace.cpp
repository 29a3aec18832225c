#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_stack;

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

int Tracer::open(const char* name, int session) {
  const double start = now();
  const int parent = open_stack.empty() ? -1 : open_stack.back();
  std::lock_guard lock(mutex_);
  if (session < 0 && parent >= 0) session = spans_[static_cast<std::size_t>(parent)].session;
  spans_.push_back(Span{name, start, start, parent, session});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_stack.push_back(id);
  return id;
}

double Tracer::close(int id) {
  const double end = now();
  // Scopes close innermost first, even while an exception unwinds them.
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
  return end;
}

int Tracer::add(const char* name, double start, double end, int parent, int session) {
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, session});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::reparent(int first, int last, int from, int to, double before) {
  std::lock_guard lock(mutex_);
  for (int i = first; i < last; ++i) {
    Span& span = spans_[static_cast<std::size_t>(i)];
    if (span.parent == from && span.start < before) span.parent = to;
  }
}

int Tracer::size() const {
  std::lock_guard lock(mutex_);
  return static_cast<int>(spans_.size());
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotal> Tracer::totals() const {
  const std::vector<Span> all = spans();
  // Children of one span never overlap each other (they run on the parent's
  // thread, one at a time), so their clipped durations add up to the part
  // of the parent they cover.
  std::vector<double> covered(all.size(), 0.0);
  for (const Span& span : all) {
    if (span.parent < 0) continue;
    const Span& parent = all[static_cast<std::size_t>(span.parent)];
    const double overlap =
        std::min(span.end, parent.end) - std::max(span.start, parent.start);
    if (overlap > 0.0) covered[static_cast<std::size_t>(span.parent)] += overlap;
  }
  std::map<std::string, SpanTotal> totals;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanTotal& total = totals[all[i].name];
    const double duration = all[i].end - all[i].start;
    total.seconds += duration;
    total.self_seconds += duration - covered[i];
    ++total.calls;
  }
  return totals;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"session\": %d}%s\n",
                 i, span.name, span.start, span.end, span.parent, span.session,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("perfbench: cannot write " + path);
}

}  // namespace perfbench
