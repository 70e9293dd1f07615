#ifndef XARCH_OBS_TRACE_H_
#define XARCH_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xarch::obs {

/// \brief One query's span tree (Dapper-style, in-process): nested timed
/// spans with integer annotations, collected while the query runs and
/// rendered as an indented tree — EXPLAIN ANALYZE's tail, the payload of
/// the wire TRACE frame, and the body of a slow-query log line.
///
/// Spans live in an arena (parent indices, never reparented), so handles
/// are plain indices and the tree renders in creation order. A Trace is
/// cheap enough to build per query but is NOT free: callers pass nullptr
/// when not tracing and every instrumentation site checks for it.
///
/// Thread safety: span creation/finish/annotation take a mutex. The query
/// evaluator runs serially when a trace is attached (the parallel range
/// executor falls back), so the tree's order is deterministic; the lock
/// covers incidental concurrency, not ordering.
class Trace {
 public:
  /// Identifies one span; kNoSpan is the (absent) parent of roots.
  using SpanId = size_t;
  static constexpr SpanId kNoSpan = static_cast<SpanId>(-1);

  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span under `parent` (kNoSpan for a root). Returns its id.
  SpanId Begin(std::string name, SpanId parent);

  /// Closes the span, fixing its duration. Idempotent is not needed —
  /// each span ends exactly once (ScopedSpan enforces it).
  void End(SpanId id);

  /// Attaches `key=value` to the span (probe counts, byte counts).
  void Note(SpanId id, std::string_view key, uint64_t value);

  /// Records an already-finished span from externally measured MonotonicMicros
  /// readings — for work timed before the trace existed (a query's parse
  /// runs before `explain analyze` is known to have been written).
  SpanId AddCompleted(std::string name, SpanId parent, uint64_t start_us,
                      uint64_t end_us);

  /// Renders the tree:
  ///
  ///   trace:
  ///     eval                         142 us  [naive_probes=5]
  ///       version 1                   12 us  [matches=1]
  ///
  /// Durations are wall-side microseconds from the monotonic clock.
  std::string Render() const;

  /// Total spans created (tests).
  size_t span_count() const;

 private:
  struct Span {
    std::string name;
    SpanId parent = kNoSpan;
    uint64_t start_us = 0;
    uint64_t end_us = 0;
    bool ended = false;
    std::vector<std::pair<std::string, uint64_t>> notes;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. Null-safe —
/// a ScopedSpan over a null Trace* is a no-op, so instrumentation sites
/// need no branches.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name,
             Trace::SpanId parent = Trace::kNoSpan)
      : trace_(trace),
        id_(trace != nullptr ? trace->Begin(std::move(name), parent)
                             : Trace::kNoSpan) {}

  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span's id, for nesting children under it (kNoSpan when no trace).
  Trace::SpanId id() const { return id_; }

  /// Annotates this span (no-op without a trace).
  void Note(std::string_view key, uint64_t value) {
    if (trace_ != nullptr) trace_->Note(id_, key, value);
  }

 private:
  Trace* trace_;
  Trace::SpanId id_;
};

}  // namespace xarch::obs

#endif  // XARCH_OBS_TRACE_H_
