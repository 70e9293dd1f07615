// Shared plumbing for the xarch benchmark: failure handling, latency
// samples, registry deltas, a span recorder for traced runs, and the
// result record a run prints as its last line.
#ifndef XARCH_PERFBENCH_HARNESS_H_
#define XARCH_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Prints `perfbench: FAIL <what>` to stderr and exits 1. Every failed
/// check ends the run this way: a benchmark result is never printed for a
/// run whose outputs were wrong.
[[noreturn]] void Fail(const std::string& what);

inline void Check(const xarch::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

template <typename T>
T Unwrap(xarch::StatusOr<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(*result);
}

/// A bag of measurements with order statistics.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]. 0 on an empty bag.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// \brief Per-operation latencies in a fixed-size log-linear histogram:
/// 128 linear sub-buckets per power of two of 10 ns ticks, so a bucket is
/// under 0.8% wide (quantiles interpolate inside it). Memory does not grow
/// with the number of operations, so a run's peak RSS does not depend on
/// how many it completed.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  size_t size() const { return count_; }
  /// Nearest-rank quantile, q in [0, 1], interpolated linearly inside the
  /// bucket holding the rank. 0 on an empty histogram.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  /// Ticks beyond 2^40 (about three hours) land in the last bucket.
  static constexpr int kMaxBits = 40;
  static size_t Index(uint64_t ticks);
  static uint64_t LowerBound(size_t index);
  static uint64_t Width(size_t index);

  std::vector<uint32_t> buckets_;
  size_t count_ = 0;
};

/// Point-in-time copy of a registry: every flattened sample keyed by
/// `name{labels}`, plus a label-summed total under the bare family name.
using Counts = std::map<std::string, double>;
Counts Snapshot(const xarch::obs::Registry& registry);
/// after[key] - before[key] (missing keys read 0).
double Delta(const Counts& before, const Counts& after, const std::string& key);
/// Per-label values of a family in `after` minus `before`.
std::vector<double> LabelDeltas(const Counts& before, const Counts& after,
                                const std::string& family);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// Total size of the regular files below `dir`.
uint64_t DirBytes(const std::string& dir);

/// \brief In-memory span recorder for traced runs: each span has a name,
/// a parent, the operation it belongs to, and monotonic start/end. Spans
/// are kept in memory and written out once, when the run ends.
class Tracer {
 public:
  static constexpr int64_t kNone = -1;

  struct Span {
    std::string name;
    int64_t parent = kNone;
    int64_t op = kNone;
    Clock::time_point start;
    Clock::time_point end;
  };

  int64_t Begin(std::string name, int64_t parent, int64_t op);
  void End(int64_t id) { spans_[id].end = Clock::now(); }

  /// Per span name: total duration minus the parts covered by its direct
  /// children (self time), in microseconds, and the span count.
  std::map<std::string, std::pair<double, size_t>> SelfTimes() const;

  /// One JSON object per line: name, parent, op, start_us, dur_us.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = Tracer::kNone,
             int64_t op = Tracer::kNone)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name), parent, op)
                   : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// The metrics of one run, printed by name with their units.
class Result {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  /// The human-readable table (stderr).
  void PrintTable() const;
  /// The one-line JSON result (stdout, last line).
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // XARCH_PERFBENCH_HARNESS_H_
