#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(1);
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>(kMaxBits - kSubBits + 1) << kSubBits, 0) {}

size_t LatencyHistogram::Index(uint64_t ticks) {
  if (ticks < (uint64_t{2} << kSubBits)) return static_cast<size_t>(ticks);
  const int shift = 63 - __builtin_clzll(ticks) - kSubBits;
  return (static_cast<size_t>(shift + 1) << kSubBits) +
         static_cast<size_t>((ticks >> shift) - (uint64_t{1} << kSubBits));
}

uint64_t LatencyHistogram::LowerBound(size_t index) {
  if (index < (size_t{2} << kSubBits)) return index;
  const int shift = static_cast<int>(index >> kSubBits) - 1;
  const uint64_t sub = (index & ((size_t{1} << kSubBits) - 1)) +
                       (uint64_t{1} << kSubBits);
  return sub << shift;
}

uint64_t LatencyHistogram::Width(size_t index) {
  if (index < (size_t{2} << kSubBits)) return 1;
  return uint64_t{1} << ((index >> kSubBits) - 1);
}

void LatencyHistogram::Add(double us) {
  const double ticks = std::min(std::max(0.0, us * 100.0), 0x1p40 - 1);
  ++buckets_[Index(static_cast<uint64_t>(ticks))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  double below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double in = static_cast<double>(buckets_[i]);
    if (in == 0) continue;
    if (below + in >= rank) {
      const double fraction = (rank - below - 0.5) / in;
      return (static_cast<double>(LowerBound(i)) +
              fraction * static_cast<double>(Width(i))) /
             100.0;
    }
    below += in;
  }
  return static_cast<double>(LowerBound(buckets_.size() - 1)) / 100.0;
}

Counts Snapshot(const xarch::obs::Registry& registry) {
  Counts counts;
  for (const auto& sample : registry.Samples()) {
    const double value = static_cast<double>(sample.value);
    counts[sample.name + "{" + sample.labels + "}"] += value;
    counts[sample.name] += value;
  }
  return counts;
}

double Delta(const Counts& before, const Counts& after,
             const std::string& key) {
  auto read = [&key](const Counts& counts) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  return read(after) - read(before);
}

std::vector<double> LabelDeltas(const Counts& before, const Counts& after,
                                const std::string& family) {
  std::vector<double> out;
  const std::string prefix = family + "{";
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(Delta(before, after, it->first));
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("VmHWM not found in /proc/self/status");
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t op) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.op = op;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, std::pair<double, size_t>> Tracer::SelfTimes() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_us[span.parent] += MicrosBetween(span.start, span.end);
    }
  }
  std::map<std::string, std::pair<double, size_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& [self_us, count] = out[spans_[i].name];
    self_us += MicrosBetween(spans_[i].start, spans_[i].end) - child_us[i];
    ++count;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"parent\":%lld,\"op\":%lld,"
                 "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 span.name.c_str(), static_cast<long long>(span.parent),
                 static_cast<long long>(span.op),
                 MicrosBetween(origin, span.start),
                 MicrosBetween(span.start, span.end));
  }
  return std::fclose(out) == 0;
}

void Result::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

void Result::PrintJson(bool correct, uint64_t attempted,
                       uint64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values (a ratio over an empty denominator) are not JSON;
    // report them as 0.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
