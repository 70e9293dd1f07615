// The benchmark's workloads and the per-layer replay of a traced run.
#ifndef XARCH_PERFBENCH_WORKLOADS_H_
#define XARCH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "keys/key_spec.h"
#include "obs/metrics.h"
#include "xarch/store.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for durable stores; removed by the caller.
  std::string dir;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// What one run reports: end-to-end metrics (untraced) or per-layer
/// metrics (traced), plus the operation tally for the result line.
struct RunOutput {
  Result metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

RunOutput RunXMarkServe(const Options& options);
RunOutput RunXMarkSharded(const Options& options);
RunOutput RunSprotIngest(const Options& options);

/// Read operation kinds of the closed-loop streams.
enum Kind { kPoint = 0, kHistory = 1, kRange = 2, kKinds = 3 };
const char* KindName(Kind kind);

/// One read the traced replay re-runs layer by layer.
struct SampledQuery {
  Kind kind;
  std::string text;
  std::string response;
};

/// The inputs and counters a traced run hands to the layer replay.
struct LayerInputs {
  const char* spec_text = nullptr;
  /// Version texts in ingest order (the replay rebuilds the archive from
  /// them through the core layer's own API).
  std::vector<const std::string*> versions;
  std::vector<SampledQuery> queries;
  /// The store the server answered from, or its reopened directory.
  xarch::Store* served = nullptr;
  bool sharded = false;
  /// Durable directory whose snapshot(s) and WAL(s) are re-read.
  std::string durable_dir;
  size_t shards = 1;
  /// Registry snapshots bracketing the measured window, and what the
  /// in-process reference store added to the default registry inside it.
  Counts default_before, default_after, default_excluded;
  Counts server_before, server_after;
  Counts vfs_before, vfs_after;
  xarch::StoreStats stats_before, stats_after;
  uint64_t server_bytes_out = 0;
  uint64_t server_busy = 0;
  /// Client-side tallies over the window.
  uint64_t reads = 0;
  double read_us_total = 0;
  double response_bytes = 0;
  /// Acknowledged ingests inside the window, their user bytes and time.
  uint64_t ingests = 0;
  double ingest_user_bytes = 0;
  double ingest_us_total = 0;
  /// Traced-window vs untraced-window throughput (tracing overhead).
  double qps_traced = 0, qps_untraced = 0;
  double ingest_mbps_traced = 0, ingest_mbps_untraced = 0;
  /// The span recorder the timed phase wrote into.
  Tracer* tracer = nullptr;
};

/// Re-runs a sample of the workload's operations through each layer's
/// public functions under spans, and derives every per-layer metric.
Result MeasureLayers(LayerInputs& inputs, const Options& options);

}  // namespace perfbench

#endif  // XARCH_PERFBENCH_WORKLOADS_H_
