#ifndef XARCH_QUERY_EVALUATOR_H_
#define XARCH_QUERY_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/archive.h"
#include "core/changes.h"
#include "core/tree_view.h"
#include "index/archive_index.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "xarch/sink.h"
#include "xarch/store.h"

namespace xarch::query {

/// Counters of one query evaluation (what EXPLAIN reports and what
/// Store::Stats() accumulates).
struct EvalResult {
  /// The children the stamp-checking scan inspected, and the key
  /// comparisons of sorted-child lookups.
  index::ProbeStats probes;
  /// True when the evaluation navigated mapped snapshot bytes rather than
  /// heap nodes (EXPLAIN reports it as `mapped=true`).
  bool mapped = false;
  /// Elements the path expression matched (changes emitted, for diff).
  size_t matches = 0;
  /// Bytes streamed into the result sink.
  size_t bytes_streamed = 0;
  /// Full versions retrieved and parsed (generic-plan history fallback).
  size_t versions_scanned = 0;
  /// Read probes one shard answered during a scatter/gather evaluation
  /// (kShardScatter plans; filled by the sharded store, which is the only
  /// layer that can attribute primitive calls to shards).
  struct ShardProbe {
    size_t shard = 0;
    uint64_t probes = 0;
  };
  /// Per-shard probe counts, in shard order; empty for unsharded plans.
  std::vector<ShardProbe> shards;
};

/// \brief Execution tuning for one evaluation.
///
/// With a pool, range workloads (`@ versions A..B`) and the generic
/// history fallback's per-version full scan fan versions across the
/// workers: each version is evaluated into a private buffer and the
/// buffers are emitted into the sink in version order, so the output is
/// byte-identical to the serial run and probe counters sum to the same
/// totals. Callers hand out a pool only when the underlying data is safe
/// to read from several threads (the archive under the store's shared
/// lock; StorePrimitives::concurrent_reads() for generic plans).
struct EvalOptions {
  /// Worker pool for the parallel range executor; nullptr = serial.
  util::ThreadPool* pool = nullptr;
  /// Fan out only when at least this many versions are in the range —
  /// below it, task bookkeeping costs more than the scans.
  size_t min_parallel_versions = 4;
  /// When non-null, the evaluation records nested spans (eval → navigate /
  /// per-version scans, annotated with probe and byte counts) under
  /// `trace_parent`. A traced evaluation runs serially — the parallel
  /// range executor is bypassed so span order is deterministic; totals
  /// are identical either way.
  obs::Trace* trace = nullptr;
  obs::Trace::SpanId trace_parent = obs::Trace::kNoSpan;
};

/// \brief Streaming evaluation over the merged hierarchy (the archive
/// plans): walks the archive once, serializing straight into `sink` —
/// no intermediate xml::Node tree is materialized. With `index` non-null
/// keyed steps use the sorted-key binary search; otherwise every step is a
/// full child scan. Snapshots run the stamp-checking scan either way.
/// The archive (and index) must not be mutated during the call — the
/// Store layer guarantees that by holding the store's reader lock.
Status Evaluate(const Plan& plan, const core::Archive& archive,
                const index::ArchiveIndex* index, Sink& sink,
                EvalResult* result, const EvalOptions& options = {});

/// The archive-plan evaluator over any ArchiveView — the one
/// implementation behind Evaluate(). The archive store calls it directly
/// with its current view and an index over the same view (FlatArchiveView
/// and attached pages while backed by a mapped snapshot, HeapArchiveView
/// and heap-built pages after), producing identical bytes and probe
/// counts either way; `@ diff` runs core::DescribeChanges over the same
/// view.
Status EvaluateView(const Plan& plan, const core::ArchiveView& view,
                    const index::ArchiveIndex* index, Sink& sink,
                    EvalResult* result, const EvalOptions& options = {});

/// \brief Interface-level evaluation through Store primitives (the
/// kGeneric plan): snapshots via Retrieve() + parse + navigate, history
/// via History() (or a per-version full scan when temporal queries are
/// not advertised), diffs via DiffVersions(). Gives every backend XAQL
/// queries at full-scan cost; output bytes match the archive plans on
/// store-canonical documents. Takes the unlocked StorePrimitives view:
/// it runs inside Store::Query, which already holds the store lock.
Status EvaluateOverStore(const Plan& plan, StorePrimitives& store, Sink& sink,
                         EvalResult* result, const EvalOptions& options = {});

}  // namespace xarch::query

#endif  // XARCH_QUERY_EVALUATOR_H_
