#ifndef XARCH_QUERY_PLANNER_H_
#define XARCH_QUERY_PLANNER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "query/ast.h"
#include "util/status.h"

namespace xarch::query {

/// How the plan reaches the data.
enum class Access {
  /// Streaming evaluation over the merged hierarchy, directed by an
  /// index::ArchiveIndex: sorted-key binary search for keyed steps. Its
  /// snapshots run the same stamp-checking scan as kArchiveScan.
  kArchiveIndexed,
  /// Streaming evaluation over the merged hierarchy with full child scans
  /// (the Sec. 7.1 naive scan).
  kArchiveScan,
  /// Interface-level evaluation through Store primitives (Retrieve /
  /// History / DiffVersions) — the fallback that gives every backend
  /// queries, at full-scan cost.
  kGeneric,
  /// Interface-level evaluation over a sharded store: every primitive
  /// call scatters to (or is routed within) the key-range shards and the
  /// per-shard results merge in key order (xarch/sharded_store.h).
  kShardScatter,
};

const char* AccessName(Access access);

/// \brief A compiled query: the AST plus the chosen access strategy and
/// per-operator notes (what EXPLAIN prints).
struct Plan {
  Query ast;
  Access access = Access::kArchiveScan;
  /// One line per path step: the navigation operator chosen for it.
  std::vector<std::string> step_notes;
  /// The execution operator for the temporal qualifier.
  std::string exec_note;
};

/// Compiles an AST into a plan for the given access strategy. Pure
/// function of (ast, access): operator choice depends only on step shape
/// (keyed steps get the sorted-key binary search under kArchiveIndexed;
/// bare and wildcard steps always scan the children).
Plan MakePlan(Query ast, Access access);

/// Parse + plan, timed into `*trace` ("parse" and "plan" spans) when one is
/// attached. An `explain analyze` query with no caller-supplied trace
/// promotes `analyze_trace` to the active trace — parse ran before the
/// flag was known, so its span is recorded from the measured interval.
/// `choose_access` maps the parsed AST to the access strategy (and may
/// capture side decisions, like an archive store's index selection).
StatusOr<Plan> ParseAndPlan(
    std::string_view query_text, obs::Trace* analyze_trace,
    obs::Trace** trace,
    const std::function<Access(const Query&)>& choose_access);

}  // namespace xarch::query

#endif  // XARCH_QUERY_PLANNER_H_
