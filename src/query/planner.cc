#include "query/planner.h"

#include "obs/metrics.h"
#include "query/parser.h"

namespace xarch::query {

const char* AccessName(Access access) {
  switch (access) {
    case Access::kArchiveIndexed: return "archive-indexed";
    case Access::kArchiveScan: return "archive-scan";
    case Access::kGeneric: return "store-generic";
    case Access::kShardScatter: return "shard-scatter";
  }
  return "?";
}

namespace {

std::string StepNote(const Step& step, Access access) {
  if (access == Access::kGeneric || access == Access::kShardScatter) {
    return step.keyed() ? "navigate parsed document, match key paths"
                        : "navigate parsed document, match tag";
  }
  if (step.keyed()) {
    return access == Access::kArchiveIndexed
               ? "sorted-key binary search (index)"
               : "keyed-child scan";
  }
  return "child scan by tag";
}

std::string ExecNote(const Temporal& temporal, Access access) {
  switch (temporal.kind) {
    case TemporalKind::kVersion:
    case TemporalKind::kRange:
      switch (access) {
        case Access::kArchiveIndexed:
          return "timestamp-tree pruned subtree stream";
        case Access::kArchiveScan:
          return "full-scan subtree stream";
        case Access::kGeneric:
          return "Retrieve() + parse + subtree serialization";
        case Access::kShardScatter:
          return "scatter Retrieve() across shards, merge sub-documents "
                 "in key order";
      }
      break;
    case TemporalKind::kHistory:
      switch (access) {
        case Access::kArchiveIndexed:
        case Access::kArchiveScan:
          return "effective-timestamp read at the matched nodes";
        case Access::kGeneric:
          return "History() when advertised, else per-version full scan";
        case Access::kShardScatter:
          return "route History() to candidate shards by key fingerprint";
      }
      break;
    case TemporalKind::kDiff:
      switch (access) {
        case Access::kArchiveIndexed:
        case Access::kArchiveScan:
          return "key-based change walk, filtered to the path";
        case Access::kGeneric:
          return "DiffVersions(), filtered to the path";
        case Access::kShardScatter:
          return "scatter DiffVersions(), concatenate per-shard changes "
                 "in key order";
      }
      break;
  }
  return "?";
}

}  // namespace

Plan MakePlan(Query ast, Access access) {
  Plan plan;
  plan.access = access;
  plan.step_notes.reserve(ast.steps.size());
  for (const Step& step : ast.steps) {
    plan.step_notes.push_back(StepNote(step, access));
  }
  plan.exec_note = ExecNote(ast.temporal, access);
  plan.ast = std::move(ast);
  return plan;
}

StatusOr<Plan> ParseAndPlan(
    std::string_view query_text, obs::Trace* analyze_trace,
    obs::Trace** trace,
    const std::function<Access(const Query&)>& choose_access) {
  const uint64_t parse_start = obs::MonotonicMicros();
  XARCH_ASSIGN_OR_RETURN(Query ast, Parse(query_text));
  const uint64_t parse_end = obs::MonotonicMicros();
  if (ast.analyze && *trace == nullptr) *trace = analyze_trace;
  if (*trace != nullptr) {
    (*trace)->AddCompleted("parse", obs::Trace::kNoSpan, parse_start,
                           parse_end);
  }
  const uint64_t plan_start = obs::MonotonicMicros();
  const Access access = choose_access(ast);
  Plan plan = MakePlan(std::move(ast), access);
  if (*trace != nullptr) {
    (*trace)->AddCompleted("plan", obs::Trace::kNoSpan, plan_start,
                           obs::MonotonicMicros());
  }
  return plan;
}

}  // namespace xarch::query
