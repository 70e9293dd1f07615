#include "query/evaluator.h"

#include <string>
#include <utility>
#include <vector>

#include "core/changes.h"
#include "core/scan.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/serializer.h"

namespace xarch::query {

namespace {

// ------------------------------------------------------- shared helpers

/// The query path rendered in DescribeChanges' path syntax
/// ("/db/entry{id=2}"); bare and wildcard steps render as the bare tag.
std::string RenderPathPrefix(const std::vector<Step>& steps) {
  std::string out;
  for (const Step& step : steps) {
    out += '/';
    out += step.ToLabelString();
  }
  return out;
}

/// True if a change path lies at or under the rendered query path. A bare
/// prefix step ("/db/entry") covers every keyed sibling ("/db/entry{id=2}"),
/// but not unrelated tags that merely share the prefix bytes ("/db/entryX").
bool ChangeUnderPrefix(const std::string& change_path,
                       const std::string& prefix) {
  if (!StartsWith(change_path, prefix)) return false;
  if (change_path.size() == prefix.size()) return true;
  const char next = change_path[prefix.size()];
  return next == '/' || next == '{';
}

Status EmitText(Sink& sink, std::string_view text, EvalResult* result) {
  result->bytes_streamed += text.size();
  return sink.Append(text);
}

std::string VersionOpenTag(Version v) {
  return "<version n=\"" + std::to_string(v) + "\">\n";
}

std::string VersionEmptyTag(Version v) {
  return "<version n=\"" + std::to_string(v) + "\"/>\n";
}

Status NoMatchError(const Query& ast) {
  Query canonical = ast;
  canonical.explain = false;
  return Status::NotFound("no element matches " + canonical.ToString());
}

Status RangeBoundsError(Version count) {
  return Status::InvalidArgument("versions must be in 1-" +
                                 std::to_string(count));
}

/// Builds "scan v<N>" only when a trace is attached — untraced hot loops
/// must not pay a per-version string allocation.
std::string ScanSpanName(const obs::Trace* trace, Version v) {
  if (trace == nullptr) return std::string();
  return "scan v" + std::to_string(v);
}

/// True when `options` allow fanning `versions` across pool workers. A
/// traced evaluation always runs serially: the span tree's order must be
/// deterministic, and the serial path produces identical totals.
bool WantParallel(const EvalOptions& options, size_t versions) {
  return options.trace == nullptr && options.pool != nullptr &&
         options.pool->size() > 0 &&
         versions >= options.min_parallel_versions && versions > 1;
}

// ------------------------------------------------------- query metrics

/// Per-plan-kind instruments, resolved once per process (registry lookups
/// are mutexed; the per-query cost after the first is atomic adds only).
struct QueryMetrics {
  obs::Counter* queries;
  obs::Histogram* duration_us;
  obs::Counter* naive_probes;
  obs::Counter* key_comparisons;
  obs::Counter* bytes_streamed;
};

QueryMetrics MakeQueryMetrics(const char* plan) {
  obs::Registry& reg = obs::Registry::Default();
  const std::string labels = "plan=\"" + std::string(plan) + "\"";
  QueryMetrics m;
  m.queries = reg.GetCounter("xarch_queries_total", labels,
                             "Query evaluations by plan kind");
  m.duration_us = reg.GetHistogram("xarch_query_duration_us", labels,
                                   "Query evaluation latency (microseconds)");
  m.naive_probes =
      reg.GetCounter("xarch_query_probes_total", labels + ",kind=\"naive\"",
                     "Evaluation probes by plan kind and probe kind");
  m.key_comparisons = reg.GetCounter("xarch_query_probes_total",
                                     labels + ",kind=\"key_comparison\"", "");
  m.bytes_streamed =
      reg.GetCounter("xarch_query_bytes_streamed_total", labels,
                     "Bytes streamed into query sinks by plan kind");
  return m;
}

const QueryMetrics& MetricsFor(Access access) {
  static QueryMetrics indexed = MakeQueryMetrics("archive-indexed");
  static QueryMetrics scan = MakeQueryMetrics("archive-scan");
  static QueryMetrics generic = MakeQueryMetrics("store-generic");
  static QueryMetrics scatter = MakeQueryMetrics("shard-scatter");
  switch (access) {
    case Access::kArchiveIndexed: return indexed;
    case Access::kArchiveScan: return scan;
    case Access::kGeneric: return generic;
    case Access::kShardScatter: return scatter;
  }
  return generic;
}

void RecordQueryMetrics(Access access, const EvalResult& result,
                        uint64_t duration_us) {
  if (!obs::MetricsEnabled()) return;
  const QueryMetrics& m = MetricsFor(access);
  m.queries->Increment();
  m.duration_us->Record(duration_us);
  m.naive_probes->Add(result.probes.naive_probes);
  m.key_comparisons->Add(result.probes.comparisons);
  m.bytes_streamed->Add(result.bytes_streamed);
}

/// Runs the shared diff pipeline: describe → filter to the query path →
/// format. `changes` is the full key-based change list between the two
/// versions.
Status EmitFilteredChanges(const std::vector<core::Change>& changes,
                           const std::vector<Step>& steps, Sink& sink,
                           EvalResult* result) {
  const std::string prefix = RenderPathPrefix(steps);
  std::vector<core::Change> filtered;
  for (const core::Change& change : changes) {
    if (ChangeUnderPrefix(change.path, prefix)) filtered.push_back(change);
  }
  result->matches = filtered.size();
  return EmitText(sink, core::FormatChanges(filtered), result);
}

// ------------------------------------------------- archive-plan support

struct NodeMatch {
  core::ArchiveView::NodeId node = core::ArchiveView::kNoNode;
  VersionSet effective;
  std::string path;  // DescribeChanges-style, e.g. "/db/entry{id=2}"
};

class ArchiveEvaluator {
 public:
  ArchiveEvaluator(const core::ArchiveView& view,
                   const index::ArchiveIndex* index, Sink& sink,
                   EvalResult& result, const EvalOptions& options)
      : view_(view),
        index_(index),
        sink_(sink),
        result_(result),
        options_(options) {}

  Status Run(const Plan& plan) {
    const Query& ast = plan.ast;
    obs::ScopedSpan eval(options_.trace, "eval", options_.trace_parent);
    eval_span_ = eval.id();
    if (ast.temporal.kind == TemporalKind::kDiff) {
      // Diff needs no navigation: the change walk visits the whole
      // hierarchy once and the query path filters its output, so absent
      // paths yield an empty change list, exactly as on generic plans.
      obs::ScopedSpan span(options_.trace, "diff", eval_span_);
      XARCH_ASSIGN_OR_RETURN(
          std::vector<core::Change> changes,
          core::DescribeChanges(view_, ast.temporal.from, ast.temporal.to));
      XARCH_RETURN_NOT_OK(
          EmitFilteredChanges(changes, ast.steps, sink_, &result_));
      span.Note("changes", result_.matches);
      return sink_.Flush();
    }
    // A range query over a path that never existed streams empty
    // <version/> wrappers (like the generic plan); the other kinds report
    // the miss. History gives bare steps Store::History's exact semantics
    // (the unkeyed element with that tag; `[*]` enumerates keyed
    // siblings), so every plan answers history queries identically.
    const bool missing_path_is_error =
        ast.temporal.kind != TemporalKind::kRange;
    const bool bare_is_exact = ast.temporal.kind == TemporalKind::kHistory;
    StatusOr<std::vector<NodeMatch>> navigated = [&] {
      obs::ScopedSpan span(options_.trace, "navigate", eval_span_);
      auto got = Navigate(ast.steps, missing_path_is_error, bare_is_exact);
      span.Note("naive_probes", result_.probes.naive_probes);
      if (got.ok()) span.Note("matches", got->size());
      return got;
    }();
    XARCH_ASSIGN_OR_RETURN(std::vector<NodeMatch> matches,
                           std::move(navigated));
    result_.matches = matches.size();
    switch (ast.temporal.kind) {
      case TemporalKind::kVersion:
        XARCH_RETURN_NOT_OK(RunSnapshot(ast, matches));
        break;
      case TemporalKind::kRange:
        XARCH_RETURN_NOT_OK(RunRange(ast, matches));
        break;
      case TemporalKind::kHistory:
        XARCH_RETURN_NOT_OK(RunHistory(matches));
        break;
      case TemporalKind::kDiff:
        break;  // handled above
    }
    return sink_.Flush();
  }

 private:
  StatusOr<std::vector<NodeMatch>> Navigate(const std::vector<Step>& steps,
                                            bool missing_is_error,
                                            bool bare_is_exact) {
    std::vector<NodeMatch> frontier;
    frontier.push_back(
        NodeMatch{view_.Root(), view_.StampValue(view_.Root()), ""});
    for (const Step& step : steps) {
      std::vector<NodeMatch> next;
      for (const NodeMatch& parent : frontier) {
        if (view_.IsFrontier(parent.node)) {
          return Status::InvalidArgument(
              "query path descends below frontier node " +
              view_.LabelString(parent.node));
        }
        result_.probes.naive_probes += view_.ChildCount(parent.node);
        if (step.keyed()) {
          core::ArchiveView::NodeId child = core::ArchiveView::kNoNode;
          if (index_ != nullptr) {
            child = index_->FindChild(parent.node, step.ToKeyStep(),
                                      &result_.probes);
          } else {
            child =
                core::FindChildByKeyStep(view_, parent.node, step.ToKeyStep());
          }
          if (child != core::ArchiveView::kNoNode) {
            next.push_back(MakeMatch(parent, child));
          }
        } else {
          const size_t child_count = view_.ChildCount(parent.node);
          for (size_t i = 0; i < child_count; ++i) {
            const core::ArchiveView::NodeId child = view_.Child(parent.node, i);
            if (view_.Tag(child) != step.tag) continue;
            if (bare_is_exact && !step.wildcard &&
                view_.LabelPartCount(child) != 0) {
              continue;  // a bare step addresses only the unkeyed element
            }
            next.push_back(MakeMatch(parent, child));
          }
        }
      }
      if (next.empty()) {
        if (missing_is_error) return NoMatchErrorForStep(step);
        return std::vector<NodeMatch>();
      }
      frontier = std::move(next);
    }
    return frontier;
  }

  Status NoMatchErrorForStep(const Step& step) const {
    return Status::NotFound("no element " + step.ToString() +
                            " on the given path");
  }

  NodeMatch MakeMatch(const NodeMatch& parent,
                      core::ArchiveView::NodeId child) const {
    NodeMatch match;
    match.node = child;
    match.effective = view_.EffectiveStamp(child, parent.effective);
    match.path = parent.path + "/" + view_.LabelString(child);
    return match;
  }

  /// A cursor streaming into the query sink, counting into result_ — for
  /// the serial paths, which run on the caller thread only.
  core::ScanCursor MakeCursor() {
    return core::ScanCursor(xml::SerializeOptions{},
                            [this](std::string_view chunk) {
                              result_.bytes_streamed += chunk.size();
                              return sink_.Append(chunk);
                            });
  }

  Status FinishCursor(core::ScanCursor& cursor,
                      const core::ScanStats& stats) {
    result_.probes.naive_probes += stats.naive_probes;
    return cursor.Finish();
  }

  Status RunSnapshot(const Query& ast, const std::vector<NodeMatch>& matches) {
    const Version v = ast.temporal.from;
    if (v == 0 || v > view_.version_count()) {
      return Status::NotFound("version " + std::to_string(v) +
                              " is not archived (have 1-" +
                              std::to_string(view_.version_count()) + ")");
    }
    obs::ScopedSpan span(options_.trace, ScanSpanName(options_.trace, v),
                         eval_span_);
    core::ScanCursor cursor = MakeCursor();
    core::ScanStats stats;
    cursor.set_stats(&stats);
    size_t active = 0;
    for (const NodeMatch& match : matches) {
      if (!match.effective.Contains(v)) continue;
      ++active;
      XARCH_RETURN_NOT_OK(cursor.Scan(view_, match.node, v, 0));
    }
    XARCH_RETURN_NOT_OK(FinishCursor(cursor, stats));
    span.Note("naive_probes", stats.naive_probes);
    span.Note("bytes", result_.bytes_streamed);
    if (active == 0) return NoMatchError(ast);
    return Status::OK();
  }

  /// One range version through `cursor`, wrapper included — the single
  /// source of the range output format, shared by the serial loop (one
  /// streaming cursor) and the parallel work units (a private buffered
  /// cursor each), which is what keeps parallel output byte-identical.
  Status ScanRangeVersion(core::ScanCursor& cursor,
                          const std::vector<NodeMatch>& matches, Version v) {
    bool any = false;
    for (const NodeMatch& match : matches) {
      if (!match.effective.Contains(v)) continue;
      if (!any) {
        XARCH_RETURN_NOT_OK(cursor.Emit(VersionOpenTag(v)));
        any = true;
      }
      XARCH_RETURN_NOT_OK(cursor.Scan(view_, match.node, v, 1));
    }
    return cursor.Emit(any ? std::string("</version>\n")
                           : VersionEmptyTag(v));
  }

  /// One range version, serialized complete into a private buffer with
  /// private stats — the parallel work unit.
  Status ScanVersionToBuffer(const std::vector<NodeMatch>& matches, Version v,
                             std::string* out, core::ScanStats* stats) {
    core::ScanCursor cursor(
        xml::SerializeOptions{},
        [out](std::string_view chunk) {
          out->append(chunk);
          return Status::OK();
        });
    cursor.set_stats(stats);
    XARCH_RETURN_NOT_OK(ScanRangeVersion(cursor, matches, v));
    return cursor.Finish();
  }

  Status RunRange(const Query& ast, const std::vector<NodeMatch>& matches) {
    const Version from = ast.temporal.from, to = ast.temporal.to;
    if (from == 0 || to > view_.version_count()) {
      return RangeBoundsError(view_.version_count());
    }
    const size_t n = static_cast<size_t>(to - from) + 1;
    if (WantParallel(options_, n)) {
      return RunRangeParallel(matches, from, n);
    }
    core::ScanCursor cursor = MakeCursor();
    core::ScanStats stats;
    cursor.set_stats(&stats);
    for (Version v = from; v <= to; ++v) {
      obs::ScopedSpan span(options_.trace, ScanSpanName(options_.trace, v),
                           eval_span_);
      const size_t naive = stats.naive_probes;
      const size_t bytes = result_.bytes_streamed;
      XARCH_RETURN_NOT_OK(ScanRangeVersion(cursor, matches, v));
      span.Note("naive_probes", stats.naive_probes - naive);
      span.Note("bytes", result_.bytes_streamed - bytes);
    }
    return FinishCursor(cursor, stats);
  }

  /// The parallel range executor: versions fan out across the pool, each
  /// serialized into a private buffer; buffers are then emitted in version
  /// order, so the sink sees bytes identical to the serial run and the
  /// probe counters sum to the same totals. The archive and index are read
  /// concurrently but never mutated (the store's reader lock guarantees
  /// no ingest runs during evaluation).
  Status RunRangeParallel(const std::vector<NodeMatch>& matches, Version from,
                          size_t n) {
    std::vector<std::string> outputs(n);
    std::vector<core::ScanStats> stats(n);
    std::vector<Status> statuses(n);
    options_.pool->ParallelFor(n, [&](size_t i) {
      statuses[i] =
          ScanVersionToBuffer(matches, from + static_cast<Version>(i),
                              &outputs[i], &stats[i]);
    });
    for (size_t i = 0; i < n; ++i) {
      result_.probes.naive_probes += stats[i].naive_probes;
      XARCH_RETURN_NOT_OK(statuses[i]);
      XARCH_RETURN_NOT_OK(EmitText(sink_, outputs[i], &result_));
    }
    return Status::OK();
  }

  Status RunHistory(const std::vector<NodeMatch>& matches) {
    obs::ScopedSpan span(options_.trace, "history", eval_span_);
    span.Note("matches", matches.size());
    std::string out;
    for (const NodeMatch& match : matches) {
      out += match.path;
      out += ": ";
      out += match.effective.ToString();
      out += '\n';
    }
    return EmitText(sink_, out, &result_);
  }

  const core::ArchiveView& view_;
  const index::ArchiveIndex* index_;
  Sink& sink_;
  EvalResult& result_;
  const EvalOptions& options_;
  obs::Trace::SpanId eval_span_ = obs::Trace::kNoSpan;
};

// ------------------------------------------------- generic-plan support

/// True if the parsed element satisfies a step: same tag, and every key
/// predicate's path evaluates (uniquely) to the given plain-text value.
bool MatchesStep(const xml::Node& node, const Step& step) {
  if (!node.is_element() || node.tag() != step.tag) return false;
  for (const KeyMatch& match : step.matches) {
    if (!match.key_path.empty() && match.key_path[0] == '@') {
      const std::string* attr = node.FindAttr(match.key_path.substr(1));
      if (attr == nullptr || *attr != match.value) return false;
      continue;
    }
    if (match.key_path == ".") {
      if (node.TextContent() != match.value) return false;
      continue;
    }
    auto path = xml::ParsePath(match.key_path);
    if (!path.ok()) return false;
    std::vector<xml::PathTarget> targets = xml::EvalPath(node, *path);
    if (targets.size() != 1) return false;
    const xml::PathTarget& target = targets[0];
    if (target.is_attr()) {
      const std::string* attr = target.attr_owner->FindAttr(target.attr_name);
      if (attr == nullptr || *attr != match.value) return false;
    } else {
      if (target.node->TextContent() != match.value) return false;
    }
  }
  return true;
}

/// Navigates a parsed document: the first step must match the document
/// root, later steps descend through child elements.
std::vector<const xml::Node*> NavigateDoc(const xml::Node& root,
                                          const std::vector<Step>& steps) {
  std::vector<const xml::Node*> frontier;
  if (steps.empty()) return frontier;
  if (MatchesStep(root, steps[0])) frontier.push_back(&root);
  for (size_t i = 1; i < steps.size() && !frontier.empty(); ++i) {
    std::vector<const xml::Node*> next;
    for (const xml::Node* parent : frontier) {
      for (const auto& child : parent->children()) {
        if (MatchesStep(*child, steps[i])) next.push_back(child.get());
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

class StoreEvaluator {
 public:
  StoreEvaluator(StorePrimitives& store, Sink& sink, EvalResult& result,
                 const EvalOptions& options)
      : store_(store), sink_(sink), result_(result), options_(options) {}

  Status Run(const Plan& plan) {
    const Query& ast = plan.ast;
    obs::ScopedSpan eval(options_.trace, "eval", options_.trace_parent);
    eval_span_ = eval.id();
    switch (ast.temporal.kind) {
      case TemporalKind::kVersion:
        XARCH_RETURN_NOT_OK(RunSnapshot(ast));
        break;
      case TemporalKind::kRange:
        XARCH_RETURN_NOT_OK(RunRange(ast));
        break;
      case TemporalKind::kHistory:
        XARCH_RETURN_NOT_OK(RunHistory(ast));
        break;
      case TemporalKind::kDiff:
        XARCH_RETURN_NOT_OK(RunDiff(ast));
        break;
    }
    return sink_.Flush();
  }

 private:
  /// Matched subtrees at version v, serialized into `*out` at `depth`.
  /// Returns the number of matches (0 for a version where the database
  /// was empty or the path matched nothing). Pure per-version work —
  /// touches no evaluator state, so versions may run on pool workers when
  /// the store's reads are concurrency-safe (callers account
  /// versions_scanned themselves).
  StatusOr<size_t> SnapshotInto(const Query& ast, Version v, int depth,
                                std::string* out) {
    XARCH_ASSIGN_OR_RETURN(std::string text, store_.Retrieve(v));
    if (text.empty()) return size_t{0};  // empty database state
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(text));
    std::vector<const xml::Node*> matches = NavigateDoc(*doc, ast.steps);
    if (out != nullptr) {  // history wants counts only, not bytes
      for (const xml::Node* match : matches) {
        xml::SerializeAppend(*match, xml::SerializeOptions{}, depth, out);
      }
    }
    return matches.size();
  }

  /// True when the per-version scans of an n-version workload may fan
  /// across the pool: options allow it AND the backend's read primitives
  /// are safe to call from several threads at once.
  bool ParallelScanAllowed(size_t n) const {
    return WantParallel(options_, n) && store_.concurrent_reads();
  }

  /// Parallel per-version scan: runs SnapshotInto for versions
  /// from..from+n-1 into private buffers on the pool workers (`outputs`
  /// may be null for count-only workloads). Results land at index
  /// i = v - from. Only called when ParallelScanAllowed(n).
  void ScanVersionsParallel(const Query& ast, Version from, size_t n,
                            int depth, std::vector<std::string>* outputs,
                            std::vector<StatusOr<size_t>>* counts) {
    if (outputs != nullptr) outputs->assign(n, std::string());
    counts->assign(n, StatusOr<size_t>(size_t{0}));
    options_.pool->ParallelFor(n, [&](size_t i) {
      (*counts)[i] =
          SnapshotInto(ast, from + static_cast<Version>(i), depth,
                       outputs != nullptr ? &(*outputs)[i] : nullptr);
    });
    result_.versions_scanned += n;
  }

  Status RunSnapshot(const Query& ast) {
    obs::ScopedSpan span(
        options_.trace, ScanSpanName(options_.trace, ast.temporal.from),
        eval_span_);
    std::string out;
    ++result_.versions_scanned;
    XARCH_ASSIGN_OR_RETURN(size_t matches,
                           SnapshotInto(ast, ast.temporal.from, 0, &out));
    span.Note("matches", matches);
    span.Note("bytes", out.size());
    if (matches == 0) return NoMatchError(ast);
    result_.matches = matches;
    return EmitText(sink_, out, &result_);
  }

  /// Emits one range version in the shared wrapper format.
  Status EmitRangeVersion(Version v, size_t matches, const std::string& body) {
    result_.matches += matches;
    if (matches == 0) {
      return EmitText(sink_, VersionEmptyTag(v), &result_);
    }
    XARCH_RETURN_NOT_OK(EmitText(sink_, VersionOpenTag(v), &result_));
    XARCH_RETURN_NOT_OK(EmitText(sink_, body, &result_));
    return EmitText(sink_, "</version>\n", &result_);
  }

  Status RunRange(const Query& ast) {
    const Version from = ast.temporal.from, to = ast.temporal.to;
    if (from == 0 || to > store_.version_count()) {
      return RangeBoundsError(store_.version_count());
    }
    const size_t n = static_cast<size_t>(to - from) + 1;
    if (ParallelScanAllowed(n)) {
      std::vector<std::string> bodies;
      std::vector<StatusOr<size_t>> counts;
      ScanVersionsParallel(ast, from, n, 1, &bodies, &counts);
      // Deterministic merge: emit in version order; the first failed
      // version reports its error exactly as the serial loop does.
      for (size_t i = 0; i < n; ++i) {
        XARCH_RETURN_NOT_OK(counts[i].status());
        XARCH_RETURN_NOT_OK(EmitRangeVersion(from + static_cast<Version>(i),
                                             *counts[i], bodies[i]));
      }
      return Status::OK();
    }
    for (Version v = from; v <= to; ++v) {
      obs::ScopedSpan span(options_.trace, ScanSpanName(options_.trace, v),
                           eval_span_);
      std::string body;
      ++result_.versions_scanned;
      XARCH_ASSIGN_OR_RETURN(size_t matches, SnapshotInto(ast, v, 1, &body));
      span.Note("matches", matches);
      span.Note("bytes", body.size());
      XARCH_RETURN_NOT_OK(EmitRangeVersion(v, matches, body));
    }
    return Status::OK();
  }

  /// Folds one version's match count into the history, rejecting the
  /// ambiguous fan-out case with the shared diagnostic.
  Status NoteHistoryMatches(Version v, size_t matches, VersionSet* history) {
    if (matches > 1) {
      return Status::InvalidArgument(
          "ambiguous history path (a bare step matches " +
          std::to_string(matches) + " siblings at version " +
          std::to_string(v) +
          "); give the full key, or use [*] on an archive backend");
    }
    if (matches > 0) history->Add(v);
    return Status::OK();
  }

  Status RunHistory(const Query& ast) {
    for (const Step& step : ast.steps) {
      if (step.wildcard) {
        return Status::InvalidArgument(
            "wildcard history requires an archive backend (generic plans "
            "cannot enumerate keyed siblings)");
      }
    }
    VersionSet history;
    obs::ScopedSpan span(options_.trace, "history", eval_span_);
    if (store_.Has(kTemporalQueries)) {
      std::vector<core::KeyStep> path;
      path.reserve(ast.steps.size());
      for (const Step& step : ast.steps) path.push_back(step.ToKeyStep());
      XARCH_ASSIGN_OR_RETURN(history, store_.History(path));
    } else {
      // Full scan: retrieve and navigate every archived version — the
      // fallback cost a backend without temporal queries pays (versions
      // fan across the pool when reads allow). Without a key
      // specification a bare step matches by tag alone, so a fan-out
      // means the path addresses keyed siblings ambiguously; fail loudly
      // rather than silently merging their histories.
      const size_t n = static_cast<size_t>(store_.version_count());
      if (ParallelScanAllowed(n)) {
        std::vector<StatusOr<size_t>> counts;
        ScanVersionsParallel(ast, 1, n, 0, /*outputs=*/nullptr, &counts);
        for (size_t i = 0; i < n; ++i) {
          XARCH_RETURN_NOT_OK(counts[i].status());
          XARCH_RETURN_NOT_OK(
              NoteHistoryMatches(static_cast<Version>(i + 1), *counts[i],
                                 &history));
        }
      } else {
        for (Version v = 1; v <= store_.version_count(); ++v) {
          obs::ScopedSpan scan(options_.trace,
                               ScanSpanName(options_.trace, v), span.id());
          ++result_.versions_scanned;
          XARCH_ASSIGN_OR_RETURN(size_t matches,
                                 SnapshotInto(ast, v, 0, nullptr));
          scan.Note("matches", matches);
          XARCH_RETURN_NOT_OK(NoteHistoryMatches(v, matches, &history));
        }
      }
      if (history.empty()) return NoMatchError(ast);
    }
    result_.matches = 1;
    return EmitText(
        sink_, RenderPathPrefix(ast.steps) + ": " + history.ToString() + "\n",
        &result_);
  }

  Status RunDiff(const Query& ast) {
    if (!store_.Has(kTemporalQueries)) {
      return Status::Unimplemented(
          "diff queries need key-based change tracking; store \"" +
          store_.name() + "\" does not advertise temporal-queries");
    }
    obs::ScopedSpan span(options_.trace, "diff", eval_span_);
    XARCH_ASSIGN_OR_RETURN(
        std::vector<core::Change> changes,
        store_.DiffVersions(ast.temporal.from, ast.temporal.to));
    XARCH_RETURN_NOT_OK(
        EmitFilteredChanges(changes, ast.steps, sink_, &result_));
    span.Note("changes", result_.matches);
    return Status::OK();
  }

  StorePrimitives& store_;
  Sink& sink_;
  EvalResult& result_;
  const EvalOptions& options_;
  obs::Trace::SpanId eval_span_ = obs::Trace::kNoSpan;
};

}  // namespace

Status Evaluate(const Plan& plan, const core::Archive& archive,
                const index::ArchiveIndex* index, Sink& sink,
                EvalResult* result, const EvalOptions& options) {
  return EvaluateView(plan, core::HeapArchiveView(&archive), index, sink,
                      result, options);
}

Status EvaluateView(const Plan& plan, const core::ArchiveView& view,
                    const index::ArchiveIndex* index, Sink& sink,
                    EvalResult* result, const EvalOptions& options) {
  EvalResult local;
  EvalResult& r = result != nullptr ? *result : local;
  r.mapped = view.mapped();
  ArchiveEvaluator evaluator(view, index, sink, r, options);
  const uint64_t start_us = obs::MonotonicMicros();
  Status status = evaluator.Run(plan);
  RecordQueryMetrics(plan.access, r, obs::MonotonicMicros() - start_us);
  return status;
}

Status EvaluateOverStore(const Plan& plan, StorePrimitives& store, Sink& sink,
                         EvalResult* result, const EvalOptions& options) {
  EvalResult local;
  EvalResult& r = result != nullptr ? *result : local;
  StoreEvaluator evaluator(store, sink, r, options);
  const uint64_t start_us = obs::MonotonicMicros();
  Status status = evaluator.Run(plan);
  RecordQueryMetrics(plan.access, r, obs::MonotonicMicros() - start_us);
  return status;
}

}  // namespace xarch::query
