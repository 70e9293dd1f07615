#ifndef XARCH_QUERY_EXPLAIN_H_
#define XARCH_QUERY_EXPLAIN_H_

#include "query/evaluator.h"

namespace xarch::query {

/// \brief EXPLAIN mode: runs the plan with its results discarded (counted,
/// not streamed) and streams a report instead — the compiled operators
/// plus the evaluation counters. Because ProbeStats counts the indexed
/// probes and the hypothetical full-scan probes in the same pass, one run
/// reports indexed vs naive cost side by side.

/// EXPLAIN over the archive plans, on any ArchiveView; the report's access
/// line carries `mapped=true` when the view navigates mapped bytes.
Status ExplainView(const Plan& plan, const core::ArchiveView& view,
                   const index::ArchiveIndex* index, Sink& sink,
                   EvalResult* result, const EvalOptions& options = {});

/// EXPLAIN over the generic store plan.
Status ExplainOverStore(const Plan& plan, StorePrimitives& store, Sink& sink,
                        EvalResult* result, const EvalOptions& options = {});

/// The report text itself (shared by both entry points; exposed for
/// tests). `eval_status` is the outcome of the discarded evaluation run.
/// With a non-null `trace` (EXPLAIN ANALYZE: the trace the evaluation ran
/// under), the rendered span tree follows the stats block.
std::string FormatExplain(const Plan& plan, const EvalResult& result,
                          const Status& eval_status,
                          const obs::Trace* trace = nullptr);

}  // namespace xarch::query

#endif  // XARCH_QUERY_EXPLAIN_H_
