#include "query/explain.h"

namespace xarch::query {

namespace {

Status StreamReport(const Plan& plan, const EvalResult& result,
                    const Status& eval_status, const obs::Trace* trace,
                    Sink& sink) {
  XARCH_RETURN_NOT_OK(
      sink.Append(FormatExplain(plan, result, eval_status, trace)));
  return sink.Flush();
}

}  // namespace

std::string FormatExplain(const Plan& plan, const EvalResult& result,
                          const Status& eval_status, const obs::Trace* trace) {
  Query canonical = plan.ast;
  canonical.explain = false;
  canonical.analyze = false;
  std::string out = "XAQL EXPLAIN\n";
  out += "query:  " + canonical.ToString() + "\n";
  out += "access: " + std::string(AccessName(plan.access));
  if (result.mapped) out += " (mapped=true)";
  out += "\n";
  out += "plan:\n";
  for (size_t i = 0; i < plan.ast.steps.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". /" + plan.ast.steps[i].ToString();
    if (i < plan.step_notes.size()) out += " — " + plan.step_notes[i];
    out += '\n';
  }
  out += "  exec: " + plan.ast.temporal.ToString() + " — " + plan.exec_note +
         "\n";
  out += "stats:\n";
  out += "  matches:          " + std::to_string(result.matches) + "\n";
  out += "  bytes streamed:   " + std::to_string(result.bytes_streamed) + "\n";
  out += "  naive probes:     " + std::to_string(result.probes.naive_probes) +
         "\n";
  out += "  key comparisons:  " + std::to_string(result.probes.comparisons) +
         "\n";
  if (result.versions_scanned > 0) {
    out += "  versions scanned: " + std::to_string(result.versions_scanned) +
           "\n";
  }
  if (!result.shards.empty()) {
    out += "shards:\n";
    for (const EvalResult::ShardProbe& probe : result.shards) {
      out += "  shard " + std::to_string(probe.shard) +
             ": probes=" + std::to_string(probe.probes) + "\n";
    }
  }
  if (!eval_status.ok()) {
    out += "result: " + eval_status.ToString() + "\n";
  }
  if (trace != nullptr && trace->span_count() > 0) {
    out += trace->Render();
  }
  return out;
}

Status ExplainView(const Plan& plan, const core::ArchiveView& view,
                   const index::ArchiveIndex* index, Sink& sink,
                   EvalResult* result, const EvalOptions& options) {
  EvalResult local;
  EvalResult& r = result != nullptr ? *result : local;
  CountingSink discard;
  Status eval_status = EvaluateView(plan, view, index, discard, &r, options);
  return StreamReport(plan, r, eval_status, options.trace, sink);
}

Status ExplainOverStore(const Plan& plan, StorePrimitives& store, Sink& sink,
                        EvalResult* result, const EvalOptions& options) {
  EvalResult local;
  EvalResult& r = result != nullptr ? *result : local;
  CountingSink discard;
  Status eval_status = EvaluateOverStore(plan, store, discard, &r, options);
  return StreamReport(plan, r, eval_status, options.trace, sink);
}

}  // namespace xarch::query
