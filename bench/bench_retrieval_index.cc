// E11 — Sec. 7.1: version retrieval, full scan vs timestamp trees.
// Builds a long accretive history, then retrieves versions of different
// ages through the XAQL evaluator (`/ROOT @ version v`), once pruned by
// the index and once as a full scan. For an old (small) version the
// timestamp trees prune most of the archive: probes track
// 2α-1+2α·log(k/α) rather than the full child count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.h"
#include "index/archive_index.h"
#include "json_report.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "synth/omim.h"

namespace {

/// Runs `fn`, appending its wall time in microseconds to `*samples`.
template <typename Fn>
xarch::Status Timed(std::vector<double>* samples, Fn fn) {
  const auto start = std::chrono::steady_clock::now();
  xarch::Status status = fn();
  samples->push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  return status;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xarch;
  bench::JsonReport report("bench_retrieval_index");
  constexpr int kVersions = 40;
  synth::OmimGenerator::Options gen_options;
  gen_options.initial_records = 40;
  gen_options.insert_ratio = 0.08;  // strongly accretive: late versions big
  gen_options.delete_ratio = 0.0;
  synth::OmimGenerator gen(gen_options);
  auto spec = keys::ParseKeySpecSet(synth::OmimGenerator::KeySpecText());
  core::Archive archive(std::move(*spec));
  for (int v = 0; v < kVersions; ++v) {
    Status st = archive.AddVersion(*gen.NextVersion());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  index::ArchiveIndex idx(archive);
  std::printf("# E11 — retrieval: scan vs timestamp trees (%d accretive "
              "versions, %zu archive nodes, index %zu tree nodes)\n",
              kVersions, archive.CountNodes(), idx.TreeNodeCount());
  size_t full_scan_nodes = archive.CountNodes();
  std::printf("%-8s %14s %18s %14s %14s\n", "version", "tree probes",
              "full scan (nodes)", "scan us", "indexed us");
  const unsigned hardware = std::thread::hardware_concurrency();
  for (Version v : {1u, 10u, 20u, 30u, 40u}) {
    auto ast = query::Parse("/ROOT @ version " + std::to_string(v));
    if (!ast.ok()) {
      std::fprintf(stderr, "%s\n", ast.status().ToString().c_str());
      return 1;
    }
    const query::Plan indexed_plan =
        query::MakePlan(*ast, query::Access::kArchiveIndexed);
    const query::Plan scan_plan =
        query::MakePlan(std::move(*ast), query::Access::kArchiveScan);
    // Each side runs kRepeats times, alternating which goes first, and
    // reports its median: one timed pass swings with cache state and with
    // other load on the machine by more than the index saves.
    constexpr int kRepeats = 9;
    std::vector<double> indexed_runs, scan_runs;
    query::EvalResult result;
    for (int r = 0; r < kRepeats; ++r) {
      StringSink indexed, scanned;
      query::EvalResult run_result;
      Status indexed_status, scan_status;
      auto run_indexed = [&] {
        indexed_status = Timed(&indexed_runs, [&] {
          return query::Evaluate(indexed_plan, archive, &idx, indexed,
                                 &run_result);
        });
      };
      auto run_scan = [&] {
        scan_status = Timed(&scan_runs, [&] {
          return query::Evaluate(scan_plan, archive, nullptr, scanned,
                                 nullptr);
        });
      };
      if (r % 2 == 0) {
        run_indexed();
        run_scan();
      } else {
        run_scan();
        run_indexed();
      }
      if (!indexed_status.ok() || !scan_status.ok() ||
          indexed.data() != scanned.data()) {
        std::fprintf(stderr, "retrieval failed or differs at version %u\n",
                     v);
        return 1;
      }
      result = run_result;
    }
    const double indexed_us = Median(indexed_runs);
    const double scan_us = Median(scan_runs);
    std::printf("%-8u %14zu %18zu %14.1f %14.1f\n", v,
                result.probes.tree_probes, full_scan_nodes, scan_us,
                indexed_us);
    report.BeginRow();
    report.Add("version", v);
    report.Add("tree_probes", result.probes.tree_probes);
    report.Add("full_scan_nodes", full_scan_nodes);
    report.Add("scan_us", scan_us);
    report.Add("indexed_us", indexed_us);
    report.Add("hardware_concurrency", hardware);
  }
  std::printf("\nexpected shape: retrieving an early (small) version probes "
              "far fewer tree nodes than the full scan touches; the "
              "advantage shrinks as α approaches k for recent versions "
              "(Sec. 7.1).\n");
  return report.Write(bench::JsonPathFromArgs(argc, argv)) ? 0 : 1;
}
