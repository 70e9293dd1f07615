// E11 — Sec. 7.1: version retrieval, stamp-checking scan vs timestamp
// trees. Builds a long accretive history, then retrieves versions of
// different ages through the XAQL evaluator (`/ROOT @ version v`), which
// checks each child's timestamp at every visited node (`naive_probes`).
// Beside it, the same retrieval walked through a Sec. 7.1 timestamp tree
// per inner node (bench/timestamp_tree.h) counts the tree nodes the
// paper's search would probe (`tree_probes`): for an old (small) version
// they track 2α-1+2α·log(k/α) rather than the full child count. The trees
// are not on the query path; this bench keeps their counts reproduced.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/archive.h"
#include "index/archive_index.h"
#include "json_report.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "synth/omim.h"
#include "timestamp_tree.h"

namespace {

using xarch::Version;
using xarch::bench::TimestampTree;
using xarch::core::ArchiveNode;

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

/// One Sec. 7.1 tree per inner node, over its children's timestamps. An
/// inheriting child gets its parent's own stamp (the root's when the
/// parent inherits too): a child is only looked up below an active parent,
/// so that stamp answers the same as the child's effective one.
class TreeIndex {
 public:
  explicit TreeIndex(const xarch::core::Archive& archive) {
    const xarch::VersionSet& root_stamp = *archive.root().stamp;
    std::vector<const ArchiveNode*> pending = {&archive.root()};
    while (!pending.empty()) {
      const ArchiveNode& node = *pending.back();
      pending.pop_back();
      if (node.is_frontier) continue;
      const xarch::VersionSet& node_eff =
          node.stamp ? *node.stamp : root_stamp;
      std::vector<xarch::VersionSet> stamps;
      stamps.reserve(node.children.size());
      for (const auto& child : node.children) {
        stamps.push_back(child->EffectiveStamp(node_eff));
        pending.push_back(child.get());
      }
      const TimestampTree& tree =
          trees_.emplace(&node, TimestampTree::Build(std::move(stamps)))
              .first->second;
      record_count_ += tree.node_count();
    }
  }

  /// The trees' size in the old index-page layout: a 12-byte header per
  /// inner node and a 20-byte record per tree node.
  size_t Bytes() const { return 12 * trees_.size() + 20 * record_count_; }

  /// Walks the version-v subtree under `node` (active at v) through the
  /// trees, as the pruned scan did: returns the tree nodes probed, and adds
  /// the child counts of the visited inner nodes to `*children`.
  size_t Probe(const ArchiveNode& node, Version v, size_t* children) const {
    if (node.is_frontier) return 0;
    *children += node.children.size();
    const TimestampTree& tree = trees_.at(&node);
    size_t probes = 0;
    std::vector<size_t> hits;
    tree.Lookup(v, &probes, 2 * tree.leaf_count(), &hits);
    for (size_t i : hits) probes += Probe(*node.children[i], v, children);
    return probes;
  }

 private:
  std::unordered_map<const ArchiveNode*, TimestampTree> trees_;
  size_t record_count_ = 0;
};

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
  const TreeIndex trees(archive);
  std::printf("# E11 — retrieval: stamp-checking scan vs timestamp trees (%d "
              "accretive versions, %zu archive nodes; index pages %zu B, "
              "the trees would add %zu B)\n",
              kVersions, archive.CountNodes(),
              index::ArchiveIndex(archive).EncodePages().size(),
              trees.Bytes());
  std::printf("%-8s %14s %14s %14s\n", "version", "tree probes",
              "naive probes", "scan us");
  const unsigned hardware = std::thread::hardware_concurrency();
  const ArchiveNode* top = archive.root().children.front().get();
  for (Version v : {1u, 10u, 20u, 30u, 40u}) {
    auto ast = query::Parse("/ROOT @ version " + std::to_string(v));
    if (!ast.ok()) {
      std::fprintf(stderr, "%s\n", ast.status().ToString().c_str());
      return 1;
    }
    const query::Plan plan =
        query::MakePlan(std::move(*ast), query::Access::kArchiveScan);
    // kRepeats timed runs, reporting the median: one timed pass swings
    // with cache state and with other load on the machine.
    constexpr int kRepeats = 9;
    std::vector<double> scan_runs;
    query::EvalResult result;
    for (int r = 0; r < kRepeats; ++r) {
      CountingSink scanned;
      result = query::EvalResult();
      Status status = Timed(&scan_runs, [&] {
        return query::Evaluate(plan, archive, nullptr, scanned, &result);
      });
      if (!status.ok()) {
        std::fprintf(stderr, "retrieval failed at version %u: %s\n", v,
                     status.ToString().c_str());
        return 1;
      }
    }
    // The tree walk must visit exactly the nodes the scan visits: the same
    // children inspected, past the `/ROOT` step's own child scan.
    size_t children = archive.root().children.size();
    const size_t tree_probes = trees.Probe(*top, v, &children);
    if (children != result.probes.naive_probes) {
      std::fprintf(stderr,
                   "tree walk and scan disagree at version %u: %zu vs %zu "
                   "children\n",
                   v, children, result.probes.naive_probes);
      return 1;
    }
    const double scan_us = Median(scan_runs);
    std::printf("%-8u %14zu %14zu %14.1f\n", v, tree_probes,
                result.probes.naive_probes, scan_us);
    report.BeginRow();
    report.Add("version", v);
    report.Add("tree_probes", tree_probes);
    report.Add("naive_probes", result.probes.naive_probes);
    report.Add("scan_us", scan_us);
    report.Add("hardware_concurrency", hardware);
  }
  std::printf("\nexpected shape: tree probes grow with the version's size, "
              "far below the archive's node count for early versions "
              "(Sec. 7.1); the scan checks fewer children still, since it "
              "never enters the subtree of a child inactive at v.\n");
  return report.Write(bench::JsonPathFromArgs(argc, argv)) ? 0 : 1;
}
