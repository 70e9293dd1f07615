#include <gtest/gtest.h>

#include <cmath>

#include "core/archive.h"
#include "core/flat_archive.h"
#include "index/archive_index.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "synth/omim.h"
#include "synth/xmark.h"
#include "timestamp_tree.h"
#include "util/random.h"
#include "xml/parser.h"
#include "xml/value.h"

namespace xarch::index {
namespace {

using bench::TimestampTree;

// ---------------------------------------------------------- TimestampTree

TEST(TimestampTreeTest, EmptyTree) {
  TimestampTree tree = TimestampTree::Build({});
  size_t probes = 0;
  EXPECT_TRUE(tree.Lookup(1, &probes).empty());
  EXPECT_EQ(probes, 0u);
}

TEST(TimestampTreeTest, PaperFigure15) {
  // The archive of Fig. 15: children l1..l8 with the given timestamps.
  std::vector<VersionSet> stamps = {
      *VersionSet::Parse("1-2"),     *VersionSet::Parse("1-2"),
      *VersionSet::Parse("3-5"),     *VersionSet::Parse("4"),
      *VersionSet::Parse("3-5"),     *VersionSet::Parse("3-5"),
      *VersionSet::Parse("4-6"),     *VersionSet::Parse("3-5,7-9")};
  TimestampTree tree = TimestampTree::Build(stamps);
  size_t probes = 0;
  // Version 2: only l1 and l2 (the highlighted search of Fig. 15).
  auto hits = tree.Lookup(2, &probes);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
  // The right half (3-9) is pruned at its root: far fewer than 2k probes.
  EXPECT_LT(probes, 2 * stamps.size());
  // Version 7: only l8.
  hits = tree.Lookup(7, &probes);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  // Version 10: nothing; one root probe suffices.
  hits = tree.Lookup(10, &probes);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(probes, 1u);
}

TEST(TimestampTreeTest, LookupMatchesLinearScan) {
  Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    size_t k = rng.Uniform(1, 40);
    std::vector<VersionSet> stamps(k);
    for (auto& s : stamps) {
      size_t n = rng.Uniform(1, 4);
      for (size_t i = 0; i < n; ++i) {
        Version lo = static_cast<Version>(rng.Uniform(1, 20));
        Version hi = lo + static_cast<Version>(rng.Uniform(0, 5));
        s.UnionWith(VersionSet::Interval(lo, hi));
      }
    }
    TimestampTree tree = TimestampTree::Build(stamps);
    for (Version v = 1; v <= 26; ++v) {
      std::vector<size_t> expected;
      for (size_t i = 0; i < k; ++i) {
        if (stamps[i].Contains(v)) expected.push_back(i);
      }
      size_t probes = 0;
      EXPECT_EQ(tree.Lookup(v, &probes), expected);
      EXPECT_LE(probes, 2 * k + k);  // budget + fallback scan at worst
    }
  }
}

TEST(TimestampTreeTest, ProbeBoundForSparseVersions) {
  // k children, only α=1 relevant: probes ≤ 2α-1+2α·log2(k/α) + slack.
  const size_t k = 256;
  std::vector<VersionSet> stamps;
  for (size_t i = 0; i < k; ++i) {
    stamps.push_back(VersionSet::Single(static_cast<Version>(i + 1)));
  }
  TimestampTree tree = TimestampTree::Build(stamps);
  size_t probes = 0;
  auto hits = tree.Lookup(17, &probes);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 16u);
  double bound = 2 * 1 - 1 + 2 * 1 * std::log2(static_cast<double>(k));
  EXPECT_LE(probes, static_cast<size_t>(bound) + 2);
}

TEST(TimestampTreeTest, DenseVersionFallsBackNearLinear) {
  // All children relevant: probing every tree node would cost ~2k; the
  // 2k budget caps it and the answer stays correct.
  const size_t k = 64;
  std::vector<VersionSet> stamps(k, VersionSet::Interval(1, 10));
  TimestampTree tree = TimestampTree::Build(stamps);
  size_t probes = 0;
  auto hits = tree.Lookup(5, &probes);
  EXPECT_EQ(hits.size(), k);
  EXPECT_LE(probes, 3 * k);
}

TEST(TimestampTreeTest, SingleLeafTree) {
  // k=1: the tree is one leaf; a lookup probes exactly it.
  TimestampTree tree = TimestampTree::Build({*VersionSet::Parse("2-4")});
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.node_count(), 1u);
  size_t probes = 0;
  auto hits = tree.Lookup(3, &probes);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(probes, 1u);
  hits = tree.Lookup(5, &probes);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(probes, 1u);
}

TEST(TimestampTreeTest, AllChildrenRelevantStaysWithinPaperBound) {
  // α = k: every node of the tree contains v, so the search pays the
  // dense side of the paper's bound, min(2α−1+2α·log(k/α), 2k) = 2k−1 —
  // which is also the entire tree, so the 2k budget is never exhausted.
  for (size_t k : {1u, 2u, 7u, 64u}) {
    std::vector<VersionSet> stamps(k, VersionSet::Interval(1, 10));
    TimestampTree tree = TimestampTree::Build(stamps);
    size_t probes = 0;
    auto hits = tree.Lookup(5, &probes);
    EXPECT_EQ(hits.size(), k);
    EXPECT_EQ(probes, 2 * k - 1) << "k=" << k;
    EXPECT_EQ(tree.node_count(), 2 * k - 1) << "k=" << k;
  }
}

TEST(TimestampTreeTest, ProbeBudgetFallbackScansLeavesCorrectly) {
  // The default budget of 2k can never be exhausted (the whole tree has
  // 2k−1 nodes), so the fallback is driven through the explicit-budget
  // overload: a starved search must abandon the descent, scan the k
  // leaves, and return the identical answer.
  const size_t k = 32;
  std::vector<VersionSet> stamps;
  for (size_t i = 0; i < k; ++i) {
    stamps.push_back(VersionSet::Interval(1, 10));
  }
  TimestampTree tree = TimestampTree::Build(stamps);
  size_t probes = 0;
  auto full = tree.Lookup(5, &probes);
  ASSERT_EQ(full.size(), k);
  for (size_t budget : {size_t{1}, size_t{5}, k}) {
    size_t starved_probes = 0;
    auto starved = tree.Lookup(5, &starved_probes, budget);
    EXPECT_EQ(starved, full) << "budget " << budget;
    // Cost: the budgeted descent (exceeded by at most the leaves popped
    // before the next internal node checks the budget) plus the k-leaf
    // scan.
    EXPECT_LE(starved_probes, budget + 2 * k) << "budget " << budget;
    EXPECT_GE(starved_probes, k) << "budget " << budget;
  }
}

TEST(TimestampTreeTest, LookupRespectsPaperProbeBound) {
  // Random trees: every lookup must respect the Sec. 7.1 bound
  // min(2α−1+2α·log2(k/α), 2k) (with ceil(log2) for the unbalanced last
  // level of the paired construction), and the α=0 root short-circuit.
  Rng rng(1347);
  for (int trial = 0; trial < 40; ++trial) {
    size_t k = rng.Uniform(1, 200);
    std::vector<VersionSet> stamps(k);
    for (auto& s : stamps) {
      Version lo = static_cast<Version>(rng.Uniform(1, 30));
      Version hi = lo + static_cast<Version>(rng.Uniform(0, 8));
      s = VersionSet::Interval(lo, hi);
    }
    TimestampTree tree = TimestampTree::Build(stamps);
    for (Version v = 1; v <= 39; ++v) {
      size_t probes = 0;
      auto hits = tree.Lookup(v, &probes);
      const double a = static_cast<double>(hits.size());
      if (a == 0) {
        // Nothing relevant: pruned high up, never worse than the tree.
        EXPECT_LE(probes, 2 * k - 1);
        continue;
      }
      const double sparse_bound =
          2 * a - 1 + 2 * a * std::ceil(std::log2(static_cast<double>(k) / a));
      const double bound = std::min(sparse_bound,
                                    static_cast<double>(2 * k));
      EXPECT_LE(static_cast<double>(probes), bound)
          << "k=" << k << " alpha=" << a << " v=" << v;
    }
  }
}

TEST(TimestampTreeTest, NodeCountLinearInLeaves) {
  std::vector<VersionSet> stamps(100, VersionSet::Single(1));
  TimestampTree tree = TimestampTree::Build(stamps);
  EXPECT_EQ(tree.leaf_count(), 100u);
  EXPECT_LT(tree.node_count(), 200u);
}

// ----------------------------------------------------------- ArchiveIndex

constexpr const char* kCompanyKeys = R"(
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
)";

keys::KeySpecSet MustSpec(const char* text) {
  auto spec = keys::ParseKeySpecSet(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

core::Archive MakeOmimArchive(int versions) {
  synth::OmimGenerator::Options options;
  options.initial_records = 60;
  options.insert_ratio = 0.05;
  options.delete_ratio = 0.02;
  options.modify_ratio = 0.02;
  synth::OmimGenerator gen(options);
  core::Archive archive(MustSpec(synth::OmimGenerator::KeySpecText()));
  for (int v = 0; v < versions; ++v) {
    Status st = archive.AddVersion(*gen.NextVersion());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return archive;
}

/// The history walk of an indexed archive store: one sorted-child search
/// per step.
StatusOr<VersionSet> IndexedHistory(const core::Archive& archive,
                                    const ArchiveIndex& index,
                                    const std::vector<core::KeyStep>& path,
                                    ProbeStats* stats) {
  return core::HistoryOverView(
      core::HeapArchiveView(&archive), path,
      [&](core::ArchiveView::NodeId parent, const core::KeyStep& step) {
        return index.FindChild(parent, step, stats);
      });
}

/// `query` through the evaluator over the heap archive, indexed by
/// `index` (or scanning when null).
Status RunQuery(const core::Archive& archive, const ArchiveIndex* index,
                const std::string& query, std::string* out,
                query::EvalResult* result) {
  XARCH_ASSIGN_OR_RETURN(query::Query ast, query::Parse(query));
  const query::Plan plan = query::MakePlan(
      std::move(ast), index != nullptr ? query::Access::kArchiveIndexed
                                       : query::Access::kArchiveScan);
  StringSink sink;
  Status status = query::Evaluate(plan, archive, index, sink, result);
  *out = sink.data();
  return status;
}

// Indexed retrieval runs the evaluator's stamp-checking scan: `@ version v`
// over the whole document reconstructs exactly what the archive's own
// retrieval does, byte for byte with the unindexed plan.
TEST(ArchiveIndexTest, RetrieveMatchesScan) {
  core::Archive archive = MakeOmimArchive(8);
  ArchiveIndex index(archive);
  for (Version v = 1; v <= 8; ++v) {
    const std::string q = "/ROOT @ version " + std::to_string(v);
    std::string indexed, scanned;
    query::EvalResult with_index, full;
    ASSERT_TRUE(RunQuery(archive, &index, q, &indexed, &with_index).ok())
        << q;
    ASSERT_TRUE(RunQuery(archive, nullptr, q, &scanned, &full).ok()) << q;
    EXPECT_EQ(indexed, scanned) << q;
    auto reference = archive.RetrieveVersion(v);
    ASSERT_TRUE(reference.ok());
    auto parsed = xml::Parse(indexed);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(xml::ValueEqual(**parsed, **reference)) << "version " << v;
    EXPECT_GT(with_index.probes.naive_probes, 0u);
    EXPECT_EQ(with_index.probes.naive_probes, full.probes.naive_probes);
  }
}

TEST(ArchiveIndexTest, EarlyVersionsSkipInactiveSubtrees) {
  // After many accretive versions, version 1 touches a fraction of the
  // archive: the scan checks each child's stamp and never enters the
  // subtree of a child inactive at v.
  core::Archive archive = MakeOmimArchive(12);
  ArchiveIndex index(archive);
  std::string out;
  query::EvalResult result;
  ASSERT_TRUE(RunQuery(archive, &index, "/ROOT @ version 1", &out, &result)
                  .ok());
  // naive probes counts every child of every *visited* node.
  EXPECT_GT(result.probes.naive_probes, 0u);
  EXPECT_LT(result.probes.naive_probes, archive.CountNodes());
}

TEST(ArchiveIndexTest, HistoryMatchesArchiveHistory) {
  core::Archive archive = MakeOmimArchive(6);
  ArchiveIndex index(archive);
  // Probe a record that exists from version 1.
  auto v1 = archive.RetrieveVersion(1);
  ASSERT_TRUE(v1.ok());
  const xml::Node* record = (*v1)->FindChild("Record");
  ASSERT_NE(record, nullptr);
  std::string num = record->FindChild("Num")->TextContent();
  std::vector<core::KeyStep> path = {{"ROOT", {}},
                                     {"Record", {{"Num", num}}}};
  ProbeStats stats;
  auto indexed = IndexedHistory(archive, index, path, &stats);
  auto scanned = archive.History(path);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(indexed->ToString(), scanned->ToString());
  EXPECT_GT(stats.comparisons, 0u);
  // O(l log d): comparisons far below the total number of records.
  EXPECT_LT(stats.comparisons, 60u);
}

TEST(ArchiveIndexTest, HistoryMissingElement) {
  core::Archive archive = MakeOmimArchive(3);
  ArchiveIndex index(archive);
  ProbeStats stats;
  auto got = IndexedHistory(archive, index,
                            {{"ROOT", {}}, {"Record", {{"Num", "nope"}}}},
                            &stats);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(ArchiveIndexTest, EmptyVersionRetrievesNull) {
  auto spec = MustSpec(kCompanyKeys);
  core::Archive archive(std::move(spec));
  auto doc = xml::Parse("<db><dept><name>x</name></dept></db>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(archive.AddVersion(**doc).ok());
  archive.AddEmptyVersion();
  ArchiveIndex index(archive);
  std::string out;
  query::EvalResult result;
  Status empty = RunQuery(archive, &index, "/db @ version 2", &out, &result);
  EXPECT_EQ(empty.code(), StatusCode::kNotFound) << empty.ToString();
  EXPECT_EQ(out, "");
  ASSERT_TRUE(RunQuery(archive, &index, "/db @ version 1", &out, &result)
                  .ok());
  EXPECT_NE(out.find("<dept>"), std::string::npos) << out;
}

// ------------------------------------------------ heap pages are pages

/// Saves `archive`'s heap-built index the way a snapshot does, attaches
/// the pages to the encoded flat records as a mapped store would, and
/// checks that both indexes answer `queries` with the same bytes and
/// probe counts.
void ExpectHeapPagesAttach(const core::Archive& archive,
                           const std::vector<std::string>& queries) {
  const ArchiveIndex heap(archive);
  const std::string pages = heap.EncodePages();
  const core::FlatSections s = core::EncodeFlatArchive(archive);
  auto flat = core::FlatArchive::Attach({s.meta, s.strings, s.stamps, s.nodes,
                                         s.parts, s.attrs, s.buckets,
                                         s.content});
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  auto mapped = ArchiveIndex::Attach(&*flat, pages);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const core::FlatArchiveView view(&*flat);
  for (const std::string& q : queries) {
    auto ast = query::Parse(q);
    ASSERT_TRUE(ast.ok()) << q;
    const query::Plan plan =
        query::MakePlan(std::move(ast).value(), query::Access::kArchiveIndexed);
    StringSink a, b;
    query::EvalResult ra, rb;
    Status sa = query::Evaluate(plan, archive, &heap, a, &ra);
    Status sb = query::EvaluateView(plan, view, &*mapped, b, &rb);
    ASSERT_TRUE(sa.ok()) << q << ": " << sa.ToString();
    EXPECT_EQ(sa.ToString(), sb.ToString()) << q;
    EXPECT_EQ(a.data(), b.data()) << q;
    EXPECT_EQ(ra.probes.naive_probes, rb.probes.naive_probes) << q;
    EXPECT_EQ(ra.probes.comparisons, rb.probes.comparisons) << q;
  }
}

TEST(HeapIndexPagesTest, SynthXMarkPagesAttach) {
  synth::XMarkGenerator::Options options;
  options.items = 5;
  options.people = 24;
  options.open_auctions = 20;
  options.seed = 1;
  synth::XMarkGenerator generator(options);
  core::Archive archive(MustSpec(synth::XMarkGenerator::KeySpecText()));
  for (int v = 0; v < 32; ++v) {
    ASSERT_TRUE(archive.AddVersion(*generator.Current()).ok());
    generator.MutateRandom(10.0);
  }
  ExpectHeapPagesAttach(archive, {
      "/site @ version 1",
      "/site @ version 32",
      "/site/people/person[*] @ versions 5..9",
      "/site/people/person[@id=\"person3\"] history",
      "/site/regions/europe/item[*] history",
  });
}

TEST(HeapIndexPagesTest, OmimPagesAttach) {
  core::Archive archive = MakeOmimArchive(12);
  auto v1 = archive.RetrieveVersion(1);
  ASSERT_TRUE(v1.ok());
  const std::string num =
      (*v1)->FindChild("Record")->FindChild("Num")->TextContent();
  ExpectHeapPagesAttach(archive, {
      "/ROOT @ version 1",
      "/ROOT @ version 12",
      "/ROOT/Record[Num=\"" + num + "\"] @ versions 1..12",
      "/ROOT/Record[*] history",
  });
}

}  // namespace
}  // namespace xarch::index
