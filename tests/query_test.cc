// XAQL: parser round-trips, streaming evaluation over the archive plans,
// the generic fallback plan on every backend, EXPLAIN, probe accounting
// (indexed strictly cheaper than naive on XMark), and the stale-index
// regression.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/archive.h"
#include "core/changes.h"
#include "query/ast.h"
#include "query/parser.h"
#include "synth/xmark.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/value.h"

namespace xarch {
namespace {

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

keys::KeySpecSet MustSpec(const char* text = kKeys) {
  auto spec = keys::ParseKeySpecSet(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

StoreOptions OptionsWithSpec(bool use_index = false) {
  StoreOptions options;
  options.spec = MustSpec();
  options.checkpoint_every = 2;
  options.use_index = use_index;
  return options;
}

/// The store-canonical form of a version (keyed siblings in fingerprint
/// order, default pretty serialization), so retrieval round-trips
/// byte-for-byte on every backend.
std::string Canonical(const std::string& text) {
  core::Archive archive(MustSpec());
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(archive.AddVersion(**doc).ok());
  auto back = archive.RetrieveVersion(1);
  EXPECT_TRUE(back.ok());
  return xml::Serialize(**back);
}

std::string Entry(int id, const std::string& note) {
  return "<entry><id>" + std::to_string(id) + "</id><note>" + note +
         "</note></entry>";
}

/// Three deterministic versions: entry 2 disappears in v2 and returns in
/// v3, entry 1's note changes in v2, entry 3 appears in v2.
std::vector<std::string> FixtureVersions() {
  return {
      Canonical("<db>" + Entry(1, "alpha") + Entry(2, "beta") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(3, "gamma") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(2, "beta") +
                Entry(3, "gamma") + "</db>"),
  };
}

std::unique_ptr<Store> MakeStore(const std::string& backend,
                                 bool use_index = false) {
  auto store = StoreRegistry::Create(backend, OptionsWithSpec(use_index));
  EXPECT_TRUE(store.ok()) << backend << ": " << store.status().ToString();
  std::unique_ptr<Store> out = std::move(store).value();
  for (const std::string& text : FixtureVersions()) {
    EXPECT_TRUE(out->Append(text).ok()) << backend;
  }
  return out;
}

StatusOr<std::string> RunQuery(Store& store, const std::string& q) {
  StringSink sink;
  XARCH_RETURN_NOT_OK(store.Query(q, sink));
  return std::move(sink).Take();
}

// ------------------------------------------------------------- parsing

TEST(XaqlParserTest, RoundTripsCanonicalText) {
  const std::vector<std::string> queries = {
      "/db @ version 17",
      "/db/entry[id=\"2\"] @ version 3",
      "/db/entry[*] @ versions 3..9",
      "/site/people/person[id=\"person0\"]/name history",
      "/db/dept[name=\"finance\"]/emp[fn=\"John\", ln=\"Doe\"] history",
      "/db diff 3 9",
      "explain /db/entry[id=\"2\"] @ version 1",
      "/a/b[.=\"x\"] history",
      "/a/b[@id=\"i\"] @ version 1",
      "/a/b[Date/Month=\"Jan\"] @ version 2",
      "/a/b[k=\"quo\\\"te\\\\\"] @ version 1",
  };
  for (const std::string& q : queries) {
    auto ast = query::Parse(q);
    ASSERT_TRUE(ast.ok()) << q << ": " << ast.status().ToString();
    const std::string canonical = ast->ToString();
    auto again = query::Parse(canonical);
    ASSERT_TRUE(again.ok()) << canonical << ": "
                            << again.status().ToString();
    EXPECT_TRUE(*ast == *again) << q;
    EXPECT_EQ(canonical, again->ToString()) << q;
  }
}

TEST(XaqlParserTest, AcceptsFlexibleWhitespace) {
  auto a = query::Parse("/db/entry[ id = \"2\" ]   @   version   3");
  auto b = query::Parse("/db/entry[id=\"2\"] @ version 3");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST(XaqlParserTest, RejectsMalformedQueries) {
  const std::vector<std::string> bad = {
      "",                                  // no path
      "db @ version 1",                    // missing leading slash
      "/db",                               // missing temporal qualifier
      "/db @ version",                     // missing version number
      "/db @ versions 3",                  // missing range
      "/db @ versions 9..3",               // empty range
      "/db @ epoch 3",                     // unknown qualifier
      "/db/entry[id=2] @ version 1",       // unquoted value
      "/db/entry[id=\"2\" @ version 1",    // missing ]
      "/db/entry[id=\"2] @ version 1",     // unterminated string
      "/db history trailing",              // trailing junk
      "/db diff 1",                        // missing second version
      "/db diff 9 3",                      // reversed bounds (same as range)
      "/db $ version 1",                   // stray character
  };
  for (const std::string& q : bad) {
    auto ast = query::Parse(q);
    EXPECT_FALSE(ast.ok()) << "accepted: " << q;
    if (!ast.ok()) {
      EXPECT_EQ(ast.status().code(), StatusCode::kParseError) << q;
    }
  }
}

TEST(XaqlParserTest, DiffAndRangeValidateBoundsConsistently) {
  // Reversed bounds fail the same way for both temporal forms.
  auto bad_range = query::Parse("/db @ versions 9..3");
  auto bad_diff = query::Parse("/db diff 9 3");
  ASSERT_FALSE(bad_range.ok());
  ASSERT_FALSE(bad_diff.ok());
  EXPECT_EQ(bad_range.status().code(), StatusCode::kParseError);
  EXPECT_EQ(bad_diff.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad_diff.status().ToString().find("out of order"),
            std::string::npos);

  // Equal bounds are legal for both: a one-version range, an empty diff.
  auto same_range = query::Parse("/db @ versions 3..3");
  ASSERT_TRUE(same_range.ok()) << same_range.status().ToString();
  auto same_diff = query::Parse("/db diff 3 3");
  ASSERT_TRUE(same_diff.ok()) << same_diff.status().ToString();
  EXPECT_EQ(same_diff->temporal.from, 3u);
  EXPECT_EQ(same_diff->temporal.to, 3u);

  // An ordinary ordered diff still parses.
  EXPECT_TRUE(query::Parse("/db diff 3 9").ok());
}

TEST(XaqlParserTest, DiffOfAVersionWithItselfIsEmpty) {
  auto store = MakeStore("archive");
  auto out = RunQuery(*store, "/db diff 2 2");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "");
}

// -------------------------------------------------- snapshots (archive)

TEST(XaqlSnapshotTest, WholeDocumentQueryMatchesStreamingRetrieve) {
  auto store = MakeStore("archive");
  for (Version v = 1; v <= 3; ++v) {
    auto got = RunQuery(*store, "/db @ version " + std::to_string(v));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    StringSink reference;
    ASSERT_TRUE(store->RetrieveTo(v, reference).ok());
    EXPECT_EQ(*got, reference.data()) << "v" << v;
  }
}

TEST(XaqlSnapshotTest, StreamsWithoutMaterializingNodes) {
  for (bool use_index : {false, true}) {
    auto store = MakeStore("archive", use_index);
    CountingSink sink;
    // Warm up (the first indexed query builds the index).
    ASSERT_TRUE(store->Query("/db @ version 1", sink).ok());
    const uint64_t created_before = xml::Node::CreatedCount();
    ASSERT_TRUE(store->Query("/db/entry[id=\"2\"] @ version 3", sink).ok());
    ASSERT_TRUE(store->Query("/db @ version 2", sink).ok());
    EXPECT_EQ(xml::Node::CreatedCount(), created_before)
        << "archive-plan queries must not materialize xml::Node objects "
           "(use_index=" << use_index << ")";
  }
}

TEST(XaqlSnapshotTest, KeyedSubtreeMatchesReconstructedSubtree) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"2\"] @ version 1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Reference: the matching subtree of the reconstructed version.
  core::Archive reference(MustSpec());
  for (const std::string& text : FixtureVersions()) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(reference.AddVersion(**doc).ok());
  }
  auto v1 = reference.RetrieveVersion(1);
  ASSERT_TRUE(v1.ok());
  const xml::Node* match = nullptr;
  for (const auto& child : (*v1)->children()) {
    if (child->is_element() && child->tag() == "entry" &&
        child->FindChild("id")->TextContent() == "2") {
      match = child.get();
    }
  }
  ASSERT_NE(match, nullptr);
  std::string expected;
  xml::SerializeAppend(*match, xml::SerializeOptions{}, 0, &expected);
  EXPECT_EQ(*got, expected);
}

TEST(XaqlSnapshotTest, WildcardStreamsEveryActiveSibling) {
  auto store = MakeStore("archive");
  auto all = RunQuery(*store, "/db/entry[*] @ version 3");
  ASSERT_TRUE(all.ok());
  std::string expected;
  for (int id : {1, 2, 3}) {  // archive child order == insertion order here
    auto one = RunQuery(*store, "/db/entry[id=\"" + std::to_string(id) +
                                    "\"] @ version 3");
    ASSERT_TRUE(one.ok());
    expected += *one;
  }
  // The wildcard streams the same subtrees, in archive child order.
  EXPECT_EQ(all->size(), expected.size());
  for (int id : {1, 2, 3}) {
    auto one = RunQuery(*store, "/db/entry[id=\"" + std::to_string(id) +
                                    "\"] @ version 3");
    EXPECT_NE(all->find(*one), std::string::npos) << "id " << id;
  }
}

TEST(XaqlSnapshotTest, MissingElementIsNotFound) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"99\"] @ version 1");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // Element exists in the archive but not at the requested version.
  got = RunQuery(*store, "/db/entry[id=\"2\"] @ version 2");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // Version out of range.
  got = RunQuery(*store, "/db @ version 9");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(XaqlSnapshotTest, DescendingBelowFrontierIsAnError) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"1\"]/note/deeper @ version 1");
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- ranges

TEST(XaqlRangeTest, WrapsEachVersionAndMarksAbsence) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"3\"] @ versions 1..3");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto v2 = RunQuery(*store, "/db/entry[id=\"3\"] @ version 2");
  auto v3 = RunQuery(*store, "/db/entry[id=\"3\"] @ version 3");
  ASSERT_TRUE(v2.ok() && v3.ok());
  std::string expected = "<version n=\"1\"/>\n";
  expected += "<version n=\"2\">\n";
  // Subtrees sit one level deeper inside the wrapper.
  std::string indented2 = "  " + *v2;
  size_t pos = 0;
  while ((pos = indented2.find('\n', pos)) != std::string::npos &&
         pos + 1 < indented2.size()) {
    indented2.insert(pos + 1, "  ");
    pos += 3;
  }
  expected += indented2;
  expected += "</version>\n<version n=\"3\">\n";
  std::string indented3 = "  " + *v3;
  pos = 0;
  while ((pos = indented3.find('\n', pos)) != std::string::npos &&
         pos + 1 < indented3.size()) {
    indented3.insert(pos + 1, "  ");
    pos += 3;
  }
  expected += indented3;
  expected += "</version>\n";
  EXPECT_EQ(*got, expected);
}

TEST(XaqlRangeTest, NeverExistingPathStreamsEmptyWrappers) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"99\"] @ versions 1..2");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "<version n=\"1\"/>\n<version n=\"2\"/>\n");
}

TEST(XaqlRangeTest, OutOfBoundsRangeIsInvalid) {
  auto store = MakeStore("archive");
  EXPECT_EQ(RunQuery(*store, "/db @ versions 0..2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunQuery(*store, "/db @ versions 2..9").status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- history

TEST(XaqlHistoryTest, ReportsTheElementsVersionSet) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[id=\"2\"] history");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "/db/entry{id=2}: 1,3\n");
  got = RunQuery(*store, "/db history");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "/db: 1-3\n");
}

TEST(XaqlHistoryTest, BareStepAddressesOnlyTheUnkeyedElement) {
  // A bare step in `history` has Store::History's exact semantics: it
  // never silently enumerates keyed siblings (that's what [*] is for),
  // so archive and generic plans agree on every backend.
  for (const char* backend : {"archive", "checkpoint-archive"}) {
    auto store = MakeStore(backend);
    auto got = RunQuery(*store, "/db/entry history");
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << backend;
  }
  // The spec-less full scan cannot know keys; an ambiguous bare fan-out
  // fails loudly instead of merging histories.
  auto full_copy = MakeStore("full-copy");
  auto got = RunQuery(*full_copy, "/db/entry history");
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(XaqlHistoryTest, WildcardEmitsOneLinePerElement) {
  auto store = MakeStore("archive");
  auto got = RunQuery(*store, "/db/entry[*] history");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NE(got->find("/db/entry{id=1}: 1-3\n"), std::string::npos);
  EXPECT_NE(got->find("/db/entry{id=2}: 1,3\n"), std::string::npos);
  EXPECT_NE(got->find("/db/entry{id=3}: 2-3\n"), std::string::npos);
}

// -------------------------------------------------------------- diff

TEST(XaqlDiffTest, MatchesDescribeChangesAndFiltersByPath) {
  auto store = MakeStore("archive");
  // Reference change list over the same archive.
  core::Archive reference(MustSpec());
  for (const std::string& text : FixtureVersions()) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(reference.AddVersion(**doc).ok());
  }
  auto changes = core::DescribeChanges(reference, 1, 2);
  ASSERT_TRUE(changes.ok());

  auto whole = RunQuery(*store, "/db diff 1 2");
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, core::FormatChanges(*changes));

  auto entry2 = RunQuery(*store, "/db/entry[id=\"2\"] diff 1 2");
  ASSERT_TRUE(entry2.ok());
  EXPECT_EQ(*entry2, "- /db/entry{id=2}\n");

  // A path that never changed (and never existed) filters to nothing.
  auto none = RunQuery(*store, "/db/entry[id=\"99\"] diff 1 2");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, "");
}

// -------------------------------------------- every backend, one engine

class XaqlBackendTest : public ::testing::TestWithParam<std::string> {};

TEST_P(XaqlBackendTest, AnswersQueriesOrFailsHonestly) {
  const std::string& backend = GetParam();
  auto reference = MakeStore("archive");
  auto store = MakeStore(backend);
  ASSERT_TRUE(store->Has(kQuery)) << backend;

  // Snapshot: byte-identical to the archive plan on canonical input
  // (extmem reorders siblings by plain label; compare values there).
  auto expected = RunQuery(*reference, "/db/entry[id=\"1\"] @ version 2");
  auto got = RunQuery(*store, "/db/entry[id=\"1\"] @ version 2");
  ASSERT_TRUE(got.ok()) << backend << ": " << got.status().ToString();
  if (backend == "extmem") {
    auto a = xml::Parse(*got);
    auto b = xml::Parse(*expected);
    ASSERT_TRUE(a.ok() && b.ok()) << backend;
    EXPECT_TRUE(xml::ValueEqual(**a, **b)) << backend;
  } else {
    EXPECT_EQ(*got, *expected) << backend;
  }

  // Missing elements are NotFound everywhere.
  EXPECT_EQ(
      RunQuery(*store, "/db/entry[id=\"99\"] @ version 1").status().code(),
      StatusCode::kNotFound)
      << backend;

  // History: the native path when temporal queries are advertised, the
  // per-version full scan otherwise — same answer either way.
  auto history = RunQuery(*store, "/db/entry[id=\"2\"] history");
  ASSERT_TRUE(history.ok()) << backend << ": " << history.status().ToString();
  EXPECT_EQ(*history, "/db/entry{id=2}: 1,3\n") << backend;

  // Diff needs key-based change tracking.
  auto diff = RunQuery(*store, "/db diff 1 2");
  if (store->Has(kTemporalQueries)) {
    ASSERT_TRUE(diff.ok()) << backend << ": " << diff.status().ToString();
    EXPECT_EQ(*diff, *RunQuery(*reference, "/db diff 1 2")) << backend;
  } else {
    EXPECT_EQ(diff.status().code(), StatusCode::kUnimplemented) << backend;
  }

  // Counters accumulated.
  EXPECT_GE(store->Stats().queries, 4u) << backend;
}

std::vector<std::string> RegisteredBackends() {
  std::vector<std::string> names;
  for (const auto* entry : StoreRegistry::Global().List()) {
    names.push_back(entry->name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, XaqlBackendTest,
                         ::testing::ValuesIn(RegisteredBackends()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(XaqlCapabilityTest, UnadvertisedQueryIsUnimplemented) {
  class NullStore final : public Store {
   public:
    std::string name() const override { return "null"; }
    Capabilities capabilities() const override { return 0; }

   protected:
    Status AppendImpl(std::string_view) override { return Status::OK(); }
    StatusOr<std::string> RetrieveImpl(Version) override {
      return Status::NotFound("empty");
    }
    Version VersionCountImpl() const override { return 0; }
    std::string StoredBytesImpl() const override { return ""; }
    StoreStats BackendStats() const override { return StoreStats{}; }
  };
  NullStore store;
  StringSink sink;
  EXPECT_EQ(store.Query("/db @ version 1", sink).code(),
            StatusCode::kUnimplemented);
}

TEST(XaqlGenericTest, WildcardHistoryNeedsAnArchiveBackend) {
  auto store = MakeStore("full-copy");
  EXPECT_EQ(RunQuery(*store, "/db/entry[*] history").status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------- indexed vs naive (XMark, Sec. 7)

TEST(XaqlIndexTest, OldVersionScanSkipsInactiveSubtreesOnXMark) {
  synth::XMarkGenerator::Options options;
  options.items = 32;
  options.people = 60;
  options.open_auctions = 32;
  synth::XMarkGenerator gen(options);
  // Enough churn that version 1 becomes a small fraction of the merged
  // hierarchy, most of it in subtrees the scan never enters.
  std::vector<std::string> versions;
  for (int v = 0; v < 40; ++v) {
    versions.push_back(xml::Serialize(*gen.Current()));
    gen.MutateRandom(30.0);
  }
  auto make = [&](bool use_index) {
    StoreOptions store_options;
    auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
    EXPECT_TRUE(spec.ok());
    store_options.spec = std::move(spec).value();
    store_options.use_index = use_index;
    auto store = StoreRegistry::Create("archive", std::move(store_options));
    EXPECT_TRUE(store.ok());
    std::vector<std::string_view> views(versions.begin(), versions.end());
    EXPECT_TRUE((*store)->AppendBatch(views).ok());
    return std::move(store).value();
  };
  auto indexed = make(true);
  auto naive = make(false);

  // Retrieving the oldest version touches a small fraction of the merged
  // hierarchy: the stamp-checking scan skips the subtrees of inactive
  // children — with byte-identical output on both plans.
  const std::string q = "/site @ version 1";
  auto a = RunQuery(*indexed, q);
  auto b = RunQuery(*naive, q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
  EXPECT_GT(a->size(), 0u);

  StoreStats indexed_stats = indexed->Stats();
  StoreStats naive_stats = naive->Stats();
  EXPECT_EQ(indexed_stats.query_tree_probes, 0u);
  // The Sec. 7.1 sequential retrieval reads the whole archive: its cost is
  // the full node count. Checking stamps before descending inspects
  // strictly fewer children.
  EXPECT_LT(indexed_stats.query_naive_probes, indexed_stats.node_count)
      << "the scan must skip the subtrees of children inactive at v";
  // Both plans run the one stamp-checking scan.
  EXPECT_EQ(indexed_stats.query_naive_probes, naive_stats.query_naive_probes);
  EXPECT_EQ(naive_stats.query_tree_probes, 0u);
}

// ------------------------------------------------------------ explain

TEST(XaqlExplainTest, ReportsPlanAndProbesWithoutResults) {
  auto store = MakeStore("archive", /*use_index=*/true);
  auto report = RunQuery(*store, "explain /db/entry[id=\"2\"] @ version 1");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rfind("XAQL EXPLAIN", 0), 0u) << *report;
  EXPECT_NE(report->find("access: archive-indexed"), std::string::npos);
  EXPECT_NE(report->find("sorted-key binary search"), std::string::npos);
  EXPECT_EQ(report->find("tree probes:"), std::string::npos);
  EXPECT_NE(report->find("naive probes:"), std::string::npos);
  EXPECT_NE(report->find("key comparisons:"), std::string::npos);
  // The results themselves are counted, not streamed.
  EXPECT_EQ(report->find("<entry"), std::string::npos);

  auto generic = MakeStore("full-copy");
  auto generic_report =
      RunQuery(*generic, "explain /db/entry[id=\"2\"] @ version 1");
  ASSERT_TRUE(generic_report.ok());
  EXPECT_NE(generic_report->find("access: store-generic"), std::string::npos);
}

// ----------------------------------------------- stale-index regression

TEST(XaqlStaleIndexTest, IngestAfterIndexBuildInvalidatesLazily) {
  auto store = MakeStore("archive", /*use_index=*/true);
  // Force an index build.
  auto before = RunQuery(*store, "/db/entry[id=\"2\"] history");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, "/db/entry{id=2}: 1,3\n");

  // Ingest after the build: one Append, one AppendBatch.
  ASSERT_TRUE(
      store
          ->Append(Canonical("<db>" + Entry(2, "beta") + Entry(4, "delta") +
                             "</db>"))
          .ok());
  const std::string v5 =
      Canonical("<db>" + Entry(2, "beta2") + Entry(4, "delta") + "</db>");
  std::vector<std::string_view> batch = {v5};
  ASSERT_TRUE(store->AppendBatch(batch).ok());

  // Queries must see the new versions — a stale index would still answer
  // "1,3" and know nothing of version 5.
  auto history = RunQuery(*store, "/db/entry[id=\"2\"] history");
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(*history, "/db/entry{id=2}: 1,3-5\n");
  auto snapshot = RunQuery(*store, "/db/entry[id=\"4\"] @ version 5");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_NE(snapshot->find("delta"), std::string::npos);
  // And History() through the plain Store interface agrees.
  auto direct = store->History({{"db", {}}, {"entry", {{"id", "2"}}}});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->ToString(), "1,3-5");
}

// -------------------------------------------------------- stats folding

TEST(XaqlStatsTest, QueryCountersFoldIntoStats) {
  auto store = MakeStore("archive", /*use_index=*/true);
  EXPECT_EQ(store->Stats().queries, 0u);
  ASSERT_TRUE(RunQuery(*store, "/db @ version 1").ok());
  ASSERT_TRUE(RunQuery(*store, "/db/entry[id=\"1\"] history").ok());
  StoreStats stats = store->Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_GT(stats.query_naive_probes, 0u);
  EXPECT_EQ(stats.query_tree_probes, 0u);
  EXPECT_GT(stats.query_comparisons, 0u);
  // Backend counters are still there.
  EXPECT_EQ(stats.versions, 3u);
  EXPECT_GT(stats.node_count, 0u);
}

TEST(XaqlStatsTest, CompressedWrapperDelegatesQueries) {
  StoreOptions options = OptionsWithSpec();
  options.inner = "archive";
  auto store = StoreRegistry::Create("compressed", std::move(options));
  ASSERT_TRUE(store.ok());
  for (const std::string& text : FixtureVersions()) {
    ASSERT_TRUE((*store)->Append(text).ok());
  }
  auto got = RunQuery(**store, "/db/entry[id=\"2\"] history");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "/db/entry{id=2}: 1,3\n");
  EXPECT_EQ((*store)->Stats().queries, 1u);  // counted on the inner store
}

}  // namespace
}  // namespace xarch
