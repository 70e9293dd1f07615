// Key-space sharding: byte-parity of the sharded store against the
// unsharded backends it wraps (ingest / retrieve / Query / History /
// Diff), query routing by keyed and tag-only top-level steps, scatter and
// routed EXPLAIN, snapshot round-trips, per-shard metric cardinality,
// cross-shard reader liveness with a parked ingest, and a concurrency
// hammer for TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.h"
#include "obs/metrics.h"
#include "persist/container.h"
#include "synth/words.h"
#include "synth/xmark.h"
#include "util/random.h"
#include "vfs/mem_vfs.h"
#include "xarch/durable.h"
#include "xarch/shard.h"
#include "xarch/sharded_store.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {
namespace {

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

keys::KeySpecSet MustSpec() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

StoreOptions OptionsWithSpec() {
  StoreOptions options;
  options.spec = MustSpec();
  return options;
}

/// Versions of a small keyed database (same generator shape as
/// store_test): inserts, edits, and deletions so shards gain and lose
/// entries over time.
class WordsVersions {
 public:
  explicit WordsVersions(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 10; ++i) Insert();
  }

  std::string Next() {
    for (int m = 0; m < 2 && !entries_.empty(); ++m) {
      entries_[rng_.Uniform(0, entries_.size() - 1)].second =
          synth::Sentence(rng_, 3, 8);
    }
    Insert();
    if (entries_.size() > 6 && rng_.Uniform(0, 2) == 0) {
      entries_.erase(entries_.begin() + rng_.Uniform(0, entries_.size() - 1));
    }
    std::string xml = "<db>";
    for (const auto& [id, note] : entries_) {
      xml += "<entry><id>" + std::to_string(id) + "</id><note>" + note +
             "</note></entry>";
    }
    xml += "</db>";
    return xml;
  }

 private:
  void Insert() {
    entries_.emplace_back(next_id_++, synth::Sentence(rng_, 3, 8));
  }

  Rng rng_;
  int next_id_ = 1;
  std::vector<std::pair<int, std::string>> entries_;
};

/// Store-canonical text: keyed siblings in fingerprint order, default
/// pretty serialization — the form both stores reproduce byte-for-byte.
std::string Canonical(const std::string& text) {
  core::Archive archive(MustSpec());
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(archive.AddVersion(**doc).ok());
  auto back = archive.RetrieveVersion(1);
  EXPECT_TRUE(back.ok());
  return xml::Serialize(**back);
}

std::vector<std::string> CanonicalVersions(uint64_t seed, int n) {
  WordsVersions gen(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (int v = 0; v < n; ++v) out.push_back(Canonical(gen.Next()));
  return out;
}

std::unique_ptr<Store> MustCreate(const std::string& backend,
                                  StoreOptions options) {
  auto store = StoreRegistry::Create(backend, std::move(options));
  EXPECT_TRUE(store.ok()) << backend << ": " << store.status().ToString();
  return std::move(store).value();
}

std::unique_ptr<Store> MakeSharded(const std::string& inner, size_t shards) {
  StoreOptions options = OptionsWithSpec();
  options.inner = inner;
  options.shards = shards;
  return MustCreate("sharded", std::move(options));
}

void IngestHalfAndHalf(Store& store, const std::vector<std::string>& texts) {
  // First half one at a time, second half in one batch: both ingest paths.
  const size_t half = texts.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(store.Append(texts[i]).ok());
  }
  std::vector<std::string_view> rest(texts.begin() + half, texts.end());
  ASSERT_TRUE(store.AppendBatch(rest).ok());
}

std::vector<core::KeyStep> EntryPath(int id) {
  return {{"db", {}}, {"entry", {{"id", std::to_string(id)}}}};
}

std::string QueryText(Store& store, const std::string& query) {
  StringSink sink;
  Status status = store.Query(query, sink);
  return status.ok() ? std::move(sink).Take()
                     : "status:" + std::to_string(int(status.code()));
}

// ------------------------------------------------------------ router

TEST(ShardRouterTest, RangePartitionIsMonotoneAndTotal)
{
  auto router = ShardRouter::Make(MustSpec(), 4, keys::AnnotateOptions{});
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  size_t last = 0;
  for (int i = 0; i <= 64; ++i) {
    const uint64_t fp = i == 64 ? ~uint64_t{0} : (uint64_t{1} << i);
    const size_t shard = router->ShardOfFingerprint(fp);
    EXPECT_LT(shard, 4u);
    EXPECT_GE(shard, last);  // monotone in the fingerprint
    last = shard;
  }
  EXPECT_EQ(router->ShardOfFingerprint(0), 0u);
  EXPECT_EQ(router->ShardOfFingerprint(~uint64_t{0}), 3u);
}

TEST(ShardRouterTest, SplitRoutesEveryChildAndKeepsEveryShardAligned) {
  auto router = ShardRouter::Make(MustSpec(), 4, keys::AnnotateOptions{});
  ASSERT_TRUE(router.ok());
  const std::string doc = CanonicalVersions(7, 1)[0];
  auto parts = router->SplitDocument(doc);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 4u);
  size_t children = 0;
  for (const std::string& part : *parts) {
    auto parsed = xml::Parse(part);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)->tag(), "db");
    children += (*parsed)->children().size();
  }
  auto whole = xml::Parse(doc);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(children, (*whole)->children().size());
}

TEST(ShardRouterTest, PlainKeyValuesNameTheOneShardTheSplitUses) {
  // A stored element-content key is a canonical list ("T" + text for
  // plain text), so a plain query value has one candidate label: the
  // shard SplitDocument put the element on.
  auto router = ShardRouter::Make(MustSpec(), 4, keys::AnnotateOptions{});
  ASSERT_TRUE(router.ok());
  std::string doc = "<db>";
  for (int id = 1; id <= 40; ++id) {
    doc += "<entry><id>" + std::to_string(id) + "</id></entry>";
  }
  auto parts = router->SplitDocument(doc + "</db>");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  for (int id = 1; id <= 40; ++id) {
    const std::vector<size_t> shards =
        router->CandidateShards({"entry", {{"id", std::to_string(id)}}});
    ASSERT_EQ(shards.size(), 1u) << "id " << id;
    const std::string element =
        "<id>" + std::to_string(id) + "</id>";
    EXPECT_NE((*parts)[shards[0]].find(element), std::string::npos)
        << "id " << id;
  }
  // A value that could itself be a stored canonical list keeps both
  // candidate labels.
  for (const char* value : {"", "T7", "<b>x</b>"}) {
    core::KeyStep step{"entry", {{"id", value}}};
    keys::Label text;
    text.tag = "entry";
    text.parts.push_back({"id", "T" + std::string(value)});
    text.ComputeFingerprint(64);
    const std::vector<size_t> shards = router->CandidateShards(step);
    EXPECT_NE(std::find(shards.begin(), shards.end(),
                        router->ShardOfFingerprint(text.fingerprint)),
              shards.end())
        << value;
  }
}

TEST(ShardRouterTest, RejectsEmptySpecAndBadShardCounts) {
  EXPECT_FALSE(
      ShardRouter::Make(keys::KeySpecSet(), 2, keys::AnnotateOptions{}).ok());
  EXPECT_FALSE(
      ShardRouter::Make(MustSpec(), 0, keys::AnnotateOptions{}).ok());
  EXPECT_FALSE(ShardRouter::Make(MustSpec(), ShardRouter::kMaxShards + 1,
                                 keys::AnnotateOptions{})
                   .ok());
}

// ------------------------------------------------------------- parity

class ShardedParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedParityTest, IngestRetrieveHistoryDiffAndQueryMatchUnsharded) {
  const std::string inner = GetParam();
  const std::vector<std::string> versions = CanonicalVersions(11, 8);

  std::unique_ptr<Store> plain = MustCreate(inner, OptionsWithSpec());
  std::unique_ptr<Store> sharded = MakeSharded(inner, 3);
  IngestHalfAndHalf(*plain, versions);
  IngestHalfAndHalf(*sharded, versions);

  ASSERT_EQ(plain->version_count(), sharded->version_count());
  const Version count = plain->version_count();

  // Retrieval: every version byte-identical, plus the error contract past
  // the end and at zero.
  for (Version v = 1; v <= count; ++v) {
    auto expect = plain->Retrieve(v);
    auto got = sharded->Retrieve(v);
    ASSERT_TRUE(expect.ok() && got.ok());
    EXPECT_EQ(*expect, *got) << "version " << v;
    StringSink streamed;
    ASSERT_TRUE(sharded->RetrieveTo(v, streamed).ok());
    EXPECT_EQ(*expect, std::move(streamed).Take());
  }
  for (Version v : {Version{0}, Version{count + 1}}) {
    EXPECT_EQ(plain->Retrieve(v).status().code(),
              sharded->Retrieve(v).status().code());
  }

  // History: existing, deleted, and never-existing keys agree (value and
  // status code both).
  for (int id : {1, 2, 5, 9, 11, 999}) {
    auto expect = plain->History(EntryPath(id));
    auto got = sharded->History(EntryPath(id));
    ASSERT_EQ(expect.ok(), got.ok()) << "id " << id;
    if (expect.ok()) {
      EXPECT_EQ(expect->ToString(), got->ToString()) << "id " << id;
    } else {
      EXPECT_EQ(expect.status().code(), got.status().code()) << "id " << id;
    }
  }

  // Diff: full range, adjacent pairs, and the out-of-range error message.
  for (auto [from, to] : std::vector<std::pair<Version, Version>>{
           {1, count}, {2, 3}, {count, 1}}) {
    auto expect = plain->DiffVersions(from, to);
    auto got = sharded->DiffVersions(from, to);
    ASSERT_EQ(expect.ok(), got.ok());
    if (!expect.ok()) continue;
    ASSERT_EQ(expect->size(), got->size());
    for (size_t i = 0; i < expect->size(); ++i) {
      EXPECT_EQ((*expect)[i].kind, (*got)[i].kind) << i;
      EXPECT_EQ((*expect)[i].path, (*got)[i].path) << i;
    }
  }
  {
    auto expect = plain->DiffVersions(0, count + 1);
    auto got = sharded->DiffVersions(0, count + 1);
    ASSERT_FALSE(expect.ok() || got.ok());
    EXPECT_EQ(expect.status().code(), got.status().code());
    if (expect.status().code() != StatusCode::kUnimplemented) {
      // Unimplemented messages embed the store's own name; range errors
      // must match byte-for-byte.
      EXPECT_EQ(expect.status().message(), got.status().message());
    }
  }

  // XAQL: one query of every temporal kind, routed and scattered shapes.
  const std::vector<std::string> queries = {
      "/db/entry[id=\"3\"] @ version 2",
      "/db/entry[id=\"999\"] @ version 1",
      "/db @ versions 1.." + std::to_string(count),
      "/db/entry[id=\"5\"] history",
      "/db/entry[id=\"4\"]/note @ version " + std::to_string(count),
      "/db diff 1 " + std::to_string(count),
  };
  for (const std::string& query : queries) {
    EXPECT_EQ(QueryText(*plain, query), QueryText(*sharded, query))
        << "query: " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardedParityTest,
                         ::testing::Values("archive", "incr-diff"));

TEST(ShardedStoreTest, ShardCountOneMatchesUnshardedToo) {
  const std::vector<std::string> versions = CanonicalVersions(3, 4);
  std::unique_ptr<Store> plain = MustCreate("archive", OptionsWithSpec());
  std::unique_ptr<Store> sharded = MakeSharded("archive", 1);
  IngestHalfAndHalf(*plain, versions);
  IngestHalfAndHalf(*sharded, versions);
  for (Version v = 1; v <= 4; ++v) {
    EXPECT_EQ(*plain->Retrieve(v), *sharded->Retrieve(v));
  }
}

// ------------------------------------------------------------- explain

TEST(ShardedStoreTest, ExplainShowsScatterPlanAndPerShardProbes) {
  std::unique_ptr<Store> sharded = MakeSharded("archive", 3);
  const std::vector<std::string> versions = CanonicalVersions(5, 4);
  IngestHalfAndHalf(*sharded, versions);

  StringSink sink;
  ASSERT_TRUE(sharded->Query("explain /db @ versions 1..4", sink).ok());
  const std::string report = std::move(sink).Take();
  EXPECT_NE(report.find("access: shard-scatter"), std::string::npos) << report;
  EXPECT_NE(report.find("shards:"), std::string::npos) << report;
  EXPECT_NE(report.find("shard 0: probes="), std::string::npos) << report;
  EXPECT_NE(report.find("shard 2: probes="), std::string::npos) << report;
  EXPECT_NE(report.find("merge sub-documents in key order"),
            std::string::npos)
      << report;
}

// ------------------------------------------------- tag-only routing

/// Seeded XMark versions in perfbench's corpus shape (fewer versions):
/// `/site/regions`, `/site/people` and `/site/open_auctions` are keyed by
/// `{}`, so each names one top-level label.
std::vector<std::string> XMarkVersions(size_t count) {
  synth::XMarkGenerator::Options options;
  options.items = 5;
  options.people = 24;
  options.open_auctions = 20;
  options.seed = 23;
  synth::XMarkGenerator generator(options);
  std::vector<std::string> out;
  for (size_t v = 0; v < count; ++v) {
    out.push_back(xml::Serialize(*generator.Current()));
    generator.MutateRandom(10.0);
  }
  return out;
}

StoreOptions XMarkOptions() {
  StoreOptions options;
  auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  options.spec = std::move(spec).value();
  options.use_index = true;
  return options;
}

/// The selector of the first record with an id under `path` in `text`.
std::string FirstRecord(const std::string& text,
                        const std::vector<std::string>& path) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  const xml::Node* node = doc->get();
  std::string selector = "/" + node->tag();
  for (const std::string& tag : path) {
    const xml::Node* next = nullptr;
    for (const auto& child : node->children()) {
      if (child->is_element() && child->tag() == tag) next = child.get();
    }
    if (next == nullptr) {
      ADD_FAILURE() << "no <" << tag << "> under " << selector;
      return selector;
    }
    node = next;
    selector += "/" + tag;
  }
  for (const auto& record : node->children()) {
    if (!record->is_element()) continue;
    if (const std::string* id = record->FindAttr("id")) {
      return selector + "/" + record->tag() + "[@id=\"" + *id + "\"]";
    }
  }
  ADD_FAILURE() << "no record with an id under " << selector;
  return selector;
}

/// Answer bytes, or the full status (code and message) of a failure.
std::string Answer(Store& store, const std::string& query) {
  StringSink sink;
  Status status = store.Query(query, sink);
  return status.ok() ? std::move(sink).Take() : "status:" + status.ToString();
}

/// Sums one per-shard counter family over shards [0, k).
uint64_t ShardCounterSum(const char* family, size_t k) {
  uint64_t total = 0;
  for (size_t s = 0; s < k; ++s) {
    total += obs::Registry::Default()
                 .GetCounter(family, "shard=\"" + std::to_string(s) + "\"")
                 ->value();
  }
  return total;
}

/// Checks every routed and every scattered query shape of an 8-version
/// XMark archive against the unsharded archive.
void ExpectXMarkRoutingParity(Store& plain, Store& sharded, size_t k,
                              const std::vector<std::string>& versions) {
  const Version n = static_cast<Version>(versions.size());
  const std::string& last = versions.back();
  const std::vector<std::string> selectors = {
      FirstRecord(last, {"people"}),
      FirstRecord(last, {"regions", "africa"}),
      FirstRecord(last, {"open_auctions"}),
      FirstRecord(versions.front(), {"people"}),
  };
  std::vector<std::string> routed;
  for (const std::string& selector : selectors) {
    for (Version v : {Version{1}, Version{4}, n}) {
      routed.push_back(selector + " @ version " + std::to_string(v));
    }
    routed.push_back(selector + " @ versions 2..4");
    routed.push_back(selector + " @ versions " + std::to_string(n - 2) +
                     ".." + std::to_string(n));
    routed.push_back(selector + " diff 1 " + std::to_string(n));
    routed.push_back(selector + " diff 3 4");
  }
  routed.push_back("/site/people @ version 3");
  routed.push_back("/site/regions/africa @ versions 1..2");
  routed.push_back("/site/open_auctions diff 2 " + std::to_string(n));

  // The last version's records exist there: those answers are elements.
  for (size_t i = 0; i < 3; ++i) {
    const std::string query = selectors[i] + " @ version " + std::to_string(n);
    EXPECT_EQ(Answer(sharded, query).substr(0, 1), "<") << query;
  }
  for (const std::string& query : routed) {
    const uint64_t routed_before =
        ShardCounterSum("xarch_shard_routed_queries_total", k);
    const uint64_t scatter_before =
        ShardCounterSum("xarch_shard_scatter_reads_total", k);
    EXPECT_EQ(Answer(plain, query), Answer(sharded, query))
        << "K=" << k << " query: " << query;
    EXPECT_EQ(ShardCounterSum("xarch_shard_routed_queries_total", k),
              routed_before + 1)
        << "K=" << k << " query: " << query;
    EXPECT_EQ(ShardCounterSum("xarch_shard_scatter_reads_total", k),
              scatter_before)
        << "K=" << k << " query: " << query;
  }

  // Still scattered: the root itself, a `[*]` top-level step, and a
  // version past the commit point. Same bytes and status messages.
  const std::vector<std::string> scattered = {
      "/site @ version 2",
      "/site/regions[*] @ version " + std::to_string(n),
      selectors[0] + " @ version " + std::to_string(n + 1),
      "/site/people @ versions 1.." + std::to_string(n + 1),
  };
  for (const std::string& query : scattered) {
    const uint64_t routed_before =
        ShardCounterSum("xarch_shard_routed_queries_total", k);
    EXPECT_EQ(Answer(plain, query), Answer(sharded, query))
        << "K=" << k << " query: " << query;
    EXPECT_EQ(ShardCounterSum("xarch_shard_routed_queries_total", k),
              routed_before)
        << "K=" << k << " query: " << query;
  }
}

TEST(ShardedRoutingTest, TagOnlyTopLevelStepsRouteOnHeapShards) {
  const std::vector<std::string> versions = XMarkVersions(8);
  std::unique_ptr<Store> plain = MustCreate("archive", XMarkOptions());
  IngestHalfAndHalf(*plain, versions);
  for (size_t k : {1, 2, 4}) {
    StoreOptions options = XMarkOptions();
    options.shards = k;
    std::unique_ptr<Store> sharded = MustCreate("sharded", std::move(options));
    IngestHalfAndHalf(*sharded, versions);
    ExpectXMarkRoutingParity(*plain, *sharded, k, versions);
  }
}

TEST(ShardedRoutingTest, TagOnlyTopLevelStepsRouteOnReopenedDurableShards) {
  // A durable store with one shard is the single-WAL layout, not a
  // sharded store; K=1 is covered on the heap.
  const std::vector<std::string> versions = XMarkVersions(8);
  std::unique_ptr<Store> plain = MustCreate("archive", XMarkOptions());
  IngestHalfAndHalf(*plain, versions);
  for (size_t k : {2, 4}) {
    vfs::MemVfs mem;
    auto durable_options = [&] {
      DurableOptions options;
      options.vfs = &mem;
      options.shards = k;
      options.fsync = persist::FsyncPolicy::kNever;
      options.store = XMarkOptions();
      return options;
    };
    {
      auto store = OpenDurable("x", durable_options());
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      // Snapshot the first six versions; the last two stay in the WALs,
      // so the reopen both restores snapshots and replays records.
      const std::vector<std::string> first(versions.begin(),
                                           versions.begin() + 6);
      IngestHalfAndHalf(**store, first);
      ASSERT_TRUE((*store)->Checkpoint().ok());
      for (size_t i = 6; i < versions.size(); ++i) {
        ASSERT_TRUE((*store)->Append(versions[i]).ok());
      }
    }
    auto reopened = OpenDurable("x", durable_options());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ((*reopened)->version_count(), versions.size());
    ExpectXMarkRoutingParity(*plain, **reopened, k, versions);
  }
}

TEST(ShardedRoutingTest, ExplainOfARoutedQueryReportsTheOwningShardsPlan) {
  const std::vector<std::string> versions = XMarkVersions(4);
  std::unique_ptr<Store> plain = MustCreate("archive", XMarkOptions());
  StoreOptions options = XMarkOptions();
  options.shards = 4;
  std::unique_ptr<Store> sharded = MustCreate("sharded", std::move(options));
  IngestHalfAndHalf(*plain, versions);
  IngestHalfAndHalf(*sharded, versions);

  const std::string person = FirstRecord(versions.back(), {"people"});
  for (const std::string& query : std::vector<std::string>{
           person + " @ version 3", person + " @ versions 1..4",
           "/site/regions/africa diff 1 4"}) {
    const uint64_t scatter_before =
        ShardCounterSum("xarch_shard_scatter_reads_total", 4);
    const std::string report = Answer(*sharded, "explain " + query);
    EXPECT_EQ(ShardCounterSum("xarch_shard_scatter_reads_total", 4),
              scatter_before)
        << report;
    const size_t routed = report.find("\nrouted: shard ");
    ASSERT_NE(routed, std::string::npos) << report;
    EXPECT_NE(report.find(" of 4\nplan:\n", routed), std::string::npos)
        << report;
    EXPECT_EQ(report.find("shard-scatter"), std::string::npos) << report;
    EXPECT_EQ(report.find("shards:"), std::string::npos) << report;
    // The owning shard's indexed plan: the same matches and bytes as the
    // unsharded plan, with timestamp-tree probes of its own.
    const std::string unsharded = Answer(*plain, "explain " + query);
    for (const char* line :
         {"\naccess: ", "  matches:", "  bytes streamed:"}) {
      const size_t a = report.find(line), b = unsharded.find(line);
      ASSERT_NE(a, std::string::npos) << report;
      ASSERT_NE(b, std::string::npos) << unsharded;
      EXPECT_EQ(report.substr(a, report.find('\n', a + 1) - a),
                unsharded.substr(b, unsharded.find('\n', b + 1) - b));
    }
  }
  const std::string point = Answer(*sharded, "explain " + person +
                                                 " @ version 3");
  EXPECT_NE(point.find("access: archive-indexed\n"), std::string::npos)
      << point;
  EXPECT_EQ(point.find("tree probes:      0\n"), std::string::npos) << point;
}

TEST(ShardedRoutingTest, SplitRefusesAttributesOnATagKeyedTopLevelElement) {
  // An attribute on `/site/people` (keyed by {}) would fold into its
  // label and place it off the shard its tag names.
  StoreOptions options = XMarkOptions();
  options.shards = 2;
  std::unique_ptr<Store> sharded = MustCreate("sharded", std::move(options));
  Status refused = sharded->Append("<site><people kind=\"x\"/></site>");
  EXPECT_EQ(refused.code(), StatusCode::kKeyViolation) << refused.ToString();
  EXPECT_EQ(sharded->version_count(), 0u);
  EXPECT_TRUE(sharded->Append("<site><people/></site>").ok());
}

TEST(ShardedRoutingTest, BareStepWithANonEmptyTopLevelKeyStillScatters) {
  // `/db/entry` is keyed by {id}: a bare step names every entry, which
  // live on every shard.
  const std::vector<std::string> versions = CanonicalVersions(7, 4);
  std::unique_ptr<Store> plain = MustCreate("archive", OptionsWithSpec());
  std::unique_ptr<Store> sharded = MakeSharded("archive", 4);
  IngestHalfAndHalf(*plain, versions);
  IngestHalfAndHalf(*sharded, versions);
  const uint64_t routed_before =
      ShardCounterSum("xarch_shard_routed_queries_total", 4);
  const uint64_t scatter_before =
      ShardCounterSum("xarch_shard_scatter_reads_total", 4);
  EXPECT_EQ(Answer(*plain, "/db/entry @ version 2"),
            Answer(*sharded, "/db/entry @ version 2"));
  EXPECT_EQ(ShardCounterSum("xarch_shard_routed_queries_total", 4),
            routed_before);
  EXPECT_GT(ShardCounterSum("xarch_shard_scatter_reads_total", 4),
            scatter_before);
}

// ------------------------------------------------------- persistence

TEST(ShardedStoreTest, SnapshotRoundTripsThroughTheRegistry) {
  std::unique_ptr<Store> sharded = MakeSharded("archive", 4);
  const std::vector<std::string> versions = CanonicalVersions(13, 6);
  IngestHalfAndHalf(*sharded, versions);

  auto bytes = sharded->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reopened = StoreRegistry::Global().OpenFromBytes(*bytes, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->name(), "sharded(archive)x4");
  ASSERT_EQ((*reopened)->version_count(), sharded->version_count());
  for (Version v = 1; v <= sharded->version_count(); ++v) {
    EXPECT_EQ(*sharded->Retrieve(v), *(*reopened)->Retrieve(v));
  }
  // And the reopened store keeps ingesting in the right key ranges.
  WordsVersions gen(13);
  for (int i = 0; i < 6; ++i) (void)gen.Next();
  const std::string next = Canonical(gen.Next());
  ASSERT_TRUE((*reopened)->Append(next).ok());
  EXPECT_EQ(*(*reopened)->Retrieve(7), next);
}

TEST(ShardedStoreTest, ShardSectionsAreStoredRawAndReopenByteIdentical) {
  std::unique_ptr<Store> sharded = MakeSharded("archive", 4);
  IngestHalfAndHalf(*sharded, CanonicalVersions(19, 6));
  auto bytes = sharded->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // Each shard's own XAR2 container lands in the file verbatim, so a
  // reopen restores it without an LZSS decode.
  auto view = persist::SnapshotView::OpenFromBytes(*bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (int s = 0; s < 4; ++s) {
    auto raw = view->RawSection("shard" + std::to_string(s));
    ASSERT_TRUE(raw.ok()) << "shard" << s << ": " << raw.status().ToString();
    EXPECT_EQ(raw->substr(0, 4), "XAR2") << "shard" << s;
  }

  auto reopened = StoreRegistry::Global().OpenFromBytes(*bytes);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto again = (*reopened)->SaveToBytes();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *bytes);
  for (Version v = 1; v <= sharded->version_count(); ++v) {
    EXPECT_EQ(*sharded->Retrieve(v), *(*reopened)->Retrieve(v));
  }
}

// ---------------------------------------------------------- metrics

TEST(ShardedStoreTest, PerShardMetricFamiliesCoverEveryShard) {
  std::unique_ptr<Store> sharded = MakeSharded("archive", 3);
  const std::string text = obs::Registry::Default().EncodeText();
  for (const char* family :
       {"xarch_shard_ingest_documents_total", "xarch_shard_scatter_reads_total",
        "xarch_shard_routed_queries_total"}) {
    for (int shard = 0; shard < 3; ++shard) {
      const std::string series = std::string(family) + "{shard=\"" +
                                 std::to_string(shard) + "\"}";
      EXPECT_NE(text.find(series), std::string::npos) << series;
    }
  }
}

// ------------------------------------------------- reader liveness

/// A Store wrapper whose ingest parks on a latch while holding the shard's
/// writer lock — the "long writer on one shard" of the glibc
/// reader-preference caveat (docs/CONCURRENCY notes in SHARDING.md).
class BlockingStore final : public Store {
 public:
  explicit BlockingStore(std::unique_ptr<Store> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Capabilities capabilities() const override {
    return inner_->capabilities();
  }

  void Block() {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_ = true;
  }
  void Unblock() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      blocked_ = false;
    }
    cv_.notify_all();
  }
  bool parked() const { return parked_.load(); }

 protected:
  Status AppendImpl(std::string_view text) override {
    Park();
    return inner_->Append(text);
  }
  Status AppendBatchImpl(const std::vector<std::string_view>& t) override {
    Park();
    return inner_->AppendBatch(t);
  }
  StatusOr<std::string> RetrieveImpl(Version v) override {
    return inner_->Retrieve(v);
  }
  StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path) override {
    return inner_->History(path);
  }
  StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                       Version to) override {
    return inner_->DiffVersions(from, to);
  }
  Status QueryImpl(std::string_view query, Sink& sink,
                   obs::Trace* trace) override {
    return inner_->Query(query, sink, trace);
  }
  Version VersionCountImpl() const override {
    return inner_->version_count();
  }
  StoreStats BackendStats() const override { return inner_->Stats(); }
  std::string StoredBytesImpl() const override {
    return inner_->StoredBytes();
  }
  StatusOr<std::string> SnapshotBytesImpl() const override {
    return inner_->SaveToBytes();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    parked_.store(true);
    cv_.wait(lock, [&] { return !blocked_; });
    parked_.store(false);
  }

  std::unique_ptr<Store> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  std::atomic<bool> parked_{false};
};

TEST(ShardedStoreTest, ReadersOfOtherShardsStayLiveUnderAParkedIngest) {
  auto router = ShardRouter::Make(MustSpec(), 2, keys::AnnotateOptions{});
  ASSERT_TRUE(router.ok());

  // Two ids whose candidate labels pin exactly one shard each, on
  // DIFFERENT shards (deterministic: fingerprints are content hashes).
  int blocked_id = 0, live_id = 0;
  size_t blocked_shard = 0;
  for (int id = 1; id < 400 && (blocked_id == 0 || live_id == 0); ++id) {
    core::KeyStep step{"entry", {{"id", std::to_string(id)}}};
    const std::vector<size_t> shards = router->CandidateShards(step);
    if (shards.size() != 1) continue;
    if (blocked_id == 0) {
      blocked_id = id;
      blocked_shard = shards[0];
    } else if (shards[0] != blocked_shard) {
      live_id = id;
    }
  }
  ASSERT_NE(blocked_id, 0);
  ASSERT_NE(live_id, 0);

  std::vector<std::unique_ptr<Store>> shards;
  BlockingStore* blocking = nullptr;
  for (size_t s = 0; s < 2; ++s) {
    auto inner = MustCreate("archive", OptionsWithSpec());
    if (s == blocked_shard) {
      auto wrapped = std::make_unique<BlockingStore>(std::move(inner));
      blocking = wrapped.get();
      shards.push_back(std::move(wrapped));
    } else {
      shards.push_back(std::move(inner));
    }
  }
  auto made = ShardedStore::Make(std::move(*router), std::move(shards), 0);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ShardedStore& store = **made;

  const std::string v1 = Canonical(
      "<db><entry><id>" + std::to_string(blocked_id) +
      "</id><note>a</note></entry><entry><id>" + std::to_string(live_id) +
      "</id><note>b</note></entry></db>");
  ASSERT_TRUE(store.Append(v1).ok());

  blocking->Block();
  std::thread writer([&] {
    EXPECT_TRUE(store.Append(v1).ok());  // parks inside the blocked shard
  });
  while (!blocking->parked()) std::this_thread::yield();

  // The writer holds the blocked shard's lock mid-ingest. Reads routed to
  // the OTHER shard must complete; the commit point still reads 1.
  auto history = store.History(EntryPath(live_id));
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_TRUE(history->Contains(1));
  const std::string routed = QueryText(
      store,
      "/db/entry[id=\"" + std::to_string(live_id) + "\"] @ version 1");
  EXPECT_NE(routed.find("<entry>"), std::string::npos) << routed;
  EXPECT_EQ(store.version_count(), 1u);

  blocking->Unblock();
  writer.join();
  EXPECT_EQ(store.version_count(), 2u);
}

// --------------------------------------------------------- concurrency

TEST(ShardedConcurrencyTest, ParallelReadersAndWriterHammar) {
  const std::vector<std::string> versions = CanonicalVersions(17, 10);
  std::unique_ptr<Store> sharded = MakeSharded("archive", 4);
  std::vector<std::string_view> first(versions.begin(), versions.begin() + 4);
  ASSERT_TRUE(sharded->AppendBatch(first).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::mutex fail_mu;
  std::string first_failure;
  auto fail = [&](const Status& status) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(fail_mu);
    if (first_failure.empty()) first_failure = status.ToString();
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load()) {
        const Version count = sharded->version_count();
        const Version v = 1 + rng.Uniform(0, static_cast<int>(count) - 1);
        if (auto got = sharded->Retrieve(v); !got.ok()) fail(got.status());
        StringSink sink;
        // NotFound is a legal answer for ids absent from version v;
        // anything else under concurrent ingest is a bug.
        if (Status status = sharded->Query(
                "/db/entry[id=\"" + std::to_string(1 + rng.Uniform(0, 12)) +
                    "\"] @ version " + std::to_string(v),
                sink);
            !status.ok() && status.code() != StatusCode::kNotFound) {
          fail(status);
        }
        if (!sharded->History(EntryPath(1 + rng.Uniform(0, 12))).ok()) {
          // NotFound is a legal answer for absent ids; anything else is not.
        }
      }
    });
  }
  for (size_t v = 4; v < versions.size(); ++v) {
    ASSERT_TRUE(sharded->Append(versions[v]).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0) << first_failure;

  // After the dust settles: full parity with a serial unsharded ingest.
  std::unique_ptr<Store> plain = MustCreate("archive", OptionsWithSpec());
  std::vector<std::string_view> all(versions.begin(), versions.end());
  ASSERT_TRUE(plain->AppendBatch(all).ok());
  for (Version v = 1; v <= plain->version_count(); ++v) {
    EXPECT_EQ(*plain->Retrieve(v), *sharded->Retrieve(v));
  }
}

}  // namespace
}  // namespace xarch
