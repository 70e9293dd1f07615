// Store API v2: registry resolution, backend parity, capability honesty,
// one-pass batched ingest, and materialization-free streaming retrieval.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/archive.h"
#include "synth/words.h"
#include "util/random.h"
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
  options.checkpoint_every = 3;
  return options;
}

/// Versions of a small keyed database whose prose comes from synth/words:
/// every step modifies a couple of notes, inserts one entry, and
/// occasionally deletes one, so batches exercise appearance,
/// disappearance, and content change.
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

/// The store-canonical form of a version: what a one-version archive
/// reconstructs (keyed siblings in fingerprint order, default pretty
/// serialization). Feeding canonical text lets retrieval round-trip
/// byte-for-byte.
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

std::vector<std::string> RegisteredBackends() {
  std::vector<std::string> names;
  for (const auto* entry : StoreRegistry::Global().List()) {
    names.push_back(entry->name);
  }
  return names;
}

// ------------------------------------------------------------- registry

TEST(StoreRegistryTest, ResolvesEveryDocumentedBackend) {
  const std::vector<std::string> expected = {
      "archive",   "archive-weave",      "incr-diff",
      "cum-diff",  "full-copy",          "extmem",
      "compressed", "checkpoint-archive", "checkpoint-diff",
      "sharded"};
  for (const std::string& name : expected) {
    ASSERT_NE(StoreRegistry::Global().Find(name), nullptr) << name;
    auto store = StoreRegistry::Create(name, OptionsWithSpec());
    ASSERT_TRUE(store.ok()) << name << ": " << store.status().ToString();
    EXPECT_EQ((*store)->version_count(), 0u);
  }
  // And nothing undocumented sneaks in.
  EXPECT_EQ(RegisteredBackends().size(), expected.size());
}

TEST(StoreRegistryTest, UnknownBackendIsNotFound) {
  auto store = StoreRegistry::Create("no-such-backend", {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
}

TEST(StoreRegistryTest, ArchiveBackendsRequireASpec) {
  for (const char* name : {"archive", "archive-weave", "extmem",
                           "checkpoint-archive"}) {
    auto store = StoreRegistry::Create(name, {});
    ASSERT_FALSE(store.ok()) << name;
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(StoreRegistryTest, CompressedWrapsAnyInnerBackend) {
  for (const char* inner : {"archive", "incr-diff", "full-copy"}) {
    StoreOptions options = OptionsWithSpec();
    options.inner = inner;
    auto store = StoreRegistry::Create("compressed", std::move(options));
    ASSERT_TRUE(store.ok()) << inner << ": " << store.status().ToString();
    EXPECT_EQ((*store)->name(), std::string("compressed(") + inner + ")");
  }
  StoreOptions options = OptionsWithSpec();
  options.inner = "compressed";
  EXPECT_FALSE(StoreRegistry::Create("compressed", std::move(options)).ok());
}

TEST(StoreRegistryTest, DuplicateRegistrationFails) {
  StoreRegistry registry;  // fresh, empty
  StoreRegistry::Entry entry;
  entry.name = "x";
  entry.factory = [](StoreOptions) -> StatusOr<std::unique_ptr<Store>> {
    return Status::Unimplemented("test backend");
  };
  EXPECT_TRUE(registry.Register(entry).ok());
  EXPECT_FALSE(registry.Register(entry).ok());
}

// ------------------------------------------------- parity over backends

class StoreParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreParityTest, RoundTripsEveryVersion) {
  const std::string& backend = GetParam();
  auto store_or = StoreRegistry::Create(backend, OptionsWithSpec());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  Store& store = **store_or;

  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/7, 8);
  for (const std::string& text : texts) {
    ASSERT_TRUE(store.Append(text).ok()) << backend;
  }
  ASSERT_EQ(store.version_count(), texts.size());
  EXPECT_GT(store.ByteSize(), 0u);
  EXPECT_FALSE(store.Retrieve(0).ok());
  EXPECT_FALSE(store.Retrieve(texts.size() + 1).ok());

  for (Version v = 1; v <= texts.size(); ++v) {
    auto got = store.Retrieve(v);
    ASSERT_TRUE(got.ok()) << backend << " v" << v << ": "
                          << got.status().ToString();
    if (backend == "extmem") {
      // The external archiver orders siblings by plain label, not by
      // fingerprint; byte-compare after re-canonicalization.
      EXPECT_EQ(Canonical(*got), texts[v - 1]) << backend << " v" << v;
    } else {
      EXPECT_EQ(*got, texts[v - 1]) << backend << " v" << v;
    }
  }
}

TEST_P(StoreParityTest, BatchIngestMatchesSequentialIngest) {
  const std::string& backend = GetParam();
  auto batch_or = StoreRegistry::Create(backend, OptionsWithSpec());
  ASSERT_TRUE(batch_or.ok());
  Store& batch = **batch_or;
  if (!batch.Has(kBatchIngest)) return;

  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/11, 6);
  std::vector<std::string_view> views(texts.begin(), texts.end());
  ASSERT_TRUE(batch.AppendBatch(views).ok()) << backend;
  ASSERT_EQ(batch.version_count(), texts.size());

  auto seq_or = StoreRegistry::Create(backend, OptionsWithSpec());
  ASSERT_TRUE(seq_or.ok());
  Store& seq = **seq_or;
  for (const std::string& text : texts) ASSERT_TRUE(seq.Append(text).ok());

  for (Version v = 1; v <= texts.size(); ++v) {
    auto a = batch.Retrieve(v);
    auto b = seq.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << backend << " v" << v;
    EXPECT_EQ(*a, *b) << backend << " v" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreParityTest,
                         ::testing::ValuesIn(RegisteredBackends()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --------------------------------------------------- capability honesty

class CapabilityHonestyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CapabilityHonestyTest, AdvertisedCapabilitiesWorkOthersUnimplemented) {
  const std::string& backend = GetParam();
  auto store_or = StoreRegistry::Create(backend, OptionsWithSpec());
  ASSERT_TRUE(store_or.ok());
  Store& store = **store_or;

  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/23, 3);
  ASSERT_TRUE(store.Append(texts[0]).ok());
  ASSERT_TRUE(store.Append(texts[1]).ok());

  // kBatchIngest.
  {
    std::vector<std::string_view> batch = {texts[2]};
    Status st = store.AppendBatch(batch);
    if (store.Has(kBatchIngest)) {
      EXPECT_TRUE(st.ok()) << backend << ": " << st.ToString();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << backend;
    }
  }
  // kStreamingRetrieve.
  {
    StringSink sink;
    Status st = store.RetrieveTo(1, sink);
    if (store.Has(kStreamingRetrieve)) {
      EXPECT_TRUE(st.ok()) << backend << ": " << st.ToString();
      EXPECT_EQ(sink.data(), texts[0]) << backend;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << backend;
    }
  }
  // kTemporalQueries.
  {
    auto history = store.History({{"db", {}}});
    auto changes = store.DiffVersions(1, 2);
    if (store.Has(kTemporalQueries)) {
      ASSERT_TRUE(history.ok()) << backend << ": "
                                << history.status().ToString();
      EXPECT_TRUE(history->Contains(1));
      EXPECT_TRUE(history->Contains(2));
      ASSERT_TRUE(changes.ok()) << backend << ": "
                                << changes.status().ToString();
      EXPECT_FALSE(changes->empty()) << backend;  // versions differ
    } else {
      EXPECT_EQ(history.status().code(), StatusCode::kUnimplemented)
          << backend;
      EXPECT_EQ(changes.status().code(), StatusCode::kUnimplemented)
          << backend;
    }
  }
  // kCheckpoint.
  {
    Status st = store.Checkpoint();
    if (store.Has(kCheckpoint)) {
      EXPECT_TRUE(st.ok()) << backend << ": " << st.ToString();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << backend;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CapabilityHonestyTest,
                         ::testing::ValuesIn(RegisteredBackends()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ----------------------------------------------------- batched ingest

TEST(BatchIngestTest, TenVersionsAreOneMergePass) {
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/3, 10);
  std::vector<std::string_view> views(texts.begin(), texts.end());

  auto batch = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*batch)->AppendBatch(views).ok());
  EXPECT_EQ((*batch)->Stats().merge_passes, 1u);

  auto seq = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(seq.ok());
  for (const std::string& text : texts) ASSERT_TRUE((*seq)->Append(text).ok());
  EXPECT_EQ((*seq)->Stats().merge_passes, 10u);

  // The batched merge is not an approximation: the archives are
  // byte-identical.
  EXPECT_EQ((*batch)->StoredBytes(), (*seq)->StoredBytes());
}

TEST(BatchIngestTest, MultiMergeEqualsSequentialMergeAtCoreLevel) {
  for (auto strategy : {core::FrontierStrategy::kBuckets,
                        core::FrontierStrategy::kWeave}) {
    core::ArchiveOptions options;
    options.frontier = strategy;

    WordsVersions gen(/*seed=*/41);
    std::vector<std::string> texts;
    std::vector<xml::NodePtr> docs;
    std::vector<const xml::Node*> roots;
    for (int v = 0; v < 9; ++v) {
      texts.push_back(gen.Next());
      auto doc = xml::Parse(texts.back());
      ASSERT_TRUE(doc.ok());
      docs.push_back(std::move(doc).value());
      roots.push_back(docs.back().get());
    }

    // Sequential reference.
    core::Archive seq(MustSpec(), options);
    for (const auto* root : roots) ASSERT_TRUE(seq.AddVersion(*root).ok());

    // One batch.
    core::Archive batch(MustSpec(), options);
    ASSERT_TRUE(batch.AddVersions(roots).ok());
    ASSERT_TRUE(batch.Check().ok()) << batch.Check().ToString();
    EXPECT_EQ(batch.version_count(), 9u);
    EXPECT_EQ(batch.ToXml(), seq.ToXml());

    // Sequential prefix, then the rest as a batch (merging into a
    // non-empty archive).
    core::Archive mixed(MustSpec(), options);
    ASSERT_TRUE(mixed.AddVersion(*roots[0]).ok());
    ASSERT_TRUE(mixed.AddVersion(*roots[1]).ok());
    ASSERT_TRUE(
        mixed
            .AddVersions(std::vector<const xml::Node*>(roots.begin() + 2,
                                                       roots.end()))
            .ok());
    ASSERT_TRUE(mixed.Check().ok()) << mixed.Check().ToString();
    EXPECT_EQ(mixed.ToXml(), seq.ToXml());
  }
}

TEST(BatchIngestTest, BatchIsAtomicOnBadDocuments) {
  auto store = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(store.ok());
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/5, 2);
  ASSERT_TRUE((*store)->Append(texts[0]).ok());

  // Second document violates the key spec (duplicate entry id).
  std::vector<std::string_view> batch = {
      texts[1],
      "<db><entry><id>1</id><note>a</note></entry>"
      "<entry><id>1</id><note>b</note></entry></db>"};
  EXPECT_FALSE((*store)->AppendBatch(batch).ok());
  EXPECT_EQ((*store)->version_count(), 1u);
  EXPECT_EQ((*store)->Stats().merge_passes, 1u);
}

TEST(BatchIngestTest, EmptyBatchIsANoOp) {
  auto store = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->AppendBatch({}).ok());
  EXPECT_EQ((*store)->version_count(), 0u);
}

// ------------------------------------------------- streaming retrieval

TEST(StreamingRetrieveTest, AllocatesNoIntermediateTree) {
  auto store = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(store.ok());
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/13, 5);
  for (const std::string& text : texts) {
    ASSERT_TRUE((*store)->Append(text).ok());
  }

  const uint64_t created_before = xml::Node::CreatedCount();
  CountingSink sink;
  ASSERT_TRUE((*store)->RetrieveTo(3, sink).ok());
  EXPECT_EQ(xml::Node::CreatedCount(), created_before)
      << "streaming retrieval must not materialize xml::Node objects";
  EXPECT_EQ(sink.bytes(), texts[2].size());
}

TEST(StreamingRetrieveTest, StreamsTheExactSerializedVersion) {
  // The streamed bytes equal serializing Archive::RetrieveVersion's tree,
  // for both frontier strategies.
  for (const char* backend : {"archive", "archive-weave"}) {
    auto store = StoreRegistry::Create(backend, OptionsWithSpec());
    ASSERT_TRUE(store.ok());
    core::Archive reference(
        MustSpec(), backend == std::string("archive-weave")
                        ? core::ArchiveOptions{{}, core::FrontierStrategy::kWeave}
                        : core::ArchiveOptions{});
    WordsVersions gen(/*seed=*/29);
    for (int v = 0; v < 6; ++v) {
      std::string text = gen.Next();
      ASSERT_TRUE((*store)->Append(text).ok());
      auto doc = xml::Parse(text);
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE(reference.AddVersion(**doc).ok());
    }
    for (Version v = 1; v <= 6; ++v) {
      StringSink sink;
      ASSERT_TRUE((*store)->RetrieveTo(v, sink).ok()) << backend;
      auto tree = reference.RetrieveVersion(v);
      ASSERT_TRUE(tree.ok());
      EXPECT_EQ(sink.data(), xml::Serialize(**tree)) << backend << " v" << v;
    }
  }
}

// --------------------------------------------- temporal queries / stats

TEST(TemporalQueryTest, HistoryAndDiffThroughTheStoreInterface) {
  auto store = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(store.ok());
  // v1: entries 1, 2; v2: entry 2 gone, note of 1 changed; v3: 2 returns.
  auto entry = [](int id, const std::string& note) {
    return "<entry><id>" + std::to_string(id) + "</id><note>" + note +
           "</note></entry>";
  };
  ASSERT_TRUE(
      (*store)->Append("<db>" + entry(1, "a") + entry(2, "b") + "</db>").ok());
  ASSERT_TRUE((*store)->Append("<db>" + entry(1, "changed") + "</db>").ok());
  ASSERT_TRUE(
      (*store)
          ->Append("<db>" + entry(1, "changed") + entry(2, "b") + "</db>")
          .ok());

  auto history = (*store)->History(
      {{"db", {}}, {"entry", {{"id", "2"}}}});
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history->ToString(), "1,3");

  auto changes = (*store)->DiffVersions(1, 2);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  bool saw_delete = false, saw_change = false;
  for (const auto& change : *changes) {
    saw_delete |= change.kind == core::Change::Kind::kDeleted;
    saw_change |= change.kind == core::Change::Kind::kContentChanged;
  }
  EXPECT_TRUE(saw_delete);
  EXPECT_TRUE(saw_change);
}

TEST(TemporalQueryTest, IndexBackedHistoryMatchesScan) {
  StoreOptions indexed_options = OptionsWithSpec();
  indexed_options.use_index = true;
  auto indexed = StoreRegistry::Create("archive", std::move(indexed_options));
  auto plain = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(indexed.ok() && plain.ok());
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/31, 6);
  for (const std::string& text : texts) {
    ASSERT_TRUE((*indexed)->Append(text).ok());
    ASSERT_TRUE((*plain)->Append(text).ok());
  }
  for (int id : {1, 2, 5, 11}) {
    std::vector<core::KeyStep> path = {
        {"db", {}}, {"entry", {{"id", std::to_string(id)}}}};
    auto a = (*indexed)->History(path);
    auto b = (*plain)->History(path);
    ASSERT_EQ(a.ok(), b.ok()) << "id " << id;
    if (a.ok()) {
      EXPECT_EQ(a->ToString(), b->ToString()) << "id " << id;
    }
  }
}

TEST(StoreStatsTest, CheckpointStoresReportSegmentsAndForcedCheckpoints) {
  for (const char* backend : {"checkpoint-archive", "checkpoint-diff"}) {
    auto store = StoreRegistry::Create(backend, OptionsWithSpec());  // k=3
    ASSERT_TRUE(store.ok());
    const std::vector<std::string> texts = CanonicalVersions(/*seed=*/17, 2);
    ASSERT_TRUE((*store)->Append(texts[0]).ok());
    EXPECT_EQ((*store)->Stats().checkpoint_segments, 1u) << backend;
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE((*store)->Append(texts[1]).ok());
    EXPECT_EQ((*store)->Stats().checkpoint_segments, 2u) << backend;
    for (Version v = 1; v <= 2; ++v) {
      EXPECT_TRUE((*store)->Retrieve(v).ok()) << backend << " v" << v;
    }
  }
}

TEST(StoreStatsTest, CompressedStoreShrinksStoredBytes) {
  StoreOptions options = OptionsWithSpec();
  options.inner = "full-copy";
  auto compressed = StoreRegistry::Create("compressed", std::move(options));
  auto raw = StoreRegistry::Create("full-copy");
  ASSERT_TRUE(compressed.ok() && raw.ok());
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/19, 6);
  for (const std::string& text : texts) {
    ASSERT_TRUE((*compressed)->Append(text).ok());
    ASSERT_TRUE((*raw)->Append(text).ok());
  }
  EXPECT_LT((*compressed)->ByteSize(), (*raw)->ByteSize());
  // Retrieval still goes through the inner store untouched.
  auto got = (*compressed)->Retrieve(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, texts[1]);
}

TEST(StoreStatsTest, ExtmemStoreFoldsInIoCounters) {
  auto store = StoreRegistry::Create("extmem", OptionsWithSpec());
  ASSERT_TRUE(store.ok());
  const std::vector<std::string> texts = CanonicalVersions(/*seed=*/37, 3);
  for (const std::string& text : texts) {
    ASSERT_TRUE((*store)->Append(text).ok());
  }
  StoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.versions, 3u);
  EXPECT_GT(stats.io.bytes_written, 0u);
  EXPECT_GT(stats.io.run_count, 0u);
}

}  // namespace
}  // namespace xarch
