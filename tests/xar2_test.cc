// XAR2, the mmap-navigable snapshot container every backend writes:
// heap-vs-mapped answer parity across the archive-family backends
// (Retrieve, Query, History, Diff, EXPLAIN probe counts), ingest promotion
// of a mapped store through the flat-record decoder, the committed XAR1
// fixtures under tests/data/ (one per backend: byte-identical reads,
// migration to XAR2 on save, and the flip-every-byte / truncate-everywhere
// / patched-version sweeps of the legacy parser), the committed XAR2
// fixtures that still carry the old `archive` XML section or timestamp-tree
// index trailers, the sorted-id index fixtures a live store writes, the
// same corruption sweeps over XAR2 files (kDataLoss, never an
// out-of-bounds read), and checksum-valid snapshots whose flat records
// break an archive invariant (kDataLoss at the first decode).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/archive.h"
#include "persist/container.h"
#include "persist/crc32c.h"
#include "vfs/vfs.h"
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

StoreOptions OptionsWithSpec(bool use_index = false) {
  StoreOptions options;
  options.spec = MustSpec();
  options.use_index = use_index;
  return options;
}

/// The store-canonical form of a version (keyed siblings in fingerprint
/// order, default pretty serialization).
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

/// Four deterministic versions: entry 2 disappears in v2 and returns in
/// v3, entry 1's note changes in v2, entry 3 appears in v2 and is edited
/// in v4. The SAME texts built the committed XAR1 fixtures — keep the two
/// in sync if this ever changes (tests/data/README.md).
std::vector<std::string> FixtureVersions() {
  return {
      Canonical("<db>" + Entry(1, "alpha") + Entry(2, "beta") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(3, "gamma") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(2, "beta") +
                Entry(3, "gamma") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(2, "beta") +
                Entry(3, "gamma2") + "</db>"),
  };
}

std::unique_ptr<Store> MakeLiveStore(const std::string& backend,
                                     bool use_index = false) {
  auto store = StoreRegistry::Create(backend, OptionsWithSpec(use_index));
  EXPECT_TRUE(store.ok()) << backend << ": " << store.status().ToString();
  std::unique_ptr<Store> out = std::move(store).value();
  for (const std::string& text : FixtureVersions()) {
    EXPECT_TRUE(out->Append(text).ok()) << backend;
  }
  return out;
}

StatusOr<std::unique_ptr<Store>> OpenMapped(const std::string& path) {
  return StoreRegistry::Open(path, {}, vfs::Vfs::Mmap());
}

StatusOr<std::unique_ptr<Store>> OpenBytes(std::string bytes) {
  return StoreRegistry::Global().OpenFromBytes(std::move(bytes));
}

StatusOr<std::string> RunQuery(Store& store, const std::string& q) {
  StringSink sink;
  XARCH_RETURN_NOT_OK(store.Query(q, sink));
  return std::move(sink).Take();
}

/// Fresh private scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("xarch_xar2_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  auto bytes = vfs::Vfs::Posix()->ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  auto file =
      vfs::Vfs::Posix()->OpenWritable(path, vfs::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok()) << path << ": " << file.status().ToString();
  ASSERT_TRUE((*file)->Append(bytes).ok()) << path;
  ASSERT_TRUE((*file)->Close().ok()) << path;
}

/// Little-endian u32 fields of snapshot bytes, as the writer lays them out.
uint32_t U32At(const std::string& bytes, size_t at) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void SetU32At(std::string* bytes, size_t at, uint32_t v) {
  std::memcpy(&(*bytes)[at], &v, sizeof(v));
}

// ----------------------------------------------- heap vs. mapped parity

// (backend, use_index, open kind): every combination must answer every
// read byte-identically to the live heap store it was saved from. "posix"
// and "mmap" open a real file (the registry adopts the mapping either
// way); "bytes" goes through OpenFromBytes, which copies.
class Xar2ParityTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, std::string>> {};

TEST_P(Xar2ParityTest, MappedAnswersMatchHeapByteForByte) {
  const std::string& backend = std::get<0>(GetParam());
  const bool use_index = std::get<1>(GetParam());
  const std::string& open_kind = std::get<2>(GetParam());
  std::unique_ptr<Store> live = MakeLiveStore(backend, use_index);

  ScratchDir dir("parity");
  const std::string path = dir.File("store.xar");
  StatusOr<std::unique_ptr<Store>> reopened_or =
      Status::Unimplemented("open kind");
  if (open_kind == "bytes") {
    auto bytes = live->SaveToBytes();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_EQ(bytes->substr(0, 4), "XAR2");
    reopened_or = StoreRegistry::Global().OpenFromBytes(*bytes);
  } else {
    ASSERT_TRUE(live->SaveToFile(path).ok());
    vfs::Vfs* vfs =
        open_kind == "mmap" ? vfs::Vfs::Mmap() : vfs::Vfs::Posix();
    reopened_or = StoreRegistry::Open(path, {}, vfs);
  }
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Store& reopened = **reopened_or;

  EXPECT_EQ(reopened.name(), live->name());
  EXPECT_EQ(reopened.capabilities(), live->capabilities());
  ASSERT_EQ(reopened.version_count(), live->version_count());

  for (Version v = 1; v <= live->version_count(); ++v) {
    auto a = live->Retrieve(v);
    auto b = reopened.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << "v" << v;
  }
  {
    StringSink a, b;
    ASSERT_TRUE(live->RetrieveTo(2, a).ok());
    ASSERT_TRUE(reopened.RetrieveTo(2, b).ok());
    EXPECT_EQ(a.data(), b.data());
  }

  for (const char* q : {
           "/db/entry[id=\"2\"] @ version 1",
           "/db/entry[*] @ versions 1..4",
           "/db/entry[id=\"2\"] history",
           "/db diff 1 3",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(reopened, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  {
    // Error parity too: a history miss fails with the same status text on
    // both sides.
    auto a = RunQuery(*live, "/db/entry[id=\"9\"] history");
    auto b = RunQuery(reopened, "/db/entry[id=\"9\"] history");
    ASSERT_FALSE(a.ok() || b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }
  {
    // A Store::History path that descends below the frontier (note holds
    // text, not keyed elements) fails with the same status text whether
    // answered by the heap or the mapped view, indexed or not.
    const std::vector<core::KeyStep> below = {
        {"db", {}}, {"entry", {{"id", "1"}}}, {"note", {}}, {"x", {}}};
    auto a = live->History(below);
    auto b = reopened.History(below);
    ASSERT_FALSE(a.ok() || b.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }

  {
    auto a = live->History({{"db", {}}, {"entry", {{"id", "3"}}}});
    auto b = reopened.History({{"db", {}}, {"entry", {{"id", "3"}}}});
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    EXPECT_EQ(a->ToString(), b->ToString());
  }
  {
    auto a = live->DiffVersions(1, 4);
    auto b = reopened.DiffVersions(1, 4);
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    EXPECT_EQ(core::FormatChanges(*a), core::FormatChanges(*b));
  }

  // EXPLAIN: the mapped evaluation reports mapped=true on its access line
  // and — probe for probe — the same counts as the heap run; stripping
  // the marker must reproduce the heap report exactly.
  {
    auto a = RunQuery(*live, "explain /db/entry[id=\"2\"] @ version 1");
    auto b = RunQuery(reopened, "explain /db/entry[id=\"2\"] @ version 1");
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    const std::string marker = " (mapped=true)";
    EXPECT_EQ(a->find(marker), std::string::npos) << *a;
    const size_t at = b->find(marker);
    ASSERT_NE(at, std::string::npos) << *b;
    std::string stripped = *b;
    stripped.erase(at, marker.size());
    EXPECT_EQ(stripped, *a);
  }
}

// The one change walk runs over the mapped view itself: `@ diff` and
// DiffVersions answer every (from, to) pair byte-identically to the heap
// store without constructing a single xml::Node, and the store stays
// mapped (the re-save is the opened file).
TEST_P(Xar2ParityTest, MappedDiffMatchesHeapForEveryPairWithoutNodes) {
  const std::string& backend = std::get<0>(GetParam());
  std::unique_ptr<Store> live = MakeLiveStore(backend, std::get<1>(GetParam()));
  ScratchDir dir("diff");
  const std::string path = dir.File("store.xar");
  ASSERT_TRUE(live->SaveToFile(path).ok());
  auto mapped_or = OpenMapped(path);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  Store& mapped = **mapped_or;
  const Version n = live->version_count();
  for (Version from = 0; from <= n + 1; ++from) {
    for (Version to = 0; to <= n + 1; ++to) {
      const std::string q =
          "/db diff " + std::to_string(from) + " " + std::to_string(to);
      auto a = RunQuery(*live, q);
      auto want = live->DiffVersions(from, to);
      const uint64_t nodes_before = xml::Node::CreatedCount();
      auto b = RunQuery(mapped, q);
      auto got = mapped.DiffVersions(from, to);
      EXPECT_EQ(xml::Node::CreatedCount(), nodes_before) << q;
      ASSERT_EQ(a.status().ToString(), b.status().ToString()) << q;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << q;
      }
      ASSERT_EQ(want.status().ToString(), got.status().ToString()) << q;
      if (want.ok()) {
        EXPECT_EQ(core::FormatChanges(*want), core::FormatChanges(*got)) << q;
      }
    }
  }
  auto resaved = mapped.SaveToBytes();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*resaved, ReadAll(path));
}

INSTANTIATE_TEST_SUITE_P(
    ArchiveFamily, Xar2ParityTest,
    ::testing::Combine(::testing::Values("archive", "archive-weave"),
                       ::testing::Bool(),
                       ::testing::Values("posix", "mmap", "bytes")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         (std::get<1>(info.param) ? "indexed" : "noindex") +
                         "_" + std::get<2>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------- ingest promotion

TEST(Xar2PromotionTest, IngestIntoMappedStoreMaterializesOnce) {
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  auto reopened_or = StoreRegistry::Global().OpenFromBytes(*bytes);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Store& reopened = **reopened_or;

  // Before any write the snapshot round-trips bit-for-bit: the mapped
  // store's SaveToBytes is the container it was opened from.
  auto resaved = reopened.SaveToBytes();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*resaved, *bytes);

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE(reopened.Append(v5).ok());
  EXPECT_EQ(reopened.version_count(), live->version_count() + 1);
  auto got = reopened.Retrieve(5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, v5);
  // Old versions survive the promotion byte-for-byte.
  EXPECT_EQ(*reopened.Retrieve(2), *live->Retrieve(2));
  auto history = RunQuery(reopened, "/db/entry[id=\"1\"] history");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(*history, "/db/entry{id=1}: 1-5\n");

  // The next save re-encodes the promoted heap archive as XAR2, and that
  // snapshot reopens with everything intact.
  auto after = reopened.SaveToBytes();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->substr(0, 4), "XAR2");
  ASSERT_TRUE(live->Append(v5).ok());
  EXPECT_EQ(*after, *live->SaveToBytes());
  auto again = StoreRegistry::Global().OpenFromBytes(*after);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->version_count(), 5u);
  EXPECT_EQ(*(*again)->Retrieve(5), v5);
}

TEST(Xar2PromotionTest, FailedFirstIngestAfterMappedOpenKeepsTheIndex) {
  // The first ingest promotes the mapped store to the heap and publishes
  // the heap index after its merge. A key-violating first ingest must
  // still leave an index over the promoted archive, and unchanged answers.
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  const std::string bad =
      "<db>" + Entry(1, "x") + Entry(1, "duplicate key") + "</db>";
  const std::string good = Canonical("<db>" + Entry(5, "epsilon") + "</db>");
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "AppendBatch" : "Append");
    auto reopened_or = StoreRegistry::Global().OpenFromBytes(*bytes);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    Store& reopened = **reopened_or;
    Status failed = batch ? reopened.AppendBatch({good, bad})
                          : reopened.Append(bad);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kKeyViolation) << failed.ToString();
    EXPECT_EQ(reopened.version_count(), live->version_count());

    auto explained =
        RunQuery(reopened, "explain /db/entry[id=\"2\"] @ version 1");
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_NE(explained->find("archive-indexed"), std::string::npos)
        << *explained;
    EXPECT_EQ(explained->find("mapped=true"), std::string::npos)
        << *explained;
    for (const char* q : {
             "/db/entry[id=\"2\"] @ version 1",
             "/db/entry[*] @ versions 1..4",
             "/db/entry[id=\"2\"] history",
             "/db diff 2 4",
         }) {
      EXPECT_EQ(*RunQuery(reopened, q), *RunQuery(*live, q)) << q;
    }
    // The promoted store re-encodes to the live store's bytes, index
    // pages included.
    EXPECT_TRUE(*reopened.SaveToBytes() == *bytes);
  }
}

// --------------------------------------------- XAR1 fixtures (tests/data)

// Committed XAR1 snapshot files, one per backend, written by earlier
// builds that still wrote format 1. The registry must keep opening them,
// and every read must match a live store built from the same version
// texts — byte for byte. They are frozen (tests/data/README.md).
const std::string kFixtureBackends[] = {
    "archive",  "archive-weave", "incr-diff",
    "full-copy", "cum-diff",     "extmem",
    "compressed", "checkpoint-archive", "checkpoint-diff",
    "sharded",
};

std::string FixturePath(const std::string& backend) {
  return std::string(XARCH_TEST_DATA_DIR) + "/xar1_" + backend + ".xar";
}

std::string FixtureTestName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class Xar1FixtureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Xar1FixtureTest, CommittedSnapshotStillOpensByteIdentically) {
  const std::string& backend = GetParam();
  const std::string path = FixturePath(backend);
  const std::string bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), 4u) << path;
  ASSERT_EQ(bytes.substr(0, 4), "XAR1") << path;

  auto reopened_or = StoreRegistry::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << path << ": "
                                << reopened_or.status().ToString();
  Store& reopened = **reopened_or;
  std::unique_ptr<Store> live = MakeLiveStore(backend);

  EXPECT_EQ(reopened.name(), live->name());
  ASSERT_EQ(reopened.version_count(), live->version_count());
  for (Version v = 1; v <= live->version_count(); ++v) {
    auto a = live->Retrieve(v);
    auto b = reopened.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << backend << " v" << v;
  }
  auto a = RunQuery(*live, "/db/entry[*] @ versions 1..4");
  auto b = RunQuery(reopened, "/db/entry[*] @ versions 1..4");
  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar1FixtureTest,
                         ::testing::ValuesIn(kFixtureBackends),
                         FixtureTestName);

// The XAR1 parser's hardening, on real legacy bytes: every single-byte
// flip of a committed fixture fails the open with kDataLoss (header bytes
// by the header CRC or magic, section bytes by their section CRC), every
// truncation fails, and a version field patched under a valid header CRC
// is rejected by the version check.
TEST_P(Xar1FixtureTest, EveryFlippedByteFailsWithDataLoss) {
  const std::string good = ReadAll(FixturePath(GetParam()));
  ASSERT_EQ(good.substr(0, 4), "XAR1");
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    auto opened = StoreRegistry::Global().OpenFromBytes(bad);
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << i << ": " << opened.status().ToString();
  }
}

TEST_P(Xar1FixtureTest, EveryTruncationFails) {
  const std::string good = ReadAll(FixturePath(GetParam()));
  ASSERT_EQ(good.substr(0, 4), "XAR1");
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto opened = StoreRegistry::Global().OpenFromBytes(good.substr(0, cut));
    EXPECT_FALSE(opened.ok()) << "cut at " << cut;
  }
}

// XAR1 sections are checksummed at open but LZSS payloads decompress only
// when a restorer reads them. A payload that passes its CRC yet decodes to
// the wrong length must still fail the open, so every restorer must read
// every section it was written with. Each LZSS section of each fixture
// gets its declared raw length bumped under a recomputed section CRC.
TEST(Xar1FixtureSweepTest, EveryLzssSectionIsDecodedAtOpen) {
  auto u64_at = [](const std::string& b, size_t at) {
    return static_cast<uint64_t>(U32At(b, at)) |
           (static_cast<uint64_t>(U32At(b, at + 4)) << 32);
  };
  size_t patched = 0;
  for (const std::string& backend : kFixtureBackends) {
    const std::string good = ReadAll(FixturePath(backend));
    ASSERT_EQ(good.substr(0, 4), "XAR1");
    const uint32_t count = U32At(good, 8);
    size_t at = 16;
    for (uint32_t s = 0; s < count; ++s) {
      const size_t start = at;
      const uint32_t name_len = U32At(good, at);
      const std::string name = good.substr(at + 4, name_len);
      const size_t flags_at = at + 4 + name_len;
      const uint64_t stored_len = u64_at(good, flags_at + 9);
      const size_t crc_at = flags_at + 17 + stored_len;
      ASSERT_LE(crc_at + 4, good.size()) << backend;
      if (good[flags_at] & 1) {
        std::string bad = good;
        bad[flags_at + 1] = static_cast<char>(bad[flags_at + 1] + 1);
        const std::string_view covered =
            std::string_view(bad).substr(start, crc_at - start);
        const uint32_t crc = persist::MaskCrc(persist::Crc32c(covered));
        for (int i = 0; i < 4; ++i) {
          bad[crc_at + i] = static_cast<char>(crc >> (8 * i));
        }
        auto opened = StoreRegistry::Global().OpenFromBytes(bad);
        EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
            << backend << " section " << name << ": "
            << opened.status().ToString();
        ++patched;
      }
      at = crc_at + 4;
    }
    EXPECT_EQ(at, good.size()) << backend;
  }
  EXPECT_GT(patched, 0u);
}

TEST_P(Xar1FixtureTest, PatchedVersionIsRejected) {
  std::string bytes = ReadAll(FixturePath(GetParam()));
  ASSERT_EQ(bytes.substr(0, 4), "XAR1");
  bytes[4] = 99;  // format version field
  // XAR1's header CRC covers the first 12 bytes and sits at offset 12;
  // rewrite it so the version check itself is what fails.
  uint32_t crc = persist::MaskCrc(persist::Crc32c(bytes.substr(0, 12)));
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>(crc >> (8 * i));
  }
  auto opened = StoreRegistry::Global().OpenFromBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << opened.status().ToString();
}

// ----------------------------------------------- XAR1 -> XAR2 migration

// Every backend reads XAR1 but writes only XAR2: a store opened from a
// committed XAR1 fixture, appended to and saved, comes back as XAR2 and,
// reopened through mmap, answers every read like a live store that
// ingested the same five versions. A query the backend cannot answer must
// fail the same way on both.
class Xar2FormatTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Xar2FormatTest, Xar1FixtureSavesAsXar2AfterAppend) {
  const std::string& backend = GetParam();
  const std::string fixture = FixturePath(backend);
  ASSERT_EQ(ReadAll(fixture).substr(0, 4), "XAR1") << fixture;
  auto opened = StoreRegistry::Open(fixture);
  ASSERT_TRUE(opened.ok()) << fixture << ": " << opened.status().ToString();

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE((*opened)->Append(v5).ok());
  ScratchDir dir("migrate");
  const std::string path = dir.File("store.xar");
  ASSERT_TRUE((*opened)->SaveToFile(path).ok());
  EXPECT_EQ(ReadAll(path).substr(0, 4), "XAR2");

  auto mapped_or = StoreRegistry::Open(path, {}, vfs::Vfs::Mmap());
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  Store& mapped = **mapped_or;
  std::unique_ptr<Store> live = MakeLiveStore(backend);
  ASSERT_TRUE(live->Append(v5).ok());

  // The migrated snapshot is the one a live store writes, byte for byte.
  EXPECT_EQ(ReadAll(path), *live->SaveToBytes());
  EXPECT_EQ(mapped.name(), live->name());
  ASSERT_EQ(mapped.version_count(), 5u);
  ASSERT_EQ(live->version_count(), 5u);
  for (Version v = 1; v <= live->version_count(); ++v) {
    auto a = live->Retrieve(v);
    auto b = mapped.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << backend << " v" << v;
  }
  for (const char* q : {
           "/db/entry[*] @ versions 1..5",
           "/db/entry[id=\"4\"] history",
           "/db diff 4 5",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(mapped, q);
    ASSERT_EQ(a.status().ToString(), b.status().ToString()) << q;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar2FormatTest,
                         ::testing::ValuesIn(kFixtureBackends),
                         FixtureTestName);

// ----------------------------- XAR2 fixtures with an `archive` section

// Committed XAR2 files from builds that still wrote the compact archive
// XML beside the flat records (tests/data/README.md). They open through
// the same flat path as current files — the `archive` section is
// checksummed and otherwise ignored — and the first Append builds the
// heap archive from the flat records.
class Xar2ArchiveSectionTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(Xar2ArchiveSectionTest, OpensMappedAndPromotesFromFlatRecords) {
  const std::string& backend = GetParam();
  const std::string path =
      std::string(XARCH_TEST_DATA_DIR) + "/xar2_" + backend + ".xar";
  auto view = persist::SnapshotView::OpenFromBytes(ReadAll(path));
  ASSERT_TRUE(view.ok()) << path << ": " << view.status().ToString();
  ASSERT_EQ(view->bytes().substr(0, 4), "XAR2");
  ASSERT_TRUE(view->HasSection("archive")) << path;

  auto mapped_or = OpenMapped(path);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  Store& mapped = **mapped_or;
  std::unique_ptr<Store> live = MakeLiveStore(backend, /*use_index=*/true);
  ASSERT_EQ(mapped.version_count(), live->version_count());
  for (Version v = 1; v <= live->version_count(); ++v) {
    EXPECT_EQ(*mapped.Retrieve(v), *live->Retrieve(v)) << "v" << v;
  }
  auto explained = RunQuery(mapped, "explain /db/entry[id=\"2\"] @ version 1");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("mapped=true"), std::string::npos) << *explained;
  for (const char* q : {
           "/db/entry[id=\"2\"] @ version 1",
           "/db/entry[*] @ versions 1..4",
           "/db/entry[id=\"2\"] history",
           "/db diff 1 2",
           "/db diff 2 4",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(mapped, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  const std::vector<core::KeyStep> entry3 = {{"db", {}},
                                             {"entry", {{"id", "3"}}}};
  EXPECT_EQ(mapped.History(entry3)->ToString(),
            live->History(entry3)->ToString());
  EXPECT_EQ(core::FormatChanges(*mapped.DiffVersions(1, 4)),
            core::FormatChanges(*live->DiffVersions(1, 4)));

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE(mapped.Append(v5).ok());
  ASSERT_TRUE(live->Append(v5).ok());
  for (Version v = 1; v <= 5; ++v) {
    EXPECT_EQ(*mapped.Retrieve(v), *live->Retrieve(v)) << "v" << v;
  }
  auto resaved = mapped.SaveToBytes();
  ASSERT_TRUE(resaved.ok());
  auto resaved_view = persist::SnapshotView::OpenFromBytes(*resaved);
  ASSERT_TRUE(resaved_view.ok());
  EXPECT_FALSE(resaved_view->HasSection("archive"));
  EXPECT_EQ(*resaved, *live->SaveToBytes());
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar2ArchiveSectionTest,
                         ::testing::Values("archive", "archive-weave"),
                         FixtureTestName);

// ------------------------------------------------ indexed XAR2 fixtures

// Committed XAR2 files in today's layout, index pages of sorted child ids
// included (tests/data/README.md): a live indexed store must write them
// byte for byte, and the mapped index must probe exactly as the live one.
class Xar2IndexedFixtureTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::string Path() const {
    return std::string(XARCH_TEST_DATA_DIR) + "/xar2_sorted_ids_" +
           GetParam() + ".xar";
  }
};

TEST_P(Xar2IndexedFixtureTest, LiveSaveEqualsCommittedBytes) {
  std::unique_ptr<Store> live = MakeLiveStore(GetParam(), /*use_index=*/true);
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  const std::string committed = ReadAll(Path());
  ASSERT_FALSE(committed.empty()) << Path();
  EXPECT_EQ(*bytes, committed);
}

TEST_P(Xar2IndexedFixtureTest, OpensMappedWithLiveExplain) {
  auto view = persist::SnapshotView::OpenFromBytes(ReadAll(Path()));
  ASSERT_TRUE(view.ok()) << Path() << ": " << view.status().ToString();
  ASSERT_TRUE(view->HasSection("index")) << Path();
  auto mapped_or = OpenMapped(Path());
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  std::unique_ptr<Store> live = MakeLiveStore(GetParam(), /*use_index=*/true);
  const std::string marker = " (mapped=true)";
  for (const char* q : {
           "explain /db/entry[id=\"2\"] @ version 1",
           "explain /db/entry[id=\"2\"] @ version 2",
           "explain /db/entry[*] @ versions 1..4",
           "explain /db/entry[id=\"3\"] history",
           "explain /db @ version 4",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(**mapped_or, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(a->find(marker), std::string::npos) << *a;
    std::string stripped = *b;
    const size_t at = stripped.find(marker);
    ASSERT_NE(at, std::string::npos) << *b;
    stripped.erase(at, marker.size());
    EXPECT_EQ(stripped, *a) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar2IndexedFixtureTest,
                         ::testing::Values("archive", "archive-weave"),
                         FixtureTestName);

// ------------------------------------ XAR2 fixtures with timestamp trees

// Committed XAR2 files whose index entries end in a Sec. 7.1 timestamp-tree
// trailer (tests/data/README.md): `xar2_<backend>` also carries the old
// `archive` section, `xar2_indexed_<backend>` does not. Attach checks each
// trailer's sizes and skips it, so every read matches a live store, and
// the first Append saves today's layout.
class Xar2TreeLayoutFixtureTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::string Backend() const {
    return GetParam().substr(GetParam().rfind('_') + 1);
  }
  std::string Path() const {
    return std::string(XARCH_TEST_DATA_DIR) + "/" + GetParam() + ".xar";
  }
};

TEST_P(Xar2TreeLayoutFixtureTest, OpensMappedLikeLiveAndSavesTodaysLayout) {
  auto mapped_or = OpenMapped(Path());
  ASSERT_TRUE(mapped_or.ok()) << Path() << ": "
                              << mapped_or.status().ToString();
  Store& mapped = **mapped_or;
  std::unique_ptr<Store> live = MakeLiveStore(Backend(), /*use_index=*/true);
  ASSERT_EQ(mapped.version_count(), live->version_count());
  for (Version v = 1; v <= live->version_count(); ++v) {
    EXPECT_EQ(*mapped.Retrieve(v), *live->Retrieve(v)) << "v" << v;
  }
  for (const char* q : {
           "/db/entry[id=\"2\"] @ version 1",
           "/db/entry[*] @ versions 1..4",
           "/db/entry[id=\"3\"] history",
           "/db/entry[id=\"9\"] history",
           "/db diff 1 2",
           "/db diff 2 4",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(mapped, q);
    ASSERT_EQ(a.status().ToString(), b.status().ToString()) << q;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << q;
    }
  }
  const std::string marker = " (mapped=true)";
  for (const char* q : {
           "explain /db/entry[id=\"2\"] @ version 2",
           "explain /db/entry[*] @ versions 1..4",
           "explain /db/entry[id=\"3\"] history",
           "explain /db diff 1 4",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(mapped, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    std::string stripped = *b;
    const size_t at = stripped.find(marker);
    ASSERT_NE(at, std::string::npos) << *b;
    stripped.erase(at, marker.size());
    EXPECT_EQ(stripped, *a) << q;
  }
  for (const std::vector<core::KeyStep>& path :
       std::vector<std::vector<core::KeyStep>>{
           {{"db", {}}, {"entry", {{"id", "3"}}}},
           {{"db", {}}, {"entry", {{"id", "9"}}}},
           {{"db", {}}, {"entry", {{"id", "1"}}}, {"note", {}}, {"x", {}}}}) {
    auto a = live->History(path);
    auto b = mapped.History(path);
    ASSERT_EQ(a.status().ToString(), b.status().ToString());
    if (a.ok()) {
      EXPECT_EQ(a->ToString(), b->ToString());
    }
  }
  EXPECT_EQ(core::FormatChanges(*mapped.DiffVersions(1, 4)),
            core::FormatChanges(*live->DiffVersions(1, 4)));

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE(mapped.Append(v5).ok());
  ASSERT_TRUE(live->Append(v5).ok());
  auto resaved = mapped.SaveToBytes();
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_EQ(*resaved, *live->SaveToBytes());
}

/// The committed tree-layout snapshot at `path` with its "index" section
/// edited by `patch` and every section rewritten raw, so the container
/// passes every CRC.
std::string PatchedIndexPages(const std::string& path,
                              const std::function<void(std::string*)>& patch) {
  auto view = persist::SnapshotView::OpenFromBytes(ReadAll(path));
  EXPECT_TRUE(view.ok()) << path;
  persist::SnapshotWriter writer;
  for (const std::string& name : view->names()) {
    std::string section = *view->SectionString(name);
    if (name == "index") patch(&section);
    writer.AddRaw(name, std::move(section));
  }
  return writer.Serialize();
}

// The trailer is skipped, not trusted: a tree whose sizes disagree with
// its entry or whose leaves are not the node's children fails the open.
TEST_P(Xar2TreeLayoutFixtureTest, MalformedTreeTrailerFailsTheOpen) {
  // <db>'s entry (page 1): u32 sorted_count and the sorted child ids, then
  // the trailer: u32 leaf_count, u32 tree_node_count, i32 root, 20-byte
  // records.
  auto blob = [](const std::string& pages) {
    return 4 + 4 * (size_t{U32At(pages, 0)} + 1);
  };
  auto trailer = [&](const std::string& pages) {
    const size_t entry = blob(pages) + U32At(pages, 8);
    return entry + 4 + 4 * size_t{U32At(pages, entry)};
  };
  auto add = [](std::string* pages, size_t at, int32_t delta) {
    SetU32At(pages, at, U32At(*pages, at) + delta);
  };
  // Grows (or shrinks) <db>'s entry by `delta` bytes at its end.
  auto resize = [&](std::string* pages, int32_t delta) {
    const size_t end = blob(*pages) + U32At(*pages, 12);
    if (delta > 0) {
      pages->insert(end, static_cast<size_t>(delta), '\0');
    } else {
      pages->erase(end + delta, static_cast<size_t>(-delta));
    }
    for (uint32_t n = 2; n <= U32At(*pages, 0); ++n) add(pages, 4 + 4 * n, delta);
  };
  const std::map<std::string, std::function<void(std::string*)>> cases = {
      {"tree_node_count disagrees with the entry length",
       [&](std::string* pages) { add(pages, trailer(*pages) + 4, 1); }},
      {"entry one record short",
       [&](std::string* pages) { resize(pages, -20); }},
      {"leaf_count differs from the child count",
       [&](std::string* pages) {
         // One more leaf and its pairing node, sizes consistent with it.
         add(pages, trailer(*pages), 1);
         add(pages, trailer(*pages) + 4, 2);
         resize(pages, 40);
       }},
  };
  // Rewritten unpatched, the snapshot opens.
  ASSERT_TRUE(OpenBytes(PatchedIndexPages(Path(), [](std::string*) {})).ok());
  for (const auto& [what, patch] : cases) {
    auto opened = OpenBytes(PatchedIndexPages(Path(), patch));
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << what << ": " << opened.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar2TreeLayoutFixtureTest,
                         ::testing::Values("xar2_archive",
                                           "xar2_archive-weave",
                                           "xar2_indexed_archive",
                                           "xar2_indexed_archive-weave"),
                         FixtureTestName);

// ------------------------------------------------------- history status

// Store::History runs one walk whatever resolves its keyed steps: an
// unindexed store, an indexed one on the heap and an indexed one over
// mapped pages return the same status for a path below a frontier node
// and for a missing key.
TEST(Xar2HistoryTest, IndexedAndUnindexedStoresFailAlike) {
  for (const std::string backend : {"archive", "archive-weave"}) {
    std::unique_ptr<Store> unindexed = MakeLiveStore(backend);
    std::unique_ptr<Store> indexed = MakeLiveStore(backend, true);
    auto mapped = OpenBytes(*indexed->SaveToBytes());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const std::vector<std::pair<std::vector<core::KeyStep>, StatusCode>>
        cases = {
            {{{"db", {}}, {"entry", {{"id", "1"}}}, {"note", {}}, {"x", {}}},
             StatusCode::kInvalidArgument},
            {{{"db", {}}, {"entry", {{"id", "9"}}}}, StatusCode::kNotFound},
        };
    for (const auto& [path, code] : cases) {
      const Status want = unindexed->History(path).status();
      EXPECT_EQ(want.code(), code) << backend << ": " << want.ToString();
      EXPECT_EQ(indexed->History(path).status().ToString(), want.ToString())
          << backend;
      EXPECT_EQ((*mapped)->History(path).status().ToString(), want.ToString())
          << backend;
    }
  }
}

// ------------------------------------------ flat-record decoder hardening

using Sections = std::map<std::string, std::string>;

/// Byte offset of field `f` of node record `n` in the "nodes" section.
size_t NodeField(uint32_t n, int f) { return 4 + 4 * (12 * n + f); }

/// The sid of `text` in the "strings" section.
uint32_t StringSid(const std::string& strings, const std::string& text) {
  const uint32_t count = U32At(strings, 0);
  const size_t blob = 4 + 4 * (count + 1);
  for (uint32_t sid = 0; sid < count; ++sid) {
    const uint32_t lo = U32At(strings, 4 + 4 * sid);
    const uint32_t hi = U32At(strings, 8 + 4 * sid);
    if (strings.compare(blob + lo, hi - lo, text) == 0) return sid;
  }
  ADD_FAILURE() << "no string " << text;
  return 0;
}

/// A checksum-valid XAR2 snapshot of `versions` whose sections `patch`
/// edited: every section is rewritten raw, as the archive writer stores
/// them, so the container passes every CRC.
std::string PatchedSnapshot(const std::vector<std::string>& versions,
                            const std::function<void(Sections*)>& patch) {
  auto live = StoreRegistry::Create("archive", OptionsWithSpec());
  EXPECT_TRUE(live.ok());
  for (const std::string& text : versions) {
    EXPECT_TRUE((*live)->Append(text).ok());
  }
  auto bytes = (*live)->SaveToBytes();
  EXPECT_TRUE(bytes.ok());
  auto view = persist::SnapshotView::OpenFromBytes(*bytes);
  EXPECT_TRUE(view.ok());
  Sections sections;
  for (const std::string& name : view->names()) {
    sections[name] = *view->SectionString(name);
  }
  patch(&sections);
  persist::SnapshotWriter writer;
  for (const std::string& name : view->names()) {
    writer.AddRaw(name, sections[name]);
  }
  return writer.Serialize();
}

// Each snapshot opens — the records are in bounds and in encoder order,
// so mapped reads navigate them — but they encode no archive a merge
// could produce. The first Append decodes them and fails with kDataLoss,
// leaving the store mapped and unchanged; Stats() and StoredBytes() have
// no status to return, so the failed decode shows as empty byte and node
// counts.
TEST(Xar2DecoderHardeningTest, InvariantBreakingRecordsFailTheFirstDecode) {
  struct Case {
    std::vector<std::string> versions;
    std::function<void(Sections*)> patch;
  };
  const std::vector<std::string> fixture = FixtureVersions();
  const std::map<std::string, Case> cases = {
      {"child stamp escapes its parent's",
       {fixture, [](Sections* s) {
         std::string& nodes = (*s)["nodes"];
         const uint32_t root_stamp = U32At(nodes, NodeField(0, 1));
         for (uint32_t n = 1; n < U32At(nodes, 0); ++n) {
           const uint32_t stamp = U32At(nodes, NodeField(n, 1));
           if (stamp == 0 || stamp == root_stamp ||
               U32At(nodes, NodeField(n, 7)) == 0) {
             continue;
           }
           SetU32At(&nodes, NodeField(U32At(nodes, NodeField(n, 6)), 1),
                    root_stamp);
           return;
         }
         ADD_FAILURE() << "no stamped inner node";
       }}},
      {"siblings out of label order",
       {fixture, [](Sections* s) {
         // Swap the key values of db's first two entries.
         const std::string& nodes = (*s)["nodes"];
         const uint32_t db = U32At(nodes, NodeField(0, 6));
         const uint32_t first = U32At(nodes, NodeField(db, 6));
         ASSERT_GE(U32At(nodes, NodeField(db, 7)), 2u);
         const size_t a = 4 + 8 * U32At(nodes, NodeField(first, 2)) + 4;
         const size_t b = 4 + 8 * U32At(nodes, NodeField(first + 1, 2)) + 4;
         std::string& parts = (*s)["parts"];
         const uint32_t value_a = U32At(parts, a);
         SetU32At(&parts, a, U32At(parts, b));
         SetU32At(&parts, b, value_a);
       }}},
      {"frontier flag contradicts the spec",
       // An empty <db> is an inner node with neither children nor
       // content, so a frontier flag on it still passes Attach.
       {{"<db/>"}, [](Sections* s) {
          std::string& nodes = (*s)["nodes"];
          ASSERT_EQ(U32At(nodes, 0), 2u);
          SetU32At(&nodes, NodeField(1, 10), 1);
        }}},
      {"frontier flag contradicts a changed spec",
       {fixture, [](Sections* s) {
          // With a key below <note>, note is no longer a frontier path.
          (*s)["spec"] += "\n(/db/entry/note, (x, {}))\n";
        }}},
      {"tag path not covered by the spec",
       {fixture, [](Sections* s) {
         std::string& nodes = (*s)["nodes"];
         const uint32_t note = StringSid((*s)["strings"], "note");
         const uint32_t db = StringSid((*s)["strings"], "db");
         for (uint32_t n = 0; n < U32At(nodes, 0); ++n) {
           if (U32At(nodes, NodeField(n, 0)) == note) {
             SetU32At(&nodes, NodeField(n, 0), db);  // /db/entry/db
             return;
           }
         }
         ADD_FAILURE() << "no note node";
       }}},
  };
  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  for (const auto& [what, bad] : cases) {
    const std::string bytes = PatchedSnapshot(bad.versions, bad.patch);
    const Version versions = static_cast<Version>(bad.versions.size());
    auto opened = OpenBytes(bytes);
    ASSERT_TRUE(opened.ok()) << what << ": " << opened.status().ToString();
    Store& store = **opened;
    for (int attempt = 0; attempt < 2; ++attempt) {
      Status appended = store.Append(v5);
      EXPECT_EQ(appended.code(), StatusCode::kDataLoss)
          << what << ": " << appended.ToString();
      const StoreStats stats = store.Stats();
      EXPECT_EQ(stats.versions, versions) << what;
      EXPECT_EQ(stats.stored_bytes, 0u) << what;
      EXPECT_EQ(stats.node_count, 0u) << what;
      EXPECT_EQ(store.StoredBytes(), "") << what;
    }
    EXPECT_EQ(store.version_count(), versions) << what;
    auto resaved = store.SaveToBytes();
    ASSERT_TRUE(resaved.ok()) << what;
    EXPECT_EQ(*resaved, bytes) << what;
    EXPECT_TRUE(store.Retrieve(1).ok()) << what;
  }
}

// Ranges that overlap or skip records would let two parents share one
// subtree, so a navigation or a decode could visit it exponentially often:
// a checksum-valid snapshot whose records leave the encoder's order fails
// the open itself.
TEST(Xar2DecoderHardeningTest, RecordsOutOfEncoderOrderFailTheOpen) {
  const std::map<std::string, std::function<void(Sections*)>> cases = {
      {"two entries share their children",
       [](Sections* s) {
         std::string& nodes = (*s)["nodes"];
         const uint32_t db = U32At(nodes, NodeField(0, 6));
         const uint32_t first = U32At(nodes, NodeField(db, 6));
         SetU32At(&nodes, NodeField(first + 1, 6),
                  U32At(nodes, NodeField(first, 6)));
       }},
      {"a content range restarts at the first record",
       [](Sections* s) {
         std::string& buckets = (*s)["buckets"];
         SetU32At(&buckets, 4 + 12 * (U32At(buckets, 0) - 1) + 4, 0);
       }},
      {"a key-part record is never claimed",
       [](Sections* s) {
         std::string& parts = (*s)["parts"];
         SetU32At(&parts, 0, U32At(parts, 0) + 1);
         parts += parts.substr(4, 8);
       }},
  };
  for (const auto& [what, patch] : cases) {
    auto opened = OpenBytes(PatchedSnapshot(FixtureVersions(), patch));
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << what << ": " << opened.status().ToString();
    EXPECT_NE(opened.status().message().find("encoder order"),
              std::string::npos)
        << what << ": " << opened.status().ToString();
  }
}

// -------------------------------------------------- corruption sweeps

std::string SavedXar2Snapshot(const std::string& path) {
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  EXPECT_TRUE(live->SaveToFile(path).ok());
  std::string good = ReadAll(path);
  EXPECT_EQ(good.substr(0, 4), "XAR2");
  EXPECT_TRUE(StoreRegistry::Open(path).ok());
  return good;
}

/// Writes every single-byte flip of `good` to `path` and opens it.
void ExpectEveryFlipFails(const std::string& path, const std::string& good) {
  // Stride-1 sweep: every single-byte flip must be caught — header and
  // section-table bytes by the header/table CRCs, payload bytes by their
  // section CRCs — before any flat-section decoding runs. Both open paths
  // (buffered and mmap-adopted) are exercised.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    WriteAll(path, bad);
    auto buffered = StoreRegistry::Open(path);
    EXPECT_FALSE(buffered.ok()) << "flip at byte " << i;
    EXPECT_EQ(buffered.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << i << ": " << buffered.status().ToString();
    auto mapped = StoreRegistry::Open(path, {}, vfs::Vfs::Mmap());
    EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss)
        << "mmap flip at byte " << i;
  }
}

/// Writes every proper prefix of `good` to `path` and opens it.
void ExpectEveryTruncationFails(const std::string& path,
                                const std::string& good) {
  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteAll(path, good.substr(0, cut));
    auto reopened = StoreRegistry::Open(path);
    EXPECT_FALSE(reopened.ok()) << "cut at " << cut;
    if (cut >= 4) {
      // With the magic intact the failure is always a checksum/bounds
      // verdict; shorter prefixes may not even read as a container.
      EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
          << "cut at " << cut << ": " << reopened.status().ToString();
    }
  }
}

TEST(Xar2CorruptionTest, EveryFlippedByteFailsWithDataLoss) {
  ScratchDir dir("flip");
  const std::string path = dir.File("s.xar");
  ExpectEveryFlipFails(path, SavedXar2Snapshot(path));
}

TEST(Xar2CorruptionTest, EveryTruncationFailsCleanly) {
  ScratchDir dir("cut");
  const std::string path = dir.File("s.xar");
  ExpectEveryTruncationFails(path, SavedXar2Snapshot(path));
}

// The same sweeps over the committed sorted-id fixtures.
class Xar2FixtureCorruptionTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::string Fixture() const {
    return ReadAll(std::string(XARCH_TEST_DATA_DIR) + "/xar2_sorted_ids_" +
                   GetParam() + ".xar");
  }
};

TEST_P(Xar2FixtureCorruptionTest, EveryFlippedByteFailsWithDataLoss) {
  ScratchDir dir("fixture_flip");
  ExpectEveryFlipFails(dir.File("s.xar"), Fixture());
}

TEST_P(Xar2FixtureCorruptionTest, EveryTruncationFailsCleanly) {
  ScratchDir dir("fixture_cut");
  ExpectEveryTruncationFails(dir.File("s.xar"), Fixture());
}

INSTANTIATE_TEST_SUITE_P(CommittedFixtures, Xar2FixtureCorruptionTest,
                         ::testing::Values("archive", "archive-weave"),
                         FixtureTestName);

}  // namespace
}  // namespace xarch
