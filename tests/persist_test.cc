// Durable on-disk archives: the snapshot container (magic + version +
// per-section CRC32C + optional LZSS), Store::SaveToFile /
// StoreRegistry::OpenFromFile round-trips over all nine backends (through
// the posix, mmap, and in-memory VFS backends), the append-only ingest log
// with torn-tail recovery, and the corrupt-input behavior of every decode
// path. Log and durable-store tests run entirely on MemVfs — no temp-dir
// churn, and "crash" is just dropping the writer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "persist/container.h"
#include "persist/crc32c.h"
#include "persist/log.h"
#include "persist/wire.h"
#include "synth/words.h"
#include "util/random.h"
#include "vfs/mem_vfs.h"
#include "vfs/vfs.h"
#include "xarch/durable.h"
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

/// Versions of a small keyed database (same generator family as
/// store_test): inserts, edits, and deletions so diffs and history are
/// non-trivial.
class WordsVersions {
 public:
  explicit WordsVersions(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 8; ++i) Insert();
  }

  std::string Next() {
    for (int m = 0; m < 2 && !entries_.empty(); ++m) {
      entries_[rng_.Uniform(0, entries_.size() - 1)].second =
          synth::Sentence(rng_, 3, 8);
    }
    Insert();
    if (entries_.size() > 5 && rng_.Uniform(0, 2) == 0) {
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

std::vector<std::string> Versions(uint64_t seed, int n) {
  WordsVersions gen(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (int v = 0; v < n; ++v) out.push_back(gen.Next());
  return out;
}

/// Fresh private scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("xarch_persist_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path,
                    vfs::Vfs* vfs = vfs::Vfs::Posix()) {
  auto bytes = vfs->ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes,
              vfs::Vfs* vfs = vfs::Vfs::Posix()) {
  auto file = vfs->OpenWritable(path, vfs::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok()) << path << ": " << file.status().ToString();
  ASSERT_TRUE((*file)->Append(bytes).ok()) << path;
  ASSERT_TRUE((*file)->Close().ok()) << path;
}

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // The iSCSI check value for "123456789".
  EXPECT_EQ(persist::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(persist::Crc32c(""), 0u);
  // 32 zero bytes (another published CRC-32C vector).
  EXPECT_EQ(persist::Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t crc = persist::Crc32cExtend(
        persist::Crc32c(data.substr(0, split)), data.substr(split));
    EXPECT_EQ(crc, persist::Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t v : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(persist::UnmaskCrc(persist::MaskCrc(v)), v);
  }
}

TEST(Crc32cTest, HardwareDispatchMatchesSliceBy8) {
  // Crc32c() routes through runtime dispatch (SSE4.2 / ARMv8 CRC when the
  // CPU has it); the slice-by-8 table implementation is the pinned
  // reference. Random lengths 0..600 cover every alignment of the wide
  // (8-byte) and narrow (1-byte) hardware paths, including lengths below
  // one word.
  SCOPED_TRACE(std::string("impl=") + persist::Crc32cImplementation());
  Rng rng(0x32c);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string data(rng.Uniform(0, 600), '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(0, 255));
    EXPECT_EQ(persist::Crc32c(data),
              persist::internal::Crc32cSoftwareExtend(0, data))
        << "trial " << trial << " len " << data.size();
  }
}

TEST(Crc32cTest, HardwareDispatchMatchesSliceBy8SeededExtend) {
  // Seeded extension (mid-stream CRC state) must agree too — the ingest
  // log and container checksums both extend across fragments.
  Rng rng(0xc32);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data(rng.Uniform(1, 300), '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(0, 255));
    const uint32_t seed = static_cast<uint32_t>(rng.Uniform(0, 0xFFFFFFFFu));
    EXPECT_EQ(persist::Crc32cExtend(seed, data),
              persist::internal::Crc32cSoftwareExtend(seed, data))
        << "trial " << trial;
  }
}

// ------------------------------------------------------------------- wire

TEST(WireTest, CursorRejectsTruncation) {
  std::string bytes;
  persist::PutU64(7, &bytes);
  persist::PutBytes("hello", &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    persist::Cursor cursor(std::string_view(bytes).substr(0, cut));
    uint64_t v = 0;
    std::string_view s;
    Status st = cursor.ReadU64(&v);
    if (st.ok()) st = cursor.ReadBytes(&s);
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
  persist::Cursor cursor(bytes);
  uint64_t v = 0;
  std::string_view s;
  ASSERT_TRUE(cursor.ReadU64(&v).ok());
  ASSERT_TRUE(cursor.ReadBytes(&s).ok());
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(cursor.ExpectDone().ok());
}

TEST(WireTest, DeclaredLengthBeyondInputIsDataLoss) {
  std::string bytes;
  persist::PutU64(1000, &bytes);  // length prefix promising 1000 bytes
  bytes += "abc";
  persist::Cursor cursor(bytes);
  std::string_view s;
  Status st = cursor.ReadBytes(&s);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

// -------------------------------------------------------------- container

TEST(ContainerTest, RoundTripsSections) {
  persist::SnapshotWriter writer;
  writer.Add("backend", "archive");
  writer.Add("empty", "");
  std::string big(4096, 'x');
  for (size_t i = 0; i < big.size(); i += 17) big[i] = 'y';
  writer.Add("big", big);
  std::string bytes = writer.Serialize();
  ASSERT_EQ(bytes.substr(0, 4), "XAR2");

  auto view = persist::SnapshotView::OpenFromBytes(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->names(),
            (std::vector<std::string>{"backend", "empty", "big"}));
  EXPECT_EQ(*view->SectionString("backend"), "archive");
  EXPECT_EQ(*view->SectionString("empty"), "");
  EXPECT_EQ(*view->SectionString("big"), big);
  EXPECT_FALSE(view->HasSection("absent"));
  EXPECT_EQ(view->SectionString("absent").status().code(),
            StatusCode::kDataLoss);
  // Short sections are stored verbatim and served in place; the
  // repetitive one got LZSS-compressed inside the container, so it is not.
  EXPECT_EQ(*view->RawSection("backend"), "archive");
  EXPECT_EQ(view->RawSection("big").status().code(), StatusCode::kDataLoss);
  EXPECT_LT(bytes.size(), big.size());
}

TEST(ContainerTest, EveryFlippedByteIsDetected) {
  persist::SnapshotWriter writer;
  writer.Add("backend", "archive");
  writer.Add("payload", "some payload bytes that matter");
  const std::string good = writer.Serialize();
  ASSERT_TRUE(persist::SnapshotView::OpenFromBytes(good).ok());

  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto view = persist::SnapshotView::OpenFromBytes(bad);
    // Every single-byte flip must be caught: header bytes by the header
    // CRC or magic check, payload bytes by their section CRC, table bytes
    // by the table CRC.
    EXPECT_FALSE(view.ok()) << "flip at byte " << i;
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << i << ": " << view.status().ToString();
  }
}

TEST(ContainerTest, EveryTruncationIsDetected) {
  persist::SnapshotWriter writer;
  writer.Add("a", "first section");
  writer.Add("b", "second section");
  const std::string good = writer.Serialize();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto view = persist::SnapshotView::OpenFromBytes(good.substr(0, cut));
    EXPECT_FALSE(view.ok()) << "cut at " << cut;
  }
}

TEST(ContainerTest, UnsupportedVersionIsRejected) {
  persist::SnapshotWriter writer;
  writer.Add("backend", "archive");
  std::string bytes = writer.Serialize();
  bytes[4] = 99;  // format version field
  // Bumping the version also breaks the header CRC (over the first 36
  // bytes, stored at offset 36); rewrite it so the version check itself is
  // exercised.
  uint32_t crc = persist::MaskCrc(persist::Crc32c(bytes.substr(0, 36)));
  for (int i = 0; i < 4; ++i) {
    bytes[36 + i] = static_cast<char>(crc >> (8 * i));
  }
  auto view = persist::SnapshotView::OpenFromBytes(bytes);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("version"), std::string::npos);
}

TEST(ContainerTest, AtomicWriteReplacesAndNeverTears) {
  ScratchDir dir("atomic");
  std::string path = dir.File("file.bin");
  vfs::Vfs& posix = *vfs::Vfs::Posix();
  ASSERT_TRUE(vfs::AtomicWriteFile(posix, path, "first", true).ok());
  EXPECT_EQ(ReadAll(path), "first");
  ASSERT_TRUE(vfs::AtomicWriteFile(posix, path, "second", false).ok());
  EXPECT_EQ(ReadAll(path), "second");
  EXPECT_EQ(*posix.Exists(path + ".tmp"), false);
}

TEST(ContainerTest, AtomicWriteOnMemVfsLeavesNoTempFile) {
  // The same staged-rename protocol runs unchanged on the in-memory VFS:
  // one file after the dust settles, no .tmp stragglers.
  vfs::MemVfs mem;
  ASSERT_TRUE(vfs::AtomicWriteFile(mem, "dir/file.bin", "payload", true).ok());
  EXPECT_EQ(ReadAll("dir/file.bin", &mem), "payload");
  EXPECT_EQ(*mem.Exists("dir/file.bin.tmp"), false);
  EXPECT_EQ(mem.file_count(), 1u);
  ASSERT_TRUE(vfs::AtomicWriteFile(mem, "dir/file.bin", "v2", false).ok());
  EXPECT_EQ(ReadAll("dir/file.bin", &mem), "v2");
  EXPECT_EQ(mem.file_count(), 1u);
}

// ------------------------------------------------- store snapshot parity

const std::string kNineBackends[] = {
    "archive",    "archive-weave",      "incr-diff",
    "cum-diff",   "full-copy",          "extmem",
    "compressed", "checkpoint-archive", "checkpoint-diff",
};

// (backend, vfs kind): every backend's snapshot must round-trip through
// every VFS — buffered posix reads, a zero-copy mmap open, and the pure
// in-memory file system.
class SnapshotRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SnapshotRoundTripTest, SaveOpenParity) {
  const std::string& backend = std::get<0>(GetParam());
  const std::string& vfs_kind = std::get<1>(GetParam());
  auto live_or = StoreRegistry::Create(backend, OptionsWithSpec());
  ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
  Store& live = **live_or;

  const auto texts = Versions(/*seed=*/42, 7);
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(live.Append(texts[i]).ok()) << backend << " v" << (i + 1);
    if (i == 3 && live.Has(kCheckpoint)) {
      ASSERT_TRUE(live.Checkpoint().ok()) << backend;
    }
  }
  ASSERT_TRUE(live.Has(kPersistence)) << backend;

  ScratchDir dir("roundtrip");
  vfs::MemVfs mem;
  vfs::Vfs* save_vfs = vfs::Vfs::Posix();
  vfs::Vfs* open_vfs = vfs::Vfs::Posix();
  std::string path = dir.File("store.xar");
  if (vfs_kind == "mem") {
    save_vfs = open_vfs = &mem;
    path = "snapshots/store.xar";
    ASSERT_TRUE(mem.CreateDirs("snapshots").ok());
  } else if (vfs_kind == "mmap") {
    open_vfs = vfs::Vfs::Mmap();  // parse straight out of the mapping
  }
  ASSERT_TRUE(live.SaveToFile(path, save_vfs).ok()) << backend;
  // Every backend writes the one container format.
  auto saved = save_vfs->ReadFile(path);
  ASSERT_TRUE(saved.ok()) << backend << ": " << saved.status().ToString();
  EXPECT_EQ(saved->substr(0, 4), "XAR2") << backend;

  auto reopened_or = StoreRegistry::Open(path, {}, open_vfs);
  ASSERT_TRUE(reopened_or.ok()) << backend << ": "
                                << reopened_or.status().ToString();
  Store& reopened = **reopened_or;

  EXPECT_EQ(reopened.name(), live.name()) << backend;
  EXPECT_EQ(reopened.capabilities(), live.capabilities()) << backend;
  ASSERT_EQ(reopened.version_count(), live.version_count()) << backend;

  // Byte-identical retrieval of every version.
  for (Version v = 1; v <= live.version_count(); ++v) {
    auto a = live.Retrieve(v);
    auto b = reopened.Retrieve(v);
    ASSERT_TRUE(a.ok()) << backend << " live v" << v;
    ASSERT_TRUE(b.ok()) << backend << " reopened v" << v
                        << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << backend << " v" << v;
  }
  if (live.Has(kStreamingRetrieve)) {
    StringSink a, b;
    ASSERT_TRUE(live.RetrieveTo(2, a).ok()) << backend;
    ASSERT_TRUE(reopened.RetrieveTo(2, b).ok()) << backend;
    EXPECT_EQ(a.data(), b.data()) << backend;
  }

  // Query parity (every backend advertises kQuery).
  {
    StringSink a, b;
    const char* q = "/db/entry[*] @ versions 1..4";
    ASSERT_TRUE(live.Query(q, a).ok()) << backend;
    ASSERT_TRUE(reopened.Query(q, b).ok()) << backend;
    EXPECT_EQ(a.data(), b.data()) << backend;
  }
  if (live.Has(kTemporalQueries)) {
    auto a = live.History({{"db", {}}, {"entry", {{"id", "3"}}}});
    auto b = reopened.History({{"db", {}}, {"entry", {{"id", "3"}}}});
    ASSERT_TRUE(a.ok() && b.ok()) << backend;
    EXPECT_EQ(a->ToString(), b->ToString()) << backend;
    auto da = live.DiffVersions(2, 6);
    auto db = reopened.DiffVersions(2, 6);
    ASSERT_TRUE(da.ok() && db.ok()) << backend;
    ASSERT_EQ(da->size(), db->size()) << backend;
  }

  // Stats parity on the state-derived counters (I/O and merge-pass
  // counters are runtime history, not state, and start fresh on open).
  StoreStats a = live.Stats();
  StoreStats b = reopened.Stats();
  EXPECT_EQ(a.versions, b.versions) << backend;
  EXPECT_EQ(a.stored_bytes, b.stored_bytes) << backend;
  EXPECT_EQ(a.node_count, b.node_count) << backend;
  EXPECT_EQ(a.checkpoint_segments, b.checkpoint_segments) << backend;
  EXPECT_EQ(a.max_retrieval_applications, b.max_retrieval_applications)
      << backend;

  // The reopened store keeps ingesting correctly from where it left off.
  WordsVersions more(/*seed=*/43);
  std::string next = more.Next();
  ASSERT_TRUE(reopened.Append(next).ok()) << backend;
  EXPECT_EQ(reopened.version_count(), live.version_count() + 1) << backend;
  EXPECT_TRUE(reopened.Retrieve(reopened.version_count()).ok()) << backend;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapshotRoundTripTest,
    ::testing::Combine(::testing::ValuesIn(kNineBackends),
                       ::testing::Values("posix", "mmap", "mem")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(SnapshotTest, PendingForcedCheckpointSurvivesTheRoundTrip) {
  auto live_or = StoreRegistry::Create("checkpoint-diff", OptionsWithSpec());
  ASSERT_TRUE(live_or.ok());
  Store& live = **live_or;
  const auto texts = Versions(/*seed=*/5, 3);
  ASSERT_TRUE(live.Append(texts[0]).ok());
  ASSERT_TRUE(live.Append(texts[1]).ok());
  ASSERT_TRUE(live.Checkpoint().ok());  // pending at save time

  ScratchDir dir("pending");
  ASSERT_TRUE(live.SaveToFile(dir.File("s.xar")).ok());
  auto reopened = StoreRegistry::Open(dir.File("s.xar"));
  ASSERT_TRUE(reopened.ok());

  ASSERT_TRUE(live.Append(texts[2]).ok());
  ASSERT_TRUE((*reopened)->Append(texts[2]).ok());
  EXPECT_EQ((*reopened)->Stats().checkpoint_segments,
            live.Stats().checkpoint_segments);
  EXPECT_EQ((*reopened)->Stats().checkpoint_segments, 2u);
}

TEST(SnapshotTest, SnapshotOfEmptyStoreReopensEmpty) {
  for (const std::string& backend : kNineBackends) {
    auto live = StoreRegistry::Create(backend, OptionsWithSpec());
    ASSERT_TRUE(live.ok()) << backend;
    ScratchDir dir("empty");
    ASSERT_TRUE((*live)->SaveToFile(dir.File("s.xar")).ok()) << backend;
    auto reopened = StoreRegistry::Open(dir.File("s.xar"));
    ASSERT_TRUE(reopened.ok()) << backend << ": "
                               << reopened.status().ToString();
    EXPECT_EQ((*reopened)->version_count(), 0u) << backend;
    // And it ingests from empty.
    EXPECT_TRUE((*reopened)->Append(Versions(9, 1)[0]).ok()) << backend;
  }
}

TEST(SnapshotTest, CorruptSnapshotFilesNeverOpen) {
  auto live = StoreRegistry::Create("archive", OptionsWithSpec());
  ASSERT_TRUE(live.ok());
  for (const std::string& text : Versions(/*seed=*/77, 4)) {
    ASSERT_TRUE((*live)->Append(text).ok());
  }
  ScratchDir dir("corrupt");
  const std::string path = dir.File("s.xar");
  ASSERT_TRUE((*live)->SaveToFile(path).ok());
  const std::string good = ReadAll(path);
  ASSERT_TRUE(StoreRegistry::Open(path).ok());

  // Flip one byte at a time across the whole file (stride 1 keeps the
  // suite honest and is still fast at snapshot sizes).
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    WriteAll(path, bad);
    auto reopened = StoreRegistry::Open(path);
    EXPECT_FALSE(reopened.ok()) << "flip at byte " << i;
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << i;
  }
  // Truncations at every boundary fail cleanly too.
  for (size_t cut = 0; cut < good.size(); cut += 13) {
    WriteAll(path, good.substr(0, cut));
    EXPECT_FALSE(StoreRegistry::Open(path).ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, MissingFileAndUnknownBackendFailCleanly) {
  // The VFS distinguishes a missing file (kNotFound) from a failing disk
  // (kIoError); pre-VFS this surfaced as a generic I/O error.
  EXPECT_EQ(StoreRegistry::Open("/nonexistent/path/s.xar").status().code(),
            StatusCode::kNotFound);
  persist::SnapshotWriter writer;
  writer.Add("backend", "no-such-backend");
  auto opened = StoreRegistry::Global().OpenFromBytes(writer.Serialize());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ ingest log

TEST(IngestLogTest, AppendReadRoundTrip) {
  vfs::MemVfs mem;
  const std::string path = "ingest.log";
  {
    auto writer = persist::IngestLogWriter::Open(&mem, path,
                                                 persist::FsyncPolicy::kNever);
    ASSERT_TRUE(writer.ok());
    persist::LogRecord a{persist::LogRecord::kAppend, 1, {"<db/>"}};
    persist::LogRecord b{
        persist::LogRecord::kBatch, 2, {"<db>x</db>", "<db>y</db>"}};
    persist::LogRecord c{persist::LogRecord::kCheckpoint, 4, {}};
    ASSERT_TRUE(writer->Append(a).ok());
    ASSERT_TRUE(writer->Append(b).ok());
    ASSERT_TRUE(writer->Append(c).ok());
  }
  auto replay = persist::ReadIngestLog(&mem, path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].texts[0], "<db/>");
  EXPECT_EQ(replay->records[1].texts.size(), 2u);
  EXPECT_EQ(replay->records[1].first_version, 2u);
  EXPECT_EQ(replay->records[2].type, persist::LogRecord::kCheckpoint);
  EXPECT_EQ(replay->valid_bytes, *mem.FileSize(path));
}

TEST(IngestLogTest, MissingLogIsEmptyAndForeignFileIsRejected) {
  vfs::MemVfs mem;
  auto replay = persist::ReadIngestLog(&mem, "absent.log");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());

  WriteAll("foreign.log", "this is not a log file at all", &mem);
  auto foreign = persist::ReadIngestLog(&mem, "foreign.log");
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kDataLoss);
}

TEST(IngestLogTest, TornTailAtEveryByteKeepsIntactRecords) {
  vfs::MemVfs mem;
  const std::string path = "ingest.log";
  size_t size_before_last = 0;
  {
    auto writer = persist::IngestLogWriter::Open(&mem, path,
                                                 persist::FsyncPolicy::kNever);
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 3; ++i) {
      persist::LogRecord rec{persist::LogRecord::kAppend,
                             static_cast<Version>(i),
                             {"<db>version " + std::to_string(i) + "</db>"}};
      ASSERT_TRUE(writer->Append(rec).ok());
    }
  }
  const std::string full = ReadAll(path, &mem);
  // Recompute the offset where the final record begins: re-write the first
  // two records into a scratch log and measure.
  {
    auto writer = persist::IngestLogWriter::Open(&mem, "probe.log",
                                                 persist::FsyncPolicy::kNever);
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 2; ++i) {
      persist::LogRecord rec{persist::LogRecord::kAppend,
                             static_cast<Version>(i),
                             {"<db>version " + std::to_string(i) + "</db>"}};
      ASSERT_TRUE(writer->Append(rec).ok());
    }
    size_before_last = *mem.FileSize("probe.log");
  }
  ASSERT_LT(size_before_last, full.size());

  // Every byte boundary inside the final record: the first two records
  // survive, the torn third is dropped and the truncation point is exact.
  // (A cut exactly at the record boundary is a clean two-record log, not
  // a torn one.)
  for (size_t cut = size_before_last; cut < full.size(); ++cut) {
    WriteAll(path, full.substr(0, cut), &mem);
    auto replay = persist::ReadIngestLog(&mem, path);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    EXPECT_EQ(replay->records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(replay->torn_tail, cut != size_before_last) << "cut at " << cut;
    EXPECT_EQ(replay->valid_bytes, size_before_last) << "cut at " << cut;
  }
  WriteAll(path, full, &mem);
  auto intact = persist::ReadIngestLog(&mem, path);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact->records.size(), 3u);
  EXPECT_FALSE(intact->torn_tail);
}

TEST(IngestLogTest, MidLogBitFlipIsRefusedNotTruncated) {
  vfs::MemVfs mem;
  const std::string path = "ingest.log";
  {
    auto writer = persist::IngestLogWriter::Open(&mem, path,
                                                 persist::FsyncPolicy::kNever);
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 3; ++i) {
      persist::LogRecord rec{persist::LogRecord::kAppend,
                             static_cast<Version>(i),
                             {"<db>version " + std::to_string(i) + "</db>"}};
      ASSERT_TRUE(writer->Append(rec).ok());
    }
  }
  std::string bytes = ReadAll(path, &mem);
  // Flip a payload byte of the FIRST record (well before the tail).
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);
  WriteAll(path, bytes, &mem);
  auto replay = persist::ReadIngestLog(&mem, path);
  // The flip lands in record 1: it reads as a torn tail at record 1 — no
  // intact record is ever dropped silently, and nothing after the bad
  // record is replayed out of order.
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_TRUE(replay->records.empty());
}

// --------------------------------------------------------- durable stores

/// Every durable-store test runs on a MemVfs: `options.vfs` points the
/// whole snapshot + WAL stack at it, "crash" is dropping the writer, and
/// reopening the same directory name replays whatever "survived".
DurableOptions DurableOpts(vfs::Vfs* vfs,
                           const std::string& backend = "archive") {
  DurableOptions options;
  options.backend = backend;
  options.store = OptionsWithSpec();
  options.fsync = persist::FsyncPolicy::kNever;  // tests: speed over crash-
                                                 // durability of the OS cache
  options.vfs = vfs;
  return options;
}

TEST(DurableStoreTest, SurvivesReopenWithoutSnapshot) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/3, 5);
  {
    auto store = OpenDurable("durable1", DurableOpts(&mem));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->name(), "durable(archive)");
    for (const auto& text : texts) ASSERT_TRUE((*store)->Append(text).ok());
    EXPECT_EQ((*store)->version_count(), texts.size());
  }  // process "exit": only the log file persists the data
  auto reopened = OpenDurable("durable1", DurableOpts(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->version_count(), texts.size());
  for (Version v = 1; v <= texts.size(); ++v) {
    EXPECT_TRUE((*reopened)->Retrieve(v).ok()) << "v" << v;
  }
}

TEST(DurableStoreTest, SnapshotPlusLogRecovery) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/4, 6);
  std::vector<std::string> expected;
  {
    auto store_or = DurableStore::Open("durable2", DurableOpts(&mem));
    ASSERT_TRUE(store_or.ok());
    DurableStore& store = **store_or;
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(store.Append(texts[i]).ok());
    ASSERT_TRUE(store.CompactNow().ok());  // snapshot covers 1..4
    EXPECT_EQ(store.log_records(), 0u);
    for (int i = 4; i < 6; ++i) ASSERT_TRUE(store.Append(texts[i]).ok());
    EXPECT_EQ(store.log_records(), 2u);  // only 5..6 in the log
    for (Version v = 1; v <= 6; ++v) {
      expected.push_back(store.Retrieve(v).value());
    }
  }
  ASSERT_TRUE(*mem.Exists("durable2/snapshot.xar"));
  auto reopened = OpenDurable("durable2", DurableOpts(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->version_count(), 6u);
  for (Version v = 1; v <= 6; ++v) {
    EXPECT_EQ((*reopened)->Retrieve(v).value(), expected[v - 1]) << "v" << v;
  }
}

TEST(DurableStoreTest, TornFinalRecordRecoversEveryLoggedVersion) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/8, 4);
  {
    auto store = OpenDurable("durable3", DurableOpts(&mem));
    ASSERT_TRUE(store.ok());
    for (const auto& text : texts) ASSERT_TRUE((*store)->Append(text).ok());
  }
  const std::string log_path = "durable3/ingest.log";
  const std::string full = ReadAll(log_path, &mem);
  auto replay = persist::ReadIngestLog(&mem, log_path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 4u);
  // Offset where the final record starts = file minus its frame.
  std::string probe;
  {
    persist::LogRecord last = replay->records.back();
    std::string body;
    persist::PutU8(last.type, &body);
    persist::PutU32(last.first_version, &body);
    persist::PutU32(1, &body);
    persist::PutBytes(last.texts[0], &body);
    probe = body;
  }
  const size_t last_frame = probe.size() + 8;
  const size_t last_start = full.size() - last_frame;

  // Simulated torn write at EVERY byte boundary of the final record: the
  // durable store reopens with versions 1..3 intact, none rejected. The
  // directory holds only the log here (no compaction ran), so a "crashed
  // copy" per cut is a fresh directory with the truncated log alone.
  for (size_t cut = last_start; cut < full.size(); ++cut) {
    const std::string copy = "durable3_cut" + std::to_string(cut);
    WriteAll(copy + "/ingest.log", full.substr(0, cut), &mem);
    auto reopened = OpenDurable(copy, DurableOpts(&mem));
    ASSERT_TRUE(reopened.ok()) << "cut at " << cut << ": "
                               << reopened.status().ToString();
    ASSERT_EQ((*reopened)->version_count(), 3u) << "cut at " << cut;
    for (Version v = 1; v <= 3; ++v) {
      auto got = (*reopened)->Retrieve(v);
      ASSERT_TRUE(got.ok()) << "cut at " << cut << " v" << v;
      EXPECT_FALSE(got->empty());
    }
    // The torn tail was truncated away: a subsequent reopen is clean.
    auto again = OpenDurable(copy, DurableOpts(&mem));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again)->version_count(), 3u);
  }
}

TEST(DurableStoreTest, CrashBetweenSnapshotAndTruncateNeverDoubleApplies) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/12, 3);
  std::string pre_compact_log;
  {
    auto store = OpenDurable("durable4", DurableOpts(&mem));
    ASSERT_TRUE(store.ok());
    for (const auto& text : texts) ASSERT_TRUE((*store)->Append(text).ok());
    pre_compact_log = ReadAll("durable4/ingest.log", &mem);
  }
  {
    auto store_or = DurableStore::Open("durable4", DurableOpts(&mem));
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->CompactNow().ok());
  }
  // Simulate the crash: snapshot written, log truncation lost.
  WriteAll("durable4/ingest.log", pre_compact_log, &mem);
  auto reopened = OpenDurable("durable4", DurableOpts(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), texts.size());  // not 2x
}

TEST(DurableStoreTest, LogGapIsRefusedNotRenumbered) {
  // A log whose records jump from version 1 to version 3 means an ingest
  // was applied but never logged; replaying would silently renumber the
  // later versions, so recovery must refuse with kDataLoss instead.
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/61, 3);
  {
    auto writer = persist::IngestLogWriter::Open(
        &mem, "durable_gap/ingest.log", persist::FsyncPolicy::kNever);
    ASSERT_TRUE(writer.ok());
    persist::LogRecord first{persist::LogRecord::kAppend, 1, {texts[0]}};
    persist::LogRecord third{persist::LogRecord::kAppend, 3, {texts[2]}};
    ASSERT_TRUE(writer->Append(first).ok());
    ASSERT_TRUE(writer->Append(third).ok());
  }
  auto reopened = OpenDurable("durable_gap", DurableOpts(&mem));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("gap"), std::string::npos);
}

TEST(DurableStoreTest, AutoSnapshotEveryNRecords) {
  vfs::MemVfs mem;
  DurableOptions options = DurableOpts(&mem);
  options.snapshot_every_records = 2;
  auto store_or = DurableStore::Open("durable5", std::move(options));
  ASSERT_TRUE(store_or.ok());
  DurableStore& store = **store_or;
  const auto texts = Versions(/*seed=*/21, 5);
  for (const auto& text : texts) ASSERT_TRUE(store.Append(text).ok());
  // 5 appends with a snapshot every 2: the log holds at most 1 record.
  EXPECT_LE(store.log_records(), 1u);
  EXPECT_TRUE(*mem.Exists("durable5/snapshot.xar"));
}

TEST(DurableStoreTest, BatchIngestIsLoggedAtomically) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/31, 4);
  {
    auto store = OpenDurable("durable6", DurableOpts(&mem));
    ASSERT_TRUE(store.ok());
    std::vector<std::string_view> views(texts.begin(), texts.end());
    ASSERT_TRUE((*store)->AppendBatch(views).ok());
  }
  auto reopened = OpenDurable("durable6", DurableOpts(&mem));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->version_count(), texts.size());
}

TEST(DurableStoreTest, BackendMismatchIsRejected) {
  vfs::MemVfs mem;
  {
    auto store_or = DurableStore::Open("durable7", DurableOpts(&mem));
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->Append(Versions(2, 1)[0]).ok());
    ASSERT_TRUE((*store_or)->CompactNow().ok());
  }
  auto wrong = OpenDurable("durable7", DurableOpts(&mem, "full-copy"));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurableStoreTest, WrapsNonArchiveBackends) {
  vfs::MemVfs mem;
  const auto texts = Versions(/*seed=*/51, 4);
  {
    auto store = OpenDurable("durable8", DurableOpts(&mem, "checkpoint-diff"));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(texts[0]).ok());
    ASSERT_TRUE((*store)->Append(texts[1]).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());  // compacts + inner boundary
    ASSERT_TRUE((*store)->Append(texts[2]).ok());
  }
  auto reopened =
      OpenDurable("durable8", DurableOpts(&mem, "checkpoint-diff"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 3u);
  EXPECT_GE((*reopened)->Stats().checkpoint_segments, 2u);
}

// ------------------------------------------- capability honesty (persist)

TEST(PersistCapabilityTest, UnadvertisedSaveIsUnimplemented) {
  // A minimal out-of-tree backend that does not advertise kPersistence.
  class NoPersistStore final : public Store {
   public:
    std::string name() const override { return "no-persist"; }
    Capabilities capabilities() const override { return 0; }

   protected:
    Status AppendImpl(std::string_view) override { return Status::OK(); }
    StatusOr<std::string> RetrieveImpl(Version) override {
      return std::string();
    }
    Version VersionCountImpl() const override { return 0; }
    std::string StoredBytesImpl() const override { return ""; }
    StoreStats BackendStats() const override { return {}; }
  };
  NoPersistStore store;
  EXPECT_EQ(store.SaveToBytes().status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(store.SaveToFile("/tmp/never-written.xar").code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace xarch
