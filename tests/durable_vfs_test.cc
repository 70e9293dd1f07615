// Deterministic fault-injection recovery: FaultVfs fails every possible
// Nth write/sync/rename/truncate during WAL appends, checkpoints, and
// SaveToFile, then the store is "rebooted" over the now-healthy base and
// must satisfy the durability invariants — every acknowledged append
// survives, nothing is double-applied, torn tails are truncated away, and
// a failed atomic save never disturbs the previous snapshot.
//
// Everything runs on MemVfs under the fault wrapper, so the sweeps are
// exact (counters size them) and repeatable byte-for-byte.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "persist/log.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"
#include "vfs/vfs.h"
#include "xarch/durable.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"

namespace xarch {
namespace {

using vfs::FaultVfs;
using Op = vfs::FaultVfs::Op;

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

StoreOptions OptionsWithSpec() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  StoreOptions options;
  options.spec = std::move(spec).value();
  return options;
}

/// The nth version of a tiny keyed database; deterministic so every sweep
/// iteration replays the identical byte stream.
std::string Doc(int n) {
  std::string xml = "<db>";
  for (int i = 1; i <= n; ++i) {
    xml += "<entry><id>" + std::to_string(i) + "</id><note>note " +
           std::to_string(i * 7 + n) + "</note></entry>";
  }
  xml += "</db>";
  return xml;
}

/// fsync on every record so kSync traps have something to hit (MemVfs
/// syncs are free).
DurableOptions Opts(vfs::Vfs* vfs) {
  DurableOptions options;
  options.backend = "archive";
  options.store = OptionsWithSpec();
  options.fsync = persist::FsyncPolicy::kEveryRecord;
  options.vfs = vfs;
  return options;
}

// ------------------------------------------------------ FaultVfs mechanics

TEST(FaultVfsTest, TrapsAreOneShotAndCountersRun) {
  vfs::MemVfs mem;
  FaultVfs fault(&mem);

  auto file = fault.OpenWritable("f", vfs::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("one").ok());
  EXPECT_EQ(fault.Count(Op::kWrite), 1u);

  // Arm the 2nd write from now: the next Append passes, the one after
  // fails, and the trap disarms itself.
  fault.FailNth(Op::kWrite, 2);
  ASSERT_TRUE((*file)->Append("two").ok());
  EXPECT_FALSE((*file)->Append("three").ok());
  ASSERT_TRUE((*file)->Append("four").ok());
  EXPECT_EQ(fault.faults_injected(), 1u);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*mem.ReadFile("f"), "onetwofour");

  // Clear() disarms a pending trap.
  fault.FailNth(Op::kRename, 1);
  fault.Clear();
  ASSERT_TRUE(fault.Rename("f", "g").ok());
  EXPECT_EQ(fault.faults_injected(), 1u);
}

TEST(FaultVfsTest, TornWritePersistsExactlyThePrefix) {
  vfs::MemVfs mem;
  FaultVfs fault(&mem);
  auto file = fault.OpenWritable("torn", vfs::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  fault.FailNth(Op::kWrite, 1, /*persist_prefix=*/3);
  EXPECT_FALSE((*file)->Append("abcdef").ok());
  EXPECT_EQ(*mem.ReadFile("torn"), "abc");
}

// ------------------------------------------------------- WAL append sweep

// Fail the Nth WAL write, for every N the scenario performs, with both a
// clean failure (no bytes land) and a torn write (3 bytes land). After the
// "crash", reopening over the healthy base must recover exactly the
// acknowledged appends — the torn record is truncated away, never
// half-applied, and the log keeps accepting new records.
TEST(DurableVfsFaultTest, EveryNthWalWriteFailsAndRecovers) {
  const int kDocs = 4;

  // Sizing run: the same scenario fault-free, counting writes.
  uint64_t total_writes = 0;
  {
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    auto store = OpenDurable("d", Opts(&fault));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= kDocs; ++i) {
      ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    }
    total_writes = fault.Count(Op::kWrite);
  }
  ASSERT_GE(total_writes, static_cast<uint64_t>(kDocs));

  for (uint64_t n = 1; n <= total_writes; ++n) {
    for (size_t prefix : {size_t{0}, size_t{3}}) {
      SCOPED_TRACE("write #" + std::to_string(n) + " prefix " +
                   std::to_string(prefix));
      vfs::MemVfs mem;
      FaultVfs fault(&mem);
      fault.FailNth(Op::kWrite, n, prefix);

      uint32_t acked = 0;
      bool saw_failure = false;
      {
        auto store = OpenDurable("d", Opts(&fault));
        if (!store.ok()) {
          saw_failure = true;  // the log header write died
        } else {
          for (int i = 1; i <= kDocs; ++i) {
            if (!(*store)->Append(Doc(i)).ok()) {
              saw_failure = true;
              break;
            }
            ++acked;
          }
        }
      }  // crash: drop the store, only the base files remain
      EXPECT_TRUE(saw_failure);
      EXPECT_EQ(fault.faults_injected(), 1u);

      auto reopened = OpenDurable("d", Opts(&mem));
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ASSERT_EQ((*reopened)->version_count(), acked);
      for (Version v = 1; v <= acked; ++v) {
        auto got = (*reopened)->Retrieve(v);
        ASSERT_TRUE(got.ok()) << "v" << v << ": " << got.status().ToString();
        EXPECT_FALSE(got->empty());
      }
      // The truncated log keeps accepting appends, and they stick.
      ASSERT_TRUE((*reopened)->Append(Doc(kDocs + 1)).ok());
      auto again = OpenDurable("d", Opts(&mem));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ((*again)->version_count(), acked + 1);
    }
  }
}

// A failed fsync is weaker than a failed write: the record bytes may be
// durable even though the append was not acknowledged. Recovery must land
// on acked or acked+1 versions — never fewer (acknowledged loss), never
// more (double-apply).
TEST(DurableVfsFaultTest, EveryNthWalSyncFailsAndRecovers) {
  const int kDocs = 4;
  uint64_t total_syncs = 0;
  {
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    auto store = OpenDurable("d", Opts(&fault));
    ASSERT_TRUE(store.ok());
    for (int i = 1; i <= kDocs; ++i) {
      ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    }
    total_syncs = fault.Count(Op::kSync);
  }
  ASSERT_GE(total_syncs, static_cast<uint64_t>(kDocs));

  for (uint64_t n = 1; n <= total_syncs; ++n) {
    SCOPED_TRACE("sync #" + std::to_string(n));
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    fault.FailNth(Op::kSync, n);

    uint32_t acked = 0;
    bool saw_failure = false;
    {
      auto store = OpenDurable("d", Opts(&fault));
      if (!store.ok()) {
        saw_failure = true;
      } else {
        for (int i = 1; i <= kDocs; ++i) {
          if (!(*store)->Append(Doc(i)).ok()) {
            saw_failure = true;
            break;
          }
          ++acked;
        }
      }
    }
    EXPECT_TRUE(saw_failure);

    auto reopened = OpenDurable("d", Opts(&mem));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_GE((*reopened)->version_count(), acked);
    EXPECT_LE((*reopened)->version_count(), acked + 1);
    for (Version v = 1; v <= (*reopened)->version_count(); ++v) {
      EXPECT_TRUE((*reopened)->Retrieve(v).ok()) << "v" << v;
    }
  }
}

// ------------------------------------------------------- checkpoint sweep

// CompactNow = snapshot (write tmp, sync, rename, dir-sync) + log reset
// (truncate, header write, sync). Fail every possible Nth op of every
// kind: whatever stage dies, a reboot recovers ALL versions exactly once —
// snapshot-or-log, with the version-skip replay absorbing the
// snapshot-written-but-log-not-truncated window.
TEST(DurableVfsFaultTest, EveryNthCheckpointOpFailsAndRecovers) {
  const int kDocs = 3;

  // Sizing run: count each op kind inside CompactNow alone.
  uint64_t counts[FaultVfs::kOpCount] = {};
  {
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    auto store = OpenDurable("d", Opts(&fault));
    ASSERT_TRUE(store.ok());
    for (int i = 1; i <= kDocs; ++i) {
      ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    }
    fault.ResetCounters();
    auto* durable = static_cast<DurableStore*>(store->get());
    ASSERT_TRUE(durable->CompactNow().ok());
    for (int op = 0; op < FaultVfs::kOpCount; ++op) {
      counts[op] = fault.Count(static_cast<Op>(op));
    }
  }
  // The checkpoint must exercise every interceptable op kind, or the
  // sweep below silently shrinks.
  EXPECT_GT(counts[static_cast<int>(Op::kWrite)], 0u);
  EXPECT_GT(counts[static_cast<int>(Op::kSync)], 0u);
  EXPECT_GT(counts[static_cast<int>(Op::kRename)], 0u);
  EXPECT_GT(counts[static_cast<int>(Op::kTruncate)], 0u);

  for (int op = 0; op < FaultVfs::kOpCount; ++op) {
    for (uint64_t n = 1; n <= counts[op]; ++n) {
      SCOPED_TRACE("op " + std::to_string(op) + " #" + std::to_string(n));
      vfs::MemVfs mem;
      FaultVfs fault(&mem);
      {
        auto store_or = DurableStore::Open("d", Opts(&fault));
        ASSERT_TRUE(store_or.ok());
        DurableStore& store = **store_or;
        for (int i = 1; i <= kDocs; ++i) {
          ASSERT_TRUE(store.Append(Doc(i)).ok());
        }
        fault.FailNth(static_cast<Op>(op), n);
        EXPECT_FALSE(store.CompactNow().ok());
      }  // crash mid-checkpoint

      auto reopened = OpenDurable("d", Opts(&mem));
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ASSERT_EQ((*reopened)->version_count(),
                static_cast<uint32_t>(kDocs));  // all there, none twice
      for (Version v = 1; v <= static_cast<Version>(kDocs); ++v) {
        EXPECT_TRUE((*reopened)->Retrieve(v).ok()) << "v" << v;
      }
      // A later checkpoint on the healthy base completes and sticks.
      auto* durable = static_cast<DurableStore*>(reopened->get());
      ASSERT_TRUE(durable->CompactNow().ok());
      EXPECT_EQ(durable->log_records(), 0u);
      auto again = OpenDurable("d", Opts(&mem));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ((*again)->version_count(), static_cast<uint32_t>(kDocs));
    }
  }
}

// ------------------------------------------------------- SaveToFile sweep

// A SaveToFile that dies at any write/sync/rename must leave the previous
// snapshot byte-identical and openable, with no .tmp straggler — the
// atomic-replace protocol either fully installs or fully backs out.
TEST(SaveToFileFaultTest, FailedSaveNeverDisturbsThePreviousSnapshot) {
  const std::string path = "store.xar";

  // Sizing run against a throwaway MemVfs.
  uint64_t counts[FaultVfs::kOpCount] = {};
  {
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    auto store = StoreRegistry::Create("archive", OptionsWithSpec());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Doc(1)).ok());
    ASSERT_TRUE((*store)->SaveToFile(path, &fault).ok());
    for (int op = 0; op < FaultVfs::kOpCount; ++op) {
      counts[op] = fault.Count(static_cast<Op>(op));
    }
  }
  EXPECT_GT(counts[static_cast<int>(Op::kWrite)], 0u);
  EXPECT_GT(counts[static_cast<int>(Op::kSync)], 0u);
  EXPECT_GT(counts[static_cast<int>(Op::kRename)], 0u);

  for (int op = 0; op < FaultVfs::kOpCount; ++op) {
    for (uint64_t n = 1; n <= counts[op]; ++n) {
      SCOPED_TRACE("op " + std::to_string(op) + " #" + std::to_string(n));
      vfs::MemVfs mem;

      // Install a good two-version snapshot first.
      auto old_store = StoreRegistry::Create("archive", OptionsWithSpec());
      ASSERT_TRUE(old_store.ok());
      ASSERT_TRUE((*old_store)->Append(Doc(1)).ok());
      ASSERT_TRUE((*old_store)->Append(Doc(2)).ok());
      ASSERT_TRUE((*old_store)->SaveToFile(path, &mem).ok());
      const std::string old_bytes = *mem.ReadFile(path);

      // A four-version save dies mid-protocol.
      auto new_store = StoreRegistry::Create("archive", OptionsWithSpec());
      ASSERT_TRUE(new_store.ok());
      for (int i = 1; i <= 4; ++i) {
        ASSERT_TRUE((*new_store)->Append(Doc(i)).ok());
      }
      FaultVfs fault(&mem);
      fault.FailNth(static_cast<Op>(op), n);
      EXPECT_FALSE((*new_store)->SaveToFile(path, &fault).ok());

      // The old snapshot is untouched, still opens, and no tmp remains.
      EXPECT_EQ(*mem.ReadFile(path), old_bytes);
      EXPECT_EQ(*mem.Exists(path + ".tmp"), false);
      auto opened = StoreRegistry::Open(path, {}, &mem);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_EQ((*opened)->version_count(), 2u);

      // And the healthy retry installs the new one.
      ASSERT_TRUE((*new_store)->SaveToFile(path, &mem).ok());
      auto fresh = StoreRegistry::Open(path, {}, &mem);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ((*fresh)->version_count(), 4u);
    }
  }
}

// ---------------------------------------------------- sharded durability
//
// The sharded layout (docs/SHARDING.md) spreads one logical WAL across K
// per-shard WALs under a store-level version MANIFEST. The invariants are
// the single-WAL ones lifted to the store level: the manifest's commit
// point decides visibility, so a crash between shard commits (some shard
// WALs hold a version the manifest does not) must hide the partial
// version, and every ACKNOWLEDGED ingest must survive every reopen.

DurableOptions ShardedOpts(vfs::Vfs* vfs, size_t shards) {
  DurableOptions options = Opts(vfs);
  options.shards = shards;
  return options;
}

TEST(ShardedDurableFaultTest, OpenIngestReopenMatchesTheSingleWalLayout) {
  vfs::MemVfs mem;
  {
    auto store = OpenDurable("s", ShardedOpts(&mem, 2));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= 5; ++i) ASSERT_TRUE((*store)->Append(Doc(i)).ok());
  }
  auto reopened = OpenDurable("s", ShardedOpts(&mem, 2));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->version_count(), 5u);

  vfs::MemVfs plain_mem;
  auto plain = OpenDurable("p", Opts(&plain_mem));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE((*plain)->Append(Doc(i)).ok());
  for (Version v = 1; v <= 5; ++v) {
    EXPECT_EQ(*(*reopened)->Retrieve(v), *(*plain)->Retrieve(v)) << "v" << v;
  }
}

TEST(ShardedDurableFaultTest, ManifestCommitFailureHidesTheBatch) {
  vfs::MemVfs mem;
  FaultVfs fault(&mem);
  {
    auto store = OpenDurable("s", ShardedOpts(&fault, 2));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(Doc(1)).ok());

    // Kill the manifest publish (its atomic rename): every shard WAL has
    // already logged version 2, but the batch was never acknowledged.
    fault.FailNth(Op::kRename, 1);
    EXPECT_FALSE((*store)->Append(Doc(2)).ok());
    EXPECT_EQ((*store)->version_count(), 1u);
    EXPECT_EQ(fault.faults_injected(), 1u);

    // The shards are now unaligned with the manifest: further ingest is
    // refused (poisoned) until a reopen realigns them.
    EXPECT_FALSE((*store)->Append(Doc(3)).ok());
  }  // crash

  auto reopened = OpenDurable("s", ShardedOpts(&mem, 2));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 1u);  // the manifest hides v2
  EXPECT_TRUE((*reopened)->Retrieve(1).ok());
  EXPECT_FALSE((*reopened)->Retrieve(2).ok());

  // The clamped WALs accept new versions, and they stick.
  ASSERT_TRUE((*reopened)->Append(Doc(2)).ok());
  auto again = OpenDurable("s", ShardedOpts(&mem, 2));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->version_count(), 2u);
  EXPECT_TRUE((*again)->Retrieve(2).ok());
}

TEST(ShardedDurableFaultTest, TornTailOnOneShardIsTruncatedAway) {
  vfs::MemVfs mem;
  {
    auto store = OpenDurable("s", ShardedOpts(&mem, 2));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= 3; ++i) ASSERT_TRUE((*store)->Append(Doc(i)).ok());
  }
  // A crash mid-write leaves half a record at the tail of ONE shard's WAL;
  // the other shard is intact.
  auto file =
      mem.OpenWritable("s/shard-000/ingest.log", vfs::WriteMode::kAppend);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string("\x13\x37 torn", 7)).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto reopened = OpenDurable("s", ShardedOpts(&mem, 2));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 3u);
  for (Version v = 1; v <= 3; ++v) {
    auto got = (*reopened)->Retrieve(v);
    ASSERT_TRUE(got.ok()) << "v" << v << ": " << got.status().ToString();
    EXPECT_FALSE(got->empty());
  }
  // The truncated shard WAL keeps accepting records.
  ASSERT_TRUE((*reopened)->Append(Doc(4)).ok());
  auto again = OpenDurable("s", ShardedOpts(&mem, 2));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->version_count(), 4u);
}

// The single-WAL write sweep, lifted to the sharded layout: fail every
// possible Nth write (clean and torn) across directory creation, the
// per-shard WAL appends, and the manifest publishes. Whatever dies, a
// reopen over the healthy base must recover exactly the acknowledged
// versions and keep accepting ingest.
TEST(ShardedDurableFaultTest, EveryNthWriteFailsAndRecovers) {
  const int kDocs = 3;

  uint64_t total_writes = 0;
  {
    vfs::MemVfs mem;
    FaultVfs fault(&mem);
    auto store = OpenDurable("s", ShardedOpts(&fault, 2));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= kDocs; ++i) {
      ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    }
    total_writes = fault.Count(Op::kWrite);
  }
  ASSERT_GE(total_writes, static_cast<uint64_t>(kDocs));

  for (uint64_t n = 1; n <= total_writes; ++n) {
    for (size_t prefix : {size_t{0}, size_t{3}}) {
      SCOPED_TRACE("write #" + std::to_string(n) + " prefix " +
                   std::to_string(prefix));
      vfs::MemVfs mem;
      FaultVfs fault(&mem);
      fault.FailNth(Op::kWrite, n, prefix);

      uint32_t acked = 0;
      bool saw_failure = false;
      {
        auto store = OpenDurable("s", ShardedOpts(&fault, 2));
        if (!store.ok()) {
          saw_failure = true;  // creation died (manifest or a WAL header)
        } else {
          for (int i = 1; i <= kDocs; ++i) {
            if (!(*store)->Append(Doc(i)).ok()) {
              saw_failure = true;
              break;
            }
            ++acked;
          }
        }
      }  // crash: drop the store, only the base files remain
      EXPECT_TRUE(saw_failure);
      EXPECT_EQ(fault.faults_injected(), 1u);

      auto reopened = OpenDurable("s", ShardedOpts(&mem, 2));
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ASSERT_EQ((*reopened)->version_count(), acked);
      for (Version v = 1; v <= acked; ++v) {
        auto got = (*reopened)->Retrieve(v);
        ASSERT_TRUE(got.ok()) << "v" << v << ": " << got.status().ToString();
        EXPECT_FALSE(got->empty());
      }
      ASSERT_TRUE((*reopened)->Append(Doc(kDocs + 1)).ok());
      auto again = OpenDurable("s", ShardedOpts(&mem, 2));
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ((*again)->version_count(), acked + 1u);
    }
  }
}

// ------------------------------------------------ coalesced replay parity
// Reopen applies each run of consecutive logged ingests as one batch: one
// parse per document, one merge pass and one index publish per run. The
// reopened store must equal the store that wrote the log, byte for byte.

/// Writes `records` as the whole ingest log of directory `dir`.
void WriteLog(vfs::Vfs* vfs, const std::string& dir,
              const std::vector<persist::LogRecord>& records) {
  ASSERT_TRUE(vfs->CreateDirs(dir).ok());
  auto log = persist::IngestLogWriter::Open(vfs, vfs::Join(dir, "ingest.log"),
                                            persist::FsyncPolicy::kNever);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const persist::LogRecord& record : records) {
    ASSERT_TRUE(log->Append(record).ok());
  }
}

persist::LogRecord AppendRecord(Version v, std::string text) {
  persist::LogRecord record;
  record.type = persist::LogRecord::kAppend;
  record.first_version = v;
  record.texts.push_back(std::move(text));
  return record;
}

TEST(DurableReplayTest, AppendsAndABatchReplayAsOneMergePass) {
  vfs::MemVfs mem;
  std::string written;
  {
    DurableOptions options = Opts(&mem);
    options.store.use_index = true;
    auto store = OpenDurable("d", std::move(options));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(Doc(1)).ok());
    ASSERT_TRUE((*store)->Append(Doc(2)).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());  // snapshot: versions 1-2
    for (int i = 3; i <= 7; ++i) ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    const std::string d8 = Doc(8), d9 = Doc(9);
    ASSERT_TRUE((*store)->AppendBatch({d8, d9}).ok());
    auto bytes = (*store)->SaveToBytes();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    written = std::move(bytes).value();
  }  // crash: the WAL tail holds 5 append records and 1 batch record
  auto replay = persist::ReadIngestLog(&mem, "d/ingest.log");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 6u);

  DurableOptions options = Opts(&mem);
  options.store.use_index = true;
  auto reopened = OpenDurable("d", std::move(options));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 9u);
  EXPECT_EQ((*reopened)->Stats().merge_passes, 1u);  // the whole tail
  auto bytes = (*reopened)->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(*bytes == written) << "reopened snapshot differs";
}

TEST(DurableReplayTest, ARunEndsAtTheReplayByteBound) {
  // Versions of ~1.2 MB each: the 8 MiB bound on a run's logged XML splits
  // a 10-version tail into two runs, and the result is still identical.
  auto big_doc = [](int n) {
    std::string xml = "<db>";
    const std::string filler(100 * 1024, static_cast<char>('a' + n % 26));
    for (int i = 1; i <= 12; ++i) {
      xml += "<entry><id>" + std::to_string(i) + "</id><note>" + filler +
             std::to_string(n) + "</note></entry>";
    }
    return xml + "</db>";
  };
  vfs::MemVfs mem;
  std::string written;
  {
    auto store = OpenDurable("d", Opts(&mem));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*store)->Append(big_doc(i)).ok());
    }
    written = *(*store)->SaveToBytes();
  }
  auto reopened = OpenDurable("d", Opts(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().merge_passes, 2u);
  EXPECT_TRUE(*(*reopened)->SaveToBytes() == written);
}

TEST(DurableReplayTest, CheckpointMarkerInTheTailKeepsSegmentBoundaries) {
  vfs::MemVfs mem;
  FaultVfs fault(&mem);
  auto checkpoint_opts = [](vfs::Vfs* vfs) {
    DurableOptions options = Opts(vfs);
    options.backend = "checkpoint-archive";
    options.store.checkpoint_every = 100;  // only forced boundaries
    return options;
  };
  std::string written;
  {
    auto store = OpenDurable("c", checkpoint_opts(&fault));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(Doc(1)).ok());
    ASSERT_TRUE((*store)->Append(Doc(2)).ok());
    // The boundary is forced and logged, but the snapshot's rename dies:
    // the marker stays in the WAL between the appends around it.
    fault.FailNth(Op::kRename, 1);
    EXPECT_FALSE((*store)->Checkpoint().ok());
    ASSERT_TRUE((*store)->Append(Doc(3)).ok());
    ASSERT_TRUE((*store)->Append(Doc(4)).ok());
    EXPECT_EQ((*store)->Stats().checkpoint_segments, 2u);
    written = *(*store)->SaveToBytes();
  }
  auto replay = persist::ReadIngestLog(&mem, "c/ingest.log");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 5u);
  EXPECT_EQ(replay->records[2].type, persist::LogRecord::kCheckpoint);

  auto reopened = OpenDurable("c", checkpoint_opts(&mem));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 4u);
  EXPECT_EQ((*reopened)->Stats().checkpoint_segments, 2u);
  EXPECT_TRUE(*(*reopened)->SaveToBytes() == written);
}

TEST(DurableReplayTest, ShardedReopenClampedByTheManifestDropsUncommitted) {
  vfs::MemVfs mem;
  FaultVfs fault(&mem);
  {
    auto store = OpenDurable("s", ShardedOpts(&fault, 4));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 1; i <= 5; ++i) ASSERT_TRUE((*store)->Append(Doc(i)).ok());
    // Every shard WAL logs version 6, but its manifest commit dies.
    fault.FailNth(Op::kRename, 1);
    EXPECT_FALSE((*store)->Append(Doc(6)).ok());
  }  // crash
  auto reopened = OpenDurable("s", ShardedOpts(&mem, 4));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->version_count(), 5u);
  EXPECT_FALSE((*reopened)->Retrieve(6).ok());

  vfs::MemVfs plain_mem;
  auto plain = OpenDurable("p", Opts(&plain_mem));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE((*plain)->Append(Doc(i)).ok());
  for (Version v = 1; v <= 5; ++v) {
    EXPECT_EQ(*(*reopened)->Retrieve(v), *(*plain)->Retrieve(v)) << "v" << v;
  }
  // The clamp truncated the uncommitted records, so version 6 is new.
  ASSERT_TRUE((*reopened)->Append(Doc(7)).ok());
  auto again = OpenDurable("s", ShardedOpts(&mem, 4));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ((*again)->version_count(), 6u);
  EXPECT_EQ(*(*again)->Retrieve(6), *(*reopened)->Retrieve(6));
}

TEST(DurableReplayTest, AnAppendRecordWithTwoDocumentsIsDataLoss) {
  vfs::MemVfs mem;
  persist::LogRecord two = AppendRecord(2, Doc(2));
  two.texts.push_back(Doc(3));
  WriteLog(&mem, "d", {AppendRecord(1, Doc(1)), two});
  auto reopened = OpenDurable("d", Opts(&mem));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("carries 2 documents"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST(DurableReplayTest, ARunThatDoesNotReapplyNamesItsVersions) {
  vfs::MemVfs mem;
  const std::string duplicate_key =
      "<db><entry><id>1</id></entry><entry><id>1</id></entry></db>";
  WriteLog(&mem, "d",
           {AppendRecord(1, Doc(1)), AppendRecord(2, duplicate_key),
            AppendRecord(3, Doc(3))});
  auto reopened = OpenDurable("d", Opts(&mem));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("versions 1-3"),
            std::string::npos)
      << reopened.status().ToString();
}

}  // namespace
}  // namespace xarch
