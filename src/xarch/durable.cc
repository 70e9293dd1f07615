#include "xarch/durable.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "keys/key_spec.h"
#include "obs/metrics.h"
#include "persist/container.h"
#include "persist/crc32c.h"
#include "persist/wire.h"
#include "vfs/vfs.h"
#include "xarch/sharded_store.h"

namespace xarch {

namespace {

constexpr const char* kSnapshotFile = "snapshot.xar";
constexpr const char* kLogFile = "ingest.log";
constexpr const char* kManifestFile = "MANIFEST";

Status ApplyRecord(Store& store, const persist::LogRecord& record) {
  switch (record.type) {
    case persist::LogRecord::kAppend:
      if (record.texts.size() != 1) {
        return Status::DataLoss("append log record carries " +
                                std::to_string(record.texts.size()) +
                                " documents");
      }
      return store.Append(record.texts[0]);
    case persist::LogRecord::kBatch: {
      if (store.Has(kBatchIngest)) {
        std::vector<std::string_view> views(record.texts.begin(),
                                            record.texts.end());
        return store.AppendBatch(views);
      }
      for (const std::string& text : record.texts) {
        XARCH_RETURN_NOT_OK(store.Append(text));
      }
      return Status::OK();
    }
    case persist::LogRecord::kCheckpoint:
      // Re-forcing a boundary that is already pending is a no-op, which
      // is what makes checkpoint replay idempotent.
      return store.Has(kCheckpoint) ? store.Checkpoint() : Status::OK();
  }
  return Status::DataLoss("unknown log record type");
}

// ------------------------------------------------- sharded layout support

/// The store-level version manifest of a sharded durable directory: the
/// single commit point that makes an ingest atomic across shards, plus
/// everything needed to rebuild the router before any shard is opened.
/// Replaced atomically (temp + fsync + rename) on every commit.
struct ShardManifest {
  uint32_t shards = 0;
  Version committed = 0;
  std::string backend;
  int fingerprint_bits = 64;
  bool sort_children = true;
  std::string spec_text;
};

constexpr char kManifestMagic[4] = {'X', 'S', 'M', 'F'};
constexpr uint32_t kManifestFormatVersion = 1;

std::string EncodeManifest(const ShardManifest& manifest) {
  std::string body;
  persist::PutU32(kManifestFormatVersion, &body);
  persist::PutU32(manifest.shards, &body);
  persist::PutU64(manifest.committed, &body);
  persist::PutBytes(manifest.backend, &body);
  persist::PutU32(static_cast<uint32_t>(manifest.fingerprint_bits), &body);
  persist::PutU8(manifest.sort_children ? 1 : 0, &body);
  persist::PutBytes(manifest.spec_text, &body);
  std::string out(kManifestMagic, 4);
  persist::PutU32(persist::MaskCrc(persist::Crc32c(body)), &out);
  out += body;
  return out;
}

StatusOr<ShardManifest> DecodeManifest(std::string_view bytes) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), kManifestMagic, 4) != 0) {
    return Status::DataLoss("not a shard manifest (bad magic)");
  }
  persist::Cursor frame(bytes.substr(4));
  uint32_t masked = 0;
  XARCH_RETURN_NOT_OK(frame.ReadU32(&masked));
  std::string_view body = bytes.substr(8);
  if (persist::Crc32c(body) != persist::UnmaskCrc(masked)) {
    return Status::DataLoss("shard manifest checksum mismatch");
  }
  persist::Cursor cursor(body);
  uint32_t format = 0;
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&format));
  if (format != kManifestFormatVersion) {
    return Status::DataLoss("unsupported shard manifest format " +
                            std::to_string(format));
  }
  ShardManifest manifest;
  uint64_t committed = 0;
  uint32_t fingerprint_bits = 0;
  uint8_t sort_children = 0;
  std::string_view backend, spec_text;
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&manifest.shards));
  XARCH_RETURN_NOT_OK(cursor.ReadU64(&committed));
  XARCH_RETURN_NOT_OK(cursor.ReadBytes(&backend));
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&fingerprint_bits));
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&sort_children));
  XARCH_RETURN_NOT_OK(cursor.ReadBytes(&spec_text));
  XARCH_RETURN_NOT_OK(cursor.ExpectDone());
  manifest.committed = static_cast<Version>(committed);
  manifest.backend = std::string(backend);
  manifest.fingerprint_bits = static_cast<int>(fingerprint_bits);
  manifest.sort_children = sort_children != 0;
  manifest.spec_text = std::string(spec_text);
  if (manifest.shards < 1 || manifest.shards > ShardRouter::kMaxShards ||
      manifest.fingerprint_bits < 1 || manifest.fingerprint_bits > 64) {
    return Status::DataLoss("shard manifest fields out of range");
  }
  return manifest;
}

std::string ShardDirName(size_t shard) {
  char buf[32];  // room for any size_t
  std::snprintf(buf, sizeof(buf), "shard-%03zu", shard);
  return buf;
}

/// Construction/tuning options for one shard's inner store, derived from
/// the caller's options and the manifest (which is authoritative for the
/// spec and fingerprint parameters).
StatusOr<StoreOptions> ShardStoreTuning(const DurableOptions& options,
                                        const ShardManifest& manifest,
                                        size_t shard) {
  StoreOptions out;
  auto spec = keys::ParseKeySpecSet(manifest.spec_text);
  if (!spec.ok()) {
    return Status::DataLoss("shard manifest key specification does not "
                            "parse: " + spec.status().message());
  }
  out.spec = std::move(*spec);
  out.archive = options.store.archive;
  out.archive.annotate.fingerprint_bits = manifest.fingerprint_bits;
  out.archive.annotate.sort_children = manifest.sort_children;
  out.checkpoint_every = options.store.checkpoint_every;
  out.extmem = options.store.extmem;
  if (options.store.extmem.work_dir !=
      extmem::ExternalArchiver::Options{}.work_dir) {
    out.extmem.work_dir =
        options.store.extmem.work_dir + "-shard" + std::to_string(shard);
  }
  out.inner = options.store.inner;
  out.use_index = options.store.use_index;
  out.shards = 1;
  return out;
}

/// The sharded durable layout: dir/MANIFEST plus one complete DurableStore
/// per shard directory, wired into a ShardedStore whose commit hook writes
/// the manifest — ingest order per shard is apply → WAL record → (all
/// shards done) manifest → visible, so the manifest never names a version
/// any shard lacks a durable record for, and reopen clamps every shard's
/// replay to the manifest.
StatusOr<std::unique_ptr<Store>> OpenShardedDurable(const std::string& dir,
                                                    DurableOptions options) {
  vfs::Vfs* vfs = options.vfs != nullptr ? options.vfs : vfs::Vfs::Posix();
  XARCH_RETURN_NOT_OK(vfs->CreateDirs(dir));
  if (options.backend == "sharded") {
    return Status::InvalidArgument(
        "DurableOptions::backend must be the per-shard backend, not "
        "\"sharded\" (sharding comes from DurableOptions::shards)");
  }
  const std::string manifest_path = vfs::Join(dir, kManifestFile);
  XARCH_ASSIGN_OR_RETURN(bool legacy,
                         vfs->Exists(vfs::Join(dir, kSnapshotFile)));
  if (legacy) {
    return Status::InvalidArgument(
        dir + " holds an unsharded durable store (snapshot.xar); open it "
        "with shards=1");
  }

  ShardManifest manifest;
  XARCH_ASSIGN_OR_RETURN(bool have_manifest, vfs->Exists(manifest_path));
  if (have_manifest) {
    XARCH_ASSIGN_OR_RETURN(std::string bytes, vfs->ReadFile(manifest_path));
    XARCH_ASSIGN_OR_RETURN(manifest, DecodeManifest(bytes));
    if (manifest.shards != options.shards) {
      return Status::InvalidArgument(
          dir + " is sharded " + std::to_string(manifest.shards) +
          " ways, not " + std::to_string(options.shards) +
          " (the shard count is fixed at creation)");
    }
    if (manifest.backend != options.backend) {
      return Status::InvalidArgument(
          "sharded durable store at " + dir +
          " was created with backend \"" + manifest.backend + "\", not \"" +
          options.backend + "\"");
    }
  } else {
    if (options.store.spec.size() == 0) {
      return Status::InvalidArgument(
          "first open of a sharded durable store needs StoreOptions::spec "
          "(top-level keys are the partitioning domain)");
    }
    manifest.shards = static_cast<uint32_t>(options.shards);
    manifest.committed = 0;
    manifest.backend = options.backend;
    manifest.fingerprint_bits = options.store.archive.annotate.fingerprint_bits;
    manifest.sort_children = options.store.archive.annotate.sort_children;
    manifest.spec_text = options.store.spec.ToText();
    XARCH_RETURN_NOT_OK(vfs::AtomicWriteFile(
        *vfs, manifest_path, EncodeManifest(manifest), /*sync=*/true));
  }

  auto router_spec = keys::ParseKeySpecSet(manifest.spec_text);
  if (!router_spec.ok()) {
    return Status::DataLoss("shard manifest key specification does not "
                            "parse: " + router_spec.status().message());
  }
  keys::AnnotateOptions annotate;
  annotate.fingerprint_bits = manifest.fingerprint_bits;
  annotate.sort_children = manifest.sort_children;
  XARCH_ASSIGN_OR_RETURN(
      ShardRouter router,
      ShardRouter::Make(std::move(*router_spec), manifest.shards, annotate));

  std::vector<std::unique_ptr<Store>> shards;
  std::vector<DurableStore*> shard_durables;
  shards.reserve(manifest.shards);
  shard_durables.reserve(manifest.shards);
  for (uint32_t s = 0; s < manifest.shards; ++s) {
    DurableOptions shard_options;
    shard_options.backend = options.backend;
    shard_options.vfs = options.vfs;
    XARCH_ASSIGN_OR_RETURN(shard_options.store,
                           ShardStoreTuning(options, manifest, s));
    shard_options.fsync = options.fsync;
    // Shard snapshots are coordinated by the commit hook below, never by
    // the per-shard record counter: an autonomous snapshot could capture
    // a version the manifest has not committed, which recovery could not
    // then roll back.
    shard_options.snapshot_every_records = 0;
    shard_options.replay_limit = manifest.committed;
    shard_options.bound_replay = true;
    XARCH_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableStore> shard,
        DurableStore::Open(vfs::Join(dir, ShardDirName(s)),
                           std::move(shard_options)));
    shard_durables.push_back(shard.get());
    shards.push_back(std::move(shard));
  }

  ShardedStoreOptions sharded;
  const uint64_t snapshot_every = options.snapshot_every_records;
  sharded.commit = [vfs, manifest_path, manifest, shard_durables,
                    snapshot_every](Version committed) mutable -> Status {
    manifest.committed = committed;
    XARCH_RETURN_NOT_OK(vfs::AtomicWriteFile(
        *vfs, manifest_path, EncodeManifest(manifest), /*sync=*/true));
    // With the manifest on disk every shard's WAL tail is committed, so
    // shard snapshots taken now are manifest-consistent.
    if (snapshot_every > 0) {
      for (DurableStore* shard : shard_durables) {
        if (shard->log_records() >= snapshot_every) {
          XARCH_RETURN_NOT_OK(shard->CheckpointIfDirty());
        }
      }
    }
    return Status::OK();
  };
  XARCH_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStore> store,
      ShardedStore::Make(std::move(router), std::move(shards),
                         manifest.committed, std::move(sharded)));
  return std::unique_ptr<Store>(std::move(store));
}

}  // namespace

DurableStore::DurableStore(std::unique_ptr<Store> inner, std::string backend,
                           vfs::Vfs* vfs, std::string snapshot_path,
                           persist::IngestLogWriter log,
                           uint64_t snapshot_every_records)
    : inner_(std::move(inner)),
      backend_(std::move(backend)),
      vfs_(vfs),
      snapshot_path_(std::move(snapshot_path)),
      log_(std::move(log)),
      snapshot_every_records_(snapshot_every_records) {}

StatusOr<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, DurableOptions options) {
  vfs::Vfs* vfs = options.vfs != nullptr ? options.vfs : vfs::Vfs::Posix();
  XARCH_RETURN_NOT_OK(vfs->CreateDirs(dir));
  const std::string snapshot_path = vfs::Join(dir, kSnapshotFile);
  const std::string log_path = vfs::Join(dir, kLogFile);

  // 1. The base store: the last snapshot when one exists, else fresh.
  std::unique_ptr<Store> inner;
  XARCH_ASSIGN_OR_RETURN(bool have_snapshot, vfs->Exists(snapshot_path));
  if (have_snapshot) {
    // One parse and one checksum pass: the backend check and the restore
    // read the same view. Either container format may be on disk — a
    // snapshot written before every backend switched to XAR2 is XAR1.
    XARCH_ASSIGN_OR_RETURN(std::string bytes, vfs->ReadFile(snapshot_path));
    XARCH_ASSIGN_OR_RETURN(
        persist::SnapshotView snapshot,
        persist::SnapshotView::OpenFromBytes(std::move(bytes)));
    XARCH_ASSIGN_OR_RETURN(std::string saved_backend,
                           snapshot.SectionString("backend"));
    if (saved_backend != options.backend) {
      return Status::InvalidArgument(
          "durable store at " + dir + " was created with backend \"" +
          saved_backend + "\", not \"" + options.backend + "\"");
    }
    XARCH_ASSIGN_OR_RETURN(inner, StoreRegistry::Global().Restore(
                                      snapshot, std::move(options.store)));
  } else {
    XARCH_ASSIGN_OR_RETURN(
        inner,
        StoreRegistry::Create(options.backend, std::move(options.store)));
  }

  // 2. Replay the ingest log over it, dropping any torn tail and (when a
  // replay limit is set) the record suffix past the commit point.
  XARCH_ASSIGN_OR_RETURN(persist::LogReplay replay,
                         persist::ReadIngestLog(vfs, log_path));
  size_t kept_records = 0;
  uint64_t kept_bytes = persist::kIngestLogHeaderBytes;
  bool clamped = false;
  for (const persist::LogRecord& record : replay.records) {
    if (options.bound_replay) {
      // A checkpoint marker carries the version the NEXT ingest would
      // produce, so the marker sealing the limit itself is kept.
      const Version past = record.type == persist::LogRecord::kCheckpoint
                               ? options.replay_limit + 1
                               : options.replay_limit;
      if (record.first_version > past) {
        // Applied to this shard but never committed store-wide (a crash
        // between shard commits): not acknowledged, so drop it — and the
        // rest of the log with it, which cannot skip version numbers.
        clamped = true;
        break;
      }
    }
    ++kept_records;
    kept_bytes = record.end_offset;
    if (record.first_version <= inner->version_count()) {
      // Already inside the snapshot (crash before log truncate). This
      // covers checkpoint markers too: a marker at first_version <= count
      // forced a boundary the snapshot has since captured — re-applying
      // it would start a spurious segment.
      continue;
    }
    if (record.first_version != inner->version_count() + 1) {
      // A gap means a version was applied but never reached the log
      // (e.g. a transient log-write failure): replaying the later
      // records would silently renumber them. Refuse instead.
      return Status::DataLoss(
          "ingest log gap: next record is for version " +
          std::to_string(record.first_version) + " but the store holds " +
          std::to_string(inner->version_count()) + " versions");
    }
    Status applied = ApplyRecord(*inner, record);
    if (!applied.ok()) {
      return Status::DataLoss(
          "ingest log record for version " +
          std::to_string(record.first_version) +
          " does not re-apply: " + applied.ToString());
    }
  }
  if (clamped) {
    XARCH_RETURN_NOT_OK(vfs->Truncate(log_path, kept_bytes));
  } else if (replay.torn_tail) {
    XARCH_RETURN_NOT_OK(vfs->Truncate(log_path, replay.valid_bytes));
  }

  // 3. Reattach the log for new ingest.
  XARCH_ASSIGN_OR_RETURN(persist::IngestLogWriter log,
                         persist::IngestLogWriter::Open(vfs, log_path,
                                                        options.fsync));
  auto store = std::unique_ptr<DurableStore>(new DurableStore(
      std::move(inner), options.backend, vfs, snapshot_path, std::move(log),
      options.snapshot_every_records));
  store->records_since_snapshot_.store(kept_records,
                                       std::memory_order_relaxed);
  return store;
}

std::string DurableStore::name() const {
  return "durable(" + inner_->name() + ")";
}

Capabilities DurableStore::capabilities() const {
  // Checkpoint() is always meaningful here: it compacts the log into a
  // fresh snapshot (and forwards when the inner backend checkpoints too).
  return inner_->capabilities() | kCheckpoint;
}

uint64_t DurableStore::log_records() const {
  return records_since_snapshot_.load(std::memory_order_relaxed);
}

Status DurableStore::WriteSnapshotLocked() {
  static obs::Counter* checkpoints = obs::Registry::Default().GetCounter(
      "xarch_checkpoint_total", "",
      "Durable-store snapshot+log-reset checkpoints");
  static obs::Counter* checkpoint_bytes = obs::Registry::Default().GetCounter(
      "xarch_checkpoint_bytes_total", "",
      "Snapshot bytes written by durable-store checkpoints");
  static obs::Histogram* checkpoint_us = obs::Registry::Default().GetHistogram(
      "xarch_checkpoint_duration_us", "",
      "Durable-store checkpoint latency (microseconds)");
  const uint64_t start_us = obs::MonotonicMicros();
  XARCH_ASSIGN_OR_RETURN(std::string bytes, inner_->SaveToBytes());
  XARCH_RETURN_NOT_OK(
      vfs::AtomicWriteFile(*vfs_, snapshot_path_, bytes, /*sync=*/true));
  XARCH_RETURN_NOT_OK(log_.Reset());
  records_since_snapshot_.store(0, std::memory_order_relaxed);
  checkpoints->Increment();
  checkpoint_bytes->Add(bytes.size());
  checkpoint_us->Record(obs::MonotonicMicros() - start_us);
  return Status::OK();
}

Status DurableStore::LogAndMaybeSnapshotLocked(
    const persist::LogRecord& record) {
  XARCH_RETURN_NOT_OK(log_.Append(record));
  records_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  if (snapshot_every_records_ > 0 &&
      records_since_snapshot_.load(std::memory_order_relaxed) >=
          snapshot_every_records_) {
    XARCH_RETURN_NOT_OK(WriteSnapshotLocked());
  }
  return Status::OK();
}

Status DurableStore::AppendImpl(std::string_view xml_text) {
  // Apply first, log second: only ingests the backend accepted are made
  // durable, so recovery replay cannot fail on an intact record.
  XARCH_RETURN_NOT_OK(inner_->Append(xml_text));
  persist::LogRecord record;
  record.type = persist::LogRecord::kAppend;
  record.first_version = inner_->version_count();
  record.texts.emplace_back(xml_text);
  return LogAndMaybeSnapshotLocked(record);
}

Status DurableStore::AppendBatchImpl(
    const std::vector<std::string_view>& texts) {
  if (texts.empty()) return Status::OK();
  XARCH_RETURN_NOT_OK(inner_->AppendBatch(texts));
  persist::LogRecord record;
  record.type = persist::LogRecord::kBatch;
  record.first_version =
      inner_->version_count() - static_cast<Version>(texts.size()) + 1;
  record.texts.assign(texts.begin(), texts.end());
  return LogAndMaybeSnapshotLocked(record);
}

Status DurableStore::CheckpointImpl() {
  if (inner_->Has(kCheckpoint)) {
    XARCH_RETURN_NOT_OK(inner_->Checkpoint());
    // Make the forced boundary durable even if the snapshot below fails.
    persist::LogRecord record;
    record.type = persist::LogRecord::kCheckpoint;
    record.first_version = inner_->version_count() + 1;
    XARCH_RETURN_NOT_OK(log_.Append(record));
  }
  return WriteSnapshotLocked();
}

Status DurableStore::CompactNow() { return Checkpoint(); }

Status DurableStore::CheckpointIfDirty() {
  // Racing ingests may land between the check and the checkpoint; the
  // checkpoint itself runs under the exclusive lock, so the worst case is
  // a snapshot that was not strictly necessary — never a lost record.
  if (log_records() == 0) return Status::OK();
  return Checkpoint();
}

StatusOr<std::string> DurableStore::RetrieveImpl(Version v) {
  return inner_->Retrieve(v);
}

Status DurableStore::RetrieveToImpl(Version v, Sink& sink) {
  return inner_->RetrieveTo(v, sink);
}

StatusOr<VersionSet> DurableStore::HistoryImpl(
    const std::vector<core::KeyStep>& path) {
  return inner_->History(path);
}

StatusOr<std::vector<core::Change>> DurableStore::DiffVersionsImpl(
    Version from, Version to) {
  return inner_->DiffVersions(from, to);
}

Status DurableStore::QueryImpl(std::string_view query_text, Sink& sink,
                               obs::Trace* trace) {
  return inner_->Query(query_text, sink, trace);
}

Version DurableStore::VersionCountImpl() const {
  return inner_->version_count();
}

StoreStats DurableStore::BackendStats() const { return inner_->Stats(); }

std::string DurableStore::StoredBytesImpl() const {
  return inner_->StoredBytes();
}

StatusOr<std::string> DurableStore::SnapshotBytesImpl() const {
  // A durable store's snapshot IS its inner store's: SaveToFile output
  // reopens as a plain (non-durable) backend.
  return inner_->SaveToBytes();
}

StatusOr<std::unique_ptr<Store>> OpenDurable(const std::string& dir,
                                             DurableOptions options) {
  if (options.shards == 0 || options.shards > ShardRouter::kMaxShards) {
    return Status::InvalidArgument(
        "DurableOptions::shards must be in 1-" +
        std::to_string(ShardRouter::kMaxShards) + ", got " +
        std::to_string(options.shards));
  }
  if (options.shards > 1) return OpenShardedDurable(dir, std::move(options));
  vfs::Vfs* vfs = options.vfs != nullptr ? options.vfs : vfs::Vfs::Posix();
  XARCH_ASSIGN_OR_RETURN(bool sharded,
                         vfs->Exists(vfs::Join(dir, kManifestFile)));
  if (sharded) {
    return Status::InvalidArgument(
        dir + " holds a sharded durable store (MANIFEST); open it with its "
        "shard count");
  }
  XARCH_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                         DurableStore::Open(dir, std::move(options)));
  return std::unique_ptr<Store>(std::move(store));
}

Status CheckpointDurableIfDirty(Store& store) {
  if (auto* durable = dynamic_cast<DurableStore*>(&store)) {
    return durable->CheckpointIfDirty();
  }
  if (auto* sharded = dynamic_cast<ShardedStore*>(&store)) {
    return sharded->WithShardsExclusive([](Store& shard) {
      auto* durable = dynamic_cast<DurableStore*>(&shard);
      return durable != nullptr ? durable->CheckpointIfDirty() : Status::OK();
    });
  }
  return Status::OK();
}

}  // namespace xarch
