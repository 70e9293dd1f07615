#ifndef XARCH_XARCH_STORE_H_
#define XARCH_XARCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/archive.h"
#include "core/changes.h"
#include "extmem/external_archiver.h"
#include "extmem/io_stats.h"
#include "keys/key_spec.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xarch/sink.h"

namespace xarch {

namespace vfs {
class Vfs;
}  // namespace vfs

namespace obs {
class Trace;
}  // namespace obs

namespace persist {
class SnapshotWriter;
}  // namespace persist

namespace query {
struct EvalResult;
}  // namespace query

/// \brief Optional abilities a Store backend may advertise. The contract is
/// honest flags: an advertised capability's calls must work; an
/// unadvertised capability's calls return StatusCode::kUnimplemented —
/// never crash, never silently degrade.
enum Capability : uint32_t {
  /// History() and DiffVersions() answer key-based temporal queries.
  kTemporalQueries = 1u << 0,
  /// RetrieveTo() serializes a version straight into a Sink without
  /// materializing an intermediate document tree.
  kStreamingRetrieve = 1u << 1,
  /// AppendBatch() ingests many versions in one call (the archive backend
  /// runs one multi-version nested-merge pass instead of N traversals).
  kBatchIngest = 1u << 2,
  /// The backend maintains checkpoints / segments; Checkpoint() forces a
  /// boundary and Stats().checkpoint_segments reports the count.
  kCheckpoint = 1u << 3,
  /// Query() parses and answers XAQL temporal queries (src/query): keyed
  /// path expressions with `@ version N`, `@ versions A..B`, `history`,
  /// and `diff A B` qualifiers, streamed into a Sink. Archive backends
  /// evaluate them with one streaming pass of the merged hierarchy (keyed
  /// steps binary-searched when indexed); every other backend uses the
  /// interface-level fallback plan over Retrieve/History/DiffVersions.
  kQuery = 1u << 4,
  /// SaveToFile()/SaveToBytes() snapshot the full store state into the
  /// versioned binary container (src/persist), and the registry restores
  /// it with StoreRegistry::OpenFromFile() — byte-identical retrieval
  /// after the round trip. All built-in backends advertise this.
  kPersistence = 1u << 5,
};

/// Bitmask of Capability values.
using Capabilities = uint32_t;

/// Renders a capability mask as "temporal-queries|batch-ingest" (empty
/// string for no capabilities).
std::string CapabilitiesToString(Capabilities caps);

/// \brief Introspection counters every backend reports uniformly, folding
/// the per-layer side channels (extmem/io_stats.h, archive node counts,
/// checkpoint segment counts) into one struct.
struct StoreStats {
  /// Versions ingested so far.
  Version versions = 0;
  /// Raw storage footprint in bytes (what StoredBytes() would return).
  size_t stored_bytes = 0;
  /// Archive nodes in the merged hierarchy (archive backends; 0 otherwise).
  size_t node_count = 0;
  /// Full merge traversals performed (archive backends; one per Append,
  /// one per AppendBatch).
  uint64_t merge_passes = 0;
  /// Checkpoint segments (checkpointing backends; 0 otherwise).
  size_t checkpoint_segments = 0;
  /// Worst-case delta applications any Retrieve() may perform
  /// (delta-based backends; 0 means retrieval is delta-free).
  size_t max_retrieval_applications = 0;
  /// External-memory I/O counters (extmem backend; zeros otherwise).
  extmem::IoStats io;
  /// XAQL queries answered so far (kQuery), and the probe counters of
  /// their evaluations, accumulated across Query() calls: children the
  /// stamp-checking scan inspected, and key comparisons of sorted-child
  /// lookups.
  uint64_t queries = 0;
  /// Always 0: the Sec. 7.1 timestamp trees are no longer on the query
  /// path (bench/timestamp_tree.h reproduces their probe counts). Kept so
  /// callers that read it still compile.
  uint64_t query_tree_probes = 0;
  uint64_t query_naive_probes = 0;
  uint64_t query_comparisons = 0;
};

/// \brief Construction parameters for registry-created stores. Backends
/// take what they need and ignore the rest; archive-family backends fail
/// with kInvalidArgument when `spec` is empty.
///
/// Move-only (KeySpecSet owns derived lookup structures).
struct StoreOptions {
  /// Key specification (required by "archive", "archive-weave", "extmem",
  /// "checkpoint-archive", and by "compressed" wrapping any of those).
  keys::KeySpecSet spec;
  /// Archive tuning (frontier strategy is overridden by "archive-weave").
  core::ArchiveOptions archive;
  /// Segment length k for the checkpointing backends.
  size_t checkpoint_every = 8;
  /// External-memory archiver tuning. If `extmem.work_dir` is left at its
  /// default, each store instance gets a fresh private directory that is
  /// removed when the store is destroyed.
  extmem::ExternalArchiver::Options extmem;
  /// Backend wrapped by "compressed".
  std::string inner = "archive";
  /// Maintain an index::ArchiveIndex over the archive backend and answer
  /// History() and queries through it. The index is built at ingest
  /// time, under the writer lock — never on the read path (the paper's
  /// "constructed each time a new version arrives") — directly as the
  /// XAR2 index pages, which snapshots store as they are and a mapped
  /// open reads in place. Cost model: one full index build per Append
  /// but only one per AppendBatch, so bulk-load indexed stores through
  /// AppendBatch.
  bool use_index = false;
  /// Shard count for the "sharded" backend (ignored by every other
  /// backend): the key space is range-partitioned into this many
  /// independent inner stores (xarch/shard.h).
  size_t shards = 4;
};

class Store;

/// \brief Unlocked access to a Store's primitives, for query evaluators
/// that run INSIDE a public Store call: the store lock is already held by
/// that call, so re-entering the public API would re-acquire a
/// non-recursive shared_mutex (deadlock under writer contention).
/// Constructed only by Store; never outlives the public call that made it.
class StorePrimitives {
 public:
  std::string name() const;
  bool Has(Capabilities mask) const;
  Version version_count() const;
  StatusOr<std::string> Retrieve(Version v);
  StatusOr<VersionSet> History(const std::vector<core::KeyStep>& path);
  StatusOr<std::vector<core::Change>> DiffVersions(Version from, Version to);

  /// True when the primitives may be called from several threads at once
  /// (the backend's reads are const and the lock held by the enclosing
  /// public call is shared). The parallel range executor fans out only
  /// when this holds.
  bool concurrent_reads() const;

 private:
  friend class Store;
  explicit StorePrimitives(Store& store) : store_(store) {}
  Store& store_;
};

/// \brief The uniform service interface over every versioned-storage
/// strategy (Store API v2).
///
/// All strategies the paper compares — the key-based archive (bucket and
/// weave frontiers), incremental/cumulative diffs, full copies — plus the
/// external-memory archiver, the compression wrapper, and the Sec. 9
/// checkpointed variants implement this interface and register themselves
/// in StoreRegistry under stable names, so examples, benches, and tests
/// swap backends by string.
///
///   auto store = StoreRegistry::Create("archive", std::move(options));
///   (*store)->AppendBatch(texts);             // one merge pass
///   StringSink sink;
///   (*store)->RetrieveTo(2, sink);            // no intermediate tree
///   auto when = (*store)->History(path);      // Sec. 7.2
///   StoreStats stats = (*store)->Stats();
///
/// ## Thread safety (Store v2.1)
///
/// A Store is safe to share between threads. The public methods are
/// non-virtual and take a per-store std::shared_mutex: ingest
/// (Append/AppendBatch/Checkpoint) runs under the exclusive lock, reads
/// (Retrieve/RetrieveTo/History/DiffVersions/Query/Stats/StoredBytes/
/// version_count) under the shared lock, so any number of readers run in
/// parallel and every read observes a fully-ingested archive — snapshot
/// isolation at version granularity: a query holds the shared lock for its
/// whole evaluation and can never see a half-merged version. Backends
/// whose read path mutates internal state (extmem's I/O accounting)
/// declare ReadSafety::kExclusive and serialize everything.
///
/// Backends implement the protected *Impl hooks, which are always invoked
/// under the appropriate lock and must not call back into the public API
/// of the SAME store (use the Impl hooks or a StorePrimitives view;
/// calling a DIFFERENT store's public API — a wrapped inner store — is
/// fine and locks that store).
class Store {
 public:
  virtual ~Store() = default;

  /// Stable backend name (the registry key it was created under).
  /// Immutable after construction; callable without the store lock.
  virtual std::string name() const = 0;

  /// Advertised capability flags. Immutable after construction.
  virtual Capabilities capabilities() const = 0;

  /// True if every capability in `mask` is advertised.
  bool Has(Capabilities mask) const {
    return (capabilities() & mask) == mask;
  }

  // ----------------------------------------------------------- ingest
  // Writers: exclusive lock.

  /// Archives the next version, given as serialized XML.
  Status Append(std::string_view xml_text);

  /// Archives a batch of versions in one call (kBatchIngest). The archive
  /// backend merges the whole batch in a single traversal; other backends
  /// ingest sequentially. Atomic for the archive backend: a bad document
  /// leaves the store unchanged.
  Status AppendBatch(const std::vector<std::string_view>& xml_texts);

  /// Forces a checkpoint boundary (kCheckpoint): the next Append starts a
  /// fresh segment.
  Status Checkpoint();

  // -------------------------------------------------------- retrieval
  // Readers: shared lock (exclusive for ReadSafety::kExclusive backends).

  /// Reconstructs version v as serialized XML.
  StatusOr<std::string> Retrieve(Version v);

  /// Streams version v into `sink` (kStreamingRetrieve) without building
  /// an intermediate document tree.
  Status RetrieveTo(Version v, Sink& sink);

  // -------------------------------------------- temporal queries (Sec. 7)

  /// The set of versions in which the keyed element at `path` exists.
  StatusOr<VersionSet> History(const std::vector<core::KeyStep>& path);

  /// Key-based change description between two archived versions (Sec. 1):
  /// which keyed elements appeared, disappeared, or changed content.
  StatusOr<std::vector<core::Change>> DiffVersions(Version from, Version to);

  // ------------------------------------------------------ queries (XAQL)

  /// Answers an XAQL temporal query (kQuery), streaming results into
  /// `sink`:
  ///
  ///   /db/entry[id="2"] @ version 17      — the element at one version
  ///   /site/people/person[*] @ versions 3..9  — snapshots over a range
  ///   /db/dept[name="x"]/emp[fn="J", ln="D"] history — its version set
  ///   /db diff 3 9                        — key-based changes under a path
  ///   explain <query>                     — the plan + probe counters
  ///
  /// The base implementation is the interface-level plan (Retrieve /
  /// History / DiffVersions), which any backend answers; archive backends
  /// override it with the streaming evaluator over the merged hierarchy,
  /// keyed steps binary-searched by the index when enabled. Range workloads
  /// fan versions across util::ThreadPool::Shared() and merge the
  /// per-version output in version order, so the bytes are identical to a
  /// serial run.
  /// Per-query probe counters accumulate into Stats(). Safe to call from
  /// many threads at once.
  ///
  /// With a non-null `trace`, the evaluation records nested spans (parse →
  /// plan → eval → per-version scans) into it and runs serially so the
  /// span order is deterministic; `explain analyze <query>` does the same
  /// internally and appends the rendered tree to the report.
  Status Query(std::string_view query_text, Sink& sink,
               obs::Trace* trace = nullptr);

  // ------------------------------------------------- persistence (durable)

  /// Snapshots the whole store into the versioned binary container format
  /// (kPersistence) and writes it atomically (temp file + fsync + rename)
  /// to `path`. The snapshot embeds everything needed to reopen — key
  /// specification, backend options, and backend state — so
  /// StoreRegistry::OpenFromFile(path) returns an equivalent store whose
  /// retrievals are byte-identical. Runs under the read lock: concurrent
  /// queries keep running (exclusive-read backends serialize as usual).
  /// `vfs` selects the file system the snapshot lands on; nullptr means
  /// the real disk (vfs::Vfs::Posix()).
  Status SaveToFile(const std::string& path, vfs::Vfs* vfs = nullptr) const;

  /// SaveToFile without the file: the serialized snapshot container.
  StatusOr<std::string> SaveToBytes() const;

  // ---------------------------------------------------- introspection

  /// Number of archived versions (numbered 1..version_count()).
  Version version_count() const;

  /// Uniform counters (see StoreStats): the backend's own counters with
  /// the per-query probe counters folded in. The query counters are
  /// atomics, so totals are exact even while queries run concurrently.
  StoreStats Stats() const;

  /// Raw stored bytes (what a byte compressor would be run over).
  std::string StoredBytes() const;

  /// Storage footprint in bytes (== Stats().stored_bytes).
  size_t ByteSize() const { return Stats().stored_bytes; }

 protected:
  /// How the backend's read path may be driven.
  enum class ReadSafety {
    /// Read hooks are const-correct and thread-safe: readers share the
    /// lock and run in parallel.
    kConcurrent,
    /// Read hooks mutate internal state (I/O counters, on-disk cursors):
    /// every public call takes the exclusive lock.
    kExclusive,
  };

  /// Declared once per backend; kConcurrent unless reads mutate state.
  virtual ReadSafety read_safety() const { return ReadSafety::kConcurrent; }

  /// Backends that delegate writer exclusion to inner stores (the sharded
  /// store: each shard has its own lock) return true, and their ingest
  /// hooks run under the SHARED outer lock — so readers of other shards
  /// stay live while one shard ingests. Such a backend must serialize its
  /// own writers and publish version counts atomically.
  virtual bool delegated_ingest() const { return false; }

  // ------------------------------------------ implementation hooks
  // Invoked under the store lock (exclusive for ingest and for
  // kExclusive backends, shared otherwise). Must not re-enter this
  // store's public API.

  virtual Status AppendImpl(std::string_view xml_text) = 0;
  virtual Status AppendBatchImpl(const std::vector<std::string_view>& texts);
  virtual Status CheckpointImpl();
  virtual StatusOr<std::string> RetrieveImpl(Version v) = 0;
  virtual Status RetrieveToImpl(Version v, Sink& sink);
  virtual StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path);
  virtual StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                               Version to);
  virtual Status QueryImpl(std::string_view query_text, Sink& sink,
                           obs::Trace* trace);
  virtual Version VersionCountImpl() const = 0;
  virtual std::string StoredBytesImpl() const = 0;

  /// Fills the snapshot container with this backend's sections, including
  /// a "backend" section naming the registry key a restorer is registered
  /// under. Backends that advertise kPersistence must override it.
  virtual Status SnapshotImpl(persist::SnapshotWriter& writer) const;

  /// Serializes the snapshot; wrapper backends whose snapshot IS another
  /// store's container (DurableStore) override this instead of
  /// SnapshotImpl.
  virtual StatusOr<std::string> SnapshotBytesImpl() const;

  /// The backend's own counters; Stats() folds the query counters in.
  virtual StoreStats BackendStats() const = 0;

  /// Sequential fallback for backends whose AppendBatch has no batched
  /// fast path.
  Status AppendBatchByLoop(const std::vector<std::string_view>& xml_texts);

  /// Status returned by every call whose capability is not advertised.
  Status UnimplementedCall(const char* call, Capability needed) const;

  /// Accumulates one query evaluation into the counters Stats() reports.
  /// QueryImpl overrides call this after every evaluation; the fields are
  /// atomics, so concurrent queries never lose counts.
  void CountQuery(const query::EvalResult& result);

  /// An unlocked view over this store's primitives for evaluators running
  /// inside the current public call.
  StorePrimitives Primitives() { return StorePrimitives(*this); }

 private:
  friend class StorePrimitives;

  /// RAII read lock: shared for kConcurrent backends, exclusive for
  /// kExclusive ones. (Writes always use a plain unique_lock.)
  class ReadLock {
   public:
    explicit ReadLock(const Store& store) {
      if (store.read_safety() == ReadSafety::kConcurrent) {
        shared_ = std::shared_lock<std::shared_mutex>(store.mu_);
      } else {
        exclusive_ = std::unique_lock<std::shared_mutex>(store.mu_);
      }
    }

   private:
    std::shared_lock<std::shared_mutex> shared_;
    std::unique_lock<std::shared_mutex> exclusive_;
  };

  /// RAII ingest lock: exclusive normally, shared for delegated-ingest
  /// backends (whose writer exclusion lives in their inner stores).
  class IngestLock {
   public:
    explicit IngestLock(const Store& store) {
      if (store.delegated_ingest()) {
        shared_ = std::shared_lock<std::shared_mutex>(store.mu_);
      } else {
        exclusive_ = std::unique_lock<std::shared_mutex>(store.mu_);
      }
    }

   private:
    std::shared_lock<std::shared_mutex> shared_;
    std::unique_lock<std::shared_mutex> exclusive_;
  };

  struct QueryCounters {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> naive_probes{0};
    std::atomic<uint64_t> comparisons{0};
  };

  mutable std::shared_mutex mu_;
  QueryCounters query_counters_;
};

}  // namespace xarch

#endif  // XARCH_XARCH_STORE_H_
