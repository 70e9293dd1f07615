#ifndef XARCH_XARCH_SHARDED_STORE_H_
#define XARCH_XARCH_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"
#include "xarch/shard.h"
#include "xarch/store.h"

namespace xarch {

namespace obs {
class Counter;
}  // namespace obs

class StoreRegistry;

/// Construction hooks for ShardedStore::Make.
struct ShardedStoreOptions {
  /// Commit hook, invoked after every shard applied a version batch and
  /// before the batch becomes visible to readers. The durable open path
  /// writes the store-level version manifest here; when it fails the
  /// batch is NOT acknowledged and reopening rolls every shard back to
  /// the previous manifest. May be null (in-memory stores).
  std::function<Status(Version committed)> commit;
  /// Pool that ingest fan-out and scatter reads run on; nullptr uses
  /// util::ThreadPool::Shared(). On a single-CPU machine the shared pool
  /// has no workers and every fan-out degrades to a serial loop.
  util::ThreadPool* pool = nullptr;
};

/// \brief K independent shards behind one Store: the key-space sharding
/// layer (docs/SHARDING.md).
///
/// Each shard is a complete Store of the same inner backend holding the
/// sub-documents the ShardRouter assigns it — its own lock, archive,
/// index, and (in the durable layout) WAL. Ingest splits each version
/// into per-shard sub-documents and fans them across the shards on a
/// thread pool (one nested-merge pass per shard); reads scatter to the
/// shards and concatenate the per-shard results in shard order, which the
/// router's monotone fingerprint-range partition makes byte-identical to
/// the unsharded store. Queries and History whose second step names one
/// top-level element (a keyed step, or a tag keyed by `{}`) held by a
/// single shard are routed to just that shard.
///
/// ## Locking
///
/// The sharded store declares delegated ingest (Store::delegated_ingest):
/// its ingest hooks take the *shared* outer lock and serialize writers on
/// an internal mutex, so real exclusion lives in the per-shard locks. A
/// writer parked inside one shard therefore blocks only readers that
/// touch that shard — single-shard routed reads of other shards proceed,
/// which is the reader-liveness property the glibc reader-preference
/// caveat used to deny the unsharded store.
///
/// ## Commit and visibility
///
/// `committed()` is the store-level version count readers see. Ingest
/// applies to every shard, runs the commit hook (manifest), and only then
/// publishes the new count; reads validate versions against it, so a
/// half-applied batch (crash or per-shard failure) is never visible. A
/// per-shard failure after the batch passed validation poisons the store:
/// further ingest is refused until reopen, which realigns the shards to
/// the manifest.
class ShardedStore final : public Store {
 public:
  /// Wires a router and K pre-built shards (one per router shard, each
  /// holding exactly `committed` versions) into one store.
  static StatusOr<std::unique_ptr<ShardedStore>> Make(
      ShardRouter router, std::vector<std::unique_ptr<Store>> shards,
      Version committed, ShardedStoreOptions options = {});

  std::string name() const override;
  Capabilities capabilities() const override;

  size_t shard_count() const { return shards_.size(); }
  Version committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  const ShardRouter& router() const { return router_; }

  /// True once a per-shard ingest failure left the shards unaligned;
  /// reads keep working at the committed count, ingest is refused.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Direct access to one shard (tests and benches).
  Store& shard(size_t i) { return *shards_[i]; }

  /// Scatter read probes sent to shard `i` so far (tests, EXPLAIN).
  uint64_t scatter_reads(size_t i) const;

  /// Runs `fn` over every shard with sharded ingest held exclusively (no
  /// writer can be mid-commit). The durable clean-shutdown path uses this
  /// to checkpoint per-shard WALs at a manifest-consistent point.
  Status WithShardsExclusive(const std::function<Status(Store&)>& fn);

 protected:
  bool delegated_ingest() const override { return true; }

  Status AppendImpl(std::string_view xml_text) override;
  Status AppendBatchImpl(const std::vector<std::string_view>& texts) override;
  Status CheckpointImpl() override;
  StatusOr<std::string> RetrieveImpl(Version v) override;
  Status RetrieveToImpl(Version v, Sink& sink) override;
  StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path) override;
  StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                       Version to) override;
  Status QueryImpl(std::string_view query_text, Sink& sink,
                   obs::Trace* trace) override;
  Version VersionCountImpl() const override;
  StoreStats BackendStats() const override;
  std::string StoredBytesImpl() const override;
  Status SnapshotImpl(persist::SnapshotWriter& writer) const override;

 private:
  /// Per-shard instruments: process-registry counters labeled
  /// shard="i" plus the raw atomics EXPLAIN snapshots.
  struct ShardCounters {
    std::atomic<uint64_t> scatter_reads{0};
    std::atomic<uint64_t> routed{0};
    obs::Counter* ingest_documents = nullptr;
    obs::Counter* scatter_reads_total = nullptr;
    obs::Counter* routed_total = nullptr;
  };

  ShardedStore(ShardRouter router, std::vector<std::unique_ptr<Store>> shards,
               Version committed, ShardedStoreOptions options);

  util::ThreadPool& pool() const;

  /// Scatters Retrieve(v) and merges the shard documents in shard order.
  StatusOr<std::string> MergedRetrieve(Version v);

  void CountScatterRead(size_t shard) const;
  void CountRouted(size_t shard) const;

  ShardRouter router_;
  std::vector<std::unique_ptr<Store>> shards_;
  ShardedStoreOptions options_;
  std::atomic<Version> committed_;
  std::atomic<bool> poisoned_{false};
  /// Serializes writers (the outer lock is shared for delegated ingest)
  /// and guards snapshot consistency; mutable because SnapshotImpl is
  /// const and must exclude a concurrent commit.
  mutable std::mutex ingest_mu_;
  std::unique_ptr<ShardCounters[]> counters_;
};

namespace detail {
/// Registers the "sharded" backend (called by RegisterBuiltinStores).
void RegisterShardedStore(StoreRegistry& registry);
}  // namespace detail

}  // namespace xarch

#endif  // XARCH_XARCH_SHARDED_STORE_H_
