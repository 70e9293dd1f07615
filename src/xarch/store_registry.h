#ifndef XARCH_XARCH_STORE_REGISTRY_H_
#define XARCH_XARCH_STORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "xarch/store.h"

namespace xarch {

namespace persist {
class SnapshotView;
}  // namespace persist

/// \brief String-keyed factory registry of Store backends.
///
/// Built-in backends self-register on first use of Global(). Every
/// backend answers XAQL queries (Store::Query); archive backends evaluate
/// them with the streaming archive plan, the rest with the interface-level
/// fallback:
///
///   name                 capabilities
///   "archive"            temporal-queries | streaming-retrieve |
///                        batch-ingest | query
///   "archive-weave"      temporal-queries | streaming-retrieve |
///                        batch-ingest | query
///   "incr-diff"          batch-ingest | query
///   "cum-diff"           batch-ingest | query
///   "full-copy"          batch-ingest | streaming-retrieve | query
///   "extmem"             batch-ingest | query
///   "compressed"         (follows the wrapped backend, StoreOptions::inner)
///   "checkpoint-archive" temporal-queries | batch-ingest | checkpoint |
///                        query
///   "checkpoint-diff"    batch-ingest | checkpoint | query
///
/// Every built-in additionally advertises `persist`: SaveToFile snapshots
/// round-trip through OpenFromFile with byte-identical retrieval.
///
/// Out-of-tree backends register through Global().Register().
class StoreRegistry {
 public:
  using Factory =
      std::function<StatusOr<std::unique_ptr<Store>>(StoreOptions options)>;

  /// Rebuilds a store from a verified snapshot view (Store::SaveToFile
  /// output, either container format). `tuning` supplies only the knobs a
  /// snapshot deliberately does not pin — the extmem working directory and
  /// memory budget — and is ignored by backends whose state is
  /// self-contained. A restorer may keep (a copy of) the view, whose shared
  /// storage is the mapped file itself on the OpenFromFile path.
  using Restorer = std::function<StatusOr<std::unique_ptr<Store>>(
      const persist::SnapshotView& snapshot, StoreOptions tuning)>;

  /// One registered backend.
  struct Entry {
    std::string name;
    std::string description;
    /// Capabilities instances will advertise ("compressed" follows its
    /// wrapped backend; this field then reflects the default inner).
    Capabilities capabilities = 0;
    Factory factory;
    /// Optional: absent means snapshots of this backend cannot be opened
    /// (OpenFromFile fails with kUnimplemented).
    Restorer restorer;
  };

  /// The process-wide registry with all built-in backends registered.
  static StoreRegistry& Global();

  /// Registers a backend; fails with kInvalidArgument on a duplicate name.
  Status Register(Entry entry);

  /// Instantiates a registered backend; kNotFound for unknown names.
  StatusOr<std::unique_ptr<Store>> CreateStore(const std::string& name,
                                               StoreOptions options) const;

  /// Convenience: Global().CreateStore(...).
  static StatusOr<std::unique_ptr<Store>> Create(const std::string& name,
                                                 StoreOptions options = {});

  /// Reopens a Store::SaveToFile snapshot: parses the container, verifies
  /// its checksums (corruption → kDataLoss), and restores it (Restore).
  /// The result retrieves byte-identically to the store that was saved.
  /// `vfs` selects the file system the snapshot is read from — nullptr
  /// means the real disk; Vfs::Mmap() parses straight out of a mapping
  /// (zero-copy open for large snapshots).
  StatusOr<std::unique_ptr<Store>> OpenFromFile(const std::string& path,
                                                StoreOptions tuning = {},
                                                vfs::Vfs* vfs = nullptr) const;

  /// OpenFromFile over in-memory container bytes, which the store may keep.
  StatusOr<std::unique_ptr<Store>> OpenFromBytes(std::string bytes,
                                                 StoreOptions tuning = {}) const;

  /// Dispatches a parsed snapshot to the restorer registered under its
  /// "backend" section.
  StatusOr<std::unique_ptr<Store>> Restore(
      const persist::SnapshotView& snapshot, StoreOptions tuning = {}) const;

  /// Convenience: Global().OpenFromFile(...).
  static StatusOr<std::unique_ptr<Store>> Open(const std::string& path,
                                               StoreOptions tuning = {},
                                               vfs::Vfs* vfs = nullptr);

  /// Registered backend metadata, sorted by name.
  std::vector<const Entry*> List() const;

  /// Metadata for one backend, or nullptr.
  const Entry* Find(const std::string& name) const;

 private:
  std::map<std::string, Entry> entries_;
};

namespace detail {
/// Defined in store.cc; called once by StoreRegistry::Global().
void RegisterBuiltinStores(StoreRegistry& registry);
}  // namespace detail

}  // namespace xarch

#endif  // XARCH_XARCH_STORE_REGISTRY_H_
