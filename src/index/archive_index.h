#ifndef XARCH_INDEX_ARCHIVE_INDEX_H_
#define XARCH_INDEX_ARCHIVE_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/archive.h"
#include "core/flat_archive.h"
#include "core/tree_view.h"
#include "util/status.h"

namespace xarch::index {

/// Counters comparing indexed against naive access (the Sec. 7 analyses).
struct ProbeStats {
  size_t tree_probes = 0;    ///< timestamp-tree nodes inspected
  size_t naive_probes = 0;   ///< children a full scan would inspect
  size_t comparisons = 0;    ///< key comparisons (history lookups)
};

/// \brief The Sec. 7 index over an archive: a timestamp tree per inner
/// node (Sec. 7.1) and its children sorted by label (Sec. 7.2), stored as
/// the XAR2 index pages (docs/FORMAT.md, "Index pages").
///
/// The pages are the only representation. A heap archive gets them built
/// at publish time ("constructed each time a new version arrives, after
/// nested merge"); a mapped snapshot lends its own, validated by Attach.
/// Every lookup runs one body over the pages. The two states differ only
/// in how a view NodeId maps to a page id (the identity when mapped, a
/// pointer table on the heap) and in which pool resolves a tree stamp id
/// (the snapshot's, or one the index owns). EXPLAIN probe counts
/// therefore agree across heap-backed and mapped stores by construction.
///
/// Publish protocol (the synchronized rebuild the Store layer uses): the
/// heap constructor records the archive's ingest generation, so holders
/// can assert an index is current (built_at_generation() ==
/// archive.ingest_generation()). An index must be (re)built and published
/// by the INGEST path, under the same exclusive lock that guarded the
/// merge — never lazily from a read, where concurrent readers would race
/// on the swap. After construction the index is immutable: every query
/// method is const and safe to call from any number of threads. It
/// borrows the archive (or the mapped pages), which must outlive it.
///
/// Page layout ("index" section):
///   u32 node_count                      — must equal the archive's
///   u32 entry_offsets[node_count + 1]   — byte offsets into the blob;
///                                         a zero-length span = not indexed
///   blob of entries, one per indexed node:
///     u32 sorted_count | u32 sorted_child_node_ids[sorted_count]
///     u32 leaf_count | u32 tree_node_count | i32 root_index
///     tree records, 20 bytes each:
///       u32 stamp_id | u32 leaf_lo | u32 leaf_hi | i32 left | i32 right
///
/// Page ids are the flat encoder's breadth-first node ids
/// (core::BreadthFirstOrder); tree records are TimestampTree::node(i)
/// verbatim, leaves first in child order.
class ArchiveIndex {
 public:
  using NodeId = core::ArchiveView::NodeId;

  /// Builds the pages over a heap archive; NodeIds are those of
  /// core::HeapArchiveView over the same archive (node pointers).
  explicit ArchiveIndex(const core::Archive& archive);

  /// Validates mapped pages against the attached archive (every id,
  /// offset, and range checked once) and borrows them; NodeIds are those
  /// of core::FlatArchiveView (record indices). kDataLoss on any
  /// inconsistency.
  static StatusOr<ArchiveIndex> Attach(const core::FlatArchive* archive,
                                       std::string_view pages);

  // Views into words_ survive a move, not a copy.
  ArchiveIndex(ArchiveIndex&&) = default;
  ArchiveIndex& operator=(ArchiveIndex&&) = default;
  ArchiveIndex(const ArchiveIndex&) = delete;
  ArchiveIndex& operator=(const ArchiveIndex&) = delete;

  /// The archive ingest generation a heap index was built at; stale when
  /// the archive's ingest_generation() has moved past it.
  uint64_t built_at_generation() const { return built_at_generation_; }

  /// The ScanCursor hook (the Sec. 7.1 search applied below any archive
  /// node): replaces `*relevant`'s contents (reusing its capacity) with
  /// the indices of `node`'s children whose timestamp contains v, via the
  /// node's timestamp tree, and returns true. Returns false when `node` is
  /// not indexed (frontier nodes), directing the caller to a full child
  /// scan. `*probes` receives the tree nodes inspected.
  bool RelevantChildren(NodeId node, Version v, std::vector<size_t>* relevant,
                        size_t* probes) const;

  /// Keyed child lookup via the sorted child list — the History step
  /// primitive (O(log d) comparisons for a node of degree d). kNoNode
  /// when no child carries the exact label (tag + all key values).
  NodeId FindChild(NodeId parent, const core::KeyStep& step,
                   ProbeStats* stats) const;

  /// Temporal history along a keyed path: one FindChild per step
  /// (Sec. 7.2), so O(l log d) comparisons for a path of length l.
  StatusOr<VersionSet> History(const std::vector<core::KeyStep>& path,
                               ProbeStats* stats) const;

  /// Total timestamp-tree nodes across the archive (index space cost).
  size_t TreeNodeCount() const;

  /// The pages of a heap index as a snapshot stores them: these bytes,
  /// with each tree stamp id re-interned into `encoder`'s pool in record
  /// order. `encoder` must have encoded the archive this index was built
  /// over (so node ids agree) and must Finish() after this call.
  std::string EncodePages(core::FlatArchiveEncoder* encoder) const;

 private:
  ArchiveIndex() = default;

  /// One indexed node's page entry.
  struct Entry {
    std::string_view sorted_ids;  // u32 records
    std::string_view tree;        // 20-byte records
    uint32_t sorted_count = 0;
    uint32_t leaf_count = 0;
    uint32_t tree_node_count = 0;
    int32_t root = -1;
  };

  const core::ArchiveView& view() const;
  /// The page id of a view node; false when it has no index entry.
  bool PageId(NodeId node, uint32_t* page) const;
  /// The view NodeId of a page id.
  NodeId ViewId(uint32_t page) const;
  /// Parses page `page`'s entry; false when the node is not indexed.
  bool EntryAt(uint32_t page, Entry* entry) const;
  bool StampContains(uint32_t stamp, Version v) const;
  void TreeLookup(const Entry& entry, Version v, size_t* probes,
                  std::vector<size_t>* hits) const;
  uint32_t AddStamp(const VersionSet& stamp);

  std::string_view offsets_;  // u32 entry_offsets[node_count + 1]
  std::string_view blob_;
  uint64_t built_at_generation_ = 0;

  // Mapped state: the snapshot's archive, pages and stamp pool.
  const core::FlatArchive* flat_ = nullptr;
  core::FlatArchiveView flat_view_{nullptr};

  // Heap state: owned pages and stamp pool, and the pointer <-> page id
  // table.
  core::HeapArchiveView heap_view_{nullptr};
  std::vector<uint32_t> words_;  // the whole section
  std::vector<const core::ArchiveNode*> nodes_;  // page id -> node
  std::unordered_map<const core::ArchiveNode*, uint32_t> ids_;  // indexed
  std::vector<uint32_t> stamp_offsets_;  // per stamp, in intervals
  std::vector<uint32_t> stamp_pairs_;    // (lo, hi) interval pairs
};

}  // namespace xarch::index

#endif  // XARCH_INDEX_ARCHIVE_INDEX_H_
