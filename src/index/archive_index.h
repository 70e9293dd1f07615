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
  size_t naive_probes = 0;   ///< children the stamp-checking scan inspected
  size_t comparisons = 0;    ///< key comparisons (sorted-child lookups)
};

/// \brief The Sec. 7.2 index over an archive: each inner node's children
/// sorted by label, stored as the XAR2 index pages (docs/FORMAT.md,
/// "Index pages"). Version retrieval runs the stamp-checking scan; the
/// Sec. 7.1 timestamp trees cost more bytes and time than they saved, so
/// only bench/timestamp_tree.h keeps them, to reproduce the paper's probe
/// counts.
///
/// The pages are the only representation. A heap archive gets them built
/// at publish time ("constructed each time a new version arrives, after
/// nested merge"); a mapped snapshot lends its own, validated by Attach.
/// Every lookup runs one body over the pages. The two states differ only
/// in how a view NodeId maps to a page id: the identity when mapped, a
/// pointer table on the heap. EXPLAIN probe counts therefore agree across
/// heap-backed and mapped stores by construction.
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
///
/// Page ids are the flat encoder's breadth-first node ids
/// (core::BreadthFirstOrder). Entries written before the trees left the
/// index carry a timestamp-tree trailer after the sorted ids; Attach
/// checks its sizes and skips it.
class ArchiveIndex {
 public:
  using NodeId = core::ArchiveView::NodeId;

  /// Builds the pages over a heap archive; NodeIds are those of
  /// core::HeapArchiveView over the same archive (node pointers).
  explicit ArchiveIndex(const core::Archive& archive);

  /// Validates mapped pages against the attached archive (every id,
  /// offset, and size checked once) and borrows them; NodeIds are those
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

  /// Keyed child lookup via the sorted child list — the History step
  /// primitive (O(log d) comparisons for a node of degree d). kNoNode
  /// when no child carries the exact label (tag + all key values) or
  /// `parent` is not indexed (frontier nodes).
  NodeId FindChild(NodeId parent, const core::KeyStep& step,
                   ProbeStats* stats) const;

  /// The pages of a heap index, as a snapshot stores them.
  std::string EncodePages() const;

 private:
  ArchiveIndex() = default;

  const core::ArchiveView& view() const;
  /// The page id of a view node; false when it has no index entry.
  bool PageId(NodeId node, uint32_t* page) const;
  /// The view NodeId of a page id.
  NodeId ViewId(uint32_t page) const;

  std::string_view offsets_;  // u32 entry_offsets[node_count + 1]
  std::string_view blob_;
  uint64_t built_at_generation_ = 0;

  // Mapped state: the snapshot's archive and pages.
  const core::FlatArchive* flat_ = nullptr;
  core::FlatArchiveView flat_view_{nullptr};

  // Heap state: owned pages and the pointer <-> page id table.
  core::HeapArchiveView heap_view_{nullptr};
  std::vector<uint32_t> words_;  // the whole section
  std::vector<const core::ArchiveNode*> nodes_;  // page id -> node
  std::unordered_map<const core::ArchiveNode*, uint32_t> ids_;  // indexed
};

}  // namespace xarch::index

#endif  // XARCH_INDEX_ARCHIVE_INDEX_H_
