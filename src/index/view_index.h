#ifndef XARCH_INDEX_VIEW_INDEX_H_
#define XARCH_INDEX_VIEW_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/archive.h"
#include "core/flat_archive.h"
#include "core/tree_view.h"
#include "util/status.h"

namespace xarch::index {

class ArchiveIndex;

/// Counters comparing indexed against naive access (the Sec. 7 analyses).
struct ProbeStats {
  size_t tree_probes = 0;    ///< timestamp-tree nodes inspected
  size_t naive_probes = 0;   ///< children a full scan would inspect
  size_t comparisons = 0;    ///< key comparisons (history lookups)
};

/// \brief Index access over an ArchiveView: the three query primitives the
/// XAQL evaluator uses, answered by the heap ArchiveIndex (over
/// core::HeapArchiveView ids) or by the persisted XAR2 index pages
/// navigated in place (over core::FlatArchiveView ids).
///
/// Both implementations probe identically — they run the one
/// BudgetedTreeLookup search and the one FindSortedChild binary search —
/// so EXPLAIN output matches across heap-backed and mapped stores.
class ViewIndex {
 public:
  using NodeId = core::ArchiveView::NodeId;

  virtual ~ViewIndex() = default;

  /// The ScanCursor hook: fills *relevant with the indices of node's
  /// children relevant to v (true), or returns false when the node is not
  /// indexed (frontier nodes), directing the caller to a full scan.
  virtual bool RelevantChildren(NodeId node, Version v,
                                std::vector<size_t>* relevant,
                                size_t* probes) const = 0;

  /// Keyed child lookup via the sorted child list; kNoNode when absent.
  virtual NodeId FindChild(NodeId parent, const core::KeyStep& step,
                           ProbeStats* stats) const = 0;

  /// Temporal history along a keyed path: FindChild's binary searches
  /// down view(), one per step (Sec. 7.2).
  StatusOr<VersionSet> History(const std::vector<core::KeyStep>& path,
                               ProbeStats* stats) const;

 protected:
  /// The view whose NodeIds this index speaks.
  virtual const core::ArchiveView& view() const = 0;
};

/// The candidate query labels for a KeyStep: values are plain text, stored
/// values are canonical ("T" + text for element content, raw for
/// attributes); both encodings are tried, canonical first. Shared between
/// the heap index and the mapped XAR2 index so both probe identically.
std::vector<keys::Label> QueryLabels(const core::KeyStep& step);

/// The Sec. 7.2 sorted-child lookup both indexes run: for each candidate
/// label of `step`, a lower-bound binary search over `count` children in
/// label order, where `compare(i, label)` orders the i-th sorted child
/// against the label (<0, 0, >0). Charges the comparisons plus one per
/// label to stats->comparisons (optional). Returns the position of the
/// exact match, or `count` when there is none.
template <typename Compare>
size_t FindSortedChild(size_t count, const core::KeyStep& step,
                       ProbeStats* stats, const Compare& compare) {
  for (const keys::Label& query : QueryLabels(step)) {
    size_t comparisons = 0;
    size_t first = 0;
    size_t remaining = count;
    while (remaining > 0) {
      const size_t half = remaining / 2;
      ++comparisons;
      if (compare(first + half, query) < 0) {
        first += half + 1;
        remaining -= half + 1;
      } else {
        remaining = half;
      }
    }
    if (stats != nullptr) stats->comparisons += comparisons + 1;
    if (first != count && compare(first, query) == 0) return first;
  }
  return count;
}

/// \brief The persisted index pages of an XAR2 snapshot, navigated in
/// place: per archive node, its timestamp tree (verbatim node records) and
/// its children sorted by label.
///
/// Section layout ("index"):
///   u32 node_count                      — must equal the archive's
///   u32 entry_offsets[node_count + 1]   — byte offsets into the blob;
///                                         a zero-length span = not indexed
///   blob of entries, one per indexed node:
///     u32 sorted_count | u32 sorted_child_node_ids[sorted_count]
///     u32 leaf_count | u32 tree_node_count | i32 root_index
///     tree records, 20 bytes each:
///       u32 stamp_id | u32 leaf_lo | u32 leaf_hi | i32 left | i32 right
///
/// Tree records persist TimestampTree::node(i) verbatim (leaves first, in
/// child order), with stamps deduplicated into the archive's timestamp
/// pool — the lookup runs the heap tree's BudgetedTreeLookup over them.
class FlatViewIndex : public ViewIndex {
 public:
  /// Validates the section against the attached archive (every id, offset,
  /// and range checked once) and attaches. kDataLoss on any inconsistency.
  static StatusOr<FlatViewIndex> Attach(const core::FlatArchive* archive,
                                        std::string_view section);

  bool RelevantChildren(NodeId node, Version v, std::vector<size_t>* relevant,
                        size_t* probes) const override;
  NodeId FindChild(NodeId parent, const core::KeyStep& step,
                   ProbeStats* stats) const override;

 protected:
  const core::ArchiveView& view() const override { return view_; }

 private:
  explicit FlatViewIndex(const core::FlatArchive* archive)
      : archive_(archive), view_(archive) {}

  struct Entry {
    std::string_view sorted_ids;  // u32 records
    std::string_view tree;        // 20-byte records
    uint32_t sorted_count = 0;
    uint32_t leaf_count = 0;
    uint32_t tree_node_count = 0;
    int32_t root = -1;
  };

  /// Parses node's entry; false when the node is not indexed.
  bool EntryFor(uint32_t node, Entry* entry) const;
  std::vector<size_t> TreeLookup(const Entry& entry, Version v,
                                 size_t* probes) const;

  const core::FlatArchive* archive_;
  core::FlatArchiveView view_;  // over *archive_
  std::string_view offsets_;  // u32 entry_offsets[node_count + 1]
  std::string_view blob_;
};

/// Serializes `index` as XAR2 index pages, mapping archive nodes to flat
/// ids and interning tree stamps via `encoder` (which must already have
/// EncodeStructure() done, and must Finish() after this call so the interned
/// stamps land in the pool).
std::string EncodeIndexPages(const ArchiveIndex& index,
                             core::FlatArchiveEncoder* encoder);

}  // namespace xarch::index

#endif  // XARCH_INDEX_VIEW_INDEX_H_
