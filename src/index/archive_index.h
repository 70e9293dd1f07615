#ifndef XARCH_INDEX_ARCHIVE_INDEX_H_
#define XARCH_INDEX_ARCHIVE_INDEX_H_

#include <unordered_map>
#include <vector>

#include "core/archive.h"
#include "index/timestamp_tree.h"
#include "index/view_index.h"
#include "util/status.h"

namespace xarch::index {

/// \brief Index structures over an Archive: a timestamp tree per inner node
/// (Sec. 7.1) and sorted child-key lists for history lookups (Sec. 7.2).
///
/// The index is built with one scan of the archive ("constructed each time
/// a new version arrives, after nested merge") and must be rebuilt after
/// AddVersion. It borrows the archive; the archive must outlive it.
///
/// Publish protocol (the synchronized rebuild the Store layer uses): the
/// constructor records the archive's ingest generation, so holders can
/// assert an index is current (built_at_generation() ==
/// archive.ingest_generation()). An index must be (re)built and published
/// by the INGEST path, under the same exclusive lock that guarded the
/// merge — never lazily from a read, where concurrent readers would race
/// on the swap. After construction the index is immutable: every query
/// method is const and safe to call from any number of threads.
///
/// As a ViewIndex its NodeIds are those of core::HeapArchiveView over the
/// same archive (node pointers).
class ArchiveIndex : public ViewIndex {
 public:
  explicit ArchiveIndex(const core::Archive& archive);

  /// The archive ingest generation this index was built at; stale when the
  /// archive's ingest_generation() has moved past it.
  uint64_t built_at_generation() const { return built_at_generation_; }

  /// Version retrieval directed by timestamp trees: at every inner node
  /// only the relevant children are visited. Probe counts accumulate into
  /// *stats (optional).
  StatusOr<xml::NodePtr> RetrieveVersion(Version v, ProbeStats* stats) const;

  /// Keyed child lookup via the sorted child-key list — the History step
  /// primitive (History costs O(l log d) comparisons for a path of length
  /// l and max degree d). kNoNode when no child carries the exact label
  /// (tag + all key values).
  NodeId FindChild(NodeId parent, const core::KeyStep& step,
                   ProbeStats* stats) const override;

  /// Pruned-subtree cursor hook (the Sec. 7.1 search applied below any
  /// archive node): fills `*relevant` with the indices of `node`'s
  /// children whose timestamp contains v, via the node's timestamp tree,
  /// and returns true. Returns false when `node` is not indexed (frontier
  /// nodes), directing the caller to a full child scan. `*probes` receives
  /// the tree nodes inspected.
  bool RelevantChildren(NodeId node, Version v, std::vector<size_t>* relevant,
                        size_t* probes) const override;

  /// Total timestamp-tree nodes across the archive (index space cost).
  size_t TreeNodeCount() const;

  /// Per inner node: its timestamp tree (over child effective stamps) and
  /// its children sorted by plain label order (for binary search).
  struct NodeIndex {
    TimestampTree tree;
    std::vector<const core::ArchiveNode*> sorted_children;
  };

  /// The index entry of `node`, or nullptr when the node is not indexed
  /// (frontier nodes). Exposed for XAR2 index-page serialization.
  const NodeIndex* EntryFor(const core::ArchiveNode& node) const {
    auto it = nodes_.find(&node);
    return it == nodes_.end() ? nullptr : &it->second;
  }

 protected:
  const core::ArchiveView& view() const override { return view_; }

 private:
  void BuildRecursive(const core::ArchiveNode& node);
  const core::ArchiveNode* FindChildSorted(const core::ArchiveNode& parent,
                                           const core::KeyStep& step,
                                           ProbeStats* stats) const;

  const core::Archive& archive_;
  core::HeapArchiveView view_;  // over archive_
  uint64_t built_at_generation_ = 0;
  std::unordered_map<const core::ArchiveNode*, NodeIndex> nodes_;
};

}  // namespace xarch::index

#endif  // XARCH_INDEX_ARCHIVE_INDEX_H_
