#ifndef XARCH_INDEX_TIMESTAMP_TREE_H_
#define XARCH_INDEX_TIMESTAMP_TREE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/version_set.h"

namespace xarch::index {

/// The Sec. 7.1 budgeted search over any storage of tree node records.
/// TimestampTree and the index pages (index::ArchiveIndex) both run this
/// one body, so their hits and probe counts agree by construction. `records`
/// answers Contains(id, v), Left(id) / Right(id) (-1 for leaves), and
/// LeafLo(id); leaves occupy ids [0, leaf_count) in child order.
///
/// Iterative DFS from `root` (-1: empty tree). When the probe count reaches
/// `probe_budget` at an inner node, the descent is abandoned and the
/// leaves are scanned directly; the answer is identical either way. The
/// hits replace `*hits`, whose capacity is reused, so a caller that keeps
/// one vector across lookups allocates nothing once it has grown.
template <typename Records>
void BudgetedTreeLookup(const Records& records, int root, size_t leaf_count,
                        Version v, size_t* probes, size_t probe_budget,
                        std::vector<size_t>* hits) {
  hits->clear();
  size_t probe_count = 0;
  if (root >= 0) {
    // The DFS stack holds one pending right child per level of the current
    // path plus the node being expanded: tree height + 1 entries. A tree
    // paired bottom-up over a u32 leaf count is at most 33 levels high, so
    // a deeper stack means malformed records; the leaf scan answers those.
    constexpr size_t kMaxPending = 34;
    int pending[kMaxPending] = {};
    size_t depth = 0;
    pending[depth++] = root;
    bool budget_hit = false;
    while (depth > 0) {
      const int id = pending[--depth];
      ++probe_count;
      if (!records.Contains(id, v)) continue;
      const int left = records.Left(id);
      if (left < 0) {
        hits->push_back(records.LeafLo(id));
        continue;
      }
      if (probe_count >= probe_budget || depth + 2 > kMaxPending) {
        budget_hit = true;
        break;
      }
      // Right pushed first so the left child pops first (in-order hits).
      pending[depth++] = records.Right(id);
      pending[depth++] = left;
    }
    if (budget_hit) {
      hits->clear();
      for (size_t i = 0; i < leaf_count; ++i) {
        ++probe_count;
        if (records.Contains(static_cast<int>(i), v)) hits->push_back(i);
      }
    } else {
      std::sort(hits->begin(), hits->end());
    }
  }
  if (probes != nullptr) *probes = probe_count;
}

/// \brief The timestamp binary tree of Sec. 7.1.
///
/// Built over the k children of an archive node: leaves hold each child's
/// timestamp (plus the child index, standing in for the paper's file
/// offset); internal nodes hold the union of their children's timestamps.
/// Lookup(v) finds the α children relevant to version v while probing at
/// most min(2α − 1 + 2α·log(k/α) , 2k) tree nodes: the paper's search
/// keeps a probe budget of 2k and falls back to scanning all leaves when
/// the budget is hit before the leaf level.
class TimestampTree {
 public:
  /// Builds the tree bottom-up by pairing nodes (Sec. 7.1 construction).
  static TimestampTree Build(std::vector<VersionSet> child_stamps);

  /// Returns the indices of children whose timestamp contains v, in order.
  /// `*probes` (optional) receives the number of tree nodes inspected.
  std::vector<size_t> Lookup(Version v, size_t* probes) const {
    return Lookup(v, probes, 2 * leaf_count_);
  }

  /// Lookup with an explicit probe budget (the paper uses 2k). When the
  /// tree search exhausts the budget before reaching all relevant leaves,
  /// it abandons the descent and scans the k leaves directly; the answer
  /// is identical either way. Exposed so tests can drive the fallback
  /// path, which the default budget — at least the full node count
  /// 2k − 1 — never triggers.
  std::vector<size_t> Lookup(Version v, size_t* probes,
                             size_t probe_budget) const;

  size_t leaf_count() const { return leaf_count_; }

  /// Total tree nodes (space cost of the index).
  size_t node_count() const { return nodes_.size(); }

  struct Node {
    VersionSet stamp;
    size_t leaf_lo, leaf_hi;  // inclusive child-index range
    int left = -1, right = -1;  // -1: leaf
  };

  /// The i-th tree node (leaves occupy [0, leaf_count()) in child order).
  /// Exposed for the index pages, which store the tree verbatim so their
  /// lookup probes the same nodes in the same order.
  const Node& node(size_t i) const { return nodes_[i]; }

  /// Index of the root node, -1 when the tree is empty.
  int root_index() const { return root_; }

 private:
  std::vector<Node> nodes_;
  int root_ = -1;
  size_t leaf_count_ = 0;
};

}  // namespace xarch::index

#endif  // XARCH_INDEX_TIMESTAMP_TREE_H_
