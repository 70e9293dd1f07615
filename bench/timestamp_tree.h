#ifndef XARCH_BENCH_TIMESTAMP_TREE_H_
#define XARCH_BENCH_TIMESTAMP_TREE_H_

// The Sec. 7.1 timestamp tree, kept beside the benches that reproduce the
// paper's probe counts. The library's index holds only the Sec. 7.2
// sorted child ids: measured on OMIM and Swiss-Prot archives, the trees
// made version retrieval slower than the stamp-checking scan and were
// about 80% of the index pages (docs/FORMAT.md, "Index pages").

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/version_set.h"

namespace xarch::bench {

/// The Sec. 7.1 budgeted search over any storage of tree node records.
/// `records` answers Contains(id, v), Left(id) / Right(id) (-1 for
/// leaves), and LeafLo(id); leaves occupy ids [0, leaf_count) in child
/// order.
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
  static TimestampTree Build(std::vector<VersionSet> child_stamps) {
    TimestampTree tree;
    tree.leaf_count_ = child_stamps.size();
    if (child_stamps.empty()) return tree;
    // Level 0: leaves.
    std::vector<int> level;
    level.reserve(child_stamps.size());
    for (size_t i = 0; i < child_stamps.size(); ++i) {
      tree.nodes_.push_back(Node{std::move(child_stamps[i]), i, i, -1, -1});
      level.push_back(static_cast<int>(tree.nodes_.size() - 1));
    }
    // Pair repeatedly, unioning timestamps (bottom-up construction).
    while (level.size() > 1) {
      std::vector<int> next;
      next.reserve((level.size() + 1) / 2);
      for (size_t i = 0; i + 1 < level.size(); i += 2) {
        const Node& l = tree.nodes_[level[i]];
        const Node& r = tree.nodes_[level[i + 1]];
        VersionSet stamp = l.stamp;
        stamp.UnionWith(r.stamp);
        tree.nodes_.push_back(Node{std::move(stamp), l.leaf_lo, r.leaf_hi,
                                   level[i], level[i + 1]});
        next.push_back(static_cast<int>(tree.nodes_.size() - 1));
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    tree.root_ = level[0];
    return tree;
  }

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
                             size_t probe_budget) const {
    std::vector<size_t> hits;
    Lookup(v, probes, probe_budget, &hits);
    return hits;
  }

  /// The same search into a caller-kept vector (no allocation once grown).
  void Lookup(Version v, size_t* probes, size_t probe_budget,
              std::vector<size_t>* hits) const {
    struct Records {
      const std::vector<Node>& nodes;
      bool Contains(int id, Version version) const {
        return nodes[id].stamp.Contains(version);
      }
      int Left(int id) const { return nodes[id].left; }
      int Right(int id) const { return nodes[id].right; }
      size_t LeafLo(int id) const { return nodes[id].leaf_lo; }
    };
    BudgetedTreeLookup(Records{nodes_}, root_, leaf_count_, v, probes,
                       probe_budget, hits);
  }

  size_t leaf_count() const { return leaf_count_; }

  /// Total tree nodes (space cost of the index).
  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    VersionSet stamp;
    size_t leaf_lo, leaf_hi;  // inclusive child-index range
    int left = -1, right = -1;  // -1: leaf
  };

  std::vector<Node> nodes_;
  int root_ = -1;
  size_t leaf_count_ = 0;
};

}  // namespace xarch::bench

#endif  // XARCH_BENCH_TIMESTAMP_TREE_H_
