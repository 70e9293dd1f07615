#include "index/timestamp_tree.h"

namespace xarch::index {

TimestampTree TimestampTree::Build(std::vector<VersionSet> child_stamps) {
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

std::vector<size_t> TimestampTree::Lookup(Version v, size_t* probes,
                                          size_t probe_budget) const {
  struct Records {
    const std::vector<Node>& nodes;
    bool Contains(int id, Version version) const {
      return nodes[id].stamp.Contains(version);
    }
    int Left(int id) const { return nodes[id].left; }
    int Right(int id) const { return nodes[id].right; }
    size_t LeafLo(int id) const { return nodes[id].leaf_lo; }
  };
  std::vector<size_t> hits;
  BudgetedTreeLookup(Records{nodes_}, root_, leaf_count_, v, probes,
                     probe_budget, &hits);
  return hits;
}

}  // namespace xarch::index
