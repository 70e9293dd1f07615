#include "index/archive_index.h"

#include <algorithm>

namespace xarch::index {

std::vector<keys::Label> QueryLabels(const core::KeyStep& step) {
  keys::Label canonical, raw;
  canonical.tag = raw.tag = step.tag;
  for (const auto& [path, text] : step.key) {
    bool is_attr = !path.empty() && path[0] == '@';
    canonical.parts.push_back(
        keys::LabelPart{path, is_attr ? text : "T" + text});
    raw.parts.push_back(keys::LabelPart{path, text});
  }
  auto by_path = [](const keys::LabelPart& a, const keys::LabelPart& b) {
    return a.path < b.path;
  };
  std::sort(canonical.parts.begin(), canonical.parts.end(), by_path);
  std::sort(raw.parts.begin(), raw.parts.end(), by_path);
  std::vector<keys::Label> out;
  out.push_back(std::move(canonical));
  if (!step.key.empty()) out.push_back(std::move(raw));
  return out;
}

ArchiveIndex::ArchiveIndex(const core::Archive& archive)
    : archive_(archive),
      view_(&archive),
      built_at_generation_(archive.ingest_generation()) {
  BuildRecursive(archive.root());
}

void ArchiveIndex::BuildRecursive(const core::ArchiveNode& node) {
  if (node.is_frontier) return;
  NodeIndex entry;
  std::vector<VersionSet> stamps;
  stamps.reserve(node.children.size());
  // Trees are built over the children's own timestamps where present; an
  // inheriting child is relevant exactly when its parent is, which the
  // parent's own lookup already established, so its leaf gets the parent
  // stamp — here represented by the child's effective stamp relative to
  // the node's (the archive invariant keeps this sound).
  const VersionSet& node_eff =
      node.stamp.has_value() ? *node.stamp : *archive_.root().stamp;
  for (const auto& child : node.children) {
    stamps.push_back(child->EffectiveStamp(node_eff));
    entry.sorted_children.push_back(child.get());
  }
  entry.tree = TimestampTree::Build(std::move(stamps));
  std::sort(entry.sorted_children.begin(), entry.sorted_children.end(),
            [](const core::ArchiveNode* a, const core::ArchiveNode* b) {
              return a->label.Compare(b->label) < 0;
            });
  nodes_.emplace(&node, std::move(entry));
  for (const auto& child : node.children) BuildRecursive(*child);
}

StatusOr<xml::NodePtr> ArchiveIndex::RetrieveVersion(Version v,
                                                     ProbeStats* stats) const {
  if (v == 0 || v > archive_.version_count()) {
    return Status::NotFound("version " + std::to_string(v) + " not archived");
  }
  ProbeStats local;
  ProbeStats* ps = stats != nullptr ? stats : &local;

  // Recursive reconstruction directed by the timestamp trees.
  struct Builder {
    const ArchiveIndex& index;
    Version v;
    ProbeStats* stats;

    xml::NodePtr Build(const core::ArchiveNode& node) {
      xml::NodePtr elem = xml::Node::Element(node.label.tag);
      for (const auto& [name, value] : node.attrs) elem->SetAttr(name, value);
      if (node.is_frontier) {
        for (const auto& bucket : node.buckets) {
          if (bucket.stamp.has_value() && !bucket.stamp->Contains(v)) continue;
          for (const auto& n : bucket.content) elem->AddChild(n->Clone());
        }
        return elem;
      }
      auto it = index.nodes_.find(&node);
      stats->naive_probes += node.children.size();
      if (it == index.nodes_.end()) return elem;
      size_t probes = 0;
      std::vector<size_t> relevant = it->second.tree.Lookup(v, &probes);
      stats->tree_probes += probes;
      for (size_t child_index : relevant) {
        elem->AddChild(Build(*node.children[child_index]));
      }
      return elem;
    }
  } builder{*this, v, ps};

  // Find the relevant top-level child via the root's tree.
  auto it = nodes_.find(&archive_.root());
  if (it == nodes_.end()) return xml::NodePtr(nullptr);
  size_t probes = 0;
  std::vector<size_t> tops = it->second.tree.Lookup(v, &probes);
  ps->tree_probes += probes;
  ps->naive_probes += archive_.root().children.size();
  if (tops.empty()) return xml::NodePtr(nullptr);  // empty database at v
  return builder.Build(*archive_.root().children[tops[0]]);
}

const core::ArchiveNode* ArchiveIndex::FindChildSorted(
    const core::ArchiveNode& parent, const core::KeyStep& step,
    ProbeStats* stats) const {
  auto it = nodes_.find(&parent);
  if (it == nodes_.end()) return nullptr;
  const auto& sorted = it->second.sorted_children;
  const size_t pos = FindSortedChild(
      sorted.size(), step, stats, [&](size_t i, const keys::Label& query) {
        return sorted[i]->label.Compare(query);
      });
  return pos == sorted.size() ? nullptr : sorted[pos];
}

bool ArchiveIndex::RelevantChildren(NodeId node, Version v,
                                    std::vector<size_t>* relevant,
                                    size_t* probes) const {
  auto it = nodes_.find(&core::HeapArchiveView::Node(node));
  if (it == nodes_.end()) return false;
  *relevant = it->second.tree.Lookup(v, probes);
  return true;
}

ViewIndex::NodeId ArchiveIndex::FindChild(NodeId parent,
                                          const core::KeyStep& step,
                                          ProbeStats* stats) const {
  const core::ArchiveNode* child =
      FindChildSorted(core::HeapArchiveView::Node(parent), step, stats);
  return child == nullptr ? core::ArchiveView::kNoNode
                          : core::HeapArchiveView::Id(*child);
}

size_t ArchiveIndex::TreeNodeCount() const {
  size_t total = 0;
  for (const auto& [node, entry] : nodes_) {
    (void)node;
    total += entry.tree.node_count();
  }
  return total;
}

}  // namespace xarch::index
