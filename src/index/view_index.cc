#include "index/view_index.h"

#include <cstring>

#include "index/archive_index.h"
#include "index/timestamp_tree.h"

namespace xarch::index {

namespace {

using core::FlatArchive;

uint32_t LoadU32(std::string_view bytes, size_t offset) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

int32_t LoadI32(std::string_view bytes, size_t offset) {
  return static_cast<int32_t>(LoadU32(bytes, offset));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

Status Bad() { return Status::DataLoss("snapshot index pages are corrupt"); }

constexpr size_t kTreeRecordBytes = 20;

// Tree record fields: stamp_id, leaf_lo, leaf_hi (u32), left, right (i32).
uint32_t TreeU32(std::string_view tree, size_t record, size_t field) {
  return LoadU32(tree, kTreeRecordBytes * record + 4 * field);
}

int32_t TreeI32(std::string_view tree, size_t record, size_t field) {
  return LoadI32(tree, kTreeRecordBytes * record + 4 * field);
}

uint32_t SortedId(std::string_view sorted_ids, size_t i) {
  return LoadU32(sorted_ids, 4 * i);
}

/// Label order between a flat node's stored label and a query label, at the
/// string_view level — the exact comparisons keys::Label::Compare makes.
int CompareFlatLabel(const FlatArchive& a, uint32_t node,
                     const keys::Label& query) {
  int c = a.StringAt(a.NodeField(node, FlatArchive::kNodeTagSid))
              .compare(std::string_view(query.tag));
  if (c != 0) return c < 0 ? -1 : 1;
  const uint32_t count = a.NodeField(node, FlatArchive::kNodePartCount);
  if (count != query.parts.size()) {
    return count < query.parts.size() ? -1 : 1;
  }
  const uint32_t begin = a.NodeField(node, FlatArchive::kNodePartBegin);
  for (uint32_t i = 0; i < count; ++i) {
    c = a.StringAt(a.PartPathSid(begin + i))
            .compare(std::string_view(query.parts[i].path));
    if (c != 0) return c < 0 ? -1 : 1;
    c = a.StringAt(a.PartValueSid(begin + i))
            .compare(std::string_view(query.parts[i].value));
    if (c != 0) return c < 0 ? -1 : 1;
  }
  return 0;
}

}  // namespace

StatusOr<VersionSet> ViewIndex::History(
    const std::vector<core::KeyStep>& path, ProbeStats* stats) const {
  const core::ArchiveView& archive = view();
  NodeId node = archive.Root();
  VersionSet effective = archive.StampValue(node);
  for (const auto& step : path) {
    if (archive.IsFrontier(node)) {
      return Status::InvalidArgument("history path descends below frontier");
    }
    const NodeId child = FindChild(node, step, stats);
    if (child == core::ArchiveView::kNoNode) {
      return Status::NotFound("no element " + step.tag + " on the given path");
    }
    effective = archive.EffectiveStamp(child, effective);
    node = child;
  }
  return effective;
}

StatusOr<FlatViewIndex> FlatViewIndex::Attach(const core::FlatArchive* archive,
                                              std::string_view section) {
  FlatViewIndex index(archive);
  if (section.size() < 4) return Bad();
  const uint32_t node_count = LoadU32(section, 0);
  if (node_count != archive->node_count()) return Bad();
  const uint64_t offsets_bytes = 4ull * (uint64_t{node_count} + 1);
  if (4 + offsets_bytes > section.size()) return Bad();
  index.offsets_ = section.substr(4, offsets_bytes);
  index.blob_ = section.substr(4 + offsets_bytes);
  if (LoadU32(index.offsets_, 0) != 0 ||
      LoadU32(index.offsets_, 4ull * node_count) != index.blob_.size()) {
    return Bad();
  }
  for (uint32_t n = 0; n < node_count; ++n) {
    const uint32_t lo = LoadU32(index.offsets_, 4ull * n);
    const uint32_t hi = LoadU32(index.offsets_, 4ull * n + 4);
    if (lo > hi) return Bad();
    const bool frontier =
        (archive->NodeField(n, FlatArchive::kNodeFlags) &
         FlatArchive::kFlagFrontier) != 0;
    // Probe parity with the heap index: every inner node indexed, no
    // frontier node indexed.
    if ((lo == hi) != frontier) return Bad();
    if (lo == hi) continue;
    const std::string_view entry = index.blob_.substr(lo, hi - lo);
    if (entry.size() < 4) return Bad();
    const uint32_t sorted_count = LoadU32(entry, 0);
    const uint64_t tree_header = 4 + 4ull * sorted_count;
    if (tree_header + 12 > entry.size()) return Bad();
    const uint32_t leaf_count = LoadU32(entry, tree_header);
    const uint32_t tree_node_count = LoadU32(entry, tree_header + 4);
    const int32_t root = LoadI32(entry, tree_header + 8);
    if (tree_header + 12 + kTreeRecordBytes * uint64_t{tree_node_count} !=
        entry.size()) {
      return Bad();
    }
    const uint32_t child_begin =
        archive->NodeField(n, FlatArchive::kNodeChildBegin);
    const uint32_t child_count =
        archive->NodeField(n, FlatArchive::kNodeChildCount);
    if (sorted_count != child_count || leaf_count != child_count) {
      return Bad();
    }
    const std::string_view sorted_ids = entry.substr(4, 4ull * sorted_count);
    for (uint32_t i = 0; i < sorted_count; ++i) {
      const uint32_t id = SortedId(sorted_ids, i);
      if (id < child_begin || id >= child_begin + child_count) return Bad();
    }
    const std::string_view tree = entry.substr(tree_header + 12);
    if (tree_node_count == 0) {
      if (root != -1 || leaf_count != 0) return Bad();
      continue;
    }
    if (leaf_count > tree_node_count || root < 0 ||
        static_cast<uint32_t>(root) >= tree_node_count) {
      return Bad();
    }
    for (uint32_t t = 0; t < tree_node_count; ++t) {
      if (TreeU32(tree, t, 0) >= archive->stamp_count()) return Bad();
      const uint32_t leaf_lo = TreeU32(tree, t, 1);
      const uint32_t leaf_hi = TreeU32(tree, t, 2);
      const int32_t left = TreeI32(tree, t, 3);
      const int32_t right = TreeI32(tree, t, 4);
      if (leaf_lo > leaf_hi || leaf_hi >= leaf_count) return Bad();
      if ((left < 0) != (right < 0)) return Bad();
      if (left >= 0 &&
          (static_cast<uint32_t>(left) >= tree_node_count ||
           static_cast<uint32_t>(right) >= tree_node_count)) {
        return Bad();
      }
      // Leaves occupy [0, leaf_count) in child order; the budget-fallback
      // scan depends on it.
      if (t < leaf_count && (left >= 0 || leaf_lo != t || leaf_hi != t)) {
        return Bad();
      }
    }
  }
  return index;
}

bool FlatViewIndex::EntryFor(uint32_t node, Entry* entry) const {
  const uint32_t lo = LoadU32(offsets_, 4ull * node);
  const uint32_t hi = LoadU32(offsets_, 4ull * node + 4);
  if (lo == hi) return false;
  const std::string_view bytes = blob_.substr(lo, hi - lo);
  entry->sorted_count = LoadU32(bytes, 0);
  entry->sorted_ids = bytes.substr(4, 4ull * entry->sorted_count);
  const uint64_t tree_header = 4 + 4ull * entry->sorted_count;
  entry->leaf_count = LoadU32(bytes, tree_header);
  entry->tree_node_count = LoadU32(bytes, tree_header + 4);
  entry->root = LoadI32(bytes, tree_header + 8);
  entry->tree = bytes.substr(tree_header + 12);
  return true;
}

std::vector<size_t> FlatViewIndex::TreeLookup(const Entry& entry, Version v,
                                              size_t* probes) const {
  // The persisted TimestampTree records, fed to the heap tree's own search.
  struct Records {
    const FlatArchive& archive;
    std::string_view tree;
    bool Contains(int id, Version version) const {
      return archive.StampContains(TreeU32(tree, id, 0), version);
    }
    int Left(int id) const { return TreeI32(tree, id, 3); }
    int Right(int id) const { return TreeI32(tree, id, 4); }
    size_t LeafLo(int id) const { return TreeU32(tree, id, 1); }
  };
  return BudgetedTreeLookup(Records{*archive_, entry.tree}, entry.root,
                            entry.leaf_count, v, probes,
                            2 * size_t{entry.leaf_count});
}

bool FlatViewIndex::RelevantChildren(NodeId node, Version v,
                                     std::vector<size_t>* relevant,
                                     size_t* probes) const {
  Entry entry;
  if (!EntryFor(static_cast<uint32_t>(node), &entry)) return false;
  *relevant = TreeLookup(entry, v, probes);
  return true;
}

ViewIndex::NodeId FlatViewIndex::FindChild(NodeId parent,
                                           const core::KeyStep& step,
                                           ProbeStats* stats) const {
  Entry entry;
  if (!EntryFor(static_cast<uint32_t>(parent), &entry)) {
    return core::ArchiveView::kNoNode;
  }
  const size_t pos = FindSortedChild(
      entry.sorted_count, step, stats,
      [&](size_t i, const keys::Label& query) {
        return CompareFlatLabel(*archive_, SortedId(entry.sorted_ids, i),
                                query);
      });
  if (pos == entry.sorted_count) return core::ArchiveView::kNoNode;
  return SortedId(entry.sorted_ids, pos);
}

std::string EncodeIndexPages(const ArchiveIndex& index,
                             core::FlatArchiveEncoder* encoder) {
  const std::vector<const core::ArchiveNode*>& order = encoder->node_order();
  std::string blob;
  std::vector<uint32_t> offsets;
  offsets.reserve(order.size() + 1);
  offsets.push_back(0);
  for (const core::ArchiveNode* node : order) {
    const ArchiveIndex::NodeIndex* entry = index.EntryFor(*node);
    if (entry != nullptr) {
      PutU32(&blob, static_cast<uint32_t>(entry->sorted_children.size()));
      for (const core::ArchiveNode* child : entry->sorted_children) {
        PutU32(&blob, encoder->NodeIdOf(*child));
      }
      PutU32(&blob, static_cast<uint32_t>(entry->tree.leaf_count()));
      PutU32(&blob, static_cast<uint32_t>(entry->tree.node_count()));
      PutI32(&blob, entry->tree.root_index());
      for (size_t t = 0; t < entry->tree.node_count(); ++t) {
        const TimestampTree::Node& tree_node = entry->tree.node(t);
        PutU32(&blob, encoder->InternStamp(tree_node.stamp));
        PutU32(&blob, static_cast<uint32_t>(tree_node.leaf_lo));
        PutU32(&blob, static_cast<uint32_t>(tree_node.leaf_hi));
        PutI32(&blob, tree_node.left);
        PutI32(&blob, tree_node.right);
      }
    }
    offsets.push_back(static_cast<uint32_t>(blob.size()));
  }
  std::string out;
  PutU32(&out, static_cast<uint32_t>(order.size()));
  for (uint32_t offset : offsets) PutU32(&out, offset);
  out += blob;
  return out;
}

}  // namespace xarch::index
