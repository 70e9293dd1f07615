#include "index/archive_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

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

std::string_view WordBytes(const uint32_t* words, size_t count) {
  return std::string_view(reinterpret_cast<const char*>(words),
                          sizeof(uint32_t) * count);
}

/// The candidate query labels for a KeyStep: values are plain text, stored
/// values are canonical ("T" + text for element content, raw for
/// attributes); both encodings are tried, canonical first.
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

/// Label order (keys::Label::Compare) between a view node's label and a
/// query label.
int CompareLabel(const core::ArchiveView& view, core::ArchiveView::NodeId node,
                 const keys::Label& query) {
  int c = view.Tag(node).compare(query.tag);
  if (c != 0) return c < 0 ? -1 : 1;
  const size_t count = view.LabelPartCount(node);
  if (count != query.parts.size()) {
    return count < query.parts.size() ? -1 : 1;
  }
  for (size_t i = 0; i < count; ++i) {
    const auto [path, value] = view.LabelPart(node, i);
    c = path.compare(query.parts[i].path);
    if (c != 0) return c < 0 ? -1 : 1;
    c = value.compare(query.parts[i].value);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  return 0;
}

}  // namespace

ArchiveIndex::ArchiveIndex(const core::Archive& archive)
    : built_at_generation_(archive.ingest_generation()),
      heap_view_(&archive),
      nodes_(core::BreadthFirstOrder(archive)) {
  const size_t node_count = nodes_.size();
  const size_t blob_begin = 2 + node_count;  // past count and offsets
  words_.reserve(blob_begin);
  words_.push_back(static_cast<uint32_t>(node_count));
  words_.resize(blob_begin, 0);
  ids_.reserve(node_count);
  stamp_offsets_.push_back(0);
  // Trees are built over the children's own timestamps where present; an
  // inheriting child is relevant exactly when its parent is, which the
  // parent's own lookup already established, so its leaf gets the parent
  // stamp — here represented by the child's effective stamp relative to
  // the node's (the archive invariant keeps this sound).
  const VersionSet& root_stamp = *archive.root().stamp;
  std::vector<uint32_t> sorted;
  std::vector<VersionSet> stamps;
  uint32_t child_begin = 1;
  for (size_t page = 0; page < node_count; ++page) {
    const core::ArchiveNode& node = *nodes_[page];
    const auto& children = node.children;
    const uint32_t first_child = child_begin;
    child_begin += static_cast<uint32_t>(children.size());
    if (!node.is_frontier) {
      ids_.emplace(&node, static_cast<uint32_t>(page));
      sorted.resize(children.size());
      std::iota(sorted.begin(), sorted.end(), 0u);
      std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
        return children[a]->label.Compare(children[b]->label) < 0;
      });
      words_.push_back(static_cast<uint32_t>(children.size()));
      for (uint32_t i : sorted) words_.push_back(first_child + i);

      const VersionSet& node_eff = node.stamp ? *node.stamp : root_stamp;
      stamps.clear();
      stamps.reserve(children.size());
      for (const auto& child : children) {
        stamps.push_back(child->EffectiveStamp(node_eff));
      }
      const TimestampTree tree = TimestampTree::Build(std::move(stamps));
      words_.push_back(static_cast<uint32_t>(tree.leaf_count()));
      words_.push_back(static_cast<uint32_t>(tree.node_count()));
      words_.push_back(static_cast<uint32_t>(tree.root_index()));
      for (size_t t = 0; t < tree.node_count(); ++t) {
        const TimestampTree::Node& record = tree.node(t);
        words_.push_back(AddStamp(record.stamp));
        words_.push_back(static_cast<uint32_t>(record.leaf_lo));
        words_.push_back(static_cast<uint32_t>(record.leaf_hi));
        words_.push_back(static_cast<uint32_t>(record.left));
        words_.push_back(static_cast<uint32_t>(record.right));
      }
    }
    words_[2 + page] =
        static_cast<uint32_t>(sizeof(uint32_t) * (words_.size() - blob_begin));
  }
  offsets_ = WordBytes(words_.data() + 1, node_count + 1);
  blob_ = WordBytes(words_.data() + blob_begin, words_.size() - blob_begin);
}

uint32_t ArchiveIndex::AddStamp(const VersionSet& stamp) {
  for (const auto& [lo, hi] : stamp.intervals()) {
    stamp_pairs_.push_back(lo);
    stamp_pairs_.push_back(hi);
  }
  stamp_offsets_.push_back(static_cast<uint32_t>(stamp_pairs_.size() / 2));
  return static_cast<uint32_t>(stamp_offsets_.size() - 2);
}

StatusOr<ArchiveIndex> ArchiveIndex::Attach(const core::FlatArchive* archive,
                                            std::string_view pages) {
  ArchiveIndex index;
  index.flat_ = archive;
  index.flat_view_ = core::FlatArchiveView(archive);
  if (pages.size() < 4) return Bad();
  const uint32_t node_count = LoadU32(pages, 0);
  if (node_count != archive->node_count()) return Bad();
  const uint64_t offsets_bytes = 4ull * (uint64_t{node_count} + 1);
  if (4 + offsets_bytes > pages.size()) return Bad();
  index.offsets_ = pages.substr(4, offsets_bytes);
  index.blob_ = pages.substr(4 + offsets_bytes);
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
    // Probe parity with a heap-built index: every inner node indexed, no
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

const core::ArchiveView& ArchiveIndex::view() const {
  if (flat_ != nullptr) return flat_view_;
  return heap_view_;
}

bool ArchiveIndex::PageId(NodeId node, uint32_t* page) const {
  if (flat_ != nullptr) {
    *page = static_cast<uint32_t>(node);
    return true;
  }
  auto it = ids_.find(&core::HeapArchiveView::Node(node));
  if (it == ids_.end()) return false;
  *page = it->second;
  return true;
}

ArchiveIndex::NodeId ArchiveIndex::ViewId(uint32_t page) const {
  if (flat_ != nullptr) return page;
  return core::HeapArchiveView::Id(*nodes_[page]);
}

bool ArchiveIndex::StampContains(uint32_t stamp, Version v) const {
  if (flat_ != nullptr) return flat_->StampContains(stamp, v);
  const auto begin = stamp_pairs_.begin();
  // The interval pairs are sorted and disjoint: find the first whose hi
  // reaches v.
  uint32_t lo = stamp_offsets_[stamp], hi = stamp_offsets_[stamp + 1];
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (begin[2 * mid + 1] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < stamp_offsets_[stamp + 1] && begin[2 * lo] <= v;
}

bool ArchiveIndex::EntryAt(uint32_t page, Entry* entry) const {
  const uint32_t lo = LoadU32(offsets_, 4ull * page);
  const uint32_t hi = LoadU32(offsets_, 4ull * page + 4);
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

void ArchiveIndex::TreeLookup(const Entry& entry, Version v, size_t* probes,
                              std::vector<size_t>* hits) const {
  // The TimestampTree records, fed to TimestampTree's own search.
  struct Records {
    const ArchiveIndex& index;
    std::string_view tree;
    bool Contains(int id, Version version) const {
      return index.StampContains(TreeU32(tree, id, 0), version);
    }
    int Left(int id) const { return TreeI32(tree, id, 3); }
    int Right(int id) const { return TreeI32(tree, id, 4); }
    size_t LeafLo(int id) const { return TreeU32(tree, id, 1); }
  };
  BudgetedTreeLookup(Records{*this, entry.tree}, entry.root, entry.leaf_count,
                     v, probes, 2 * size_t{entry.leaf_count}, hits);
}

bool ArchiveIndex::RelevantChildren(NodeId node, Version v,
                                    std::vector<size_t>* relevant,
                                    size_t* probes) const {
  uint32_t page;
  Entry entry;
  if (!PageId(node, &page) || !EntryAt(page, &entry)) return false;
  TreeLookup(entry, v, probes, relevant);
  return true;
}

ArchiveIndex::NodeId ArchiveIndex::FindChild(NodeId parent,
                                             const core::KeyStep& step,
                                             ProbeStats* stats) const {
  uint32_t page;
  Entry entry;
  if (!PageId(parent, &page) || !EntryAt(page, &entry)) {
    return core::ArchiveView::kNoNode;
  }
  // The Sec. 7.2 lookup: for each candidate label, a lower-bound binary
  // search over the sorted children, charging its comparisons plus one
  // for the final equality check.
  for (const keys::Label& query : QueryLabels(step)) {
    auto compare = [&](size_t i) {
      return CompareLabel(view(), ViewId(SortedId(entry.sorted_ids, i)),
                          query);
    };
    size_t comparisons = 0;
    size_t first = 0;
    size_t remaining = entry.sorted_count;
    while (remaining > 0) {
      const size_t half = remaining / 2;
      ++comparisons;
      if (compare(first + half) < 0) {
        first += half + 1;
        remaining -= half + 1;
      } else {
        remaining = half;
      }
    }
    if (stats != nullptr) stats->comparisons += comparisons + 1;
    if (first != entry.sorted_count && compare(first) == 0) {
      return ViewId(SortedId(entry.sorted_ids, first));
    }
  }
  return core::ArchiveView::kNoNode;
}

StatusOr<VersionSet> ArchiveIndex::History(
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

size_t ArchiveIndex::TreeNodeCount() const {
  size_t total = 0;
  Entry entry;
  const uint32_t node_count =
      static_cast<uint32_t>(offsets_.size() / sizeof(uint32_t)) - 1;
  for (uint32_t page = 0; page < node_count; ++page) {
    if (EntryAt(page, &entry)) total += entry.tree_node_count;
  }
  return total;
}

std::string ArchiveIndex::EncodePages(core::FlatArchiveEncoder* encoder) const {
  assert(flat_ == nullptr);  // a mapped store saves its file as it is
  std::string out(WordBytes(words_.data(), words_.size()));
  const size_t blob_at = out.size() - blob_.size();
  Entry entry;
  for (uint32_t page = 0; page < nodes_.size(); ++page) {
    if (!EntryAt(page, &entry)) continue;
    const size_t tree_at = blob_at + (entry.tree.data() - blob_.data());
    for (uint32_t t = 0; t < entry.tree_node_count; ++t) {
      const uint32_t stamp = TreeU32(entry.tree, t, 0);
      const uint32_t pooled = encoder->InternStamp(WordBytes(
          stamp_pairs_.data() + 2 * stamp_offsets_[stamp],
          2 * (stamp_offsets_[stamp + 1] - stamp_offsets_[stamp])));
      std::memcpy(&out[tree_at + kTreeRecordBytes * t], &pooled,
                  sizeof(pooled));
    }
  }
  return out;
}

}  // namespace xarch::index
