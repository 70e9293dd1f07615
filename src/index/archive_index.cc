#include "index/archive_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

namespace xarch::index {

namespace {

using core::FlatArchive;

uint32_t LoadU32(std::string_view bytes, size_t offset) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

Status Bad() { return Status::DataLoss("snapshot index pages are corrupt"); }

/// The timestamp-tree trailer older entries carry after their sorted ids:
/// u32 leaf_count | u32 tree_node_count | i32 root_index, then 20-byte
/// records. Attach checks its sizes against the node and skips it.
constexpr uint64_t kTreeHeaderBytes = 12;
constexpr uint64_t kTreeRecordBytes = 20;

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
  // One count word per inner node and one id word per child.
  words_.reserve(blob_begin + 2 * node_count);
  words_.push_back(static_cast<uint32_t>(node_count));
  words_.resize(blob_begin, 0);
  ids_.reserve(node_count);
  std::vector<uint32_t> sorted;
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
    }
    words_[2 + page] =
        static_cast<uint32_t>(sizeof(uint32_t) * (words_.size() - blob_begin));
  }
  offsets_ = WordBytes(words_.data() + 1, node_count + 1);
  blob_ = WordBytes(words_.data() + blob_begin, words_.size() - blob_begin);
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
    const uint32_t child_begin =
        archive->NodeField(n, FlatArchive::kNodeChildBegin);
    const uint32_t child_count =
        archive->NodeField(n, FlatArchive::kNodeChildCount);
    const uint64_t ids_end = 4 + 4ull * sorted_count;
    if (sorted_count != child_count || ids_end > entry.size()) return Bad();
    const std::string_view sorted_ids = entry.substr(4, ids_end - 4);
    for (uint32_t i = 0; i < sorted_count; ++i) {
      const uint32_t id = SortedId(sorted_ids, i);
      if (id < child_begin || id >= child_begin + child_count) return Bad();
    }
    if (ids_end == entry.size()) continue;
    // An older entry's tree trailer: a bottom-up pairing over the node's
    // children, 2k - 1 records for k > 0 children.
    const std::string_view trailer = entry.substr(ids_end);
    if (trailer.size() < kTreeHeaderBytes) return Bad();
    const uint32_t leaf_count = LoadU32(trailer, 0);
    const uint32_t tree_node_count = LoadU32(trailer, 4);
    if (leaf_count != child_count ||
        tree_node_count != (leaf_count == 0 ? 0 : 2ull * leaf_count - 1) ||
        trailer.size() !=
            kTreeHeaderBytes + kTreeRecordBytes * tree_node_count) {
      return Bad();
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

ArchiveIndex::NodeId ArchiveIndex::FindChild(NodeId parent,
                                             const core::KeyStep& step,
                                             ProbeStats* stats) const {
  uint32_t page;
  if (!PageId(parent, &page)) return core::ArchiveView::kNoNode;
  const uint32_t lo = LoadU32(offsets_, 4ull * page);
  const uint32_t hi = LoadU32(offsets_, 4ull * page + 4);
  if (lo == hi) return core::ArchiveView::kNoNode;
  const uint32_t sorted_count = LoadU32(blob_, lo);
  const std::string_view sorted_ids = blob_.substr(lo + 4, 4ull * sorted_count);
  // The Sec. 7.2 lookup: for each candidate label, a lower-bound binary
  // search over the sorted children, charging its comparisons plus one
  // for the final equality check.
  for (const keys::Label& query : QueryLabels(step)) {
    auto compare = [&](size_t i) {
      return CompareLabel(view(), ViewId(SortedId(sorted_ids, i)), query);
    };
    size_t comparisons = 0;
    size_t first = 0;
    size_t remaining = sorted_count;
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
    if (first != sorted_count && compare(first) == 0) {
      return ViewId(SortedId(sorted_ids, first));
    }
  }
  return core::ArchiveView::kNoNode;
}

std::string ArchiveIndex::EncodePages() const {
  assert(flat_ == nullptr);  // a mapped store saves its file as it is
  return std::string(WordBytes(words_.data(), words_.size()));
}

}  // namespace xarch::index
