#ifndef XARCH_CORE_TREE_VIEW_H_
#define XARCH_CORE_TREE_VIEW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/archive.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xml/serializer.h"

namespace xarch::core {

/// \brief Read-only navigation interface over an archive hierarchy.
///
/// Two storages implement it: the heap `core::Archive` (pointer-backed
/// nodes) and the flat XAR2 record arena (offset-backed nodes navigated
/// straight off a file mapping). ScanCursor, the XAQL evaluator, and the
/// history walk are written against this interface, so retrieval from a
/// mapped snapshot produces byte-identical output to the heap path without
/// materializing a single xml::Node.
///
/// NodeIds are opaque to callers — a pointer for the heap view, a record
/// index for the flat one. The hot predicates (StampContains,
/// BucketStampContains) are separate from the VersionSet-materializing
/// accessors so the scan's inner loop never allocates.
class ArchiveView {
 public:
  using NodeId = uint64_t;
  static constexpr NodeId kNoNode = ~0ull;

  virtual ~ArchiveView() = default;

  /// The virtual root ("root" in Fig. 4).
  virtual NodeId Root() const = 0;
  virtual Version version_count() const = 0;
  /// True when nodes are navigated from mapped snapshot bytes (surfaced by
  /// EXPLAIN as `mapped=true`).
  virtual bool mapped() const = 0;

  // ----------------------------------------------------------- structure
  virtual bool IsFrontier(NodeId n) const = 0;
  /// The label's tag name.
  virtual std::string_view Tag(NodeId n) const = 0;
  virtual size_t AttrCount(NodeId n) const = 0;
  virtual std::pair<std::string_view, std::string_view> Attr(
      NodeId n, size_t i) const = 0;
  virtual size_t ChildCount(NodeId n) const = 0;
  virtual NodeId Child(NodeId n, size_t i) const = 0;

  // --------------------------------------------------------------- label
  virtual size_t LabelPartCount(NodeId n) const = 0;
  /// The i-th (path, canonical value) key part, in stored (path-sorted)
  /// order.
  virtual std::pair<std::string_view, std::string_view> LabelPart(
      NodeId n, size_t i) const = 0;
  /// keys::Label::ToString rendering ("emp{fn=John, ln=Doe}").
  virtual std::string LabelString(NodeId n) const = 0;

  // -------------------------------------------------------------- stamps
  /// False when the node inherits its parent's timestamp.
  virtual bool HasStamp(NodeId n) const = 0;
  /// Requires HasStamp(n). Allocation-free membership test.
  virtual bool StampContains(NodeId n, Version v) const = 0;
  /// Requires HasStamp(n). Materializes the timestamp.
  virtual VersionSet StampValue(NodeId n) const = 0;

  // ----------------------------------------------------- frontier content
  virtual size_t BucketCount(NodeId n) const = 0;
  virtual bool BucketHasStamp(NodeId n, size_t b) const = 0;
  /// Requires BucketHasStamp(n, b).
  virtual bool BucketStampContains(NodeId n, size_t b, Version v) const = 0;
  virtual size_t BucketContentCount(NodeId n, size_t b) const = 0;
  virtual bool BucketContentIsText(NodeId n, size_t b, size_t i) const = 0;
  /// Character data of a text content node.
  virtual std::string_view BucketContentText(NodeId n, size_t b,
                                             size_t i) const = 0;
  /// Appends the XML serialization of the i-th content node of bucket b,
  /// indented at `depth`, matching xml::SerializeAppend byte for byte.
  virtual void AppendBucketContent(NodeId n, size_t b, size_t i,
                                   const xml::SerializeOptions& options,
                                   int depth, std::string* out) const = 0;

  /// The node's timestamp in effect given the parent's: its own when
  /// present, the parent's otherwise.
  VersionSet EffectiveStamp(NodeId n, const VersionSet& parent_effective) const {
    return HasStamp(n) ? StampValue(n) : parent_effective;
  }

  /// True when bucket b contributes content at version v.
  bool BucketActiveAt(NodeId n, size_t b, Version v) const {
    return !BucketHasStamp(n, b) || BucketStampContains(n, b, v);
  }
};

/// ArchiveView over heap ArchiveNodes; NodeIds are node pointers.
class HeapArchiveView : public ArchiveView {
 public:
  explicit HeapArchiveView(const Archive* archive) : archive_(archive) {}

  static NodeId Id(const ArchiveNode& node) {
    return static_cast<NodeId>(reinterpret_cast<uintptr_t>(&node));
  }
  static const ArchiveNode& Node(NodeId id) {
    return *reinterpret_cast<const ArchiveNode*>(static_cast<uintptr_t>(id));
  }

  NodeId Root() const override { return Id(archive_->root()); }
  Version version_count() const override { return archive_->version_count(); }
  bool mapped() const override { return false; }

  bool IsFrontier(NodeId n) const override { return Node(n).is_frontier; }
  std::string_view Tag(NodeId n) const override { return Node(n).label.tag; }
  size_t AttrCount(NodeId n) const override { return Node(n).attrs.size(); }
  std::pair<std::string_view, std::string_view> Attr(
      NodeId n, size_t i) const override {
    const auto& [name, value] = Node(n).attrs[i];
    return {name, value};
  }
  size_t ChildCount(NodeId n) const override {
    return Node(n).children.size();
  }
  NodeId Child(NodeId n, size_t i) const override {
    return Id(*Node(n).children[i]);
  }

  size_t LabelPartCount(NodeId n) const override {
    return Node(n).label.parts.size();
  }
  std::pair<std::string_view, std::string_view> LabelPart(
      NodeId n, size_t i) const override {
    const keys::LabelPart& part = Node(n).label.parts[i];
    return {part.path, part.value};
  }
  std::string LabelString(NodeId n) const override {
    return Node(n).label.ToString();
  }

  bool HasStamp(NodeId n) const override {
    return Node(n).stamp.has_value();
  }
  bool StampContains(NodeId n, Version v) const override {
    return Node(n).stamp->Contains(v);
  }
  VersionSet StampValue(NodeId n) const override { return *Node(n).stamp; }

  size_t BucketCount(NodeId n) const override {
    return Node(n).buckets.size();
  }
  bool BucketHasStamp(NodeId n, size_t b) const override {
    return Node(n).buckets[b].stamp.has_value();
  }
  bool BucketStampContains(NodeId n, size_t b, Version v) const override {
    return Node(n).buckets[b].stamp->Contains(v);
  }
  size_t BucketContentCount(NodeId n, size_t b) const override {
    return Node(n).buckets[b].content.size();
  }
  bool BucketContentIsText(NodeId n, size_t b, size_t i) const override {
    return Node(n).buckets[b].content[i]->is_text();
  }
  std::string_view BucketContentText(NodeId n, size_t b,
                                     size_t i) const override {
    return Node(n).buckets[b].content[i]->text();
  }
  void AppendBucketContent(NodeId n, size_t b, size_t i,
                           const xml::SerializeOptions& options, int depth,
                           std::string* out) const override {
    xml::SerializeAppend(*Node(n).buckets[b].content[i], options, depth, out);
  }

 private:
  const Archive* archive_;
};

/// Resolves a KeyStep against a node's children: finds the child whose
/// label matches tag and key values (plain text values match canonical
/// "T<text>" or raw stored forms). Returns kNoNode if absent.
ArchiveView::NodeId FindChildByKeyStep(const ArchiveView& view,
                                       ArchiveView::NodeId parent,
                                       const KeyStep& step);

/// The set of versions in which the keyed element identified by `path`
/// exists, by child scans — Archive::History and the unindexed archive
/// store both run it.
StatusOr<VersionSet> HistoryOverView(const ArchiveView& view,
                                     const std::vector<KeyStep>& path);

}  // namespace xarch::core

#endif  // XARCH_CORE_TREE_VIEW_H_
