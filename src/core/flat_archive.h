#ifndef XARCH_CORE_FLAT_ARCHIVE_H_
#define XARCH_CORE_FLAT_ARCHIVE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/archive.h"
#include "core/tree_view.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xml/serializer.h"

namespace xarch::core {

/// \brief The XAR2 flat archive layout: the merged hierarchy as arenas of
/// fixed-width little-endian records, navigable straight off a file
/// mapping with zero per-node allocations.
///
/// Eight sections (see docs/FORMAT.md):
///
///   meta     u64 version count
///   strings  interned string table (util/hash StringInterner layout)
///   stamps   deduplicated timestamp pool: u32 count |
///            u32 interval_offsets[count+1] (cumulative, in interval
///            units) | u32 (lo, hi) pairs
///   nodes    u32 count | 48-byte records (12 u32 fields, see field
///            constants below); breadth-first, children contiguous
///   parts    u32 count | {u32 path_sid, u32 value_sid} label key parts
///   attrs    u32 count | {u32 name_sid, u32 value_sid} attributes
///   buckets  u32 count | {u32 stamp_id_plus1, u32 content_begin,
///            u32 content_count} frontier buckets
///   content  u32 count | 24-byte records (6 u32 fields) — the XML
///            forests below frontier nodes, breadth-first per bucket
///
/// Node record 0 is the virtual root and always carries its own stamp.
/// stamp ids are stored +1 so 0 can mean "inherits the parent's stamp".
/// Records sit in the encoder's breadth-first order, so validated records
/// form one tree: any navigation terminates and reaches each record once.
class FlatArchive {
 public:
  // Node record fields (u32 each, 12 per record).
  static constexpr int kNodeTagSid = 0;
  static constexpr int kNodeStampIdPlus1 = 1;
  static constexpr int kNodePartBegin = 2;
  static constexpr int kNodePartCount = 3;
  static constexpr int kNodeAttrBegin = 4;
  static constexpr int kNodeAttrCount = 5;
  static constexpr int kNodeChildBegin = 6;
  static constexpr int kNodeChildCount = 7;
  static constexpr int kNodeBucketBegin = 8;
  static constexpr int kNodeBucketCount = 9;
  static constexpr int kNodeFlags = 10;
  static constexpr int kNodeReserved = 11;
  static constexpr int kNodeFields = 12;

  // Content record fields (u32 each, 6 per record).
  static constexpr int kContentFlags = 0;
  static constexpr int kContentSid = 1;  // tag sid (element) or text sid
  static constexpr int kContentAttrBegin = 2;
  static constexpr int kContentAttrCount = 3;
  static constexpr int kContentChildBegin = 4;
  static constexpr int kContentChildCount = 5;
  static constexpr int kContentFields = 6;

  static constexpr uint32_t kFlagFrontier = 1u << 0;
  static constexpr uint32_t kFlagText = 1u << 0;

  /// The eight flat sections, borrowed (typically views into a mapped
  /// snapshot the caller keeps alive).
  struct Sections {
    std::string_view meta, strings, stamps, nodes, parts, attrs, buckets,
        content;
  };

  /// Validates every structural invariant once — O(records), allocation-
  /// free — and attaches: every range must claim the next records of its
  /// table in encoder order. After an OK Attach all accessors are
  /// in-bounds by construction; any inconsistency is kDataLoss here,
  /// never an OOB read later.
  static StatusOr<FlatArchive> Attach(const Sections& sections);

  Version version_count() const { return version_count_; }
  uint32_t node_count() const { return node_counts_[0]; }
  uint32_t part_count() const { return node_counts_[1]; }
  uint32_t attr_count() const { return node_counts_[2]; }
  uint32_t bucket_count() const { return node_counts_[3]; }
  uint32_t content_count() const { return node_counts_[4]; }
  uint32_t string_count() const { return string_count_; }
  uint32_t stamp_count() const { return stamp_count_; }

  std::string_view StringAt(uint32_t sid) const;

  uint32_t NodeField(uint32_t node, int field) const;
  uint32_t ContentField(uint32_t record, int field) const;
  uint32_t PartPathSid(uint32_t part) const;
  uint32_t PartValueSid(uint32_t part) const;
  uint32_t AttrNameSid(uint32_t attr) const;
  uint32_t AttrValueSid(uint32_t attr) const;
  uint32_t BucketStampIdPlus1(uint32_t bucket) const;
  uint32_t BucketContentBegin(uint32_t bucket) const;
  uint32_t BucketContentCount(uint32_t bucket) const;

  /// Allocation-free membership test on a pooled timestamp.
  bool StampContains(uint32_t stamp_id, Version v) const;
  /// Materializes a pooled timestamp.
  VersionSet StampAt(uint32_t stamp_id) const;

  /// Rebuilds the heap Archive the records encode — the inverse of
  /// FlatArchiveEncoder. Labels come from the stored key parts, with
  /// fingerprints recomputed at `options.annotate.fingerprint_bits`.
  /// Every node's tag path must be keyed by `spec` with the spec's
  /// frontier flag, and the result must pass Archive::Check(); any
  /// violation is kDataLoss.
  StatusOr<Archive> Decode(keys::KeySpecSet spec,
                           ArchiveOptions options) const;

 private:
  Status AttachStrings(std::string_view section);
  Status AttachStamps(std::string_view section);

  Version version_count_ = 0;
  // nodes, parts, attrs, buckets, content record counts.
  uint32_t node_counts_[5] = {0, 0, 0, 0, 0};
  uint32_t string_count_ = 0;
  uint32_t stamp_count_ = 0;
  // Section payloads past their u32 count headers (records / offset
  // tables), borrowed from the caller's mapping.
  std::string_view nodes_, parts_, attrs_, buckets_, content_;
  std::string_view string_offsets_, string_blob_;
  std::string_view stamp_offsets_, stamp_pairs_;
};

/// ArchiveView navigating FlatArchive records; NodeIds are record indices.
class FlatArchiveView : public ArchiveView {
 public:
  explicit FlatArchiveView(const FlatArchive* archive) : a_(archive) {}

  NodeId Root() const override { return 0; }
  Version version_count() const override { return a_->version_count(); }
  bool mapped() const override { return true; }

  bool IsFrontier(NodeId n) const override;
  std::string_view Tag(NodeId n) const override;
  size_t AttrCount(NodeId n) const override;
  std::pair<std::string_view, std::string_view> Attr(
      NodeId n, size_t i) const override;
  size_t ChildCount(NodeId n) const override;
  NodeId Child(NodeId n, size_t i) const override;

  size_t LabelPartCount(NodeId n) const override;
  std::pair<std::string_view, std::string_view> LabelPart(
      NodeId n, size_t i) const override;
  std::string LabelString(NodeId n) const override;

  bool HasStamp(NodeId n) const override;
  bool StampContains(NodeId n, Version v) const override;
  VersionSet StampValue(NodeId n) const override;

  size_t BucketCount(NodeId n) const override;
  bool BucketHasStamp(NodeId n, size_t b) const override;
  bool BucketStampContains(NodeId n, size_t b, Version v) const override;
  size_t BucketContentCount(NodeId n, size_t b) const override;
  bool BucketContentIsText(NodeId n, size_t b, size_t i) const override;
  std::string_view BucketContentText(NodeId n, size_t b,
                                     size_t i) const override;
  void AppendBucketContent(NodeId n, size_t b, size_t i,
                           const xml::SerializeOptions& options, int depth,
                           std::string* out) const override;

  const FlatArchive& archive() const { return *a_; }

 private:
  uint32_t GlobalBucket(NodeId n, size_t b) const;
  uint32_t GlobalContent(NodeId n, size_t b, size_t i) const;

  const FlatArchive* a_;
};

/// xml::NodeSource over FlatArchive content records, so frontier content
/// serializes through the one generic XML writer.
class FlatContentSource : public xml::NodeSource {
 public:
  explicit FlatContentSource(const FlatArchive* archive) : a_(archive) {}

  bool IsText(Id node) const override;
  std::string_view Text(Id node) const override;
  std::string_view Tag(Id node) const override;
  size_t AttrCount(Id node) const override;
  std::pair<std::string_view, std::string_view> Attr(
      Id node, size_t i) const override;
  size_t ChildCount(Id node) const override;
  Id Child(Id node, size_t i) const override;

 private:
  const FlatArchive* a_;
};

/// The archive's nodes in flat record order: breadth-first from the root,
/// so every node's children form one contiguous run past the node itself.
/// XAR2 node ids and index page ids are positions in this order.
std::vector<const ArchiveNode*> BreadthFirstOrder(const Archive& archive);

/// \brief Builds the flat sections from a heap Archive: one walk in
/// BreadthFirstOrder interning strings and timestamps as it lays out the
/// record arenas.
///
/// Index-page serialization (index::ArchiveIndex::EncodePages) runs
/// between EncodeStructure() and Finish(): it interns the timestamp-tree
/// stamps into the shared pool, so the string/stamp sections serialize
/// once, at Finish().
class FlatArchiveEncoder {
 public:
  explicit FlatArchiveEncoder(const Archive& archive) : archive_(archive) {}

  /// Lays out nodes/parts/attrs/buckets/content. Call exactly once.
  void EncodeStructure();

  /// Dedups `stamp` into the pool, returning its id.
  uint32_t InternStamp(const VersionSet& stamp);
  /// The same for a stamp already encoded as its little-endian u32
  /// (lo, hi) interval pairs.
  uint32_t InternStamp(std::string_view encoded);

  struct Sections {
    std::string meta, strings, stamps, nodes, parts, attrs, buckets, content;
  };

  /// Serializes the pools and record arenas. Call exactly once, last.
  Sections Finish();

 private:
  uint32_t EncodeContentForest(const std::vector<xml::NodePtr>& roots,
                               uint32_t* out_begin);

  const Archive& archive_;
  StringInterner interner_;
  // deque: growth must not move elements, the map holds views into them.
  std::deque<std::string> stamp_pool_;  // encoded (lo, hi) pair bytes
  std::unordered_map<std::string_view, uint32_t> stamp_ids_;
  std::vector<uint32_t> nodes_, parts_, attrs_, buckets_, content_;
};

}  // namespace xarch::core

#endif  // XARCH_CORE_FLAT_ARCHIVE_H_
