#include "core/flat_archive.h"

#include <cstring>
#include <deque>
#include <map>
#include <unordered_map>

#include "util/hash.h"

namespace xarch::core {

namespace {

uint32_t LoadU32(std::string_view bytes, size_t offset) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

uint64_t LoadU64(std::string_view bytes, size_t offset) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

void PutU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

Status Bad(const char* what) {
  return Status::DataLoss(std::string("snapshot flat archive ") + what);
}

/// Claims the next `count` records of a `limit`-record table: a non-empty
/// range must start where the previous claim ended and stay in bounds.
bool Claim(uint64_t begin, uint64_t count, uint64_t limit, uint64_t* next) {
  if (count == 0) return true;
  if (begin != *next || begin + count > limit) return false;
  *next += count;
  return true;
}

constexpr const char* kOutOfOrder = "records are not in encoder order";

// Splits a "u32 count | records" section into its record payload, checking
// the exact size. Record math is u64 so huge counts cannot wrap.
Status SplitRecords(std::string_view section, uint64_t record_bytes,
                    const char* what, uint32_t* count,
                    std::string_view* records) {
  if (section.size() < 4) return Bad(what);
  *count = LoadU32(section, 0);
  if (4 + record_bytes * *count != section.size()) return Bad(what);
  *records = section.substr(4);
  return Status::OK();
}

}  // namespace

Status FlatArchive::AttachStrings(std::string_view section) {
  if (section.size() < 4) return Bad("string table is corrupt");
  const uint32_t count = LoadU32(section, 0);
  const uint64_t offsets_bytes = 4ull * (uint64_t{count} + 1);
  if (4 + offsets_bytes > section.size()) {
    return Bad("string table is corrupt");
  }
  string_offsets_ = section.substr(4, offsets_bytes);
  string_blob_ = section.substr(4 + offsets_bytes);
  if (LoadU32(string_offsets_, 0) != 0) {
    return Bad("string table offsets are corrupt");
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (LoadU32(string_offsets_, 4ull * i) >
        LoadU32(string_offsets_, 4ull * i + 4)) {
      return Bad("string table offsets are corrupt");
    }
  }
  if (LoadU32(string_offsets_, 4ull * count) != string_blob_.size()) {
    return Bad("string table offsets are corrupt");
  }
  string_count_ = count;
  return Status::OK();
}

Status FlatArchive::AttachStamps(std::string_view section) {
  if (section.size() < 4) return Bad("timestamp pool is corrupt");
  const uint32_t count = LoadU32(section, 0);
  const uint64_t offsets_bytes = 4ull * (uint64_t{count} + 1);
  if (4 + offsets_bytes > section.size()) {
    return Bad("timestamp pool is corrupt");
  }
  stamp_offsets_ = section.substr(4, offsets_bytes);
  stamp_pairs_ = section.substr(4 + offsets_bytes);
  if (LoadU32(stamp_offsets_, 0) != 0) {
    return Bad("timestamp pool offsets are corrupt");
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (LoadU32(stamp_offsets_, 4ull * i) >
        LoadU32(stamp_offsets_, 4ull * i + 4)) {
      return Bad("timestamp pool offsets are corrupt");
    }
  }
  if (8ull * LoadU32(stamp_offsets_, 4ull * count) != stamp_pairs_.size()) {
    return Bad("timestamp pool offsets are corrupt");
  }
  // Each stamp must hold sorted disjoint intervals or the membership
  // binary search would answer wrongly on intact bytes.
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t lo = LoadU32(stamp_offsets_, 4ull * i);
    const uint32_t hi = LoadU32(stamp_offsets_, 4ull * i + 4);
    bool has_prev = false;
    uint32_t prev_hi = 0;
    for (uint32_t p = lo; p < hi; ++p) {
      const uint32_t a = LoadU32(stamp_pairs_, 8ull * p);
      const uint32_t b = LoadU32(stamp_pairs_, 8ull * p + 4);
      if (a > b || (has_prev && a <= prev_hi)) {
        return Bad("timestamp intervals are corrupt");
      }
      has_prev = true;
      prev_hi = b;
    }
  }
  stamp_count_ = count;
  return Status::OK();
}

StatusOr<FlatArchive> FlatArchive::Attach(const Sections& sections) {
  FlatArchive a;
  if (sections.meta.size() != 8) return Bad("meta section is corrupt");
  const uint64_t version_count = LoadU64(sections.meta, 0);
  if (version_count > 0xffffffffull) return Bad("meta section is corrupt");
  a.version_count_ = static_cast<Version>(version_count);

  XARCH_RETURN_NOT_OK(a.AttachStrings(sections.strings));
  XARCH_RETURN_NOT_OK(a.AttachStamps(sections.stamps));

  uint32_t node_count = 0, part_count = 0, attr_count = 0, bucket_count = 0,
           content_count = 0;
  XARCH_RETURN_NOT_OK(SplitRecords(sections.nodes, 4ull * kNodeFields,
                                   "node records are corrupt", &node_count,
                                   &a.nodes_));
  XARCH_RETURN_NOT_OK(SplitRecords(sections.parts, 8,
                                   "key-part table is corrupt", &part_count,
                                   &a.parts_));
  XARCH_RETURN_NOT_OK(SplitRecords(sections.attrs, 8,
                                   "attribute table is corrupt", &attr_count,
                                   &a.attrs_));
  XARCH_RETURN_NOT_OK(SplitRecords(sections.buckets, 12,
                                   "bucket table is corrupt", &bucket_count,
                                   &a.buckets_));
  XARCH_RETURN_NOT_OK(SplitRecords(sections.content, 4ull * kContentFields,
                                   "content records are corrupt",
                                   &content_count, &a.content_));
  a.node_counts_[0] = node_count;
  a.node_counts_[1] = part_count;
  a.node_counts_[2] = attr_count;
  a.node_counts_[3] = bucket_count;
  a.node_counts_[4] = content_count;

  for (uint32_t i = 0; i < part_count; ++i) {
    if (a.PartPathSid(i) >= a.string_count_ ||
        a.PartValueSid(i) >= a.string_count_) {
      return Bad("key-part table is corrupt");
    }
  }
  for (uint32_t i = 0; i < attr_count; ++i) {
    if (a.AttrNameSid(i) >= a.string_count_ ||
        a.AttrValueSid(i) >= a.string_count_) {
      return Bad("attribute table is corrupt");
    }
  }
  for (uint32_t i = 0; i < content_count; ++i) {
    const uint32_t flags = a.ContentField(i, kContentFlags);
    if ((flags & ~kFlagText) != 0 ||
        a.ContentField(i, kContentSid) >= a.string_count_ ||
        ((flags & kFlagText) != 0 &&
         (a.ContentField(i, kContentAttrCount) != 0 ||
          a.ContentField(i, kContentChildCount) != 0))) {
      return Bad("content records are corrupt");
    }
  }
  for (uint32_t i = 0; i < bucket_count; ++i) {
    if (a.BucketStampIdPlus1(i) > a.stamp_count_) {
      return Bad("bucket table is corrupt");
    }
  }
  if (node_count == 0) return Bad("node records are corrupt");
  // Every range must claim the next records of its table in the order the
  // encoder wrote them, and together they must claim every record. So the
  // records form one tree, each reached exactly once, and every range is
  // in bounds.
  uint64_t next_node = 1, next_part = 0, next_attr = 0, next_bucket = 0,
           next_content = 0;
  for (uint32_t i = 0; i < node_count; ++i) {
    const uint32_t flags = a.NodeField(i, kNodeFlags);
    const uint32_t cc = a.NodeField(i, kNodeChildCount);
    const uint32_t bb = a.NodeField(i, kNodeBucketBegin);
    const uint32_t bc = a.NodeField(i, kNodeBucketCount);
    if (a.NodeField(i, kNodeTagSid) >= a.string_count_ ||
        a.NodeField(i, kNodeStampIdPlus1) > a.stamp_count_ ||
        (flags & ~kFlagFrontier) != 0 ||
        ((flags & kFlagFrontier) != 0 ? cc != 0 : bc != 0)) {
      return Bad("node records are corrupt");
    }
    if (i >= next_node ||
        !Claim(a.NodeField(i, kNodePartBegin), a.NodeField(i, kNodePartCount),
               part_count, &next_part) ||
        !Claim(a.NodeField(i, kNodeAttrBegin), a.NodeField(i, kNodeAttrCount),
               attr_count, &next_attr) ||
        !Claim(a.NodeField(i, kNodeChildBegin), cc, node_count, &next_node) ||
        !Claim(bb, bc, bucket_count, &next_bucket)) {
      return Bad(kOutOfOrder);
    }
    for (uint32_t b = bb; b < bb + bc; ++b) {
      // A bucket's content forest: its roots, then each element's
      // children at the forest's tail (breadth-first).
      const uint64_t forest = next_content;
      if (!Claim(a.BucketContentBegin(b), a.BucketContentCount(b),
                 content_count, &next_content)) {
        return Bad(kOutOfOrder);
      }
      for (uint64_t j = forest; j < next_content; ++j) {
        if (!Claim(a.ContentField(j, kContentAttrBegin),
                   a.ContentField(j, kContentAttrCount), attr_count,
                   &next_attr) ||
            !Claim(a.ContentField(j, kContentChildBegin),
                   a.ContentField(j, kContentChildCount), content_count,
                   &next_content)) {
          return Bad(kOutOfOrder);
        }
      }
    }
  }
  if (next_node != node_count || next_part != part_count ||
      next_attr != attr_count || next_bucket != bucket_count ||
      next_content != content_count) {
    return Bad(kOutOfOrder);
  }
  // The virtual root always carries its own timestamp (1..version_count);
  // every inheritance chain must bottom out there.
  if (a.NodeField(0, kNodeStampIdPlus1) == 0) {
    return Bad("node records are corrupt");
  }
  return a;
}

std::string_view FlatArchive::StringAt(uint32_t sid) const {
  const uint32_t lo = LoadU32(string_offsets_, 4ull * sid);
  const uint32_t hi = LoadU32(string_offsets_, 4ull * sid + 4);
  return string_blob_.substr(lo, hi - lo);
}

uint32_t FlatArchive::NodeField(uint32_t node, int field) const {
  return LoadU32(nodes_, 4ull * (uint64_t{node} * kNodeFields + field));
}

uint32_t FlatArchive::ContentField(uint32_t record, int field) const {
  return LoadU32(content_, 4ull * (uint64_t{record} * kContentFields + field));
}

uint32_t FlatArchive::PartPathSid(uint32_t part) const {
  return LoadU32(parts_, 8ull * part);
}

uint32_t FlatArchive::PartValueSid(uint32_t part) const {
  return LoadU32(parts_, 8ull * part + 4);
}

uint32_t FlatArchive::AttrNameSid(uint32_t attr) const {
  return LoadU32(attrs_, 8ull * attr);
}

uint32_t FlatArchive::AttrValueSid(uint32_t attr) const {
  return LoadU32(attrs_, 8ull * attr + 4);
}

uint32_t FlatArchive::BucketStampIdPlus1(uint32_t bucket) const {
  return LoadU32(buckets_, 12ull * bucket);
}

uint32_t FlatArchive::BucketContentBegin(uint32_t bucket) const {
  return LoadU32(buckets_, 12ull * bucket + 4);
}

uint32_t FlatArchive::BucketContentCount(uint32_t bucket) const {
  return LoadU32(buckets_, 12ull * bucket + 8);
}

bool FlatArchive::StampContains(uint32_t stamp_id, Version v) const {
  uint32_t lo = LoadU32(stamp_offsets_, 4ull * stamp_id);
  uint32_t hi = LoadU32(stamp_offsets_, 4ull * stamp_id + 4);
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const uint32_t a = LoadU32(stamp_pairs_, 8ull * mid);
    const uint32_t b = LoadU32(stamp_pairs_, 8ull * mid + 4);
    if (v < a) {
      hi = mid;
    } else if (v > b) {
      lo = mid + 1;
    } else {
      return true;
    }
  }
  return false;
}

VersionSet FlatArchive::StampAt(uint32_t stamp_id) const {
  const uint32_t lo = LoadU32(stamp_offsets_, 4ull * stamp_id);
  const uint32_t hi = LoadU32(stamp_offsets_, 4ull * stamp_id + 4);
  VersionSet out;
  for (uint32_t p = lo; p < hi; ++p) {
    out.UnionWith(VersionSet::Interval(LoadU32(stamp_pairs_, 8ull * p),
                                       LoadU32(stamp_pairs_, 8ull * p + 4)));
  }
  return out;
}

// --------------------------------------------------------------- decoder

namespace {

/// Builds content record `j` and its subtree.
xml::NodePtr DecodeContent(const FlatContentSource& source, uint64_t j) {
  if (source.IsText(j)) return xml::Node::Text(std::string(source.Text(j)));
  xml::NodePtr elem = xml::Node::Element(std::string(source.Tag(j)));
  for (size_t k = 0; k < source.AttrCount(j); ++k) {
    elem->SetAttr(source.Attr(j, k).first, source.Attr(j, k).second);
  }
  for (size_t k = 0; k < source.ChildCount(j); ++k) {
    elem->AddChild(DecodeContent(source, source.Child(j, k)));
  }
  return elem;
}

}  // namespace

StatusOr<Archive> FlatArchive::Decode(keys::KeySpecSet spec,
                                      ArchiveOptions options) const {
  Archive archive(std::move(spec), options);
  archive.count_ = version_count_;
  const FlatArchiveView view(this);
  const FlatContentSource source(this);
  // Tag paths met so far, one per (parent path, tag); 0 is the root's.
  struct TagPath {
    std::vector<std::string> steps;
    bool frontier;
  };
  std::vector<TagPath> paths = {{{}, false}};
  std::map<std::pair<uint32_t, std::string_view>, uint32_t> path_ids;
  // Attach checked the breadth-first layout, so every node is created by
  // its parent before the loop reaches it.
  std::vector<ArchiveNode*> nodes(node_count());
  std::vector<uint32_t> node_path(node_count());
  nodes[0] = &archive.mutable_root();
  for (uint32_t i = 0; i < node_count(); ++i) {
    ArchiveNode& node = *nodes[i];
    node.is_frontier = view.IsFrontier(i);
    if (node.is_frontier != paths[node_path[i]].frontier) {
      return Bad("frontier flag contradicts the key specification");
    }
    node.label.tag = std::string(view.Tag(i));
    for (size_t p = 0; p < view.LabelPartCount(i); ++p) {
      const auto [path, value] = view.LabelPart(i, p);
      node.label.parts.push_back({std::string(path), std::string(value)});
    }
    node.label.ComputeFingerprint(archive.options().annotate.fingerprint_bits);
    if (view.HasStamp(i)) node.stamp = view.StampValue(i);
    for (size_t k = 0; k < view.AttrCount(i); ++k) {
      node.attrs.emplace_back(view.Attr(i, k));
    }
    for (size_t k = 0; k < view.ChildCount(i); ++k) {
      const uint32_t child = static_cast<uint32_t>(view.Child(i, k));
      const auto [it, fresh] = path_ids.try_emplace(
          {node_path[i], view.Tag(child)}, static_cast<uint32_t>(paths.size()));
      if (fresh) {
        TagPath path{paths[node_path[i]].steps, false};
        path.steps.emplace_back(view.Tag(child));
        if (archive.spec().Lookup(path.steps) == nullptr) {
          return Bad("node tag path is not covered by the key specification");
        }
        path.frontier = archive.spec().IsFrontier(path.steps);
        paths.push_back(std::move(path));
      }
      node_path[child] = it->second;
      nodes[child] = node.children.emplace_back(new ArchiveNode).get();
    }
    for (uint32_t b = NodeField(i, kNodeBucketBegin);
         b < NodeField(i, kNodeBucketBegin) + view.BucketCount(i); ++b) {
      ArchiveNode::Bucket& bucket = node.buckets.emplace_back();
      if (BucketStampIdPlus1(b) != 0) {
        bucket.stamp = StampAt(BucketStampIdPlus1(b) - 1);
      }
      for (uint32_t k = 0; k < BucketContentCount(b); ++k) {
        bucket.content.push_back(
            DecodeContent(source, BucketContentBegin(b) + k));
      }
    }
  }
  if (Status check = archive.Check(); !check.ok()) {
    return Status::DataLoss("snapshot flat archive " + check.message());
  }
  return archive;
}

// ----------------------------------------------------------------- view

bool FlatArchiveView::IsFrontier(NodeId n) const {
  return (a_->NodeField(n, FlatArchive::kNodeFlags) &
          FlatArchive::kFlagFrontier) != 0;
}

std::string_view FlatArchiveView::Tag(NodeId n) const {
  return a_->StringAt(a_->NodeField(n, FlatArchive::kNodeTagSid));
}

size_t FlatArchiveView::AttrCount(NodeId n) const {
  return a_->NodeField(n, FlatArchive::kNodeAttrCount);
}

std::pair<std::string_view, std::string_view> FlatArchiveView::Attr(
    NodeId n, size_t i) const {
  const uint32_t attr = a_->NodeField(n, FlatArchive::kNodeAttrBegin) + i;
  return {a_->StringAt(a_->AttrNameSid(attr)),
          a_->StringAt(a_->AttrValueSid(attr))};
}

size_t FlatArchiveView::ChildCount(NodeId n) const {
  return a_->NodeField(n, FlatArchive::kNodeChildCount);
}

ArchiveView::NodeId FlatArchiveView::Child(NodeId n, size_t i) const {
  return a_->NodeField(n, FlatArchive::kNodeChildBegin) + i;
}

size_t FlatArchiveView::LabelPartCount(NodeId n) const {
  return a_->NodeField(n, FlatArchive::kNodePartCount);
}

std::pair<std::string_view, std::string_view> FlatArchiveView::LabelPart(
    NodeId n, size_t i) const {
  const uint32_t part = a_->NodeField(n, FlatArchive::kNodePartBegin) + i;
  return {a_->StringAt(a_->PartPathSid(part)),
          a_->StringAt(a_->PartValueSid(part))};
}

std::string FlatArchiveView::LabelString(NodeId n) const {
  // Mirrors keys::Label::ToString byte for byte (it renders user-facing
  // messages shared with the heap path).
  const size_t parts = LabelPartCount(n);
  std::string out(Tag(n));
  if (parts == 0) return out;
  out += '{';
  for (size_t i = 0; i < parts; ++i) {
    if (i > 0) out += ", ";
    const auto& [path, value] = LabelPart(n, i);
    out += path;
    out += '=';
    if (!value.empty() && value[0] == 'T' &&
        value.find('<') == std::string_view::npos) {
      out += value.substr(1);
    } else {
      out += value;
    }
  }
  out += '}';
  return out;
}

bool FlatArchiveView::HasStamp(NodeId n) const {
  return a_->NodeField(n, FlatArchive::kNodeStampIdPlus1) != 0;
}

bool FlatArchiveView::StampContains(NodeId n, Version v) const {
  return a_->StampContains(a_->NodeField(n, FlatArchive::kNodeStampIdPlus1) - 1,
                           v);
}

VersionSet FlatArchiveView::StampValue(NodeId n) const {
  return a_->StampAt(a_->NodeField(n, FlatArchive::kNodeStampIdPlus1) - 1);
}

uint32_t FlatArchiveView::GlobalBucket(NodeId n, size_t b) const {
  return a_->NodeField(n, FlatArchive::kNodeBucketBegin) + b;
}

uint32_t FlatArchiveView::GlobalContent(NodeId n, size_t b, size_t i) const {
  return a_->BucketContentBegin(GlobalBucket(n, b)) + i;
}

size_t FlatArchiveView::BucketCount(NodeId n) const {
  return a_->NodeField(n, FlatArchive::kNodeBucketCount);
}

bool FlatArchiveView::BucketHasStamp(NodeId n, size_t b) const {
  return a_->BucketStampIdPlus1(GlobalBucket(n, b)) != 0;
}

bool FlatArchiveView::BucketStampContains(NodeId n, size_t b,
                                          Version v) const {
  return a_->StampContains(a_->BucketStampIdPlus1(GlobalBucket(n, b)) - 1, v);
}

size_t FlatArchiveView::BucketContentCount(NodeId n, size_t b) const {
  return a_->BucketContentCount(GlobalBucket(n, b));
}

bool FlatArchiveView::BucketContentIsText(NodeId n, size_t b,
                                          size_t i) const {
  return (a_->ContentField(GlobalContent(n, b, i), FlatArchive::kContentFlags) &
          FlatArchive::kFlagText) != 0;
}

std::string_view FlatArchiveView::BucketContentText(NodeId n, size_t b,
                                                    size_t i) const {
  return a_->StringAt(
      a_->ContentField(GlobalContent(n, b, i), FlatArchive::kContentSid));
}

void FlatArchiveView::AppendBucketContent(NodeId n, size_t b, size_t i,
                                          const xml::SerializeOptions& options,
                                          int depth, std::string* out) const {
  FlatContentSource source(a_);
  xml::SerializeAppend(source, GlobalContent(n, b, i), options, depth, out);
}

// -------------------------------------------------------- content source

bool FlatContentSource::IsText(Id node) const {
  return (a_->ContentField(node, FlatArchive::kContentFlags) &
          FlatArchive::kFlagText) != 0;
}

std::string_view FlatContentSource::Text(Id node) const {
  return a_->StringAt(a_->ContentField(node, FlatArchive::kContentSid));
}

std::string_view FlatContentSource::Tag(Id node) const {
  return a_->StringAt(a_->ContentField(node, FlatArchive::kContentSid));
}

size_t FlatContentSource::AttrCount(Id node) const {
  return a_->ContentField(node, FlatArchive::kContentAttrCount);
}

std::pair<std::string_view, std::string_view> FlatContentSource::Attr(
    Id node, size_t i) const {
  const uint32_t attr =
      a_->ContentField(node, FlatArchive::kContentAttrBegin) + i;
  return {a_->StringAt(a_->AttrNameSid(attr)),
          a_->StringAt(a_->AttrValueSid(attr))};
}

size_t FlatContentSource::ChildCount(Id node) const {
  return a_->ContentField(node, FlatArchive::kContentChildCount);
}

xml::NodeSource::Id FlatContentSource::Child(Id node, size_t i) const {
  return a_->ContentField(node, FlatArchive::kContentChildBegin) + i;
}

// --------------------------------------------------------------- encoder

namespace {

/// One encoding pass: lays out the record arenas in BreadthFirstOrder,
/// interning strings and stamps into pools, then serializes everything.
class FlatArchiveEncoder {
 public:
  explicit FlatArchiveEncoder(const Archive& archive) : archive_(archive) {}

  void EncodeStructure();
  FlatSections Finish();

 private:
  /// Dedups `stamp` into the pool, returning its id.
  uint32_t InternStamp(const VersionSet& stamp);
  uint32_t EncodeContentForest(const std::vector<xml::NodePtr>& roots,
                               uint32_t* out_begin);

  const Archive& archive_;
  StringInterner interner_;
  // deque: growth must not move elements, the map holds views into them.
  std::deque<std::string> stamp_pool_;  // encoded (lo, hi) pair bytes
  std::unordered_map<std::string_view, uint32_t> stamp_ids_;
  std::vector<uint32_t> nodes_, parts_, attrs_, buckets_, content_;
};

}  // namespace

uint32_t FlatArchiveEncoder::InternStamp(const VersionSet& stamp) {
  std::string encoded;
  for (const auto& [lo, hi] : stamp.intervals()) {
    PutU32(&encoded, lo);
    PutU32(&encoded, hi);
  }
  auto it = stamp_ids_.find(encoded);
  if (it != stamp_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(stamp_pool_.size());
  stamp_pool_.push_back(std::move(encoded));
  stamp_ids_.emplace(std::string_view(stamp_pool_.back()), id);
  return id;
}

uint32_t FlatArchiveEncoder::EncodeContentForest(
    const std::vector<xml::NodePtr>& roots, uint32_t* out_begin) {
  const uint32_t base =
      static_cast<uint32_t>(content_.size() / FlatArchive::kContentFields);
  std::vector<const xml::Node*> corder;
  corder.reserve(roots.size());
  for (const auto& root : roots) corder.push_back(root.get());
  for (size_t j = 0; j < corder.size(); ++j) {
    const xml::Node& node = *corder[j];
    uint32_t rec[FlatArchive::kContentFields] = {0, 0, 0, 0, 0, 0};
    if (node.is_text()) {
      rec[FlatArchive::kContentFlags] = FlatArchive::kFlagText;
      rec[FlatArchive::kContentSid] = interner_.Intern(node.text());
    } else {
      rec[FlatArchive::kContentSid] = interner_.Intern(node.tag());
      rec[FlatArchive::kContentAttrBegin] =
          static_cast<uint32_t>(attrs_.size() / 2);
      rec[FlatArchive::kContentAttrCount] =
          static_cast<uint32_t>(node.attrs().size());
      for (const auto& [name, value] : node.attrs()) {
        attrs_.push_back(interner_.Intern(name));
        attrs_.push_back(interner_.Intern(value));
      }
      if (!node.children().empty()) {
        // Children at the forest's tail: still contiguous globally, since
        // only this loop appends content records until the forest is done.
        rec[FlatArchive::kContentChildBegin] =
            base + static_cast<uint32_t>(corder.size());
        rec[FlatArchive::kContentChildCount] =
            static_cast<uint32_t>(node.children().size());
        for (const auto& child : node.children()) {
          corder.push_back(child.get());
        }
      }
    }
    content_.insert(content_.end(), rec, rec + FlatArchive::kContentFields);
  }
  *out_begin = base;
  return static_cast<uint32_t>(roots.size());
}

std::vector<const ArchiveNode*> BreadthFirstOrder(const Archive& archive) {
  std::vector<const ArchiveNode*> order = {&archive.root()};
  for (size_t i = 0; i < order.size(); ++i) {
    for (const auto& child : order[i]->children) order.push_back(child.get());
  }
  return order;
}

void FlatArchiveEncoder::EncodeStructure() {
  uint32_t child_begin = 1;
  for (const ArchiveNode* node_ptr : BreadthFirstOrder(archive_)) {
    const ArchiveNode& node = *node_ptr;
    uint32_t rec[FlatArchive::kNodeFields] = {0};
    rec[FlatArchive::kNodeTagSid] = interner_.Intern(node.label.tag);
    rec[FlatArchive::kNodeStampIdPlus1] =
        node.stamp.has_value() ? InternStamp(*node.stamp) + 1 : 0;
    rec[FlatArchive::kNodePartBegin] =
        static_cast<uint32_t>(parts_.size() / 2);
    rec[FlatArchive::kNodePartCount] =
        static_cast<uint32_t>(node.label.parts.size());
    for (const auto& part : node.label.parts) {
      parts_.push_back(interner_.Intern(part.path));
      parts_.push_back(interner_.Intern(part.value));
    }
    rec[FlatArchive::kNodeAttrBegin] =
        static_cast<uint32_t>(attrs_.size() / 2);
    rec[FlatArchive::kNodeAttrCount] =
        static_cast<uint32_t>(node.attrs.size());
    for (const auto& [name, value] : node.attrs) {
      attrs_.push_back(interner_.Intern(name));
      attrs_.push_back(interner_.Intern(value));
    }
    rec[FlatArchive::kNodeChildBegin] = child_begin;
    rec[FlatArchive::kNodeChildCount] =
        static_cast<uint32_t>(node.children.size());
    child_begin += static_cast<uint32_t>(node.children.size());
    rec[FlatArchive::kNodeBucketBegin] =
        static_cast<uint32_t>(buckets_.size() / 3);
    rec[FlatArchive::kNodeBucketCount] =
        static_cast<uint32_t>(node.buckets.size());
    for (const auto& bucket : node.buckets) {
      uint32_t content_begin = 0;
      const uint32_t content_count =
          EncodeContentForest(bucket.content, &content_begin);
      buckets_.push_back(
          bucket.stamp.has_value() ? InternStamp(*bucket.stamp) + 1 : 0);
      buckets_.push_back(content_begin);
      buckets_.push_back(content_count);
    }
    rec[FlatArchive::kNodeFlags] =
        node.is_frontier ? FlatArchive::kFlagFrontier : 0;
    nodes_.insert(nodes_.end(), rec, rec + FlatArchive::kNodeFields);
  }
}

namespace {

std::string RecordSection(const std::vector<uint32_t>& words,
                          size_t words_per_record) {
  std::string out;
  out.reserve(4 + 4 * words.size());
  PutU32(&out, static_cast<uint32_t>(words.size() / words_per_record));
  for (uint32_t w : words) PutU32(&out, w);
  return out;
}

}  // namespace

FlatSections FlatArchiveEncoder::Finish() {
  FlatSections out;
  PutU64(&out.meta, archive_.version_count());
  interner_.EncodeTo(&out.strings);
  PutU32(&out.stamps, static_cast<uint32_t>(stamp_pool_.size()));
  uint32_t interval_offset = 0;
  PutU32(&out.stamps, interval_offset);
  for (const std::string& encoded : stamp_pool_) {
    interval_offset += static_cast<uint32_t>(encoded.size() / 8);
    PutU32(&out.stamps, interval_offset);
  }
  for (const std::string& encoded : stamp_pool_) out.stamps += encoded;
  out.nodes = RecordSection(nodes_, FlatArchive::kNodeFields);
  out.parts = RecordSection(parts_, 2);
  out.attrs = RecordSection(attrs_, 2);
  out.buckets = RecordSection(buckets_, 3);
  out.content = RecordSection(content_, FlatArchive::kContentFields);
  return out;
}

FlatSections EncodeFlatArchive(const Archive& archive) {
  FlatArchiveEncoder encoder(archive);
  encoder.EncodeStructure();
  return encoder.Finish();
}

}  // namespace xarch::core
