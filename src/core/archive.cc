#include "core/archive.h"

#include "core/tree_view.h"

namespace xarch::core {

size_t ArchiveNode::CountNodes() const {
  size_t n = 1;
  for (const auto& c : children) n += c->CountNodes();
  return n;
}

Archive::Archive(keys::KeySpecSet spec, ArchiveOptions options)
    : spec_(std::move(spec)), options_(options) {
  root_ = std::make_unique<ArchiveNode>();
  root_->label.tag = "root";
  root_->label.ComputeFingerprint(options_.annotate.fingerprint_bits);
  root_->stamp = VersionSet();
}

void Archive::AddEmptyVersion() {
  Version v = ++count_;
  ++ingest_generation_;
  VersionSet before = *root_->stamp;
  root_->stamp->Add(v);
  // Children must not inherit the new version: materialize inherited stamps.
  for (auto& child : root_->children) {
    if (!child->stamp.has_value()) child->stamp = before;
  }
}

namespace {

bool BucketActiveAt(const ArchiveNode::Bucket& bucket, Version v) {
  return !bucket.stamp.has_value() || bucket.stamp->Contains(v);
}

xml::NodePtr Reconstruct(const ArchiveNode& node, Version v) {
  xml::NodePtr elem = xml::Node::Element(node.label.tag);
  for (const auto& [name, value] : node.attrs) elem->SetAttr(name, value);
  if (node.is_frontier) {
    for (const auto& bucket : node.buckets) {
      if (!BucketActiveAt(bucket, v)) continue;
      for (const auto& n : bucket.content) elem->AddChild(n->Clone());
    }
  } else {
    for (const auto& child : node.children) {
      if (child->stamp.has_value() && !child->stamp->Contains(v)) continue;
      elem->AddChild(Reconstruct(*child, v));
    }
  }
  return elem;
}

}  // namespace

StatusOr<xml::NodePtr> Archive::RetrieveVersion(Version v) const {
  if (v == 0 || v > count_) {
    return Status::NotFound("version " + std::to_string(v) +
                            " is not archived (have 1-" +
                            std::to_string(count_) + ")");
  }
  for (const auto& child : root_->children) {
    if (child->stamp.has_value() && !child->stamp->Contains(v)) continue;
    return Reconstruct(*child, v);
  }
  return xml::NodePtr(nullptr);  // the database was empty at version v
}

StatusOr<VersionSet> Archive::History(const std::vector<KeyStep>& path) const {
  return HistoryOverView(HeapArchiveView(this), path);
}

namespace {

Status CheckNode(const ArchiveNode& node, const VersionSet& parent_effective,
                 FrontierStrategy strategy) {
  const VersionSet& effective = node.EffectiveStamp(parent_effective);
  if (node.stamp.has_value()) {
    if (!parent_effective.IsSupersetOf(*node.stamp)) {
      return Status::Corruption(
          "timestamp of " + node.label.ToString() + " (" +
          node.stamp->ToString() + ") is not contained in its parent's (" +
          parent_effective.ToString() + ")");
    }
    if (node.stamp->empty()) {
      return Status::Corruption("empty timestamp on " + node.label.ToString());
    }
  }
  if (node.is_frontier) {
    if (!node.children.empty()) {
      return Status::Corruption("frontier node " + node.label.ToString() +
                                " has keyed children");
    }
    bool any_stamped = false, any_plain = false;
    for (const auto& bucket : node.buckets) {
      if (bucket.stamp.has_value()) {
        any_stamped = true;
        if (!effective.IsSupersetOf(*bucket.stamp)) {
          return Status::Corruption("bucket timestamp escapes node " +
                                    node.label.ToString());
        }
      } else {
        any_plain = true;
      }
    }
    if (strategy == FrontierStrategy::kBuckets) {
      // "Either they are all timestamp nodes or none of them is" (Sec. 4.2).
      if (any_stamped && any_plain) {
        return Status::Corruption("mixed stamped/plain buckets under " +
                                  node.label.ToString());
      }
      // Alternatives must be disjoint.
      for (size_t i = 0; i < node.buckets.size(); ++i) {
        for (size_t j = i + 1; j < node.buckets.size(); ++j) {
          if (node.buckets[i].stamp.has_value() &&
              node.buckets[j].stamp.has_value() &&
              !node.buckets[i]
                   .stamp->IntersectWith(*node.buckets[j].stamp)
                   .empty()) {
            return Status::Corruption("overlapping buckets under " +
                                      node.label.ToString());
          }
        }
      }
    }
  } else {
    if (!node.buckets.empty()) {
      return Status::Corruption("inner node " + node.label.ToString() +
                                " has content buckets");
    }
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) {
        const auto& prev = node.children[i - 1]->label;
        const auto& cur = node.children[i]->label;
        if (!prev.OrderBefore(cur)) {
          return Status::Corruption("children of " + node.label.ToString() +
                                    " are not strictly sorted");
        }
      }
      XARCH_RETURN_NOT_OK(CheckNode(*node.children[i], effective, strategy));
    }
  }
  return Status::OK();
}

}  // namespace

Status Archive::Check() const {
  if (!root_->stamp.has_value()) {
    return Status::Corruption("archive root has no timestamp");
  }
  if (count_ > 0 &&
      (*root_->stamp != VersionSet::Interval(1, count_))) {
    return Status::Corruption("root timestamp " + root_->stamp->ToString() +
                              " does not cover versions 1-" +
                              std::to_string(count_));
  }
  for (const auto& child : root_->children) {
    XARCH_RETURN_NOT_OK(CheckNode(*child, *root_->stamp, options_.frontier));
  }
  return Status::OK();
}

}  // namespace xarch::core
