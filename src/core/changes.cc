#include "core/changes.h"

namespace xarch::core {

namespace {

/// One walk over any ArchiveView: membership of the two versions is
/// tracked as two booleans down the hierarchy (allocation-free stamp
/// tests), and a path is rendered only for a node that is reported.
class ChangeCollector {
 public:
  ChangeCollector(const ArchiveView& view, Version from, Version to)
      : view_(view), from_(from), to_(to) {}

  void Walk(ArchiveView::NodeId node, bool parent_at_from,
            bool parent_at_to) {
    const bool stamped = view_.HasStamp(node);
    const bool at_from =
        stamped ? view_.StampContains(node, from_) : parent_at_from;
    const bool at_to = stamped ? view_.StampContains(node, to_) : parent_at_to;
    if (!at_from && !at_to) return;
    ancestors_.push_back(node);
    if (at_from != at_to) {
      // Appeared or disappeared: report the element once, outermost.
      Report(at_to ? Change::Kind::kInserted : Change::Kind::kDeleted);
    } else if (view_.IsFrontier(node)) {
      // Present in both versions: content differs iff some bucket is
      // active at exactly one of them. (Unstamped buckets are active
      // whenever the node is, hence at both here.)
      for (size_t b = 0; b < view_.BucketCount(node); ++b) {
        if (view_.BucketHasStamp(node, b) &&
            view_.BucketStampContains(node, b, from_) !=
                view_.BucketStampContains(node, b, to_)) {
          Report(Change::Kind::kContentChanged);
          break;
        }
      }
    } else {
      for (size_t c = 0; c < view_.ChildCount(node); ++c) {
        Walk(view_.Child(node, c), at_from, at_to);
      }
    }
    ancestors_.pop_back();
  }

  std::vector<Change> Take() { return std::move(changes_); }

 private:
  void Report(Change::Kind kind) {
    std::string path;
    for (ArchiveView::NodeId n : ancestors_) {
      path += '/';
      path += view_.LabelString(n);
    }
    changes_.push_back(Change{kind, std::move(path)});
  }

  const ArchiveView& view_;
  Version from_, to_;
  std::vector<ArchiveView::NodeId> ancestors_;  // root's child .. current
  std::vector<Change> changes_;
};

}  // namespace

StatusOr<std::vector<Change>> DescribeChanges(const ArchiveView& view,
                                              Version from, Version to) {
  if (from == 0 || to == 0 || from > view.version_count() ||
      to > view.version_count()) {
    return Status::InvalidArgument(
        "versions must be in 1-" + std::to_string(view.version_count()));
  }
  ChangeCollector collector(view, from, to);
  const ArchiveView::NodeId root = view.Root();
  for (size_t c = 0; c < view.ChildCount(root); ++c) {
    collector.Walk(view.Child(root, c), view.StampContains(root, from),
                   view.StampContains(root, to));
  }
  return collector.Take();
}

StatusOr<std::vector<Change>> DescribeChanges(const Archive& archive,
                                              Version from, Version to) {
  return DescribeChanges(HeapArchiveView(&archive), from, to);
}

std::string FormatChanges(const std::vector<Change>& changes) {
  std::string out;
  for (const auto& change : changes) {
    switch (change.kind) {
      case Change::Kind::kInserted:
        out += "+ ";
        break;
      case Change::Kind::kDeleted:
        out += "- ";
        break;
      case Change::Kind::kContentChanged:
        out += "~ ";
        break;
    }
    out += change.path;
    out += '\n';
  }
  return out;
}

}  // namespace xarch::core
