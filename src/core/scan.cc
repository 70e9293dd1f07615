#include "core/scan.h"

namespace xarch::core {

Status ScanCursor::Emit(std::string_view text) {
  buffer_.append(text);
  return MaybeFlush();
}

Status ScanCursor::Finish() {
  if (!buffer_.empty()) {
    XARCH_RETURN_NOT_OK(emit_(buffer_));
    buffer_.clear();
  }
  return Status::OK();
}

Status ScanCursor::MaybeFlush() {
  if (buffer_.size() < kFlushThreshold) return Status::OK();
  XARCH_RETURN_NOT_OK(emit_(buffer_));
  buffer_.clear();
  return Status::OK();
}

void ScanCursor::Indent(int depth) {
  if (options_.pretty) {
    buffer_.append(static_cast<size_t>(depth) *
                       static_cast<size_t>(options_.indent_width),
                   ' ');
  }
}

void ScanCursor::Newline() {
  if (options_.pretty) buffer_ += '\n';
}

void ScanCursor::OpenTag(const ArchiveView& view, ArchiveView::NodeId node) {
  buffer_ += '<';
  buffer_ += view.Tag(node);
  const size_t attr_count = view.AttrCount(node);
  for (size_t i = 0; i < attr_count; ++i) {
    const auto [name, value] = view.Attr(node, i);
    buffer_ += ' ';
    buffer_ += name;
    buffer_ += "=\"";
    buffer_ += xml::EscapeAttr(value);
    buffer_ += '"';
  }
}

void ScanCursor::CloseTag(const ArchiveView& view, ArchiveView::NodeId node) {
  buffer_ += "</";
  buffer_ += view.Tag(node);
  buffer_ += '>';
}

Status ScanCursor::Scan(const ArchiveView& view, ArchiveView::NodeId node,
                        Version v, int depth) {
  Indent(depth);
  OpenTag(view, node);
  if (view.IsFrontier(node)) return WriteFrontier(view, node, v, depth);
  return WriteInner(view, node, v, depth);
}

Status ScanCursor::WriteInner(const ArchiveView& view,
                              ArchiveView::NodeId node, Version v, int depth) {
  const size_t child_count = view.ChildCount(node);
  if (stats_ != nullptr) stats_->naive_probes += child_count;
  bool any = false;
  for (size_t i = 0; i < child_count; ++i) {
    const ArchiveView::NodeId child = view.Child(node, i);
    if (view.HasStamp(child) && !view.StampContains(child, v)) continue;
    if (!any) {
      buffer_ += '>';
      Newline();
      any = true;
    }
    XARCH_RETURN_NOT_OK(Scan(view, child, v, depth + 1));
    XARCH_RETURN_NOT_OK(MaybeFlush());
  }
  if (!any) {
    buffer_ += "/>";
    Newline();
    return Status::OK();
  }
  Indent(depth);
  CloseTag(view, node);
  Newline();
  return Status::OK();
}

Status ScanCursor::WriteFrontier(const ArchiveView& view,
                                 ArchiveView::NodeId node, Version v,
                                 int depth) {
  // The version's content: all active buckets concatenated (one
  // alternative in bucket mode, the active woven segments in weave mode).
  const size_t bucket_count = view.BucketCount(node);
  bool empty = true, text_only = true;
  for (size_t b = 0; b < bucket_count; ++b) {
    if (!view.BucketActiveAt(node, b, v)) continue;
    const size_t content_count = view.BucketContentCount(node, b);
    for (size_t i = 0; i < content_count; ++i) {
      empty = false;
      if (!view.BucketContentIsText(node, b, i)) text_only = false;
    }
  }
  if (empty) {
    buffer_ += "/>";
    Newline();
    return Status::OK();
  }
  buffer_ += '>';
  if (options_.pretty && text_only) {
    // Text-only elements stay on one line (element-aligned diffs, Sec. 5).
    for (size_t b = 0; b < bucket_count; ++b) {
      if (!view.BucketActiveAt(node, b, v)) continue;
      const size_t content_count = view.BucketContentCount(node, b);
      for (size_t i = 0; i < content_count; ++i) {
        buffer_ += xml::EscapeText(view.BucketContentText(node, b, i));
      }
    }
    CloseTag(view, node);
    Newline();
    return Status::OK();
  }
  Newline();
  for (size_t b = 0; b < bucket_count; ++b) {
    if (!view.BucketActiveAt(node, b, v)) continue;
    const size_t content_count = view.BucketContentCount(node, b);
    for (size_t i = 0; i < content_count; ++i) {
      view.AppendBucketContent(node, b, i, options_, depth + 1, &buffer_);
      XARCH_RETURN_NOT_OK(MaybeFlush());
    }
  }
  Indent(depth);
  CloseTag(view, node);
  Newline();
  return Status::OK();
}

}  // namespace xarch::core
