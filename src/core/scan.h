#ifndef XARCH_CORE_SCAN_H_
#define XARCH_CORE_SCAN_H_

#include <functional>
#include <string>
#include <string_view>

#include "core/archive.h"
#include "core/tree_view.h"
#include "util/status.h"
#include "xml/serializer.h"

namespace xarch::core {

/// Probe counter of an archive scan: the children inspected at the
/// visited inner nodes, one timestamp check each — what the naive Sec. 7.1
/// scan pays. Mirrors index::ProbeStats::naive_probes; kept separate so
/// core does not depend on the index layer.
struct ScanStats {
  size_t naive_probes = 0;
};

/// Consumes the next chunk of serialized output.
using ScanEmit = std::function<Status(std::string_view chunk)>;

/// \brief Streaming scan of archive subtrees at one version: the Sec. 7.1
/// version scan fused with xml::Serialize's formatting.
///
/// Serializes straight off the merged hierarchy into `emit`, chunk by
/// chunk — no xml::Node is ever constructed (pinned by tests through the
/// xml::Node::CreatedCount hook), and the byte output is identical to
/// serializing Archive::RetrieveVersion's tree. The cursor walks any
/// ArchiveView, so the same code path streams from heap nodes and from
/// mapped XAR2 bytes. At every inner node it checks each child's
/// timestamp and skips the subtrees of children inactive at the version.
///
/// Scan() may be called several times (a query streaming many matched
/// subtrees); Finish() flushes the buffered tail once at the end.
class ScanCursor {
 public:
  ScanCursor(xml::SerializeOptions options, ScanEmit emit)
      : options_(options), emit_(std::move(emit)) {}

  void set_stats(ScanStats* stats) { stats_ = stats; }

  /// Serializes the subtree rooted at `node` as it existed at version v,
  /// indented as if at nesting level `depth`. The caller is responsible
  /// for checking that `node` itself is active at v.
  Status Scan(const ArchiveView& view, ArchiveView::NodeId node, Version v,
              int depth);

  /// Splices raw bytes into the stream (result wrappers, report lines).
  Status Emit(std::string_view text);

  /// Flushes the buffered tail into `emit`. Call once after the last
  /// Scan/Emit.
  Status Finish();

 private:
  static constexpr size_t kFlushThreshold = 64 * 1024;

  Status MaybeFlush();
  void Indent(int depth);
  void Newline();
  void OpenTag(const ArchiveView& view, ArchiveView::NodeId node);
  void CloseTag(const ArchiveView& view, ArchiveView::NodeId node);
  Status WriteInner(const ArchiveView& view, ArchiveView::NodeId node,
                    Version v, int depth);
  Status WriteFrontier(const ArchiveView& view, ArchiveView::NodeId node,
                       Version v, int depth);

  xml::SerializeOptions options_;
  ScanEmit emit_;
  ScanStats* stats_ = nullptr;
  std::string buffer_;
};

}  // namespace xarch::core

#endif  // XARCH_CORE_SCAN_H_
