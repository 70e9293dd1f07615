#ifndef XARCH_CORE_SCAN_H_
#define XARCH_CORE_SCAN_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/archive.h"
#include "core/tree_view.h"
#include "util/status.h"
#include "xml/serializer.h"

namespace xarch::core {

/// Probe counters of a (possibly pruned) archive scan. Mirrors the two
/// fields of index::ProbeStats a scan can observe; kept separate so core
/// does not depend on the index layer.
struct ScanStats {
  /// Nodes inspected by the pruning hook (timestamp-tree probes when the
  /// hook is backed by an ArchiveIndex). 0 for unpruned scans.
  size_t tree_probes = 0;
  /// Children a full scan inspects at the visited inner nodes — what the
  /// naive Sec. 7.1 scan pays, counted in the same pass for comparison.
  size_t naive_probes = 0;
};

/// Consumes the next chunk of serialized output.
using ScanEmit = std::function<Status(std::string_view chunk)>;

/// Optional pruning hook: replaces `*relevant`'s contents with the indices
/// of `node`'s children active at version v (in child order; the cursor
/// reuses the vector across calls) and returns true, or
/// returns false to make the cursor fall back to scanning all children
/// with per-child timestamp checks. `*probes` receives the number of nodes
/// the hook inspected. The node comes as the view's NodeId, so one hook
/// shape serves both heap and mapped scans.
using ChildSelector = std::function<bool(
    ArchiveView::NodeId node, Version v, std::vector<size_t>* relevant,
    size_t* probes)>;

/// \brief Streaming scan of archive subtrees at one version: the Sec. 7.1
/// version scan fused with xml::Serialize's formatting.
///
/// Serializes straight off the merged hierarchy into `emit`, chunk by
/// chunk — no xml::Node is ever constructed (pinned by tests through the
/// xml::Node::CreatedCount hook), and the byte output is identical to
/// serializing Archive::RetrieveVersion's tree. The cursor walks any
/// ArchiveView, so the same code path streams from heap nodes and from
/// mapped XAR2 bytes. With a ChildSelector the scan visits only the
/// relevant children at every inner node (timestamp-tree pruning); without
/// one it checks each child's timestamp.
///
/// Scan() may be called several times (a query streaming many matched
/// subtrees); Finish() flushes the buffered tail once at the end.
class ScanCursor {
 public:
  ScanCursor(xml::SerializeOptions options, ScanEmit emit)
      : options_(options), emit_(std::move(emit)) {}

  void set_selector(ChildSelector selector) {
    selector_ = std::move(selector);
  }
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
  ChildSelector selector_;
  ScanStats* stats_ = nullptr;
  std::string buffer_;
  /// The selector's output, one buffer per nesting depth, kept across
  /// nodes so a pruned scan allocates only while the buffers grow.
  std::vector<std::vector<size_t>> relevant_;
};

}  // namespace xarch::core

#endif  // XARCH_CORE_SCAN_H_
