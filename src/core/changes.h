#ifndef XARCH_CORE_CHANGES_H_
#define XARCH_CORE_CHANGES_H_

#include <string>
#include <vector>

#include "core/archive.h"
#include "core/tree_view.h"

namespace xarch::core {

/// \brief Meaningful change descriptions (Sec. 1).
///
/// The paper's motivating example (Fig. 1): when two gene records swap
/// their contents, minimum-edit-distance diff "explains" the change as the
/// genes mutating their ids and names. Because the archive identifies
/// elements by key, it can instead report the semantically correct story:
/// which keyed elements appeared, disappeared, or changed content between
/// two versions.
struct Change {
  enum class Kind {
    kInserted,        ///< element exists at `to` but not at `from`
    kDeleted,         ///< element exists at `from` but not at `to`
    kContentChanged,  ///< frontier element present in both, content differs
  };
  Kind kind;
  /// Human-readable key path, e.g.
  /// "/db/dept{name=finance}/emp{fn=John, ln=Doe}/sal".
  std::string path;
};

/// Describes the difference between two archived versions as key-based
/// changes, grouped by element (not by line). Reported paths are the
/// outermost changed elements: an inserted subtree is one insertion, not
/// one per descendant. One walk over any ArchiveView, heap or mapped.
StatusOr<std::vector<Change>> DescribeChanges(const ArchiveView& view,
                                              Version from, Version to);
StatusOr<std::vector<Change>> DescribeChanges(const Archive& archive,
                                              Version from, Version to);

/// Renders a change list as text, one change per line
/// ("+ /db/dept{...}", "- ...", "~ ...").
std::string FormatChanges(const std::vector<Change>& changes);

}  // namespace xarch::core

#endif  // XARCH_CORE_CHANGES_H_
