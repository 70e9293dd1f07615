#ifndef XARCH_CORE_ARCHIVE_H_
#define XARCH_CORE_ARCHIVE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "keys/annotate.h"
#include "keys/key_spec.h"
#include "keys/label.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xml/node.h"

namespace xarch::core {

/// How content below frontier nodes is stored (Sec. 4.2).
enum class FrontierStrategy {
  /// The basic Nested Merge: each distinct content value becomes one
  /// timestamped alternative ("all children are timestamp nodes or none
  /// is").
  kBuckets,
  /// "Further compaction": an SCCS-style weave per frontier node — content
  /// shared across versions is stored once and only differing parts carry
  /// timestamps (Fig. 10).
  kWeave,
};

/// Options for building archives.
struct ArchiveOptions {
  keys::AnnotateOptions annotate;
  FrontierStrategy frontier = FrontierStrategy::kBuckets;
};

/// Options for serializing an archive to XML.
struct ArchiveSerializeOptions {
  bool pretty = true;
  /// Spaces per nesting level. Size comparisons against plain versions
  /// should use 0 on both sides: the archive nests two levels deeper
  /// (<T><root>), so nonzero indentation biases its byte count.
  int indent_width = 2;
  /// Timestamp inheritance (Sec. 1): emit a <T> wrapper only when a node's
  /// timestamp differs from its parent's. Turning this off (every node
  /// wrapped) is the E13 ablation.
  bool inherit_timestamps = true;
  /// Encode timestamps as intervals "1-9" rather than exhaustive lists
  /// "1,2,...,9". Turning this off is the E13 ablation.
  bool interval_encoding = true;
};

/// \brief One node of the merged hierarchy: a label (tag + key values), an
/// optional timestamp (absent = inherited from the parent, Sec. 2), and
/// either keyed children (inner nodes) or timestamped content buckets
/// (frontier nodes).
class ArchiveNode {
 public:
  keys::Label label;
  /// Timestamp; std::nullopt means the node inherits its parent's.
  std::optional<VersionSet> stamp;
  bool is_frontier = false;
  /// Attributes of the element (all folded into the label as well).
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Keyed children, sorted by (fingerprint, label); inner nodes only.
  std::vector<std::unique_ptr<ArchiveNode>> children;

  /// A run of XML content below a frontier node with one timestamp.
  /// With FrontierStrategy::kBuckets, buckets are alternatives (at most one
  /// active per version); with kWeave they are woven segments (all active
  /// ones concatenate). Retrieval is identical either way.
  struct Bucket {
    std::optional<VersionSet> stamp;  ///< absent = inherits the node's
    std::vector<xml::NodePtr> content;
  };
  std::vector<Bucket> buckets;  ///< frontier nodes only

  /// The timestamp in effect at this node given the parent's effective one.
  const VersionSet& EffectiveStamp(const VersionSet& parent_effective) const {
    return stamp.has_value() ? *stamp : parent_effective;
  }

  /// Total archive nodes in this subtree (labels, not XML nodes).
  size_t CountNodes() const;
};

/// One step of a temporal-history query (Sec. 7.2): a tag plus the key
/// values identifying the node among its siblings, with values given as
/// plain text, e.g. {"emp", {{"fn", "John"}, {"ln", "Doe"}}}.
struct KeyStep {
  std::string tag;
  std::vector<std::pair<std::string, std::string>> key;
};

/// \brief The compacted archive of the paper: all versions merged into one
/// hierarchy, each element stored once with the timestamp of the versions
/// it appears in.
///
/// Usage:
///   auto spec = keys::ParseKeySpecSet(...);
///   Archive archive(std::move(*spec));
///   archive.AddVersion(*v1);           // Nested Merge, Sec. 4.2
///   archive.AddVersion(*v2);
///   auto v1_again = archive.RetrieveVersion(1);   // Sec. 7.1
///   auto when = archive.History({...});           // Sec. 7.2
///   std::string xml = archive.ToXml();            // Fig. 5
///
/// Thread safety: the const methods (RetrieveVersion, History, ToXml,
/// Check, CountNodes, root, the counters) touch no mutable state and are
/// safe to call from any number of threads, PROVIDED no mutation
/// (AddVersion/AddVersions/AddEmptyVersion/mutable_root) runs
/// concurrently. The Archive does no locking of its own; callers that
/// share one across threads synchronize externally — xarch::Store does so
/// with a writer-exclusive shared_mutex, and publishes derived structures
/// (index::ArchiveIndex) from the ingest path under that same lock.
class Archive {
 public:
  explicit Archive(keys::KeySpecSet spec, ArchiveOptions options = {});

  Archive(Archive&&) = default;
  Archive& operator=(Archive&&) = default;

  /// Merges the next version into the archive (algorithm Nested Merge).
  /// The document must satisfy the key specification; on error the archive
  /// is unchanged.
  Status AddVersion(const xml::Node& version_root);

  /// Merges a batch of consecutive versions in ONE traversal of the
  /// archive (a k-way generalization of Nested Merge): the result is
  /// byte-identical to calling AddVersion on each document in order, but
  /// the archive hierarchy is walked once instead of once per version.
  /// All documents are key-checked up front; on error the archive is
  /// unchanged.
  Status AddVersions(const std::vector<const xml::Node*>& version_roots);

  /// Archives an empty database state (the Sec. 2 footnote: the root node
  /// tracks versions where the database is empty).
  void AddEmptyVersion();

  /// Number of archived versions (version numbers are 1..version_count()).
  Version version_count() const { return count_; }

  /// Reconstructs version v by a single scan (Sec. 7.1). Returns nullptr
  /// for a version archived with AddEmptyVersion().
  StatusOr<xml::NodePtr> RetrieveVersion(Version v) const;

  /// The temporal history of the keyed element identified by `path`
  /// (Sec. 7.2): the set of versions in which it exists. Key values are
  /// plain text; they are matched against the canonical stored values.
  /// Runs core::HistoryOverView over this archive's heap view.
  StatusOr<VersionSet> History(const std::vector<KeyStep>& path) const;

  /// Serializes the archive as the XML document of Fig. 5.
  std::string ToXml(const ArchiveSerializeOptions& options) const;
  std::string ToXml() const { return ToXml(ArchiveSerializeOptions()); }

  /// Reconstructs an archive from its XML form (the key specification is
  /// external metadata, exactly as for versions).
  static StatusOr<Archive> FromXml(std::string_view xml_text,
                                   keys::KeySpecSet spec,
                                   ArchiveOptions options = {});

  /// Verifies the structural invariants: timestamps of descendants are
  /// contained in their ancestors', children are strictly sorted, frontier
  /// buckets are well-formed, and (bucket mode) alternatives are disjoint.
  Status Check() const;

  /// The virtual root ("root" in Fig. 4); its timestamp is 1..count.
  const ArchiveNode& root() const { return *root_; }
  ArchiveNode& mutable_root() { return *root_; }

  const keys::KeySpecSet& spec() const { return spec_; }
  const ArchiveOptions& options() const { return options_; }

  /// Total archive nodes (cheap size proxy; ToXml().size() is the byte one).
  size_t CountNodes() const { return root_->CountNodes(); }

  /// Full traversals of the archive performed by merging so far: one per
  /// AddVersion call, one per AddVersions *batch*. A counter hook for
  /// verifying that batched ingest really is a single pass.
  uint64_t merge_pass_count() const { return merge_passes_; }

  /// Monotone counter bumped by every successful ingest (AddVersion,
  /// AddVersions, AddEmptyVersion). Derived structures built over the
  /// archive (index::ArchiveIndex) record the generation they were built
  /// at and rebuild lazily when it moves — the stale-index hazard of
  /// "constructed each time a new version arrives" (Sec. 7).
  uint64_t ingest_generation() const { return ingest_generation_; }

 private:
  friend class NestedMerger;
  friend class MultiNestedMerger;
  friend class FlatArchive;  // Decode sets the version count

  keys::KeySpecSet spec_;
  ArchiveOptions options_;
  Version count_ = 0;
  uint64_t merge_passes_ = 0;
  uint64_t ingest_generation_ = 0;
  std::unique_ptr<ArchiveNode> root_;
};

}  // namespace xarch::core

#endif  // XARCH_CORE_ARCHIVE_H_
