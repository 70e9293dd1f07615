#ifndef XARCH_EXTMEM_EXTERNAL_ARCHIVER_H_
#define XARCH_EXTMEM_EXTERNAL_ARCHIVER_H_

#include <string>

#include "extmem/io_stats.h"
#include "keys/annotate.h"
#include "keys/key_spec.h"
#include "util/status.h"
#include "util/version_set.h"
#include "vfs/vfs.h"
#include "xml/node.h"

namespace xarch::extmem {

/// \brief The external-memory archiver of Sec. 6.
///
/// The archive lives on disk as a sorted stream of rows (one per keyed
/// node, key = full label path). Adding a version performs the paper's
/// three steps with bounded memory:
///   1. annotate nodes with key values and flatten to rows (Sec. 6.1);
///   2. external-sort the rows: bounded-memory sorted runs, then
///      fan-in-way merge passes (Sec. 6.2);
///   3. merge the sorted version with the sorted archive in one
///      synchronized pass (Sec. 6.3), tracking inherited timestamps with a
///      depth stack.
/// All file traffic is counted in stats() so benches can report the
/// O(N/B log_{M/B} N/B) behaviour.
///
/// Frontier content is handled in bucket mode (the basic Nested Merge).
/// The produced XML is identical in content to the in-memory archiver's
/// (sibling order differs: plain label order instead of fingerprint
/// order), and Archive::FromXml can load it.
class ExternalArchiver {
 public:
  struct Options {
    // Special members are out of line: inlined, GCC 12 reports
    // -Wmaybe-uninitialized on work_dir wherever a StoreOptions temporary
    // holding these options is moved and destroyed.
    Options();
    Options(const Options&);
    Options(Options&&) noexcept;
    Options& operator=(const Options&);
    Options& operator=(Options&&) noexcept;
    ~Options();

    /// Directory for the archive and temporary run files.
    std::string work_dir = "/tmp/xarch_extmem";
    /// File system the rows live on; nullptr = the real disk
    /// (vfs::Vfs::Posix()). Benches and tests can point the whole
    /// external-sort pipeline at an in-memory backend.
    vfs::Vfs* vfs = nullptr;
    /// Memory budget M, counted in rows held during run generation.
    size_t memory_budget_rows = 1024;
    /// Fan-in of each run-merge pass ((M/B) - 1 in the analysis).
    size_t fan_in = 8;
    /// Page size B for page-count reporting.
    size_t page_bytes = 4096;
    keys::AnnotateOptions annotate;
  };

  ExternalArchiver(keys::KeySpecSet spec, Options options);

  /// Merges the next version into the on-disk archive.
  Status AddVersion(const xml::Node& version_root);

  Version version_count() const { return count_; }

  /// Streams the archive rows into the Fig. 5 XML form (compact).
  StatusOr<std::string> ToXml();

  /// Convenience: reconstructs one version (loads via the in-memory
  /// archive; intended for tests and examples, not the data path).
  StatusOr<xml::NodePtr> RetrieveVersion(Version v);

  const IoStats& stats() const { return stats_; }
  void ClearStats() { stats_.Clear(); }

  const Options& options() const { return options_; }

  /// The resolved file system the rows live on (never nullptr).
  vfs::Vfs* vfs() const { return vfs_; }

  /// The key specification this archiver annotates against.
  const keys::KeySpecSet& spec() const { return spec_; }

  /// Raw bytes of the on-disk sorted-row archive ("" before the first
  /// version). Does not count into stats(): this is the persistence
  /// snapshot path, not the archiving data path.
  StatusOr<std::string> ArchiveFileBytes() const;

  /// Resets the archiver to a snapshot: writes `archive_bytes` as the row
  /// file (empty bytes = no archive yet) and sets the version counter.
  /// The bytes must be a row stream this archiver's spec produced;
  /// RestoreSnapshot validates that they scan as well-formed rows.
  Status RestoreSnapshot(std::string_view archive_bytes, Version count);

 private:
  std::string TempPath(const std::string& name);
  Status BuildVersionRows(const xml::Node& version_root,
                          const std::string& out_path);
  Status ExternalSort(const std::string& in_path, const std::string& out_path);
  Status MergeRuns(const std::vector<std::string>& runs,
                   const std::string& out_path);
  Status MergeWithArchive(const std::string& sorted_version_path, Version v);

  keys::KeySpecSet spec_;
  Options options_;
  vfs::Vfs* vfs_;
  IoStats stats_;
  Version count_ = 0;
  std::string archive_path_;
  bool has_archive_ = false;
  uint64_t temp_counter_ = 0;
};

}  // namespace xarch::extmem

#endif  // XARCH_EXTMEM_EXTERNAL_ARCHIVER_H_
