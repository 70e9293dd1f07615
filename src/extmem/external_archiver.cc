#include "extmem/external_archiver.h"

#include <algorithm>
#include <queue>

#include "core/archive.h"
#include "extmem/row.h"
#include "xml/serializer.h"

namespace xarch::extmem {

namespace {

/// A label rendered as a sortable byte string: tag, then (path, value)
/// pairs with low separators so shorter keys order first.
std::string LabelKey(const keys::Label& label) {
  std::string out = label.tag;
  out.push_back('\x01');
  for (const auto& part : label.parts) {
    out += part.path;
    out.push_back('\x02');
    out += part.value;
    out.push_back('\x03');
  }
  return out;
}

std::string CompactContent(const xml::Node& element) {
  xml::SerializeOptions options;
  options.pretty = false;
  std::string out;
  for (const auto& child : element.children()) {
    out += xml::Serialize(*child, options);
  }
  return out;
}

}  // namespace

ExternalArchiver::Options::Options() = default;
ExternalArchiver::Options::Options(const Options&) = default;
ExternalArchiver::Options::Options(Options&&) noexcept = default;
ExternalArchiver::Options& ExternalArchiver::Options::operator=(
    const Options&) = default;
ExternalArchiver::Options& ExternalArchiver::Options::operator=(
    Options&&) noexcept = default;
ExternalArchiver::Options::~Options() = default;

ExternalArchiver::ExternalArchiver(keys::KeySpecSet spec, Options options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      vfs_(options_.vfs != nullptr ? options_.vfs : vfs::Vfs::Posix()) {
  (void)vfs_->CreateDirs(options_.work_dir);
  archive_path_ = vfs::Join(options_.work_dir, "archive.rows");
}

std::string ExternalArchiver::TempPath(const std::string& name) {
  return options_.work_dir + "/" + name + "." +
         std::to_string(temp_counter_++) + ".rows";
}

Status ExternalArchiver::BuildVersionRows(const xml::Node& version_root,
                                          const std::string& out_path) {
  XARCH_ASSIGN_OR_RETURN(
      keys::KeyedNode keyed,
      keys::AnnotateKeys(version_root, spec_, options_.annotate));
  RowWriter writer(vfs_, out_path, &stats_);
  // Virtual root row.
  Row root;
  root.sort_key = "";
  root.depth = 0;
  root.tag = "root";
  XARCH_RETURN_NOT_OK(writer.Write(root));

  // Document-order DFS; the external sort re-orders rows afterwards
  // (Sec. 6.2 — sorting is not done in memory).
  struct Walker {
    RowWriter& writer;
    Status Walk(const keys::KeyedNode& node, const std::string& parent_key,
                uint32_t depth) {
      Row row;
      row.sort_key = parent_key;
      row.sort_key.push_back('\x00');
      row.sort_key += LabelKey(node.label);
      row.depth = depth;
      row.tag = node.label.tag;
      row.attrs = node.node->attrs();
      row.is_frontier = node.is_frontier;
      if (node.is_frontier) {
        Row::Bucket bucket;
        bucket.content = CompactContent(*node.node);
        row.buckets.push_back(std::move(bucket));
      }
      XARCH_RETURN_NOT_OK(writer.Write(row));
      for (const auto& child : node.children) {
        XARCH_RETURN_NOT_OK(Walk(child, row.sort_key, depth + 1));
      }
      return Status::OK();
    }
  } walker{writer};
  XARCH_RETURN_NOT_OK(walker.Walk(keyed, "", 1));
  return writer.Close();
}

Status ExternalArchiver::ExternalSort(const std::string& in_path,
                                      const std::string& out_path) {
  // Phase 1: bounded-memory sorted runs.
  std::vector<std::string> runs;
  {
    RowReader reader(vfs_, in_path, &stats_);
    std::vector<Row> buffer;
    Row row;
    bool more = reader.Next(&row);
    while (more) {
      buffer.clear();
      while (more && buffer.size() < options_.memory_budget_rows) {
        buffer.push_back(std::move(row));
        more = reader.Next(&row);
      }
      XARCH_RETURN_NOT_OK(reader.status());
      std::sort(buffer.begin(), buffer.end(),
                [](const Row& a, const Row& b) { return a.sort_key < b.sort_key; });
      std::string run_path = TempPath("run");
      RowWriter writer(vfs_, run_path, &stats_);
      for (const Row& r : buffer) XARCH_RETURN_NOT_OK(writer.Write(r));
      XARCH_RETURN_NOT_OK(writer.Close());
      runs.push_back(run_path);
      ++stats_.run_count;
    }
    XARCH_RETURN_NOT_OK(reader.status());
  }
  if (runs.empty()) {
    // Empty input: emit an empty file.
    RowWriter writer(vfs_, out_path, &stats_);
    return writer.Close();
  }
  // Phase 2: fan-in-way merge passes.
  while (runs.size() > 1) {
    ++stats_.merge_passes;
    std::vector<std::string> next;
    for (size_t group = 0; group < runs.size(); group += options_.fan_in) {
      size_t end = std::min(group + options_.fan_in, runs.size());
      std::vector<std::string> batch(runs.begin() + group, runs.begin() + end);
      std::string merged_path =
          (next.empty() && end == runs.size() && group == 0)
              ? out_path
              : TempPath("merge");
      XARCH_RETURN_NOT_OK(MergeRuns(batch, merged_path));
      for (const auto& p : batch) (void)vfs_->Remove(p);
      next.push_back(merged_path);
    }
    runs = std::move(next);
  }
  if (runs[0] != out_path) {
    XARCH_RETURN_NOT_OK(vfs_->Rename(runs[0], out_path));
  }
  return Status::OK();
}

Status ExternalArchiver::MergeRuns(const std::vector<std::string>& runs,
                                   const std::string& out_path) {
  struct Source {
    std::unique_ptr<RowReader> reader;
    Row row;
    bool valid = false;
  };
  std::vector<Source> sources(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    sources[i].reader = std::make_unique<RowReader>(vfs_, runs[i], &stats_);
    sources[i].valid = sources[i].reader->Next(&sources[i].row);
    XARCH_RETURN_NOT_OK(sources[i].reader->status());
  }
  auto cmp = [&](size_t a, size_t b) {
    return sources[a].row.sort_key > sources[b].row.sort_key;  // min-heap
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].valid) heap.push(i);
  }
  RowWriter writer(vfs_, out_path, &stats_);
  while (!heap.empty()) {
    size_t i = heap.top();
    heap.pop();
    XARCH_RETURN_NOT_OK(writer.Write(sources[i].row));
    sources[i].valid = sources[i].reader->Next(&sources[i].row);
    XARCH_RETURN_NOT_OK(sources[i].reader->status());
    if (sources[i].valid) heap.push(i);
  }
  return writer.Close();
}

Status ExternalArchiver::MergeWithArchive(const std::string& version_path,
                                          Version v) {
  std::string new_archive = TempPath("newarchive");
  RowWriter out(vfs_, new_archive, &stats_);

  if (!has_archive_) {
    // Bootstrap: the sorted version rows become the archive; the root row
    // carries the timestamp {1}, everything else inherits.
    RowReader reader(vfs_, version_path, &stats_);
    Row row;
    bool first = true;
    while (reader.Next(&row)) {
      if (first) {
        row.has_stamp = true;
        row.stamp = VersionSet::Single(v);
        first = false;
      }
      XARCH_RETURN_NOT_OK(out.Write(row));
    }
    XARCH_RETURN_NOT_OK(reader.status());
    XARCH_RETURN_NOT_OK(out.Close());
    XARCH_RETURN_NOT_OK(vfs_->Rename(new_archive, archive_path_));
    has_archive_ = true;
    return Status::OK();
  }

  RowReader a(vfs_, archive_path_, &stats_);
  RowReader b(vfs_, version_path, &stats_);
  Row ra, rb;
  bool has_a = a.Next(&ra);
  bool has_b = b.Next(&rb);

  enum RowState : uint8_t { kMatched = 0, kArchiveOnly = 1, kVersionOnly = 2 };
  std::vector<VersionSet> eff(1);
  std::vector<uint8_t> state(1, kMatched);
  auto at_depth = [&](uint32_t depth) {
    if (eff.size() < depth + 1) {
      eff.resize(depth + 1);
      state.resize(depth + 1);
    }
  };

  while (has_a || has_b) {
    int cmp;
    if (has_a && has_b) {
      cmp = ra.sort_key.compare(rb.sort_key);
    } else {
      cmp = has_a ? -1 : 1;
    }
    if (cmp == 0) {
      Row merged = std::move(ra);
      at_depth(merged.depth);
      if (merged.has_stamp) {
        merged.stamp.Add(v);
        eff[merged.depth] = merged.stamp;
      } else {
        // Inherits; the parent matched (ancestors of a matched row match),
        // so the inherited stamp already contains v.
        eff[merged.depth] = merged.depth == 0 ? VersionSet::Single(v)
                                              : eff[merged.depth - 1];
      }
      state[merged.depth] = kMatched;
      if (merged.is_frontier) {
        const std::string& content = rb.buckets.empty()
                                         ? std::string()
                                         : rb.buckets[0].content;
        const VersionSet& t = eff[merged.depth];
        bool plain =
            merged.buckets.size() == 1 && !merged.buckets[0].has_stamp;
        if (plain) {
          if (merged.buckets[0].content != content) {
            merged.buckets[0].has_stamp = true;
            merged.buckets[0].stamp = t.Minus(VersionSet::Single(v));
            Row::Bucket fresh;
            fresh.has_stamp = true;
            fresh.stamp = VersionSet::Single(v);
            fresh.content = content;
            merged.buckets.push_back(std::move(fresh));
          }
        } else {
          bool found = false;
          for (auto& bucket : merged.buckets) {
            if (bucket.has_stamp && bucket.content == content) {
              bucket.stamp.Add(v);
              found = true;
              break;
            }
          }
          if (!found) {
            Row::Bucket fresh;
            fresh.has_stamp = true;
            fresh.stamp = VersionSet::Single(v);
            fresh.content = content;
            merged.buckets.push_back(std::move(fresh));
          }
        }
      }
      XARCH_RETURN_NOT_OK(out.Write(merged));
      has_a = a.Next(&ra);
      has_b = b.Next(&rb);
    } else if (cmp < 0) {
      // Archive-only subtree: terminate the timestamp at its top.
      Row merged = std::move(ra);
      at_depth(merged.depth);
      bool parent_matched =
          merged.depth == 0 || state[merged.depth - 1] == kMatched;
      if (!merged.has_stamp && parent_matched) {
        merged.has_stamp = true;
        merged.stamp = eff[merged.depth - 1].Minus(VersionSet::Single(v));
      }
      eff[merged.depth] = merged.has_stamp ? merged.stamp
                                           : eff[merged.depth - 1];
      state[merged.depth] = kArchiveOnly;
      XARCH_RETURN_NOT_OK(out.Write(merged));
      has_a = a.Next(&ra);
    } else {
      // Version-only subtree: timestamp {v} at its top.
      Row merged = std::move(rb);
      at_depth(merged.depth);
      bool parent_matched =
          merged.depth == 0 || state[merged.depth - 1] == kMatched;
      if (parent_matched) {
        merged.has_stamp = true;
        merged.stamp = VersionSet::Single(v);
      }
      eff[merged.depth] = merged.has_stamp ? merged.stamp
                                           : eff[merged.depth - 1];
      state[merged.depth] = kVersionOnly;
      XARCH_RETURN_NOT_OK(out.Write(merged));
      has_b = b.Next(&rb);
    }
  }
  XARCH_RETURN_NOT_OK(a.status());
  XARCH_RETURN_NOT_OK(b.status());
  XARCH_RETURN_NOT_OK(out.Close());
  XARCH_RETURN_NOT_OK(vfs_->Rename(new_archive, archive_path_));
  return Status::OK();
}

Status ExternalArchiver::AddVersion(const xml::Node& version_root) {
  Version v = count_ + 1;
  std::string raw_path = TempPath("version");
  XARCH_RETURN_NOT_OK(BuildVersionRows(version_root, raw_path));
  std::string sorted_path = TempPath("sorted");
  XARCH_RETURN_NOT_OK(ExternalSort(raw_path, sorted_path));
  (void)vfs_->Remove(raw_path);
  XARCH_RETURN_NOT_OK(MergeWithArchive(sorted_path, v));
  (void)vfs_->Remove(sorted_path);
  count_ = v;
  return Status::OK();
}

StatusOr<std::string> ExternalArchiver::ToXml() {
  if (!has_archive_) {
    return Status::NotFound("archive is empty");
  }
  RowReader reader(vfs_, archive_path_, &stats_);
  std::string out;
  struct Open {
    uint32_t depth;
    std::string tag;
    bool wrapped;
  };
  std::vector<Open> stack;
  auto close_to = [&](uint32_t depth) {
    while (!stack.empty() && stack.back().depth >= depth) {
      out += "</" + stack.back().tag + ">";
      if (stack.back().wrapped) out += "</T>";
      stack.pop_back();
    }
  };
  Row row;
  while (reader.Next(&row)) {
    close_to(row.depth);
    bool wrapped = row.has_stamp;
    if (wrapped) {
      out += "<T t=\"" + row.stamp.ToString() + "\">";
    }
    out += "<" + row.tag;
    for (const auto& [name, value] : row.attrs) {
      out += " " + name + "=\"" + xml::EscapeAttr(value) + "\"";
    }
    out += ">";
    if (row.is_frontier) {
      for (const auto& bucket : row.buckets) {
        if (bucket.has_stamp) {
          out += "<T t=\"" + bucket.stamp.ToString() + "\">" + bucket.content +
                 "</T>";
        } else {
          out += bucket.content;
        }
      }
    }
    stack.push_back(Open{row.depth, row.tag, wrapped});
  }
  XARCH_RETURN_NOT_OK(reader.status());
  close_to(0);
  return out;
}

StatusOr<xml::NodePtr> ExternalArchiver::RetrieveVersion(Version v) {
  XARCH_ASSIGN_OR_RETURN(std::string xml, ToXml());
  XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet spec, spec_.Clone());
  XARCH_ASSIGN_OR_RETURN(core::Archive archive,
                         core::Archive::FromXml(xml, std::move(spec)));
  return archive.RetrieveVersion(v);
}

StatusOr<std::string> ExternalArchiver::ArchiveFileBytes() const {
  if (!has_archive_) return std::string();
  return vfs_->ReadFile(archive_path_);
}

Status ExternalArchiver::RestoreSnapshot(std::string_view archive_bytes,
                                         Version count) {
  if (archive_bytes.empty() != (count == 0)) {
    return Status::DataLoss(
        "extmem snapshot is inconsistent: " + std::to_string(count) +
        " versions with " + std::to_string(archive_bytes.size()) +
        " row-archive bytes");
  }
  if (archive_bytes.empty()) {
    (void)vfs_->Remove(archive_path_);
    has_archive_ = false;
    count_ = 0;
    return Status::OK();
  }
  // Stage into a temp file and validate there FIRST: rejected bytes must
  // never destroy an archive this archiver already holds.
  const std::string staged = TempPath("restore");
  {
    auto out = vfs_->OpenWritable(staged, vfs::WriteMode::kTruncate);
    if (!out.ok()) return out.status();
    Status written = (*out)->Append(archive_bytes);
    Status closed = (*out)->Close();
    if (written.ok()) written = closed;
    if (!written.ok()) {
      (void)vfs_->Remove(staged);
      return written;
    }
  }
  auto reject = [&](Status status) {
    (void)vfs_->Remove(staged);
    return status;
  };
  // Every row must scan, and no stamp may mention a version past the
  // declared count. Validation I/O is not archiving work, so it runs
  // against scratch stats.
  {
    IoStats scratch;
    RowReader reader(vfs_, staged, &scratch);
    Row row;
    size_t rows = 0;
    while (reader.Next(&row)) {
      ++rows;
      if (row.has_stamp && !row.stamp.empty() && row.stamp.Max() > count) {
        return reject(Status::DataLoss(
            "row stamp [" + row.stamp.ToString() +
            "] exceeds the snapshot's declared version count " +
            std::to_string(count)));
      }
    }
    Status scan = reader.status();
    if (!scan.ok()) {
      return reject(
          Status::DataLoss("row archive does not scan: " + scan.message()));
    }
    if (rows == 0) {
      return reject(Status::DataLoss("row archive holds no rows"));
    }
  }
  Status installed = vfs_->Rename(staged, archive_path_);
  if (!installed.ok()) {
    return reject(Status::IoError("cannot install row archive: " +
                                  installed.message()));
  }
  has_archive_ = true;
  count_ = count;
  return Status::OK();
}

}  // namespace xarch::extmem
