#include "vfs/vfs.h"

#include <utility>

namespace xarch::vfs {

namespace {

/// The base-class Map(): the whole file buffered into an owned string.
class BufferedMapping final : public MappedFile {
 public:
  explicit BufferedMapping(std::string bytes) : bytes_(std::move(bytes)) {}
  std::string_view data() const override { return bytes_; }

 private:
  const std::string bytes_;
};

}  // namespace

StatusOr<std::unique_ptr<MappedFile>> Vfs::Map(const std::string& path) {
  XARCH_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return std::unique_ptr<MappedFile>(
      std::make_unique<BufferedMapping>(std::move(bytes)));
}

StatusOr<std::string> Vfs::ReadFile(const std::string& path) {
  XARCH_ASSIGN_OR_RETURN(std::unique_ptr<ReadableFile> file,
                         OpenReadable(path));
  std::string out;
  // Sized up front, so the result's capacity matches the file: a durable
  // store keeps this buffer as its mapped snapshot. The size is only a
  // hint; the loop below reads to end of file either way.
  if (auto size = FileSize(path); size.ok()) {
    out.reserve(static_cast<size_t>(*size));
  }
  char buf[1 << 16];
  for (;;) {
    XARCH_ASSIGN_OR_RETURN(size_t n, file->Read(buf, sizeof buf));
    if (n == 0) break;
    out.append(buf, n);
  }
  return out;
}

Status AtomicWriteFile(Vfs& vfs, const std::string& path,
                       std::string_view bytes, bool sync) {
  const std::string tmp = path + ".tmp";
  auto file_or = vfs.OpenWritable(tmp, WriteMode::kTruncate);
  if (!file_or.ok()) return file_or.status();
  WritableFile& file = **file_or;
  Status status = file.Append(bytes);
  if (status.ok() && sync) status = file.Sync();
  Status closed = file.Close();
  if (status.ok()) status = closed;
  if (status.ok()) status = vfs.Rename(tmp, path);
  if (!status.ok()) {
    (void)vfs.Remove(tmp);
    return status;
  }
  if (sync) return vfs.SyncDir(DirOf(path));
  return Status::OK();
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string Join(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

}  // namespace xarch::vfs
