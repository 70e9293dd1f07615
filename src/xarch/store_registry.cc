#include "xarch/store_registry.h"

#include <utility>

#include "persist/container.h"
#include "vfs/vfs.h"

namespace xarch {

StoreRegistry& StoreRegistry::Global() {
  static StoreRegistry* registry = [] {
    auto* r = new StoreRegistry();
    detail::RegisterBuiltinStores(*r);
    return r;
  }();
  return *registry;
}

Status StoreRegistry::Register(Entry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  if (!entry.factory) {
    return Status::InvalidArgument("backend \"" + entry.name +
                                   "\" has no factory");
  }
  auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  if (!inserted) {
    return Status::InvalidArgument("backend \"" + it->first +
                                   "\" is already registered");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::CreateStore(
    const std::string& name, StoreOptions options) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound("no store backend \"" + name +
                            "\" (registered: " + known + ")");
  }
  return it->second.factory(std::move(options));
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::Create(const std::string& name,
                                                       StoreOptions options) {
  return Global().CreateStore(name, std::move(options));
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::OpenFromFile(
    const std::string& path, StoreOptions tuning, vfs::Vfs* vfs) const {
  if (vfs == nullptr) vfs = vfs::Vfs::Posix();
  // Map() is the zero-copy seam: on the mmap backend the container is
  // parsed straight out of the page cache; elsewhere it buffers. The view
  // adopts the mapping, so a store built on it navigates the file in place.
  XARCH_ASSIGN_OR_RETURN(std::unique_ptr<vfs::MappedFile> mapping,
                         vfs->Map(path));
  XARCH_ASSIGN_OR_RETURN(persist::SnapshotView snapshot,
                         persist::SnapshotView::Adopt(std::move(mapping)));
  return Restore(snapshot, std::move(tuning));
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::OpenFromBytes(
    std::string bytes, StoreOptions tuning) const {
  XARCH_ASSIGN_OR_RETURN(
      persist::SnapshotView snapshot,
      persist::SnapshotView::OpenFromBytes(std::move(bytes)));
  return Restore(snapshot, std::move(tuning));
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::Restore(
    const persist::SnapshotView& snapshot, StoreOptions tuning) const {
  XARCH_ASSIGN_OR_RETURN(std::string backend,
                         snapshot.SectionString("backend"));
  auto it = entries_.find(backend);
  if (it == entries_.end()) {
    return Status::NotFound("snapshot was written by backend \"" + backend +
                            "\", which is not registered");
  }
  if (!it->second.restorer) {
    return Status::Unimplemented("backend \"" + it->first +
                                 "\" has no snapshot restorer");
  }
  return it->second.restorer(snapshot, std::move(tuning));
}

StatusOr<std::unique_ptr<Store>> StoreRegistry::Open(const std::string& path,
                                                     StoreOptions tuning,
                                                     vfs::Vfs* vfs) {
  return Global().OpenFromFile(path, std::move(tuning), vfs);
}

std::vector<const StoreRegistry::Entry*> StoreRegistry::List() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(&entry);
  return out;  // std::map iterates in name order
}

const StoreRegistry::Entry* StoreRegistry::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace xarch
