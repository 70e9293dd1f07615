#include "persist/container.h"

#include <cstring>
#include <utility>

#include "compress/lzss.h"
#include "persist/crc32c.h"
#include "persist/wire.h"
#include "vfs/vfs.h"

namespace xarch::persist {

namespace {

constexpr char kMagicXar1[4] = {'X', 'A', 'R', '1'};
constexpr char kMagicXar2[4] = {'X', 'A', 'R', '2'};
constexpr uint32_t kXar1FormatVersion = 1;  // read-only legacy
constexpr uint32_t kXar2FormatVersion = 2;
constexpr uint8_t kFlagLzss = 1u << 0;
// Sections shorter than this are never worth an LZSS attempt.
constexpr size_t kCompressMinBytes = 128;

// "XAR1" header: magic | u32 format | u32 count | u32 header CRC.
constexpr size_t kXar1HeaderSize = 16;
constexpr size_t kXar1HeaderCrcOffset = 12;
// "XAR2" header: magic | u32 format | u32 count | u32 reserved |
// u64 table offset | u64 table length | u32 table CRC | u32 header CRC.
constexpr size_t kXar2HeaderSize = 40;
constexpr size_t kXar2HeaderCrcOffset = 36;

uint32_t ReadU32At(std::string_view bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

uint64_t ReadU64At(std::string_view bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

bool HasMagic(std::string_view bytes, const char (&magic)[4]) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), magic, 4) == 0;
}

/// Verifies the masked header CRC stored at `crc_offset` over the bytes
/// before it, then the format version field.
Status CheckHeader(std::string_view bytes, size_t crc_offset,
                   uint32_t expected_version) {
  if (Crc32c(bytes.substr(0, crc_offset)) !=
      UnmaskCrc(ReadU32At(bytes, crc_offset))) {
    return Status::DataLoss("snapshot header checksum mismatch");
  }
  uint32_t version = ReadU32At(bytes, 4);
  if (version != expected_version) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(version) + " (this build reads " +
                            std::to_string(kXar1FormatVersion) + " and " +
                            std::to_string(kXar2FormatVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

void SnapshotWriter::Add(std::string name, std::string payload) {
  sections_.push_back({std::move(name), std::move(payload), true});
}

void SnapshotWriter::AddRaw(std::string name, std::string payload) {
  sections_.push_back({std::move(name), std::move(payload), false});
}

std::string SnapshotWriter::Serialize() const {
  std::string payloads;
  std::string table;
  uint64_t offset = kXar2HeaderSize;
  for (const Section& section : sections_) {
    // LZSS only when allowed and it actually shrinks the payload.
    std::string lzss;
    bool compressed = false;
    if (section.allow_compress &&
        section.payload.size() >= kCompressMinBytes) {
      auto attempt = compress::LzssTryCompress(section.payload);
      compressed = attempt.ok() && attempt->size() < section.payload.size();
      if (compressed) lzss = std::move(attempt).value();
    }
    const std::string_view stored =
        compressed ? std::string_view(lzss) : std::string_view(section.payload);
    PutU32(static_cast<uint32_t>(section.name.size()), &table);
    table += section.name;
    PutU8(compressed ? kFlagLzss : 0, &table);
    PutU64(offset, &table);
    PutU64(stored.size(), &table);
    PutU64(section.payload.size(), &table);
    PutU32(MaskCrc(Crc32c(stored)), &table);
    offset += stored.size();
    payloads += stored;
  }
  std::string out;
  out.reserve(kXar2HeaderSize + payloads.size() + table.size());
  out.append(kMagicXar2, 4);
  PutU32(kXar2FormatVersion, &out);
  PutU32(static_cast<uint32_t>(sections_.size()), &out);
  PutU32(0, &out);  // reserved
  PutU64(offset, &out);
  PutU64(table.size(), &out);
  PutU32(MaskCrc(Crc32c(table)), &out);
  PutU32(MaskCrc(Crc32c(std::string_view(out.data(), out.size()))), &out);
  out += payloads;
  out += table;
  return out;
}

Status SnapshotView::ParseInto(std::string_view bytes, SnapshotView* view) {
  if (HasMagic(bytes, kMagicXar2)) {
    XARCH_RETURN_NOT_OK(ParseXar2(bytes, view));
  } else if (HasMagic(bytes, kMagicXar1)) {
    XARCH_RETURN_NOT_OK(ParseXar1(bytes, view));
  } else {
    return Status::DataLoss("not an xarch snapshot container (bad magic)");
  }
  view->bytes_ = bytes;
  return Status::OK();
}

Status SnapshotView::ParseXar1(std::string_view bytes, SnapshotView* view) {
  if (bytes.size() < kXar1HeaderSize) {
    return Status::DataLoss("snapshot header is truncated");
  }
  XARCH_RETURN_NOT_OK(
      CheckHeader(bytes, kXar1HeaderCrcOffset, kXar1FormatVersion));
  const uint32_t count = ReadU32At(bytes, 8);
  Cursor cursor(bytes);
  XARCH_RETURN_NOT_OK(cursor.Skip(kXar1HeaderSize));
  for (uint32_t i = 0; i < count; ++i) {
    const size_t section_start = cursor.position();
    uint32_t name_len = 0;
    XARCH_RETURN_NOT_OK(cursor.ReadU32(&name_len));
    if (name_len > cursor.remaining()) {
      return Status::DataLoss("snapshot section name length " +
                              std::to_string(name_len) + " exceeds file");
    }
    Entry entry;
    entry.name.assign(bytes.substr(cursor.position(), name_len));
    XARCH_RETURN_NOT_OK(cursor.Skip(name_len));
    XARCH_RETURN_NOT_OK(cursor.ReadU8(&entry.flags));
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&entry.raw_len));
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&entry.stored_len));
    if (entry.stored_len > cursor.remaining()) {
      return Status::DataLoss("snapshot section \"" + entry.name +
                              "\" payload length " +
                              std::to_string(entry.stored_len) +
                              " exceeds file");
    }
    entry.payload_offset = cursor.position();
    XARCH_RETURN_NOT_OK(cursor.Skip(entry.stored_len));
    const size_t section_end = cursor.position();
    uint32_t masked = 0;
    XARCH_RETURN_NOT_OK(cursor.ReadU32(&masked));
    if (Crc32c(bytes.substr(section_start, section_end - section_start)) !=
        UnmaskCrc(masked)) {
      return Status::DataLoss("snapshot section \"" + entry.name +
                              "\" checksum mismatch");
    }
    XARCH_RETURN_NOT_OK(view->AddEntry(std::move(entry)));
  }
  return cursor.ExpectDone();
}

Status SnapshotView::ParseXar2(std::string_view bytes, SnapshotView* view) {
  if (bytes.size() < kXar2HeaderSize) {
    return Status::DataLoss("snapshot header is truncated");
  }
  XARCH_RETURN_NOT_OK(
      CheckHeader(bytes, kXar2HeaderCrcOffset, kXar2FormatVersion));
  uint32_t count = ReadU32At(bytes, 8);
  uint64_t table_offset = ReadU64At(bytes, 16);
  uint64_t table_len = ReadU64At(bytes, 24);
  uint32_t table_crc = UnmaskCrc(ReadU32At(bytes, 32));
  if (table_offset < kXar2HeaderSize || table_offset > bytes.size() ||
      table_len != bytes.size() - table_offset) {
    return Status::DataLoss("snapshot section table is out of bounds");
  }
  std::string_view table = bytes.substr(static_cast<size_t>(table_offset));
  if (Crc32c(table) != table_crc) {
    return Status::DataLoss("snapshot section table checksum mismatch");
  }

  // The table parses under a bounds-checked cursor; payload regions must
  // tile [header end, table start) exactly in file order, so every byte of
  // the file is covered by exactly one checksum (header, a payload, or the
  // table) and any truncation or splice is caught structurally.
  Cursor cursor(table);
  uint64_t expected_offset = kXar2HeaderSize;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    XARCH_RETURN_NOT_OK(cursor.ReadU32(&name_len));
    if (name_len > cursor.remaining()) {
      return Status::DataLoss("snapshot section name length " +
                              std::to_string(name_len) + " exceeds file");
    }
    Entry entry;
    entry.name.assign(table.substr(cursor.position(), name_len));
    XARCH_RETURN_NOT_OK(cursor.Skip(name_len));
    uint32_t masked = 0;
    XARCH_RETURN_NOT_OK(cursor.ReadU8(&entry.flags));
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&entry.payload_offset));
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&entry.stored_len));
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&entry.raw_len));
    XARCH_RETURN_NOT_OK(cursor.ReadU32(&masked));
    if (entry.payload_offset != expected_offset ||
        entry.stored_len > table_offset - expected_offset) {
      return Status::DataLoss("snapshot payload layout is corrupt");
    }
    expected_offset += entry.stored_len;
    std::string_view stored =
        bytes.substr(static_cast<size_t>(entry.payload_offset),
                     static_cast<size_t>(entry.stored_len));
    if (Crc32c(stored) != UnmaskCrc(masked)) {
      return Status::DataLoss("snapshot section \"" + entry.name +
                              "\" checksum mismatch");
    }
    XARCH_RETURN_NOT_OK(view->AddEntry(std::move(entry)));
  }
  if (expected_offset != table_offset) {
    return Status::DataLoss("snapshot payload layout is corrupt");
  }
  return cursor.ExpectDone();
}

Status SnapshotView::AddEntry(Entry entry) {
  if (entry.flags & ~kFlagLzss) {
    return Status::DataLoss("snapshot section \"" + entry.name +
                            "\" has unknown flags");
  }
  if (!(entry.flags & kFlagLzss) && entry.raw_len != entry.stored_len) {
    return Status::DataLoss("snapshot section \"" + entry.name +
                            "\" stored " + std::to_string(entry.stored_len) +
                            " bytes but declares " +
                            std::to_string(entry.raw_len) + " raw bytes");
  }
  auto [it, inserted] = index_.emplace(entry.name, entries_.size());
  if (!inserted) {
    return Status::DataLoss("duplicate snapshot section \"" + it->first +
                            "\"");
  }
  names_.push_back(entry.name);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

StatusOr<SnapshotView> SnapshotView::OpenFromBytes(std::string bytes) {
  auto owned = std::make_shared<std::string>(std::move(bytes));
  SnapshotView view;
  XARCH_RETURN_NOT_OK(ParseInto(*owned, &view));
  view.owner_ = owned;
  return view;
}

StatusOr<SnapshotView> SnapshotView::Adopt(
    std::unique_ptr<vfs::MappedFile> file) {
  std::shared_ptr<vfs::MappedFile> shared(std::move(file));
  SnapshotView view;
  XARCH_RETURN_NOT_OK(ParseInto(shared->data(), &view));
  view.owner_ = shared;
  return view;
}

const SnapshotView::Entry* SnapshotView::FindEntry(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

bool SnapshotView::HasSection(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

StatusOr<std::string_view> SnapshotView::RawSection(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::DataLoss("snapshot is missing required section \"" + name +
                            "\"");
  }
  if (entry->flags & kFlagLzss) {
    return Status::DataLoss("snapshot section \"" + name +
                            "\" is compressed where raw bytes were expected");
  }
  return bytes_.substr(static_cast<size_t>(entry->payload_offset),
                       static_cast<size_t>(entry->stored_len));
}

StatusOr<std::string> SnapshotView::SectionString(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::DataLoss("snapshot is missing required section \"" + name +
                            "\"");
  }
  std::string_view stored =
      bytes_.substr(static_cast<size_t>(entry->payload_offset),
                    static_cast<size_t>(entry->stored_len));
  if (!(entry->flags & kFlagLzss)) return std::string(stored);
  XARCH_ASSIGN_OR_RETURN(std::string payload,
                         compress::LzssDecompress(stored));
  if (payload.size() != entry->raw_len) {
    return Status::DataLoss("snapshot section \"" + name + "\" decoded to " +
                            std::to_string(payload.size()) +
                            " bytes, expected " +
                            std::to_string(entry->raw_len));
  }
  return payload;
}

}  // namespace xarch::persist
