#ifndef XARCH_PERSIST_CONTAINER_H_
#define XARCH_PERSIST_CONTAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xarch::vfs {
class MappedFile;
}  // namespace xarch::vfs

namespace xarch::persist {

/// \brief Writer for the snapshot container (format 2, "XAR2"); every
/// backend writes it. See docs/FORMAT.md.
///
/// Layout (all integers little-endian): section metadata sits in a
/// trailing table so a reader can locate any stored payload from the
/// mapped file without touching payload bytes:
///
///   magic "XAR2" | u32 format version | u32 section count | u32 reserved |
///   u64 table offset | u64 table length | u32 table CRC32C (masked) |
///   u32 header CRC32C (masked, over the first 36 bytes), then the stored
///   payloads back to back from offset 40, then the section table at
///   `table offset`; per table entry:
///
///   u32 name length | name bytes | u8 flags (bit 0 = LZSS) |
///   u64 payload offset | u64 stored length | u64 raw length |
///   u32 CRC32C (masked) over the stored payload bytes
///
/// Every stored byte is covered by some checksum, so a bit flip is
/// detected before any decompression or decoding touches the payload.
/// Sections added with `Add` that are at least 128 bytes long are
/// LZSS-compressed when that actually shrinks them. Sections added with
/// `AddRaw` are never compressed — their bytes land in the file verbatim,
/// which is what makes them navigable in place.
class SnapshotWriter {
 public:
  /// Adds one named section. Names must be unique per container.
  void Add(std::string name, std::string payload);

  /// Adds one named section that is stored verbatim (never compressed), so
  /// a mapped reader can navigate its bytes in place.
  void AddRaw(std::string name, std::string payload);

  /// Serializes the container.
  std::string Serialize() const;

 private:
  struct Section {
    std::string name;
    std::string payload;
    bool allow_compress = true;
  };

  std::vector<Section> sections_;
};

/// \brief A parsed snapshot container over bytes it owns (a buffer or an
/// adopted file mapping) — the one snapshot reader.
///
/// It reads both formats, dispatching on the magic: XAR2, and the legacy
/// format 1 ("XAR1") that older builds wrote, whose per-section header and
/// trailing CRC precede each payload inline:
///
///   magic "XAR1" | u32 format version | u32 section count | u32 CRC32C
///   of the 12 header bytes (masked), then per section:
///
///   u32 name length | name bytes | u8 flags (bit 0 = LZSS payload) |
///   u64 raw payload length | u64 stored payload length | stored bytes |
///   u32 CRC32C (masked) over everything from the name length through the
///   stored bytes
///
/// Opening verifies the header and every checksum of either format (pure
/// checksum passes over the bytes — no parse, no decompression, no
/// per-node allocation), so corruption anywhere in the file surfaces as
/// kDataLoss at open time. Raw sections are then served as string_views
/// into the bytes; LZSS sections decompress on demand, and a payload that
/// decodes to the wrong length is kDataLoss there.
///
/// Copies of a SnapshotView share the underlying storage.
class SnapshotView {
 public:
  /// Parses `bytes`, which the view takes over.
  static StatusOr<SnapshotView> OpenFromBytes(std::string bytes);

  /// Parses and adopts a read-only file mapping: O(mmap + CRC verify),
  /// zero payload copies.
  static StatusOr<SnapshotView> Adopt(std::unique_ptr<vfs::MappedFile> file);

  /// The whole container, byte for byte (what SaveToBytes of an unmodified
  /// mapped store returns).
  std::string_view bytes() const { return bytes_; }

  /// Stored bytes of an uncompressed section, in place. kDataLoss when the
  /// section is absent or was stored compressed.
  StatusOr<std::string_view> RawSection(const std::string& name) const;

  /// Payload of any section as an owned string (decompresses LZSS
  /// sections; copies raw ones). kDataLoss when the section is absent.
  StatusOr<std::string> SectionString(const std::string& name) const;

  /// True when the named section exists.
  bool HasSection(const std::string& name) const;

  /// Section names in file order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  struct Entry {
    std::string name;
    uint8_t flags = 0;
    uint64_t payload_offset = 0;
    uint64_t stored_len = 0;
    uint64_t raw_len = 0;
  };

  /// Parses `bytes` (borrowed; caller keeps them alive) into `*view`,
  /// choosing the format by magic — never by the version field, so a
  /// damaged version still routes to the parser that owns the layout.
  static Status ParseInto(std::string_view bytes, SnapshotView* view);
  static Status ParseXar1(std::string_view bytes, SnapshotView* view);
  static Status ParseXar2(std::string_view bytes, SnapshotView* view);

  /// Validates one checksummed entry's flags and lengths and appends it.
  Status AddEntry(Entry entry);

  const Entry* FindEntry(const std::string& name) const;

  std::shared_ptr<const void> owner_;
  std::string_view bytes_;
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
  std::vector<std::string> names_;
};

// File I/O lives behind the pluggable backend in vfs/vfs.h now: whole-file
// reads are Vfs::ReadFile / Vfs::Map, atomic replacement is
// vfs::AtomicWriteFile, and the EINTR/short-write loops are
// util/posix_io.h. The container layer itself is pure bytes-in/bytes-out.

}  // namespace xarch::persist

#endif  // XARCH_PERSIST_CONTAINER_H_
