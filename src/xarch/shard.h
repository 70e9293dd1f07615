#ifndef XARCH_XARCH_SHARD_H_
#define XARCH_XARCH_SHARD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/archive.h"
#include "keys/annotate.h"
#include "keys/key_spec.h"
#include "query/ast.h"
#include "util/status.h"

namespace xarch {

/// \brief The key-space partitioning function for sharded stores: maps
/// every top-level keyed element to one of K shards by the range its label
/// fingerprint falls in.
///
/// The partition is a *range* partition over the fingerprint space
/// (shard = fp * K / 2^bits). Fingerprints are MD5-derived (keys/label.h),
/// so the ranges are uniformly loaded like a hash partition — but unlike a
/// plain modulo, the mapping is monotone in the fingerprint. Archives sort
/// keyed siblings by (fingerprint, label), so concatenating per-shard
/// children in shard order 0..K-1 reproduces the global sorted child order
/// byte-for-byte: scatter/gather reads merge in key order by construction.
/// Labels whose truncated fingerprints collide land in the same shard, so
/// the within-shard (fingerprint, label) tie-break is also the global one.
class ShardRouter {
 public:
  /// Builds a router over `shards` shards for documents keyed by `spec`.
  /// Requires 1 <= shards <= kMaxShards and a non-empty spec (routing
  /// needs labels, so even backends that normally take no key spec need
  /// one to be sharded).
  static StatusOr<ShardRouter> Make(keys::KeySpecSet spec, size_t shards,
                                    keys::AnnotateOptions annotate);

  /// Shards beyond this are rejected (a shard costs a backend instance, a
  /// lock, a WAL, and metric series; 64 is far past any plausible core
  /// count this serves).
  static constexpr size_t kMaxShards = 64;

  ShardRouter(ShardRouter&&) noexcept = default;
  ShardRouter& operator=(ShardRouter&&) noexcept = default;

  size_t shard_count() const { return shards_; }
  const keys::KeySpecSet& spec() const { return spec_; }
  const keys::AnnotateOptions& annotate_options() const { return annotate_; }

  /// The shard owning a top-level label fingerprint: fp * K / 2^bits,
  /// computed in 128-bit so the full 64-bit fingerprint range divides
  /// without overflow.
  size_t ShardOfFingerprint(uint64_t fingerprint) const;

  /// Splits one version into K per-shard sub-documents: parses and
  /// annotates the full document (so the whole version is validated
  /// against the key spec before any shard is touched), routes each
  /// top-level keyed child by its label fingerprint, and serializes each
  /// shard's subset under a copy of the root element (tag + attributes).
  /// Shards that receive no children get a childless root — every shard
  /// stores every version, which keeps shard version numbers aligned.
  /// Within a shard, children appear in (fingerprint, label) order.
  ///
  /// A document whose root is a frontier (no keyed children to route)
  /// goes wholly to shard 0. A top-level element keyed by `{}` must carry
  /// no attributes: they would fold into its label and move it off the
  /// shard its tag names, which tag-only query routing relies on
  /// (kKeyViolation).
  StatusOr<std::vector<std::string>> SplitDocument(
      std::string_view xml_text) const;

  /// The shards that could hold the top-level element a query's first
  /// keyed step names. Key values are matched against the stored
  /// *canonical* form exactly as core::FindChildByKeyStep does — a stored
  /// part value equals either the query text or "T" + text. A stored
  /// element-content value is a canonical list, empty or starting with
  /// 'T' or '<', so the query text itself is a candidate only when it
  /// has that shape: a plain value such as "finance" names one label,
  /// other non-attribute parts up to two. Returns the (deduplicated)
  /// shard of every candidate fingerprint; empty when the combination
  /// count is unreasonable (callers then scatter).
  std::vector<size_t> CandidateShards(const core::KeyStep& step) const;

  /// True when `step`, the step under a query's root step `root_tag`,
  /// names exactly one top-level label, so CandidateShards can route it:
  /// either the step is keyed, or it is a bare (non-`[*]`) tag whose spec
  /// key is `{}` — such an element is identified by its tag alone, and
  /// its label is the tag with no parts (SplitDocument refuses the
  /// attributes that would add parts).
  bool NamesOneLabel(const std::string& root_tag,
                     const query::Step& step) const;

 private:
  ShardRouter(keys::KeySpecSet spec, size_t shards,
              keys::AnnotateOptions annotate)
      : spec_(std::move(spec)), shards_(shards), annotate_(annotate) {}

  /// True when top-level elements `tag` under `root_tag` are keyed by
  /// `{}`: identified by their tag alone.
  bool TagAlone(const std::string& root_tag, const std::string& tag) const;

  keys::KeySpecSet spec_;
  size_t shards_ = 1;
  keys::AnnotateOptions annotate_;
};

}  // namespace xarch

#endif  // XARCH_XARCH_SHARD_H_
