#include "xarch/shard.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "keys/label.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {

StatusOr<ShardRouter> ShardRouter::Make(keys::KeySpecSet spec, size_t shards,
                                        keys::AnnotateOptions annotate) {
  if (shards < 1 || shards > kMaxShards) {
    return Status::InvalidArgument(
        "shard count must be in 1-" + std::to_string(kMaxShards) + ", got " +
        std::to_string(shards));
  }
  if (spec.size() == 0) {
    return Status::InvalidArgument(
        "sharding requires a non-empty key specification (top-level keys "
        "are the partitioning domain)");
  }
  if (annotate.fingerprint_bits < 1 || annotate.fingerprint_bits > 64) {
    return Status::InvalidArgument("fingerprint bits out of range");
  }
  return ShardRouter(std::move(spec), shards, annotate);
}

size_t ShardRouter::ShardOfFingerprint(uint64_t fingerprint) const {
  const int bits = annotate_.fingerprint_bits;
  // fp * K / 2^bits without overflow; monotone in fp, so shard ranges are
  // contiguous fingerprint intervals.
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(fingerprint) * shards_;
  return static_cast<size_t>(scaled >> bits);
}

StatusOr<std::vector<std::string>> ShardRouter::SplitDocument(
    std::string_view xml_text) const {
  XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(xml_text));
  // Full-document validation up front: a version that violates the key
  // spec is rejected here, before any shard sees any part of it.
  XARCH_ASSIGN_OR_RETURN(keys::KeyedNode annotated,
                         keys::AnnotateKeys(*doc, spec_, annotate_));

  std::vector<std::string> out(shards_);
  if (annotated.is_frontier || annotated.children.empty()) {
    // Nothing keyed to route (a frontier root, or a childless one): the
    // whole document is shard 0's sub-document. Serializing the parse
    // keeps the bytes canonical regardless of input formatting.
    out[0] = xml::Serialize(*doc);
    for (size_t s = 1; s < shards_; ++s) {
      xml::NodePtr root = xml::Node::Element(doc->tag());
      for (const auto& [name, value] : doc->attrs()) {
        root->SetAttr(name, value);
      }
      out[s] = xml::Serialize(*root);
    }
    return out;
  }

  // Route every top-level keyed child. The annotated children are in
  // (fingerprint, label) order (AnnotateOptions::sort_children), and the
  // range partition is monotone in fingerprint, so appending in that
  // order gives each shard its children pre-sorted and the shards
  // themselves ordered: shard-order concatenation is the global order.
  std::unordered_map<const xml::Node*, xml::NodePtr> owned;
  owned.reserve(doc->children().size());
  for (xml::NodePtr& child : doc->mutable_children()) {
    const xml::Node* ptr = child.get();
    owned.emplace(ptr, std::move(child));
  }
  std::vector<xml::NodePtr> roots;
  roots.reserve(shards_);
  for (size_t s = 0; s < shards_; ++s) {
    xml::NodePtr root = xml::Node::Element(doc->tag());
    for (const auto& [name, value] : doc->attrs()) {
      root->SetAttr(name, value);
    }
    roots.push_back(std::move(root));
  }
  for (const keys::KeyedNode& child : annotated.children) {
    if (!child.label.parts.empty() && TagAlone(doc->tag(), child.label.tag)) {
      // Extra attributes fold into the label, so this element's shard is
      // not the one its tag names, and a query routed by tag would miss it.
      return Status::KeyViolation(
          "top-level element " + child.label.ToString() +
          " is keyed by its tag alone ({}) but carries attributes; a "
          "sharded store routes such elements by tag and refuses them");
    }
    auto it = owned.find(child.node);
    if (it == owned.end() || it->second == nullptr) {
      return Status::Corruption("annotated child is not a document child");
    }
    const size_t s = ShardOfFingerprint(child.label.fingerprint);
    roots[s]->AddChild(std::move(it->second));
  }
  for (size_t s = 0; s < shards_; ++s) {
    out[s] = xml::Serialize(*roots[s]);
  }
  return out;
}

std::vector<size_t> ShardRouter::CandidateShards(
    const core::KeyStep& step) const {
  // Stored label parts are in canonical form: attribute paths ("@id")
  // keep the raw attribute text, element/content paths store the
  // canonical list form, which for plain text is "T" + text. A query
  // value is matched against both (FindChildByKeyStep). A canonical list
  // is empty or starts with a text ('T') or element ('<') marker, so only
  // a value of that shape doubles the candidate labels.
  std::vector<keys::Label> candidates(1);
  candidates[0].tag = step.tag;
  for (const auto& [path, value] : step.key) {
    const bool attribute = !path.empty() && path[0] == '@';
    const bool text_only = !attribute && !value.empty() && value[0] != 'T' &&
                           value[0] != '<';
    const size_t n = candidates.size();
    if (!attribute && !text_only) {
      if (n * 2 > 8) return {};  // combinatorial blow-up: scatter instead
      candidates.reserve(n * 2);
      for (size_t i = 0; i < n; ++i) {
        keys::Label doubled = candidates[i];
        doubled.parts.push_back({path, "T" + value});
        candidates.push_back(std::move(doubled));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      candidates[i].parts.push_back({path, text_only ? "T" + value : value});
    }
  }
  std::vector<size_t> shards;
  for (keys::Label& label : candidates) {
    std::sort(label.parts.begin(), label.parts.end(),
              [](const keys::LabelPart& a, const keys::LabelPart& b) {
                return a.path < b.path;
              });
    label.ComputeFingerprint(annotate_.fingerprint_bits);
    const size_t s = ShardOfFingerprint(label.fingerprint);
    if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
      shards.push_back(s);
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

bool ShardRouter::TagAlone(const std::string& root_tag,
                           const std::string& tag) const {
  const keys::Key* key = spec_.Lookup({root_tag, tag});
  return key != nullptr && key->key_paths.empty();
}

bool ShardRouter::NamesOneLabel(const std::string& root_tag,
                                const query::Step& step) const {
  if (step.keyed()) return true;
  return !step.wildcard && TagAlone(root_tag, step.tag);
}

}  // namespace xarch
