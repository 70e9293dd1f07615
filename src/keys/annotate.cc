#include "keys/annotate.h"

#include <algorithm>

#include "xml/canonical.h"

namespace xarch::keys {

namespace {

std::string KeyPathText(const xml::Path& kp) {
  return kp.empty() ? "." : kp.ToString();
}

}  // namespace

StatusOr<Label> ComputeLabel(const xml::Node& node, const Key& key,
                             const AnnotateOptions& options) {
  Label label;
  label.tag = node.tag();
  label.parts.reserve(key.key_paths.size() + node.attrs().size());
  for (const auto& kp : key.key_paths) {
    const std::vector<xml::PathTarget> targets = xml::EvalPath(node, kp);
    if (targets.size() != 1) {
      return Status::KeyViolation(
          "key path " + KeyPathText(kp) + " of " + key.ToString() +
          " matched " + std::to_string(targets.size()) + " nodes under <" +
          node.tag() + "> (must exist uniquely)");
    }
    const xml::PathTarget& hit = targets[0];
    LabelPart part;
    if (hit.is_attr()) {
      part.path = "@" + hit.attr_name;
      part.value = *hit.attr_owner->FindAttr(hit.attr_name);
    } else {
      part.path = KeyPathText(kp);
      // The key path value is the XML value rooted under the node at the end
      // of the key path (Sec. 4.1) — its content, canonicalized.
      part.value = xml::CanonicalizeList(hit.node->children());
    }
    label.parts.push_back(std::move(part));
  }
  // Attributes not consumed by key paths also carry identity: the paper
  // assumes versions have no attributes outside key values (Sec. 4.2), so
  // extra attributes are folded into the label rather than silently dropped.
  // A consumed attribute is one whose name an "@name" part above carries
  // (parsed element names never start with '@', so no element-valued part
  // does).
  const size_t keyed_parts = label.parts.size();
  for (const auto& [name, value] : node.attrs()) {
    bool consumed = false;
    for (size_t i = 0; i < keyed_parts && !consumed; ++i) {
      const std::string& path = label.parts[i].path;
      consumed = !path.empty() && path[0] == '@' &&
                 std::string_view(path).substr(1) == name;
    }
    if (!consumed) label.parts.push_back(LabelPart{"@" + name, value});
  }
  std::sort(label.parts.begin(), label.parts.end(),
            [](const LabelPart& a, const LabelPart& b) {
              return a.path < b.path;
            });
  label.ComputeFingerprint(options.fingerprint_bits);
  return label;
}

namespace {

/// One walk of the document alongside the key-spec trie: the matches of
/// each element's path are one KeySpecSet::Step from its parent's.
class Annotator {
 public:
  Annotator(const KeySpecSet& spec, const AnnotateOptions& options)
      : spec_(spec), options_(options) {}

  StatusOr<KeyedNode> Run(const xml::Node& root) {
    matches_.push_back(spec_.Root());
    KeyedNode out;
    XARCH_RETURN_NOT_OK(Annotate(root, 1, &out));
    return out;
  }

 private:
  /// Annotates `node`, the element at `depth` (the root is at depth 1).
  Status Annotate(const xml::Node& node, size_t depth, KeyedNode* out) {
    path_.push_back(&node.tag());
    Status st = AnnotateAt(node, depth, out);
    path_.pop_back();
    return st;
  }

  Status AnnotateAt(const xml::Node& node, size_t depth, KeyedNode* out) {
    if (matches_.size() <= depth) matches_.emplace_back();
    spec_.Step(matches_[depth - 1], node.tag(), &matches_[depth]);
    const KeySpecSet::Matches& here = matches_[depth];
    const Key* key = here.key();
    if (key == nullptr) {
      return Status::KeyViolation("element at " + PathText() +
                                  " is not covered by any key");
    }
    out->node = &node;
    XARCH_ASSIGN_OR_RETURN(out->label, ComputeLabel(node, *key, options_));
    out->is_frontier = here.is_frontier();
    if (out->is_frontier) return Status::OK();

    out->children.reserve(node.children().size());
    for (const auto& child : node.children()) {
      if (child->is_text()) {
        return Status::KeyViolation(
            "text content under non-frontier keyed node at " + PathText() +
            " (keys must cover everything above the frontier, Sec. 3)");
      }
      out->children.emplace_back();
      XARCH_RETURN_NOT_OK(Annotate(*child, depth + 1, &out->children.back()));
    }
    if (options_.sort_children) {
      std::stable_sort(out->children.begin(), out->children.end(),
                       [](const KeyedNode& a, const KeyedNode& b) {
                         return a.label.OrderBefore(b.label);
                       });
    }
    // Key satisfaction: no two siblings may share a label.
    for (size_t i = 1; i < out->children.size(); ++i) {
      if (out->children[i - 1].label == out->children[i].label) {
        return Status::KeyViolation("duplicate key value " +
                                    out->children[i].label.ToString() +
                                    " under " + PathText());
      }
    }
    return Status::OK();
  }

  /// "/a/b/c" for the element being annotated (error messages only).
  std::string PathText() const {
    std::string out;
    for (const std::string* tag : path_) {
      out += '/';
      out += *tag;
    }
    return out.empty() ? "/" : out;
  }

  const KeySpecSet& spec_;
  const AnnotateOptions& options_;
  std::vector<KeySpecSet::Matches> matches_;  // [d]: matches at depth d
  std::vector<const std::string*> path_;      // tags from the root down
};

}  // namespace

StatusOr<KeyedNode> AnnotateKeys(const xml::Node& root, const KeySpecSet& spec,
                                 const AnnotateOptions& options) {
  Annotator annotator(spec, options);
  return annotator.Run(root);
}

StatusOr<KeyedNode> AnnotateKeys(const xml::Node& root,
                                 const KeySpecSet& spec) {
  return AnnotateKeys(root, spec, AnnotateOptions());
}

Status CheckKeys(const xml::Node& root, const KeySpecSet& spec) {
  return AnnotateKeys(root, spec).status();
}

}  // namespace xarch::keys
