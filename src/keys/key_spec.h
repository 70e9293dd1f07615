#ifndef XARCH_KEYS_KEY_SPEC_H_
#define XARCH_KEYS_KEY_SPEC_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/path.h"

namespace xarch::keys {

/// \brief One relative key (Q, (Q', {P1, ..., Pk})) (Sec. 3, Appendix A.5).
///
/// `context` (Q) is an absolute path; `target` (Q') is relative to a context
/// node; `key_paths` (Pi) are relative to a target node. An empty key-path
/// set `{}` asserts the target exists at most once under its context node; a
/// single empty path `{.}` (written `{\e}` in the Appendix B files) keys the
/// node by its own content.
struct Key {
  xml::Path context;
  xml::Path target;
  std::vector<xml::Path> key_paths;

  /// The concatenation Q/Q' — the full path of nodes keyed by this key.
  xml::Path FullPath() const { return context.Concat(target); }

  /// Renders "(/db/dept, (emp, {fn, ln}))".
  std::string ToString() const;
};

/// \brief A set of keys plus the derived lookup structures the archiver
/// needs: which paths are keyed, which are frontier paths, and which key
/// applies at each keyed path.
///
/// The paper's XMark keys use "_" as a step standing for any one of the
/// region names (Appendix B.3); we support "_" as a match-any single step in
/// context/target paths.
class KeySpecSet {
 public:
  /// Builds the lookup structures. Adds the implied keys of Sec. 3: for
  /// every key (Q, (Q', {P1..Pk})) and every non-empty prefix R of each Pi,
  /// the key (Q/Q', (R, {})) — unless an explicit key already targets that
  /// full path. Fails if two keys target the same full path or an
  /// assumption from Sec. 3 is violated (a keyed node beneath a key path).
  static StatusOr<KeySpecSet> Build(std::vector<Key> keys);

  /// The explicit keys this set was built from.
  const std::vector<Key>& keys() const { return keys_; }

  /// The explicit keys in the Appendix B text format, one per line;
  /// ParseKeySpecSet(ToText()) rebuilds an equal set. Snapshots and shard
  /// manifests embed this text.
  std::string ToText() const;

  /// Deep copy (KeySpecSet is move-only because the trie points into
  /// all_keys_; Clone rebuilds from the explicit keys).
  StatusOr<KeySpecSet> Clone() const { return Build(keys_); }

  /// All keys including implied ones.
  const std::vector<Key>& all_keys() const { return all_keys_; }

  /// Returns the key applying at the full path given by `steps` (root tag
  /// first), or nullptr if nodes at that path are unkeyed.
  const Key* Lookup(const std::vector<std::string>& steps) const;

  /// True if `steps` is a frontier path: keyed, with no keyed proper
  /// descendants (Sec. 3).
  bool IsFrontier(const std::vector<std::string>& steps) const;

  /// Number of keys (q of the Sec. 4.1 analysis).
  size_t size() const { return all_keys_.size(); }

 private:
  struct TrieNode {
    std::map<std::string, std::unique_ptr<TrieNode>> children;
    const Key* key = nullptr;       // set when this path is keyed
    bool has_keyed_below = false;   // any keyed strict descendant?
  };

  void WalkAll(const std::vector<std::string>& steps,
               std::vector<const TrieNode*>* out) const;

  std::vector<Key> keys_;
  std::vector<Key> all_keys_;
  std::unique_ptr<TrieNode> root_;
};

/// \brief Parses a key-specification file in the Appendix B format: one key
/// per line like
///   (/ROOT/Record, (Contributors, {Name, CNtype, Date/Month}))
///   (/ROOT/Record, (AlternativeTitle, {\e}))
/// Blank lines and lines starting with '#' are ignored.
StatusOr<std::vector<Key>> ParseKeySpecText(std::string_view text);

/// Parses and builds in one step.
StatusOr<KeySpecSet> ParseKeySpecSet(std::string_view text);

}  // namespace xarch::keys

#endif  // XARCH_KEYS_KEY_SPEC_H_
