#include "keys/key_spec.h"

#include <algorithm>

#include "util/strings.h"

namespace xarch::keys {

std::string Key::ToString() const {
  std::string out = "(" + context.ToString() + ", (" + target.ToString() + ", {";
  for (size_t i = 0; i < key_paths.size(); ++i) {
    if (i > 0) out += ", ";
    out += key_paths[i].empty() ? "\\e" : key_paths[i].ToString();
  }
  out += "}))";
  return out;
}

namespace {

/// Splits a brace list "a, b/c, \e" on top-level commas.
std::vector<std::string> SplitKeyPathList(std::string_view body) {
  std::vector<std::string> out;
  for (auto& part : Split(body, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

StatusOr<Key> ParseKeyLine(std::string_view line) {
  // Grammar: '(' ctx ',' '(' target ',' '{' paths '}' ')' ')'
  auto fail = [&](const std::string& why) {
    return Status::ParseError("bad key line '" + std::string(line) +
                              "': " + why);
  };
  std::string_view s = Trim(line);
  if (s.empty() || s.front() != '(' || s.back() != ')') {
    return fail("expected outer parentheses");
  }
  s = Trim(s.substr(1, s.size() - 2));
  size_t comma = s.find(',');
  if (comma == std::string_view::npos) return fail("missing context path");
  std::string_view ctx_text = Trim(s.substr(0, comma));
  std::string_view rest = Trim(s.substr(comma + 1));
  if (rest.empty() || rest.front() != '(' || rest.back() != ')') {
    return fail("expected (target, {key paths})");
  }
  rest = Trim(rest.substr(1, rest.size() - 2));
  size_t brace = rest.find('{');
  size_t brace_end = rest.rfind('}');
  if (brace == std::string_view::npos || brace_end == std::string_view::npos ||
      brace_end < brace) {
    return fail("expected {key paths}");
  }
  std::string_view target_text = Trim(rest.substr(0, brace));
  if (target_text.empty() || target_text.back() != ',') {
    return fail("expected ',' between target and key paths");
  }
  target_text = Trim(target_text.substr(0, target_text.size() - 1));
  std::string_view paths_text = rest.substr(brace + 1, brace_end - brace - 1);

  Key key;
  XARCH_ASSIGN_OR_RETURN(key.context, xml::ParsePath(ctx_text));
  if (!key.context.absolute) return fail("context path must be absolute");
  XARCH_ASSIGN_OR_RETURN(key.target, xml::ParsePath(target_text));
  if (key.target.absolute || key.target.empty()) {
    return fail("target path must be relative and non-empty");
  }
  for (const auto& p : SplitKeyPathList(paths_text)) {
    XARCH_ASSIGN_OR_RETURN(xml::Path kp, xml::ParsePath(p));
    if (kp.absolute) return fail("key path must be relative");
    key.key_paths.push_back(std::move(kp));
  }
  return key;
}

}  // namespace

StatusOr<std::vector<Key>> ParseKeySpecText(std::string_view text) {
  std::vector<Key> keys;
  for (const auto& raw : SplitLines(text)) {
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    XARCH_ASSIGN_OR_RETURN(Key key, ParseKeyLine(line));
    keys.push_back(std::move(key));
  }
  return keys;
}

StatusOr<KeySpecSet> ParseKeySpecSet(std::string_view text) {
  XARCH_ASSIGN_OR_RETURN(std::vector<Key> keys, ParseKeySpecText(text));
  return KeySpecSet::Build(std::move(keys));
}

StatusOr<KeySpecSet> KeySpecSet::Build(std::vector<Key> keys) {
  KeySpecSet set;
  set.keys_ = keys;
  set.all_keys_ = std::move(keys);

  // Add implied keys (Sec. 3): for every non-empty prefix R of a key path
  // Pi, the key (Q/Q', (R, {})) — skipped when an explicit key already
  // targets that full path.
  auto targets_path = [&](const xml::Path& full) {
    for (const auto& k : set.all_keys_) {
      if (k.FullPath() == full) return true;
    }
    return false;
  };
  size_t explicit_count = set.all_keys_.size();
  for (size_t i = 0; i < explicit_count; ++i) {
    const Key key = set.all_keys_[i];  // copy: vector may reallocate
    for (const auto& kp : key.key_paths) {
      for (size_t len = 1; len <= kp.steps.size(); ++len) {
        Key implied;
        implied.context = key.FullPath();
        implied.target.steps.assign(kp.steps.begin(), kp.steps.begin() + len);
        if (!targets_path(implied.FullPath())) {
          set.all_keys_.push_back(std::move(implied));
        }
      }
    }
  }

  // Build the path trie.
  set.root_ = std::make_unique<TrieNode>();
  for (const auto& key : set.all_keys_) {
    TrieNode* node = set.root_.get();
    for (const auto& step : key.FullPath().steps) {
      auto& child = node->children[step];
      if (!child) child = std::make_unique<TrieNode>();
      node = child.get();
    }
    if (node->key != nullptr) {
      return Status::InvalidArgument("two keys target the same path " +
                                     key.FullPath().ToString());
    }
    node->key = &key;  // fixed after this point: all_keys_ is not resized
  }

  // Mark ancestors that have keyed descendants (frontier computation).
  struct Marker {
    static bool Mark(TrieNode* n) {
      bool any_below = false;
      for (auto& [step, child] : n->children) {
        (void)step;
        bool child_or_below = Mark(child.get()) || child->key != nullptr;
        any_below = any_below || child_or_below;
      }
      n->has_keyed_below = any_below;
      return any_below;
    }
  };
  Marker::Mark(set.root_.get());
  return set;
}

void KeySpecSet::WalkAll(const std::vector<std::string>& steps,
                         std::vector<const TrieNode*>* out) const {
  // Both exact and "_" wildcard branches can match the same path (e.g.
  // (/site/regions, (africa, {})) keys the region while
  // (/site/regions/_, (item, {id})) keys its items); all matching trie
  // nodes must be combined, with exact matches listed first.
  struct Walker {
    static void Go(const TrieNode* node, const std::vector<std::string>& steps,
                   size_t i, std::vector<const TrieNode*>* out) {
      if (i == steps.size()) {
        out->push_back(node);
        return;
      }
      auto it = node->children.find(steps[i]);
      if (it != node->children.end()) {
        Go(it->second.get(), steps, i + 1, out);
      }
      it = node->children.find("_");
      if (it != node->children.end()) {
        Go(it->second.get(), steps, i + 1, out);
      }
    }
  };
  Walker::Go(root_.get(), steps, 0, out);
}

std::string KeySpecSet::ToText() const {
  std::string out;
  for (const Key& key : keys_) {
    out += key.ToString();
    out += '\n';
  }
  return out;
}

const Key* KeySpecSet::Lookup(const std::vector<std::string>& steps) const {
  std::vector<const TrieNode*> hits;
  WalkAll(steps, &hits);
  for (const TrieNode* node : hits) {
    if (node->key != nullptr) return node->key;
  }
  return nullptr;
}

bool KeySpecSet::IsFrontier(const std::vector<std::string>& steps) const {
  std::vector<const TrieNode*> hits;
  WalkAll(steps, &hits);
  bool keyed = false;
  for (const TrieNode* node : hits) {
    if (node->key != nullptr) keyed = true;
    if (node->has_keyed_below) return false;
  }
  return keyed;
}

}  // namespace xarch::keys
