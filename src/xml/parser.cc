#include "xml/parser.h"

#include <cstring>
#include <string>

#include "util/strings.h"

namespace xarch::xml {

namespace {

/// ASCII character classes. No locale is ever set, so these agree with
/// <cctype> in the "C" locale, without a call per character.
struct CharClasses {
  bool space[256] = {};
  bool name_start[256] = {};
  bool name_char[256] = {};

  constexpr CharClasses() {
    for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) space[c] = true;
    for (int c = 0; c < 256; ++c) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      const bool digit = c >= '0' && c <= '9';
      name_start[c] = alpha || c == '_' || c == ':';
      name_char[c] = alpha || digit || c == '_' || c == ':' || c == '-' ||
                     c == '.';
    }
  }
};
constexpr CharClasses kClasses;

bool IsClass(const bool (&table)[256], char c) {
  return table[static_cast<unsigned char>(c)];
}

/// Recursive-descent XML parser over a string_view. Character data and
/// attribute values are copied in runs up to the next delimiter.
class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : in_(input), options_(options) {}

  StatusOr<NodePtr> ParseDocument() {
    SkipProlog();
    if (Eof() || Peek() != '<') {
      return Status::ParseError("expected root element at offset " +
                                std::to_string(pos_));
    }
    XARCH_ASSIGN_OR_RETURN(NodePtr root, ParseElement());
    SkipMisc();
    if (!Eof()) {
      return Status::ParseError("trailing content after root element at offset " +
                                std::to_string(pos_));
    }
    return root;
  }

 private:
  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool LookingAt(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void SkipWs() {
    while (!Eof() && IsClass(kClasses.space, Peek())) ++pos_;
  }

  /// Offset of the first `a` or `b` at or after pos_, or in_.size().
  size_t FindEither(char a, char b) const {
    const char* begin = in_.data() + pos_;
    size_t n = in_.size() - pos_;
    if (const void* hit = std::memchr(begin, a, n)) {
      n = static_cast<size_t>(static_cast<const char*>(hit) - begin);
    }
    if (const void* hit = std::memchr(begin, b, n)) {
      n = static_cast<size_t>(static_cast<const char*>(hit) - begin);
    }
    return pos_ + n;
  }

  /// Appends in_[pos_, end) to `out` in one piece and moves past it.
  void TakeRun(size_t end, std::string* out) {
    out->append(in_.data() + pos_, end - pos_);
    pos_ = end;
  }

  void SkipProlog() {
    // XML declaration, DOCTYPE, comments, PIs, whitespace.
    for (;;) {
      SkipWs();
      if (LookingAt("<?")) {
        size_t end = in_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else if (LookingAt("<!--")) {
        size_t end = in_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      } else if (LookingAt("<!DOCTYPE")) {
        // Skip to matching '>' (internal subsets with brackets supported).
        int depth = 0;
        while (!Eof()) {
          char c = in_[pos_++];
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth == 0) break;
        }
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWs();
      if (LookingAt("<!--")) {
        size_t end = in_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      } else if (LookingAt("<?")) {
        size_t end = in_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else {
        return;
      }
    }
  }

  StatusOr<std::string_view> ParseName() {
    if (Eof() || !IsClass(kClasses.name_start, Peek())) {
      return Status::ParseError("expected name at offset " +
                                std::to_string(pos_));
    }
    size_t start = pos_;
    while (!Eof() && IsClass(kClasses.name_char, Peek())) ++pos_;
    return in_.substr(start, pos_ - start);
  }

  Status DecodeEntity(std::string* out) {
    // pos_ is at '&'.
    size_t semi = in_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 12) {
      return Status::ParseError("unterminated entity at offset " +
                                std::to_string(pos_));
    }
    std::string_view ent = in_.substr(pos_ + 1, semi - pos_ - 1);
    if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      long code = 0;
      if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
        code = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
      } else {
        code = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
      }
      AppendUtf8(code, out);
    } else {
      return Status::ParseError("unknown entity '&" + std::string(ent) + ";'");
    }
    pos_ = semi + 1;
    return Status::OK();
  }

  static void AppendUtf8(long cp, std::string* out) {
    if (cp < 0) cp = 0xFFFD;
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  StatusOr<std::string> ParseAttrValue() {
    if (Eof() || (Peek() != '"' && Peek() != '\'')) {
      return Status::ParseError("expected quoted attribute value at offset " +
                                std::to_string(pos_));
    }
    char quote = Peek();
    ++pos_;
    std::string value;
    for (;;) {
      TakeRun(FindEither(quote, '&'), &value);
      if (Eof() || Peek() == quote) break;
      XARCH_RETURN_NOT_OK(DecodeEntity(&value));
    }
    if (Eof()) {
      return Status::ParseError("unterminated attribute value");
    }
    ++pos_;  // closing quote
    return value;
  }

  StatusOr<NodePtr> ParseElement() {
    // pos_ is at '<'.
    ++pos_;
    XARCH_ASSIGN_OR_RETURN(std::string_view tag, ParseName());
    NodePtr element = Node::Element(std::string(tag));
    // Attributes.
    for (;;) {
      SkipWs();
      if (Eof()) return Status::ParseError("unterminated start tag");
      if (Peek() == '>' || LookingAt("/>")) break;
      XARCH_ASSIGN_OR_RETURN(std::string_view name, ParseName());
      SkipWs();
      if (Eof() || Peek() != '=') {
        return Status::ParseError("expected '=' after attribute name '" +
                                  std::string(name) + "'");
      }
      ++pos_;
      SkipWs();
      XARCH_ASSIGN_OR_RETURN(std::string value, ParseAttrValue());
      // XML well-formedness: attribute names are unique per element.
      // Overwriting silently would also break round-trip stability, which
      // the persistence layer depends on.
      if (element->FindAttr(name) != nullptr) {
        return Status::ParseError("duplicate attribute '" +
                                  std::string(name) + "' on <" +
                                  element->tag() + ">");
      }
      element->SetAttr(name, value);
    }
    if (LookingAt("/>")) {
      pos_ += 2;
      return element;
    }
    ++pos_;  // '>'
    // Content: one text run collects everything between two child
    // elements (character data, entities, CDATA); comments and PIs drop
    // out of it without ending it.
    std::string pending_text;
    auto flush_text = [&]() {
      if (pending_text.empty()) return;
      if (!options_.skip_whitespace_text || !IsAllWhitespace(pending_text)) {
        if (options_.trim_text) {
          std::string_view trimmed = Trim(pending_text);
          pending_text = std::string(trimmed);
        }
        element->AddText(std::move(pending_text));
      }
      pending_text.clear();
    };
    for (;;) {
      TakeRun(FindEither('<', '&'), &pending_text);
      if (Eof()) {
        return Status::ParseError("unterminated element <" + element->tag() +
                                  ">");
      }
      if (Peek() == '&') {
        XARCH_RETURN_NOT_OK(DecodeEntity(&pending_text));
        continue;
      }
      if (LookingAt("</")) {
        flush_text();
        pos_ += 2;
        XARCH_ASSIGN_OR_RETURN(std::string_view close, ParseName());
        SkipWs();
        if (Eof() || Peek() != '>') {
          return Status::ParseError("malformed end tag </" +
                                    std::string(close) + ">");
        }
        ++pos_;
        if (close != element->tag()) {
          return Status::ParseError("mismatched end tag: expected </" +
                                    element->tag() + ">, found </" +
                                    std::string(close) + ">");
        }
        return element;
      }
      if (LookingAt("<!--")) {
        size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA section");
        }
        pending_text.append(in_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<?")) {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated processing instruction");
        }
        pos_ = end + 2;
        continue;
      }
      flush_text();
      XARCH_ASSIGN_OR_RETURN(NodePtr child, ParseElement());
      element->AddChild(std::move(child));
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  ParseOptions options_;
};

}  // namespace

StatusOr<NodePtr> Parse(std::string_view input, const ParseOptions& options) {
  Parser parser(input, options);
  return parser.ParseDocument();
}

StatusOr<NodePtr> Parse(std::string_view input) {
  return Parse(input, ParseOptions());
}

}  // namespace xarch::xml
