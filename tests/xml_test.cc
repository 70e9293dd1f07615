#include <gtest/gtest.h>

#include "xml/canonical.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/serializer.h"
#include "xml/value.h"
#include "synth/omim.h"
#include "synth/swissprot.h"
#include "synth/xmark.h"

namespace xarch::xml {
namespace {

NodePtr MustParse(std::string_view text) {
  auto result = Parse(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ---------------------------------------------------------------- Node

TEST(NodeTest, ElementBasics) {
  NodePtr e = Node::Element("db");
  EXPECT_TRUE(e->is_element());
  EXPECT_EQ(e->tag(), "db");
  EXPECT_TRUE(e->children().empty());
}

TEST(NodeTest, AttrsSortedAndReplaceable) {
  NodePtr e = Node::Element("x");
  e->SetAttr("b", "2");
  e->SetAttr("a", "1");
  e->SetAttr("c", "3");
  ASSERT_EQ(e->attrs().size(), 3u);
  EXPECT_EQ(e->attrs()[0].first, "a");
  EXPECT_EQ(e->attrs()[1].first, "b");
  EXPECT_EQ(e->attrs()[2].first, "c");
  e->SetAttr("b", "22");
  ASSERT_EQ(e->attrs().size(), 3u);
  EXPECT_EQ(*e->FindAttr("b"), "22");
  EXPECT_EQ(e->FindAttr("zz"), nullptr);
}

TEST(NodeTest, BuildAndFind) {
  NodePtr db = Node::Element("db");
  Node* dept = db->AddElement("dept");
  dept->AddElementWithText("name", "finance");
  dept->AddElementWithText("name", "hr");
  EXPECT_EQ(db->FindChild("dept"), dept);
  EXPECT_EQ(db->FindChild("none"), nullptr);
  EXPECT_EQ(dept->FindChildren("name").size(), 2u);
  EXPECT_EQ(dept->TextContent(), "financehr");
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  NodePtr doc = MustParse("<a x='1'><b>t1</b><c><d/>text</c></a>");
  NodePtr copy = doc->Clone();
  EXPECT_TRUE(ValueEqual(*doc, *copy));
  copy->FindChild("b")->mutable_children()[0]->set_text("t2");
  EXPECT_FALSE(ValueEqual(*doc, *copy));
}

TEST(NodeTest, CountNodesIncludesAttrs) {
  NodePtr doc = MustParse("<a x='1' y='2'><b/>text</a>");
  // a, x, y, b, text = 5
  EXPECT_EQ(doc->CountNodes(), 5u);
}

TEST(NodeTest, Height) {
  NodePtr doc = MustParse("<a><b><c>t</c></b><d/></a>");
  EXPECT_EQ(doc->Height(), 3);  // a -> b -> c (element levels only)
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, SimpleElement) {
  NodePtr doc = MustParse("<gene><id>6230</id><name>GRTM</name></gene>");
  EXPECT_EQ(doc->tag(), "gene");
  ASSERT_EQ(doc->children().size(), 2u);
  EXPECT_EQ(doc->children()[0]->tag(), "id");
  EXPECT_EQ(doc->children()[0]->TextContent(), "6230");
}

TEST(ParserTest, AttributesBothQuotes) {
  NodePtr doc = MustParse("<item id=\"item1\" cat='c48'/>");
  EXPECT_EQ(*doc->FindAttr("id"), "item1");
  EXPECT_EQ(*doc->FindAttr("cat"), "c48");
}

TEST(ParserTest, WhitespaceTextSkippedByDefault) {
  NodePtr doc = MustParse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
  ASSERT_EQ(doc->children().size(), 2u);
  EXPECT_TRUE(doc->children()[0]->is_element());
}

TEST(ParserTest, WhitespaceKeptWhenRequested) {
  ParseOptions opts;
  opts.skip_whitespace_text = false;
  auto result = Parse("<a> <b/> </a>", opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->children().size(), 3u);
}

TEST(ParserTest, Entities) {
  NodePtr doc = MustParse("<t a='&quot;q&apos;'>x &lt;tag&gt; &amp; &#65;&#x42;</t>");
  EXPECT_EQ(doc->TextContent(), "x <tag> & AB");
  EXPECT_EQ(*doc->FindAttr("a"), "\"q'");
}

TEST(ParserTest, CommentsAndPIsSkipped) {
  NodePtr doc = MustParse(
      "<?xml version=\"1.0\"?><!-- hi --><a><!-- in -->x<?pi data?></a>");
  EXPECT_EQ(doc->TextContent(), "x");
}

TEST(ParserTest, Doctype) {
  NodePtr doc = MustParse("<!DOCTYPE db [ <!ELEMENT a (b)> ]><a><b/></a>");
  EXPECT_EQ(doc->tag(), "a");
}

TEST(ParserTest, Cdata) {
  NodePtr doc = MustParse("<a><![CDATA[<raw> & stuff]]></a>");
  EXPECT_EQ(doc->TextContent(), "<raw> & stuff");
}

TEST(ParserTest, SelfClosing) {
  NodePtr doc = MustParse("<a><b/><c x='1'/></a>");
  EXPECT_EQ(doc->children().size(), 2u);
  EXPECT_TRUE(doc->children()[0]->children().empty());
}

TEST(ParserTest, MismatchedTagFails) {
  EXPECT_FALSE(Parse("<a><b></a></b>").ok());
}

TEST(ParserTest, UnterminatedFails) {
  EXPECT_FALSE(Parse("<a><b>").ok());
  EXPECT_FALSE(Parse("<a attr='x").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(Parse("<a/><b/>").ok());
  EXPECT_FALSE(Parse("<a/>junk").ok());
}

TEST(ParserTest, NamespacePrefixesKeptVerbatim) {
  NodePtr doc = MustParse("<v:T t='1-4'><db/></v:T>");
  EXPECT_EQ(doc->tag(), "v:T");
  EXPECT_EQ(*doc->FindAttr("t"), "1-4");
}

// ------------------------------------------------------------- Serializer

TEST(SerializerTest, RoundTripPretty) {
  NodePtr doc = MustParse(
      "<db><dept><name>finance</name><emp><fn>John</fn><ln>Doe</ln>"
      "<sal>95K</sal></emp></dept></db>");
  std::string text = Serialize(*doc);
  NodePtr again = MustParse(text);
  EXPECT_TRUE(ValueEqual(*doc, *again));
}

TEST(SerializerTest, RoundTripCompact) {
  NodePtr doc = MustParse("<a x='1'><b>hi &amp; low</b><c/></a>");
  SerializeOptions opts;
  opts.pretty = false;
  std::string text = Serialize(*doc, opts);
  EXPECT_EQ(text, "<a x=\"1\"><b>hi &amp; low</b><c/></a>");
  NodePtr again = MustParse(text);
  EXPECT_TRUE(ValueEqual(*doc, *again));
}

TEST(SerializerTest, TextOnlyElementsAreSingleLine) {
  NodePtr doc = MustParse("<a><b>x</b></a>");
  std::string text = Serialize(*doc);
  EXPECT_NE(text.find("<b>x</b>"), std::string::npos);
}

TEST(SerializerTest, EscapesSpecialChars) {
  NodePtr e = Node::Element("t");
  e->AddText("a<b&c>d");
  e->SetAttr("q", "say \"hi\"");
  SerializeOptions opts;
  opts.pretty = false;
  std::string text = Serialize(*e, opts);
  EXPECT_EQ(text, "<t q=\"say &quot;hi&quot;\">a&lt;b&amp;c&gt;d</t>");
}

// ------------------------------------------------------------- ValueEqual

TEST(ValueTest, EqualityIgnoresAttrOrder) {
  NodePtr a = MustParse("<x b='2' a='1'/>");
  NodePtr b = MustParse("<x a='1' b='2'/>");
  EXPECT_TRUE(ValueEqual(*a, *b));
}

TEST(ValueTest, ChildOrderMatters) {
  NodePtr a = MustParse("<x><a/><b/></x>");
  NodePtr b = MustParse("<x><b/><a/></x>");
  EXPECT_FALSE(ValueEqual(*a, *b));
}

TEST(ValueTest, TextDiffersDetected) {
  NodePtr a = MustParse("<x>one</x>");
  NodePtr b = MustParse("<x>two</x>");
  EXPECT_FALSE(ValueEqual(*a, *b));
}

TEST(ValueTest, TagDiffersDetected) {
  EXPECT_FALSE(ValueEqual(*MustParse("<x/>"), *MustParse("<y/>")));
}

TEST(ValueTest, AttrValueDiffersDetected) {
  EXPECT_FALSE(ValueEqual(*MustParse("<x a='1'/>"), *MustParse("<x a='2'/>")));
  EXPECT_FALSE(ValueEqual(*MustParse("<x a='1'/>"), *MustParse("<x/>")));
}

TEST(ValueTest, CompareIsTotalOrder) {
  // T-node < E-node.
  NodePtr t = Node::Text("zzz");
  NodePtr e = Node::Element("aaa");
  EXPECT_LT(ValueCompare(*t, *e), 0);
  EXPECT_GT(ValueCompare(*e, *t), 0);
  // Texts by string.
  EXPECT_LT(ValueCompare(*Node::Text("a"), *Node::Text("b")), 0);
  // Elements by tag first.
  EXPECT_LT(ValueCompare(*MustParse("<a><z/></a>"), *MustParse("<b/>")), 0);
  // Then by children: shorter list first.
  EXPECT_LT(ValueCompare(*MustParse("<a><x/></a>"),
                         *MustParse("<a><x/><x/></a>")),
            0);
  // Then lexicographic by child value.
  EXPECT_LT(ValueCompare(*MustParse("<a><x>1</x></a>"),
                         *MustParse("<a><x>2</x></a>")),
            0);
  // Then attributes: fewer first.
  EXPECT_LT(ValueCompare(*MustParse("<a/>"), *MustParse("<a b='1'/>")), 0);
  EXPECT_LT(ValueCompare(*MustParse("<a b='1'/>"), *MustParse("<a b='2'/>")),
            0);
  EXPECT_LT(ValueCompare(*MustParse("<a b='1'/>"), *MustParse("<a c='1'/>")),
            0);
}

TEST(ValueTest, CompareAntisymmetric) {
  NodePtr docs[] = {
      MustParse("<a/>"), MustParse("<a>t</a>"), MustParse("<a b='1'/>"),
      MustParse("<b><c/></b>"), MustParse("<a><b/><c>x</c></a>")};
  for (auto& x : docs) {
    for (auto& y : docs) {
      int cx = ValueCompare(*x, *y);
      int cy = ValueCompare(*y, *x);
      EXPECT_EQ(cx, -cy);
      EXPECT_EQ(cx == 0, ValueEqual(*x, *y));
    }
  }
}

// ------------------------------------------------------------- Canonical

TEST(CanonicalTest, EqualValuesEqualCanon) {
  NodePtr a = MustParse("<x b='2' a='1'><y>t</y></x>");
  NodePtr b = MustParse("<x  a=\"1\"  b=\"2\" ><y>t</y></x>");
  EXPECT_EQ(Canonicalize(*a), Canonicalize(*b));
}

TEST(CanonicalTest, DifferentValuesDifferentCanon) {
  EXPECT_NE(Canonicalize(*MustParse("<x>1</x>")),
            Canonicalize(*MustParse("<x>2</x>")));
  // A text child "b" vs an element child <b/> must differ.
  EXPECT_NE(Canonicalize(*MustParse("<x>b</x>")),
            Canonicalize(*MustParse("<x><b/></x>")));
}

TEST(CanonicalTest, EscapingPreventsConfusion) {
  // Text "<y/>" vs element <y/> must canonicalize differently.
  NodePtr a = Node::Element("x");
  a->AddText("<y/>");
  NodePtr b = MustParse("<x><y/></x>");
  EXPECT_NE(Canonicalize(*a), Canonicalize(*b));
}

TEST(CanonicalTest, FingerprintMatchesValueEquality) {
  NodePtr a = MustParse("<x b='2' a='1'><y>t</y></x>");
  NodePtr b = MustParse("<x a='1' b='2'><y>t</y></x>");
  NodePtr c = MustParse("<x a='1' b='2'><y>u</y></x>");
  EXPECT_EQ(Fingerprint(*a).ToHex(), Fingerprint(*b).ToHex());
  EXPECT_NE(Fingerprint(*a).ToHex(), Fingerprint(*c).ToHex());
}

// ------------------------------------------------------------------ Path

TEST(PathTest, ParseAbsolute) {
  auto p = ParsePath("/db/dept/emp");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->absolute);
  ASSERT_EQ(p->steps.size(), 3u);
  EXPECT_EQ(p->ToString(), "/db/dept/emp");
}

TEST(PathTest, ParseRelativeAndEmpty) {
  auto p = ParsePath("Date/Month");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->absolute);
  EXPECT_EQ(p->steps.size(), 2u);
  EXPECT_TRUE(ParsePath("")->empty());
  EXPECT_TRUE(ParsePath(".")->empty());
  EXPECT_TRUE(ParsePath("\\e")->empty());
  EXPECT_TRUE(ParsePath("/")->absolute);
}

TEST(PathTest, ParseRejectsEmptyStep) {
  EXPECT_FALSE(ParsePath("/a//b").ok());
}

TEST(PathTest, ConcatAndPrefix) {
  Path q = *ParsePath("/db/dept");
  Path r = *ParsePath("emp");
  Path full = q.Concat(r);
  EXPECT_EQ(full.ToString(), "/db/dept/emp");
  EXPECT_TRUE(q.IsProperPrefixOf(full));
  EXPECT_FALSE(full.IsProperPrefixOf(q));
  EXPECT_FALSE(full.IsProperPrefixOf(full));
}

TEST(PathTest, EvalElements) {
  NodePtr doc = MustParse(
      "<db><dept><name>fin</name></dept><dept><name>mkt</name></dept></db>");
  auto hits = EvalPath(*doc, *ParsePath("dept/name"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].node->TextContent(), "fin");
  EXPECT_EQ(hits[1].node->TextContent(), "mkt");
}

TEST(PathTest, EvalEmptyPathIsSelf) {
  NodePtr doc = MustParse("<a/>");
  auto hits = EvalPath(*doc, *ParsePath("."));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node, doc.get());
}

TEST(PathTest, EvalAttributeTerminal) {
  NodePtr doc = MustParse("<item id='item1'><sub id='s'/></item>");
  auto hits = EvalPath(*doc, *ParsePath("id"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0].is_attr());
  EXPECT_EQ(hits[0].attr_name, "id");
  EXPECT_EQ(*hits[0].attr_owner->FindAttr("id"), "item1");
}

TEST(PathTest, EvalElementPreferredOverAttribute) {
  NodePtr doc = MustParse("<x id='attr'><id>elem</id></x>");
  auto hits = EvalPath(*doc, *ParsePath("id"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_FALSE(hits[0].is_attr());
  EXPECT_EQ(hits[0].node->TextContent(), "elem");
}

TEST(PathTest, EvalNoMatch) {
  NodePtr doc = MustParse("<a><b/></a>");
  EXPECT_TRUE(EvalPath(*doc, *ParsePath("c/d")).empty());
}

// ------------------------------------------ canonical round-trip parity
// Persistence makes these load-bearing: a serialized tree must re-parse
// to the identical tree, or snapshots would drift on every save/open.

/// serialize(parse(serialize(tree))) must equal serialize(tree), compact
/// mode (pretty indentation around mixed content is presentation, not
/// data).
void ExpectStableRoundTrip(const Node& tree) {
  SerializeOptions compact;
  compact.pretty = false;
  std::string first = Serialize(tree, compact);
  auto reparsed = Parse(first);
  ASSERT_TRUE(reparsed.ok()) << first << "\n"
                             << reparsed.status().ToString();
  EXPECT_EQ(Serialize(**reparsed, compact), first);
}

TEST(RoundTripTest, TextWithQuotesCdataCloserAndRawAngle) {
  for (const char* text : {
           "plain",
           "a \"quoted\" phrase",
           "it's got 'apostrophes'",
           "a ]]> cdata closer",
           "raw > and < and & characters",
           ">>> ]]> <<<",
           "&amp; pre-escaped-looking text",
       }) {
    NodePtr e = Node::Element("t");
    e->AddText(text);
    ExpectStableRoundTrip(*e);
    // And the parsed text node carries the exact original bytes.
    SerializeOptions compact;
    compact.pretty = false;
    auto back = Parse(Serialize(*e, compact));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ((*back)->children().size(), 1u);
    EXPECT_EQ((*back)->children()[0]->text(), text) << text;
  }
}

TEST(RoundTripTest, AttributeValuesWithEveryDelicateCharacter) {
  for (const char* value : {
           "simple",
           "double \" quote",
           "single ' quote",
           "both \" and '",
           "angle <brackets> and &amp-ish",
           "]]> in an attribute",
           "trailing space ",
       }) {
    NodePtr e = Node::Element("t");
    e->SetAttr("a", value);
    ExpectStableRoundTrip(*e);
    SerializeOptions compact;
    compact.pretty = false;
    auto back = Parse(Serialize(*e, compact));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*(*back)->FindAttr("a"), value) << value;
  }
}

TEST(RoundTripTest, AttributeOrderIsStable) {
  // Attributes live in name order whichever order they were set or parsed
  // in, so serialize → parse → serialize is a fixed point.
  NodePtr e = Node::Element("t");
  e->SetAttr("zeta", "1");
  e->SetAttr("alpha", "2");
  e->SetAttr("mid", "3");
  SerializeOptions compact;
  compact.pretty = false;
  std::string first = Serialize(*e, compact);
  EXPECT_EQ(first, "<t alpha=\"2\" mid=\"3\" zeta=\"1\"/>");
  auto back = Parse(first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Serialize(**back, compact), first);

  // Parsing the attributes in the opposite order converges to the same
  // bytes.
  auto reversed = Parse("<t zeta=\"1\" mid=\"3\" alpha=\"2\"/>");
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(Serialize(**reversed, compact), first);
}

TEST(RoundTripTest, MixedContentRoundTripsCompact) {
  NodePtr e = Node::Element("p");
  e->AddText("before ");
  Node* b = e->AddElement("b");
  b->AddText("bold \"stuff\"");
  e->AddText(" after ]]>");
  ExpectStableRoundTrip(*e);
}

TEST(ParserTest, DuplicateAttributesAreRejected) {
  auto dup = Parse("<t a=\"1\" a=\"2\"/>");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kParseError);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
  // Distinct names still parse.
  EXPECT_TRUE(Parse("<t a=\"1\" b=\"2\"/>").ok());
}

// ------------------------------------------- parser edge cases (bulk scan)
// The parser copies text and attribute values in runs up to the next
// delimiter; these pin that every way a run can be split or cut short
// gives the same tree and the same error as a character-at-a-time scan.

std::string MustParseError(std::string_view text) {
  auto result = Parse(text);
  EXPECT_FALSE(result.ok()) << text;
  if (result.ok()) return "";
  EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
  return result.status().message();
}

TEST(ParserEdgeTest, TextRunsSplitByEntitiesCommentsCdataAndPis) {
  NodePtr doc = MustParse(
      "<a>one &amp; two<!-- c -->three<![CDATA[<4>]]>five<?pi x?>six"
      "&#x41;&lt;</a>");
  // Everything between two child elements is one text node.
  ASSERT_EQ(doc->children().size(), 1u);
  EXPECT_EQ(doc->children()[0]->text(), "one & twothree<4>fivesixA<");

  doc = MustParse("<a>x<b/>y<!--c-->z<c/>&amp;</a>");
  ASSERT_EQ(doc->children().size(), 5u);
  EXPECT_EQ(doc->children()[0]->text(), "x");
  EXPECT_EQ(doc->children()[2]->text(), "yz");
  EXPECT_EQ(doc->children()[4]->text(), "&");

  // A run that is only an entity, and entities back to back.
  doc = MustParse("<a>&lt;&gt;&quot;&apos;&#65;&#x42;</a>");
  EXPECT_EQ(doc->TextContent(), "<>\"'AB");
  // Non-ASCII bytes and characters that only matter in markup pass through.
  doc = MustParse("<a>caf\xc3\xa9 > ]] \" ' = /</a>");
  EXPECT_EQ(doc->TextContent(), "caf\xc3\xa9 > ]] \" ' = /");
}

TEST(ParserEdgeTest, AttributeValuesWithEntitiesInBothQuoteStyles) {
  NodePtr doc = MustParse(
      "<t a=\"x &amp; y &lt;z&gt; 'q'\" b='&quot;p&quot; \"r\" &#x41;'"
      " c=\"\" d='&amp;' e=\"<raw>\"/>");
  EXPECT_EQ(*doc->FindAttr("a"), "x & y <z> 'q'");
  EXPECT_EQ(*doc->FindAttr("b"), "\"p\" \"r\" A");
  EXPECT_EQ(*doc->FindAttr("c"), "");
  EXPECT_EQ(*doc->FindAttr("d"), "&");
  EXPECT_EQ(*doc->FindAttr("e"), "<raw>");
}

TEST(ParserEdgeTest, WhitespaceRunsAndTrimText) {
  NodePtr doc = MustParse("<a>\n\t <b> x </b>\r\n <c>\n</c> </a>");
  ASSERT_EQ(doc->children().size(), 2u);
  EXPECT_EQ(doc->children()[0]->TextContent(), " x ");
  EXPECT_TRUE(doc->children()[1]->children().empty());

  ParseOptions keep;
  keep.skip_whitespace_text = false;
  auto kept = Parse("<a>\n <b> x </b> <c/>\t</a>", keep);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ((*kept)->children().size(), 5u);
  EXPECT_EQ((*kept)->children()[0]->text(), "\n ");
  EXPECT_EQ((*kept)->children()[2]->text(), " ");
  EXPECT_EQ((*kept)->children()[4]->text(), "\t");

  ParseOptions trim;
  trim.trim_text = true;
  auto trimmed = Parse("<a> <b>  x &amp; y\n</b>\n<c> &#32;z </c></a>", trim);
  ASSERT_TRUE(trimmed.ok());
  ASSERT_EQ((*trimmed)->children().size(), 2u);
  EXPECT_EQ((*trimmed)->children()[0]->TextContent(), "x & y");
  EXPECT_EQ((*trimmed)->children()[1]->TextContent(), "z");

  // Trimming without skipping keeps whitespace-only runs as empty text.
  ParseOptions both;
  both.skip_whitespace_text = false;
  both.trim_text = true;
  auto empty_runs = Parse("<a> <b/> </a>", both);
  ASSERT_TRUE(empty_runs.ok());
  ASSERT_EQ((*empty_runs)->children().size(), 3u);
  EXPECT_EQ((*empty_runs)->children()[0]->text(), "");
}

TEST(ParserEdgeTest, TruncationMessagesAreStable) {
  // Inside text.
  EXPECT_EQ(MustParseError("<a>some text"), "unterminated element <a>");
  EXPECT_EQ(MustParseError("<a><b>x</b>tail"), "unterminated element <a>");
  EXPECT_EQ(MustParseError("<a>x &am"), "unterminated entity at offset 5");
  EXPECT_EQ(MustParseError("<a>x &bogus;</a>"), "unknown entity '&bogus;'");
  EXPECT_EQ(MustParseError("<a>x <!-- c"), "unterminated comment");
  EXPECT_EQ(MustParseError("<a><![CDATA[x]]"), "unterminated CDATA section");
  EXPECT_EQ(MustParseError("<a><?pi"), "unterminated processing instruction");
  // Inside an attribute value.
  EXPECT_EQ(MustParseError("<a x='abc"), "unterminated attribute value");
  EXPECT_EQ(MustParseError("<a x=\"abc"), "unterminated attribute value");
  EXPECT_EQ(MustParseError("<a x='a&amp;"), "unterminated attribute value");
  EXPECT_EQ(MustParseError("<a x='a&am"), "unterminated entity at offset 7");
  EXPECT_EQ(MustParseError("<a x=abc/>"),
            "expected quoted attribute value at offset 5");
  EXPECT_EQ(MustParseError("<a x"), "expected '=' after attribute name 'x'");
  EXPECT_EQ(MustParseError("<a "), "unterminated start tag");
  // Inside an end tag.
  EXPECT_EQ(MustParseError("<a>x</"), "expected name at offset 6");
  EXPECT_EQ(MustParseError("<a>x</a"), "malformed end tag </a>");
  EXPECT_EQ(MustParseError("<a>x</a "), "malformed end tag </a>");
  EXPECT_EQ(MustParseError("<a>x</ab"), "malformed end tag </ab>");
  EXPECT_EQ(MustParseError("<a>x</b>"),
            "mismatched end tag: expected </a>, found </b>");
  EXPECT_EQ(MustParseError("<a><b></a></b>"),
            "mismatched end tag: expected </b>, found </a>");
  // Around the root.
  EXPECT_EQ(MustParseError(""), "expected root element at offset 0");
  EXPECT_EQ(MustParseError("  text"), "expected root element at offset 2");
  EXPECT_EQ(MustParseError("<a/>junk"),
            "trailing content after root element at offset 4");
  EXPECT_EQ(MustParseError("<a><!DOCTYPE x></a>"), "expected name at offset 4");
}

TEST(ParserEdgeTest, SerializeParseIsAFixedPointOnSynthCorpora) {
  auto expect_fixed_point = [](const Node& doc) {
    for (bool pretty : {true, false}) {
      SerializeOptions options;
      options.pretty = pretty;
      std::string text = Serialize(doc, options);
      auto parsed = Parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_EQ(Serialize(**parsed, options), text);
    }
  };
  synth::XMarkGenerator::Options xmark_options;
  xmark_options.items = 12;
  xmark_options.people = 20;
  xmark_options.open_auctions = 15;
  xmark_options.seed = 7;
  synth::XMarkGenerator xmark(xmark_options);
  synth::SwissProtGenerator::Options sprot_options;
  sprot_options.initial_records = 30;
  sprot_options.seed = 7;
  synth::SwissProtGenerator sprot(sprot_options);
  synth::OmimGenerator::Options omim_options;
  omim_options.initial_records = 40;
  omim_options.seed = 7;
  synth::OmimGenerator omim(omim_options);
  for (int v = 0; v < 4; ++v) {
    expect_fixed_point(*xmark.Current());
    xmark.MutateRandom(10);
    expect_fixed_point(*sprot.NextVersion());
    expect_fixed_point(*omim.NextVersion());
  }
}

}  // namespace
}  // namespace xarch::xml
