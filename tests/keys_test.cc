#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "keys/annotate.h"
#include "keys/key_spec.h"
#include "keys/label.h"
#include "synth/omim.h"
#include "synth/swissprot.h"
#include "synth/xmark.h"
#include "xml/parser.h"

namespace xarch::keys {
namespace {

// The company-database keys of Sec. 3.
constexpr const char* kCompanyKeys = R"(
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
)";

xml::NodePtr MustParseXml(std::string_view text) {
  auto result = xml::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

KeySpecSet MustParseSpec(std::string_view text) {
  auto result = ParseKeySpecSet(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ----------------------------------------------------------- Key parsing

TEST(KeySpecParseTest, ParsesCompanyKeys) {
  auto keys = ParseKeySpecText(kCompanyKeys);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys->size(), 5u);
  EXPECT_EQ((*keys)[0].ToString(), "(/, (db, {}))");
  EXPECT_EQ((*keys)[1].ToString(), "(/db, (dept, {name}))");
  EXPECT_EQ((*keys)[2].ToString(), "(/db/dept, (emp, {fn, ln}))");
  EXPECT_EQ((*keys)[4].key_paths.size(), 1u);
  EXPECT_TRUE((*keys)[4].key_paths[0].empty());
}

TEST(KeySpecParseTest, ParsesMultiStepKeyPaths) {
  auto keys = ParseKeySpecText(
      "(/ROOT/Record, (Contributors, {Name, CNtype, Date/Month, Date/Day}))");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ((*keys)[0].key_paths.size(), 4u);
  EXPECT_EQ((*keys)[0].key_paths[2].ToString(), "Date/Month");
}

TEST(KeySpecParseTest, ParsesEmptyKeyPathForms) {
  auto keys = ParseKeySpecText(
      "(/a, (b, {\\e}))\n(/a, (c, {}))\n# comment\n\n(/a, (d, {.}))");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 3u);
  ASSERT_EQ((*keys)[0].key_paths.size(), 1u);
  EXPECT_TRUE((*keys)[0].key_paths[0].empty());
  EXPECT_TRUE((*keys)[1].key_paths.empty());
  ASSERT_EQ((*keys)[2].key_paths.size(), 1u);
  EXPECT_TRUE((*keys)[2].key_paths[0].empty());
}

TEST(KeySpecParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseKeySpecText("(/a, b, {})").ok());
  EXPECT_FALSE(ParseKeySpecText("(a, (b, {}))").ok());      // relative context
  EXPECT_FALSE(ParseKeySpecText("(/a, (/b, {}))").ok());    // absolute target
  EXPECT_FALSE(ParseKeySpecText("(/a, (b, {c}")
                   .ok());                                   // unbalanced
}

TEST(KeySpecSetTest, RejectsDuplicateTargets) {
  EXPECT_FALSE(
      ParseKeySpecSet("(/a, (b, {}))\n(/a, (b, {c}))").ok());
}

TEST(KeySpecSetTest, LookupAndFrontier) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  EXPECT_NE(spec.Lookup({"db"}), nullptr);
  EXPECT_NE(spec.Lookup({"db", "dept"}), nullptr);
  EXPECT_NE(spec.Lookup({"db", "dept", "emp"}), nullptr);
  EXPECT_EQ(spec.Lookup({"db", "nosuch"}), nullptr);
  // Implied keys make name/fn/ln keyed.
  EXPECT_NE(spec.Lookup({"db", "dept", "name"}), nullptr);
  EXPECT_NE(spec.Lookup({"db", "dept", "emp", "fn"}), nullptr);
  // Frontier paths of Sec. 3: name, fn, ln, sal, tel.
  EXPECT_TRUE(spec.IsFrontier({"db", "dept", "name"}));
  EXPECT_TRUE(spec.IsFrontier({"db", "dept", "emp", "fn"}));
  EXPECT_TRUE(spec.IsFrontier({"db", "dept", "emp", "sal"}));
  EXPECT_TRUE(spec.IsFrontier({"db", "dept", "emp", "tel"}));
  EXPECT_FALSE(spec.IsFrontier({"db", "dept", "emp"}));
  EXPECT_FALSE(spec.IsFrontier({"db"}));
}

TEST(KeySpecSetTest, ImpliedKeysAddedForPrefixes) {
  KeySpecSet spec = MustParseSpec(
      "(/r, (c, {Date/Month, Date/Day}))");
  // Both Date and Date/Month get implied keys.
  EXPECT_NE(spec.Lookup({"r", "c", "Date"}), nullptr);
  EXPECT_NE(spec.Lookup({"r", "c", "Date", "Month"}), nullptr);
  EXPECT_TRUE(spec.IsFrontier({"r", "c", "Date", "Month"}));
  EXPECT_FALSE(spec.IsFrontier({"r", "c", "Date"}));
}

TEST(KeySpecSetTest, WildcardStepMatches) {
  KeySpecSet spec = MustParseSpec(
      "(/site, (regions, {}))\n"
      "(/site/regions, (africa, {}))\n"
      "(/site/regions, (asia, {}))\n"
      "(/site/regions/_, (item, {id}))");
  EXPECT_NE(spec.Lookup({"site", "regions", "africa", "item"}), nullptr);
  EXPECT_NE(spec.Lookup({"site", "regions", "asia", "item"}), nullptr);
  EXPECT_EQ(spec.Lookup({"site", "item"}), nullptr);
}

TEST(KeySpecSetTest, ToTextRoundTripsThroughTheParser) {
  // Snapshots and shard manifests embed ToText(); reparsing it must give
  // back the same explicit keys (implied keys are re-derived, not stored).
  for (const char* text :
       {kCompanyKeys, "(/ROOT/Record, (Contributors, {Name, Date/Month}))",
        "(/a, (b, {\\e}))\n(/a, (c, {}))\n(/a, (d, {.}))",
        "(/site/regions/_, (item, {id}))"}) {
    KeySpecSet spec = MustParseSpec(text);
    const std::string once = spec.ToText();
    KeySpecSet again = MustParseSpec(once);
    EXPECT_EQ(again.ToText(), once) << text;
    ASSERT_EQ(again.keys().size(), spec.keys().size()) << text;
    EXPECT_EQ(again.all_keys().size(), spec.all_keys().size()) << text;
  }
  EXPECT_EQ(MustParseSpec(kCompanyKeys).ToText(),
            "(/, (db, {}))\n(/db, (dept, {name}))\n"
            "(/db/dept, (emp, {fn, ln}))\n(/db/dept/emp, (sal, {}))\n"
            "(/db/dept/emp, (tel, {\\e}))\n");
}

// ----------------------------------------------------------------- Label

TEST(LabelTest, CompareOrdersByTagThenArityThenPairs) {
  Label a{"emp", {{"fn", "TJane"}, {"ln", "TSmith"}}, 0};
  Label b{"emp", {{"fn", "TJohn"}, {"ln", "TDoe"}}, 0};
  Label c{"emp", {{"fn", "TJane"}}, 0};
  Label d{"dept", {}, 0};
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_LT(c.Compare(a), 0);  // fewer parts first
  EXPECT_LT(d.Compare(a), 0);  // tag first
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(LabelTest, FingerprintEqualForEqualLabels) {
  Label a{"emp", {{"fn", "TJohn"}, {"ln", "TDoe"}}, 0};
  Label b{"emp", {{"fn", "TJohn"}, {"ln", "TDoe"}}, 0};
  a.ComputeFingerprint(64);
  b.ComputeFingerprint(64);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  Label c = a;
  c.parts[0].value = "TJane";
  c.ComputeFingerprint(64);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(LabelTest, TruncatedFingerprintStillOrdersConsistently) {
  Label a{"x", {{"k", "T1"}}, 0};
  Label b{"x", {{"k", "T2"}}, 0};
  a.ComputeFingerprint(1);
  b.ComputeFingerprint(1);
  // With 1-bit fingerprints collisions are likely; OrderBefore must still
  // be a strict weak ordering via the label tiebreak.
  bool ab = a.OrderBefore(b);
  bool ba = b.OrderBefore(a);
  EXPECT_NE(ab, ba);
}

TEST(LabelTest, ToStringRendersKeyValues) {
  Label a{"emp", {{"fn", "TJohn"}, {"ln", "TDoe"}}, 0};
  EXPECT_EQ(a.ToString(), "emp{fn=John, ln=Doe}");
  Label b{"dept", {}, 0};
  EXPECT_EQ(b.ToString(), "dept");
}

// -------------------------------------------------------------- Annotate

constexpr const char* kVersion4 = R"(
<db>
 <dept>
  <name>finance</name>
  <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>
  <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal><tel>123-6789</tel>
       <tel>112-3456</tel></emp>
 </dept>
</db>
)";

TEST(AnnotateTest, AnnotatesCompanyVersion) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(kVersion4);
  auto keyed = AnnotateKeys(*doc, spec);
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  EXPECT_EQ(keyed->label.tag, "db");
  EXPECT_FALSE(keyed->is_frontier);
  ASSERT_EQ(keyed->children.size(), 1u);
  const KeyedNode& dept = keyed->children[0];
  EXPECT_EQ(dept.label.ToString(), "dept{name=finance}");
  // dept has name + 2 emps.
  ASSERT_EQ(dept.children.size(), 3u);
  // Children are sorted by (fingerprint, label); find the emps by tag.
  int emp_count = 0;
  for (const auto& c : dept.children) {
    if (c.label.tag == "emp") {
      ++emp_count;
      EXPECT_FALSE(c.is_frontier);
      EXPECT_EQ(c.label.parts.size(), 2u);
    }
    if (c.label.tag == "name") {
      EXPECT_TRUE(c.is_frontier);
    }
  }
  EXPECT_EQ(emp_count, 2);
}

TEST(AnnotateTest, TelKeyedByContent) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(kVersion4);
  auto keyed = AnnotateKeys(*doc, spec);
  ASSERT_TRUE(keyed.ok());
  // Find Jane Smith and check her two tels have distinct labels.
  const KeyedNode* jane = nullptr;
  for (const auto& c : keyed->children[0].children) {
    if (c.label.ToString().find("Jane") != std::string::npos) jane = &c;
  }
  ASSERT_NE(jane, nullptr);
  std::vector<std::string> tel_labels;
  for (const auto& c : jane->children) {
    if (c.label.tag == "tel") tel_labels.push_back(c.label.ToString());
  }
  ASSERT_EQ(tel_labels.size(), 2u);
  EXPECT_NE(tel_labels[0], tel_labels[1]);
}

TEST(AnnotateTest, DuplicateKeyValueRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  // Two depts with the same name violate (/db, (dept, {name})).
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name></dept><dept><name>x</name></dept></db>");
  auto keyed = AnnotateKeys(*doc, spec);
  EXPECT_FALSE(keyed.ok());
  EXPECT_EQ(keyed.status().code(), StatusCode::kKeyViolation);
}

TEST(AnnotateTest, RepeatedTelRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name><emp><fn>A</fn><ln>B</ln>"
      "<tel>1</tel><tel>1</tel></emp></dept></db>");
  EXPECT_FALSE(AnnotateKeys(*doc, spec).ok());
}

TEST(AnnotateTest, MissingKeyPathRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  // emp without ln: key path must exist uniquely.
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name><emp><fn>A</fn></emp></dept></db>");
  EXPECT_FALSE(AnnotateKeys(*doc, spec).ok());
}

TEST(AnnotateTest, DuplicateKeyPathRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name><name>y</name></dept></db>");
  EXPECT_FALSE(AnnotateKeys(*doc, spec).ok());
}

TEST(AnnotateTest, UnkeyedElementRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name><mystery/></dept></db>");
  auto keyed = AnnotateKeys(*doc, spec);
  EXPECT_FALSE(keyed.ok());
  EXPECT_NE(keyed.status().message().find("mystery"), std::string::npos);
}

TEST(AnnotateTest, TextUnderNonFrontierRejected) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml("<db>stray text<dept><name>x</name></dept></db>");
  EXPECT_FALSE(AnnotateKeys(*doc, spec).ok());
}

TEST(AnnotateTest, ContentBelowFrontierIsFree) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  // sal is frontier: arbitrary content below it is fine.
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>x</name><emp><fn>A</fn><ln>B</ln>"
      "<sal><amount>90</amount><currency>USD</currency></sal></emp></dept></db>");
  EXPECT_TRUE(AnnotateKeys(*doc, spec).ok());
}

TEST(AnnotateTest, AttributeKeys) {
  KeySpecSet spec = MustParseSpec(
      "(/, (site, {}))\n"
      "(/site, (item, {id}))\n"
      "(/site/item, (name, {}))");
  xml::NodePtr doc = MustParseXml(
      "<site><item id='i1'><name>a</name></item>"
      "<item id='i2'><name>b</name></item></site>");
  auto keyed = AnnotateKeys(*doc, spec);
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  ASSERT_EQ(keyed->children.size(), 2u);
  EXPECT_EQ(keyed->children[0].label.parts[0].path, "@id");
}

TEST(AnnotateTest, SiblingsSortedByLabel) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(
      "<db><dept><name>zeta</name></dept><dept><name>alpha</name></dept>"
      "<dept><name>mid</name></dept></db>");
  auto keyed = AnnotateKeys(*doc, spec);
  ASSERT_TRUE(keyed.ok());
  ASSERT_EQ(keyed->children.size(), 3u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(
        keyed->children[i - 1].label.OrderBefore(keyed->children[i].label));
  }
}

TEST(AnnotateTest, CollisionProneFingerprintsStillAnnotate) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  xml::NodePtr doc = MustParseXml(kVersion4);
  AnnotateOptions opts;
  opts.fingerprint_bits = 2;  // force collisions
  auto keyed = AnnotateKeys(*doc, spec, opts);
  ASSERT_TRUE(keyed.ok());
  // Order must still be strict and duplicates still detected.
  const auto& dept = keyed->children[0];
  for (size_t i = 1; i < dept.children.size(); ++i) {
    EXPECT_TRUE(dept.children[i - 1].label.OrderBefore(dept.children[i].label) ||
                dept.children[i - 1].label == dept.children[i].label);
  }
}

TEST(AnnotateTest, CheckKeysAgreesWithAnnotate) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  EXPECT_TRUE(CheckKeys(*MustParseXml(kVersion4), spec).ok());
  EXPECT_FALSE(CheckKeys(*MustParseXml("<db><oops/></db>"), spec).ok());
}

// ------------------------------------------------- annotate walk parity
// AnnotateKeys walks the key-spec trie one step per element; these pin
// that the walk finds the key and frontier flag that a lookup of the
// element's whole path finds, and that every violation reads as before.

TEST(AnnotateWalkTest, ExactStepAndWildcardAtOneLevel) {
  KeySpecSet spec = MustParseSpec(synth::XMarkGenerator::KeySpecText());
  // africa is keyed by its exact step; the "_" step below regions keys the
  // items inside it. Both trie branches match /site/regions/africa.
  const Key* africa = spec.Lookup({"site", "regions", "africa"});
  ASSERT_NE(africa, nullptr);
  EXPECT_EQ(africa->ToString(), "(/site/regions, (africa, {}))");
  EXPECT_FALSE(spec.IsFrontier({"site", "regions", "africa"}));
  const Key* item = spec.Lookup({"site", "regions", "africa", "item"});
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->ToString(), "(/site/regions/_, (item, {id}))");
  EXPECT_EQ(spec.Lookup({"site", "regions", "atlantis"}), nullptr);
  EXPECT_NE(spec.Lookup({"site", "regions", "atlantis", "item"}), nullptr);
  EXPECT_TRUE(spec.IsFrontier({"site", "regions", "asia", "item", "name"}));

  KeySpecSet::Matches at = spec.Root();
  KeySpecSet::Matches next;
  for (const char* step : {"site", "regions", "africa"}) {
    spec.Step(at, step, &next);
    std::swap(at, next);
  }
  EXPECT_EQ(at.key(), africa);
  EXPECT_FALSE(at.is_frontier());

  xml::NodePtr doc = MustParseXml(
      "<site><regions><africa><item id='i2'><name>b</name></item>"
      "<item id='i1'><name>a</name></item></africa>"
      "<atlantis><item id='i3'><name>c</name></item></atlantis>"
      "</regions><people/><open_auctions/></site>");
  auto keyed = AnnotateKeys(*doc, spec);
  // atlantis is not keyed, though the items below it would be.
  ASSERT_FALSE(keyed.ok());
  EXPECT_EQ(keyed.status().message(),
            "element at /site/regions/atlantis is not covered by any key");
}

TEST(AnnotateWalkTest, ViolationMessagesAreStable) {
  KeySpecSet spec = MustParseSpec(kCompanyKeys);
  auto message = [&](std::string_view text) {
    xml::NodePtr doc = MustParseXml(text);
    auto keyed = AnnotateKeys(*doc, spec);
    EXPECT_FALSE(keyed.ok()) << text;
    EXPECT_EQ(keyed.status().code(), StatusCode::kKeyViolation) << text;
    return keyed.status().message();
  };
  EXPECT_EQ(message("<db><dept><name>x</name><mystery/></dept></db>"),
            "element at /db/dept/mystery is not covered by any key");
  EXPECT_EQ(message("<db>stray<dept><name>x</name></dept></db>"),
            "text content under non-frontier keyed node at /db (keys must "
            "cover everything above the frontier, Sec. 3)");
  EXPECT_EQ(message("<db><dept><name>x</name><emp><fn>A</fn><ln>B</ln>"
                    "tail</emp></dept></db>"),
            "text content under non-frontier keyed node at /db/dept/emp "
            "(keys must cover everything above the frontier, Sec. 3)");
  EXPECT_EQ(
      message("<db><dept><name>x</name></dept><dept><name>x</name></dept>"
              "</db>"),
      "duplicate key value dept{name=x} under /db");
  EXPECT_EQ(message("<db><dept><name>x</name><emp><fn>A</fn><ln>B</ln>"
                    "<tel>1</tel><tel>1</tel></emp></dept></db>"),
            "duplicate key value tel{.=1} under /db/dept/emp");
  EXPECT_EQ(message("<db><dept><name>x</name><name>y</name></dept></db>"),
            "key path name of (/db, (dept, {name})) matched 2 nodes under "
            "<dept> (must exist uniquely)");
  EXPECT_EQ(message("<db><dept><name>x</name><emp><fn>A</fn></emp></dept>"
                    "</db>"),
            "key path ln of (/db/dept, (emp, {fn, ln})) matched 0 nodes "
            "under <emp> (must exist uniquely)");
}

TEST(AnnotateWalkTest, AttributeKeysAndExtraAttributesFoldIntoTheLabel) {
  KeySpecSet spec = MustParseSpec(
      "(/, (r, {}))\n"
      "(/r, (e, {id}))\n"
      "(/r, (f, {k/id}))");
  xml::NodePtr doc = MustParseXml(
      "<r><e id='1' z='extra' a='first'/><f id='7'><k id='2'/></f></r>");
  auto keyed = AnnotateKeys(*doc, spec);
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  std::vector<std::string> labels;
  for (const KeyedNode& c : keyed->children) {
    labels.push_back(c.label.ToString());
  }
  std::sort(labels.begin(), labels.end());
  // e's id is consumed by its key path; a and z fold in. An attribute
  // key path is named by its attribute alone, so f's k/id part reads @id,
  // and f's own id attribute counts as consumed by it.
  EXPECT_EQ(labels, (std::vector<std::string>{"e{@a=first, @id=1, @z=extra}",
                                              "f{@id=2}"}));
}

/// Walks `keyed` with its element path, checking every node's label and
/// frontier flag against a whole-path Lookup/IsFrontier.
void ExpectWalkMatchesLookup(const KeySpecSet& spec, const KeyedNode& keyed,
                             std::vector<std::string>* steps,
                             size_t* checked) {
  steps->push_back(keyed.node->tag());
  const Key* key = spec.Lookup(*steps);
  ASSERT_NE(key, nullptr);
  auto label = ComputeLabel(*keyed.node, *key, AnnotateOptions());
  ASSERT_TRUE(label.ok()) << label.status().ToString();
  EXPECT_TRUE(*label == keyed.label) << keyed.label.ToString();
  EXPECT_EQ(label->fingerprint, keyed.label.fingerprint);
  EXPECT_EQ(keyed.is_frontier, spec.IsFrontier(*steps));
  ++*checked;
  for (const KeyedNode& child : keyed.children) {
    ExpectWalkMatchesLookup(spec, child, steps, checked);
  }
  steps->pop_back();
}

TEST(AnnotateWalkTest, SynthCorporaLabelsMatchWholePathLookups) {
  struct Corpus {
    const char* spec;
    std::vector<xml::NodePtr> docs;
  };
  std::vector<Corpus> corpora;
  {
    synth::XMarkGenerator::Options options;
    options.items = 10;
    options.people = 15;
    options.open_auctions = 10;
    options.seed = 11;
    synth::XMarkGenerator gen(options);
    Corpus corpus{synth::XMarkGenerator::KeySpecText(), {}};
    for (int v = 0; v < 3; ++v) {
      corpus.docs.push_back(gen.Current());
      gen.MutateRandom(10);
    }
    corpora.push_back(std::move(corpus));
  }
  {
    synth::SwissProtGenerator::Options options;
    options.initial_records = 25;
    options.seed = 11;
    synth::SwissProtGenerator gen(options);
    Corpus corpus{synth::SwissProtGenerator::KeySpecText(), {}};
    for (int v = 0; v < 3; ++v) corpus.docs.push_back(gen.NextVersion());
    corpora.push_back(std::move(corpus));
  }
  {
    synth::OmimGenerator::Options options;
    options.initial_records = 30;
    options.seed = 11;
    synth::OmimGenerator gen(options);
    Corpus corpus{synth::OmimGenerator::KeySpecText(), {}};
    for (int v = 0; v < 3; ++v) corpus.docs.push_back(gen.NextVersion());
    corpora.push_back(std::move(corpus));
  }
  for (const Corpus& corpus : corpora) {
    KeySpecSet spec = MustParseSpec(corpus.spec);
    for (const xml::NodePtr& doc : corpus.docs) {
      auto keyed = AnnotateKeys(*doc, spec);
      ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
      std::vector<std::string> steps;
      size_t checked = 0;
      ExpectWalkMatchesLookup(spec, *keyed, &steps, &checked);
      EXPECT_GT(checked, 100u);
    }
  }
}

}  // namespace
}  // namespace xarch::keys
