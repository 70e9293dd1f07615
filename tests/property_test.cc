// Property-based tests over randomly generated XML trees and version
// histories, checking the invariants DESIGN.md Sec. 4 lists.

#include <gtest/gtest.h>

#include <map>

#include "core/archive.h"
#include "keys/key_spec.h"
#include "util/random.h"
#include "xml/canonical.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/value.h"

namespace xarch {
namespace {

/// Random XML tree with text, attributes, and nesting.
xml::NodePtr RandomTree(Rng& rng, int max_depth) {
  if (max_depth == 0 || rng.Chance(0.3)) {
    return xml::Node::Text(rng.Word(1, 8));
  }
  xml::NodePtr elem = xml::Node::Element(rng.Word(1, 4));
  size_t attrs = rng.Uniform(0, 2);
  for (size_t i = 0; i < attrs; ++i) {
    elem->SetAttr(rng.Word(1, 3), rng.Word(0, 5));
  }
  size_t children = rng.Uniform(0, 4);
  for (size_t i = 0; i < children; ++i) {
    elem->AddChild(RandomTree(rng, max_depth - 1));
  }
  return elem;
}

/// Random *mutation* of a tree: returns a copy with one small change, or
/// an identical clone.
xml::NodePtr MaybeMutate(const xml::Node& tree, Rng& rng) {
  xml::NodePtr copy = tree.Clone();
  if (rng.Chance(0.5)) return copy;
  // Find a random node and tweak it.
  std::vector<xml::Node*> nodes = {copy.get()};
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& c : nodes[i]->children()) nodes.push_back(c.get());
  }
  xml::Node* victim = nodes[rng.Uniform(0, nodes.size() - 1)];
  if (victim->is_text()) {
    victim->set_text(victim->text() + "!");
  } else if (rng.Chance(0.5)) {
    victim->SetAttr("mut", "1");
  } else {
    victim->AddText("mut");
  }
  return copy;
}

class TreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePropertyTest, CanonicalEqualIffValueEqual) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    xml::NodePtr a = RandomTree(rng, 4);
    xml::NodePtr b = MaybeMutate(*a, rng);
    bool value_equal = xml::ValueEqual(*a, *b);
    bool canon_equal = xml::Canonicalize(*a) == xml::Canonicalize(*b);
    EXPECT_EQ(value_equal, canon_equal);
    bool fp_equal =
        xml::Fingerprint(*a).ToHex() == xml::Fingerprint(*b).ToHex();
    if (value_equal) {
      EXPECT_TRUE(fp_equal);
    }
  }
}

TEST_P(TreePropertyTest, SerializeParseRoundTrip) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 60; ++trial) {
    xml::NodePtr tree = RandomTree(rng, 4);
    if (tree->is_text()) continue;  // documents need an element root
    // Compact mode only: pretty-printing is whitespace-lossy for mixed
    // content (text interleaved with elements), which random trees have
    // but keyed documents above the frontier never do.
    xml::SerializeOptions options;
    options.pretty = false;
    std::string text = xml::Serialize(*tree, options);
    auto parsed = xml::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    // Adjacent text children merge on the first parse; after that the
    // round trip must be exact.
    std::string again = xml::Serialize(**parsed, options);
    auto reparsed = xml::Parse(again);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(xml::ValueEqual(**parsed, **reparsed)) << text;
    EXPECT_EQ(text, again);
  }
}

TEST_P(TreePropertyTest, ValueCompareIsTotalOrder) {
  Rng rng(GetParam() + 200);
  std::vector<xml::NodePtr> trees;
  for (int i = 0; i < 12; ++i) trees.push_back(RandomTree(rng, 3));
  for (const auto& a : trees) {
    EXPECT_EQ(xml::ValueCompare(*a, *a), 0);
    for (const auto& b : trees) {
      int ab = xml::ValueCompare(*a, *b);
      int ba = xml::ValueCompare(*b, *a);
      EXPECT_EQ(ab, -ba);
      for (const auto& c : trees) {
        // Transitivity: a<=b && b<=c => a<=c.
        if (ab <= 0 && xml::ValueCompare(*b, *c) <= 0) {
          EXPECT_LE(xml::ValueCompare(*a, *c), 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------ stored-once invariant

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (val, {}))
)";

class StoredOnceTest : public ::testing::TestWithParam<int> {};

TEST_P(StoredOnceTest, EachElementStoredOnceWithExactTimestamp) {
  Rng rng(GetParam());
  auto spec = keys::ParseKeySpecSet(kKeys);
  ASSERT_TRUE(spec.ok());
  core::Archive archive(std::move(*spec));
  // Ground truth: id -> set of versions it exists in (+ value per version).
  std::map<int, VersionSet> truth;
  std::map<int, std::string> current_value;
  std::map<int, bool> alive;
  for (Version v = 1; v <= 20; ++v) {
    // Mutate the world.
    for (int id = 0; id < 8; ++id) {
      double r = rng.NextDouble();
      if (r < 0.15) {
        alive[id] = !alive[id];
        if (alive[id]) current_value[id] = rng.Word(2, 5);
      } else if (r < 0.3 && alive[id]) {
        current_value[id] = rng.Word(2, 5);
      } else if (!alive.count(id)) {
        alive[id] = rng.Chance(0.7);
        current_value[id] = rng.Word(2, 5);
      }
    }
    xml::NodePtr doc = xml::Node::Element("db");
    for (int id = 0; id < 8; ++id) {
      if (!alive[id]) continue;
      truth[id].Add(v);
      xml::Node* rec = doc->AddElement("rec");
      rec->AddElementWithText("id", std::to_string(id));
      rec->AddElementWithText("val", current_value[id]);
    }
    Status st = archive.AddVersion(*doc);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(archive.Check().ok());
  }
  // Each rec appears exactly once in the archive with exactly its truth
  // timestamp.
  const core::ArchiveNode* db = archive.root().children.empty()
                                    ? nullptr
                                    : archive.root().children[0].get();
  ASSERT_NE(db, nullptr);
  std::map<int, int> seen;
  for (const auto& child : db->children) {
    if (child->label.tag != "rec") continue;
    int id = std::stoi(child->label.ToString().substr(
        child->label.ToString().find('=') + 1));
    ++seen[id];
    VersionSet effective = child->EffectiveStamp(*archive.root().stamp);
    EXPECT_EQ(effective.ToString(), truth[id].ToString()) << "rec " << id;
  }
  for (const auto& [id, stamp] : truth) {
    if (!stamp.empty()) {
      EXPECT_EQ(seen[id], 1) << "rec " << id << " stored " << seen[id]
                             << " times";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoredOnceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace xarch
