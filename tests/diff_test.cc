#include <gtest/gtest.h>

#include "diff/edit_script.h"
#include "diff/myers.h"
#include "diff/repository.h"
#include "util/random.h"
#include "util/strings.h"

namespace xarch::diff {
namespace {

using Lines = std::vector<std::string>;

size_t EditDistance(const Lines& a, const Lines& b) {
  size_t d = 0;
  for (const auto& h : MyersDiff(a, b)) {
    if (!h.equal) d += h.a_len + h.b_len;
  }
  return d;
}

// ----------------------------------------------------------------- Myers

TEST(MyersTest, IdenticalSequences) {
  Lines a = {"x", "y", "z"};
  auto hunks = MyersDiff(a, a);
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_TRUE(hunks[0].equal);
  EXPECT_EQ(hunks[0].a_len, 3u);
}

TEST(MyersTest, EmptySequences) {
  Lines empty, a = {"x"};
  EXPECT_TRUE(MyersDiff(empty, empty).empty());
  auto hunks = MyersDiff(empty, a);
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_FALSE(hunks[0].equal);
  EXPECT_EQ(hunks[0].b_len, 1u);
}

TEST(MyersTest, ClassicExample) {
  // ABCABBA -> CBABAC, minimal distance 5 (Myers' paper example).
  Lines a = {"A", "B", "C", "A", "B", "B", "A"};
  Lines b = {"C", "B", "A", "B", "A", "C"};
  EXPECT_EQ(EditDistance(a, b), 5u);
}

TEST(MyersTest, HunksCoverBothSequencesInOrder) {
  Lines a = {"1", "2", "3", "4", "5"};
  Lines b = {"1", "x", "3", "5", "6"};
  size_t ai = 0, bi = 0;
  for (const auto& h : MyersDiff(a, b)) {
    EXPECT_EQ(h.a_pos, ai);
    EXPECT_EQ(h.b_pos, bi);
    if (h.equal) {
      EXPECT_EQ(h.a_len, h.b_len);
      for (size_t i = 0; i < h.a_len; ++i) {
        EXPECT_EQ(a[h.a_pos + i], b[h.b_pos + i]);
      }
    }
    ai += h.a_len;
    bi += h.b_len;
  }
  EXPECT_EQ(ai, a.size());
  EXPECT_EQ(bi, b.size());
}

TEST(MyersTest, MinimalityOnSmallCases) {
  // Exhaustive check against a DP edit distance on small alphabets.
  auto dp_distance = [](const Lines& a, const Lines& b) {
    std::vector<std::vector<size_t>> d(a.size() + 1,
                                       std::vector<size_t>(b.size() + 1));
    for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
    for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        d[i][j] = std::min(d[i - 1][j] + 1, d[i][j - 1] + 1);
        if (a[i - 1] == b[j - 1]) d[i][j] = std::min(d[i][j], d[i - 1][j - 1]);
      }
    }
    return d[a.size()][b.size()];
  };
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    Lines a, b;
    size_t an = rng.Uniform(0, 8), bn = rng.Uniform(0, 8);
    for (size_t i = 0; i < an; ++i)
      a.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(0, 2))));
    for (size_t i = 0; i < bn; ++i)
      b.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(0, 2))));
    EXPECT_EQ(EditDistance(a, b), dp_distance(a, b))
        << "a=" << Join(a, "") << " b=" << Join(b, "");
  }
}

TEST(MyersTest, LargeRandomSequences) {
  Rng rng(7);
  Lines a, b;
  for (int i = 0; i < 5000; ++i) a.push_back(std::to_string(rng.Uniform(0, 50)));
  b = a;
  // Mutate 5%.
  for (int i = 0; i < 250; ++i) {
    size_t pos = rng.Uniform(0, b.size() - 1);
    b[pos] = "mut" + std::to_string(i);
  }
  auto hunks = MyersDiff(a, b);
  size_t ai = 0, bi = 0;
  for (const auto& h : hunks) {
    if (h.equal) {
      for (size_t i = 0; i < h.a_len; ++i)
        ASSERT_EQ(a[h.a_pos + i], b[h.b_pos + i]);
    }
    ai += h.a_len;
    bi += h.b_len;
  }
  EXPECT_EQ(ai, a.size());
  EXPECT_EQ(bi, b.size());
}

// ----------------------------------------------------------- EditScript

TEST(EditScriptTest, FormatMatchesUnixDiffShape) {
  Lines a = {"<gene>", "<id>6230</id>", "<name>GRTM</name>", "</gene>"};
  Lines b = {"<gene>", "<id>2953</id>", "<name>ACV2</name>", "</gene>"};
  EditScript script = LineDiff(a, b);
  std::string text = script.Format();
  EXPECT_NE(text.find("2,3c2,3"), std::string::npos);
  EXPECT_NE(text.find("< <id>6230</id>"), std::string::npos);
  EXPECT_NE(text.find("> <id>2953</id>"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(EditScriptTest, ApplyRoundTrip) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Lines a, b;
    size_t n = rng.Uniform(0, 40);
    for (size_t i = 0; i < n; ++i) a.push_back(rng.Word(1, 6));
    b = a;
    size_t edits = rng.Uniform(0, 10);
    for (size_t e = 0; e < edits; ++e) {
      double r = rng.NextDouble();
      if (b.empty() || r < 0.34) {
        b.insert(b.begin() + rng.Uniform(0, b.size()), rng.Word(1, 6));
      } else if (r < 0.67) {
        b.erase(b.begin() + rng.Uniform(0, b.size() - 1));
      } else {
        b[rng.Uniform(0, b.size() - 1)] = rng.Word(1, 6);
      }
    }
    EditScript script = LineDiff(a, b);
    auto applied = script.Apply(a);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, b);
    // Inverse direction too.
    auto inverted = script.ApplyInverse(b);
    ASSERT_TRUE(inverted.ok()) << inverted.status().ToString();
    EXPECT_EQ(*inverted, a);
  }
}

TEST(EditScriptTest, ParseFormatRoundTrip) {
  Lines a = {"a", "b", "c", "d", "e"};
  Lines b = {"a", "x", "c", "e", "f", "g"};
  EditScript script = LineDiff(a, b);
  auto parsed = EditScript::Parse(script.Format());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Format(), script.Format());
  auto applied = parsed->Apply(a);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, b);
}

TEST(EditScriptTest, EdFormIsTheFig1Shape) {
  // Fig. 1 of the paper: only the command and the *new* lines are stored.
  Lines a = {"<gene>", "<id>6230</id>", "<name>GRTM</name>", "</gene>"};
  Lines b = {"<gene>", "<id>2953</id>", "<name>ACV2</name>", "</gene>"};
  std::string ed = LineDiff(a, b).FormatEd();
  EXPECT_NE(ed.find("2,3c"), std::string::npos);
  EXPECT_NE(ed.find("<id>2953</id>"), std::string::npos);
  EXPECT_EQ(ed.find("6230"), std::string::npos);  // old lines not stored
}

TEST(EditScriptTest, EdDeletionsCostOnlyLineNumbers) {
  Lines a = {"k1", "big payload line one", "big payload line two", "k2"};
  Lines b = {"k1", "k2"};
  std::string ed = LineDiff(a, b).FormatEd();
  EXPECT_EQ(ed, "2,3d\n");
}

TEST(EditScriptTest, EdRoundTripAndApply) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    Lines a, b;
    size_t n = rng.Uniform(0, 30);
    for (size_t i = 0; i < n; ++i) a.push_back(rng.Word(1, 6));
    b = a;
    size_t edits = rng.Uniform(0, 8);
    for (size_t e = 0; e < edits; ++e) {
      double r = rng.NextDouble();
      if (b.empty() || r < 0.34) {
        b.insert(b.begin() + rng.Uniform(0, b.size()), rng.Word(1, 6));
      } else if (r < 0.67) {
        b.erase(b.begin() + rng.Uniform(0, b.size() - 1));
      } else {
        b[rng.Uniform(0, b.size() - 1)] = rng.Word(1, 6);
      }
    }
    std::string ed = LineDiff(a, b).FormatEd();
    auto parsed = EditScript::ParseEd(ed);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto applied = parsed->Apply(a);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, b);
    // Ed form is never larger than the classic two-sided form.
    EXPECT_LE(ed.size(), LineDiff(a, b).Format().size());
  }
}

TEST(EditScriptTest, ParseEdRejectsGarbage) {
  EXPECT_FALSE(EditScript::ParseEd("zap\n").ok());
  EXPECT_FALSE(EditScript::ParseEd("2a\nunterminated").ok());
  EXPECT_FALSE(EditScript::ParseEd("2x\n").ok());
}

TEST(EditScriptTest, ApplyDetectsContextMismatch) {
  Lines a = {"a", "b"}, b = {"a", "c"};
  EditScript script = LineDiff(a, b);
  Lines wrong = {"a", "z"};
  EXPECT_FALSE(script.Apply(wrong).ok());
}

TEST(EditScriptTest, EmptyDiffIsEmpty) {
  Lines a = {"same"};
  EditScript script = LineDiff(a, a);
  EXPECT_TRUE(script.empty());
  EXPECT_EQ(script.ByteSize(), 0u);
}

TEST(EditScriptTest, ParseRejectsGarbage) {
  EXPECT_FALSE(EditScript::Parse("not a script").ok());
  EXPECT_FALSE(EditScript::Parse("1x2\n").ok());
}

TEST(EditScriptTest, AppendAndDeleteForms) {
  Lines a = {"1", "2"};
  Lines b = {"1", "2", "3"};
  EXPECT_NE(LineDiff(a, b).Format().find("2a3"), std::string::npos);
  EXPECT_NE(LineDiff(b, a).Format().find("3d2"), std::string::npos);
}

// ----------------------------------------------------------- Repositories

TEST(IncrementalDiffRepoTest, RetrievesAllVersions) {
  IncrementalDiffRepo repo;
  std::vector<std::string> versions = {"a\nb\nc\n", "a\nx\nc\n", "a\nx\nc\nd\n",
                                       "x\nc\nd\n"};
  for (const auto& v : versions) repo.AddVersion(v);
  EXPECT_EQ(repo.version_count(), 4u);
  for (size_t i = 0; i < versions.size(); ++i) {
    auto got = repo.Retrieve(i + 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, versions[i]) << "version " << i + 1;
  }
  EXPECT_FALSE(repo.Retrieve(0).ok());
  EXPECT_FALSE(repo.Retrieve(5).ok());
  EXPECT_EQ(repo.ApplicationsFor(4), 3u);
}

TEST(IncrementalDiffRepoTest, ByteSizeIsFirstPlusDeltas) {
  IncrementalDiffRepo repo;
  repo.AddVersion("a\nb\n");
  size_t first = repo.ByteSize();
  EXPECT_EQ(first, 4u);
  repo.AddVersion("a\nb\n");  // no change: empty delta
  EXPECT_EQ(repo.ByteSize(), first);
}

TEST(CumulativeDiffRepoTest, RetrievesWithOneApplication) {
  CumulativeDiffRepo repo;
  std::vector<std::string> versions = {"a\nb\nc\n", "a\nx\nc\n",
                                       "q\nx\nc\nd\n"};
  for (const auto& v : versions) repo.AddVersion(v);
  for (size_t i = 0; i < versions.size(); ++i) {
    auto got = repo.Retrieve(i + 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, versions[i]);
  }
}

TEST(CumulativeDiffRepoTest, GrowsFasterThanIncremental) {
  // Accretive workload: cumulative deltas repeat all additions since V1.
  IncrementalDiffRepo inc;
  CumulativeDiffRepo cumu;
  std::string text;
  for (int v = 0; v < 20; ++v) {
    for (int l = 0; l < 10; ++l) {
      text += "line-" + std::to_string(v) + "-" + std::to_string(l) + "\n";
    }
    inc.AddVersion(text);
    cumu.AddVersion(text);
  }
  EXPECT_GT(cumu.ByteSize(), 2 * inc.ByteSize());
}

TEST(FullCopyRepoTest, Basics) {
  FullCopyRepo repo;
  repo.AddVersion("v1");
  repo.AddVersion("v2!");
  EXPECT_EQ(repo.ByteSize(), 5u);
  EXPECT_EQ(*repo.Retrieve(2), "v2!");
  EXPECT_EQ(repo.ConcatenatedBytes(), "v1v2!");
  EXPECT_FALSE(repo.Retrieve(3).ok());
}

}  // namespace
}  // namespace xarch::diff
