#include <gtest/gtest.h>

#include <filesystem>

#include "core/archive.h"
#include "extmem/external_archiver.h"
#include "synth/omim.h"
#include "synth/xmark.h"
#include "xml/parser.h"

namespace xarch::extmem {
namespace {

constexpr const char* kCompanyKeys = R"(
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
)";

keys::KeySpecSet MustSpec(const char* text) {
  auto spec = keys::ParseKeySpecSet(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

xml::NodePtr MustParseXml(std::string_view text) {
  auto result = xml::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::string FreshWorkDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("xarch_test_" + name + "_" +
                     std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// ----------------------------------------------- external archiver (6.2/3)

constexpr const char* kV1 = R"(
<db><dept><name>finance</name>
  <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>
</dept></db>)";
constexpr const char* kV2 = R"(
<db><dept><name>finance</name>
  <emp><fn>Jane</fn><ln>Smith</ln></emp>
</dept></db>)";
constexpr const char* kV3 = R"(
<db>
 <dept><name>finance</name>
  <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal><tel>123-4567</tel></emp>
 </dept>
 <dept><name>marketing</name>
  <emp><fn>John</fn><ln>Doe</ln></emp>
 </dept>
</db>)";
constexpr const char* kV4 = R"(
<db><dept><name>finance</name>
  <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>
  <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal><tel>123-6789</tel>
       <tel>112-3456</tel></emp>
</dept></db>)";

TEST(ExternalArchiverTest, PaperExampleMatchesInMemory) {
  ExternalArchiver::Options options;
  options.work_dir = FreshWorkDir("paper");
  options.memory_budget_rows = 4;  // force many runs
  options.fan_in = 2;
  ExternalArchiver ext(MustSpec(kCompanyKeys), options);
  core::Archive mem(MustSpec(kCompanyKeys));
  for (const char* v : {kV1, kV2, kV3, kV4}) {
    xml::NodePtr doc = MustParseXml(v);
    ASSERT_TRUE(ext.AddVersion(*doc).ok());
    ASSERT_TRUE(mem.AddVersion(*doc).ok());
  }
  EXPECT_GT(ext.stats().run_count, 4u);
  // Every version retrieved from the external archive equals the in-memory
  // archiver's reconstruction (modulo keyed-sibling order: compare via
  // single-version archives).
  for (Version v = 1; v <= 4; ++v) {
    auto ge = ext.RetrieveVersion(v);
    auto gm = mem.RetrieveVersion(v);
    ASSERT_TRUE(ge.ok()) << ge.status().ToString();
    ASSERT_TRUE(gm.ok());
    core::Archive a(MustSpec(kCompanyKeys)), b(MustSpec(kCompanyKeys));
    ASSERT_TRUE(a.AddVersion(**ge).ok());
    ASSERT_TRUE(b.AddVersion(**gm).ok());
    EXPECT_EQ(a.ToXml(), b.ToXml()) << "version " << v;
  }
  std::filesystem::remove_all(options.work_dir);
}

TEST(ExternalArchiverTest, XmlLoadableAndCheckable) {
  ExternalArchiver::Options options;
  options.work_dir = FreshWorkDir("loadable");
  ExternalArchiver ext(MustSpec(kCompanyKeys), options);
  for (const char* v : {kV1, kV2, kV3, kV4}) {
    ASSERT_TRUE(ext.AddVersion(*MustParseXml(v)).ok());
  }
  auto xml = ext.ToXml();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  auto loaded = core::Archive::FromXml(*xml, MustSpec(kCompanyKeys));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version_count(), 4u);
  EXPECT_TRUE(loaded->Check().ok()) << loaded->Check().ToString();
  auto history = loaded->History({{"db", {}},
                                  {"dept", {{"name", "finance"}}},
                                  {"emp", {{"fn", "Jane"}, {"ln", "Smith"}}}});
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->ToString(), "2,4");
  std::filesystem::remove_all(options.work_dir);
}

TEST(ExternalArchiverTest, MemoryBudgetControlsRunCount) {
  synth::OmimGenerator::Options gen_options;
  gen_options.initial_records = 30;
  auto make = [&](size_t budget, uint64_t* runs, uint64_t* passes) {
    synth::OmimGenerator gen(gen_options);
    ExternalArchiver::Options options;
    options.work_dir = FreshWorkDir("budget" + std::to_string(budget));
    options.memory_budget_rows = budget;
    options.fan_in = 2;
    ExternalArchiver ext(MustSpec(synth::OmimGenerator::KeySpecText()), options);
    for (int v = 0; v < 2; ++v) {
      Status st = ext.AddVersion(*gen.NextVersion());
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    *runs = ext.stats().run_count;
    *passes = ext.stats().merge_passes;
    std::filesystem::remove_all(options.work_dir);
  };
  uint64_t small_runs = 0, small_passes = 0, big_runs = 0, big_passes = 0;
  make(16, &small_runs, &small_passes);
  make(100000, &big_runs, &big_passes);
  EXPECT_GT(small_runs, big_runs);
  EXPECT_GT(small_passes, big_passes);
}

TEST(ExternalArchiverTest, AgreesWithInMemoryOnSyntheticData) {
  synth::XMarkGenerator::Options gen_options;
  gen_options.items = 6;
  gen_options.people = 10;
  gen_options.open_auctions = 6;
  synth::XMarkGenerator gen(gen_options);
  ExternalArchiver::Options options;
  options.work_dir = FreshWorkDir("xmark");
  options.memory_budget_rows = 64;
  ExternalArchiver ext(MustSpec(synth::XMarkGenerator::KeySpecText()),
                       options);
  core::Archive mem(MustSpec(synth::XMarkGenerator::KeySpecText()));
  for (int v = 0; v < 5; ++v) {
    if (v > 0) gen.MutateRandom(8.0);
    xml::NodePtr doc = gen.Current();
    ASSERT_TRUE(ext.AddVersion(*doc).ok());
    ASSERT_TRUE(mem.AddVersion(*doc).ok());
  }
  for (Version v = 1; v <= 5; ++v) {
    auto ge = ext.RetrieveVersion(v);
    auto gm = mem.RetrieveVersion(v);
    ASSERT_TRUE(ge.ok()) << ge.status().ToString();
    ASSERT_TRUE(gm.ok());
    core::Archive a(MustSpec(synth::XMarkGenerator::KeySpecText()));
    core::Archive b(MustSpec(synth::XMarkGenerator::KeySpecText()));
    ASSERT_TRUE(a.AddVersion(**ge).ok());
    ASSERT_TRUE(b.AddVersion(**gm).ok());
    EXPECT_EQ(a.ToXml(), b.ToXml()) << "version " << v;
  }
  std::filesystem::remove_all(options.work_dir);
}

TEST(ExternalArchiverTest, IoAccountingNonZero) {
  ExternalArchiver::Options options;
  options.work_dir = FreshWorkDir("iostats");
  ExternalArchiver ext(MustSpec(kCompanyKeys), options);
  ASSERT_TRUE(ext.AddVersion(*MustParseXml(kV1)).ok());
  EXPECT_GT(ext.stats().bytes_written, 0u);
  EXPECT_GT(ext.stats().bytes_read, 0u);
  EXPECT_GT(ext.stats().PagesWritten(options.page_bytes), 0u);
  ext.ClearStats();
  EXPECT_EQ(ext.stats().bytes_read, 0u);
  std::filesystem::remove_all(options.work_dir);
}

TEST(ExternalArchiverTest, EmptyArchiveErrors) {
  ExternalArchiver::Options options;
  options.work_dir = FreshWorkDir("empty");
  ExternalArchiver ext(MustSpec(kCompanyKeys), options);
  EXPECT_FALSE(ext.ToXml().ok());
  EXPECT_FALSE(ext.RetrieveVersion(1).ok());
  std::filesystem::remove_all(options.work_dir);
}

}  // namespace
}  // namespace xarch::extmem
