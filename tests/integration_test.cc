// Cross-module integration tests: the full pipeline (generators -> keys ->
// nested merge -> serialization -> compression -> retrieval) and the
// Store v2 façade, exercised end to end.

#include <gtest/gtest.h>

#include <algorithm>

#include "compress/container.h"
#include "compress/lzss.h"
#include "synth/omim.h"
#include "synth/swissprot.h"
#include "synth/xmark.h"
#include "xarch/xarch.h"

namespace xarch {
namespace {

keys::KeySpecSet MustSpec(const char* text) {
  auto spec = keys::ParseKeySpecSet(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

std::string SerializeFlat(const xml::Node& node) {
  xml::SerializeOptions options;
  options.indent_width = 0;
  return xml::Serialize(node, options);
}

std::unique_ptr<Store> MustStore(const char* backend, const char* spec_text) {
  StoreOptions options;
  options.spec = MustSpec(spec_text);
  auto store = StoreRegistry::Create(backend, std::move(options));
  EXPECT_TRUE(store.ok()) << backend << ": " << store.status().ToString();
  return std::move(store).value();
}

// Every Store backend must reproduce every version byte-for-byte after a
// normalizing re-parse (keyed-sibling order is free for the archive).
class AllBackendsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllBackendsTest, AllStoresReproduceAllVersions) {
  synth::OmimGenerator::Options gen_options;
  gen_options.initial_records = 25;
  gen_options.insert_ratio = 0.05;
  gen_options.delete_ratio = 0.02;
  gen_options.modify_ratio = 0.04;
  synth::OmimGenerator gen(gen_options);

  std::unique_ptr<Store> store =
      MustStore(GetParam(), synth::OmimGenerator::KeySpecText());
  std::vector<std::string> texts;
  for (int v = 0; v < 8; ++v) {
    texts.push_back(SerializeFlat(*gen.NextVersion()));
    Status st = store->Append(texts.back());
    ASSERT_TRUE(st.ok()) << store->name() << ": " << st.ToString();
  }
  EXPECT_GT(store->ByteSize(), 0u);
  for (Version v = 1; v <= texts.size(); ++v) {
    auto got = store->Retrieve(v);
    ASSERT_TRUE(got.ok()) << store->name() << " v" << v << ": "
                          << got.status().ToString();
    // Normalize both sides through a single-version archive.
    core::Archive a(MustSpec(synth::OmimGenerator::KeySpecText()));
    core::Archive b(MustSpec(synth::OmimGenerator::KeySpecText()));
    auto da = xml::Parse(*got);
    auto db = xml::Parse(texts[v - 1]);
    ASSERT_TRUE(da.ok() && db.ok());
    ASSERT_TRUE(a.AddVersion(**da).ok());
    ASSERT_TRUE(b.AddVersion(**db).ok());
    EXPECT_EQ(a.ToXml(), b.ToXml()) << store->name() << " version " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, AllBackendsTest,
                         ::testing::Values("archive", "archive-weave",
                                           "incr-diff", "cum-diff",
                                           "full-copy"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(PipelineTest, ArchiveCompressRoundTrip) {
  // archive -> XML -> container-compress -> decompress -> reload -> query.
  synth::SwissProtGenerator::Options gen_options;
  gen_options.initial_records = 15;
  synth::SwissProtGenerator gen(gen_options);
  core::Archive archive(MustSpec(synth::SwissProtGenerator::KeySpecText()));
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(archive.AddVersion(*gen.NextVersion()).ok());
  }
  std::string xml = archive.ToXml();
  auto blob = compress::XmlContainerCompressor::CompressText(xml);
  ASSERT_TRUE(blob.ok());
  auto doc = compress::XmlContainerCompressor::Decompress(*blob);
  ASSERT_TRUE(doc.ok());
  std::string xml_again = xml::Serialize(**doc);
  auto loaded = core::Archive::FromXml(
      xml_again, MustSpec(synth::SwissProtGenerator::KeySpecText()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version_count(), 4u);
  EXPECT_TRUE(loaded->Check().ok());
  for (Version v = 1; v <= 4; ++v) {
    auto a = archive.RetrieveVersion(v);
    auto b = loaded->RetrieveVersion(v);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(xml::ValueEqual(**a, **b)) << "version " << v;
  }
}

TEST(PipelineTest, CompressedArchiveBeatsCompressedDiffsOnAccretiveData) {
  // The paper's central compression claim, end to end on OMIM-like data.
  synth::OmimGenerator::Options gen_options;
  gen_options.initial_records = 60;
  gen_options.insert_ratio = 0.02;
  gen_options.modify_ratio = 0.01;
  synth::OmimGenerator gen(gen_options);
  auto archive = MustStore("archive", synth::OmimGenerator::KeySpecText());
  auto inc = MustStore("incr-diff", synth::OmimGenerator::KeySpecText());
  for (int v = 0; v < 12; ++v) {
    std::string text = SerializeFlat(*gen.NextVersion());
    ASSERT_TRUE(archive->Append(text).ok());
    ASSERT_TRUE(inc->Append(text).ok());
  }
  auto xmill_archive =
      compress::XmlContainerCompressor::CompressText(archive->StoredBytes());
  ASSERT_TRUE(xmill_archive.ok());
  size_t gzip_inc = compress::LzssCompress(inc->StoredBytes()).size();
  EXPECT_LT(xmill_archive->size(), gzip_inc);
}

TEST(PipelineTest, WorstCaseArchiveLargerButRetrievable) {
  synth::XMarkGenerator::Options gen_options;
  gen_options.items = 8;
  gen_options.people = 12;
  gen_options.open_auctions = 8;
  synth::XMarkGenerator gen(gen_options);
  auto archive = MustStore("archive", synth::XMarkGenerator::KeySpecText());
  auto inc = MustStore("incr-diff", synth::XMarkGenerator::KeySpecText());
  for (int v = 0; v < 6; ++v) {
    if (v > 0) gen.MutateKeys(15.0);
    std::string text = SerializeFlat(*gen.Current());
    ASSERT_TRUE(archive->Append(text).ok());
    ASSERT_TRUE(inc->Append(text).ok());
  }
  // Key mutation is the archiver's worst case (Fig. 14).
  EXPECT_GT(archive->ByteSize(), inc->ByteSize());
  for (Version v = 1; v <= 6; ++v) {
    EXPECT_TRUE(archive->Retrieve(v).ok());
  }
}

TEST(PipelineTest, HistoryAcrossRecordLifecycles) {
  // A record deleted and re-added keeps one identity and a gap timestamp.
  auto spec_text = synth::OmimGenerator::KeySpecText();
  core::Archive archive(MustSpec(spec_text));
  auto make_doc = [](bool with_second) {
    xml::NodePtr root = xml::Node::Element("ROOT");
    auto add_record = [&](const std::string& num) {
      xml::Node* rec = root->AddElement("Record");
      rec->AddElementWithText("Num", num);
      rec->AddElementWithText("Title", "T" + num);
    };
    add_record("1000");
    if (with_second) add_record("2000");
    return root;
  };
  ASSERT_TRUE(archive.AddVersion(*make_doc(true)).ok());
  ASSERT_TRUE(archive.AddVersion(*make_doc(false)).ok());
  ASSERT_TRUE(archive.AddVersion(*make_doc(true)).ok());
  auto history =
      archive.History({{"ROOT", {}}, {"Record", {{"Num", "2000"}}}});
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->ToString(), "1,3");
  // Stored once: the archive XML mentions Num 2000 exactly once.
  std::string xml = archive.ToXml();
  size_t first = xml.find("<Num>2000</Num>");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(xml.find("<Num>2000</Num>", first + 1), std::string::npos);
}

}  // namespace
}  // namespace xarch
