// Compile-only check for the umbrella header: including just
// xarch/xarch.h must pull in every public API, in particular Store v2.

#include "xarch/xarch.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaTest, ExposesTheFullPublicApi) {
  // One symbol per include block, so a dropped include fails to compile.
  (void)sizeof(xarch::compress::XmlContainerCompressor);
  (void)sizeof(xarch::core::Archive);
  (void)sizeof(xarch::diff::IncrementalDiffRepo);
  (void)sizeof(xarch::extmem::IoStats);
  (void)sizeof(xarch::index::ProbeStats);
  (void)sizeof(xarch::keys::Key);
  (void)sizeof(xarch::VersionSet);
  (void)sizeof(xarch::CheckpointedArchive);
  (void)sizeof(xarch::StringSink);
  (void)sizeof(xarch::Store*);
  (void)sizeof(xarch::StoreRegistry);
  (void)sizeof(xarch::xml::Node);
  EXPECT_NE(xarch::CapabilitiesToString(xarch::kTemporalQueries), "");
}

}  // namespace
