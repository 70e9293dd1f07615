#ifndef XARCH_BENCH_STORAGE_SWEEP_H_
#define XARCH_BENCH_STORAGE_SWEEP_H_

// Shared driver for the storage experiments (Fig. 11-14, Appendix C):
// feeds a sequence of versions to every storage strategy of Sec. 5 —
// resolved through the Store v2 registry — and prints one row per version
// with all the byte counts the paper plots, plus the size of the XAR2
// snapshot the archive store actually serves ("xar2").

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "json_report.h"
#include "compress/container.h"
#include "compress/lzss.h"
#include "keys/key_spec.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch::bench {

struct SweepOptions {
  bool with_cumulative = true;   ///< include the V1+cumu-diffs line (Fig. 11)
  bool with_compression = true;  ///< include the compressed lines (Fig. 12+)
  /// Registry name of the archive line ("archive" or "archive-weave").
  std::string archive_backend = "archive";
  /// When set, every printed row is mirrored into the report (--json).
  JsonReport* json = nullptr;
};

/// Serialization used for all byte counts: line-structured (so line diffs
/// are element-aligned, as the paper's data was formatted) but without
/// indentation, which would bias against the deeper-nested archive.
inline std::string SerializeForBench(const xml::Node& node) {
  xml::SerializeOptions options;
  options.pretty = true;
  options.indent_width = 0;
  return xml::Serialize(node, options);
}

/// Runs the sweep: `next_version()` must return the next document per call.
inline void RunStorageSweep(const std::string& title,
                            const char* key_spec_text, int versions,
                            const std::function<xml::NodePtr()>& next_version,
                            const SweepOptions& options) {
  auto make_store = [&](const char* name,
                        bool with_spec) -> std::unique_ptr<Store> {
    StoreOptions store_options;
    if (with_spec) {
      auto spec = keys::ParseKeySpecSet(key_spec_text);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad key spec: %s\n",
                     spec.status().ToString().c_str());
        std::exit(1);
      }
      store_options.spec = std::move(*spec);
    }
    auto store = StoreRegistry::Create(name, std::move(store_options));
    if (!store.ok()) {
      std::fprintf(stderr, "store \"%s\": %s\n", name,
                   store.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(store).value();
  };
  std::unique_ptr<Store> archive =
      make_store(options.archive_backend.c_str(), /*with_spec=*/true);
  std::unique_ptr<Store> inc = make_store("incr-diff", /*with_spec=*/false);
  std::unique_ptr<Store> cumu = make_store("cum-diff", /*with_spec=*/false);
  std::unique_ptr<Store> all = make_store("full-copy", /*with_spec=*/false);

  std::printf("# %s\n", title.c_str());
  std::printf("%-3s %10s %10s %10s %10s", "v", "version", "archive", "xar2",
              "V1+inc");
  if (options.with_cumulative) std::printf(" %10s", "V1+cumu");
  if (options.with_compression) {
    std::printf(" %12s %12s %12s %12s", "gzip(inc)", "gzip(cumu)",
                "xmill(arch)", "xmill(V1..Vi)");
  }
  std::printf("\n");

  for (int v = 1; v <= versions; ++v) {
    xml::NodePtr doc = next_version();
    std::string text = SerializeForBench(*doc);
    for (Store* store : {archive.get(), inc.get(), cumu.get(), all.get()}) {
      if (Status st = store->Append(text); !st.ok()) {
        std::fprintf(stderr, "v%d %s: %s\n", v, store->name().c_str(),
                     st.ToString().c_str());
        std::exit(1);
      }
    }

    std::string archive_xml = archive->StoredBytes();
    auto xar2 = archive->SaveToBytes();
    const size_t xar2_bytes = xar2.ok() ? xar2->size() : 0;
    std::printf("%-3d %10zu %10zu %10zu %10zu", v, text.size(),
                archive_xml.size(), xar2_bytes, inc->ByteSize());
    if (options.json != nullptr) {
      options.json->BeginRow();
      options.json->Add("sweep", title);
      options.json->Add("v", v);
      options.json->Add("version_bytes", text.size());
      options.json->Add("archive_bytes", archive_xml.size());
      options.json->Add("xar2_bytes", xar2_bytes);
      options.json->Add("incr_diff_bytes", inc->ByteSize());
    }
    if (options.with_cumulative) {
      std::printf(" %10zu", cumu->ByteSize());
      if (options.json != nullptr) {
        options.json->Add("cum_diff_bytes", cumu->ByteSize());
      }
    }
    if (options.with_compression) {
      size_t gzip_inc = compress::LzssCompress(inc->StoredBytes()).size();
      size_t gzip_cumu =
          compress::LzssCompress(cumu->StoredBytes()).size();
      auto xmill_arch =
          compress::XmlContainerCompressor::CompressText(archive_xml);
      // "xmill(V1+...+Vi)": all versions side by side in one XML tree
      // (Sec. 5), made well-formed with a wrapper element.
      auto xmill_all_or =
          compress::XmlContainerCompressor::CompressText(
              "<all>" + all->StoredBytes() + "</all>");
      size_t xmill_all = xmill_all_or.ok() ? xmill_all_or->size() : 0;
      size_t xmill_arch_bytes = xmill_arch.ok() ? xmill_arch->size() : 0;
      std::printf(" %12zu %12zu %12zu %12zu", gzip_inc, gzip_cumu,
                  xmill_arch_bytes, xmill_all);
      if (options.json != nullptr) {
        options.json->Add("gzip_incr_bytes", gzip_inc);
        options.json->Add("gzip_cum_bytes", gzip_cumu);
        options.json->Add("xmill_archive_bytes", xmill_arch_bytes);
        options.json->Add("xmill_all_versions_bytes", xmill_all);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace xarch::bench

#endif  // XARCH_BENCH_STORAGE_SWEEP_H_
