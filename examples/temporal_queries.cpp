// Temporal queries at scale: the XAQL query engine over the archive's
// timestamps and the key index (Sec. 7), plus the external-memory
// archiver (Sec. 6).
//
// Builds a Swiss-Prot-like archive over several releases behind the Store
// API, then issues the paper's workloads as XAQL queries:
//  - retrieves an early release, with EXPLAIN reporting the children the
//    stamp-checking scan inspected;
//  - looks up a record's history;
//  - diffs two releases under a key path.
// Finally repeats the archiving with the external-memory archiver under a
// tiny memory budget and reports its I/O.

#include <cstdio>

#include "synth/swissprot.h"
#include "xarch/xarch.h"

namespace {

void Fail(const xarch::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

xarch::keys::KeySpecSet Spec() {
  auto spec = xarch::keys::ParseKeySpecSet(
      xarch::synth::SwissProtGenerator::KeySpecText());
  if (!spec.ok()) Fail(spec.status());
  return std::move(*spec);
}

void RunQuery(xarch::Store& store, const std::string& q) {
  std::printf("xaql> %s\n", q.c_str());
  xarch::StringSink sink;
  if (xarch::Status st = store.Query(q, sink); !st.ok()) Fail(st);
  // Show at most a screenful.
  const std::string& out = sink.data();
  if (out.size() > 600) {
    std::printf("%.*s... (%zu bytes)\n\n", 600, out.c_str(), out.size());
  } else {
    std::printf("%s\n", out.c_str());
  }
}

}  // namespace

int main() {
  constexpr int kReleases = 8;
  xarch::synth::SwissProtGenerator::Options gen_options;
  gen_options.initial_records = 60;
  xarch::synth::SwissProtGenerator gen(gen_options);

  // An indexed archive store: History() and Query() run over the Sec. 7
  // index structures, rebuilt lazily after ingest.
  xarch::StoreOptions options;
  options.spec = Spec();
  options.use_index = true;
  auto store_or = xarch::StoreRegistry::Create("archive", std::move(options));
  if (!store_or.ok()) Fail(store_or.status());
  xarch::Store& store = **store_or;

  std::vector<std::string> version_texts;
  std::string probe_pac;
  for (int r = 0; r < kReleases; ++r) {
    auto doc = gen.NextVersion();
    if (r == 0) {
      probe_pac = doc->FindChild("Record")->FindChild("pac")->TextContent();
    }
    version_texts.push_back(xarch::xml::Serialize(*doc));
  }
  std::vector<std::string_view> views(version_texts.begin(),
                                      version_texts.end());
  if (xarch::Status st = store.AppendBatch(views); !st.ok()) Fail(st);
  std::printf("archive store: %u releases, %zu archive nodes\n\n",
              store.version_count(), store.Stats().node_count);

  // --- Sec. 7.1: version retrieval by one stamp-checking scan. EXPLAIN
  // runs the query (results counted, not streamed) and reports the plan
  // plus the children the scan inspected.
  RunQuery(store, "explain /ROOT @ version 1");

  // --- Sec. 7.2: history of a record via the key index.
  RunQuery(store, "/ROOT/Record[pac=\"" + probe_pac + "\"] history");

  // --- Sec. 1: key-based changes between two releases, scoped to a path.
  RunQuery(store, "/ROOT diff 1 " + std::to_string(kReleases));

  // --- Sec. 6: the same archive built with the external-memory archiver,
  // through the Store v2 "extmem" backend. The store gets a private work
  // directory and removes it on destruction; Stats() folds in the I/O
  // counters.
  xarch::StoreOptions store_options;
  store_options.spec = Spec();
  store_options.extmem.memory_budget_rows = 256;  // deliberately tiny
  store_options.extmem.fan_in = 4;
  const size_t page_bytes = store_options.extmem.page_bytes;
  auto ext = xarch::StoreRegistry::Create("extmem", std::move(store_options));
  if (!ext.ok()) Fail(ext.status());
  for (const std::string& text : version_texts) {
    if (xarch::Status st = (*ext)->Append(text); !st.ok()) Fail(st);
  }
  const xarch::extmem::IoStats io = (*ext)->Stats().io;
  std::printf("external-memory archiver (M=256 rows, fan-in 4):\n");
  std::printf("  sorted runs: %llu, merge passes: %llu\n",
              static_cast<unsigned long long>(io.run_count),
              static_cast<unsigned long long>(io.merge_passes));
  std::printf("  pages read: %llu, pages written: %llu (B=%zu)\n",
              static_cast<unsigned long long>(io.PagesRead(page_bytes)),
              static_cast<unsigned long long>(io.PagesWritten(page_bytes)),
              page_bytes);
  // Even the on-disk backend answers XAQL queries — through the generic
  // interface-level plan (Retrieve + navigate).
  xarch::StringSink first;
  if (xarch::Status st =
          (*ext)->Query("/ROOT/Record[pac=\"" + probe_pac +
                            "\"] @ version 1",
                        first);
      !st.ok()) {
    Fail(st);
  }
  std::printf("  record pac=%s at release 1, straight off the on-disk "
              "archive: %zu bytes\n",
              probe_pac.c_str(), first.data().size());
  return 0;
}
