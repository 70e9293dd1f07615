// E15 — the XAQL query engine over an XMark archive: the paper's Sec. 7
// workloads expressed as queries, indexed vs naive evaluation.
//
//  - snapshot of an old version (`/site @ version 1`): the stamp-checking
//    scan on both stores;
//  - keyed point lookup + snapshot (`/site/people/person[id=...]`);
//  - element history (`... history`): sorted-key binary search;
//  - range scan (`@ versions a..b`) and key-based diff (`diff a b`).
//
// Probe counters come from Stats(): the indexed store's key comparisons
// and the children the unindexed store's scan inspected.
// `--smoke` shrinks the workload for CI; `--json out.json` records rows.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "json_report.h"
#include "obs/metrics.h"
#include "synth/xmark.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/serializer.h"

namespace {

using namespace xarch;

std::unique_ptr<Store> MakeStore(const std::vector<std::string>& versions,
                                 bool use_index) {
  StoreOptions options;
  auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  options.spec = std::move(*spec);
  options.use_index = use_index;
  auto store = StoreRegistry::Create("archive", std::move(options));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<std::string_view> views(versions.begin(), versions.end());
  if (Status st = (*store)->AppendBatch(views); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
  return std::move(store).value();
}

struct QueryCost {
  double micros = 0;
  uint64_t naive_probes = 0;
  uint64_t comparisons = 0;
  size_t bytes = 0;
};

QueryCost Run(Store& store, const std::string& q) {
  StoreStats before = store.Stats();
  CountingSink sink;
  auto t0 = std::chrono::steady_clock::now();
  Status st = store.Query(q, sink);
  auto t1 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "query \"%s\": %s\n", q.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  StoreStats after = store.Stats();
  QueryCost cost;
  cost.micros = std::chrono::duration<double, std::micro>(t1 - t0).count();
  cost.naive_probes = after.query_naive_probes - before.query_naive_probes;
  cost.comparisons = after.query_comparisons - before.query_comparisons;
  cost.bytes = sink.bytes();
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  bench::JsonReport report("bench_query_engine");

  synth::XMarkGenerator::Options gen_options;
  gen_options.items = smoke ? 12 : 32;
  gen_options.people = smoke ? 20 : 60;
  gen_options.open_auctions = smoke ? 12 : 32;
  synth::XMarkGenerator gen(gen_options);
  const int versions = smoke ? 8 : 40;
  std::vector<std::string> texts;
  for (int v = 0; v < versions; ++v) {
    texts.push_back(xml::Serialize(*gen.Current()));
    gen.MutateRandom(smoke ? 10.0 : 30.0);
  }

  auto indexed = MakeStore(texts, /*use_index=*/true);
  auto naive = MakeStore(texts, /*use_index=*/false);
  const size_t archive_nodes = indexed->Stats().node_count;
  std::printf("# E15 — XAQL over XMark: %d versions, %zu archive nodes%s\n",
              versions, archive_nodes, smoke ? " (smoke)" : "");
  // Build the index outside the measurements.
  { CountingSink warm; (void)indexed->Query("/site history", warm); }

  const std::string person_q =
      "/site/people/person[@id=\"person0\"]";
  const std::vector<std::pair<std::string, std::string>> workloads = {
      {"snapshot_v1", "/site @ version 1"},
      {"snapshot_last", "/site @ version " + std::to_string(versions)},
      {"point_lookup", person_q + " @ version 1"},
      {"history", person_q + " history"},
      {"range", person_q + " @ versions 1.." + std::to_string(versions)},
      {"diff", "/site/people diff 1 " + std::to_string(versions)},
  };

  std::printf("%-14s %12s %12s %12s %12s %10s\n", "workload", "idx cmp",
              "naive scan", "idx us", "naive us", "bytes");
  for (const auto& [name, q] : workloads) {
    QueryCost with_index = Run(*indexed, q);
    QueryCost without = Run(*naive, q);
    if (with_index.bytes != without.bytes) {
      std::fprintf(stderr, "%s: indexed and naive outputs differ!\n",
                   name.c_str());
      return 1;
    }
    std::printf("%-14s %12llu %12llu %12.1f %12.1f %10zu\n", name.c_str(),
                static_cast<unsigned long long>(with_index.comparisons),
                static_cast<unsigned long long>(without.naive_probes),
                with_index.micros, without.micros, with_index.bytes);
    report.BeginRow();
    report.Add("workload", name);
    report.Add("query", q);
    report.Add("indexed_comparisons", with_index.comparisons);
    report.Add("naive_scan_probes", without.naive_probes);
    report.Add("archive_nodes", archive_nodes);
    report.Add("indexed_us", with_index.micros);
    report.Add("naive_us", without.micros);
    report.Add("result_bytes", with_index.bytes);
  }

  // ---- instrumentation overhead: the same hot query timed with the
  // obs hot-path mutators live and with the kill switch thrown. The
  // acceptance budget is <= 2%; the measured number is recorded in the
  // JSON trajectory so regressions show up across commits.
  {
    const std::string q = "/site @ version 1";
    const int reps = smoke ? 200 : 400;
    auto time_reps = [&](int n) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < n; ++i) {
        CountingSink sink;
        if (Status st = indexed->Query(q, sink); !st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          std::exit(1);
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::micro>(t1 - t0).count();
    };
    time_reps(reps / 4);  // warm both paths' caches
    // Alternate on/off blocks and keep the best of each side: one long
    // on-then-off pass would fold clock drift and scheduler noise into
    // whichever side ran second, swamping a sub-1% true cost.
    const int pairs = 5;
    double on_us = 0, off_us = 0;
    for (int p = 0; p < pairs; ++p) {
      const double on = time_reps(reps);
      obs::SetMetricsEnabled(false);
      const double off = time_reps(reps);
      obs::SetMetricsEnabled(true);
      if (p == 0 || on < on_us) on_us = on;
      if (p == 0 || off < off_us) off_us = off;
    }
    const double overhead_pct =
        off_us > 0 ? (on_us - off_us) / off_us * 100.0 : 0.0;
    std::printf("\nmetrics overhead: %.1f us on, %.1f us off over %d reps "
                "(%+.2f%%)\n",
                on_us, off_us, reps, overhead_pct);
    report.BeginRow();
    report.Add("workload", "metrics_overhead");
    report.Add("reps", reps);
    report.Add("metrics_on_us", on_us);
    report.Add("metrics_off_us", off_us);
    report.Add("metrics_overhead_pct", overhead_pct);
  }

  // ---- registry snapshot: every counter/gauge/histogram the run bumped,
  // flattened into rows so the JSON carries the telemetry the daemon
  // would expose via METRICS.
  for (const obs::Registry::Sample& s : obs::Registry::Default().Samples()) {
    if (s.value == 0) continue;
    report.BeginRow();
    report.Add("metric", s.name);
    report.Add("labels", s.labels);
    report.Add("value", s.value);
  }

  std::printf("\nexpected shape: old-version snapshots and point lookups "
              "probe far fewer nodes than the %zu-node full scan; the "
              "advantage shrinks for recent versions (α approaches k, "
              "Sec. 7.1).\n",
              archive_nodes);
  return report.Write(bench::JsonPathFromArgs(argc, argv)) ? 0 : 1;
}
