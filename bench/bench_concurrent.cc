// E16 — concurrency: read-query throughput scaling and mixed ingest+query
// behaviour of the thread-safe Store.
//
// Readers share one Store instance. For each backend and workload the
// bench measures queries/second at 1/2/4/8 client threads (a shared atomic
// work queue, so threads load-balance) and reports the speedup over the
// 1-thread baseline: near-linear scaling for the shared-lock backends
// (archive, incr-diff), flat for exclusive-read extmem — the cost of a
// read path that mutates I/O counters. A mixed section runs one ingest
// writer against query readers to show writers still make progress.
//
// A sharded section sweeps the "sharded" backend over K=1/2/4/8 key-range
// shards (docs/SHARDING.md) × the same thread counts: bulk-ingest wall
// time (the per-shard merge passes fan out on a thread pool) and read
// throughput (scatter/gather point+range, routed point). On a 1-CPU
// machine both are expected flat — the JSON records
// hardware_concurrency with every row so readers can tell flat-by-design
// from flat-by-hardware.
//
// `--smoke` shrinks the workload for CI; `--json out.json` records rows;
// `--shards K` restricts the sharded sweep to a single shard count (the
// TSan smoke uses `--smoke --shards 4`). Thread counts beyond
// std::thread::hardware_concurrency() cannot speed anything up (the
// scaling targets assume >= 4 cores, as on CI runners); the hardware
// figure is printed and recorded with every row.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_report.h"
#include "synth/xmark.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/serializer.h"

namespace {

using namespace xarch;

struct Config {
  bool smoke = false;
  int versions = 24;
  int ops_per_thread = 64;  // at 1 thread; total ops scale with threads
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<int> shard_counts = {1, 2, 4, 8};
};

/// `shards` > 0 opens the "sharded" backend over K key-range shards of
/// `backend`; 0 opens `backend` directly. `ingest_seconds`, when given,
/// receives the bulk-load wall time (one merge pass per shard, fanned
/// out on the shared thread pool).
std::unique_ptr<Store> MakeStore(const std::string& backend,
                                 const std::vector<std::string>& versions,
                                 bool use_index, size_t shards = 0,
                                 double* ingest_seconds = nullptr) {
  StoreOptions options;
  auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  options.spec = std::move(*spec);
  options.use_index = use_index;
  std::string name = backend;
  if (shards > 0) {
    name = "sharded";
    options.inner = backend;
    options.shards = shards;
  }
  auto store = StoreRegistry::Create(name, std::move(options));
  if (!store.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 store.status().ToString().c_str());
    std::exit(1);
  }
  // Batched bulk load: one merge pass and one index publish for the
  // whole corpus (per-version Append would rebuild the index each time).
  std::vector<std::string_view> views(versions.begin(), versions.end());
  const auto t0 = std::chrono::steady_clock::now();
  if (Status st = (*store)->AppendBatch(views); !st.ok()) {
    std::fprintf(stderr, "%s ingest: %s\n", name.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  if (ingest_seconds != nullptr) {
    *ingest_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return std::move(store).value();
}

/// One query against the shared store; exits on error (a bench, not a
/// recovery path).
void RunQuery(Store& store, const std::string& q) {
  CountingSink sink;
  if (Status st = store.Query(q, sink); !st.ok()) {
    std::fprintf(stderr, "query \"%s\": %s\n", q.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
}

struct Throughput {
  double seconds = 0;
  size_t ops = 0;
  double qps() const { return seconds > 0 ? ops / seconds : 0; }
};

/// `threads` client threads drain a shared queue of `total_ops` queries
/// (round-robin over `queries`) against one store.
Throughput MeasureReads(Store& store, const std::vector<std::string>& queries,
                        int threads, size_t total_ops) {
  std::atomic<size_t> next{0};
  std::atomic<bool> go{false};
  auto worker = [&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_ops) return;
      RunQuery(store, queries[i % queries.size()]);
    }
  };
  // Spawn first, time from the release barrier: thread startup cost must
  // not be billed to the measured queries (it dwarfs µs-scale lookups).
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  worker();
  for (auto& thread : pool) thread.join();
  const auto t1 = std::chrono::steady_clock::now();
  Throughput out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.ops = total_ops;
  return out;
}

struct MixedResult {
  Throughput reads;
  size_t appended = 0;
  double append_seconds = 0;
};

/// One writer appends `extra` fresh versions (yielding between appends)
/// while `threads` readers drain their query quota; both sides are timed.
MixedResult MeasureMixed(Store& store, const std::vector<std::string>& extra,
                         const std::vector<std::string>& queries, int threads,
                         size_t total_ops) {
  MixedResult result;
  std::thread writer([&] {
    const auto w0 = std::chrono::steady_clock::now();
    for (const std::string& text : extra) {
      if (store.Append(text).ok()) ++result.appended;
      std::this_thread::yield();
    }
    result.append_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
            .count();
  });
  result.reads = MeasureReads(store, queries, threads, total_ops);
  writer.join();
  return result;
}

/// Value of `--flag N`, or `fallback` when absent.
long IntFlagOr(int argc, char** argv, const char* flag, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return std::strtol(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.smoke = bench::HasFlag(argc, argv, "--smoke");
  if (config.smoke) {
    config.versions = 8;
    config.ops_per_thread = 16;
    config.thread_counts = {1, 2, 4};
    config.shard_counts = {1, 2, 4};
  }
  const long shards_flag = IntFlagOr(argc, argv, "--shards", 0);
  if (shards_flag > 0) {
    config.shard_counts = {static_cast<int>(shards_flag)};
  }
  bench::JsonReport report("bench_concurrent");
  const unsigned hardware = std::thread::hardware_concurrency();

  synth::XMarkGenerator::Options gen_options;
  gen_options.items = config.smoke ? 8 : 16;
  gen_options.people = config.smoke ? 14 : 30;
  gen_options.open_auctions = config.smoke ? 8 : 16;
  synth::XMarkGenerator gen(gen_options);
  std::vector<std::string> texts, extra;
  for (int v = 0; v < config.versions; ++v) {
    texts.push_back(xml::Serialize(*gen.Current()));
    gen.MutateRandom(config.smoke ? 8.0 : 16.0);
  }
  const int extra_count = config.smoke ? 4 : 8;
  for (int v = 0; v < extra_count; ++v) {
    extra.push_back(xml::Serialize(*gen.Current()));
    gen.MutateRandom(config.smoke ? 8.0 : 16.0);
  }

  const std::string person = "/site/people/person[@id=\"person0\"]";
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      workloads = {
          {"point", {person + " @ version 1",
                     person + " @ version " + std::to_string(config.versions)}},
          {"history", {person + " history"}},
          {"range", {person + " @ versions 1.." +
                     std::to_string(config.versions)}},
      };
  const std::vector<std::pair<std::string, bool>> backends = {
      {"archive", true},    // the paper's store, key-indexed
      {"incr-diff", false},  // delta baseline: query = replay + navigate
      {"extmem", false},     // exclusive reads: the non-scaling contrast
  };

  std::printf("# E16 — concurrent Store throughput (%d versions, "
              "hardware_concurrency=%u%s)\n",
              config.versions, hardware, config.smoke ? ", smoke" : "");
  std::printf("%-10s %-8s %8s %10s %12s %10s\n", "backend", "workload",
              "threads", "ops", "qps", "speedup");

  for (const auto& [backend, use_index] : backends) {
    auto store = MakeStore(backend, texts, use_index);
    for (const auto& [workload, queries] : workloads) {
      RunQuery(*store, queries[0]);  // warm-up (plans, page cache)
      double baseline_qps = 0;
      for (int threads : config.thread_counts) {
        const size_t total_ops =
            static_cast<size_t>(config.ops_per_thread) * threads;
        Throughput reads = MeasureReads(*store, queries, threads, total_ops);
        if (threads == 1) baseline_qps = reads.qps();
        const double speedup =
            baseline_qps > 0 ? reads.qps() / baseline_qps : 0;
        std::printf("%-10s %-8s %8d %10zu %12.1f %9.2fx\n", backend.c_str(),
                    workload.c_str(), threads, reads.ops, reads.qps(),
                    speedup);
        report.BeginRow();
        report.Add("mode", "read");
        report.Add("backend", backend);
        report.Add("workload", workload);
        report.Add("threads", threads);
        report.Add("ops", reads.ops);
        report.Add("seconds", reads.seconds);
        report.Add("qps", reads.qps());
        report.Add("speedup_vs_1", speedup);
        report.Add("hardware_concurrency", hardware);
      }
    }
  }

  std::printf("\n# sharded archive: K key-range shards, parallel ingest + "
              "scatter/gather reads\n");
  std::printf("%-10s %-8s %8s %10s %12s %10s\n", "shards", "workload",
              "threads", "ops", "qps", "speedup");
  for (int shard_count : config.shard_counts) {
    double ingest_seconds = 0;
    auto store = MakeStore("archive", texts, /*use_index=*/true,
                           static_cast<size_t>(shard_count), &ingest_seconds);
    std::printf("%-10d %-8s %8s %10d %12.3fs %10s\n", shard_count, "ingest",
                "-", config.versions, ingest_seconds, "-");
    report.BeginRow();
    report.Add("mode", "sharded_ingest");
    report.Add("shards", shard_count);
    report.Add("versions", config.versions);
    report.Add("seconds", ingest_seconds);
    report.Add("hardware_concurrency", hardware);
    for (const auto& [workload, queries] : workloads) {
      RunQuery(*store, queries[0]);  // warm-up
      double baseline_qps = 0;
      for (int threads : config.thread_counts) {
        const size_t total_ops =
            static_cast<size_t>(config.ops_per_thread) * threads;
        Throughput reads = MeasureReads(*store, queries, threads, total_ops);
        if (threads == 1) baseline_qps = reads.qps();
        const double speedup =
            baseline_qps > 0 ? reads.qps() / baseline_qps : 0;
        std::printf("%-10d %-8s %8d %10zu %12.1f %9.2fx\n", shard_count,
                    workload.c_str(), threads, reads.ops, reads.qps(),
                    speedup);
        report.BeginRow();
        report.Add("mode", "sharded_read");
        report.Add("shards", shard_count);
        report.Add("workload", workload);
        report.Add("threads", threads);
        report.Add("ops", reads.ops);
        report.Add("seconds", reads.seconds);
        report.Add("qps", reads.qps());
        report.Add("speedup_vs_1", speedup);
        report.Add("hardware_concurrency", hardware);
      }
    }
  }

  std::printf("\n# mixed ingest+query (1 writer, %d extra versions)\n",
              extra_count);
  std::printf("%-10s %8s %10s %12s %14s\n", "backend", "threads", "ops",
              "read qps", "appends/sec");
  for (const auto& [backend, use_index] : backends) {
    for (int threads : config.thread_counts) {
      auto store = MakeStore(backend, texts, use_index);
      const size_t total_ops =
          static_cast<size_t>(config.ops_per_thread) * threads;
      // Mixed phase uses the cheap workloads so the writer finishes
      // within the read quota on any machine.
      MixedResult mixed = MeasureMixed(
          *store, extra,
          {person + " @ version 1", person + " history"}, threads, total_ops);
      const double append_rate = mixed.append_seconds > 0
                                     ? mixed.appended / mixed.append_seconds
                                     : 0;
      std::printf("%-10s %8d %10zu %12.1f %14.1f\n", backend.c_str(), threads,
                  mixed.reads.ops, mixed.reads.qps(), append_rate);
      report.BeginRow();
      report.Add("mode", "mixed");
      report.Add("backend", backend);
      report.Add("threads", threads);
      report.Add("ops", mixed.reads.ops);
      report.Add("seconds", mixed.reads.seconds);
      report.Add("qps", mixed.reads.qps());
      report.Add("appended", mixed.appended);
      report.Add("appends_per_sec", append_rate);
      report.Add("hardware_concurrency", hardware);
    }
  }

  std::printf("\nexpected shape: archive and incr-diff read throughput "
              "scales with threads up to the core count (shared-lock "
              "readers); extmem stays flat (exclusive reads); sharded "
              "ingest time drops as K grows until shards outnumber cores "
              "(flat on a 1-CPU machine); in the mixed section the writer "
              "keeps landing versions while readers run.\n");
  return report.Write(bench::JsonPathFromArgs(argc, argv)) ? 0 : 1;
}
