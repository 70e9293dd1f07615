// E17 — durability: snapshot save/open throughput and ingest-log replay
// latency as the archive grows.
//
// For each backend and archive size the bench measures
//   save      — Store::SaveToFile wall time and the snapshot bytes/sec
//   open      — StoreRegistry::OpenFromFile wall time (includes container
//               CRC verification, LZSS decompression, archive reload and
//               index rebuild-on-open)
//   open(buf) / open(mmap)
//             — the same open against a REAL on-disk file, once through
//               buffered posix reads and once zero-copy out of an mmap
//               mapping, so the two open paths stay comparable
//   replay    — reopening a durable store whose WHOLE state lives in the
//               ingest log (worst-case recovery: no snapshot to start from)
//
// Save, the in-memory open, and the WAL replay all run on MemVfs, so the
// numbers measure the persistence stack, not the machine's disk. Only the
// buffered-vs-mmap comparison touches a real temp file (it has to).
//
// `--smoke` shrinks the workload for CI; `--json out.json` records rows,
// each with the machine's hardware_concurrency.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/lzss.h"
#include "json_report.h"
#include "synth/xmark.h"
#include "vfs/mem_vfs.h"
#include "vfs/vfs.h"
#include "xarch/durable.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/serializer.h"

namespace {

using namespace xarch;

struct Config {
  bool smoke = false;
  std::vector<int> version_counts = {8, 16, 32};
  const char* json_path = "";
};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

keys::KeySpecSet MustSpec() {
  auto spec = keys::ParseKeySpecSet(synth::XMarkGenerator::KeySpecText());
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(spec).value();
}

std::vector<std::string> MakeVersions(int n, bool smoke) {
  synth::XMarkGenerator::Options options;
  options.items = smoke ? 8 : 16;
  options.people = smoke ? 14 : 30;
  options.open_auctions = smoke ? 8 : 16;
  synth::XMarkGenerator gen(options);
  std::vector<std::string> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(xml::Serialize(*gen.Current()));
    gen.MutateRandom(smoke ? 8.0 : 16.0);
  }
  return out;
}

struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("xarch_bench_persist_" + tag + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void Die(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// Opens a snapshot file with default tuning.
StatusOr<std::unique_ptr<Store>> OpenSnapshot(const std::string& path,
                                              vfs::Vfs* vfs) {
  StoreOptions tuning;
  return StoreRegistry::Open(path, std::move(tuning), vfs);
}

void RunBackend(const std::string& backend,
                const std::vector<std::string>& all_versions,
                const Config& config, bench::JsonReport* report) {
  std::printf("%-14s %8s %12s %10s %10s %10s %10s %12s %12s\n",
              backend.c_str(), "versions", "snapshot B", "save ms", "open ms",
              "buf ms", "mmap ms", "save MB/s", "replay ms");
  for (int n : config.version_counts) {
    StoreOptions options;
    options.spec = MustSpec();
    auto store = StoreRegistry::Create(backend, std::move(options));
    Die(store.status(), "create");
    std::vector<std::string_view> views(all_versions.begin(),
                                        all_versions.begin() + n);
    Die((*store)->AppendBatch(views), "ingest");

    // Save + open on the in-memory VFS: pure persistence-stack time.
    vfs::MemVfs mem;
    const std::string mem_path = "store.xar";
    auto t0 = std::chrono::steady_clock::now();
    Die((*store)->SaveToFile(mem_path, &mem), "save");
    auto t1 = std::chrono::steady_clock::now();
    auto reopened = OpenSnapshot(mem_path, &mem);
    Die(reopened.status(), "open");
    auto t2 = std::chrono::steady_clock::now();
    if ((*reopened)->version_count() != (*store)->version_count()) {
      std::fprintf(stderr, "round-trip lost versions\n");
      std::exit(1);
    }

    // The same snapshot on a real file: buffered posix open vs zero-copy
    // mmap open.
    ScratchDir dir(backend + "_" + std::to_string(n));
    const std::string disk_path =
        (std::filesystem::path(dir.path) / "store.xar").string();
    Die((*store)->SaveToFile(disk_path), "save to disk");
    auto tb0 = std::chrono::steady_clock::now();
    auto buffered = OpenSnapshot(disk_path, vfs::Vfs::Posix());
    Die(buffered.status(), "open buffered");
    auto tb1 = std::chrono::steady_clock::now();
    auto mapped = OpenSnapshot(disk_path, vfs::Vfs::Mmap());
    Die(mapped.status(), "open mmap");
    auto tb2 = std::chrono::steady_clock::now();
    if ((*buffered)->version_count() != (*mapped)->version_count()) {
      std::fprintf(stderr, "buffered and mmap opens disagree\n");
      std::exit(1);
    }

    // Worst-case recovery: a durable store with every version in the log,
    // also on MemVfs.
    const std::string durable_dir = "durable";
    {
      DurableOptions durable_options;
      durable_options.backend = backend;
      durable_options.store.spec = MustSpec();
      durable_options.fsync = persist::FsyncPolicy::kNever;
      durable_options.vfs = &mem;
      auto durable = OpenDurable(durable_dir, std::move(durable_options));
      Die(durable.status(), "durable create");
      Die((*durable)->AppendBatch(views), "durable ingest");
    }
    auto t3 = std::chrono::steady_clock::now();
    {
      DurableOptions durable_options;
      durable_options.backend = backend;
      durable_options.store.spec = MustSpec();
      durable_options.fsync = persist::FsyncPolicy::kNever;
      durable_options.vfs = &mem;
      auto recovered = OpenDurable(durable_dir, std::move(durable_options));
      Die(recovered.status(), "durable replay");
      if ((*recovered)->version_count() != static_cast<Version>(n)) {
        std::fprintf(stderr, "log replay lost versions\n");
        std::exit(1);
      }
    }
    auto t4 = std::chrono::steady_clock::now();

    // Cold open (archive family only — the backends whose snapshots are
    // XAR2): the snapshot cold-opened from a real file through mmap, plus
    // the first query answered after the open. The open is O(mmap + CRC
    // verify) and the first query navigates the mapped bytes; its answer
    // must match the live store's.
    const bool archive_family =
        backend == "archive" || backend == "archive-weave";
    double open_xar2_mmap_s = 0, fq_xar2_mmap_s = 0;
    if (archive_family) {
      const std::string first_query = "/site @ version " + std::to_string(n);
      auto c0 = std::chrono::steady_clock::now();
      auto opened = OpenSnapshot(disk_path, vfs::Vfs::Mmap());
      auto c1 = std::chrono::steady_clock::now();
      Die(opened.status(), "cold open");
      StringSink cold_sink;
      Die((*opened)->Query(first_query, cold_sink), "first query");
      auto c2 = std::chrono::steady_clock::now();
      open_xar2_mmap_s = Seconds(c0, c1);
      fq_xar2_mmap_s = Seconds(c1, c2);
      StringSink live_sink;
      Die((*store)->Query(first_query, live_sink), "live query");
      if (cold_sink.data() != live_sink.data()) {
        std::fprintf(stderr, "cold-open query output disagrees with the "
                             "live store\n");
        std::exit(1);
      }
    }

    const uint64_t snapshot_bytes = *mem.FileSize(mem_path);
    const double save_s = Seconds(t0, t1);
    const double open_s = Seconds(t1, t2);
    const double open_buf_s = Seconds(tb0, tb1);
    const double open_mmap_s = Seconds(tb1, tb2);
    const double replay_s = Seconds(t3, t4);
    const double save_mbps =
        save_s > 0 ? static_cast<double>(snapshot_bytes) / save_s / 1e6 : 0;
    std::printf("%-14s %8d %12llu %10.2f %10.2f %10.2f %10.2f %12.1f %12.2f\n",
                "", n, static_cast<unsigned long long>(snapshot_bytes),
                save_s * 1e3, open_s * 1e3, open_buf_s * 1e3,
                open_mmap_s * 1e3, save_mbps, replay_s * 1e3);
    if (archive_family) {
      std::printf("%-14s %8s  cold-open xar2-mmap %.2f ms   first-query "
                  "%.2f ms\n",
                  "", "", open_xar2_mmap_s * 1e3, fq_xar2_mmap_s * 1e3);
    }
    if (report != nullptr) {
      report->BeginRow();
      report->Add("backend", backend);
      report->Add("hardware_concurrency", std::thread::hardware_concurrency());
      report->Add("versions", n);
      report->Add("snapshot_bytes",
                  static_cast<unsigned long long>(snapshot_bytes));
      report->Add("save_ms", save_s * 1e3);
      report->Add("open_ms", open_s * 1e3);
      report->Add("open_buffered_ms", open_buf_s * 1e3);
      report->Add("open_mmap_ms", open_mmap_s * 1e3);
      report->Add("save_mb_per_s", save_mbps);
      report->Add("log_replay_ms", replay_s * 1e3);
      if (archive_family) {
        report->Add("open_xar2_mmap_ms", open_xar2_mmap_s * 1e3);
        report->Add("first_query_xar2_mmap_ms", fq_xar2_mmap_s * 1e3);
      }
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
      config.version_counts = {4, 8};
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json out.json]\n",
                   argv[0]);
      return 2;
    }
  }

  const int max_versions = config.version_counts.back();
  std::vector<std::string> versions = MakeVersions(max_versions, config.smoke);

  bench::JsonReport report("bench_persistence");
  // The archive is the paper's subject; full-copy bounds snapshot size
  // from above and extmem exercises the raw row-file snapshot path.
  const std::vector<std::string> backends =
      config.smoke
          ? std::vector<std::string>{"archive", "full-copy"}
          : std::vector<std::string>{"archive", "archive-weave", "incr-diff",
                                     "full-copy", "compressed", "extmem"};
  for (const std::string& backend : backends) {
    RunBackend(backend, versions, config, &report);
  }

  // Compression throughput of the LZSS match-finder over the bench's own
  // XML corpus — the knob the snapshot save path spends most of its time
  // in. Recorded so match-finder changes show up as a delta in this JSON.
  {
    std::string corpus;
    for (const std::string& v : versions) corpus += v;
    const int reps = config.smoke ? 2 : 8;
    size_t compressed_bytes = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      compressed_bytes = compress::LzssCompress(corpus).size();
    }
    auto t1 = std::chrono::steady_clock::now();
    const double sec = Seconds(t0, t1) / reps;
    const double mbps =
        sec > 0 ? static_cast<double>(corpus.size()) / sec / 1e6 : 0;
    std::printf("%-14s %12zu in B %10zu out B %12.1f MB/s\n", "lzss-compress",
                corpus.size(), compressed_bytes, mbps);
    report.BeginRow();
    report.Add("backend", "lzss-compress");
    report.Add("hardware_concurrency", std::thread::hardware_concurrency());
    report.Add("input_bytes", static_cast<unsigned long long>(corpus.size()));
    report.Add("compressed_bytes",
               static_cast<unsigned long long>(compressed_bytes));
    report.Add("compress_mb_per_s", mbps);
  }
  if (!report.Write(config.json_path)) return 1;
  return 0;
}
