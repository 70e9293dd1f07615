// The three workloads. Each is a closed loop over one client connection to
// an in-process server::Server (the xarchd service core) over a durable
// store, driven with a stream of operations derived from --seed.
//
//   xmark-serve    32 XMark versions, checkpointed to XAR2 and reopened
//                  cold; the timed phase is an interleaved point/history/
//                  range read stream on keys that exist.
//   xmark-sharded  the same corpus and read stream on 4 key-range shards,
//                  plus a small seeded share of INGEST frames.
//   sprot-ingest   growing Swiss-Prot releases, one INGEST frame each,
//                  every release followed by a seeded batch of reads; each
//                  round ends on a non-empty WAL tail and the directory is
//                  reopened repeatedly.
//
// Correctness gate: a seeded sample of wire responses is compared byte for
// byte with Store::Query on a plain in-process "archive" reference store
// holding the same versions; sprot-ingest also checks, after the reopens,
// that sampled acknowledged releases retrieve canonically equal to what
// was sent. Any mismatch ends the run through Fail().
#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>

#include <unistd.h>

#include "client/client.h"
#include "core/archive.h"
#include "server/server.h"
#include "synth/swissprot.h"
#include "synth/xmark.h"
#include "util/random.h"
#include "vfs/stats_vfs.h"
#include "xarch/durable.h"
#include "xarch/sink.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using namespace xarch;

// ------------------------------------------------------------- sizes
// XMark corpus: small enough that a sharded 1..4 range stays in the low
// milliseconds, so every read kind collects enough samples for its p99.
constexpr size_t kXMarkItems = 5;  // per region (6 regions)
constexpr size_t kXMarkPeople = 24;
constexpr size_t kXMarkAuctions = 20;
constexpr double kXMarkChangePct = 10.0;
constexpr size_t kXMarkVersions = 32;
/// xmark-sharded's INGEST frames: this many extra versions, sent at seeded
/// positions among the first kShardedIngestWindow reads. A fixed count
/// keeps the final version count and the WAL tail the same in every run.
constexpr size_t kShardedIngests = 24;
constexpr uint64_t kShardedIngestWindow = 4500;
/// xmark-serve takes one ingest and one recovery sample this often;
/// xmark-sharded one recovery sample, once all its INGEST frames are in.
constexpr double kSideEverySeconds = 0.1;
constexpr double kShardedReopenEverySeconds = 0.5;
constexpr size_t kShards = 4;
constexpr size_t kMaxRange = 3;

// Swiss-Prot releases: 14 per round, growing ~12% per release.
constexpr size_t kSprotInitialRecords = 100;
constexpr size_t kSprotReleases = 10;
/// Auto-snapshot every 4 logged records: checkpoints after releases 4 and
/// 8, so each round ends with releases 9 and 10 in the WAL tail.
constexpr uint64_t kSprotSnapshotEvery = 4;
constexpr size_t kSprotReadsPerRelease = 1000;
constexpr size_t kSprotReopensPerRound = 3;
constexpr size_t kSprotChecksPerRound = 2;

constexpr size_t kSetupReps = 5;
/// One operation in this many is checked against the reference store.
constexpr uint64_t kGateEvery = 32;
/// Reads per kind a traced run keeps for the layer replay.
constexpr size_t kReplayPerKind = 150;
/// A p99 needs at least ten samples beyond it.
constexpr size_t kMinSamplesPerKind = 1000;
constexpr double kMaxPhaseFactor = 4.0;
/// An XMark phase is judged in windows of this length (see FastHalf).
constexpr double kWindowSeconds = 1.0;
/// A traced run alternates traced and untraced windows of this length.
constexpr double kTraceWindowSeconds = 0.5;

keys::KeySpecSet Spec(const char* text) {
  return Unwrap(keys::ParseKeySpecSet(text), "parse key specification");
}

DurableOptions Durable(const char* spec_text, vfs::Vfs* vfs, size_t shards,
                       uint64_t snapshot_every) {
  DurableOptions options;
  options.backend = "archive";
  options.vfs = vfs;
  options.store.spec = Spec(spec_text);
  options.store.use_index = true;
  options.fsync = persist::FsyncPolicy::kEveryRecord;
  options.snapshot_every_records = snapshot_every;
  options.shards = shards;
  return options;
}

std::unique_ptr<Store> MakeReference(const char* spec_text) {
  StoreOptions options;
  options.spec = Spec(spec_text);
  options.use_index = true;
  return Unwrap(StoreRegistry::Create("archive", std::move(options)),
                "create reference store");
}

/// A durable store served over loopback to one connected client.
struct Served {
  std::unique_ptr<Store> store;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<Client> client;

  void Start() {
    server::ServerOptions options;
    options.session_threads = 2;
    server = Unwrap(server::Server::Start(*store, options), "start server");
    ClientOptions client_options;
    client_options.client_name = "perfbench";
    client = Unwrap(Client::Connect("127.0.0.1", server->port(),
                                    client_options),
                    "connect client");
  }
  void Stop() {
    client.reset();
    if (server != nullptr) server->Join();
    server.reset();
  }
  void Close() {
    Stop();
    store.reset();
  }
};

/// Per-version selectors of keyed records that exist in that version.
using Selectors = std::vector<std::vector<std::string>>;

/// The read stream: seeded choice of kind, version and key.
struct ReadMix {
  double point = 0.35;
  double history = 0.30;  // range takes the rest
};

std::string NextRead(Rng& rng, const Selectors& selectors, Version versions,
                     const ReadMix& mix, Kind* kind) {
  const double r = rng.NextDouble();
  *kind = r < mix.point ? kPoint : r < mix.point + mix.history ? kHistory
                                                               : kRange;
  if (*kind == kRange && versions >= 2) {
    const Version span = static_cast<Version>(
        rng.Uniform(2, std::min<uint64_t>(kMaxRange, versions)));
    const Version from = static_cast<Version>(rng.Uniform(1, versions - span + 1));
    return rng.Pick(selectors[from - 1]) + " @ versions " +
           std::to_string(from) + ".." + std::to_string(from + span - 1);
  }
  if (*kind == kRange) *kind = kPoint;
  const Version v = static_cast<Version>(rng.Uniform(1, versions));
  if (*kind == kHistory) return rng.Pick(selectors[v - 1]) + " history";
  return rng.Pick(selectors[v - 1]) + " @ version " + std::to_string(v);
}

/// The client-side samples of one window of a timed phase: one second of
/// an XMark phase, one round of sprot-ingest.
struct Window {
  /// Windows compare only within a group: sprot-ingest's windows are the
  /// reads after release `group` of some round; XMark windows share one.
  size_t group = 0;
  LatencyHistogram latency_us[kKinds];
  double kind_us[kKinds] = {0, 0, 0};
  uint64_t reads = 0;
  double read_us = 0;
  uint64_t ingests = 0;
  double ingest_us = 0;
  double ingest_bytes = 0;

  void AddRead(Kind kind, double us) {
    latency_us[kind].Add(us);
    kind_us[kind] += us;
    ++reads;
    read_us += us;
  }
  void AddIngest(double us, double bytes) {
    ++ingests;
    ingest_us += us;
    ingest_bytes += bytes;
  }
  void Merge(const Window& other) {
    for (int k = 0; k < kKinds; ++k) {
      latency_us[k].Merge(other.latency_us[k]);
      kind_us[k] += other.kind_us[k];
    }
    reads += other.reads;
    read_us += other.read_us;
    ingests += other.ingests;
    ingest_us += other.ingest_us;
    ingest_bytes += other.ingest_bytes;
  }
};

/// Client-side tallies of a timed phase.
struct Tally {
  Window total;
  std::vector<Window> windows;  // the current window is the last
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double response_bytes = 0;
  // Tracing overhead: throughput inside traced vs untraced windows.
  uint64_t traced_reads = 0, untraced_reads = 0;
  double traced_read_us = 0, untraced_read_us = 0;
  double traced_ingest_us = 0, untraced_ingest_us = 0;
  double traced_ingest_bytes = 0, untraced_ingest_bytes = 0;
  std::vector<SampledQuery> kept;
  size_t kept_per_kind[kKinds] = {0, 0, 0};
  /// MB/s of each acknowledged ingest.
  Samples ingest_rates;

  void AddRead(Kind kind, double us) {
    total.AddRead(kind, us);
    windows.back().AddRead(kind, us);
  }
  void AddIngest(double us, double bytes) {
    total.AddIngest(us, bytes);
    windows.back().AddIngest(us, bytes);
    ingest_rates.Add(bytes / us);  // bytes per us = MB/s
  }
};

/// The faster half of the windows that have reads. A window's pace is the
/// time its reads took over the time they would have taken at the mean
/// latency of each kind in its group, so neither the read mix of a window
/// nor the archive size its group reads at counts.
///
/// Why: on a shared virtual machine the speed of the whole machine steps
/// between states that last seconds to minutes (in one 8 s run, median
/// read latency moved from 31 us to 20 us and back). Load from outside
/// only ever slows a window down, so the faster half of a run's windows
/// repeats from run to run far better than all of them; a change in the
/// program moves every window alike.
std::vector<const Window*> FastHalf(const Tally& tally) {
  struct KindMean {
    double us = 0, n = 0;
  };
  std::map<size_t, std::array<KindMean, kKinds>> means;
  for (const Window& w : tally.windows) {
    for (int k = 0; k < kKinds; ++k) {
      means[w.group][k].us += w.kind_us[k];
      means[w.group][k].n += static_cast<double>(w.latency_us[k].size());
    }
  }
  std::vector<std::pair<double, const Window*>> paced;
  for (const Window& w : tally.windows) {
    double expected = 0;
    for (int k = 0; k < kKinds; ++k) {
      const KindMean& m = means[w.group][k];
      if (m.n > 0) {
        expected += static_cast<double>(w.latency_us[k].size()) * m.us / m.n;
      }
    }
    if (w.reads > 0 && expected > 0) paced.push_back({w.read_us / expected, &w});
  }
  std::sort(paced.begin(), paced.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const Window*> out;
  for (size_t i = 0; i < (paced.size() + 1) / 2; ++i) {
    out.push_back(paced[i].second);
  }
  return out;
}

void AddCounts(const Counts& before, const Counts& after, Counts* sum) {
  for (const auto& entry : after) {
    (*sum)[entry.first] += Delta(before, after, entry.first);
  }
}

/// Sends operations over the served client, times them, and gates a
/// seeded sample against the reference store.
class Loop {
 public:
  Loop(Tally* tally, Tracer* tracer, uint64_t seed)
      : tally_(tally), tracer_(tracer), gate_rng_(seed ^ 0x9e3779b97f4a7c15ull) {}

  /// Whether the current operation is inside a traced window.
  void set_traced(bool traced) { traced_ = traced && tracer_ != nullptr; }

  /// One read; `reference` is consulted for gated samples when non-null.
  void Read(Client& client, Kind kind, const std::string& text,
            Store* reference) {
    ++tally_->attempted;
    StringSink sink;
    int64_t span = Tracer::kNone;
    if (traced_) {
      span = tracer_->Begin(std::string("op.") + KindName(kind), Tracer::kNone,
                            static_cast<int64_t>(tally_->attempted));
    }
    const Clock::time_point t0 = Clock::now();
    Status status = client.Query(text, sink);
    const Clock::time_point t1 = Clock::now();
    if (span != Tracer::kNone) tracer_->End(span);
    if (!status.ok()) {
      if (client.last_error_code() != net::ErrorCode::kBusy) {
        Fail("query `" + text + "`: " + status.ToString());
      }
      ++tally_->failed;
      return;
    }
    const double us = MicrosBetween(t0, t1);
    tally_->AddRead(kind, us);
    tally_->response_bytes += static_cast<double>(sink.data().size());
    (traced_ ? tally_->traced_reads : tally_->untraced_reads) += 1;
    (traced_ ? tally_->traced_read_us : tally_->untraced_read_us) += us;
    if (gate_rng_.Uniform(1, kGateEvery) != 1) return;
    if (reference != nullptr) {
      StringSink expect;
      OnReference([&] {
        Check(reference->Query(text, expect),
              "reference query `" + text + "`");
      });
      if (expect.data() != sink.data()) {
        Fail("wire response to `" + text + "` (" +
             std::to_string(sink.data().size()) +
             " bytes) differs from the reference store (" +
             std::to_string(expect.data().size()) + " bytes)");
      }
      ++checked_;
    }
    if (tracer_ != nullptr && tally_->kept_per_kind[kind] < kReplayPerKind) {
      ++tally_->kept_per_kind[kind];
      tally_->kept.push_back({kind, text, std::move(sink).Take()});
    }
  }

  /// One INGEST frame; the acknowledged version count must be `expect`.
  void Ingest(Client& client, const std::string& text, Version expect) {
    ++tally_->attempted;
    int64_t span = Tracer::kNone;
    if (traced_) {
      span = tracer_->Begin("op.ingest", Tracer::kNone,
                            static_cast<int64_t>(tally_->attempted));
    }
    const Clock::time_point t0 = Clock::now();
    StatusOr<Version> count = client.Ingest({text});
    const Clock::time_point t1 = Clock::now();
    if (span != Tracer::kNone) tracer_->End(span);
    if (!count.ok()) {
      if (client.last_error_code() != net::ErrorCode::kBusy) {
        Fail("ingest: " + count.status().ToString());
      }
      ++tally_->failed;
      return;
    }
    if (*count != expect) {
      Fail("ingest acknowledged version " + std::to_string(*count) +
           ", expected " + std::to_string(expect));
    }
    CountIngest(MicrosBetween(t0, t1), text.size());
  }

  /// One in-process Store::Append, timed and counted like an INGEST frame.
  void Append(Store& store, const std::string& text) {
    ++tally_->attempted;
    const Clock::time_point t0 = Clock::now();
    Check(store.Append(text), "append");
    CountIngest(MicrosBetween(t0, Clock::now()), text.size());
  }

  /// Appends to the reference store, keeping it in step with the served one.
  void ReferenceAppend(Store& reference, const std::string& text) {
    OnReference([&] { Check(reference.Append(text), "reference append"); });
  }

  uint64_t checked() const { return checked_; }
  /// What reference-store calls added to the default registry (traced
  /// runs only), so layer metrics count the served store alone.
  const Counts& excluded() const { return excluded_; }

 private:
  void CountIngest(double us, size_t size) {
    const double bytes = static_cast<double>(size);
    tally_->AddIngest(us, bytes);
    (traced_ ? tally_->traced_ingest_us : tally_->untraced_ingest_us) += us;
    (traced_ ? tally_->traced_ingest_bytes : tally_->untraced_ingest_bytes) +=
        bytes;
  }

  template <typename Fn>
  void OnReference(Fn&& fn) {
    if (tracer_ == nullptr) return fn();
    const Counts before = Snapshot(obs::Registry::Default());
    fn();
    AddCounts(before, Snapshot(obs::Registry::Default()), &excluded_);
  }

  Tally* tally_;
  Tracer* tracer_;
  Rng gate_rng_;
  bool traced_ = false;
  uint64_t checked_ = 0;
  Counts excluded_;
};

/// True once every read kind has enough samples in the faster half of the
/// windows for its p99.
bool EnoughSamples(const Tally& tally) {
  size_t counts[kKinds] = {0, 0, 0};
  for (const Window* w : FastHalf(tally)) {
    for (int k = 0; k < kKinds; ++k) counts[k] += w->latency_us[k].size();
  }
  for (size_t count : counts) {
    if (count < kMinSamplesPerKind) return false;
  }
  return true;
}

/// The timed phase runs for --seconds and until every read kind has enough
/// samples for its p99, but never past kMaxPhaseFactor times --seconds.
bool PhaseDone(const Tally& tally, double elapsed, double seconds) {
  if (elapsed >= kMaxPhaseFactor * seconds) return true;
  return elapsed >= seconds && EnoughSamples(tally);
}

/// Seconds -> traced/untraced window parity.
bool InTracedWindow(double elapsed) {
  return static_cast<uint64_t>(elapsed / kTraceWindowSeconds) % 2 == 0;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// Reads count from the faster half of the windows.
Result EndToEnd(const Tally& tally, const Samples& setup_s,
                const Samples& recover_ms, double disk_ratio) {
  Window fast;
  for (const Window* w : FastHalf(tally)) fast.Merge(*w);
  static const char* kNames[kKinds][2] = {{"point_p50_us", "point_p99_us"},
                                          {"history_p50_us", "history_p99_us"},
                                          {"range_p50_us", "range_p99_us"}};
  Result r;
  r.Add("setup_s", "s", setup_s.Median());
  r.Add("query_qps", "1/s", fast.reads / (fast.read_us / 1e6));
  for (int k = 0; k < kKinds; ++k) {
    r.Add(kNames[k][0], "us", fast.latency_us[k].Quantile(0.50));
    r.Add(kNames[k][1], "us", fast.latency_us[k].Quantile(0.99));
  }
  // The median ingest's rate: an ingest's time rides on fsync and
  // write-back latency, whose spikes a sum would carry whole.
  r.Add("ingest_mb_per_s", "MB/s", tally.ingest_rates.Median());
  r.Add("recover_ms", "ms", recover_ms.Median());
  r.Add("disk_bytes_per_user_byte", "ratio", disk_ratio);
  r.Add("peak_rss_mb", "MiB", PeakRssMb());
  return r;
}

void PrintPhase(const char* workload, const Tally& tally, double seconds) {
  const Window& t = tally.total;
  std::fprintf(stderr,
               "%s: %llu reads in %.2f s (point %zu, history %zu, range "
               "%zu), %llu ingests in %.2f s, %llu failed, %.1f s phase, "
               "%zu windows\n",
               workload, static_cast<unsigned long long>(t.reads),
               t.read_us / 1e6, t.latency_us[kPoint].size(),
               t.latency_us[kHistory].size(), t.latency_us[kRange].size(),
               static_cast<unsigned long long>(t.ingests), t.ingest_us / 1e6,
               static_cast<unsigned long long>(tally.failed), seconds,
               tally.windows.size());
}

/// Fills the traced-run inputs shared by every workload.
void FillTallies(const Tally& tally, LayerInputs* in) {
  in->reads = tally.total.reads;
  in->read_us_total = tally.total.read_us;
  in->response_bytes = tally.response_bytes;
  in->ingests = tally.total.ingests;
  in->ingest_user_bytes = tally.total.ingest_bytes;
  in->ingest_us_total = tally.total.ingest_us;
  auto rate = [](double n, double us) { return us > 0 ? n / us * 1e6 : 0.0; };
  in->qps_traced = rate(static_cast<double>(tally.traced_reads),
                        tally.traced_read_us);
  in->qps_untraced = rate(static_cast<double>(tally.untraced_reads),
                          tally.untraced_read_us);
  in->ingest_mbps_traced = rate(tally.traced_ingest_bytes / 1e6,
                                tally.traced_ingest_us);
  in->ingest_mbps_untraced = rate(tally.untraced_ingest_bytes / 1e6,
                                  tally.untraced_ingest_us);
}

// ------------------------------------------------------------- XMark

struct XMarkCorpus {
  std::vector<std::string> texts;
  Selectors selectors;
  double Bytes(size_t versions) const {
    double total = 0;
    for (size_t i = 0; i < versions; ++i) total += texts[i].size();
    return total;
  }
};

/// Selectors of every keyed record (region items, people, open auctions).
std::vector<std::string> XMarkSelectors(const xml::Node& site) {
  std::vector<std::string> out;
  auto add = [&out](const std::string& path, const xml::Node& record) {
    if (const std::string* id = record.FindAttr("id")) {
      out.push_back(path + "[@id=\"" + *id + "\"]");
    }
  };
  for (const auto& section : site.children()) {
    if (!section->is_element()) continue;
    if (section->tag() == "regions") {
      for (const auto& region : section->children()) {
        if (!region->is_element()) continue;
        for (const auto& item : region->children()) {
          if (item->is_element()) {
            add("/site/regions/" + region->tag() + "/" + item->tag(), *item);
          }
        }
      }
    } else {
      for (const auto& record : section->children()) {
        if (record->is_element()) {
          add("/site/" + section->tag() + "/" + record->tag(), *record);
        }
      }
    }
  }
  if (out.empty()) Fail("XMark version has no keyed records");
  return out;
}

XMarkCorpus MakeXMarkCorpus(uint64_t seed, size_t versions) {
  synth::XMarkGenerator::Options options;
  options.items = kXMarkItems;
  options.people = kXMarkPeople;
  options.open_auctions = kXMarkAuctions;
  options.seed = seed;
  synth::XMarkGenerator generator(options);
  XMarkCorpus corpus;
  for (size_t v = 0; v < versions; ++v) {
    xml::NodePtr doc = generator.Current();
    corpus.texts.push_back(xml::Serialize(*doc));
    corpus.selectors.push_back(XMarkSelectors(*doc));
    generator.MutateRandom(kXMarkChangePct);
  }
  return corpus;
}

RunOutput RunXMark(const Options& options, size_t shards) {
  const bool sharded = shards > 1;
  const char* spec_text = synth::XMarkGenerator::KeySpecText();
  const XMarkCorpus corpus = MakeXMarkCorpus(
      options.seed, kXMarkVersions + (sharded ? kShardedIngests : 0));

  obs::Registry vfs_registry;
  vfs::StatsVfs vfs(vfs::Vfs::Mmap(), &vfs_registry);
  auto durable = [&] {
    DurableOptions options = Durable(spec_text, &vfs, shards, 0);
    // xmark-sharded's WALs do not fsync: with five syncs per INGEST frame
    // (four shard WALs and the manifest), disk latency made its ingest
    // rate swing 2x between runs. The manifest commit still syncs;
    // sprot-ingest measures fsync-per-record ingest.
    if (sharded) options.fsync = persist::FsyncPolicy::kNever;
    return options;
  };

  std::unique_ptr<Store> reference = MakeReference(spec_text);
  {
    std::vector<std::string_view> base(corpus.texts.begin(),
                                       corpus.texts.begin() + kXMarkVersions);
    Check(reference->AppendBatch(base), "reference ingest");
  }

  // ---- set-up, repeated: build, checkpoint to XAR2, reopen cold, serve.
  Samples setup_s;
  Served served;
  std::string dir;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    dir = options.dir + "/xmark-" + std::to_string(rep);
    const Clock::time_point t0 = Clock::now();
    {
      std::unique_ptr<Store> build =
          Unwrap(OpenDurable(dir, durable()), "create durable store");
      for (size_t v = 0; v < kXMarkVersions; ++v) {
        Check(build->Append(corpus.texts[v]), "append version");
      }
      Check(CheckpointDurableIfDirty(*build), "checkpoint to XAR2");
    }
    served.store = Unwrap(OpenDurable(dir, durable()), "cold open");
    served.Start();
    setup_s.Add(SecondsSince(t0));
    if (rep + 1 < kSetupReps) {
      served.Close();
      std::filesystem::remove_all(dir);
    }
  }
  const double disk_ratio = static_cast<double>(DirBytes(dir)) /
                            corpus.Bytes(kXMarkVersions);
  // Write back what set-up left dirty, so the timed phase's fsyncs do not
  // queue behind it.
  ::sync();

  // ---- timed phase
  LayerInputs layers;
  Tracer tracer;
  Tally tally;
  Loop loop(&tally, options.trace ? &tracer : nullptr, options.seed);
  Rng rng(options.seed * 0x2545f4914f6cdd1dull + 1);
  layers.default_before = Snapshot(obs::Registry::Default());
  layers.vfs_before = Snapshot(vfs_registry);
  layers.server_before = Snapshot(served.server->registry());
  layers.stats_before = served.store->Stats();
  const server::ServerStats server0 = served.server->StatsSnapshot();
  // xmark-sharded: read counts after which the INGEST frames go out.
  // A sharded history read is routed to one shard and costs a fiftieth of
  // a point read, so xmark-sharded sends more of them: its p99 then rests
  // on about as many samples as on xmark-serve, at little extra time.
  ReadMix mix;
  if (sharded) mix = {0.30, 0.45};
  std::vector<uint64_t> ingest_at;
  for (size_t i = 0; sharded && i < kShardedIngests; ++i) {
    ingest_at.push_back(rng.Uniform(0, kShardedIngestWindow - 1));
  }
  std::sort(ingest_at.begin(), ingest_at.end());
  size_t next_extra = kXMarkVersions;
  // xmark-serve: the side store its ingest samples go to.
  std::unique_ptr<Store> side;
  size_t side_next = kXMarkVersions;
  double next_side_at = 0;
  Samples recover_ms;
  const Clock::time_point phase = Clock::now();
  for (;;) {
    const double elapsed = SecondsSince(phase);
    if (elapsed >= static_cast<double>(tally.windows.size()) * kWindowSeconds) {
      if (PhaseDone(tally, elapsed, options.seconds) &&
          next_extra - kXMarkVersions == ingest_at.size()) {
        break;
      }
      tally.windows.emplace_back();
    }
    loop.set_traced(InTracedWindow(elapsed));
    const size_t ingested = next_extra - kXMarkVersions;
    if (ingested < ingest_at.size() &&
        ingest_at[ingested] <= tally.total.reads) {
      const std::string& text = corpus.texts[next_extra++];
      loop.Ingest(*served.client, text, next_extra);
      loop.ReferenceAppend(*reference, text);
      continue;
    }
    if (elapsed >= next_side_at &&
        (!sharded || ingested == ingest_at.size())) {
      // Between reads, never inside one: a recovery sample of the served
      // directory (for xmark-serve also an ingest sample into the side
      // store), spread over the phase like the reads.
      next_side_at = elapsed + (sharded ? kShardedReopenEverySeconds
                                        : kSideEverySeconds);
      if (!sharded) {
        if (side_next == kXMarkVersions) {
          side.reset();
          const std::string side_dir = options.dir + "/side";
          std::filesystem::remove_all(side_dir);
          DurableOptions side_options = durable();
          side_options.fsync = persist::FsyncPolicy::kNever;
          side = Unwrap(OpenDurable(side_dir, std::move(side_options)),
                        "create side store");
          side_next = 0;
        }
        loop.Append(*side, corpus.texts[side_next++]);
      }
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<Store> reopened =
          Unwrap(OpenDurable(dir, durable()), "reopen");
      recover_ms.Add(MicrosBetween(t0, Clock::now()) / 1000.0);
      if (reopened->version_count() != next_extra) {
        Fail("reopen recovered " + std::to_string(reopened->version_count()) +
             " versions, expected " + std::to_string(next_extra));
      }
      continue;
    }
    Kind kind;
    const std::string text =
        NextRead(rng, corpus.selectors, kXMarkVersions, mix, &kind);
    loop.Read(*served.client, kind, text, reference.get());
  }
  const double phase_seconds = SecondsSince(phase);
  layers.server_after = Snapshot(served.server->registry());
  layers.stats_after = served.store->Stats();
  layers.default_after = Snapshot(obs::Registry::Default());
  layers.vfs_after = Snapshot(vfs_registry);
  const server::ServerStats server1 = served.server->StatsSnapshot();
  layers.server_bytes_out = server1.bytes_out - server0.bytes_out;
  layers.server_busy = server1.rejected_busy - server0.rejected_busy;
  PrintPhase(options.workload.c_str(), tally, phase_seconds);
  std::fprintf(stderr, "%s: %llu responses byte-checked against the "
               "reference store\n", options.workload.c_str(),
               static_cast<unsigned long long>(loop.checked()));
  if (loop.checked() == 0) Fail("no response was checked");

  RunOutput out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  if (options.trace) {
    FillTallies(tally, &layers);
    layers.default_excluded = loop.excluded();
    layers.spec_text = spec_text;
    for (size_t v = 0; v < next_extra; ++v) {
      layers.versions.push_back(&corpus.texts[v]);
    }
    layers.queries = std::move(tally.kept);
    layers.served = served.store.get();
    layers.sharded = sharded;
    layers.shards = shards;
    layers.durable_dir = dir;
    layers.tracer = &tracer;
    out.metrics = MeasureLayers(layers, options);
    served.Close();
    return out;
  }
  served.Close();
  side.reset();

  if (recover_ms.empty()) Fail("no recovery sample was taken");

  out.metrics = EndToEnd(tally, setup_s, recover_ms, disk_ratio);
  return out;
}

// ---------------------------------------------------------- Swiss-Prot

struct SprotCorpus {
  std::vector<std::string> texts;
  Selectors selectors;
  double bytes = 0;
};

SprotCorpus MakeSprotCorpus(uint64_t seed) {
  synth::SwissProtGenerator::Options options;
  options.initial_records = kSprotInitialRecords;
  options.seed = seed;
  synth::SwissProtGenerator generator(options);
  SprotCorpus corpus;
  for (size_t v = 0; v < kSprotReleases; ++v) {
    xml::NodePtr doc = generator.NextVersion();
    std::vector<std::string> selectors;
    for (const auto& record : doc->children()) {
      if (const xml::Node* pac = record->FindChild("pac")) {
        selectors.push_back("/ROOT/Record[pac=\"" + pac->TextContent() +
                            "\"]");
      }
    }
    if (selectors.empty()) Fail("Swiss-Prot release has no records");
    corpus.texts.push_back(xml::Serialize(*doc));
    corpus.bytes += static_cast<double>(corpus.texts.back().size());
    corpus.selectors.push_back(std::move(selectors));
  }
  return corpus;
}

/// The store-canonical form of a version text: what an archive returns
/// for it (keyed siblings in fingerprint order).
std::string StoreCanonical(const std::string& text, const char* spec_text) {
  core::Archive archive(Spec(spec_text));
  xml::NodePtr doc = Unwrap(xml::Parse(text), "parse release");
  Check(archive.AddVersion(*doc), "archive release");
  xml::NodePtr back = Unwrap(archive.RetrieveVersion(1), "retrieve release");
  return xml::Serialize(*back);
}

/// Adds the query counters `b` gained over `a` to `sum`.
void AddQueryStats(const StoreStats& a, const StoreStats& b, StoreStats* sum) {
  sum->queries += b.queries - a.queries;
  sum->query_tree_probes += b.query_tree_probes - a.query_tree_probes;
  sum->query_naive_probes += b.query_naive_probes - a.query_naive_probes;
  sum->query_comparisons += b.query_comparisons - a.query_comparisons;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case kPoint: return "point";
    case kHistory: return "history";
    default: return "range";
  }
}

RunOutput RunXMarkServe(const Options& options) {
  return RunXMark(options, 1);
}

RunOutput RunXMarkSharded(const Options& options) {
  return RunXMark(options, kShards);
}

RunOutput RunSprotIngest(const Options& options) {
  const char* spec_text = synth::SwissProtGenerator::KeySpecText();
  obs::Registry vfs_registry;
  vfs::StatsVfs vfs(vfs::Vfs::Mmap(), &vfs_registry);
  auto durable = [&] {
    return Durable(spec_text, &vfs, 1, kSprotSnapshotEvery);
  };

  // Set-up: synthesize the releases, open a fresh durable directory and
  // serve it. Repeated; the last one is round 0 of the timed phase.
  Samples setup_s;
  SprotCorpus corpus;
  Served served;
  auto round_dir = [&](size_t round) {
    return options.dir + "/sprot-" + std::to_string(round);
  };
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    corpus = MakeSprotCorpus(options.seed);
    served.store = Unwrap(OpenDurable(round_dir(0), durable()),
                          "create durable store");
    served.Start();
    setup_s.Add(SecondsSince(t0));
    if (rep + 1 < kSetupReps) {
      served.Close();
      std::filesystem::remove_all(round_dir(0));
    }
  }

  LayerInputs layers;
  Tracer tracer;
  Tally tally;
  Loop loop(&tally, options.trace ? &tracer : nullptr, options.seed);
  Rng rng(options.seed * 0x2545f4914f6cdd1dull + 2);
  Rng check_rng(options.seed + 77);
  std::unique_ptr<Store> reference = MakeReference(spec_text);
  Samples recover_ms;
  double disk_ratio = 0;
  uint64_t canonical_checks = 0;
  Counts server_sum;
  StoreStats stats_sum;
  uint64_t bytes_out = 0, busy = 0;
  std::string last_dir;
  std::unique_ptr<Store> last_reopened;  // kept for a traced run's replay

  ::sync();
  layers.default_before = Snapshot(obs::Registry::Default());
  layers.vfs_before = Snapshot(vfs_registry);
  const Clock::time_point phase = Clock::now();
  size_t round = 0;
  for (;; ++round) {
    const std::string dir = round_dir(round);
    if (round > 0) {
      served.store = Unwrap(OpenDurable(dir, durable()),
                            "create durable store");
      served.Start();
    }
    const Counts server0 = Snapshot(served.server->registry());
    const StoreStats stats0 = served.store->Stats();
    const server::ServerStats wire0 = served.server->StatsSnapshot();
    // Round 0 keeps the reference store in lock step, so every sampled
    // read is gated; later rounds gate the version-pinned kinds (a
    // history answer depends on how many versions exist).
    for (size_t i = 0; i < kSprotReleases; ++i) {
      const Version versions = static_cast<Version>(i + 1);
      loop.set_traced(round % 2 == 0);
      tally.windows.emplace_back();
      tally.windows.back().group = i;
      loop.Ingest(*served.client, corpus.texts[i], versions);
      if (round == 0) loop.ReferenceAppend(*reference, corpus.texts[i]);
      for (size_t b = 0; b < kSprotReadsPerRelease; ++b) {
        Kind kind;
        const std::string text =
            NextRead(rng, corpus.selectors, versions, ReadMix(), &kind);
        const bool gate = round == 0 || kind != kHistory;
        loop.Read(*served.client, kind, text, gate ? reference.get() : nullptr);
      }
    }
    AddCounts(server0, Snapshot(served.server->registry()), &server_sum);
    AddQueryStats(stats0, served.store->Stats(), &stats_sum);
    const server::ServerStats wire1 = served.server->StatsSnapshot();
    bytes_out += wire1.bytes_out - wire0.bytes_out;
    busy += wire1.rejected_busy - wire0.rejected_busy;
    served.Close();

    if (round == 0) {
      disk_ratio = static_cast<double>(DirBytes(dir)) / corpus.bytes;
    }
    std::unique_ptr<Store> reopened;
    for (size_t k = 0; k < kSprotReopensPerRound; ++k) {
      reopened.reset();
      const Clock::time_point t0 = Clock::now();
      reopened = Unwrap(OpenDurable(dir, durable()), "reopen");
      recover_ms.Add(MicrosBetween(t0, Clock::now()) / 1000.0);
    }
    if (reopened->version_count() != kSprotReleases) {
      Fail("reopen recovered " + std::to_string(reopened->version_count()) +
           " releases, expected " + std::to_string(kSprotReleases));
    }
    for (size_t c = 0; c < kSprotChecksPerRound; ++c) {
      const Version v =
          static_cast<Version>(check_rng.Uniform(1, kSprotReleases));
      const std::string got = Unwrap(reopened->Retrieve(v), "retrieve");
      if (got != StoreCanonical(corpus.texts[v - 1], spec_text)) {
        Fail("release " + std::to_string(v) +
             " does not retrieve canonically equal after reopen");
      }
      ++canonical_checks;
    }
    const bool done = PhaseDone(tally, SecondsSince(phase), options.seconds);
    if (done && options.trace) {
      last_reopened = std::move(reopened);
      last_dir = dir;
      break;
    }
    reopened.reset();
    std::filesystem::remove_all(dir);
    if (done) break;
  }
  const double phase_seconds = SecondsSince(phase);
  layers.default_after = Snapshot(obs::Registry::Default());
  layers.vfs_after = Snapshot(vfs_registry);
  PrintPhase(options.workload.c_str(), tally, phase_seconds);
  std::fprintf(stderr,
               "%s: %zu rounds of %zu releases (%.2f MB each round), %llu "
               "responses byte-checked, %llu releases checked after reopen\n",
               options.workload.c_str(), round + 1, kSprotReleases,
               corpus.bytes / 1e6,
               static_cast<unsigned long long>(loop.checked()),
               static_cast<unsigned long long>(canonical_checks));

  RunOutput out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  if (options.trace) {
    FillTallies(tally, &layers);
    layers.default_excluded = loop.excluded();
    layers.spec_text = spec_text;
    for (const std::string& text : corpus.texts) {
      layers.versions.push_back(&text);
    }
    layers.queries = std::move(tally.kept);
    layers.served = last_reopened.get();
    layers.durable_dir = last_dir;
    layers.server_after = server_sum;
    layers.stats_after = stats_sum;
    layers.server_bytes_out = bytes_out;
    layers.server_busy = busy;
    layers.tracer = &tracer;
    out.metrics = MeasureLayers(layers, options);
    return out;
  }

  out.metrics = EndToEnd(tally, setup_s, recover_ms, disk_ratio);
  return out;
}

}  // namespace perfbench
