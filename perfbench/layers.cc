// The traced run's per-layer measurements. After the timed phase, a
// sample of its operations is re-run through each layer's public functions
// under spans (xml::Parse, keys::AnnotateKeys, core::Archive::AddVersion,
// index::ArchiveIndex, query::Parse / MakePlan / Evaluate, the frame
// codec, Store::RetrieveTo, StoreRegistry::Open, persist::ReadIngestLog),
// and the counters the engine, the server and a vfs::StatsVfs kept over the
// timed window are turned into per-query and per-ingest figures.
#include <algorithm>
#include <cstdio>

#include "core/archive.h"
#include "index/archive_index.h"
#include "keys/annotate.h"
#include "persist/log.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/protocol.h"
#include "vfs/vfs.h"
#include "workloads.h"
#include "xarch/sharded_store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using namespace xarch;

constexpr size_t kOpenRepeats = 5;
constexpr size_t kRetrieveSamples = 8;

/// Runs `fn` under a span and returns its duration in microseconds.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, int64_t parent,
             int64_t op, Fn&& fn) {
  const int64_t id = tracer.Begin(name, parent, op);
  const Clock::time_point t0 = Clock::now();
  fn();
  const double us = MicrosBetween(t0, Clock::now());
  tracer.End(id);
  return us;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sum over a family's series whose labels contain `fragment`.
double LabeledDelta(const Counts& before, const Counts& after,
                    const std::string& family, const std::string& fragment) {
  double total = 0;
  const std::string prefix = family + "{";
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (it->first.find(fragment) != std::string::npos) {
      total += Delta(before, after, it->first);
    }
  }
  return total;
}

/// The snapshot and WAL paths of a durable directory (one per shard).
std::vector<std::string> ShardDirs(const std::string& dir, size_t shards) {
  if (shards <= 1) return {dir};
  std::vector<std::string> out;
  for (size_t s = 0; s < shards; ++s) {
    char name[16];
    std::snprintf(name, sizeof name, "shard-%03zu", s);
    out.push_back(vfs::Join(dir, name));
  }
  return out;
}

}  // namespace

Result MeasureLayers(LayerInputs& in, const Options& options) {
  Tracer& tracer = *in.tracer;
  const size_t timed_spans = tracer.size();

  // ---- xml, keys, core, index: rebuild the archive version by version,
  // with the index rebuild each ingest pays.
  core::Archive archive(
      Unwrap(keys::ParseKeySpecSet(in.spec_text), "parse key specification"));
  double bytes = 0, parse_us = 0, annotate_us = 0, merge_us = 0,
         serialize_us = 0;
  Samples index_ms;
  for (size_t v = 0; v < in.versions.size(); ++v) {
    const std::string& text = *in.versions[v];
    const int64_t root =
        tracer.Begin("replay.ingest", Tracer::kNone, static_cast<int64_t>(v));
    xml::NodePtr doc;
    parse_us += Timed(tracer, "xml.parse", root, v, [&] {
      doc = Unwrap(xml::Parse(text), "xml::Parse");
    });
    annotate_us += Timed(tracer, "keys.annotate", root, v, [&] {
      Unwrap(keys::AnnotateKeys(*doc, archive.spec()), "keys::AnnotateKeys");
    });
    merge_us += Timed(tracer, "core.merge", root, v, [&] {
      Check(archive.AddVersion(*doc), "core::Archive::AddVersion");
    });
    index_ms.Add(Timed(tracer, "index.build", root, v,
                       [&] { index::ArchiveIndex build(archive); }) /
                 1000.0);
    serialize_us += Timed(tracer, "xml.serialize", root, v, [&] {
      if (xml::Serialize(*doc).empty()) Fail("xml::Serialize: empty output");
    });
    tracer.End(root);
    bytes += static_cast<double>(text.size());
  }
  const index::ArchiveIndex index(archive);

  // ---- query and frame codec: replay the sampled reads.
  Samples parse_q, plan_q, codec_q, eval_q[kKinds];
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const SampledQuery& q = in.queries[i];
    const int64_t op = static_cast<int64_t>(i);
    const int64_t root = tracer.Begin(
        std::string("replay.") + KindName(q.kind), Tracer::kNone, op);
    query::Query ast;
    parse_q.Add(Timed(tracer, "query.parse", root, op, [&] {
      ast = Unwrap(query::Parse(q.text), "query::Parse");
    }));
    query::Plan plan;
    plan_q.Add(Timed(tracer, "query.plan", root, op, [&] {
      plan = query::MakePlan(std::move(ast), query::Access::kArchiveIndexed);
    }));
    StringSink sink;
    query::EvalResult result;
    eval_q[q.kind].Add(Timed(
        tracer, std::string("query.eval.") + KindName(q.kind), root, op, [&] {
          Check(query::Evaluate(plan, archive, &index, sink, &result),
                "query::Evaluate");
        }));
    // Version-pinned answers cannot depend on versions ingested later, so
    // the layer-level replay must reproduce the wire bytes exactly.
    if (q.kind != kHistory && sink.data() != q.response) {
      Fail("layer replay of `" + q.text + "` differs from its wire response");
    }
    codec_q.Add(Timed(tracer, "server.frame_codec", root, op, [&] {
      std::string_view rest = q.response;
      do {
        const std::string_view chunk = rest.substr(0, net::kChunkBytes);
        rest.remove_prefix(chunk.size());
        std::string wire = Unwrap(
            net::EncodeFrame(net::MessageType::kChunk, chunk), "EncodeFrame");
        net::Frame frame;
        std::string detail;
        if (net::TryDecodeFrame(&wire, &frame, &detail) !=
            net::DecodeResult::kFrame) {
          Fail("TryDecodeFrame: " + detail);
        }
      } while (!rest.empty());
    }));
    tracer.End(root);
  }

  // ---- retrieval through the Store API (core, and the sharded layer).
  Samples retrieve_us, sharded_retrieve_ms;
  auto* sharded = dynamic_cast<ShardedStore*>(in.served);
  const Version versions = in.served->version_count();
  for (size_t i = 0; i < kRetrieveSamples; ++i) {
    const Version v =
        static_cast<Version>(1 + (i * versions) / kRetrieveSamples);
    CountingSink sink;
    if (sharded != nullptr) {
      sharded_retrieve_ms.Add(
          Timed(tracer, "xarch.sharded_retrieve", Tracer::kNone, i, [&] {
            Check(sharded->RetrieveTo(v, sink), "sharded RetrieveTo");
          }) /
          1000.0);
      double shard_us = 0;
      for (size_t s = 0; s < sharded->shard_count(); ++s) {
        CountingSink part;
        shard_us += Timed(tracer, "core.retrieve", Tracer::kNone, i, [&] {
          Check(sharded->shard(s).RetrieveTo(v, part), "shard RetrieveTo");
        });
      }
      retrieve_us.Add(shard_us / sharded->shard_count());
    } else {
      retrieve_us.Add(Timed(tracer, "core.retrieve", Tracer::kNone, i, [&] {
        Check(in.served->RetrieveTo(v, sink), "Store::RetrieveTo");
      }));
    }
  }

  // ---- persist: snapshot open and WAL-tail read, per shard directory.
  Samples open_ms, replay_ms;
  for (size_t r = 0; r < kOpenRepeats; ++r) {
    double open_us = 0, read_us = 0;
    for (const std::string& dir : ShardDirs(in.durable_dir, in.shards)) {
      open_us += Timed(tracer, "core.open", Tracer::kNone, r, [&] {
        Unwrap(StoreRegistry::Open(vfs::Join(dir, "snapshot.xar"), {},
                                   vfs::Vfs::Mmap()),
               "StoreRegistry::Open");
      });
      read_us += Timed(tracer, "persist.replay", Tracer::kNone, r, [&] {
        Unwrap(persist::ReadIngestLog(vfs::Vfs::Mmap(),
                                      vfs::Join(dir, "ingest.log")),
               "persist::ReadIngestLog");
      });
    }
    open_ms.Add(open_us / 1000.0);
    replay_ms.Add(read_us / 1000.0);
  }

  // ---- counters over the timed window.
  auto engine = [&](const std::string& key) {
    return Delta(in.default_before, in.default_after, key) -
           Delta({}, in.default_excluded, key);
  };
  auto server = [&](const std::string& key) {
    return Delta(in.server_before, in.server_after, key);
  };
  auto vfs_delta = [&](const std::string& family, const std::string& frag) {
    return LabeledDelta(in.vfs_before, in.vfs_after, family, frag);
  };
  const double queries = static_cast<double>(in.reads);
  const double rtt_us = Ratio(in.read_us_total, queries);
  const double server_us =
      Ratio(server("xarch_server_query_latency_us_sum"),
            server("xarch_server_query_latency_us_count"));
  const double eval_engine_us = Ratio(engine("xarch_query_duration_us_sum"),
                                      engine("xarch_query_duration_us_count"));
  const StoreStats& s0 = in.stats_before;
  const StoreStats& s1 = in.stats_after;
  const double tree = static_cast<double>(s1.query_tree_probes -
                                          s0.query_tree_probes);
  const double naive = static_cast<double>(s1.query_naive_probes -
                                           s0.query_naive_probes);
  const double comparisons = static_cast<double>(s1.query_comparisons -
                                                 s0.query_comparisons);
  std::vector<double> shard_docs = LabelDeltas(
      in.default_before, in.default_after,
      "xarch_shard_ingest_documents_total");
  double skew = 0;
  if (in.sharded && !shard_docs.empty()) {
    const auto [lo, hi] =
        std::minmax_element(shard_docs.begin(), shard_docs.end());
    skew = *lo > 0 ? *hi / *lo : 0.0;
  }
  const double ingests = static_cast<double>(in.ingests);
  const double mb = bytes / 1e6;

  Result r;
  r.Add("server.session_us", "us", server_us - eval_engine_us);
  r.Add("client.transport_us", "us", rtt_us - server_us);
  r.Add("server.frames_per_query", "count",
        Ratio(server("xarch_server_frames_total"), queries));
  r.Add("server.bytes_out_per_query", "bytes",
        Ratio(static_cast<double>(in.server_bytes_out), queries));
  r.Add("server.frame_codec_us", "us", codec_q.Mean());
  r.Add("server.busy_rejections", "count",
        static_cast<double>(in.server_busy));
  r.Add("query.parse_us", "us", parse_q.Mean());
  r.Add("query.plan_us", "us", plan_q.Mean());
  r.Add("query.eval_us.point", "us", eval_q[kPoint].Mean());
  r.Add("query.eval_us.history", "us", eval_q[kHistory].Mean());
  r.Add("query.eval_us.range", "us", eval_q[kRange].Mean());
  r.Add("query.bytes_per_result", "bytes", Ratio(in.response_bytes, queries));
  r.Add("index.tree_probes_per_query", "count", Ratio(tree, queries));
  r.Add("index.naive_probes_per_query", "count", Ratio(naive, queries));
  r.Add("index.probe_ratio", "ratio", Ratio(tree, naive));
  r.Add("index.comparisons_per_query", "count", Ratio(comparisons, queries));
  r.Add("index.build_ms", "ms", index_ms.Mean());
  r.Add("core.merge_ms_per_mb", "ms/MB", Ratio(merge_us / 1000.0, mb));
  r.Add("core.retrieve_us", "us", retrieve_us.Median());
  r.Add("core.open_ms", "ms", open_ms.Median());
  r.Add("core.nodes", "count", static_cast<double>(archive.CountNodes()));
  r.Add("core.merge_passes", "count", engine("xarch_merge_passes_total"));
  r.Add("xml.parse_mb_per_s", "MB/s", Ratio(mb, parse_us / 1e6));
  r.Add("keys.annotate_mb_per_s", "MB/s", Ratio(mb, annotate_us / 1e6));
  r.Add("xml.serialize_mb_per_s", "MB/s", Ratio(mb, serialize_us / 1e6));
  r.Add("persist.wal_append_us", "us",
        Ratio(engine("xarch_wal_append_duration_us_sum"),
              engine("xarch_wal_append_duration_us_count")));
  r.Add("persist.wal_fsync_us", "us",
        Ratio(engine("xarch_wal_fsync_duration_us_sum"),
              engine("xarch_wal_fsync_duration_us_count")));
  r.Add("persist.fsyncs_per_ingest", "count",
        Ratio(engine("xarch_wal_fsyncs_total"), ingests));
  r.Add("persist.checkpoint_ms", "ms",
        Ratio(engine("xarch_checkpoint_duration_us_sum") / 1000.0,
              engine("xarch_checkpoint_duration_us_count")));
  r.Add("persist.checkpoints", "count", engine("xarch_checkpoint_total"));
  r.Add("persist.replay_ms", "ms", replay_ms.Median());
  r.Add("vfs.write_bytes_per_user_byte", "ratio",
        Ratio(vfs_delta("xarch_vfs_bytes_total", "dir=\"write\""),
              in.ingest_user_bytes));
  r.Add("vfs.read_bytes_per_user_byte", "ratio",
        Ratio(vfs_delta("xarch_vfs_bytes_total", "dir=\"read\""),
              in.ingest_user_bytes));
  r.Add("vfs.fsync_ops", "count",
        vfs_delta("xarch_vfs_ops_total", "op=\"fsync\""));
  r.Add("xarch.scatter_reads_per_query", "count",
        Ratio(engine("xarch_shard_scatter_reads_total"), queries));
  r.Add("xarch.routed_ratio", "ratio",
        Ratio(engine("xarch_shard_routed_queries_total"), queries));
  r.Add("xarch.shard_doc_skew", "ratio", skew);
  r.Add("xarch.sharded_retrieve_ms", "ms", sharded_retrieve_ms.Median());
  r.Add("trace.query_qps_traced", "1/s", in.qps_traced);
  r.Add("trace.query_qps_untraced", "1/s", in.qps_untraced);
  r.Add("trace.ingest_mb_per_s_traced", "MB/s", in.ingest_mbps_traced);
  r.Add("trace.ingest_mb_per_s_untraced", "MB/s", in.ingest_mbps_untraced);

  // ---- the traced-run report: self time per layer against the untraced
  // end-to-end read latency, and the tracing overhead.
  const double mix[kKinds] = {0.45, 0.30, 0.25};
  double eval_mix = 0;
  for (int k = 0; k < kKinds; ++k) eval_mix += mix[k] * eval_q[k].Mean();
  const double parse_plan = parse_q.Mean() + plan_q.Mean();
  const double session_self = server_us - eval_engine_us - parse_plan;
  const double transport = rtt_us - server_us - codec_q.Mean();
  // On a sharded store the engine runs the scatter plan; the replay runs
  // the unsharded archive plan, so the difference is the xarch layer's.
  const double scatter = in.sharded ? eval_engine_us - eval_mix : 0.0;
  const double attributed = transport + codec_q.Mean() + session_self +
                            parse_plan + eval_mix + scatter;
  const double unattributed = rtt_us - attributed;
  r.Add("trace.unattributed_us", "us", unattributed);

  std::fprintf(stderr, "\n%s traced run: self time per read (us, mean of "
               "%llu reads; replay of %zu)\n", options.workload.c_str(),
               static_cast<unsigned long long>(in.reads), parse_q.size());
  const std::pair<const char*, double> rows[] = {
      {"client.transport (minus codec)", transport},
      {"server.frame_codec", codec_q.Mean()},
      {"server.session (minus parse+plan)", session_self},
      {"query.parse", parse_q.Mean()},
      {"query.plan", plan_q.Mean()},
      {"query.eval (replay, read mix)", eval_mix},
      {"xarch.scatter (engine - replay)", scatter},
      {"unattributed remainder", unattributed},
      {"= untraced end-to-end read", rtt_us},
  };
  for (const auto& [name, us] : rows) {
    std::fprintf(stderr, "  %-36s %10.2f\n", name, us);
  }
  std::fprintf(stderr, "  (engine-recorded eval %.2f us vs replayed eval "
               "%.2f us)\n", eval_engine_us, eval_mix);
  if (in.ingests > 0) {
    const double per_ingest_ms = Ratio(in.ingest_us_total / 1000.0, ingests);
    const double wal_ms = Ratio(engine("xarch_wal_append_duration_us_sum"),
                                ingests) / 1000.0;
    const double fsync_ms = Ratio(engine("xarch_wal_fsync_duration_us_sum"),
                                  ingests) / 1000.0;
    const double ckpt_ms = Ratio(engine("xarch_checkpoint_duration_us_sum"),
                                 ingests) / 1000.0;
    const double n = static_cast<double>(in.versions.size());
    const double parse_ms = parse_us / n / 1000.0;
    const double annotate_ms = annotate_us / n / 1000.0;
    const double merge_ms = merge_us / n / 1000.0 - annotate_ms;
    const double index_build = index_ms.Mean();
    const double rest = per_ingest_ms - wal_ms - fsync_ms - ckpt_ms -
                        parse_ms - annotate_ms - merge_ms - index_build;
    std::fprintf(stderr, "%s traced run: self time per ingest (ms, mean of "
                 "%llu ingests)\n", options.workload.c_str(),
                 static_cast<unsigned long long>(in.ingests));
    const std::pair<const char*, double> ingest_rows[] = {
        {"persist.wal_append (minus fsync)", wal_ms - fsync_ms},
        {"persist.wal_fsync", fsync_ms},
        {"persist.checkpoint (amortized)", ckpt_ms},
        {"xml.parse (replay)", parse_ms},
        {"keys.annotate (replay)", annotate_ms},
        {"core.merge (replay, minus annotate)", merge_ms},
        {"index.build (replay)", index_build},
        {"unattributed remainder", rest},
        {"= untraced end-to-end ingest", per_ingest_ms},
    };
    for (const auto& [name, ms] : ingest_rows) {
      std::fprintf(stderr, "  %-36s %10.3f\n", name, ms);
    }
  }
  std::fprintf(stderr,
               "tracing overhead: query_qps traced %.1f vs untraced %.1f "
               "(%+.2f%%); ingest_mb_per_s traced %.3f vs untraced %.3f\n",
               in.qps_traced, in.qps_untraced,
               100.0 * Ratio(in.qps_traced - in.qps_untraced,
                             in.qps_untraced),
               in.ingest_mbps_traced, in.ingest_mbps_untraced);
  std::fprintf(stderr, "spans: %zu in the timed phase, %zu in the replay\n",
               timed_spans, tracer.size() - timed_spans);
  for (const auto& [name, self] : tracer.SelfTimes()) {
    std::fprintf(stderr, "  span %-28s n=%-7zu self %12.1f us total\n",
                 name.c_str(), self.second, self.first);
  }
  if (!options.spans_path.empty() &&
      !tracer.WriteJsonLines(options.spans_path)) {
    Fail("cannot write spans to " + options.spans_path);
  }
  return r;
}

}  // namespace perfbench
