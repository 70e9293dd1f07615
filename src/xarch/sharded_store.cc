#include "xarch/sharded_store.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/container.h"
#include "persist/wire.h"
#include "query/evaluator.h"
#include "query/explain.h"
#include "query/planner.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {

// ------------------------------------------------------------ ShardedStore

ShardedStore::ShardedStore(ShardRouter router,
                           std::vector<std::unique_ptr<Store>> shards,
                           Version committed, ShardedStoreOptions options)
    : router_(std::move(router)),
      shards_(std::move(shards)),
      options_(std::move(options)),
      committed_(committed),
      counters_(new ShardCounters[shards_.size()]) {
  // Register the per-shard families eagerly so their label cardinality
  // equals the shard count from the moment the store exists (the metrics
  // gate checks cardinality, not traffic).
  obs::Registry& reg = obs::Registry::Default();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string labels = "shard=\"" + std::to_string(s) + "\"";
    counters_[s].ingest_documents =
        reg.GetCounter("xarch_shard_ingest_documents_total", labels,
                       "Sub-documents ingested per shard");
    counters_[s].scatter_reads_total =
        reg.GetCounter("xarch_shard_scatter_reads_total", labels,
                       "Scatter read probes (Retrieve/History/Diff) per shard");
    counters_[s].routed_total =
        reg.GetCounter("xarch_shard_routed_queries_total", labels,
                       "Whole queries routed to a single shard by key");
  }
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Make(
    ShardRouter router, std::vector<std::unique_ptr<Store>> shards,
    Version committed, ShardedStoreOptions options) {
  if (shards.size() != router.shard_count()) {
    return Status::InvalidArgument(
        "sharded store needs exactly " +
        std::to_string(router.shard_count()) + " shards, got " +
        std::to_string(shards.size()));
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s] == nullptr) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " is null");
    }
    if (!shards[s]->Has(kBatchIngest)) {
      return Status::InvalidArgument(
          "sharded ingest fans AppendBatch across shards; inner backend \"" +
          shards[s]->name() + "\" does not advertise batch-ingest");
    }
    const Version held = shards[s]->version_count();
    if (held != committed) {
      return Status::DataLoss(
          "shard " + std::to_string(s) + " holds " + std::to_string(held) +
          " versions but the store-level commit point is " +
          std::to_string(committed) +
          " — reopen through the durable layer to realign");
    }
  }
  return std::unique_ptr<ShardedStore>(new ShardedStore(
      std::move(router), std::move(shards), committed, std::move(options)));
}

std::string ShardedStore::name() const {
  return "sharded(" + shards_[0]->name() + ")x" +
         std::to_string(shards_.size());
}

Capabilities ShardedStore::capabilities() const {
  // Scatter reads need only Retrieve(); History/Diff, checkpointing, and
  // snapshots follow the inner backend.
  Capabilities caps = kBatchIngest | kStreamingRetrieve | kQuery;
  caps |= shards_[0]->capabilities() &
          (kTemporalQueries | kCheckpoint | kPersistence);
  return caps;
}

util::ThreadPool& ShardedStore::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : util::ThreadPool::Shared();
}

uint64_t ShardedStore::scatter_reads(size_t i) const {
  return counters_[i].scatter_reads.load(std::memory_order_relaxed);
}

void ShardedStore::CountScatterRead(size_t shard) const {
  counters_[shard].scatter_reads.fetch_add(1, std::memory_order_relaxed);
  counters_[shard].scatter_reads_total->Increment();
}

void ShardedStore::CountRouted(size_t shard) const {
  counters_[shard].routed.fetch_add(1, std::memory_order_relaxed);
  counters_[shard].routed_total->Increment();
}

Status ShardedStore::WithShardsExclusive(
    const std::function<Status(Store&)>& fn) {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  for (const auto& shard : shards_) {
    XARCH_RETURN_NOT_OK(fn(*shard));
  }
  return Status::OK();
}

// ------------------------------------------------------------------ ingest

Status ShardedStore::AppendImpl(std::string_view xml_text) {
  return AppendBatchImpl({xml_text});
}

Status ShardedStore::AppendBatchImpl(
    const std::vector<std::string_view>& texts) {
  if (texts.empty()) return Status::OK();
  // The outer lock is shared (delegated ingest): serialize writers here so
  // readers of other shards keep running while this batch is applied.
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kIoError,
                  "sharded store is poisoned by an earlier partial ingest; "
                  "reopen to realign the shards");
  }

  // Split (and thereby fully validate) every document before any shard is
  // touched: a bad document rejects the whole batch with the store
  // unchanged, preserving the archive backend's batch atomicity.
  std::vector<std::vector<std::string>> split;
  split.reserve(texts.size());
  for (std::string_view text : texts) {
    XARCH_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                           router_.SplitDocument(text));
    split.push_back(std::move(parts));
  }

  // Fan the per-shard batches across the pool: one nested-merge pass per
  // shard, each under its own shard's exclusive lock.
  const size_t n_shards = shards_.size();
  std::vector<Status> applied(n_shards);
  auto apply = [&](size_t s) {
    std::vector<std::string_view> views;
    views.reserve(split.size());
    for (const std::vector<std::string>& parts : split) {
      views.push_back(parts[s]);
    }
    applied[s] = shards_[s]->AppendBatch(views);
  };
  if (n_shards > 1 && pool().size() > 0) {
    pool().ParallelFor(n_shards, apply);
  } else {
    for (size_t s = 0; s < n_shards; ++s) apply(s);
  }

  bool any_ok = false, any_failed = false;
  Status first_failure;
  for (size_t s = 0; s < n_shards; ++s) {
    if (applied[s].ok()) {
      any_ok = true;
    } else {
      any_failed = true;
      if (first_failure.ok()) first_failure = applied[s];
    }
  }
  if (any_failed) {
    if (any_ok) {
      // Shards diverged after validation passed — should not happen for
      // well-formed sub-documents. Refuse further ingest; readers stay at
      // the committed count, which no shard has retracted.
      poisoned_.store(true, std::memory_order_release);
    }
    return first_failure;
  }

  // Commit: make the batch atomic across shards (the durable layer writes
  // the version manifest here), then publish the new count to readers.
  const Version next =
      committed_.load(std::memory_order_relaxed) +
      static_cast<Version>(texts.size());
  if (options_.commit) {
    Status committed_status = options_.commit(next);
    if (!committed_status.ok()) {
      // Applied but not committed: the ingest is NOT acknowledged and a
      // reopen rolls every shard back to the previous manifest.
      poisoned_.store(true, std::memory_order_release);
      return committed_status;
    }
  }
  committed_.store(next, std::memory_order_release);

  static obs::Counter* batches = obs::Registry::Default().GetCounter(
      "xarch_ingest_batches_total", "backend=\"sharded\"",
      "Ingest calls (Append or AppendBatch) by backend");
  static obs::Counter* documents = obs::Registry::Default().GetCounter(
      "xarch_ingest_documents_total", "backend=\"sharded\"",
      "Documents ingested by backend");
  batches->Increment();
  documents->Add(texts.size());
  for (size_t s = 0; s < n_shards; ++s) {
    counters_[s].ingest_documents->Add(texts.size());
  }
  return Status::OK();
}

Status ShardedStore::CheckpointImpl() {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  for (const auto& shard : shards_) {
    if (shard->Has(kCheckpoint)) {
      XARCH_RETURN_NOT_OK(shard->Checkpoint());
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------------- reads

StatusOr<std::string> ShardedStore::MergedRetrieve(Version v) {
  const Version limit = committed();
  if (v == 0 || v > limit) {
    return Status::NotFound("version " + std::to_string(v) +
                            " is not archived (have 1-" +
                            std::to_string(limit) + ")");
  }
  const size_t n_shards = shards_.size();
  std::vector<std::string> parts(n_shards);
  std::vector<Status> fetched(n_shards);
  auto fetch = [&](size_t s) {
    CountScatterRead(s);
    auto part = shards_[s]->Retrieve(v);
    if (part.ok()) {
      parts[s] = std::move(*part);
    } else {
      fetched[s] = part.status();
    }
  };
  if (n_shards > 1 && pool().size() > 0) {
    pool().ParallelFor(n_shards, fetch);
  } else {
    for (size_t s = 0; s < n_shards; ++s) fetch(s);
  }
  for (const Status& status : fetched) {
    XARCH_RETURN_NOT_OK(status);
  }

  // Gather: move every shard's children under one root. Shard order IS
  // global (fingerprint, label) order — the router's range partition is
  // monotone — so plain concatenation reproduces the unsharded archive's
  // child order byte-for-byte.
  xml::NodePtr merged;
  for (size_t s = 0; s < n_shards; ++s) {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(parts[s]));
    if (merged == nullptr) {
      merged = xml::Node::Element(doc->tag());
      for (const auto& [name, value] : doc->attrs()) {
        merged->SetAttr(name, value);
      }
    }
    for (xml::NodePtr& child : doc->mutable_children()) {
      merged->AddChild(std::move(child));
    }
  }
  return xml::Serialize(*merged);
}

StatusOr<std::string> ShardedStore::RetrieveImpl(Version v) {
  return MergedRetrieve(v);
}

Status ShardedStore::RetrieveToImpl(Version v, Sink& sink) {
  XARCH_ASSIGN_OR_RETURN(std::string text, MergedRetrieve(v));
  XARCH_RETURN_NOT_OK(sink.Append(text));
  return sink.Flush();
}

StatusOr<VersionSet> ShardedStore::HistoryImpl(
    const std::vector<core::KeyStep>& path) {
  const Version limit = committed();
  // The second step names a top-level keyed element, which the router maps
  // to at most two candidate shards (stored-form ambiguity); anything
  // shallower lives identically in every shard, so shard 0 is canonical.
  std::vector<size_t> probe;
  if (path.size() >= 2) {
    probe = router_.CandidateShards(path[1]);
  } else {
    probe.assign(1, 0);
  }
  if (probe.empty()) {  // combinatorial blow-up in the router: scatter
    probe.resize(shards_.size());
    std::iota(probe.begin(), probe.end(), size_t{0});
  }

  VersionSet united;
  bool any_ok = false;
  Status first_miss;
  for (size_t s : probe) {
    CountScatterRead(s);
    auto history = shards_[s]->History(path);
    if (history.ok()) {
      united.UnionWith(*history);
      any_ok = true;
    } else if (history.status().code() == StatusCode::kNotFound) {
      if (first_miss.ok()) first_miss = history.status();
    } else {
      return history.status();
    }
  }
  if (!any_ok) return first_miss;
  // Clamp to the commit point: a shard mid-ingest may already hold a
  // version the manifest has not published.
  if (limit == 0) {
    return Status::NotFound("no element " + path.back().tag +
                            " on the given path");
  }
  VersionSet clamped = united.IntersectWith(VersionSet::Interval(1, limit));
  if (clamped.empty()) {
    return Status::NotFound("no element " + path.back().tag +
                            " on the given path");
  }
  return clamped;
}

StatusOr<std::vector<core::Change>> ShardedStore::DiffVersionsImpl(
    Version from, Version to) {
  const Version limit = committed();
  if (from == 0 || to == 0 || from > limit || to > limit) {
    // Byte-identical to core::DescribeChanges' own range error.
    return Status::InvalidArgument("versions must be in 1-" +
                                   std::to_string(limit));
  }
  const size_t n_shards = shards_.size();
  std::vector<std::vector<core::Change>> per_shard(n_shards);
  std::vector<Status> ran(n_shards);
  auto diff = [&](size_t s) {
    CountScatterRead(s);
    auto changes = shards_[s]->DiffVersions(from, to);
    if (changes.ok()) {
      per_shard[s] = std::move(*changes);
    } else {
      ran[s] = changes.status();
    }
  };
  if (n_shards > 1 && pool().size() > 0) {
    pool().ParallelFor(n_shards, diff);
  } else {
    for (size_t s = 0; s < n_shards; ++s) diff(s);
  }
  for (const Status& status : ran) {
    XARCH_RETURN_NOT_OK(status);
  }
  // Per-shard change lists concatenate in shard order = the unsharded
  // walk's top-level (fingerprint, label) order.
  std::vector<core::Change> merged;
  size_t total = 0;
  for (const auto& changes : per_shard) total += changes.size();
  merged.reserve(total);
  for (auto& changes : per_shard) {
    std::move(changes.begin(), changes.end(), std::back_inserter(merged));
  }
  return merged;
}

// ------------------------------------------------------------------ queries

Status ShardedStore::QueryImpl(std::string_view query_text, Sink& sink,
                               obs::Trace* trace) {
  obs::Trace analyze_trace;
  XARCH_ASSIGN_OR_RETURN(
      query::Plan plan,
      query::ParseAndPlan(query_text, &analyze_trace, &trace,
                          [](const query::Query&) {
                            return query::Access::kShardScatter;
                          }));

  // Routed fast path: a query whose second step names one top-level
  // label (ShardRouter::NamesOneLabel) that pins one shard is answered
  // wholly by that shard's own (possibly indexed, streaming) plan —
  // byte-identical because the matched subtree lives there whole and
  // shard version numbering is global. History is excluded (its result
  // must be clamped to the commit point, which the inner store cannot do;
  // HistoryImpl routes it instead). EXPLAIN reports the shard's plan.
  const Version limit = committed();
  const query::Temporal& temporal = plan.ast.temporal;
  const bool bounded =
      (temporal.kind == query::TemporalKind::kVersion &&
       temporal.from >= 1 && temporal.from <= limit) ||
      ((temporal.kind == query::TemporalKind::kRange ||
        temporal.kind == query::TemporalKind::kDiff) &&
       temporal.from >= 1 && temporal.from <= limit && temporal.to >= 1 &&
       temporal.to <= limit);
  const std::vector<query::Step>& steps = plan.ast.steps;
  if (bounded && steps.size() >= 2 &&
      router_.NamesOneLabel(steps[0].tag, steps[1])) {
    std::vector<size_t> candidates =
        router_.CandidateShards(steps[1].ToKeyStep());
    if (candidates.size() == 1) {
      const size_t s = candidates[0];
      CountRouted(s);
      // The inner store counts this evaluation in its own stats, which
      // BackendStats() sums — no CountQuery here, or it would be double.
      if (!plan.ast.explain) return shards_[s]->Query(query_text, sink, trace);
      // The shard's own report, with the routing under its access line.
      StringSink shard_report;
      XARCH_RETURN_NOT_OK(shards_[s]->Query(query_text, shard_report, trace));
      std::string report = std::move(shard_report).Take();
      const size_t access = report.find("\naccess: ");
      const size_t at = access == std::string::npos
                            ? report.size()
                            : report.find('\n', access + 1) + 1;
      report.insert(at, "routed: shard " + std::to_string(s) + " of " +
                            std::to_string(shards_.size()) + "\n");
      XARCH_RETURN_NOT_OK(sink.Append(report));
      return sink.Flush();
    }
  }

  // Scatter path: the interface-level plan over this store's primitives —
  // every Retrieve/History/DiffVersions inside it scatters to (or routes
  // within) the shards via the Impl hooks above.
  StorePrimitives primitives = Primitives();
  query::EvalOptions eval_options;
  eval_options.pool = &pool();
  eval_options.trace = trace;
  std::vector<uint64_t> before(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    before[s] = counters_[s].scatter_reads.load(std::memory_order_relaxed);
  }
  query::EvalResult result;
  Status status;
  if (plan.ast.explain) {
    CountingSink discard;
    Status eval_status = query::EvaluateOverStore(plan, primitives, discard,
                                                  &result, eval_options);
    for (size_t s = 0; s < shards_.size(); ++s) {
      const uint64_t probes =
          counters_[s].scatter_reads.load(std::memory_order_relaxed) -
          before[s];
      result.shards.push_back({s, probes});
    }
    CountQuery(result);
    XARCH_RETURN_NOT_OK(sink.Append(
        query::FormatExplain(plan, result, eval_status, eval_options.trace)));
    return sink.Flush();
  }
  status = query::EvaluateOverStore(plan, primitives, sink, &result,
                                    eval_options);
  CountQuery(result);
  return status;
}

// ------------------------------------------------------------ introspection

Version ShardedStore::VersionCountImpl() const { return committed(); }

StoreStats ShardedStore::BackendStats() const {
  StoreStats stats;
  stats.versions = committed();
  for (const auto& shard : shards_) {
    StoreStats inner = shard->Stats();
    stats.stored_bytes += inner.stored_bytes;
    stats.node_count += inner.node_count;
    stats.merge_passes += inner.merge_passes;
    // Shards checkpoint at the same boundaries, so these are parallel
    // copies of one logical value — report the worst shard, not the sum.
    stats.checkpoint_segments =
        std::max(stats.checkpoint_segments, inner.checkpoint_segments);
    stats.max_retrieval_applications =
        std::max(stats.max_retrieval_applications,
                 inner.max_retrieval_applications);
    stats.queries += inner.queries;
    stats.query_tree_probes += inner.query_tree_probes;
    stats.query_naive_probes += inner.query_naive_probes;
    stats.query_comparisons += inner.query_comparisons;
  }
  return stats;
}

std::string ShardedStore::StoredBytesImpl() const {
  std::string out;
  for (const auto& shard : shards_) {
    out += shard->StoredBytes();
  }
  return out;
}

Status ShardedStore::SnapshotImpl(persist::SnapshotWriter& writer) const {
  // Exclude a concurrent commit so every shard section captures the same
  // committed version count (the outer lock is only shared for us).
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  writer.Add("backend", "sharded");
  writer.Add("spec", router_.spec().ToText());
  std::string opts;
  persist::PutU32(static_cast<uint32_t>(shards_.size()), &opts);
  persist::PutU64(committed(), &opts);
  persist::PutU32(
      static_cast<uint32_t>(router_.annotate_options().fingerprint_bits),
      &opts);
  persist::PutU8(router_.annotate_options().sort_children ? 1 : 0, &opts);
  writer.Add("opts", std::move(opts));
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Each shard section is the shard's own snapshot container, nested
    // whole (it is self-describing and carries its own checksums) and
    // stored raw, so a reopen restores it without an LZSS decode. Files
    // that stored it compressed still open: the section flag says which.
    XARCH_ASSIGN_OR_RETURN(std::string bytes, shards_[s]->SaveToBytes());
    writer.AddRaw("shard" + std::to_string(s), std::move(bytes));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- registry

namespace {

/// Per-shard construction/tuning options derived from the sharded store's
/// own: everything copies through except the spec (cloned — it is
/// move-only) and the extmem work dir (suffixed so shards do not collide).
StatusOr<StoreOptions> ShardStoreOptions(const StoreOptions& base, size_t s) {
  StoreOptions out;
  if (base.spec.size() != 0) {
    XARCH_ASSIGN_OR_RETURN(out.spec, base.spec.Clone());
  }
  out.archive = base.archive;
  out.checkpoint_every = base.checkpoint_every;
  out.extmem = base.extmem;
  if (base.extmem.work_dir !=
      extmem::ExternalArchiver::Options{}.work_dir) {
    out.extmem.work_dir = base.extmem.work_dir + "-shard" + std::to_string(s);
  }
  out.inner = "archive";
  out.use_index = base.use_index;
  out.shards = 1;
  return out;
}

StatusOr<std::unique_ptr<Store>> MakeShardedBackend(StoreOptions options) {
  if (options.spec.size() == 0) {
    return Status::InvalidArgument(
        "sharded requires StoreOptions::spec (a non-empty key "
        "specification): top-level keys are the partitioning domain");
  }
  const std::string inner = options.inner.empty() ? "archive" : options.inner;
  if (inner == "sharded") {
    return Status::InvalidArgument("\"sharded\" cannot wrap itself");
  }
  XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet router_spec, options.spec.Clone());
  XARCH_ASSIGN_OR_RETURN(
      ShardRouter router,
      ShardRouter::Make(std::move(router_spec), options.shards,
                        options.archive.annotate));
  std::vector<std::unique_ptr<Store>> shards;
  shards.reserve(router.shard_count());
  for (size_t s = 0; s < router.shard_count(); ++s) {
    XARCH_ASSIGN_OR_RETURN(StoreOptions shard_options,
                           ShardStoreOptions(options, s));
    XARCH_ASSIGN_OR_RETURN(
        std::unique_ptr<Store> shard,
        StoreRegistry::Create(inner, std::move(shard_options)));
    shards.push_back(std::move(shard));
  }
  XARCH_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStore> store,
      ShardedStore::Make(std::move(router), std::move(shards), 0, {}));
  return std::unique_ptr<Store>(std::move(store));
}

StatusOr<std::unique_ptr<Store>> RestoreShardedBackend(
    const persist::SnapshotView& snapshot, StoreOptions tuning) {
  XARCH_ASSIGN_OR_RETURN(std::string spec_text,
                         snapshot.SectionString("spec"));
  auto spec = keys::ParseKeySpecSet(spec_text);
  if (!spec.ok()) {
    return Status::DataLoss("snapshot key specification does not parse: " +
                            spec.status().message());
  }
  XARCH_ASSIGN_OR_RETURN(std::string opts, snapshot.SectionString("opts"));
  persist::Cursor cursor(opts);
  uint32_t n_shards = 0, fingerprint_bits = 0;
  uint64_t committed = 0;
  uint8_t sort_children = 0;
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&n_shards));
  XARCH_RETURN_NOT_OK(cursor.ReadU64(&committed));
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&fingerprint_bits));
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&sort_children));
  XARCH_RETURN_NOT_OK(cursor.ExpectDone());
  if (n_shards < 1 || n_shards > ShardRouter::kMaxShards ||
      fingerprint_bits == 0 || fingerprint_bits > 64) {
    return Status::DataLoss("sharded snapshot options are out of range");
  }
  keys::AnnotateOptions annotate;
  annotate.fingerprint_bits = static_cast<int>(fingerprint_bits);
  annotate.sort_children = sort_children != 0;
  XARCH_ASSIGN_OR_RETURN(
      ShardRouter router,
      ShardRouter::Make(std::move(*spec), n_shards, annotate));
  std::vector<std::unique_ptr<Store>> shards;
  shards.reserve(n_shards);
  for (uint32_t s = 0; s < n_shards; ++s) {
    XARCH_ASSIGN_OR_RETURN(std::string bytes,
                           snapshot.SectionString("shard" + std::to_string(s)));
    XARCH_ASSIGN_OR_RETURN(StoreOptions shard_tuning,
                           ShardStoreOptions(tuning, s));
    XARCH_ASSIGN_OR_RETURN(std::unique_ptr<Store> shard,
                           StoreRegistry::Global().OpenFromBytes(
                               std::move(bytes), std::move(shard_tuning)));
    shards.push_back(std::move(shard));
  }
  XARCH_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStore> store,
      ShardedStore::Make(std::move(router), std::move(shards),
                         static_cast<Version>(committed), {}));
  return std::unique_ptr<Store>(std::move(store));
}

}  // namespace

namespace detail {

void RegisterShardedStore(StoreRegistry& registry) {
  Status status = registry.Register({
      "sharded",
      "K independent key-range shards of StoreOptions::inner, parallel "
      "ingest and scatter/gather queries (StoreOptions::shards)",
      kTemporalQueries | kStreamingRetrieve | kBatchIngest | kQuery |
          kPersistence,
      MakeShardedBackend,
      RestoreShardedBackend,
  });
  (void)status;
  assert(status.ok());
}

}  // namespace detail

}  // namespace xarch
