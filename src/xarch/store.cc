#include "xarch/store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <filesystem>
#include <optional>
#include <utility>

#include "compress/container.h"
#include "compress/lzss.h"
#include "core/flat_archive.h"
#include "core/scan.h"
#include "core/tree_view.h"
#include "persist/container.h"
#include "persist/wire.h"
#include "diff/repository.h"
#include "index/archive_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/explain.h"
#include "query/planner.h"
#include "util/thread_pool.h"
#include "vfs/vfs.h"
#include "xarch/checkpoint.h"
#include "xarch/sharded_store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {

std::string CapabilitiesToString(Capabilities caps) {
  static constexpr std::pair<Capability, const char*> kNames[] = {
      {kTemporalQueries, "temporal-queries"},
      {kStreamingRetrieve, "streaming-retrieve"},
      {kBatchIngest, "batch-ingest"},
      {kCheckpoint, "checkpoint"},
      {kQuery, "query"},
      {kPersistence, "persist"},
  };
  std::string out;
  for (const auto& [flag, name] : kNames) {
    if ((caps & flag) == 0) continue;
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

// ------------------------------------------------------ StorePrimitives

std::string StorePrimitives::name() const { return store_.name(); }

bool StorePrimitives::Has(Capabilities mask) const {
  return store_.Has(mask);
}

Version StorePrimitives::version_count() const {
  return store_.VersionCountImpl();
}

StatusOr<std::string> StorePrimitives::Retrieve(Version v) {
  return store_.RetrieveImpl(v);
}

StatusOr<VersionSet> StorePrimitives::History(
    const std::vector<core::KeyStep>& path) {
  return store_.HistoryImpl(path);
}

StatusOr<std::vector<core::Change>> StorePrimitives::DiffVersions(
    Version from, Version to) {
  return store_.DiffVersionsImpl(from, to);
}

bool StorePrimitives::concurrent_reads() const {
  return store_.read_safety() == Store::ReadSafety::kConcurrent;
}

// ---------------------------------------------- Store public API (locked)

Status Store::Append(std::string_view xml_text) {
  IngestLock lock(*this);
  return AppendImpl(xml_text);
}

Status Store::AppendBatch(const std::vector<std::string_view>& xml_texts) {
  if (!Has(kBatchIngest)) return UnimplementedCall("AppendBatch", kBatchIngest);
  IngestLock lock(*this);
  return AppendBatchImpl(xml_texts);
}

Status Store::Checkpoint() {
  if (!Has(kCheckpoint)) return UnimplementedCall("Checkpoint", kCheckpoint);
  IngestLock lock(*this);
  return CheckpointImpl();
}

StatusOr<std::string> Store::Retrieve(Version v) {
  ReadLock lock(*this);
  return RetrieveImpl(v);
}

Status Store::RetrieveTo(Version v, Sink& sink) {
  if (!Has(kStreamingRetrieve)) {
    return UnimplementedCall("RetrieveTo", kStreamingRetrieve);
  }
  ReadLock lock(*this);
  return RetrieveToImpl(v, sink);
}

StatusOr<VersionSet> Store::History(const std::vector<core::KeyStep>& path) {
  if (!Has(kTemporalQueries)) {
    return UnimplementedCall("History", kTemporalQueries);
  }
  ReadLock lock(*this);
  return HistoryImpl(path);
}

StatusOr<std::vector<core::Change>> Store::DiffVersions(Version from,
                                                        Version to) {
  if (!Has(kTemporalQueries)) {
    return UnimplementedCall("DiffVersions", kTemporalQueries);
  }
  ReadLock lock(*this);
  return DiffVersionsImpl(from, to);
}

Status Store::Query(std::string_view query_text, Sink& sink,
                    obs::Trace* trace) {
  if (!Has(kQuery)) return UnimplementedCall("Query", kQuery);
  ReadLock lock(*this);
  return QueryImpl(query_text, sink, trace);
}

Version Store::version_count() const {
  ReadLock lock(*this);
  return VersionCountImpl();
}

StoreStats Store::Stats() const {
  ReadLock lock(*this);
  StoreStats stats = BackendStats();
  stats.queries += query_counters_.queries.load(std::memory_order_relaxed);
  stats.query_tree_probes +=
      query_counters_.tree_probes.load(std::memory_order_relaxed);
  stats.query_naive_probes +=
      query_counters_.naive_probes.load(std::memory_order_relaxed);
  stats.query_comparisons +=
      query_counters_.comparisons.load(std::memory_order_relaxed);
  return stats;
}

std::string Store::StoredBytes() const {
  ReadLock lock(*this);
  return StoredBytesImpl();
}

Status Store::SaveToFile(const std::string& path, vfs::Vfs* vfs) const {
  if (!Has(kPersistence)) {
    return UnimplementedCall("SaveToFile", kPersistence);
  }
  std::string bytes;
  {
    ReadLock lock(*this);
    XARCH_ASSIGN_OR_RETURN(bytes, SnapshotBytesImpl());
  }
  // File I/O runs outside the lock: the snapshot string is already a
  // consistent point-in-time image.
  if (vfs == nullptr) vfs = vfs::Vfs::Posix();
  return vfs::AtomicWriteFile(*vfs, path, bytes, /*sync=*/true);
}

StatusOr<std::string> Store::SaveToBytes() const {
  if (!Has(kPersistence)) {
    return UnimplementedCall("SaveToBytes", kPersistence);
  }
  ReadLock lock(*this);
  return SnapshotBytesImpl();
}

// ------------------------------------------------- Store defaults (hooks)

Status Store::AppendBatchByLoop(const std::vector<std::string_view>& texts) {
  for (std::string_view text : texts) {
    XARCH_RETURN_NOT_OK(AppendImpl(text));
  }
  return Status::OK();
}

Status Store::UnimplementedCall(const char* call, Capability needed) const {
  return Status::Unimplemented(
      std::string(call) + " requires capability " +
      CapabilitiesToString(needed) + ", which store \"" + name() +
      "\" does not advertise");
}

Status Store::AppendBatchImpl(const std::vector<std::string_view>& xml_texts) {
  return AppendBatchByLoop(xml_texts);
}

Status Store::RetrieveToImpl(Version, Sink&) {
  return UnimplementedCall("RetrieveTo", kStreamingRetrieve);
}

StatusOr<VersionSet> Store::HistoryImpl(const std::vector<core::KeyStep>&) {
  return UnimplementedCall("History", kTemporalQueries);
}

StatusOr<std::vector<core::Change>> Store::DiffVersionsImpl(Version, Version) {
  return UnimplementedCall("DiffVersions", kTemporalQueries);
}

Status Store::CheckpointImpl() {
  return UnimplementedCall("Checkpoint", kCheckpoint);
}

Status Store::SnapshotImpl(persist::SnapshotWriter&) const {
  return UnimplementedCall("SaveToFile", kPersistence);
}

StatusOr<std::string> Store::SnapshotBytesImpl() const {
  persist::SnapshotWriter writer;
  XARCH_RETURN_NOT_OK(SnapshotImpl(writer));
  return writer.Serialize();
}

void Store::CountQuery(const query::EvalResult& result) {
  query_counters_.queries.fetch_add(1, std::memory_order_relaxed);
  query_counters_.tree_probes.fetch_add(result.probes.tree_probes,
                                        std::memory_order_relaxed);
  query_counters_.naive_probes.fetch_add(result.probes.naive_probes,
                                         std::memory_order_relaxed);
  query_counters_.comparisons.fetch_add(result.probes.comparisons,
                                        std::memory_order_relaxed);
}

Status Store::QueryImpl(std::string_view query_text, Sink& sink,
                        obs::Trace* trace) {
  obs::Trace analyze_trace;
  XARCH_ASSIGN_OR_RETURN(
      query::Plan plan,
      query::ParseAndPlan(query_text, &analyze_trace, &trace,
                          [](const query::Query&) {
                            return query::Access::kGeneric;
                          }));
  StorePrimitives primitives = Primitives();
  query::EvalOptions eval_options;
  // Range fan-out is safe only for backends whose reads are const: the
  // public Query call above holds the shared lock, so pool workers may
  // drive the read hooks in parallel. (EvaluateOverStore re-checks
  // concurrent_reads() before fanning out.)
  eval_options.pool = &util::ThreadPool::Shared();
  eval_options.trace = trace;
  query::EvalResult result;
  Status status =
      plan.ast.explain
          ? query::ExplainOverStore(plan, primitives, sink, &result,
                                    eval_options)
          : query::EvaluateOverStore(plan, primitives, sink, &result,
                                     eval_options);
  CountQuery(result);
  return status;
}

namespace {

// ------------------------------------------------------ snapshot helpers

/// The snapshot's "spec" section: the key specification in the Appendix B
/// text format (KeySpecSet::ToText), the same external metadata a live
/// archive is configured with — snapshots embed it so a reopened store
/// needs no side channel.
StatusOr<keys::KeySpecSet> SpecFromSnapshot(
    const persist::SnapshotView& snapshot) {
  XARCH_ASSIGN_OR_RETURN(std::string text, snapshot.SectionString("spec"));
  auto spec = keys::ParseKeySpecSet(text);
  if (!spec.ok()) {
    return Status::DataLoss("snapshot key specification does not parse: " +
                            spec.status().message());
  }
  return spec;
}

void EncodeArchiveOptions(const core::ArchiveOptions& options,
                          std::string* out) {
  persist::PutU8(
      options.frontier == core::FrontierStrategy::kWeave ? 1 : 0, out);
  persist::PutU32(static_cast<uint32_t>(options.annotate.fingerprint_bits),
                  out);
  persist::PutU8(options.annotate.sort_children ? 1 : 0, out);
}

Status DecodeArchiveOptions(persist::Cursor& cursor,
                            core::ArchiveOptions* options) {
  uint8_t frontier = 0, sort_children = 0;
  uint32_t fingerprint_bits = 0;
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&frontier));
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&fingerprint_bits));
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&sort_children));
  if (frontier > 1 || fingerprint_bits == 0 || fingerprint_bits > 64) {
    return Status::DataLoss("snapshot archive options are out of range");
  }
  options->frontier = frontier != 0 ? core::FrontierStrategy::kWeave
                                    : core::FrontierStrategy::kBuckets;
  options->annotate.fingerprint_bits = static_cast<int>(fingerprint_bits);
  options->annotate.sort_children = sort_children != 0;
  return Status::OK();
}

/// Loads one archive XML snapshot section onto the heap (XAR1 archive
/// stores, checkpoint-archive segments), running the full structural
/// Check so a snapshot that passed its CRCs but violates archive
/// invariants is still rejected.
StatusOr<core::Archive> ArchiveFromSection(
    const persist::SnapshotView& snapshot, const std::string& section,
    keys::KeySpecSet spec, core::ArchiveOptions options) {
  XARCH_ASSIGN_OR_RETURN(std::string xml, snapshot.SectionString(section));
  auto archive = core::Archive::FromXml(xml, std::move(spec), options);
  if (!archive.ok()) return archive;
  XARCH_RETURN_NOT_OK(archive->Check());
  return archive;
}

// ------------------------------------------------------- ingest metrics

/// Per-backend ingest instruments in the process registry. Stores of the
/// same backend name share the instruments (the registry dedups on
/// name+labels), so totals aggregate across instances.
struct IngestMetrics {
  obs::Counter* batches;
  obs::Counter* documents;
  obs::Counter* merge_passes;
  obs::Histogram* batch_size;

  void Record(size_t documents_in_batch) const {
    batches->Increment();
    documents->Add(documents_in_batch);
    merge_passes->Increment();
    batch_size->Record(documents_in_batch);
  }
};

IngestMetrics MakeIngestMetrics(const std::string& backend) {
  obs::Registry& reg = obs::Registry::Default();
  const std::string labels = "backend=\"" + backend + "\"";
  IngestMetrics m;
  m.batches =
      reg.GetCounter("xarch_ingest_batches_total", labels,
                     "Ingest calls (Append or AppendBatch) by backend");
  m.documents = reg.GetCounter("xarch_ingest_documents_total", labels,
                               "Documents ingested by backend");
  m.merge_passes = reg.GetCounter("xarch_merge_passes_total", labels,
                                  "Nested-merge traversals by backend");
  m.batch_size = reg.GetHistogram("xarch_ingest_batch_size", labels,
                                  "Documents per ingest call");
  return m;
}

// --------------------------------------------------------------- archive

/// The "spec" and "opts" sections of an archive snapshot, decoded.
struct ArchiveConfig {
  keys::KeySpecSet spec;
  core::ArchiveOptions options;
  bool use_index = false;
};

StatusOr<ArchiveConfig> DecodeArchiveConfig(
    const persist::SnapshotView& snapshot, const char* name,
    core::FrontierStrategy expected_frontier) {
  ArchiveConfig config;
  XARCH_ASSIGN_OR_RETURN(config.spec, SpecFromSnapshot(snapshot));
  XARCH_ASSIGN_OR_RETURN(std::string opts, snapshot.SectionString("opts"));
  persist::Cursor cursor(opts);
  uint8_t use_index = 0;
  XARCH_RETURN_NOT_OK(DecodeArchiveOptions(cursor, &config.options));
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&use_index));
  XARCH_RETURN_NOT_OK(cursor.ExpectDone());
  if (config.options.frontier != expected_frontier) {
    return Status::DataLoss(
        std::string("snapshot frontier strategy does not match backend \"") +
        name + "\"");
  }
  config.use_index = use_index != 0;
  return config;
}

/// The paper's key-based archive (bucket or weave frontier) behind Store.
///
/// Every read hook has one body over an ArchiveView plus an optional
/// ArchiveIndex, and a store is in one of two states. Opened from an XAR2
/// snapshot it is mapped: the flat view and the persisted index pages,
/// navigated in place, so open is O(mmap + checksum verify) and no read
/// (retrieve, history, query, diff) allocates a heap node. The first
/// ingest decodes the heap archive from the flat records and drops the
/// mapping; from then on reads go through HeapArchiveView and index pages
/// built from the heap archive, which every ingest republishes. Stores
/// created empty or restored from XAR1 are on the heap from the start.
class ArchiveStore final : public Store {
 public:
  /// The mapped state of a store opened from XAR2, until its first ingest.
  struct Mapping {
    Mapping(persist::SnapshotView snapshot, core::FlatArchive flat,
            ArchiveConfig config)
        : snapshot(std::move(snapshot)),
          flat(std::move(flat)),
          view(&this->flat),
          config(std::move(config)) {}

    persist::SnapshotView snapshot;
    core::FlatArchive flat;  // views into snapshot's bytes
    core::FlatArchiveView view;
    std::optional<index::ArchiveIndex> index;  // when the snapshot has one
    ArchiveConfig config;  // to decode the heap archive
  };

  /// Heap-backed: a fresh archive, or one parsed from an XAR1 snapshot.
  /// The index is built here even over an empty archive, so readers never
  /// see a null index while use_index_ is set.
  ArchiveStore(std::string name, core::Archive archive, bool use_index)
      : name_(std::move(name)),
        use_index_(use_index),
        ingest_metrics_(MakeIngestMetrics(name_)),
        archive_(std::make_shared<core::Archive>(std::move(archive))),
        heap_view_(archive_.get()) {
    PublishIndex();
  }

  /// Mapped: reads navigate the snapshot until the first ingest.
  ArchiveStore(std::string name, std::unique_ptr<Mapping> mapping)
      : name_(std::move(name)),
        use_index_(mapping->config.use_index),
        ingest_metrics_(MakeIngestMetrics(name_)),
        mapping_(std::move(mapping)),
        heap_view_(nullptr) {}

  std::string name() const override { return name_; }
  Capabilities capabilities() const override {
    return kTemporalQueries | kStreamingRetrieve | kBatchIngest | kQuery |
           kPersistence;
  }

  /// Attaches the flat sections (and index pages when present) of a
  /// verified snapshot view. A legacy XAR1 snapshot has no flat sections;
  /// its archive section is parsed onto the heap instead.
  static StatusOr<std::unique_ptr<Store>> Restore(
      const persist::SnapshotView& snapshot, const char* name,
      core::FrontierStrategy expected_frontier) {
    XARCH_ASSIGN_OR_RETURN(
        ArchiveConfig config,
        DecodeArchiveConfig(snapshot, name, expected_frontier));
    if (!snapshot.HasSection("nodes")) {
      XARCH_ASSIGN_OR_RETURN(
          core::Archive archive,
          ArchiveFromSection(snapshot, "archive", std::move(config.spec),
                             config.options));
      return std::unique_ptr<Store>(std::make_unique<ArchiveStore>(
          name, std::move(archive), config.use_index));
    }
    core::FlatArchive::Sections sections;
    XARCH_ASSIGN_OR_RETURN(sections.meta, snapshot.RawSection("meta"));
    XARCH_ASSIGN_OR_RETURN(sections.strings, snapshot.RawSection("strings"));
    XARCH_ASSIGN_OR_RETURN(sections.stamps, snapshot.RawSection("stamps"));
    XARCH_ASSIGN_OR_RETURN(sections.nodes, snapshot.RawSection("nodes"));
    XARCH_ASSIGN_OR_RETURN(sections.parts, snapshot.RawSection("parts"));
    XARCH_ASSIGN_OR_RETURN(sections.attrs, snapshot.RawSection("attrs"));
    XARCH_ASSIGN_OR_RETURN(sections.buckets, snapshot.RawSection("buckets"));
    XARCH_ASSIGN_OR_RETURN(sections.content, snapshot.RawSection("content"));
    XARCH_ASSIGN_OR_RETURN(core::FlatArchive flat,
                           core::FlatArchive::Attach(sections));
    auto mapping =
        std::make_unique<Mapping>(snapshot, std::move(flat), std::move(config));
    if (snapshot.HasSection("index")) {
      XARCH_ASSIGN_OR_RETURN(std::string_view pages,
                             snapshot.RawSection("index"));
      XARCH_ASSIGN_OR_RETURN(
          index::ArchiveIndex index,
          index::ArchiveIndex::Attach(&mapping->flat, pages));
      mapping->index.emplace(std::move(index));
    }
    return std::unique_ptr<Store>(
        std::make_unique<ArchiveStore>(name, std::move(mapping)));
  }

 protected:
  Status AppendImpl(std::string_view xml_text) override {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(xml_text));
    XARCH_RETURN_NOT_OK(Promote());
    XARCH_RETURN_NOT_OK(archive_->AddVersion(*doc));
    PublishIndex();
    ingest_metrics_.Record(1);
    return Status::OK();
  }

  Status AppendBatchImpl(
      const std::vector<std::string_view>& xml_texts) override {
    std::vector<xml::NodePtr> docs;
    docs.reserve(xml_texts.size());
    std::vector<const xml::Node*> roots;
    roots.reserve(xml_texts.size());
    for (std::string_view text : xml_texts) {
      XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(text));
      roots.push_back(doc.get());
      docs.push_back(std::move(doc));
    }
    XARCH_RETURN_NOT_OK(Promote());
    XARCH_RETURN_NOT_OK(archive_->AddVersions(roots));  // one merge pass
    PublishIndex();
    ingest_metrics_.Record(xml_texts.size());
    return Status::OK();
  }

  StatusOr<std::string> RetrieveImpl(Version v) override {
    StringSink sink;
    XARCH_RETURN_NOT_OK(RetrieveToImpl(v, sink));
    return std::move(sink).Take();
  }

  Status RetrieveToImpl(Version v, Sink& sink) override {
    const core::ArchiveView& view = View();
    if (v == 0 || v > view.version_count()) {
      return Status::NotFound("version " + std::to_string(v) +
                              " is not archived (have 1-" +
                              std::to_string(view.version_count()) + ")");
    }
    // The Sec. 7.1 scan fused with serialization: straight off the merged
    // hierarchy, no xml::Node is ever constructed.
    core::ScanCursor cursor(
        xml::SerializeOptions{},
        [&sink](std::string_view chunk) { return sink.Append(chunk); });
    const core::ArchiveView::NodeId root = view.Root();
    for (size_t i = 0; i < view.ChildCount(root); ++i) {
      const core::ArchiveView::NodeId child = view.Child(root, i);
      if (view.HasStamp(child) && !view.StampContains(child, v)) continue;
      XARCH_RETURN_NOT_OK(cursor.Scan(view, child, v, 0));
      break;  // exactly one top element is active per version
    }
    XARCH_RETURN_NOT_OK(cursor.Finish());
    return sink.Flush();
  }

  StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path) override {
    if (const index::ArchiveIndex* index = Index()) {
      return index->History(path, nullptr);
    }
    return core::HistoryOverView(View(), path);
  }

  StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                       Version to) override {
    return core::DescribeChanges(View(), from, to);
  }

  Status QueryImpl(std::string_view query_text, Sink& sink,
                   obs::Trace* trace) override {
    // Diff queries run the change walk and never touch the index. The heap
    // index was published by the last ingest, under the writer lock — the
    // read path only ever dereferences it (the Sec. 7 stale-index hazard
    // is handled at ingest, where it belongs).
    assert(mapping_ != nullptr || index_ == nullptr ||
           index_->built_at_generation() == archive_->ingest_generation());
    const index::ArchiveIndex* index = nullptr;
    obs::Trace analyze_trace;
    XARCH_ASSIGN_OR_RETURN(
        query::Plan plan,
        query::ParseAndPlan(query_text, &analyze_trace, &trace,
                            [&](const query::Query& ast) {
                              if (ast.temporal.kind !=
                                  query::TemporalKind::kDiff) {
                                index = Index();
                              }
                              return index != nullptr
                                         ? query::Access::kArchiveIndexed
                                         : query::Access::kArchiveScan;
                            }));
    query::EvalOptions eval_options;
    eval_options.pool = &util::ThreadPool::Shared();
    eval_options.trace = trace;
    query::EvalResult result;
    Status status = plan.ast.explain
                        ? query::ExplainView(plan, View(), index, sink,
                                             &result, eval_options)
                        : query::EvaluateView(plan, View(), index, sink,
                                              &result, eval_options);
    CountQuery(result);
    return status;
  }

  Version VersionCountImpl() const override { return View().version_count(); }

  StoreStats BackendStats() const override {
    StoreStats stats;
    stats.versions = View().version_count();
    auto heap = HeapArchive();
    if (heap.ok()) {
      stats.stored_bytes = ArchiveBytes(**heap).size();
      stats.node_count = (*heap)->CountNodes();
      stats.merge_passes = (*heap)->merge_pass_count();
    }
    return stats;
  }

  std::string StoredBytesImpl() const override {
    auto heap = HeapArchive();
    return heap.ok() ? ArchiveBytes(**heap) : std::string();
  }

  StatusOr<std::string> SnapshotBytesImpl() const override {
    // Unmodified since open, the snapshot is the mapped file itself.
    if (mapping_ != nullptr) return std::string(mapping_->snapshot.bytes());
    std::string opts;
    EncodeArchiveOptions(archive_->options(), &opts);
    persist::PutU8(use_index_ ? 1 : 0, &opts);
    persist::SnapshotWriter writer;
    // Every section is stored raw so a mapped reader navigates it in
    // place; the flat records are the archive's only encoding.
    writer.AddRaw("backend", name_);
    writer.AddRaw("spec", archive_->spec().ToText());
    writer.AddRaw("opts", std::move(opts));
    core::FlatArchiveEncoder encoder(*archive_);
    encoder.EncodeStructure();
    std::string index_pages;
    if (index_ != nullptr) {
      // Between EncodeStructure and Finish so tree stamps intern into the
      // shared pool.
      assert(index_->built_at_generation() == archive_->ingest_generation());
      index_pages = index_->EncodePages(&encoder);
    }
    core::FlatArchiveEncoder::Sections flat = encoder.Finish();
    writer.AddRaw("meta", std::move(flat.meta));
    writer.AddRaw("strings", std::move(flat.strings));
    writer.AddRaw("stamps", std::move(flat.stamps));
    writer.AddRaw("nodes", std::move(flat.nodes));
    writer.AddRaw("parts", std::move(flat.parts));
    writer.AddRaw("attrs", std::move(flat.attrs));
    writer.AddRaw("buckets", std::move(flat.buckets));
    writer.AddRaw("content", std::move(flat.content));
    if (index_ != nullptr) writer.AddRaw("index", std::move(index_pages));
    return writer.Serialize();
  }

 private:
  /// What the read hooks navigate: the mapped flat view, or the heap.
  const core::ArchiveView& View() const {
    if (mapping_ != nullptr) return mapping_->view;
    return heap_view_;
  }

  /// The index over View(), or nullptr when the store is unindexed.
  const index::ArchiveIndex* Index() const {
    if (mapping_ == nullptr) return index_.get();
    return mapping_->index.has_value() ? &*mapping_->index : nullptr;
  }

  /// The heap archive: the live one, or while mapped a short-lived copy
  /// decoded from the flat records.
  StatusOr<std::shared_ptr<core::Archive>> HeapArchive() const {
    if (mapping_ == nullptr) return archive_;
    XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet spec,
                           mapping_->config.spec.Clone());
    XARCH_ASSIGN_OR_RETURN(
        core::Archive heap,
        mapping_->flat.Decode(std::move(spec), mapping_->config.options));
    return std::make_shared<core::Archive>(std::move(heap));
  }

  /// Indentation-free form: the archive nests two levels deeper than a
  /// version, so indentation would bias size comparisons against it.
  static std::string ArchiveBytes(const core::Archive& archive) {
    core::ArchiveSerializeOptions options;
    options.indent_width = 0;
    return archive.ToXml(options);
  }

  /// Writes stay heap: the first ingest into a mapped store decodes the
  /// archive from the flat records, drops the mapping, and publishes the
  /// heap index. Runs under the exclusive lock every ingest holds, so no
  /// reader sees the switch; on a decode error the store stays mapped.
  Status Promote() {
    if (mapping_ == nullptr) return Status::OK();
    XARCH_ASSIGN_OR_RETURN(archive_, HeapArchive());
    mapping_.reset();
    heap_view_ = core::HeapArchiveView(archive_.get());
    PublishIndex();
    return Status::OK();
  }

  /// The synchronized publish step: (re)builds the index from the ingest
  /// path, under the exclusive lock every ingest already holds — readers
  /// can never observe the swap, and the read path never mutates.
  void PublishIndex() {
    if (!use_index_) return;
    index_ = std::make_unique<index::ArchiveIndex>(*archive_);
  }

  std::string name_;
  bool use_index_;
  IngestMetrics ingest_metrics_;
  std::unique_ptr<Mapping> mapping_;         // null once heap-backed
  std::shared_ptr<core::Archive> archive_;  // null while mapped
  core::HeapArchiveView heap_view_;         // over *archive_
  std::unique_ptr<index::ArchiveIndex> index_;  // published by ingest
};

// -------------------------------------------------- diff / copy baselines

/// Shared behaviour of the Sec. 5 baseline repositories.
template <typename Repo>
class RepoStore : public Store {
 public:
  explicit RepoStore(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Capabilities capabilities() const override {
    return kBatchIngest | kQuery | kPersistence;
  }

  /// Restore path: adopts a repository decoded from a snapshot.
  void AdoptRepo(Repo repo) { repo_ = std::move(repo); }

 protected:
  Status AppendImpl(std::string_view xml_text) override {
    repo_.AddVersion(std::string(xml_text));
    return Status::OK();
  }

  StatusOr<std::string> RetrieveImpl(Version v) override {
    return repo_.Retrieve(v);
  }

  Version VersionCountImpl() const override {
    return static_cast<Version>(repo_.version_count());
  }

  StoreStats BackendStats() const override {
    StoreStats stats;
    stats.versions = static_cast<Version>(repo_.version_count());
    stats.stored_bytes = repo_.ByteSize();
    stats.max_retrieval_applications = MaxApplications();
    return stats;
  }

  std::string StoredBytesImpl() const override {
    return repo_.ConcatenatedBytes();
  }

  Status SnapshotImpl(persist::SnapshotWriter& writer) const override {
    writer.Add("backend", this->name());
    std::string bytes;
    repo_.EncodeState(&bytes);
    writer.Add("repo", std::move(bytes));
    return Status::OK();
  }

  virtual size_t MaxApplications() const { return 0; }

  Repo repo_;

 private:
  std::string name_;
};

class IncrDiffStore final : public RepoStore<diff::IncrementalDiffRepo> {
 public:
  IncrDiffStore() : RepoStore("incr-diff") {}

 protected:
  size_t MaxApplications() const override {
    return repo_.ApplicationsFor(static_cast<Version>(repo_.version_count()));
  }
};

class CumDiffStore final : public RepoStore<diff::CumulativeDiffRepo> {
 public:
  CumDiffStore() : RepoStore("cum-diff") {}

 protected:
  size_t MaxApplications() const override {
    return repo_.version_count() > 1 ? 1 : 0;
  }
};

class FullCopyStore final : public RepoStore<diff::FullCopyRepo> {
 public:
  FullCopyStore() : RepoStore("full-copy") {}

  Capabilities capabilities() const override {
    return kBatchIngest | kStreamingRetrieve | kQuery | kPersistence;
  }

 protected:
  /// Versions are stored verbatim, so streaming is a straight copy of the
  /// stored bytes — nothing is reconstructed.
  Status RetrieveToImpl(Version v, Sink& sink) override {
    XARCH_ASSIGN_OR_RETURN(std::string text, repo_.Retrieve(v));
    XARCH_RETURN_NOT_OK(sink.Append(text));
    return sink.Flush();
  }
};

/// Shared restorer of the repository-backed baselines.
template <typename StoreT, typename RepoT>
StatusOr<std::unique_ptr<Store>> RestoreRepoBackend(
    const persist::SnapshotView& snapshot) {
  XARCH_ASSIGN_OR_RETURN(std::string bytes, snapshot.SectionString("repo"));
  XARCH_ASSIGN_OR_RETURN(RepoT repo, RepoT::DecodeState(bytes));
  auto store = std::make_unique<StoreT>();
  store->AdoptRepo(std::move(repo));
  return std::unique_ptr<Store>(std::move(store));
}

// ---------------------------------------------------------------- extmem

/// The Sec. 6 external-memory archiver behind Store.
class ExtmemStore final : public Store {
 public:
  ExtmemStore(keys::KeySpecSet spec, extmem::ExternalArchiver::Options options,
              bool owns_work_dir)
      : ext_(std::move(spec), options),
        work_dir_(options.work_dir),
        owns_work_dir_(owns_work_dir) {}

  ~ExtmemStore() override {
    if (owns_work_dir_) {
      (void)ext_.vfs()->RemoveTree(work_dir_);
    }
  }

  std::string name() const override { return "extmem"; }
  Capabilities capabilities() const override {
    return kBatchIngest | kQuery | kPersistence;
  }

  /// Restore path: adopts snapshot row bytes into this (fresh) archiver.
  Status AdoptSnapshot(std::string_view rows, Version count) {
    return ext_.RestoreSnapshot(rows, count);
  }

 protected:
  /// Retrieval streams from disk and counts I/O into mutable state, so
  /// every operation — including reads — takes the exclusive lock.
  ReadSafety read_safety() const override { return ReadSafety::kExclusive; }

  Status AppendImpl(std::string_view xml_text) override {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(xml_text));
    return ext_.AddVersion(*doc);
  }

  StatusOr<std::string> RetrieveImpl(Version v) override {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, ext_.RetrieveVersion(v));
    if (doc == nullptr) return std::string();
    return xml::Serialize(*doc);
  }

  Version VersionCountImpl() const override { return ext_.version_count(); }

  StoreStats BackendStats() const override {
    StoreStats stats;
    stats.versions = ext_.version_count();
    // Snapshot the counters first: StoredBytes() itself reads the whole
    // on-disk archive and would inflate the reported I/O.
    stats.io = ext_.stats();
    stats.stored_bytes = StoredBytesImpl().size();
    return stats;
  }

  std::string StoredBytesImpl() const override {
    auto xml = ext_.ToXml();
    return xml.ok() ? std::move(xml).value() : std::string();
  }

  Status SnapshotImpl(persist::SnapshotWriter& writer) const override {
    writer.Add("backend", "extmem");
    writer.Add("spec", ext_.spec().ToText());
    std::string opts;
    persist::PutU32(ext_.version_count(), &opts);
    persist::PutU32(
        static_cast<uint32_t>(ext_.options().annotate.fingerprint_bits),
        &opts);
    persist::PutU8(ext_.options().annotate.sort_children ? 1 : 0, &opts);
    writer.Add("opts", std::move(opts));
    XARCH_ASSIGN_OR_RETURN(std::string rows, ext_.ArchiveFileBytes());
    writer.Add("rows", std::move(rows));
    return Status::OK();
  }

 private:
  // ToXml/RetrieveVersion stream from disk and count I/O, so they are
  // non-const; introspection stays logically const. The exclusive
  // read_safety above is what makes this sound under concurrency.
  mutable extmem::ExternalArchiver ext_;
  std::string work_dir_;
  bool owns_work_dir_;
};

// ------------------------------------------------------------ compressed

/// Wraps any inner store, reporting (and exposing) compressed bytes: the
/// container compressor for XML-shaped storage, LZSS otherwise — the
/// Sec. 5.4 "xmill(...)" / "gzip(...)" columns as a backend.
///
/// Every hook forwards to the INNER store's public API, which takes the
/// inner store's own lock — so the wrapper's reads stay kConcurrent even
/// around an exclusive-read inner backend (the inner lock serializes).
class CompressedStore final : public Store {
 public:
  explicit CompressedStore(std::unique_ptr<Store> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override {
    return "compressed(" + inner_->name() + ")";
  }
  Capabilities capabilities() const override {
    return inner_->capabilities();
  }

 protected:
  Status AppendImpl(std::string_view xml_text) override {
    return inner_->Append(xml_text);
  }
  Status AppendBatchImpl(
      const std::vector<std::string_view>& texts) override {
    return inner_->AppendBatch(texts);
  }
  StatusOr<std::string> RetrieveImpl(Version v) override {
    return inner_->Retrieve(v);
  }
  Status RetrieveToImpl(Version v, Sink& sink) override {
    return inner_->RetrieveTo(v, sink);
  }
  StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path) override {
    return inner_->History(path);
  }
  StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                       Version to) override {
    return inner_->DiffVersions(from, to);
  }
  Status QueryImpl(std::string_view query_text, Sink& sink,
                   obs::Trace* trace) override {
    return inner_->Query(query_text, sink, trace);
  }
  Status CheckpointImpl() override { return inner_->Checkpoint(); }
  Version VersionCountImpl() const override {
    return inner_->version_count();
  }

  /// The wrapper's snapshot is the inner store's container, nested whole
  /// (it carries its own checksums) plus our backend marker.
  Status SnapshotImpl(persist::SnapshotWriter& writer) const override {
    writer.Add("backend", "compressed");
    XARCH_ASSIGN_OR_RETURN(std::string inner_bytes, inner_->SaveToBytes());
    writer.Add("inner", std::move(inner_bytes));
    return Status::OK();
  }

  StoreStats BackendStats() const override {
    StoreStats stats = inner_->Stats();
    stats.stored_bytes = StoredBytesImpl().size();
    return stats;
  }

  std::string StoredBytesImpl() const override {
    std::string raw = inner_->StoredBytes();
    auto xml = compress::XmlContainerCompressor::CompressText(raw);
    if (xml.ok()) return std::move(xml).value();
    // Bounds-checked LZSS; inputs beyond its 2 GiB limit are reported
    // uncompressed rather than risking the compressor's index width.
    auto lzss = compress::LzssTryCompress(raw);
    return lzss.ok() ? std::move(lzss).value() : raw;
  }

 private:
  std::unique_ptr<Store> inner_;
};

// ---------------------------------------------------------- checkpointed

/// Sec. 9 checkpointing: a fresh archive every k versions.
class CheckpointArchiveStore final : public Store {
 public:
  CheckpointArchiveStore(keys::KeySpecSet spec, keys::KeySpecSet scratch_spec,
                         size_t k, core::ArchiveOptions options)
      : archive_(std::move(spec), k, options),
        scratch_spec_(std::move(scratch_spec)) {}

  /// Restore path: adopts a checkpointed archive rebuilt from a snapshot.
  CheckpointArchiveStore(CheckpointedArchive archive,
                         keys::KeySpecSet scratch_spec)
      : archive_(std::move(archive)), scratch_spec_(std::move(scratch_spec)) {}

  std::string name() const override { return "checkpoint-archive"; }
  Capabilities capabilities() const override {
    return kTemporalQueries | kBatchIngest | kCheckpoint | kQuery |
           kPersistence;
  }

 protected:
  Status AppendImpl(std::string_view xml_text) override {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::Parse(xml_text));
    return archive_.AddVersion(*doc);
  }

  StatusOr<std::string> RetrieveImpl(Version v) override {
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc, archive_.RetrieveVersion(v));
    if (doc == nullptr) return std::string();
    return xml::Serialize(*doc);
  }

  StatusOr<VersionSet> HistoryImpl(
      const std::vector<core::KeyStep>& path) override {
    return archive_.History(path);
  }

  StatusOr<std::vector<core::Change>> DiffVersionsImpl(Version from,
                                                       Version to) override {
    // Versions may live in different segment archives, so the diff runs
    // over a scratch two-version archive.
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc_from,
                           archive_.RetrieveVersion(from));
    XARCH_ASSIGN_OR_RETURN(xml::NodePtr doc_to, archive_.RetrieveVersion(to));
    XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet spec, scratch_spec_.Clone());
    core::Archive scratch(std::move(spec));
    if (doc_from == nullptr) {
      scratch.AddEmptyVersion();
    } else {
      XARCH_RETURN_NOT_OK(scratch.AddVersion(*doc_from));
    }
    if (doc_to == nullptr) {
      scratch.AddEmptyVersion();
    } else {
      XARCH_RETURN_NOT_OK(scratch.AddVersion(*doc_to));
    }
    return core::DescribeChanges(scratch, 1, 2);
  }

  Status CheckpointImpl() override {
    archive_.StartNewSegment();
    return Status::OK();
  }

  Version VersionCountImpl() const override {
    return archive_.version_count();
  }

  StoreStats BackendStats() const override {
    StoreStats stats;
    stats.versions = archive_.version_count();
    stats.stored_bytes = archive_.ByteSize();
    stats.checkpoint_segments = archive_.segment_count();
    return stats;
  }

  std::string StoredBytesImpl() const override {
    return archive_.StoredBytes();
  }

  Status SnapshotImpl(persist::SnapshotWriter& writer) const override {
    writer.Add("backend", "checkpoint-archive");
    writer.Add("spec", scratch_spec_.ToText());
    std::string opts;
    persist::PutU64(archive_.checkpoint_every(), &opts);
    persist::PutU8(archive_.pending_checkpoint() ? 1 : 0, &opts);
    persist::PutU32(static_cast<uint32_t>(archive_.segments().size()), &opts);
    EncodeArchiveOptions(archive_.options(), &opts);
    writer.Add("opts", std::move(opts));
    core::ArchiveSerializeOptions compact;
    compact.pretty = false;
    compact.indent_width = 0;
    for (size_t i = 0; i < archive_.segments().size(); ++i) {
      writer.Add("seg" + std::to_string(i),
                 archive_.segments()[i].ToXml(compact));
    }
    return Status::OK();
  }

 public:
  static StatusOr<std::unique_ptr<Store>> Restore(
      const persist::SnapshotView& snapshot) {
    XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet spec, SpecFromSnapshot(snapshot));
    XARCH_ASSIGN_OR_RETURN(std::string opts, snapshot.SectionString("opts"));
    persist::Cursor cursor(opts);
    uint64_t k = 0;
    uint8_t pending = 0;
    uint32_t nsegments = 0;
    core::ArchiveOptions options;
    XARCH_RETURN_NOT_OK(cursor.ReadU64(&k));
    XARCH_RETURN_NOT_OK(cursor.ReadU8(&pending));
    XARCH_RETURN_NOT_OK(cursor.ReadU32(&nsegments));
    XARCH_RETURN_NOT_OK(DecodeArchiveOptions(cursor, &options));
    XARCH_RETURN_NOT_OK(cursor.ExpectDone());
    if (k == 0) {
      return Status::DataLoss("checkpoint-archive snapshot declares k=0");
    }
    std::vector<core::Archive> segments;
    // nsegments is untrusted; the per-segment section reads bound it.
    segments.reserve(std::min<uint32_t>(nsegments, 4096));
    for (uint32_t i = 0; i < nsegments; ++i) {
      XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet segment_spec, spec.Clone());
      XARCH_ASSIGN_OR_RETURN(
          core::Archive segment,
          ArchiveFromSection(snapshot, "seg" + std::to_string(i),
                             std::move(segment_spec), options));
      segments.push_back(std::move(segment));
    }
    XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet scratch, spec.Clone());
    XARCH_ASSIGN_OR_RETURN(
        CheckpointedArchive archive,
        CheckpointedArchive::Restore(std::move(spec), static_cast<size_t>(k),
                                     options, std::move(segments),
                                     pending != 0));
    return std::unique_ptr<Store>(std::make_unique<CheckpointArchiveStore>(
        std::move(archive), std::move(scratch)));
  }

 private:
  CheckpointedArchive archive_;
  keys::KeySpecSet scratch_spec_;
};

/// Sec. 9 checkpointing: a full copy every k versions, deltas between.
class CheckpointDiffStore final : public Store {
 public:
  explicit CheckpointDiffStore(size_t k) : repo_(k) {}

  /// Restore path: adopts a repository decoded from a snapshot.
  explicit CheckpointDiffStore(CheckpointedDiffRepo repo)
      : repo_(std::move(repo)) {}

  std::string name() const override { return "checkpoint-diff"; }
  Capabilities capabilities() const override {
    return kBatchIngest | kCheckpoint | kQuery | kPersistence;
  }

 protected:
  Status AppendImpl(std::string_view xml_text) override {
    repo_.AddVersion(std::string(xml_text));
    return Status::OK();
  }

  StatusOr<std::string> RetrieveImpl(Version v) override {
    return repo_.Retrieve(v);
  }

  Status CheckpointImpl() override {
    repo_.StartNewSegment();
    return Status::OK();
  }

  Version VersionCountImpl() const override {
    return static_cast<Version>(repo_.version_count());
  }

  StoreStats BackendStats() const override {
    StoreStats stats;
    stats.versions = static_cast<Version>(repo_.version_count());
    stats.stored_bytes = repo_.ByteSize();
    stats.checkpoint_segments = repo_.segment_count();
    size_t max_apps = 0;
    for (Version v = 1; v <= repo_.version_count(); ++v) {
      max_apps = std::max(max_apps, repo_.ApplicationsFor(v));
    }
    stats.max_retrieval_applications = max_apps;
    return stats;
  }

  std::string StoredBytesImpl() const override { return repo_.StoredBytes(); }

  Status SnapshotImpl(persist::SnapshotWriter& writer) const override {
    writer.Add("backend", "checkpoint-diff");
    std::string bytes;
    repo_.EncodeState(&bytes);
    writer.Add("repo", std::move(bytes));
    return Status::OK();
  }

 public:
  static StatusOr<std::unique_ptr<Store>> Restore(
      const persist::SnapshotView& snapshot) {
    XARCH_ASSIGN_OR_RETURN(std::string bytes, snapshot.SectionString("repo"));
    XARCH_ASSIGN_OR_RETURN(CheckpointedDiffRepo repo,
                           CheckpointedDiffRepo::DecodeState(bytes));
    return std::unique_ptr<Store>(
        std::make_unique<CheckpointDiffStore>(std::move(repo)));
  }

 private:
  CheckpointedDiffRepo repo_;
};

// ------------------------------------------------------------- factories

Status RequireSpec(const StoreOptions& options, const char* backend) {
  if (options.spec.size() == 0) {
    return Status::InvalidArgument(
        std::string(backend) +
        " requires StoreOptions::spec (a non-empty key specification)");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Store>> MakeArchiveBackend(StoreOptions options,
                                                    const char* name,
                                                    core::FrontierStrategy
                                                        frontier) {
  XARCH_RETURN_NOT_OK(RequireSpec(options, name));
  core::ArchiveOptions archive_options = options.archive;
  archive_options.frontier = frontier;
  return std::unique_ptr<Store>(std::make_unique<ArchiveStore>(
      name, core::Archive(std::move(options.spec), archive_options),
      options.use_index));
}

/// Fills in a fresh private working directory when the caller left the
/// default; shared by the extmem factory and its snapshot restorer.
bool ResolveExtmemWorkDir(extmem::ExternalArchiver::Options* options) {
  if (options->work_dir != extmem::ExternalArchiver::Options{}.work_dir) {
    return false;
  }
  static std::atomic<uint64_t> counter{0};
  options->work_dir =
      (std::filesystem::temp_directory_path() /
       ("xarch_store_extmem_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter.fetch_add(1))))
          .string();
  return true;
}

StatusOr<std::unique_ptr<Store>> RestoreExtmemBackend(
    const persist::SnapshotView& snapshot, StoreOptions tuning) {
  XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet spec, SpecFromSnapshot(snapshot));
  XARCH_ASSIGN_OR_RETURN(std::string opts, snapshot.SectionString("opts"));
  persist::Cursor cursor(opts);
  uint32_t count = 0, fingerprint_bits = 0;
  uint8_t sort_children = 0;
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&count));
  XARCH_RETURN_NOT_OK(cursor.ReadU32(&fingerprint_bits));
  XARCH_RETURN_NOT_OK(cursor.ReadU8(&sort_children));
  XARCH_RETURN_NOT_OK(cursor.ExpectDone());
  if (fingerprint_bits == 0 || fingerprint_bits > 64) {
    return Status::DataLoss("extmem snapshot fingerprint bits out of range");
  }
  // Tuning knobs (work dir, memory budget, fan-in) come from the caller;
  // the correctness-bearing annotate options come from the snapshot.
  extmem::ExternalArchiver::Options options = tuning.extmem;
  options.annotate.fingerprint_bits = static_cast<int>(fingerprint_bits);
  options.annotate.sort_children = sort_children != 0;
  bool owns_work_dir = ResolveExtmemWorkDir(&options);
  XARCH_ASSIGN_OR_RETURN(std::string rows, snapshot.SectionString("rows"));
  auto store = std::make_unique<ExtmemStore>(std::move(spec), options,
                                             owns_work_dir);
  XARCH_RETURN_NOT_OK(store->AdoptSnapshot(rows, count));
  return std::unique_ptr<Store>(std::move(store));
}

}  // namespace

namespace detail {

void RegisterBuiltinStores(StoreRegistry& registry) {
  auto must = [](Status status) {
    (void)status;
    assert(status.ok());
  };
  must(registry.Register({
      "archive",
      "key-based archive, Nested Merge with bucket frontiers (the paper's)",
      kTemporalQueries | kStreamingRetrieve | kBatchIngest | kQuery |
          kPersistence,
      [](StoreOptions options) {
        return MakeArchiveBackend(std::move(options), "archive",
                                  core::FrontierStrategy::kBuckets);
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return ArchiveStore::Restore(snapshot, "archive",
                                     core::FrontierStrategy::kBuckets);
      },
  }));
  must(registry.Register({
      "archive-weave",
      "key-based archive with SCCS-weave frontiers (further compaction)",
      kTemporalQueries | kStreamingRetrieve | kBatchIngest | kQuery |
          kPersistence,
      [](StoreOptions options) {
        return MakeArchiveBackend(std::move(options), "archive-weave",
                                  core::FrontierStrategy::kWeave);
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return ArchiveStore::Restore(snapshot, "archive-weave",
                                     core::FrontierStrategy::kWeave);
      },
  }));
  must(registry.Register({
      "incr-diff",
      "V1 + incremental line diffs (Sec. 5 baseline)",
      kBatchIngest | kQuery | kPersistence,
      [](StoreOptions) -> StatusOr<std::unique_ptr<Store>> {
        return std::unique_ptr<Store>(std::make_unique<IncrDiffStore>());
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return RestoreRepoBackend<IncrDiffStore, diff::IncrementalDiffRepo>(
            snapshot);
      },
  }));
  must(registry.Register({
      "cum-diff",
      "V1 + cumulative line diffs (Sec. 5 baseline)",
      kBatchIngest | kQuery | kPersistence,
      [](StoreOptions) -> StatusOr<std::unique_ptr<Store>> {
        return std::unique_ptr<Store>(std::make_unique<CumDiffStore>());
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return RestoreRepoBackend<CumDiffStore, diff::CumulativeDiffRepo>(
            snapshot);
      },
  }));
  must(registry.Register({
      "full-copy",
      "every version stored verbatim",
      kBatchIngest | kStreamingRetrieve | kQuery | kPersistence,
      [](StoreOptions) -> StatusOr<std::unique_ptr<Store>> {
        return std::unique_ptr<Store>(std::make_unique<FullCopyStore>());
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return RestoreRepoBackend<FullCopyStore, diff::FullCopyRepo>(snapshot);
      },
  }));
  must(registry.Register({
      "extmem",
      "external-memory archiver (Sec. 6), on-disk sorted rows",
      kBatchIngest | kQuery | kPersistence,
      [](StoreOptions options) -> StatusOr<std::unique_ptr<Store>> {
        XARCH_RETURN_NOT_OK(RequireSpec(options, "extmem"));
        bool owns_work_dir = ResolveExtmemWorkDir(&options.extmem);
        return std::unique_ptr<Store>(std::make_unique<ExtmemStore>(
            std::move(options.spec), options.extmem, owns_work_dir));
      },
      RestoreExtmemBackend,
  }));
  must(registry.Register({
      "compressed",
      "compression wrapper over StoreOptions::inner (capabilities follow "
      "the wrapped store)",
      kTemporalQueries | kStreamingRetrieve | kBatchIngest | kQuery |
          kPersistence,
      [](StoreOptions options) -> StatusOr<std::unique_ptr<Store>> {
        std::string inner_name = options.inner;
        if (inner_name == "compressed") {
          return Status::InvalidArgument(
              "\"compressed\" cannot wrap itself");
        }
        XARCH_ASSIGN_OR_RETURN(
            std::unique_ptr<Store> inner,
            StoreRegistry::Create(inner_name, std::move(options)));
        return std::unique_ptr<Store>(
            std::make_unique<CompressedStore>(std::move(inner)));
      },
      [](const persist::SnapshotView& snapshot,
         StoreOptions tuning) -> StatusOr<std::unique_ptr<Store>> {
        XARCH_ASSIGN_OR_RETURN(std::string inner_bytes,
                               snapshot.SectionString("inner"));
        XARCH_ASSIGN_OR_RETURN(std::unique_ptr<Store> inner,
                               StoreRegistry::Global().OpenFromBytes(
                                   std::move(inner_bytes), std::move(tuning)));
        return std::unique_ptr<Store>(
            std::make_unique<CompressedStore>(std::move(inner)));
      },
  }));
  must(registry.Register({
      "checkpoint-archive",
      "a fresh archive every k versions (Sec. 9 checkpointing)",
      kTemporalQueries | kBatchIngest | kCheckpoint | kQuery | kPersistence,
      [](StoreOptions options) -> StatusOr<std::unique_ptr<Store>> {
        XARCH_RETURN_NOT_OK(RequireSpec(options, "checkpoint-archive"));
        XARCH_ASSIGN_OR_RETURN(keys::KeySpecSet scratch,
                               options.spec.Clone());
        return std::unique_ptr<Store>(std::make_unique<CheckpointArchiveStore>(
            std::move(options.spec), std::move(scratch),
            options.checkpoint_every, options.archive));
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return CheckpointArchiveStore::Restore(snapshot);
      },
  }));
  must(registry.Register({
      "checkpoint-diff",
      "a full copy every k versions, deltas between (Sec. 9 checkpointing)",
      kBatchIngest | kCheckpoint | kQuery | kPersistence,
      [](StoreOptions options) -> StatusOr<std::unique_ptr<Store>> {
        return std::unique_ptr<Store>(
            std::make_unique<CheckpointDiffStore>(options.checkpoint_every));
      },
      [](const persist::SnapshotView& snapshot, StoreOptions) {
        return CheckpointDiffStore::Restore(snapshot);
      },
  }));
  RegisterShardedStore(registry);
}

}  // namespace detail

}  // namespace xarch
