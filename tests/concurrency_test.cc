// Concurrency: util::ThreadPool semantics, snapshot-isolated readers under
// interleaved ingest (byte-identical to a serial run, across backends), the
// ingest-time index publish (the PR's lazy-rebuild race regression), a
// mapped XAR2 store promoted to the heap while readers run, atomic query
// counters, and the parallel range executor's deterministic merge.
//
// These tests are the ThreadSanitizer workload of the CI tsan job: every
// assertion here is also a data-race probe when built with
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.h"
#include "index/archive_index.h"
#include "keys/key_spec.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "util/thread_pool.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // inline: done before Submit returns
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyForLoops) {
  util::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(20, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 20u);
}

TEST(ThreadPoolTest, ParallelForRethrowsTheFirstBodyException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives the failed loop.
  std::atomic<size_t> count{0};
  pool.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsShareTheWorkers) {
  util::ThreadPool pool(3);
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4u * 100u);
}

// ------------------------------------------------------------- fixtures

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

keys::KeySpecSet MustSpec() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

StoreOptions OptionsWithSpec(bool use_index = false) {
  StoreOptions options;
  options.spec = MustSpec();
  options.checkpoint_every = 3;
  options.use_index = use_index;
  return options;
}

/// Store-canonical serialization of a version text (keyed siblings in
/// fingerprint order), so Retrieve round-trips byte-for-byte everywhere.
std::string Canonical(const std::string& text) {
  core::Archive archive(MustSpec());
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(archive.AddVersion(**doc).ok());
  auto back = archive.RetrieveVersion(1);
  EXPECT_TRUE(back.ok());
  return xml::Serialize(**back);
}

/// A deterministic churning corpus: entry e exists at version v iff
/// (v + e) % 3 != 0, and its note text depends on both — so histories are
/// distinct per entry and range queries mix full and empty versions.
std::vector<std::string> ChurningVersions(int count) {
  std::vector<std::string> versions;
  for (int v = 1; v <= count; ++v) {
    std::string body = "<db>";
    for (int e = 1; e <= 8; ++e) {
      if ((v + e) % 3 == 0) continue;
      body += "<entry><id>" + std::to_string(e) + "</id><note>n" +
              std::to_string(v) + "-" + std::to_string(e) + "</note></entry>";
    }
    body += "</db>";
    versions.push_back(Canonical(body));
  }
  return versions;
}

struct BackendParam {
  const char* label;
  const char* backend;
  bool use_index;
};

std::unique_ptr<Store> MakeEmptyStore(const BackendParam& param) {
  auto store =
      StoreRegistry::Create(param.backend, OptionsWithSpec(param.use_index));
  EXPECT_TRUE(store.ok()) << param.backend << ": "
                          << store.status().ToString();
  return std::move(store).value();
}

// ------------------------------- concurrent readers, quiescent store

class ConcurrentReadTest : public ::testing::TestWithParam<BackendParam> {};

/// N reader threads drive every retrieval path at once on a fully-ingested
/// store; every thread must see bytes identical to the serial expectation.
TEST_P(ConcurrentReadTest, ParallelReadersMatchSerialByteForByte) {
  const BackendParam param = GetParam();
  const std::vector<std::string> versions = ChurningVersions(9);
  auto store = MakeEmptyStore(param);
  for (const std::string& text : versions) {
    ASSERT_TRUE(store->Append(text).ok());
  }

  // Serial expectations, taken from the same store before threading.
  std::vector<std::string> expected_retrieve;
  for (Version v = 1; v <= versions.size(); ++v) {
    auto got = store->Retrieve(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected_retrieve.push_back(*got);
  }
  const std::string range_query = "/db/entry[id=\"1\"] @ versions 1..9";
  const std::string history_query = "/db/entry[id=\"2\"] history";
  StringSink range_sink, history_sink;
  ASSERT_TRUE(store->Query(range_query, range_sink).ok());
  ASSERT_TRUE(store->Query(history_query, history_sink).ok());
  const std::string expected_range = range_sink.data();
  const std::string expected_history = history_sink.data();

  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Version v =
            static_cast<Version>((t + round) % versions.size() + 1);
        auto got = store->Retrieve(v);
        if (!got.ok() || *got != expected_retrieve[v - 1]) {
          failures.fetch_add(1);
        }
        StringSink r, h;
        if (!store->Query(range_query, r).ok() || r.data() != expected_range) {
          failures.fetch_add(1);
        }
        if (!store->Query(history_query, h).ok() ||
            h.data() != expected_history) {
          failures.fetch_add(1);
        }
        (void)store->Stats();
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConcurrentReadTest,
    ::testing::Values(BackendParam{"archive", "archive", false},
                      BackendParam{"archive_indexed", "archive", true},
                      BackendParam{"archive_weave", "archive-weave", false},
                      BackendParam{"incr_diff", "incr-diff", false},
                      BackendParam{"full_copy", "full-copy", false},
                      BackendParam{"checkpoint_diff", "checkpoint-diff",
                                   false},
                      BackendParam{"extmem", "extmem", false}),
    [](const auto& info) { return std::string(info.param.label); });

// --------------------------- readers during interleaved ingest

class IngestRaceTest : public ::testing::TestWithParam<BackendParam> {};

/// A writer appends versions while reader threads hammer every retrieval
/// path. Snapshot isolation: whatever version_count a reader observes, the
/// bytes of any version at or below it equal the serial expectation —
/// never a torn or half-merged document.
TEST_P(IngestRaceTest, ReadersSeeOnlyFullyIngestedVersions) {
  const BackendParam param = GetParam();
  const int kVersions = 12;
  const std::vector<std::string> versions = ChurningVersions(kVersions);

  // Serial reference: the same backend fed the same corpus up front.
  std::vector<std::string> expected;
  {
    auto reference = MakeEmptyStore(param);
    for (const std::string& text : versions) {
      ASSERT_TRUE(reference->Append(text).ok());
    }
    for (Version v = 1; v <= kVersions; ++v) {
      auto got = reference->Retrieve(v);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      expected.push_back(*got);
    }
  }

  auto store = MakeEmptyStore(param);
  ASSERT_TRUE(store->Append(versions[0]).ok());  // readers always have v1

  // Readers run a FIXED number of rounds and yield between them: looping
  // "until the writer finishes" would livelock on reader-preferring
  // rwlock implementations (continuous shared acquisitions starve the
  // writer's exclusive lock, so it never finishes).
  std::atomic<int> failures{0};
  constexpr int kReaders = 4;
  constexpr int kReaderRounds = 24;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = 1; v < kVersions; ++v) {
      if (!store->Append(versions[v]).ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kReaderRounds; ++round) {
        const Version n = store->version_count();
        if (n == 0) continue;
        const Version v = static_cast<Version>((t + round) % n + 1);
        auto got = store->Retrieve(v);
        if (!got.ok() || *got != expected[v - 1]) failures.fetch_add(1);
        // Temporal reads under ingest: must succeed and parse cleanly
        // (their content legitimately grows with n).
        StringSink h;
        if (store->Has(kQuery) &&
            !store->Query("/db/entry[id=\"1\"] history", h).ok()) {
          failures.fetch_add(1);
        }
        (void)store->Stats();
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->version_count(), static_cast<Version>(kVersions));
  // The concurrent run converges to the serial bytes.
  for (Version v = 1; v <= kVersions; ++v) {
    auto got = store->Retrieve(v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected[v - 1]) << "v" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IngestRaceTest,
    ::testing::Values(BackendParam{"archive_indexed", "archive", true},
                      BackendParam{"full_copy", "full-copy", false},
                      BackendParam{"incr_diff", "incr-diff", false},
                      BackendParam{"extmem", "extmem", false}),
    [](const auto& info) { return std::string(info.param.label); });

// ------------------------- mapped store promoted under readers

class MappedPromotionRaceTest : public ::testing::TestWithParam<bool> {};

/// A store opened from an XAR2 snapshot reads through the mapping until
/// its first ingest, which materializes the heap archive in place. Readers
/// drive Retrieve, range and diff queries (diff materializes the heap
/// archive lazily, under the shared lock) and Stats while a writer
/// appends, so the switch from mapped to heap happens mid-flight. Every
/// answer about the snapshot's versions must byte-match a heap store that
/// ingested the same texts serially.
TEST_P(MappedPromotionRaceTest, ReadersMatchSerialAcrossPromotion) {
  const bool use_index = GetParam();
  const int kBase = 6;
  const int kVersions = 12;
  const std::vector<std::string> versions = ChurningVersions(kVersions);
  const BackendParam param{"archive", "archive", use_index};

  auto reference = MakeEmptyStore(param);
  for (int v = 0; v < kBase; ++v) {
    ASSERT_TRUE(reference->Append(versions[v]).ok());
  }
  auto bytes = reference->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes->substr(0, 4), "XAR2");
  auto opened = StoreRegistry::Global().OpenFromBytes(*bytes);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Store& store = **opened;

  std::vector<std::string> expected_retrieve;
  for (Version v = 1; v <= kBase; ++v) {
    auto got = reference->Retrieve(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected_retrieve.push_back(*got);
  }
  const std::vector<std::string> queries = {
      "/db/entry[id=\"1\"] @ versions 1..6",
      "/db/entry[*] @ version 4",
      "/db diff 2 5",
  };
  std::vector<std::string> expected_query;
  for (const std::string& q : queries) {
    StringSink sink;
    ASSERT_TRUE(reference->Query(q, sink).ok()) << q;
    expected_query.push_back(sink.data());
  }

  // Fixed reader rounds + yields, for the writer-starvation reason given
  // at IngestRaceTest.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = kBase; v < kVersions; ++v) {
      if (!store.Append(versions[v]).ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 24; ++round) {
        const Version v = static_cast<Version>((t + round) % kBase + 1);
        auto got = store.Retrieve(v);
        if (!got.ok() || *got != expected_retrieve[v - 1]) {
          failures.fetch_add(1);
        }
        const size_t q = static_cast<size_t>(t + round) % queries.size();
        StringSink sink;
        if (!store.Query(queries[q], sink).ok() ||
            sink.data() != expected_query[q]) {
          failures.fetch_add(1);
        }
        const StoreStats stats = store.Stats();
        if (stats.versions < static_cast<Version>(kBase) ||
            stats.versions > static_cast<Version>(kVersions)) {
          failures.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Promoted, the store converges to the serial bytes for every version.
  for (int v = kBase; v < kVersions; ++v) {
    ASSERT_TRUE(reference->Append(versions[v]).ok());
  }
  ASSERT_EQ(store.version_count(), static_cast<Version>(kVersions));
  for (Version v = 1; v <= kVersions; ++v) {
    EXPECT_EQ(*store.Retrieve(v), *reference->Retrieve(v)) << "v" << v;
  }
  StringSink a, b;
  ASSERT_TRUE(store.Query("/db/entry[id=\"2\"] history", a).ok());
  ASSERT_TRUE(reference->Query("/db/entry[id=\"2\"] history", b).ok());
  EXPECT_EQ(a.data(), b.data());
}

INSTANTIATE_TEST_SUITE_P(Index, MappedPromotionRaceTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "indexed"
                                                         : "noindex");
                         });

// -------------------------------- index publish (regression)

/// Regression for the lazy-rebuild race: the ArchiveIndex used to be
/// rebuilt inside const read operations on first use after ingest, so
/// concurrent readers raced on the index pointer swap. It is now
/// (re)published by the ingest path under the writer lock; this test is
/// the TSan probe for that — History/Query readers against an indexed
/// archive store during continuous ingest.
TEST(IndexPublishTest, ConcurrentHistoryDuringIngestUsesCurrentIndex) {
  const int kVersions = 10;
  const std::vector<std::string> versions = ChurningVersions(kVersions);
  auto store =
      MakeEmptyStore(BackendParam{"archive_indexed", "archive", true});
  ASSERT_TRUE(store->Append(versions[0]).ok());

  const std::vector<core::KeyStep> path = {
      {"db", {}}, {"entry", {{"id", "1"}}}};
  // Fixed reader rounds + yields, for the same writer-starvation reason
  // as IngestRaceTest.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = 1; v < kVersions; ++v) {
      if (!store->Append(versions[v]).ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 24; ++round) {
        auto history = store->History(path);
        if (!history.ok()) failures.fetch_add(1);
        StringSink sink;
        if (!store->Query("/db/entry[id=\"1\"] history", sink).ok()) {
          failures.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles the index answers exactly like the archive
  // walk: entry 1 exists whenever (v + 1) % 3 != 0.
  auto history = store->History(path);
  ASSERT_TRUE(history.ok());
  VersionSet expected;
  for (int v = 1; v <= kVersions; ++v) {
    if ((v + 1) % 3 != 0) expected.Add(static_cast<Version>(v));
  }
  EXPECT_EQ(history->ToString(), expected.ToString());
}

// ----------------------------------- atomic query counters

TEST(StatsAtomicityTest, ConcurrentQueriesAreAllCounted) {
  auto store = MakeEmptyStore(BackendParam{"archive", "archive", false});
  for (const std::string& text : ChurningVersions(6)) {
    ASSERT_TRUE(store->Append(text).ok());
  }
  const uint64_t before = store->Stats().queries;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        CountingSink sink;
        if (!store->Query("/db/entry[id=\"2\"] history", sink).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Non-atomic accumulation would drop increments under contention; the
  // atomics make the count exact, not approximate.
  EXPECT_EQ(store->Stats().queries, before + kThreads * kQueriesPerThread);
}

// ------------------------------- parallel range executor

/// The executor must produce bytes identical to the serial evaluation and
/// the same probe totals, for both archive access paths — regardless of
/// how versions land on workers (a pool is forced so this holds even on a
/// single-CPU machine where Shared() has no workers).
TEST(ParallelRangeTest, ParallelArchiveRangeMatchesSerialExactly) {
  const std::vector<std::string> versions = ChurningVersions(10);
  core::Archive archive(MustSpec());
  for (const std::string& text : versions) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(archive.AddVersion(**doc).ok());
  }
  index::ArchiveIndex index(archive);
  util::ThreadPool pool(3);

  for (const std::string& text :
       {std::string("/db/entry[id=\"1\"] @ versions 1..10"),
        std::string("/db/entry[*] @ versions 2..9"),
        std::string("/db @ versions 1..10")}) {
    auto ast = query::Parse(text);
    ASSERT_TRUE(ast.ok()) << text;
    for (const index::ArchiveIndex* idx :
         {static_cast<const index::ArchiveIndex*>(nullptr),
          static_cast<const index::ArchiveIndex*>(&index)}) {
      query::Plan plan = query::MakePlan(
          *ast, idx != nullptr ? query::Access::kArchiveIndexed
                               : query::Access::kArchiveScan);

      StringSink serial_sink;
      query::EvalResult serial_result;
      ASSERT_TRUE(query::Evaluate(plan, archive, idx, serial_sink,
                                  &serial_result)
                      .ok())
          << text;

      query::EvalOptions options;
      options.pool = &pool;
      options.min_parallel_versions = 2;
      StringSink parallel_sink;
      query::EvalResult parallel_result;
      ASSERT_TRUE(query::Evaluate(plan, archive, idx, parallel_sink,
                                  &parallel_result, options)
                      .ok())
          << text;

      EXPECT_EQ(parallel_sink.data(), serial_sink.data()) << text;
      EXPECT_EQ(parallel_result.bytes_streamed, serial_result.bytes_streamed);
      EXPECT_EQ(parallel_result.matches, serial_result.matches);
      EXPECT_EQ(parallel_result.probes.naive_probes,
                serial_result.probes.naive_probes)
          << text;
    }
  }
}

/// Same determinism for the generic plan (full-copy backend): Store::Query
/// output for a range is byte-identical whether the pool fans out or not.
/// Exercised through the public API with many concurrent range queries.
TEST(ParallelRangeTest, GenericRangeQueriesAreDeterministicUnderThreads) {
  auto store = MakeEmptyStore(BackendParam{"full_copy", "full-copy", false});
  for (const std::string& text : ChurningVersions(8)) {
    ASSERT_TRUE(store->Append(text).ok());
  }
  const std::string q = "/db/entry[id=\"3\"] @ versions 1..8";
  StringSink reference;
  ASSERT_TRUE(store->Query(q, reference).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        StringSink sink;
        if (!store->Query(q, sink).ok() || sink.data() != reference.data()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xarch
