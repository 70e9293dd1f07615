// Tests for the network subsystem: the frame codec, version negotiation,
// end-to-end query parity against in-process evaluation, protocol
// robustness against malformed frames (including a flip-every-byte sweep
// over a captured QUERY frame), admission control, and graceful drain.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "client/client.h"
#include "persist/wire.h"
#include "server/net_util.h"
#include "server/protocol.h"
#include "server/server.h"
#include "xarch/durable.h"
#include "xarch/store_registry.h"

namespace xarch {
namespace {

// ------------------------------------------------------------- fixtures

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
)";

std::string Emp(const std::string& fn, const std::string& ln,
                const std::string& sal) {
  return "<emp><fn>" + fn + "</fn><ln>" + ln + "</ln><sal>" + sal +
         "</sal></emp>";
}

std::vector<std::string> CompanyVersions() {
  return {
      "<db><dept><name>finance</name>" + Emp("John", "Doe", "50000") +
          Emp("Anna", "Smith", "61000") + "</dept></db>",
      "<db><dept><name>finance</name>" + Emp("John", "Doe", "55000") +
          Emp("Anna", "Smith", "61000") + "</dept></db>",
      "<db><dept><name>finance</name>" + Emp("John", "Doe", "55000") +
          "</dept><dept><name>research</name>" +
          Emp("Anna", "Smith", "62000") + "</dept></db>",
  };
}

keys::KeySpecSet ParseKeys() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

/// Fresh private scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("xarch_server_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A durable store on scratch disk plus a running server over it.
struct TestServer {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<Store> store;
  std::unique_ptr<server::Server> server;

  uint16_t port() const { return server->port(); }
};

TestServer StartServer(const std::string& backend = "archive",
                       server::ServerOptions options = {}) {
  TestServer out;
  out.dir = std::make_unique<ScratchDir>(backend);
  DurableOptions durable;
  durable.backend = backend;
  durable.store.spec = ParseKeys();
  if (backend == "archive") durable.store.use_index = true;
  auto store = OpenDurable(out.dir->path(), std::move(durable));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  out.store = std::move(*store);
  auto server = server::Server::Start(*out.store, std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  out.server = std::move(*server);
  return out;
}

std::unique_ptr<Client> MustConnect(const TestServer& ts,
                                    ClientOptions options = {}) {
  auto client = Client::Connect("127.0.0.1", ts.port(), std::move(options));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

// ------------------------------------------------------- frame codec unit

TEST(FrameCodecTest, RoundTripsTypeAndPayload) {
  auto frame = net::EncodeFrame(net::MessageType::kQuery, "/db @ version 1");
  ASSERT_TRUE(frame.ok());
  std::string buffer = *frame;
  net::Frame decoded;
  std::string detail;
  ASSERT_EQ(net::TryDecodeFrame(&buffer, &decoded, &detail),
            net::DecodeResult::kFrame)
      << detail;
  EXPECT_EQ(decoded.type, net::MessageType::kQuery);
  EXPECT_EQ(decoded.payload, "/db @ version 1");
  EXPECT_TRUE(buffer.empty());
}

TEST(FrameCodecTest, DecodesPipelinedFramesInOrder) {
  std::string buffer = *net::EncodeFrame(net::MessageType::kPing, "") +
                       *net::EncodeFrame(net::MessageType::kPong, "x");
  net::Frame first, second;
  ASSERT_EQ(net::TryDecodeFrame(&buffer, &first, nullptr),
            net::DecodeResult::kFrame);
  ASSERT_EQ(net::TryDecodeFrame(&buffer, &second, nullptr),
            net::DecodeResult::kFrame);
  EXPECT_EQ(first.type, net::MessageType::kPing);
  EXPECT_EQ(second.type, net::MessageType::kPong);
  EXPECT_EQ(second.payload, "x");
}

TEST(FrameCodecTest, EveryPrefixNeedsMoreBytes) {
  const std::string frame =
      *net::EncodeFrame(net::MessageType::kQuery, "/db history");
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string buffer = frame.substr(0, cut);
    net::Frame out;
    EXPECT_EQ(net::TryDecodeFrame(&buffer, &out, nullptr),
              net::DecodeResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameCodecTest, RejectsOversizedDeclaredLength) {
  std::string buffer = *net::EncodeFrame(net::MessageType::kPing, "abc");
  // Patch the length field to something absurd; CRC is irrelevant — the
  // length bound must trip before anything is read or allocated.
  persist::PatchU32(net::kMaxFrameBytes + 1, 0, &buffer);
  net::Frame out;
  std::string detail;
  EXPECT_EQ(net::TryDecodeFrame(&buffer, &out, &detail),
            net::DecodeResult::kMalformed);
  EXPECT_NE(detail.find("exceeds"), std::string::npos) << detail;
}

TEST(FrameCodecTest, RejectsZeroLengthBody) {
  std::string buffer = *net::EncodeFrame(net::MessageType::kPing, "");
  persist::PatchU32(0, 0, &buffer);
  net::Frame out;
  EXPECT_EQ(net::TryDecodeFrame(&buffer, &out, nullptr),
            net::DecodeResult::kMalformed);
}

TEST(FrameCodecTest, RejectsCorruptCrc) {
  std::string buffer = *net::EncodeFrame(net::MessageType::kPing, "abc");
  buffer[5] ^= 0x01;  // inside the masked CRC field
  net::Frame out;
  std::string detail;
  EXPECT_EQ(net::TryDecodeFrame(&buffer, &out, &detail),
            net::DecodeResult::kMalformed);
  EXPECT_NE(detail.find("CRC"), std::string::npos) << detail;
}

TEST(FrameCodecTest, RejectsPayloadOverFrameLimit) {
  std::string big(net::kMaxFrameBytes, 'x');  // +1 for the type octet
  auto frame = net::EncodeFrame(net::MessageType::kChunk, big);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolPayloadTest, HelloAndStatsRoundTrip) {
  net::HelloRequest hello;
  hello.min_version = 3;
  hello.max_version = 9;
  hello.client_name = "unit";
  net::HelloRequest hello2;
  ASSERT_TRUE(
      net::DecodeHelloRequest(net::EncodeHelloRequest(hello), &hello2).ok());
  EXPECT_EQ(hello2.magic, net::kProtocolMagic);
  EXPECT_EQ(hello2.min_version, 3u);
  EXPECT_EQ(hello2.max_version, 9u);
  EXPECT_EQ(hello2.client_name, "unit");

  net::StatsReply stats;
  stats.queries = 7;
  stats.rejected_busy = 2;
  stats.store_versions = 5;
  stats.session_bytes_out = 1234;
  net::StatsReply stats2;
  ASSERT_TRUE(
      net::DecodeStatsReply(net::EncodeStatsReply(stats), &stats2).ok());
  EXPECT_EQ(stats2.queries, 7u);
  EXPECT_EQ(stats2.rejected_busy, 2u);
  EXPECT_EQ(stats2.store_versions, 5u);
  EXPECT_EQ(stats2.session_bytes_out, 1234u);
}

TEST(ProtocolPayloadTest, IngestDecodeRejectsTrailingGarbage) {
  net::IngestRequest request;
  request.documents = {"<a/>", "<b/>"};
  std::string payload = net::EncodeIngestRequest(request);
  net::IngestRequest out;
  ASSERT_TRUE(net::DecodeIngestRequest(payload, &out).ok());
  EXPECT_EQ(out.documents, request.documents);
  payload += "z";
  EXPECT_EQ(net::DecodeIngestRequest(payload, &out).code(),
            StatusCode::kDataLoss);
}

TEST(ProtocolPayloadTest, IngestDecodeRejectsImpossibleCount) {
  std::string payload;
  persist::PutU32(1u << 30, &payload);  // a billion documents, no bytes
  net::IngestRequest out;
  EXPECT_EQ(net::DecodeIngestRequest(payload, &out).code(),
            StatusCode::kDataLoss);
}

// ----------------------------------------------------------- negotiation

TEST(ServerTest, HandshakeAnnouncesBackendAndVersion) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  EXPECT_EQ(client->protocol_version(), net::kProtocolVersionMax);
  EXPECT_EQ(client->backend(), "durable(archive)");
  EXPECT_EQ(client->server_name(), "xarchd");
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerTest, RejectsDisjointVersionRange) {
  TestServer ts = StartServer();
  ClientOptions options;
  options.min_version = 99;
  options.max_version = 120;
  auto client = Client::Connect("127.0.0.1", ts.port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(client.status().message().find("version"), std::string::npos);
}

TEST(ServerTest, NegotiatesDownToServerMax) {
  TestServer ts = StartServer();
  ClientOptions options;
  options.min_version = net::kProtocolVersionMin;
  options.max_version = 7;  // a future client offering more than we speak
  auto client = Client::Connect("127.0.0.1", ts.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->protocol_version(), net::kProtocolVersionMax);
}

// -------------------------------------------------------------- parity

/// The acceptance gate: bytes from the network path must equal bytes from
/// the in-process path, across backends and query shapes.
class ParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParityTest, NetworkQueryMatchesLocalQueryBytes) {
  const std::string backend = GetParam();
  TestServer ts = StartServer(backend);
  auto client = MustConnect(ts);

  const std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  auto count = client->Ingest(views);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, versions.size());

  // The local reference: a plain (non-durable) store of the same backend
  // over the same documents.
  StoreOptions options;
  options.spec = ParseKeys();
  if (backend == "archive") options.use_index = true;
  auto local = StoreRegistry::Create(backend, std::move(options));
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE((*local)->AppendBatch(views).ok());

  std::vector<std::string> queries = {
      "/db @ version 1",
      "/db @ version 3",
      "/db/dept[name=\"finance\"]/emp[*] @ versions 1..3",
      "/db/dept[name=\"finance\"]/emp[fn=\"Anna\", ln=\"Smith\"] history",
  };
  // Diff queries need key-based change tracking, which the delta-only
  // incr-diff backend does not advertise.
  if (backend == "archive") queries.push_back("/db diff 1 3");
  for (const std::string& query : queries) {
    auto remote = client->QueryToString(query);
    ASSERT_TRUE(remote.ok()) << query << ": " << remote.status().ToString();
    StringSink local_sink;
    ASSERT_TRUE((*local)->Query(query, local_sink).ok()) << query;
    EXPECT_EQ(*remote, local_sink.data()) << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ParityTest,
                         ::testing::Values("archive", "incr-diff"));

TEST(ServerTest, IngestSurvivesServerRestart) {
  auto ts = std::make_unique<TestServer>(StartServer());
  const std::string dir = ts->dir->path();
  {
    auto client = MustConnect(*ts);
    const std::vector<std::string> versions = CompanyVersions();
    std::vector<std::string_view> views(versions.begin(), versions.end());
    ASSERT_TRUE(client->Ingest(views).ok());
  }
  ts->server->Join();
  auto durable = static_cast<DurableStore*>(ts->store.get());
  ASSERT_TRUE(durable->CheckpointIfDirty().ok());
  EXPECT_EQ(durable->log_records(), 0u);
  ts->store.reset();

  // Reopen the directory: a clean stop restores from the snapshot alone.
  DurableOptions options;
  options.backend = "archive";
  auto reopened = OpenDurable(dir, std::move(options));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->version_count(), 3u);
  auto server = server::Server::Start(**reopened, {});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto result = (*client)->QueryToString("/db @ version 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->find("55000"), std::string::npos);
  ts->dir = nullptr;  // keep scratch alive until here
}

// -------------------------------------------------- protocol robustness

/// Raw-socket driver for sending arbitrary (including broken) bytes.
struct RawConnection {
  net::Socket socket;

  static RawConnection Open(const TestServer& ts) {
    auto connected = net::Connect("127.0.0.1", ts.port());
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return RawConnection{std::move(*connected)};
  }

  void Send(std::string_view bytes) {
    EXPECT_TRUE(net::WriteAll(socket, bytes).ok());
  }

  Status SendHello() {
    XARCH_RETURN_NOT_OK(net::WriteFrame(
        socket, net::MessageType::kHello,
        net::EncodeHelloRequest(net::HelloRequest{})));
    net::FrameReader reader(socket);
    net::Frame reply;
    XARCH_RETURN_NOT_OK(reader.ReadFrame(&reply, 5000, 5000));
    if (reply.type != net::MessageType::kHelloOk) {
      return Status::IoError("handshake rejected");
    }
    return Status::OK();
  }

  /// Reads one frame; kIoError on EOF (connection dropped by server).
  StatusOr<net::Frame> ReadOne(int timeout_ms = 5000) {
    net::FrameReader reader(socket);
    net::Frame frame;
    Status st = reader.ReadFrame(&frame, timeout_ms, timeout_ms);
    if (!st.ok()) return st;
    return frame;
  }
};

/// After any hostile input, the server must still answer a fresh healthy
/// client: crashed-or-wedged is the failure mode these tests hunt.
void ExpectServerAlive(const TestServer& ts) {
  auto client = Client::Connect("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(ProtocolRobustnessTest, TruncatedLengthPrefixThenEof) {
  TestServer ts = StartServer();
  {
    RawConnection raw = RawConnection::Open(ts);
    raw.Send("\x06\x00");  // half a length field, then we vanish
    raw.socket.Close();
  }
  ExpectServerAlive(ts);
}

TEST(ProtocolRobustnessTest, OversizedDeclaredLengthIsRejected) {
  TestServer ts = StartServer();
  RawConnection raw = RawConnection::Open(ts);
  ASSERT_TRUE(raw.SendHello().ok());
  std::string frame = *net::EncodeFrame(net::MessageType::kPing, "");
  persist::PatchU32(256u * 1024 * 1024, 0, &frame);  // 256 MiB declared
  raw.Send(frame);
  auto reply = raw.ReadOne();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MessageType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(reply->payload, &error).ok());
  EXPECT_EQ(error.code, net::ErrorCode::kMalformedFrame);
  // The connection is dropped after a framing error.
  auto next = raw.ReadOne();
  EXPECT_FALSE(next.ok());
  ExpectServerAlive(ts);
}

TEST(ProtocolRobustnessTest, BadCrcIsRejectedAndConnectionDropped) {
  TestServer ts = StartServer();
  RawConnection raw = RawConnection::Open(ts);
  ASSERT_TRUE(raw.SendHello().ok());
  std::string frame = *net::EncodeFrame(net::MessageType::kPing, "payload");
  frame[frame.size() - 1] ^= 0x40;  // flip a body bit; CRC now lies
  raw.Send(frame);
  auto reply = raw.ReadOne();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MessageType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(reply->payload, &error).ok());
  EXPECT_EQ(error.code, net::ErrorCode::kMalformedFrame);
  ExpectServerAlive(ts);
}

TEST(ProtocolRobustnessTest, UnknownMessageTypeKeepsSessionUsable) {
  TestServer ts = StartServer();
  RawConnection raw = RawConnection::Open(ts);
  ASSERT_TRUE(raw.SendHello().ok());
  raw.Send(*net::EncodeFrame(static_cast<net::MessageType>(0x55), "???"));
  auto reply = raw.ReadOne();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MessageType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(reply->payload, &error).ok());
  EXPECT_EQ(error.code, net::ErrorCode::kUnknownMessage);
  // Framing was intact, so the session survives: a PING still works.
  raw.Send(*net::EncodeFrame(net::MessageType::kPing, ""));
  auto pong = raw.ReadOne();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, net::MessageType::kPong);
}

TEST(ProtocolRobustnessTest, QueryBeforeHelloIsRejected) {
  TestServer ts = StartServer();
  RawConnection raw = RawConnection::Open(ts);
  raw.Send(*net::EncodeFrame(net::MessageType::kQuery, "/db @ version 1"));
  auto reply = raw.ReadOne();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MessageType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(reply->payload, &error).ok());
  EXPECT_EQ(error.code, net::ErrorCode::kBadRequest);
  ExpectServerAlive(ts);
}

TEST(ProtocolRobustnessTest, FlipEveryByteOfCapturedQueryFrame) {
  // The acceptance sweep: corrupt a captured QUERY frame at every byte
  // position. Whatever the server answers (structured error, drop), it
  // must neither crash nor wedge the listener for other sessions. One
  // shared server across the sweep keeps the test fast AND proves
  // damage does not accumulate across hostile connections.
  TestServer ts = StartServer();
  {
    auto client = MustConnect(ts);
    std::vector<std::string> versions = CompanyVersions();
    std::vector<std::string_view> views(versions.begin(), versions.end());
    ASSERT_TRUE(client->Ingest(views).ok());
  }
  const std::string frame =
      *net::EncodeFrame(net::MessageType::kQuery, "/db @ version 1");
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    RawConnection raw = RawConnection::Open(ts);
    ASSERT_TRUE(raw.SendHello().ok()) << "byte " << i;
    raw.Send(corrupt);
    // Close our writing half so a server waiting for "more frame" (a
    // corrupted length can declare more bytes than we sent) sees EOF
    // instead of a stall.
    ::shutdown(raw.socket.fd(), SHUT_WR);
    // Drain whatever the server answers until it closes; any outcome but
    // a wedge is acceptable. 10 s ceiling = "not wedged".
    for (int hops = 0; hops < 8; ++hops) {
      auto reply = raw.ReadOne(10 * 1000);
      if (!reply.ok()) break;  // server dropped the connection: fine
    }
  }
  ExpectServerAlive(ts);
  // The sweep's corruptions must all have been flagged: each connection
  // either errored at frame level or produced a QUERY the store rejected.
  // (A flipped byte can also land in the query text and still parse — we
  // only require the server survived with framing violations counted.)
  EXPECT_GT(ts.server->StatsSnapshot().protocol_errors, 0u);
}

// ---------------------------------------------------- admission control

TEST(AdmissionControlTest, OverInflightGateGetsBusyAndExactRejectCount) {
  // Gate of 2, with 2 queries parked inside the gate via the test hook:
  // the third query must bounce with BUSY and rejected must be exactly 1.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> parked{0};
  server::ServerOptions options;
  options.session_threads = 4;
  options.max_inflight_queries = 2;
  options.query_gate_hook = [&] {
    parked.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  TestServer ts = StartServer("archive", std::move(options));
  {
    auto seeder = MustConnect(ts);
    std::vector<std::string> versions = CompanyVersions();
    std::vector<std::string_view> views(versions.begin(), versions.end());
    ASSERT_TRUE(seeder->Ingest(views).ok());
  }

  auto first = MustConnect(ts);
  auto second = MustConnect(ts);
  auto third = MustConnect(ts);
  std::thread t1([&] {
    auto result = first->QueryToString("/db @ version 1");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  std::thread t2([&] {
    auto result = second->QueryToString("/db @ version 2");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  // Wait until both are provably parked INSIDE the admission gate.
  while (parked.load() < 2) std::this_thread::yield();

  auto bounced = third->QueryToString("/db @ version 3");
  EXPECT_FALSE(bounced.ok());
  EXPECT_EQ(third->last_error_code(), net::ErrorCode::kBusy);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  t1.join();
  t2.join();

  const server::ServerStats stats = ts.server->StatsSnapshot();
  EXPECT_EQ(stats.rejected_busy, 1u);
  EXPECT_EQ(stats.queries, 2u);
  // The bounced session is still healthy: BUSY is a response, not a drop.
  EXPECT_TRUE(third->Ping().ok());
  auto retry = third->QueryToString("/db @ version 3");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// ---------------------------------------------------- graceful shutdown

TEST(ShutdownTest, DrainCompletesInFlightQueryBeforeStopping) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> parked{0};
  server::ServerOptions options;
  options.query_gate_hook = [&] {
    parked.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  TestServer ts = StartServer("archive", std::move(options));
  {
    auto seeder = MustConnect(ts);
    std::vector<std::string> versions = CompanyVersions();
    std::vector<std::string_view> views(versions.begin(), versions.end());
    ASSERT_TRUE(seeder->Ingest(views).ok());
  }
  auto client = MustConnect(ts);
  std::thread slow([&] {
    auto result = client->QueryToString("/db @ version 1");
    // The drain must have let this query finish and deliver its bytes.
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->find("<db>"), std::string::npos);
  });
  while (parked.load() < 1) std::this_thread::yield();

  ts.server->RequestStop();
  EXPECT_TRUE(ts.server->stop_requested());
  // New connections are refused once the listener is down.
  auto late = Client::Connect("127.0.0.1", ts.port());
  EXPECT_FALSE(late.ok());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  ts.server->Join();  // must not hang: the parked query was released
  slow.join();
  EXPECT_EQ(ts.server->StatsSnapshot().sessions_active, 0u);
}

TEST(ShutdownTest, ShutdownFrameStopsServerAndCheckpointHookCompacts) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  ASSERT_TRUE(client->Ingest(views).ok());
  ASSERT_TRUE(client->Shutdown().ok());
  ts.server->WaitForStopRequest();  // returns because SHUTDOWN set the flag
  ts.server->Join();

  // The xarchd clean-stop sequence: after the drain, the WAL compacts.
  auto durable = static_cast<DurableStore*>(ts.store.get());
  EXPECT_GT(durable->log_records(), 0u);
  ASSERT_TRUE(durable->CheckpointIfDirty().ok());
  EXPECT_EQ(durable->log_records(), 0u);
  // Already-compact stores skip the snapshot rewrite (still OK).
  ASSERT_TRUE(durable->CheckpointIfDirty().ok());
}

// ------------------------------------------------------------- counters

TEST(StatsTest, CountsQueriesBytesAndSessions) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  ASSERT_TRUE(client->Ingest(views).ok());
  ASSERT_TRUE(client->QueryToString("/db @ version 1").ok());
  ASSERT_TRUE(client->QueryToString("/db @ version 2").ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->queries, 2u);
  EXPECT_EQ(stats->ingests, 1u);
  EXPECT_EQ(stats->documents_ingested, 3u);
  EXPECT_EQ(stats->store_versions, 3u);
  EXPECT_EQ(stats->sessions_opened, 1u);
  EXPECT_EQ(stats->sessions_active, 1u);
  EXPECT_EQ(stats->session_queries, 2u);
  EXPECT_EQ(stats->session_ingests, 1u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  EXPECT_GT(stats->session_bytes_in, 0u);
  EXPECT_GT(stats->session_bytes_out, 0u);
  EXPECT_GT(stats->query_latency_p99_us, 0u);
  EXPECT_GE(stats->query_latency_p99_us, stats->query_latency_p50_us);
}

TEST(StatsTest, QueryErrorsDoNotCountAsQueries) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  auto bad = client->QueryToString("this is not XAQL @@@");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(client->last_error_code(), net::ErrorCode::kQueryFailed);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries, 0u);
}

// ---------------------------------------------------------- observability

TEST(MetricsTest, ScrapeReturnsPrometheusTextCoveringAllSeams) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  EXPECT_EQ(client->protocol_version(), 2u);
  std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  ASSERT_TRUE(client->Ingest(views).ok());
  ASSERT_TRUE(client->QueryToString("/db @ version 1").ok());

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // One scrape covers the query engine, ingest, WAL, and the server.
  for (const char* family :
       {"xarch_queries_total", "xarch_ingest_batches_total",
        "xarch_wal_appends_total", "xarch_server_query_latency_us",
        "xarch_server_sessions_opened_total", "xarch_server_frames_total"}) {
    EXPECT_NE(text->find(family), std::string::npos)
        << family << " missing from scrape";
  }
  EXPECT_NE(text->find("# TYPE xarch_server_query_latency_us histogram"),
            std::string::npos);
}

TEST(ServerTest, V1ClientGetsVersionMismatch) {
  // Protocol v1 (raw QUERY text, no METRICS) is no longer spoken: a client
  // that offers only v1 is refused at HELLO like any disjoint range.
  TestServer ts = StartServer();
  ClientOptions options;
  options.min_version = 1;
  options.max_version = 1;
  auto client = Client::Connect("127.0.0.1", ts.port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(client.status().message().find("no protocol version in common"),
            std::string::npos)
      << client.status().ToString();
}

TEST(TraceWireTest, TracedQueryDeliversSpanTreeAndSameBytes) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  ASSERT_TRUE(client->Ingest(views).ok());

  auto plain = client->QueryToString("/db @ version 2");
  ASSERT_TRUE(plain.ok());
  std::string trace;
  auto traced = client->QueryToString("/db @ version 2", &trace);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  // Tracing changes the response stream (one TRACE frame), never the
  // result bytes.
  EXPECT_EQ(*plain, *traced);
  EXPECT_NE(trace.find("trace:"), std::string::npos) << trace;
  EXPECT_NE(trace.find("parse"), std::string::npos);
  EXPECT_NE(trace.find("eval"), std::string::npos);
}

TEST(TraceWireTest, UntracedV2QueryGetsNoTraceFrame) {
  TestServer ts = StartServer();
  auto client = MustConnect(ts);
  std::vector<std::string> versions = CompanyVersions();
  std::vector<std::string_view> views(versions.begin(), versions.end());
  ASSERT_TRUE(client->Ingest(views).ok());
  // Query() without trace_out leaves the flag clear; the stream is
  // CHUNK* DONE exactly as at v1 (the loop would surface an unexpected
  // TRACE frame as an error if the server sent one).
  auto result = client->QueryToString("/db @ version 1");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
}

}  // namespace
}  // namespace xarch
