#include "server/server.h"

#include <algorithm>
#include <utility>

#include "obs/log.h"
#include "obs/trace.h"
#include "xarch/sink.h"

namespace xarch::server {

namespace {

/// Collapses a rendered span tree to one logger field value: the logger
/// emits single lines, so newlines become " | " separators.
std::string OneLineTrace(const std::string& rendered) {
  std::string out;
  out.reserve(rendered.size());
  for (char c : rendered) {
    if (c == '\n') {
      if (!out.empty() && out.back() != ' ') out += " | ";
    } else {
      out += c;
    }
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == '|')) {
    out.pop_back();
  }
  return out;
}

/// Streams query output to the session socket as CHUNK frames of roughly
/// net::kChunkBytes each, so a result larger than memory never buffers
/// whole on the server.
class ChunkSink : public Sink {
 public:
  ChunkSink(const net::Socket& socket, uint64_t* bytes_out)
      : socket_(socket), bytes_out_(bytes_out) {}

  Status Append(std::string_view chunk) override {
    buffer_.append(chunk);
    while (buffer_.size() >= net::kChunkBytes) {
      XARCH_RETURN_NOT_OK(FlushPrefix(net::kChunkBytes));
    }
    return Status::OK();
  }

  /// Sends any buffered tail. Called only on query success; on failure
  /// the buffered bytes are abandoned with the stream.
  Status FlushRemainder() {
    if (buffer_.empty()) return Status::OK();
    return FlushPrefix(buffer_.size());
  }

  bool sent_any() const { return sent_any_; }

 private:
  Status FlushPrefix(size_t n) {
    XARCH_RETURN_NOT_OK(net::WriteFrame(
        socket_, net::MessageType::kChunk,
        std::string_view(buffer_.data(), n), bytes_out_));
    sent_any_ = true;
    buffer_.erase(0, n);
    return Status::OK();
  }

  const net::Socket& socket_;
  uint64_t* bytes_out_;
  std::string buffer_;
  bool sent_any_ = false;
};

}  // namespace

StatusOr<std::unique_ptr<Server>> Server::Start(Store& store,
                                                ServerOptions options) {
  options.session_threads = std::max<size_t>(1, options.session_threads);
  options.max_inflight_queries =
      std::max<size_t>(1, options.max_inflight_queries);
  XARCH_ASSIGN_OR_RETURN(net::Listener listener,
                         net::Listener::Bind(options.host, options.port));
  auto server = std::unique_ptr<Server>(
      new Server(store, std::move(options), std::move(listener)));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::Server(Store& store, ServerOptions options, net::Listener listener)
    : store_(store),
      options_(std::move(options)),
      listener_(std::move(listener)),
      sessions_pool_(
          std::make_unique<util::ThreadPool>(options_.session_threads)) {
  query_latency_us_ = registry_.GetHistogram(
      "xarch_server_query_latency_us", "",
      "End-to-end QUERY latency as the server saw it (microseconds)");
  sessions_opened_metric_ = registry_.GetCounter(
      "xarch_server_sessions_opened_total", "", "Sessions accepted");
  frames_total_ = registry_.GetCounter("xarch_server_frames_total", "",
                                       "Request frames handled");
  rejected_busy_metric_ =
      registry_.GetCounter("xarch_server_rejected_busy_total", "",
                           "Queries bounced by admission control");
  protocol_errors_metric_ = registry_.GetCounter(
      "xarch_server_protocol_errors_total", "", "Protocol errors seen");
  slow_queries_metric_ =
      registry_.GetCounter("xarch_server_slow_queries_total", "",
                           "Queries at or over --slow-query-us");
}

Server::~Server() { Join(); }

void Server::AcceptLoop() {
  while (!stop_requested()) {
    StatusOr<net::Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Accept fails when RequestStop shut the listener down, or on a
      // transient kernel error; either way re-check the flag and move on.
      continue;
    }
    auto socket = std::make_shared<net::Socket>(std::move(*accepted));
    sessions_pool_->Submit(
        [this, socket = std::move(socket)] { RunSession(socket); });
  }
}

void Server::RequestStop() {
  bool expected = false;
  if (stop_.compare_exchange_strong(expected, true,
                                    std::memory_order_acq_rel)) {
    listener_.ShutdownNow();
    std::lock_guard<std::mutex> lock(mu_);
    stop_cv_.notify_all();
  }
}

void Server::WaitForStopRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested(); });
}

void Server::Join() {
  RequestStop();
  if (joined_) return;
  joined_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Sessions poll the stop flag between requests and finish their
    // in-flight request first: this wait is the drain.
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] {
      return counters_.sessions_active.load(std::memory_order_acquire) == 0;
    });
  }
  // Destroying the pool runs any still-queued (never-started) session
  // tasks — each sees the stop flag and closes immediately — then joins.
  sessions_pool_.reset();
}

void Server::RunSession(std::shared_ptr<net::Socket> socket) {
  counters_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  sessions_opened_metric_->Increment();
  counters_.sessions_active.fetch_add(1, std::memory_order_acq_rel);
  SessionState session;
  net::FrameReader reader(*socket);
  uint64_t bytes_in_seen = 0;
  uint64_t bytes_out_seen = 0;
  while (!stop_requested()) {
    net::Frame frame;
    Status status =
        reader.ReadFrame(&frame, options_.idle_poll_ms,
                         options_.stall_timeout_ms);
    const uint64_t bytes_in_now = reader.bytes_read();
    counters_.bytes_in.fetch_add(bytes_in_now - bytes_in_seen,
                                 std::memory_order_relaxed);
    bytes_in_seen = bytes_in_now;
    if (status.code() == StatusCode::kNotFound) continue;  // idle poll tick
    if (!status.ok()) {
      if (status.code() == StatusCode::kDataLoss) {
        // Broken framing: answer structurally while we still can, then
        // drop — past a bad length or CRC the stream cannot be re-synced.
        CountProtocolError();
        SendError(*socket, net::ErrorCode::kMalformedFrame, status.message(),
                  &session);
      }
      break;  // EOF, socket error, or the malformed frame above
    }
    const bool keep = HandleFrame(*socket, frame, reader, &session);
    counters_.bytes_out.fetch_add(session.bytes_out - bytes_out_seen,
                                  std::memory_order_relaxed);
    bytes_out_seen = session.bytes_out;
    if (!keep) break;
  }
  counters_.bytes_out.fetch_add(session.bytes_out - bytes_out_seen,
                                std::memory_order_relaxed);
  socket->Close();
  counters_.sessions_active.fetch_sub(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained_cv_.notify_all();
  }
}

bool Server::HandleFrame(const net::Socket& socket, const net::Frame& frame,
                         const net::FrameReader& reader,
                         SessionState* session) {
  frames_total_->Increment();
  if (!session->hello_done) {
    if (frame.type != net::MessageType::kHello) {
      CountProtocolError();
      SendError(socket, net::ErrorCode::kBadRequest,
                "the first frame on a connection must be HELLO", session);
      return false;
    }
    return HandleHello(socket, frame, session);
  }
  switch (frame.type) {
    case net::MessageType::kHello:
      CountProtocolError();
      return SendError(socket, net::ErrorCode::kBadRequest,
                       "HELLO already negotiated on this connection", session);
    case net::MessageType::kQuery:
      return HandleQuery(socket, frame, session);
    case net::MessageType::kIngest:
      return HandleIngest(socket, frame, session);
    case net::MessageType::kStats:
      return HandleStats(socket, reader, session);
    case net::MessageType::kMetrics:
      return HandleMetrics(socket, session);
    case net::MessageType::kPing:
      return net::WriteFrame(socket, net::MessageType::kPong, "",
                             &session->bytes_out)
          .ok();
    case net::MessageType::kShutdown: {
      const bool sent = net::WriteFrame(socket, net::MessageType::kShutdownOk,
                                        "", &session->bytes_out)
                            .ok();
      RequestStop();  // the session loop exits on the flag
      return sent;
    }
    default:
      // A checksummed frame of a type this version does not know: report
      // it and keep the session — framing is intact, so later requests
      // are still trustworthy (forward compatibility).
      CountProtocolError();
      return SendError(socket, net::ErrorCode::kUnknownMessage,
                       "unknown message type " +
                           std::to_string(static_cast<unsigned>(frame.type)),
                       session);
  }
}

bool Server::HandleHello(const net::Socket& socket, const net::Frame& frame,
                         SessionState* session) {
  net::HelloRequest hello;
  if (Status st = net::DecodeHelloRequest(frame.payload, &hello); !st.ok()) {
    CountProtocolError();
    SendError(socket, net::ErrorCode::kBadRequest,
              "HELLO does not decode: " + st.message(), session);
    return false;
  }
  if (hello.magic != net::kProtocolMagic) {
    CountProtocolError();
    SendError(socket, net::ErrorCode::kBadRequest,
              "bad protocol magic: this is not an xarch client", session);
    return false;
  }
  if (hello.min_version > hello.max_version ||
      hello.min_version > net::kProtocolVersionMax ||
      hello.max_version < net::kProtocolVersionMin) {
    SendError(socket, net::ErrorCode::kVersionMismatch,
              "no protocol version in common: client speaks [" +
                  std::to_string(hello.min_version) + ", " +
                  std::to_string(hello.max_version) + "], server [" +
                  std::to_string(net::kProtocolVersionMin) + ", " +
                  std::to_string(net::kProtocolVersionMax) + "]",
              session);
    return false;
  }
  net::HelloReply reply;
  reply.version = std::min(hello.max_version, net::kProtocolVersionMax);
  reply.server_name = options_.server_name;
  reply.backend = store_.name();
  session->hello_done = true;
  return net::WriteFrame(socket, net::MessageType::kHelloOk,
                         net::EncodeHelloReply(reply), &session->bytes_out)
      .ok();
}

bool Server::HandleQuery(const net::Socket& socket, const net::Frame& frame,
                         SessionState* session) {
  if (stop_requested()) {
    return SendError(socket, net::ErrorCode::kShuttingDown,
                     "server is draining", session);
  }
  // Admission control: reserve a slot; over the gate means a clean BUSY
  // instead of another reader piling onto the store.
  const uint64_t inflight =
      counters_.inflight_queries.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (inflight > options_.max_inflight_queries) {
    counters_.inflight_queries.fetch_sub(1, std::memory_order_acq_rel);
    counters_.rejected_busy.fetch_add(1, std::memory_order_relaxed);
    rejected_busy_metric_->Increment();
    return SendError(socket, net::ErrorCode::kBusy,
                     std::to_string(options_.max_inflight_queries) +
                         " queries already in flight",
                     session);
  }
  if (options_.query_gate_hook) options_.query_gate_hook();
  // The payload leads with a flags octet, then the XAQL text.
  std::string_view query_text = frame.payload;
  if (query_text.empty()) {
    counters_.inflight_queries.fetch_sub(1, std::memory_order_acq_rel);
    CountProtocolError();
    return SendError(socket, net::ErrorCode::kBadRequest,
                     "QUERY payload is missing its flags octet", session);
  }
  const bool wire_trace =
      (static_cast<uint8_t>(query_text[0]) & net::kQueryFlagTrace) != 0;
  query_text.remove_prefix(1);
  const bool slow_log = options_.slow_query_us >= 0;
  obs::Trace trace;
  obs::Trace* trace_ptr = (wire_trace || slow_log) ? &trace : nullptr;
  const uint64_t t0_us = obs::MonotonicMicros();
  ChunkSink sink(socket, &session->bytes_out);
  Status status = store_.Query(query_text, sink, trace_ptr);
  if (status.ok()) status = sink.FlushRemainder();
  counters_.inflight_queries.fetch_sub(1, std::memory_order_acq_rel);
  if (!status.ok()) {
    // The client sees the ERROR frame and discards any chunks already
    // received: a stream not closed by DONE never counts as a result.
    return SendError(socket, net::ErrorCode::kQueryFailed, status.ToString(),
                     session);
  }
  if (wire_trace &&
      !net::WriteFrame(socket, net::MessageType::kTrace, trace.Render(),
                       &session->bytes_out)
           .ok()) {
    return false;
  }
  // Count before DONE, as HandleIngest counts before INGEST_OK: a client
  // holding its answer must never read stats that miss this query.
  const uint64_t duration_us = obs::MonotonicMicros() - t0_us;
  query_latency_us_->Record(duration_us);
  if (slow_log && duration_us >= static_cast<uint64_t>(
                                     options_.slow_query_us)) {
    slow_queries_metric_->Increment();
    obs::Logger::Default().Log(
        "slow_query",
        {{"duration_us", duration_us},
         {"threshold_us", options_.slow_query_us},
         {"query_bytes", static_cast<uint64_t>(query_text.size())},
         {"spans", static_cast<uint64_t>(trace.span_count())},
         {"trace", OneLineTrace(trace.Render())}});
  }
  counters_.queries.fetch_add(1, std::memory_order_relaxed);
  session->queries++;
  return net::WriteFrame(socket, net::MessageType::kDone, "",
                         &session->bytes_out)
      .ok();
}

bool Server::HandleIngest(const net::Socket& socket, const net::Frame& frame,
                          SessionState* session) {
  if (stop_requested()) {
    return SendError(socket, net::ErrorCode::kShuttingDown,
                     "server is draining", session);
  }
  net::IngestRequest request;
  if (Status st = net::DecodeIngestRequest(frame.payload, &request);
      !st.ok()) {
    CountProtocolError();
    SendError(socket, net::ErrorCode::kBadRequest,
              "INGEST does not decode: " + st.message(), session);
    return false;
  }
  if (request.documents.empty()) {
    return SendError(socket, net::ErrorCode::kBadRequest,
                     "INGEST carries no documents", session);
  }
  std::vector<std::string_view> views(request.documents.begin(),
                                      request.documents.end());
  Status status;
  if (store_.Has(kBatchIngest)) {
    status = store_.AppendBatch(views);
  } else {
    for (const std::string_view& doc : views) {
      status = store_.Append(doc);
      if (!status.ok()) break;
    }
  }
  if (!status.ok()) {
    return SendError(socket, net::ErrorCode::kIngestFailed, status.ToString(),
                     session);
  }
  counters_.ingests.fetch_add(1, std::memory_order_relaxed);
  counters_.documents_ingested.fetch_add(request.documents.size(),
                                         std::memory_order_relaxed);
  session->ingests++;
  net::IngestReply reply;
  reply.version_count = store_.version_count();
  return net::WriteFrame(socket, net::MessageType::kIngestOk,
                         net::EncodeIngestReply(reply), &session->bytes_out)
      .ok();
}

bool Server::HandleStats(const net::Socket& socket,
                         const net::FrameReader& reader,
                         SessionState* session) {
  const ServerStats global = StatsSnapshot();
  net::StatsReply reply;
  reply.sessions_opened = global.sessions_opened;
  reply.sessions_active = global.sessions_active;
  reply.queries = global.queries;
  reply.ingests = global.ingests;
  reply.documents_ingested = global.documents_ingested;
  reply.bytes_in = global.bytes_in;
  reply.bytes_out = global.bytes_out;
  reply.rejected_busy = global.rejected_busy;
  reply.protocol_errors = global.protocol_errors;
  reply.query_latency_p50_us = global.query_latency_p50_us;
  reply.query_latency_p99_us = global.query_latency_p99_us;
  reply.store_versions = store_.version_count();
  reply.session_queries = session->queries;
  reply.session_ingests = session->ingests;
  reply.session_bytes_in = reader.bytes_read();
  reply.session_bytes_out = session->bytes_out;
  return net::WriteFrame(socket, net::MessageType::kStatsOk,
                         net::EncodeStatsReply(reply), &session->bytes_out)
      .ok();
}

bool Server::SendError(const net::Socket& socket, net::ErrorCode code,
                       const std::string& message, SessionState* session) {
  net::ErrorReply error;
  error.code = code;
  error.message = message;
  return net::WriteFrame(socket, net::MessageType::kError,
                         net::EncodeErrorReply(error), &session->bytes_out)
      .ok();
}

bool Server::HandleMetrics(const net::Socket& socket, SessionState* session) {
  return net::WriteFrame(socket, net::MessageType::kMetricsOk, MetricsText(),
                         &session->bytes_out)
      .ok();
}

std::string Server::MetricsText() const {
  // Process-wide instruments first (query engine, ingest, WAL, VFS), then
  // this server's own families — two registries, one scrape.
  return obs::Registry::Default().EncodeText() + registry_.EncodeText();
}

ServerStats Server::StatsSnapshot() const {
  ServerStats out;
  out.sessions_opened =
      counters_.sessions_opened.load(std::memory_order_relaxed);
  out.sessions_active =
      counters_.sessions_active.load(std::memory_order_relaxed);
  out.queries = counters_.queries.load(std::memory_order_relaxed);
  out.ingests = counters_.ingests.load(std::memory_order_relaxed);
  out.documents_ingested =
      counters_.documents_ingested.load(std::memory_order_relaxed);
  out.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  out.rejected_busy = counters_.rejected_busy.load(std::memory_order_relaxed);
  out.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  // Histogram quantile *upper bounds*: within 6.25% of the true sample,
  // and windowless — every query since start contributes.
  out.query_latency_p50_us = query_latency_us_->QuantileUpperBound(0.50);
  out.query_latency_p99_us = query_latency_us_->QuantileUpperBound(0.99);
  return out;
}

}  // namespace xarch::server
