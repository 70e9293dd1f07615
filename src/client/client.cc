#include "client/client.h"

#include <utility>

namespace xarch {

namespace {

/// Wire errors map onto the library's StatusCode vocabulary so callers
/// can branch without parsing messages.
StatusCode WireErrorToCode(net::ErrorCode code) {
  switch (code) {
    case net::ErrorCode::kVersionMismatch: return StatusCode::kUnimplemented;
    case net::ErrorCode::kMalformedFrame: return StatusCode::kDataLoss;
    case net::ErrorCode::kUnknownMessage: return StatusCode::kUnimplemented;
    case net::ErrorCode::kBadRequest: return StatusCode::kInvalidArgument;
    case net::ErrorCode::kBusy: return StatusCode::kIoError;
    case net::ErrorCode::kQueryFailed: return StatusCode::kInvalidArgument;
    case net::ErrorCode::kIngestFailed: return StatusCode::kInvalidArgument;
    case net::ErrorCode::kShuttingDown: return StatusCode::kIoError;
    case net::ErrorCode::kUnknown:
    case net::ErrorCode::kInternal: break;
  }
  return StatusCode::kIoError;
}

}  // namespace

StatusOr<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                  uint16_t port,
                                                  ClientOptions options) {
  XARCH_ASSIGN_OR_RETURN(net::Socket socket, net::Connect(host, port));
  auto client = std::unique_ptr<Client>(
      new Client(std::move(socket), std::move(options)));
  net::HelloRequest hello;
  hello.min_version = client->options_.min_version;
  hello.max_version = client->options_.max_version;
  hello.client_name = client->options_.client_name;
  XARCH_ASSIGN_OR_RETURN(
      net::Frame reply,
      client->RoundTrip(net::MessageType::kHello,
                        net::EncodeHelloRequest(hello),
                        net::MessageType::kHelloOk));
  XARCH_RETURN_NOT_OK(net::DecodeHelloReply(reply.payload, &client->hello_));
  return client;
}

Status Client::ErrorFrameToStatus(const net::Frame& frame) {
  net::ErrorReply error;
  if (Status st = net::DecodeErrorReply(frame.payload, &error); !st.ok()) {
    return Status::IoError("undecodable ERROR frame from server: " +
                           st.message());
  }
  last_error_code_ = error.code;
  return Status(WireErrorToCode(error.code),
                "server error [" + std::string(ErrorCodeName(error.code)) +
                    "]: " + error.message);
}

StatusOr<net::Frame> Client::ReadResponse() {
  net::Frame frame;
  Status status = reader_.ReadFrame(&frame, options_.response_timeout_ms,
                                    options_.response_timeout_ms);
  if (status.code() == StatusCode::kNotFound) {
    status = Status::IoError("no server response within " +
                             std::to_string(options_.response_timeout_ms) +
                             " ms");
  }
  if (!status.ok()) {
    // Transport or framing failure: the stream position is unknowable, so
    // the connection is poisoned.
    socket_.Close();
    return status;
  }
  return frame;
}

StatusOr<net::Frame> Client::RoundTrip(net::MessageType type,
                                       std::string_view payload,
                                       net::MessageType expect) {
  if (!socket_.valid()) {
    return Status::IoError("connection is closed");
  }
  last_error_code_ = net::ErrorCode::kUnknown;
  if (Status st = net::WriteFrame(socket_, type, payload); !st.ok()) {
    socket_.Close();
    return st;
  }
  XARCH_ASSIGN_OR_RETURN(net::Frame frame, ReadResponse());
  if (frame.type == net::MessageType::kError) {
    return ErrorFrameToStatus(frame);
  }
  if (frame.type != expect) {
    socket_.Close();
    return Status::IoError(
        "protocol confusion: expected response type " +
        std::to_string(static_cast<unsigned>(expect)) + ", got " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  return frame;
}

Status Client::Query(std::string_view query_text, Sink& sink,
                     std::string* trace_out) {
  if (!socket_.valid()) return Status::IoError("connection is closed");
  last_error_code_ = net::ErrorCode::kUnknown;
  // The QUERY payload leads with a flags octet, then the XAQL text.
  std::string payload;
  payload.reserve(query_text.size() + 1);
  payload +=
      static_cast<char>(trace_out != nullptr ? net::kQueryFlagTrace : 0);
  payload += query_text;
  if (Status st = net::WriteFrame(socket_, net::MessageType::kQuery, payload);
      !st.ok()) {
    socket_.Close();
    return st;
  }
  // CHUNK* then (TRACE?) DONE; or ERROR at any point (including
  // mid-stream, after chunks were already delivered — the sink contents
  // are then void).
  for (;;) {
    XARCH_ASSIGN_OR_RETURN(net::Frame frame, ReadResponse());
    switch (frame.type) {
      case net::MessageType::kChunk:
        XARCH_RETURN_NOT_OK(sink.Append(frame.payload));
        continue;
      case net::MessageType::kTrace:
        if (trace_out != nullptr) *trace_out = std::move(frame.payload);
        continue;
      case net::MessageType::kDone:
        return sink.Flush();
      case net::MessageType::kError:
        return ErrorFrameToStatus(frame);
      default:
        socket_.Close();
        return Status::IoError(
            "protocol confusion: unexpected frame type " +
            std::to_string(static_cast<unsigned>(frame.type)) +
            " inside a query stream");
    }
  }
}

StatusOr<std::string> Client::QueryToString(std::string_view query_text,
                                            std::string* trace_out) {
  StringSink sink;
  XARCH_RETURN_NOT_OK(Query(query_text, sink, trace_out));
  return std::move(sink).Take();
}

StatusOr<std::string> Client::Metrics() {
  XARCH_ASSIGN_OR_RETURN(net::Frame frame,
                         RoundTrip(net::MessageType::kMetrics, "",
                                   net::MessageType::kMetricsOk));
  return std::move(frame.payload);
}

StatusOr<Version> Client::Ingest(
    const std::vector<std::string_view>& documents) {
  net::IngestRequest request;
  request.documents.assign(documents.begin(), documents.end());
  XARCH_ASSIGN_OR_RETURN(
      net::Frame frame,
      RoundTrip(net::MessageType::kIngest, net::EncodeIngestRequest(request),
                net::MessageType::kIngestOk));
  net::IngestReply reply;
  XARCH_RETURN_NOT_OK(net::DecodeIngestReply(frame.payload, &reply));
  return reply.version_count;
}

StatusOr<net::StatsReply> Client::Stats() {
  XARCH_ASSIGN_OR_RETURN(net::Frame frame,
                         RoundTrip(net::MessageType::kStats, "",
                                   net::MessageType::kStatsOk));
  net::StatsReply reply;
  XARCH_RETURN_NOT_OK(net::DecodeStatsReply(frame.payload, &reply));
  return reply;
}

Status Client::Ping() {
  return RoundTrip(net::MessageType::kPing, "", net::MessageType::kPong)
      .status();
}

Status Client::Shutdown() {
  return RoundTrip(net::MessageType::kShutdown, "",
                   net::MessageType::kShutdownOk)
      .status();
}

}  // namespace xarch
