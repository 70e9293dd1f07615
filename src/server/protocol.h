#ifndef XARCH_SERVER_PROTOCOL_H_
#define XARCH_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/version_set.h"

namespace xarch::net {

/// \brief The xarchd wire protocol: length-prefixed binary frames over a
/// byte stream (TCP), framed exactly like the persistence layer's ingest
/// log — the decode side is driven by untrusted network bytes, so it rides
/// the same bounds-checked persist::Cursor codecs and masked CRC32C.
///
/// Frame layout (all integers little-endian):
///
///   u32 body length | u32 CRC32C (masked) of the body | body
///   body = u8 message type | type-specific payload
///
/// A frame whose declared length exceeds kMaxFrameBytes, whose CRC does
/// not match, or whose payload does not decode cleanly is a protocol
/// error: the receiver reports a structured ERROR frame when it still can
/// and drops the connection — it never trusts the stream's framing again.
///
/// Version negotiation: the first frame on a connection must be HELLO,
/// carrying the protocol magic and the [min, max] version range the client
/// speaks. The server picks the highest version both sides support and
/// answers HELLO_OK, or ERROR (kVersionMismatch) when the ranges are
/// disjoint. Every later frame is interpreted at the negotiated version.

/// "XNP1"-style magic guarding against a non-xarch peer (first HELLO field).
inline constexpr uint32_t kProtocolMagic = 0x50524158u;  // "XARP" LE

/// Protocol versions this build can speak. Version 2 put a flags octet in
/// front of the QUERY payload (bit 0 asks for a TRACE frame before DONE)
/// and added the METRICS request. Version 1 (raw XAQL text, no METRICS) is
/// no longer spoken: a v1-only peer gets kVersionMismatch at HELLO.
inline constexpr uint32_t kProtocolVersionMin = 2;
inline constexpr uint32_t kProtocolVersionMax = 2;

/// QUERY flags octet.
inline constexpr uint8_t kQueryFlagTrace = 0x01;  ///< send TRACE before DONE

/// Hard ceiling on one frame's body. Bounds server memory per session and
/// rejects absurd declared lengths before any allocation. Large query
/// results are not affected: they stream as many CHUNK frames.
inline constexpr uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Response chunks aim at this size; the last chunk may be smaller.
inline constexpr size_t kChunkBytes = 64 * 1024;

/// Message types. Requests have the high bit clear, responses set.
enum class MessageType : uint8_t {
  // ---- requests (client -> server)
  kHello = 0x01,     ///< magic, min/max version, client name
  kQuery = 0x02,     ///< XAQL text; answered by CHUNK* then DONE, or ERROR
  kIngest = 0x03,    ///< batch of XML documents to append
  kStats = 0x04,     ///< server + session counters
  kPing = 0x05,      ///< liveness probe
  kShutdown = 0x06,  ///< ask the daemon to stop (drain + checkpoint)
  kMetrics = 0x07,   ///< scrape the telemetry registry (v2+)

  // ---- responses (server -> client)
  kHelloOk = 0x81,     ///< negotiated version, server name, backend
  kChunk = 0x82,       ///< one piece of a streamed query result
  kDone = 0x83,        ///< end of a successful query stream
  kError = 0x84,       ///< structured error: code + message
  kIngestOk = 0x85,    ///< new version count after the batch landed
  kStatsOk = 0x86,     ///< encoded StatsReply
  kPong = 0x87,        ///< PING answer
  kShutdownOk = 0x88,  ///< shutdown acknowledged; server begins draining
  kTrace = 0x89,       ///< rendered span tree for a traced query (v2+)
  kMetricsOk = 0x8A,   ///< Prometheus text exposition of the registry (v2+)
};

/// Wire error codes carried by kError frames. Stable numbers: clients
/// switch on them, so new codes are appended, never renumbered.
enum class ErrorCode : uint32_t {
  kUnknown = 0,
  kVersionMismatch = 1,  ///< no protocol version in common
  kMalformedFrame = 2,   ///< bad CRC, oversized or truncated frame
  kUnknownMessage = 3,   ///< valid frame, unrecognized message type
  kBadRequest = 4,       ///< payload decoded but is semantically invalid
  kBusy = 5,             ///< admission control: max in-flight queries held
  kQueryFailed = 6,      ///< XAQL evaluation returned an error
  kIngestFailed = 7,     ///< Append/AppendBatch returned an error
  kShuttingDown = 8,     ///< server is draining; no new work accepted
  kInternal = 9,         ///< anything else
};

/// Human-readable name ("busy", "version-mismatch") for logs and CLIs.
std::string_view ErrorCodeName(ErrorCode code);

/// One decoded frame: the message type and its (owned) payload bytes.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Serializes one frame (header + CRC + body) ready to write to a socket.
/// Payloads above kMaxFrameBytes are a caller bug and are rejected with
/// kInvalidArgument rather than producing an unreadable frame.
StatusOr<std::string> EncodeFrame(MessageType type, std::string_view payload);

/// Result of TryDecodeFrame on a receive buffer.
enum class DecodeResult {
  kFrame,       ///< one complete valid frame was consumed into *out
  kNeedMore,    ///< the buffer holds only a prefix; read more bytes
  kMalformed,   ///< framing is broken (bad CRC / oversized declared length)
};

/// Attempts to decode one frame from the front of `buffer`. On kFrame the
/// consumed bytes are erased from `buffer` and *out is filled. On
/// kMalformed `detail` (when non-null) says why; the buffer is left
/// untouched — the caller should drop the connection, not resynchronize.
DecodeResult TryDecodeFrame(std::string* buffer, Frame* out,
                            std::string* detail);

// --------------------------------------------------------------- payloads
// Each message payload has an Encode function producing the body bytes
// (sans type octet) and a Decode function driven by persist::Cursor; every
// Decode validates ExpectDone so trailing garbage is flagged.

struct HelloRequest {
  uint32_t magic = kProtocolMagic;
  uint32_t min_version = kProtocolVersionMin;
  uint32_t max_version = kProtocolVersionMax;
  std::string client_name;
};

struct HelloReply {
  uint32_t version = 0;  ///< the negotiated protocol version
  std::string server_name;
  std::string backend;  ///< the served store's name, e.g. "durable(archive)"
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

struct IngestRequest {
  std::vector<std::string> documents;  ///< XML texts, ingest order
};

struct IngestReply {
  Version version_count = 0;  ///< store version count after the batch
};

/// Server-wide and per-session counters returned by kStats.
struct StatsReply {
  // -- server-wide
  uint64_t sessions_opened = 0;
  uint64_t sessions_active = 0;
  uint64_t queries = 0;
  uint64_t ingests = 0;
  uint64_t documents_ingested = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t rejected_busy = 0;
  uint64_t protocol_errors = 0;
  uint64_t query_latency_p50_us = 0;
  uint64_t query_latency_p99_us = 0;
  Version store_versions = 0;
  // -- the session answering this request
  uint64_t session_queries = 0;
  uint64_t session_ingests = 0;
  uint64_t session_bytes_in = 0;
  uint64_t session_bytes_out = 0;
};

std::string EncodeHelloRequest(const HelloRequest& hello);
Status DecodeHelloRequest(std::string_view payload, HelloRequest* out);

std::string EncodeHelloReply(const HelloReply& reply);
Status DecodeHelloReply(std::string_view payload, HelloReply* out);

std::string EncodeErrorReply(const ErrorReply& error);
Status DecodeErrorReply(std::string_view payload, ErrorReply* out);

std::string EncodeIngestRequest(const IngestRequest& request);
Status DecodeIngestRequest(std::string_view payload, IngestRequest* out);

std::string EncodeIngestReply(const IngestReply& reply);
Status DecodeIngestReply(std::string_view payload, IngestReply* out);

std::string EncodeStatsReply(const StatsReply& stats);
Status DecodeStatsReply(std::string_view payload, StatsReply* out);

}  // namespace xarch::net

#endif  // XARCH_SERVER_PROTOCOL_H_
