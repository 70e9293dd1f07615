#ifndef XARCH_CLIENT_CLIENT_H_
#define XARCH_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/net_util.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xarch/sink.h"

namespace xarch {

/// Connection parameters for Client::Connect.
struct ClientOptions {
  /// Announced in HELLO; shows up in server logs and stats.
  std::string client_name = "xarch-client";
  /// Protocol versions this client offers. Defaults cover everything the
  /// linked library speaks; tests narrow them to exercise negotiation.
  uint32_t min_version = net::kProtocolVersionMin;
  uint32_t max_version = net::kProtocolVersionMax;
  /// A server that stalls longer than this answering a request is an
  /// error (covers both mid-frame stalls and between-frame silence; long
  /// queries keep streaming chunks, which resets the clock). < 0 = wait
  /// forever.
  int response_timeout_ms = 60 * 1000;
};

/// \brief Blocking client for the xarchd wire protocol: one TCP
/// connection, one request in flight at a time.
///
/// Connect() performs the HELLO version negotiation; after it succeeds
/// the accessors report what the server announced. Each method sends one
/// request frame and blocks for the response. A kError frame from the
/// server is surfaced as a Status whose message carries the wire error
/// code name ("busy", "query-failed", ...); any transport or framing
/// failure poisons the connection — the client closes it and every later
/// call fails fast with kIoError.
///
/// Not thread-safe: one Client per thread (bench_server opens N).
class Client {
 public:
  /// Connects and negotiates. On version mismatch the server's ERROR is
  /// returned as kUnimplemented with the server's version range in the
  /// message.
  static StatusOr<std::unique_ptr<Client>> Connect(const std::string& host,
                                                   uint16_t port,
                                                   ClientOptions options = {});

  // The internal FrameReader refers to the owned socket, so a Client is
  // pinned in place (hence the unique_ptr from Connect).
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The negotiated protocol version.
  uint32_t protocol_version() const { return hello_.version; }
  /// The server's banner (ServerOptions::server_name).
  const std::string& server_name() const { return hello_.server_name; }
  /// The served store's name, e.g. "durable(archive)".
  const std::string& backend() const { return hello_.backend; }

  /// Runs one XAQL query, streaming the result chunks into `sink` as they
  /// arrive. A server-side failure mid-stream yields a non-OK Status;
  /// whatever chunks reached the sink before it must be discarded (the
  /// stream was not closed by DONE and is not a result).
  ///
  /// When `trace_out` is non-null the query is sent with the trace flag
  /// and the server's rendered span tree lands in *trace_out.
  Status Query(std::string_view query_text, Sink& sink,
               std::string* trace_out = nullptr);

  /// Query into a string (convenience for small results).
  StatusOr<std::string> QueryToString(std::string_view query_text,
                                      std::string* trace_out = nullptr);

  /// Scrapes the server's telemetry registry: Prometheus text exposition.
  StatusOr<std::string> Metrics();

  /// Appends a batch of XML documents; returns the server's version count
  /// after the batch landed.
  StatusOr<Version> Ingest(const std::vector<std::string_view>& documents);

  /// Server + this-session counters.
  StatusOr<net::StatsReply> Stats();

  /// Liveness round trip.
  Status Ping();

  /// Asks the daemon to stop (drain sessions, checkpoint, exit).
  Status Shutdown();

  /// Closes the connection; later calls fail with kIoError.
  void Close() { socket_.Close(); }

  /// The wire error code of the last ERROR frame any call on this client
  /// received (kUnknown when the last call succeeded). Lets callers
  /// branch on e.g. ErrorCode::kBusy without parsing Status messages.
  net::ErrorCode last_error_code() const { return last_error_code_; }

 private:
  explicit Client(net::Socket socket, ClientOptions options)
      : socket_(std::move(socket)),
        options_(std::move(options)),
        reader_(socket_) {}

  /// Sends `type` and reads the one response frame, resolving kError
  /// frames into a Status. `expect` is the success response type.
  StatusOr<net::Frame> RoundTrip(net::MessageType type,
                                 std::string_view payload,
                                 net::MessageType expect);

  /// Reads one response frame, mapping transport failures to kIoError
  /// and poisoning the connection.
  StatusOr<net::Frame> ReadResponse();

  /// Converts a decoded kError frame into the Status the caller sees,
  /// recording its code in last_error_code_.
  Status ErrorFrameToStatus(const net::Frame& frame);

  net::Socket socket_;
  ClientOptions options_;
  net::FrameReader reader_;
  net::HelloReply hello_;
  net::ErrorCode last_error_code_ = net::ErrorCode::kUnknown;
};

}  // namespace xarch

#endif  // XARCH_CLIENT_CLIENT_H_
