//===- Protocol.h - terrad wire protocol ------------------------*- C++ -*-===//
//
// The terrad daemon (DESIGN.md §7) speaks a length-prefixed framed protocol
// over a Unix-domain stream socket. Every frame is
//
//   [u32 payload length, big endian][payload bytes]
//
// where the payload is one JSON value (support/Json.h). Requests are
// objects with an "op" member and a protocol version "v" (see
// ProtocolVersion below; missing or mismatched versions get a structured
// "protocol_mismatch" error):
//
//   {"op":"compile","v":2,"source":"terra f(...) ... end","name":"script"}
//     -> {"ok":true,"handle":"<16 hex>","functions":["f",...],
//         "warm":false,"seconds":0.31,"diagnostics":""}
//   {"op":"call","v":2,"handle":"<16 hex>","fn":"f","args":[1,2.5,"s",true]}
//     -> {"ok":true,"result":3.5}
//   {"op":"compile_batch","v":2,"sources":[{"source":"...","name":"a"},...]}
//     -> {"ok":true,"results":[<per-source compile responses, in order>]}
//   {"op":"stats"}     -> {"ok":true, ...counters...}
//   {"op":"metrics"}   -> {"ok":true, ...full registries (JSON)...}
//   {"op":"metrics_text","labels":{"shard":"0"}}
//     -> {"ok":true,"content_type":"text/plain; version=0.0.4",
//         "text":"# TYPE terracpp_server_requests_received counter\n..."}
//        (Prometheus exposition; optional "labels" stamped on every sample)
//   {"op":"trace_dump"} -> {"ok":true,"pid":...,"process_name":"...",
//         "clock_us":...,"events":[...absolute-timestamp span buffer...]}
//        (the fleet router merges these into one Perfetto timeline)
//   {"op":"profile"}   -> {"ok":true,"version":1,"components":{...}}
//        (per-function call/back-edge counts + resident tier, keyed by
//         component content hash; see TierManager::profileJson)
//   {"op":"ping","delay_ms":0}  -> {"ok":true,"mono_us":...}
//        (delay_ms: debug latency; mono_us: the server's monotonic clock,
//         used for cross-process trace clock-offset estimation)
//   {"op":"shutdown"}  -> {"ok":true,"draining":true}; server drains + exits
//
// Distributed tracing (DESIGN.md §13): any request may carry a "trace_id"
// string (generated server-side when absent — every response echoes it,
// success and failure alike) and a "parent_span" reference ("pid-spanid");
// the receiving process parents its request spans to it, which is how one
// request renders as a span chain across client -> router -> shard.
//
// Failures are {"ok":false,"error":"...","diagnostics":"..."} with an
// optional machine-readable "code" ("protocol_mismatch", "timeout",
// "overloaded", "shard_unavailable"). The same framing runs in both
// directions; exactly one response per request. Responses arrive in request
// order per connection UNLESS the request carries a numeric "id" member:
// requests with ids may be answered out of order, each response echoing the
// id, which is what lets a client keep many requests in flight on one
// connection (fleet/MuxClient.h).
//
// This header also carries the blocking socket helpers shared by the
// server, the client library, and the tests: full-frame reads/writes that
// handle partial transfers, EINTR, and an optional receive deadline.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SERVER_PROTOCOL_H
#define TERRACPP_SERVER_PROTOCOL_H

#include "support/Json.h"

#include <string>

namespace terracpp {
namespace server {

/// Frames larger than this are protocol errors (protects both sides from
/// allocating garbage lengths sent by a confused peer).
constexpr uint32_t MaxFramePayload = 64u << 20;

/// Wire protocol version carried in every frame's "v" member. Bumped when
/// the request/response shape changes incompatibly; both terrad and the
/// fleet router reject peers speaking a different version with a
/// structured "protocol_mismatch" error instead of misinterpreting frames.
/// v2 added request ids (pipelining), compile_batch, and error codes.
constexpr int ProtocolVersion = 2;

enum class FrameStatus {
  OK,
  Closed,   ///< Orderly EOF before any byte of the frame.
  Timeout,  ///< Receive deadline expired.
  Error,    ///< I/O failure or malformed length.
};

/// Writes one [length][payload] frame; retries partial writes. False on any
/// write failure (the connection should be dropped).
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one full frame into \p Payload. \p TimeoutMs < 0 blocks forever;
/// otherwise the whole frame must arrive within the deadline.
FrameStatus readFrame(int Fd, std::string &Payload, int TimeoutMs = -1);

/// writeFrame(dump) convenience.
bool writeMessage(int Fd, const json::Value &V);

/// readFrame + parse. On FrameStatus::Error, \p Err distinguishes I/O from
/// JSON problems.
FrameStatus readMessage(int Fd, json::Value &Out, std::string &Err,
                        int TimeoutMs = -1);

/// A request object carrying only its "op" (callers add the rest).
json::Value opRequest(const std::string &Op);

/// The canonical success response, {"ok":true}, for callers to extend.
json::Value okResponse();

/// Builds the canonical error response.
json::Value errorResponse(const std::string &Message,
                          const std::string &Diagnostics = "");

/// errorResponse plus a machine-readable "code" member so clients can react
/// without parsing prose ("protocol_mismatch", "timeout", "overloaded",
/// "shard_unavailable").
json::Value errorResponseCode(const std::string &Code,
                              const std::string &Message,
                              const std::string &Diagnostics = "");

/// Incremental frame decoder for multiplexed connections. readFrame() above
/// blocks until a whole frame arrives, and on timeout it abandons partial
/// bytes — fatal mid-stream, since the next read would start inside the old
/// frame. FrameReader instead accumulates whatever bytes each fill() call
/// finds and surfaces complete frames as they close, so a poll-driven
/// reader thread can interleave deadline sweeps with reads without ever
/// losing framing.
class FrameReader {
public:
  enum class Feed {
    Ok,         ///< Read some bytes (frames may now be available via next()).
    WouldBlock, ///< No data ready; try again after poll().
    Eof,        ///< Peer closed cleanly.
    Error,      ///< I/O error or oversized/corrupt length header.
  };

  /// Non-blocking-ish read: pulls whatever the socket has (the fd need not
  /// be O_NONBLOCK; callers poll() first and pass MSG_DONTWAIT semantics
  /// are handled internally).
  Feed fill(int Fd);

  /// Pops the next complete frame payload; false when none is buffered.
  bool next(std::string &Payload);

  /// Latched when a length header exceeded MaxFramePayload; the connection
  /// is unrecoverable.
  bool corrupt() const { return Corrupt; }

private:
  std::string Buf;   ///< Undecoded bytes (may span many frames).
  size_t Pos = 0;    ///< Decode cursor into Buf.
  bool Corrupt = false;
};

/// Connects to a Unix-domain socket path; -1 on failure (\p Err set).
int connectUnix(const std::string &Path, std::string &Err);

/// Creates, binds, and listens on a Unix-domain socket path, unlinking any
/// stale socket file first; -1 on failure (\p Err set).
int listenUnix(const std::string &Path, int Backlog, std::string &Err);

} // namespace server
} // namespace terracpp

#endif // TERRACPP_SERVER_PROTOCOL_H
