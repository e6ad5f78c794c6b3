//===- MuxClient.h - Pipelined multiplexing terrad client -------*- C++ -*-===//
//
// server/Client.h is strictly one-round-trip-at-a-time: it writes a frame,
// then blocks until that frame's response arrives, so a client driving an
// autotuner grid pays a full socket round trip per variant. MuxClient keeps
// many requests in flight on one connection instead:
//
//  - every request carries a monotonically increasing "id" (Protocol.h v2);
//    the server answers in completion order, echoing the id
//  - a dedicated reader thread correlates responses to waiters by id, so
//    submissions never wait behind an unrelated slow request
//  - the in-flight window is bounded (submit blocks at the cap, mirroring
//    the server's MaxInFlightPerConn guard)
//  - each request has its own deadline, enforced client-side by the reader
//    thread's poll loop — a late response completes the waiter with a
//    structured "timeout" error while other requests proceed
//
// Failure semantics: when the connection drops (EOF, write failure, corrupt
// frame), every outstanding request completes immediately with a
// structured "shard_unavailable" error — callers never hang on a dead
// shard — and the OnConnectionLost hook fires (the fleet router uses it to
// trigger reconnect-with-backoff). The hook runs on the reader thread:
// implementations must not call close()/connect() on this MuxClient from
// inside it.
//
// Thread-safe: any number of threads may submit/await concurrently.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_FLEET_MUXCLIENT_H
#define TERRACPP_FLEET_MUXCLIENT_H

#include "support/Json.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace terracpp {
namespace fleet {

class MuxClient {
public:
  struct ConnectOptions {
    unsigned Attempts = 1;      ///< Total connect tries (1 = no retry).
    int InitialDelayMs = 20;    ///< First inter-attempt delay (2x growth).
    int MaxDelayMs = 1000;      ///< Delay cap.
    bool HealthCheck = false;   ///< Require a ping round trip after connect.
    int HealthTimeoutMs = 2000; ///< Deadline for that ping.
  };

  struct Options {
    unsigned MaxInFlight = 64; ///< submit() blocks once this many pend.
  };

  /// Invoked with the response object (always an object: real responses,
  /// client-side timeout errors, and shard_unavailable errors alike). Runs
  /// on the reader thread; must not block or re-enter close().
  using Callback = std::function<void(json::Value)>;

  MuxClient() = default;
  explicit MuxClient(Options O) : Opts(O) {}

  /// Adjust the window before connect(); not safe mid-connection.
  void setMaxInFlight(unsigned N) { Opts.MaxInFlight = N ? N : 1; }
  ~MuxClient();
  MuxClient(const MuxClient &) = delete;
  MuxClient &operator=(const MuxClient &) = delete;

  /// Connects (with bounded backoff per \p CO) and starts the reader
  /// thread. False when every attempt fails (error() holds the last).
  /// A MuxClient may be reconnected after close().
  bool connect(const std::string &SocketPath, const ConnectOptions &CO);
  bool connect(const std::string &SocketPath); ///< Default ConnectOptions.

  /// Shuts the socket down, joins the reader thread, and fails any
  /// remaining in-flight requests. OnConnectionLost does NOT fire for a
  /// user-initiated close. Must not be called from the reader thread.
  void close();

  bool connected() const {
    return Fd.load(std::memory_order_acquire) >= 0 &&
           !Down.load(std::memory_order_acquire);
  }

  /// Submits \p Request (the "id" and "v" members are set here; any caller
  /// values are overwritten). Blocks while the in-flight window is full.
  /// Returns the ticket to pass to await(), or 0 when the connection is
  /// down (error() set). With a callback, the response is delivered to it
  /// instead and await() must not be used.
  uint64_t submit(json::Value Request, int TimeoutMs, Callback CB = nullptr);

  /// Blocks until \p Ticket completes (response, client-side timeout error,
  /// or shard_unavailable error — never forever). False for unknown
  /// tickets.
  bool await(uint64_t Ticket, json::Value &Response);

  /// submit + await: one synchronous round trip that still shares the
  /// connection with concurrent submitters. Null value when the request
  /// could not be submitted.
  json::Value request(json::Value Request, int TimeoutMs);

  /// Hook fired (on the reader thread) when the connection is lost for any
  /// reason other than close(). Set before connect().
  void setOnConnectionLost(std::function<void()> Fn) {
    OnConnectionLost = std::move(Fn);
  }

  const std::string &error() const { return LastError; }
  unsigned inFlight();

private:
  struct Pending {
    Callback CB;            ///< Null for await()-style waiters.
    uint64_t DeadlineUs = 0;
    std::string TraceId;    ///< Request's trace_id: client-originated
                            ///< errors (timeout, shard_unavailable) echo
                            ///< it just like real shard responses do.
    json::Value Response;
    bool Done = false;
    bool Collected = false; ///< await() consumed it (erase lazily).
  };

  void readerLoop();
  /// Closes a retired fd (already swapped out of Fd) without racing a write.
  void closeFd(int F);
  /// Completes every pending request with \p Error. Caller must not hold M.
  void failAllPending(const json::Value &Error);
  void complete(uint64_t Id, json::Value Response);

  Options Opts;
  std::atomic<int> Fd{-1};
  std::atomic<bool> Down{true};
  std::atomic<bool> UserClosed{false};
  std::thread Reader;

  std::mutex SendM; ///< Serializes frame writes.

  std::mutex M; ///< Guards Pendings + NextId.
  std::condition_variable WindowCV; ///< Space freed in the window.
  std::condition_variable DoneCV;   ///< Some pending completed.
  std::map<uint64_t, Pending> Pendings;
  uint64_t NextId = 1;

  std::function<void()> OnConnectionLost;
  std::string LastError;
};

inline bool MuxClient::connect(const std::string &SocketPath) {
  return connect(SocketPath, ConnectOptions());
}

} // namespace fleet
} // namespace terracpp

#endif // TERRACPP_FLEET_MUXCLIENT_H
