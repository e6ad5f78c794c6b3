//===- FrameService.h - Connection core of terrad and terrafleet -*- C++ -*-==//
//
// terrad (server/Server.h) and the fleet router (fleet/Router.h) both serve
// the framed protocol of server/Protocol.h on a Unix socket. This core owns
// what they share (DESIGN.md §7): the accept loop, one thread per
// connection (FrameReader + poll, woken by the nearest deadline its
// handler reports), the frame prelude (bad-request reply, trace-id
// minting, the "v" gate, the "shutdown" op), the signal counter and the
// drain. Each service is a FrameHandler that answers requests on the
// connection's Link, inline or later from another thread.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SERVER_FRAMESERVICE_H
#define TERRACPP_SERVER_FRAMESERVICE_H

#include "support/Json.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace terracpp {
namespace server {

/// The write side of one client connection.
class Link {
public:
  explicit Link(int Fd) : Fd(Fd) {}
  virtual ~Link();
  Link(const Link &) = delete;
  Link &operator=(const Link &) = delete;

  /// Stamps \p R with the protocol version, \p TraceId and \p Id (a null
  /// \p Id removes any "id" member, e.g. a relayed shard's mux id) and
  /// writes it as one frame. False once a write has failed; the link then
  /// drops every later send and its reader sees EOF.
  bool send(json::Value R, const std::string &TraceId, const json::Value &Id);

  bool closed() const { return Closed.load(std::memory_order_acquire); }
  int fd() const { return Fd; }

private:
  const int Fd;
  std::mutex WriteM;
  std::atomic<bool> Closed{false};
};

/// One request that passed the prelude: a JSON object of the right
/// protocol version. TraceId is the client's or one minted here (then also
/// stamped into Request, so every later hop echoes the same id).
struct Frame {
  json::Value Request;
  std::string Op;
  std::string TraceId;
  json::Value Id; ///< The client's correlation id; null when absent.

  /// The request's "timeout_ms" when it is a number >= 1, else \p Default.
  int timeoutMs(int Default) const {
    const json::Value *T = Request.get("timeout_ms");
    return T && T->asNumber() >= 1 ? static_cast<int>(T->asNumber())
                                   : Default;
  }
};

/// What a FrameService asks of the service built on it.
class FrameHandler {
public:
  virtual ~FrameHandler() = default;
  /// Creates the Link of a new connection; override to keep per-connection
  /// state on it.
  virtual std::shared_ptr<Link> newLink(int Fd) {
    return std::make_shared<Link>(Fd);
  }
  /// Answers \p F on \p L, now or later. Runs on the connection's thread,
  /// which reads no further frame until it returns.
  virtual void onFrame(const std::shared_ptr<Link> &L, Frame &F) = 0;
  /// Answers the requests of \p L whose deadline has passed; returns the
  /// nearest deadline still ahead (telemetry::nowMicros clock), 0 if none.
  virtual uint64_t expire(Link &) { return 0; }
  /// After the peer closed: waits until \p L has no unanswered request or
  /// until \p DeadlineUs (0: no bound); true once none is left.
  virtual bool awaitIdle(Link &, uint64_t /*DeadlineUs*/) { return true; }
  /// Runs once on drain, after the accept loop stopped and before the
  /// connections are half-closed.
  virtual void onDrain() {}
};

class FrameService {
public:
  struct Options {
    /// Names the speaker in protocol_mismatch refusals ("server speaks v2").
    std::string Role = "server";
    telemetry::Counter *Accepted = nullptr;   ///< Per accepted connection.
    telemetry::Counter *Received = nullptr;   ///< Per well-formed frame.
    telemetry::Counter *Mismatches = nullptr; ///< Per protocol_mismatch.
  };

  FrameService(FrameHandler &Owner, Options Opts);
  ~FrameService();
  FrameService(const FrameService &) = delete;
  FrameService &operator=(const FrameService &) = delete;

  /// Binds \p SocketPath and starts the accept loop. False (\p Err set)
  /// when already started or the socket cannot be bound.
  bool start(const std::string &SocketPath, int Backlog, std::string &Err);
  /// Initiates a drain from any thread (idempotent).
  void requestShutdown();
  /// Blocks until the drain has finished; returns at once if never started.
  void wait();

  bool started() const { return Started.load(std::memory_order_acquire); }
  bool draining() const { return Draining.load(std::memory_order_acquire); }
  bool running() const { return started() && !ShutdownComplete.load(); }
  double uptimeSeconds() const;

  /// SIGTERM/SIGINT bump a process-wide generation counter; every service
  /// drains once the counter differs from the value it read at start(), so
  /// one signal drains all services in the process and a service started
  /// later is unaffected. Call once from main.
  static void installSignalHandlers();

private:
  struct Conn {
    std::shared_ptr<Link> L;
    std::thread T;
    std::atomic<bool> Finished{false};
  };

  void acceptLoop();
  void serve(Conn &C);
  /// Runs the prelude on one payload; false ends the connection.
  bool handlePayload(const std::shared_ptr<Link> &L, const std::string &Payload);
  std::string mintTraceId();
  void reap(bool All);
  void drain();

  FrameHandler &Owner;
  Options Opts;
  std::string SocketPath;
  int ListenFd = -1;
  unsigned SignalGeneration = 0;
  std::chrono::steady_clock::time_point StartTime{};
  std::atomic<bool> Started{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> ShutdownComplete{false};
  std::mutex ShutdownMutex;
  std::condition_variable ShutdownCV;
  std::atomic<uint64_t> NextTraceId{1};

  /// Touched by the accept thread only (accept, reap, drain).
  std::vector<std::unique_ptr<Conn>> Conns;
  std::thread Acceptor;
};

} // namespace server
} // namespace terracpp

#endif // TERRACPP_SERVER_FRAMESERVICE_H
