//===- Server.h - terrad: concurrent kernel-compilation service -*- C++ -*-===//
//
// The paper's claim that compiled Terra code "executes separately from the
// Lua runtime" makes it natural to host compilation behind a long-running
// service: clients submit Lua/Terra scripts, get back a content-hash
// handle, and invoke compiled functions by handle — repeatedly, from many
// concurrent connections — while the server amortizes staging, typechecking
// and backend compilation across all of them.
//
// Architecture (DESIGN.md §7):
//
//   accept loop ─▶ one thread per connection    (server/FrameService.h:
//                     │  frame prelude, version    shared with terrafleet)
//                     │  gate, control ops inline
//                     ▼
//               bounded request queue          (backpressure: reject when
//                     │                         full, never block a reader)
//                     ▼
//               worker threads execute compile/call and write their own
//                     │  response on the connection's Link
//               engine LRU: ContentHash(script) -> live Engine
//                        miss falls through to the on-disk .so cache, so
//                        re-creating an evicted engine re-links instead of
//                        re-compiling
//
// Pipelining: a connection may have many requests in flight (bounded by
// MaxInFlightPerConn). The connection thread never blocks on a response:
// each worker answers as its job completes, echoing the request's "id"
// when one was supplied, so clients like fleet/MuxClient can correlate
// out-of-order replies. The connection thread polls with a timeout equal to
// the nearest pending deadline and answers "timeout" for an overdue job
// itself (a worker wedged in user code cannot stall unrelated responses);
// exactly one of the two answers, decided under the job's mutex.
//
// Each Engine is single-threaded, so one mutex per LRU entry serializes
// calls into the same script while different scripts execute in parallel.
// Shutdown (SIGTERM, SIGINT, or a "shutdown" request) drains: the queue
// stops accepting, in-flight work completes and responses are written,
// then connections are closed and the socket file removed.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SERVER_SERVER_H
#define TERRACPP_SERVER_SERVER_H

#include "server/FrameService.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace terracpp {

class Engine;

namespace server {

struct ServerConfig {
  std::string SocketPath;
  unsigned Workers = 0;          ///< 0 => hardware concurrency (min 2).
  unsigned QueueCapacity = 64;   ///< Bounded request queue (backpressure).
  unsigned MaxEngines = 8;       ///< Live-Engine LRU capacity.
  int RequestTimeoutMs = 30000;  ///< Per-request deadline (queue + execute).
  int Backlog = 64;
  /// Pipelining window: max requests one connection may have awaiting
  /// responses before further ones are rejected with code "overloaded".
  unsigned MaxInFlightPerConn = 256;
  /// Requests whose queue-wait + execution exceed this emit a structured
  /// server.slow_request WARN carrying the trace id and a per-stage
  /// breakdown. 0 disables.
  int SlowRequestMs = 1000;

  /// Fills unset fields from TERRAD_WORKERS / TERRAD_QUEUE /
  /// TERRAD_MAX_ENGINES / TERRAD_TIMEOUT_MS / TERRAD_MAX_INFLIGHT /
  /// TERRAD_SLOW_MS and clamps to sane ranges.
  void resolveFromEnv();
};

class Server : private FrameHandler {
public:
  explicit Server(ServerConfig Config);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the accept loop and worker threads. False
  /// on failure (\p Err set). Non-blocking; pair with wait().
  bool start(std::string &Err);

  /// Blocks until the server has fully shut down (signal, shutdown request,
  /// or requestShutdown()) and every in-flight request has drained.
  void wait() { Core.wait(); }

  /// Initiates a drain from any thread (idempotent, async-signal unsafe —
  /// signal handlers should use installSignalHandlers() instead, which the
  /// accept loop polls).
  void requestShutdown() { Core.requestShutdown(); }

  bool running() const { return Core.running(); }
  const ServerConfig &config() const { return Config; }

  /// Installs SIGTERM/SIGINT handlers; one signal drains every running
  /// Server and Router in the process. Call once from main.
  static void installSignalHandlers() { FrameService::installSignalHandlers(); }

  /// Monotonic counters, readable concurrently (also served as {"op":"stats"}).
  /// A point-in-time snapshot assembled from the server's telemetry registry
  /// (see metrics()), which is the source of truth.
  struct Stats {
    uint64_t ConnectionsAccepted = 0;
    uint64_t RequestsReceived = 0;
    uint64_t RequestsCompleted = 0;
    uint64_t RequestsRejected = 0;  ///< Bounded queue full.
    uint64_t RequestsTimedOut = 0;
    uint64_t RequestsFailed = 0;    ///< Completed with ok=false.
    uint64_t CompileRequests = 0;
    uint64_t CompileBatchRequests = 0;
    uint64_t CallRequests = 0;
    uint64_t EnginesCreated = 0;
    uint64_t EnginesEvicted = 0;
    uint64_t EngineWarmHits = 0;    ///< compile/call served by a live engine.
    uint64_t EngineRecreated = 0;   ///< call on an evicted handle re-linked.
    uint64_t QueueDepthHWM = 0;
    uint64_t EnginesLive = 0;
    double UptimeSeconds = 0;       ///< Since start(); 0 before.
    bool DrainedClean = false;      ///< Set once shutdown drained in-flight work.
  };
  Stats stats() const;

  /// The server's private metrics registry: every Stats counter plus
  /// latency histograms (server.queue_wait_us, server.op.<op>.latency_us).
  /// Per-instance so concurrent servers in one process stay independent.
  telemetry::Registry &metrics() { return Reg; }

  /// The {"op":"metrics"} response body: the full server registry, the
  /// process-wide registry (frontend phases, thread pools), and each live
  /// engine's JIT registry keyed by script handle.
  json::Value metricsJson();

private:
  struct Job;
  struct EngineEntry;
  struct Conn;

  // FrameHandler: requests arrive here from the connection threads.
  std::shared_ptr<Link> newLink(int Fd) override;
  void onFrame(const std::shared_ptr<Link> &L, Frame &F) override;
  uint64_t expire(Link &L) override;
  bool awaitIdle(Link &L, uint64_t DeadlineUs) override;
  void onDrain() override;

  void workerLoop();
  /// Answers \p J with \p Response unless its deadline already answered it.
  void finishJob(Job &J, json::Value Response);
  void stopWorkers();

  json::Value dispatch(const json::Value &Request);
  json::Value handleCompile(const json::Value &Request);
  json::Value handleCompileBatch(const json::Value &Request);
  json::Value handleCall(const json::Value &Request);
  json::Value handlePing(const json::Value &Request);
  json::Value statsJson();
  /// {"op":"trace_dump"}: this process's span buffer with absolute
  /// timestamps (trace::Recorder::dumpAbsolute), for fleet-level merging.
  json::Value traceDumpJson();
  /// {"op":"metrics_text"}: the Prometheus exposition of the server,
  /// process, and per-engine registries, every sample labelled with
  /// {process,pid} plus any "labels" the request supplied.
  json::Value metricsTextJson(const json::Value &Request);
  /// {"op":"profile"}: per-function execution profiles merged across live
  /// ready engines (optionally filtered to one "handle").
  json::Value profileOpJson(const json::Value &Request);

  /// Latency histogram for \p Op. Known ops get their own series; anything
  /// else buckets into server.op.other.latency_us so client-controlled op
  /// strings cannot grow the registry without bound.
  telemetry::Histogram &opLatencyHistogram(const std::string &Op);

  /// Returns the ready entry for \p Hash, creating and running the engine
  /// if needed (\p Source may be empty only when the entry must already
  /// exist). Null + \p Error on failure.
  std::shared_ptr<EngineEntry> obtainEngine(const std::string &Hash,
                                            const std::string &Source,
                                            const std::string &Name,
                                            bool &Warm, std::string &Error);
  /// Snapshot of the ready entries (all, or only \p Handle's). Reading an
  /// entry's registries needs no ExecMutex: they are thread-safe, and a
  /// ready entry keeps its engine while the shared_ptr is held.
  std::vector<std::pair<std::string, std::shared_ptr<EngineEntry>>>
  readyEngines(const std::string &Handle = "") const;
  void touchEntry(const std::string &Hash);
  void evictIfNeeded();

  bool pushJob(const std::shared_ptr<Job> &J);
  std::shared_ptr<Job> popJob();

  ServerConfig Config;

  // Bounded request queue. QueueCV wakes workers; IdleCV wakes the drain
  // once the queue is empty and nothing executes.
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::condition_variable IdleCV;
  std::deque<std::shared_ptr<Job>> Queue;
  unsigned InFlight = 0; ///< Popped but not yet completed.
  bool StopWorkers = false;

  // Engine LRU (most recent at front of LruOrder).
  mutable std::mutex EnginesMutex;
  std::unordered_map<std::string, std::shared_ptr<EngineEntry>> Engines;
  std::list<std::string> LruOrder;
  std::unordered_map<std::string, std::string> Sources; ///< hash -> script.

  /// Per-server metrics. Declared before the metric references below so the
  /// references can bind in the constructor initializer list.
  telemetry::Registry Reg;
  telemetry::Counter &MConnectionsAccepted;
  telemetry::Counter &MRequestsReceived;
  telemetry::Counter &MRequestsCompleted;
  telemetry::Counter &MRequestsRejected;
  telemetry::Counter &MRequestsTimedOut;
  telemetry::Counter &MRequestsFailed;
  telemetry::Counter &MCompileRequests;
  telemetry::Counter &MCompileBatchRequests;
  telemetry::Counter &MCallRequests;
  telemetry::Counter &MEnginesCreated;
  telemetry::Counter &MEnginesEvicted;
  telemetry::Counter &MEngineWarmHits;
  telemetry::Counter &MEngineRecreated;
  telemetry::Counter &MSlowRequests;
  telemetry::Gauge &MQueueDepthHwm;
  telemetry::Gauge &MDrainedClean;
  telemetry::Histogram &MQueueWaitUs;
  /// Per-op latency, pre-resolved so the request hot path never touches
  /// the registry lock (see opLatencyHistogram).
  telemetry::Histogram &MCompileLatencyUs;
  telemetry::Histogram &MCallLatencyUs;
  telemetry::Histogram &MPingLatencyUs;
  telemetry::Histogram &MOtherLatencyUs;

  std::vector<std::thread> Workers;

  /// Socket, connection threads and drain; declared last so it is
  /// constructed after (and destroyed before) everything it calls into.
  FrameService Core;
};

} // namespace server
} // namespace terracpp

#endif // TERRACPP_SERVER_SERVER_H
