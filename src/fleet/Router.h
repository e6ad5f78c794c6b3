//===- Router.h - terrafleet: sharded terrad routing tier -------*- C++ -*-===//
//
// A fleet front-end that speaks the ordinary terrad protocol on its front
// socket and fans requests out across N terrad shards (DESIGN.md §12).
// Clients — `terracpp --connect`, server/Client.h, fleet/MuxClient.h — need
// no changes: the router looks exactly like one big terrad.
//
//   client ──▶ front socket ──▶ consistent-hash ring ──▶ shard 0 (terrad)
//                    │            (HashRing.h, keyed by   shard 1 (terrad)
//                    │             the request's content  shard 2 (terrad)
//                    │             hash / handle)             │
//                    └── stats/metrics aggregate ◀────────────┘
//
//  - Placement: compile requests hash their source exactly as terrad does
//    (ContentHash::updateField), call requests hash their handle, so a
//    script's compile and every later call land on the same shard and hit
//    its warm engine.
//  - Shards are either SPAWNED (the router forks terrad via
//    support/Subprocess DaemonProcess, pointing every shard at one shared
//    TERRACPP_CACHE_DIR so artifacts promoted on one shard are disk-cache
//    hits on all) or ATTACHED (an external terrad's socket path; the
//    router never kills those).
//  - Transport: one MuxClient per shard, many requests in flight, bounded
//    window, per-request deadlines.
//  - Failure: a dead shard's in-flight requests complete with structured
//    "shard_unavailable" errors (never hang); the shard leaves the ring so
//    other keys keep their placement; a monitor thread respawns owned
//    shards and reconnects with capped exponential backoff; on success the
//    shard rejoins the ring.
//  - compile_batch fans one grid out across the ring by per-source hash
//    and reassembles results in submission order.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_FLEET_ROUTER_H
#define TERRACPP_FLEET_ROUTER_H

#include "fleet/HashRing.h"
#include "fleet/MuxClient.h"
#include "server/FrameService.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/Telemetry.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace terracpp {
namespace fleet {

struct ShardConfig {
  std::string SocketPath;
  bool Spawn = false; ///< Router owns the process (spawns + reaps terrad).
};

struct RouterConfig {
  std::string FrontSocket;
  std::vector<ShardConfig> Shards;
  std::string TerradBinary = "terrad"; ///< For spawned shards (PATH lookup).
  std::string CacheDir; ///< Shared TERRACPP_CACHE_DIR for spawned shards.
  unsigned VirtualNodes = 64;       ///< Ring points per shard.
  unsigned MaxInFlightPerShard = 128;
  int RequestTimeoutMs = 30000;     ///< Default when clients send none.
  unsigned ConnectAttempts = 25;    ///< Initial connect tries per shard.
  int ReconnectBaseMs = 20;         ///< Reconnect backoff start.
  int ReconnectMaxMs = 1000;        ///< Reconnect backoff cap.
  bool AutoRespawn = true;          ///< Respawn dead owned shards.
  int Backlog = 64;
  /// Routed requests slower than this (front read to shard response) emit a
  /// structured fleet.slow_request WARN with the trace id. 0 disables.
  int SlowRequestMs = 1000;
  /// Spawn shards with TERRACPP_TRACE=- (in-memory span recording) and
  /// estimate each shard's clock offset after connect, so trace_dump /
  /// mergedTraceJson can assemble a cross-process timeline.
  bool TraceShards = false;
  /// When set, beginShutdown writes the merged fleet trace here (while the
  /// shards are still alive to answer trace_dump).
  std::string TraceOutPath;
};

class Router : private server::FrameHandler {
public:
  explicit Router(RouterConfig Config);
  ~Router();
  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Spawns/attaches shards, builds the ring, binds the front socket, and
  /// starts the accept + monitor threads. False (with \p Err) when the
  /// front socket cannot be bound or no shard comes up.
  bool start(std::string &Err);

  /// Blocks until shutdown completes (signal, shutdown request, or
  /// requestShutdown()).
  void wait() { Core.wait(); }

  /// Initiates shutdown from any thread (idempotent). Owned shards get a
  /// shutdown request then SIGTERM; attached shards are left running.
  void requestShutdown() { Core.requestShutdown(); }

  bool running() const { return Core.running(); }
  const RouterConfig &config() const { return Config; }

  /// SIGTERM/SIGINT -> drain, the same handlers as Server's: one signal
  /// drains every router and server in the process.
  static void installSignalHandlers() {
    server::FrameService::installSignalHandlers();
  }

  /// Which shard the ring places \p Key on (a handle / content hash), or
  /// -1 when the ring is empty. Exposed for tests and diagnostics.
  int shardIndexForKey(const std::string &Key);

  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }
  bool shardUp(unsigned Index);

  /// Router-level counters (fleet.*): requests routed/failed, reconnects,
  /// respawns, shards_up gauge, route latency histogram.
  telemetry::Registry &metrics() { return Reg; }

  /// One Perfetto timeline merging the router's own span buffer with every
  /// up shard's trace_dump, shard timestamps shifted onto the router's
  /// clock by the ping-estimated offsets. Served for the front-socket
  /// trace_dump op and written to TraceOutPath at shutdown.
  json::Value mergedTraceJson();

private:
  struct Shard {
    ShardConfig Cfg;
    MuxClient Mux;
    std::atomic<bool> Up{false};
    DaemonProcess Proc;            ///< Only used when Cfg.Spawn.
    std::atomic<uint64_t> NextAttemptUs{0}; ///< Monitor retry schedule.
    unsigned FailedAttempts = 0;   ///< Monitor thread only.
    telemetry::Counter *Requests = nullptr; ///< fleet.shard<i>.requests.
    /// Estimated shard_mono - router_mono clock offset (microseconds), from
    /// ping RTT midpoints: aligning a shard timestamp onto the router's
    /// timeline is ts - ClockOffsetUs. Valid only when ClockAligned.
    std::atomic<int64_t> ClockOffsetUs{0};
    std::atomic<bool> ClockAligned{false};
  };

  // FrameHandler: front-socket requests arrive here from the connection
  // threads; the drain hook winds down relays, the trace and the shards.
  void onFrame(const std::shared_ptr<server::Link> &L,
               server::Frame &F) override;
  void onDrain() override;
  void monitorLoop();

  bool spawnShard(unsigned Index, std::string &Err);
  bool connectShard(unsigned Index, unsigned Attempts);
  void onShardLost(unsigned Index);
  /// Marks a freshly connected shard up and adds it to the ring.
  void joinRing(unsigned Index);
  /// Refreshes the fleet.shards_up gauge; returns the count.
  unsigned countShardsUp();
  /// One control round trip to an up shard (2 s deadline): the response
  /// without its id and trace_id, or null when the shard is down or
  /// answered an error.
  json::Value askShard(unsigned Index, json::Value Request);

  void routeRequest(const std::shared_ptr<server::Link> &L,
                    server::Frame &F);
  void routeBatch(const std::shared_ptr<server::Link> &L,
                  const server::Frame &F);
  json::Value aggregatedStats();
  json::Value aggregatedMetrics();
  /// Prometheus exposition: the router's registry plus every up shard's
  /// metrics_text (each labelled {"shard":"<i>"}), merged per family.
  json::Value aggregatedMetricsText(const json::Value &Request);
  /// Per-function profiles merged across shards ({"op":"profile"}).
  json::Value aggregatedProfile(const json::Value &Request);
  /// Min-RTT ping sampling of the shard's monotonic clock; stores the
  /// offset on the Shard. False when no ping round trip succeeded.
  bool estimateShardClock(unsigned Index);

  RouterConfig Config;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::mutex RingM;
  HashRing Ring;

  telemetry::Registry Reg;
  telemetry::Counter &MRequestsRouted;
  telemetry::Counter &MRequestsFailed;
  telemetry::Counter &MShardUnavailable;
  telemetry::Counter &MReconnects;
  telemetry::Counter &MRespawns;
  telemetry::Counter &MBatchRequests;
  telemetry::Counter &MProtocolMismatches;
  telemetry::Counter &MSlowRequests;
  telemetry::Gauge &MShardsUp;
  telemetry::Histogram &MRouteLatencyUs;

  std::atomic<bool> StopMonitor{false};
  std::thread Monitor;

  /// Front socket, connection threads and drain; declared last so it is
  /// constructed after (and destroyed before) everything it calls into.
  server::FrameService Core;
};

} // namespace fleet
} // namespace terracpp

#endif // TERRACPP_FLEET_ROUTER_H
