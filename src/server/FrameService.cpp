#include "server/FrameService.h"

#include "server/Protocol.h"
#include "support/Log.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;
using terracpp::json::Value;

//===----------------------------------------------------------------------===//
// Link
//===----------------------------------------------------------------------===//

Link::~Link() { ::close(Fd); }

bool Link::send(Value R, const std::string &TraceId, const Value &Id) {
  R.set("v", Value::number(ProtocolVersion));
  R.set("trace_id", Value::string(TraceId));
  if (Id.isNull())
    R.remove("id");
  else
    R.set("id", Id);
  std::lock_guard<std::mutex> Lock(WriteM);
  if (closed())
    return false;
  if (!writeMessage(Fd, R)) {
    Closed.store(true, std::memory_order_release);
    // Wake the connection's reader if it is parked on a half-dead peer.
    ::shutdown(Fd, SHUT_RD);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Signals
//===----------------------------------------------------------------------===//

// Written by a signal handler, read by every service's accept loop. A
// generation count rather than a flag: nobody has to consume it, so one
// signal reaches every service in the process (lock-free atomics are
// async-signal-safe).
static std::atomic<unsigned> GSignalGeneration{0};
static_assert(std::atomic<unsigned>::is_always_lock_free);

static void onTerminationSignal(int) {
  GSignalGeneration.fetch_add(1, std::memory_order_relaxed);
}

void FrameService::installSignalHandlers() {
  struct sigaction SA;
  memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTerminationSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

FrameService::FrameService(FrameHandler &Owner, Options Opts)
    : Owner(Owner), Opts(std::move(Opts)) {}

FrameService::~FrameService() {
  requestShutdown();
  wait();
}

bool FrameService::start(const std::string &Path, int Backlog,
                         std::string &Err) {
  if (started()) {
    Err = Opts.Role + " already started";
    return false;
  }
  ListenFd = listenUnix(Path, Backlog, Err);
  if (ListenFd < 0)
    return false;
  SocketPath = Path;
  SignalGeneration = GSignalGeneration.load(std::memory_order_relaxed);
  StartTime = std::chrono::steady_clock::now();
  // Published before any thread exists that could read it.
  Started.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void FrameService::requestShutdown() {
  if (Draining.exchange(true))
    return;
  // The accept loop notices Draining within one poll interval and drains on
  // its own thread; a service that never started has nothing to drain.
  if (!started())
    ShutdownComplete = true;
}

void FrameService::wait() {
  if (!started())
    return;
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  ShutdownCV.wait(Lock, [&] { return ShutdownComplete.load(); });
  if (Acceptor.joinable())
    Acceptor.join();
}

double FrameService::uptimeSeconds() const {
  if (!started())
    return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       StartTime)
      .count();
}

void FrameService::acceptLoop() {
  while (!draining()) {
    if (GSignalGeneration.load(std::memory_order_relaxed) != SignalGeneration) {
      requestShutdown();
      break;
    }
    struct pollfd PFd = {ListenFd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, 100);
    // Reap every tick, not only on accept, so an idle service does not
    // hold finished connections' threads until the next client.
    reap(/*All=*/false);
    if (PR < 0 && errno != EINTR) {
      requestShutdown();
      break;
    }
    if (PR <= 0 || !(PFd.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (Opts.Accepted)
      Opts.Accepted->inc();
    auto C = std::make_unique<Conn>();
    C->L = Owner.newLink(Fd);
    Conn *CP = C.get();
    CP->T = std::thread([this, CP] { serve(*CP); });
    Conns.push_back(std::move(C));
  }
  drain();
}

void FrameService::reap(bool All) {
  auto Keep = Conns.begin();
  for (auto &C : Conns) {
    if (All || C->Finished.load(std::memory_order_acquire))
      C->T.join();
    else
      *Keep++ = std::move(C);
  }
  Conns.erase(Keep, Conns.end());
}

void FrameService::drain() {
  // New clients are refused from here on.
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(SocketPath.c_str());
  Owner.onDrain();
  // Half-close: blocked reads see EOF while answers still in flight can be
  // written; each connection thread exits once its requests are answered.
  for (auto &C : Conns)
    ::shutdown(C->L->fd(), SHUT_RD);
  reap(/*All=*/true);
  {
    std::lock_guard<std::mutex> Lock(ShutdownMutex);
    ShutdownComplete = true;
  }
  ShutdownCV.notify_all();
}

//===----------------------------------------------------------------------===//
// Connections
//===----------------------------------------------------------------------===//

void FrameService::serve(Conn &C) {
  Link &L = *C.L;
  FrameReader Reader;
  std::string Payload;
  bool Open = true;
  while (Open) {
    // Sleep no longer than the nearest deadline of this connection's
    // pending requests, so an overdue one is answered on time.
    int WaitMs = -1;
    if (uint64_t Deadline = Owner.expire(L)) {
      uint64_t Now = telemetry::nowMicros();
      WaitMs = Deadline > Now ? static_cast<int>((Deadline - Now + 999) / 1000)
                              : 0;
    }
    struct pollfd PFd = {L.fd(), POLLIN, 0};
    int PR = ::poll(&PFd, 1, WaitMs);
    if (PR < 0 && errno != EINTR)
      break;
    if (PR <= 0)
      continue;
    FrameReader::Feed Feed = Reader.fill(L.fd());
    if (Feed == FrameReader::Feed::Eof || Feed == FrameReader::Feed::Error)
      break;
    while (Open && Reader.next(Payload))
      Open = handlePayload(C.L, Payload);
    // A corrupt length header leaves no way to find the next frame.
    if (Reader.corrupt())
      break;
  }
  // Stay until every request read on this connection has been answered
  // (or timed out), so drain never cuts off a pending answer.
  while (!Owner.awaitIdle(L, Owner.expire(L))) {
  }
  C.Finished.store(true, std::memory_order_release);
}

std::string FrameService::mintTraceId() {
  // One process-wide prefix; a getpid() syscall per request would be
  // measurable against the warm-call round trip.
  static const std::string PidPrefix = std::to_string(::getpid()) + "-";
  return PidPrefix +
         std::to_string(NextTraceId.fetch_add(1, std::memory_order_relaxed));
}

bool FrameService::handlePayload(const std::shared_ptr<Link> &L,
                                 const std::string &Payload) {
  Frame F;
  std::string Err;
  if (!json::parse(Payload, F.Request, Err)) {
    // Malformed JSON gets one answer, then the connection ends.
    L->send(errorResponse("bad request: " + Err), mintTraceId(), Value());
    return false;
  }
  if (Opts.Received)
    Opts.Received->inc();
  // Every answer carries the request's trace_id, client-supplied or minted
  // here, so clients can correlate replies and spans with their traces.
  F.TraceId = F.Request.getString("trace_id");
  if (F.TraceId.empty()) {
    F.TraceId = mintTraceId();
    F.Request.set("trace_id", Value::string(F.TraceId));
  }
  if (const Value *Id = F.Request.get("id"))
    F.Id = *Id;
  if (!F.Request.isObject())
    return L->send(errorResponse("request must be a JSON object"), F.TraceId,
                   F.Id);

  // Version gate: a peer speaking another protocol revision gets a
  // structured refusal it can render, instead of an answer whose shape it
  // may misread.
  const Value *V = F.Request.get("v");
  int Got = (V && V->isNumber()) ? static_cast<int>(V->asNumber()) : 0;
  if (Got != ProtocolVersion) {
    if (Opts.Mismatches)
      Opts.Mismatches->inc();
    std::string Msg = "protocol version mismatch: " + Opts.Role +
                      " speaks v" + std::to_string(ProtocolVersion) +
                      ", request carried ";
    Msg += V ? std::string(1, 'v') + std::to_string(Got) : "no version";
    Value R = errorResponseCode("protocol_mismatch", Msg);
    R.set("expected", Value::number(ProtocolVersion));
    R.set("got", Value::number(Got));
    return L->send(std::move(R), F.TraceId, F.Id);
  }

  F.Op = F.Request.getString("op");
  if (F.Op == "shutdown") {
    // Answered before the drain starts; the reader then stays until the
    // drain half-closes the socket.
    Value R = okResponse();
    R.set("draining", Value::boolean(true));
    L->send(std::move(R), F.TraceId, F.Id);
    requestShutdown();
    return true;
  }
  Owner.onFrame(L, F);
  return !L->closed();
}
