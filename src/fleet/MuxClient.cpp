#include "fleet/MuxClient.h"

#include "server/Protocol.h"
#include "support/Backoff.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace terracpp;
using namespace terracpp::fleet;
using terracpp::json::Value;

MuxClient::~MuxClient() { close(); }

void MuxClient::closeFd(int F) {
  // Under SendM: a submit() that loaded F before it was retired finishes
  // its write first, so the number can never be reused under it.
  std::lock_guard<std::mutex> SL(SendM);
  if (F >= 0)
    ::close(F);
}

bool MuxClient::connect(const std::string &SocketPath,
                        const ConnectOptions &CO) {
  close();
  UserClosed.store(false, std::memory_order_release);
  backoff::Policy P;
  P.MaxAttempts = CO.Attempts;
  P.InitialDelayMs = CO.InitialDelayMs;
  P.MaxDelayMs = CO.MaxDelayMs;
  return backoff::retry(P, [&] {
    std::string Err;
    int NewFd = server::connectUnix(SocketPath, Err);
    if (NewFd < 0) {
      LastError = Err;
      return false;
    }
    Fd.store(NewFd, std::memory_order_release);
    Down.store(false, std::memory_order_release);
    Reader = std::thread([this] { readerLoop(); });
    if (CO.HealthCheck) {
      // A bound socket whose daemon is wedged (or a stale socket file from
      // a dead process that something else re-bound) must not count as up.
      Value R = request(server::opRequest("ping"), CO.HealthTimeoutMs);
      if (!R.getBool("ok")) {
        LastError = R.isNull() ? LastError : R.getString("error",
                                                         "health check failed");
        if (LastError.empty())
          LastError = "health check ping failed";
        // Tear this attempt down without flagging UserClosed permanently:
        // the retry loop may try again.
        close();
        UserClosed.store(false, std::memory_order_release);
        return false;
      }
    }
    return true;
  });
}

void MuxClient::close() {
  UserClosed.store(true, std::memory_order_release);
  int F = Fd.exchange(-1, std::memory_order_acq_rel);
  if (F >= 0)
    ::shutdown(F, SHUT_RDWR); // Wakes the reader's poll with EOF.
  if (Reader.joinable())
    Reader.join();
  closeFd(F); // Only after the reader is gone: no fd-reuse races.
  Down.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(M);
  }
  WindowCV.notify_all();
  DoneCV.notify_all();
}

unsigned MuxClient::inFlight() {
  std::lock_guard<std::mutex> Lock(M);
  unsigned N = 0;
  for (const auto &P : Pendings)
    if (!P.second.Done)
      ++N;
  return N;
}

uint64_t MuxClient::submit(Value Request, int TimeoutMs, Callback CB) {
  // The window counts requests still waiting on the wire; Done entries a
  // slow caller has not await()ed yet hold no shard resources and must not
  // wedge new submissions.
  auto ActiveCount = [this] {
    unsigned N = 0;
    for (const auto &P : Pendings)
      if (!P.second.Done)
        ++N;
    return N;
  };
  uint64_t Id;
  {
    std::unique_lock<std::mutex> Lock(M);
    WindowCV.wait(Lock, [&] {
      return Down.load(std::memory_order_acquire) ||
             ActiveCount() < Opts.MaxInFlight;
    });
    if (Down.load(std::memory_order_acquire)) {
      LastError = "not connected";
      return 0;
    }
    Id = NextId++;
    Pending &P = Pendings[Id];
    P.CB = std::move(CB);
    P.TraceId = Request.getString("trace_id");
    if (TimeoutMs > 0)
      P.DeadlineUs =
          telemetry::nowMicros() + static_cast<uint64_t>(TimeoutMs) * 1000;
  }
  Request.set("id", Value::number(static_cast<double>(Id)));
  Request.set("v", Value::number(server::ProtocolVersion));
  bool WriteOK;
  {
    std::lock_guard<std::mutex> SL(SendM);
    int F = Fd.load(std::memory_order_acquire);
    WriteOK = F >= 0 && server::writeMessage(F, Request);
  }
  if (!WriteOK) {
    // The connection is dying; the reader will observe it too. Complete
    // this request with a structured error so await()/the callback still
    // get exactly one answer.
    int F = Fd.load(std::memory_order_acquire);
    if (F >= 0)
      ::shutdown(F, SHUT_RD); // Hasten the reader's discovery.
    complete(Id, server::errorResponseCode("shard_unavailable",
                                           "shard connection lost "
                                           "(write failed)"));
  }
  return Id;
}

bool MuxClient::await(uint64_t Ticket, Value &Response) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Pendings.find(Ticket);
  if (It == Pendings.end() || It->second.CB)
    return false;
  // std::map iterators are stable: only await() erases ticket-style
  // entries, and only after Done.
  DoneCV.wait(Lock, [&] { return It->second.Done; });
  Response = std::move(It->second.Response);
  Pendings.erase(It);
  Lock.unlock();
  WindowCV.notify_all();
  return true;
}

Value MuxClient::request(Value Request, int TimeoutMs) {
  uint64_t Ticket = submit(std::move(Request), TimeoutMs);
  if (Ticket == 0)
    return Value();
  Value Response;
  if (!await(Ticket, Response))
    return Value();
  return Response;
}

void MuxClient::complete(uint64_t Id, Value Response) {
  Callback CB;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Pendings.find(Id);
    if (It == Pendings.end() || It->second.Done)
      return; // Late response after timeout/failure: drop.
    // Client-originated errors are built without the request in hand; make
    // them indistinguishable from shard responses by echoing the trace_id.
    if (!It->second.TraceId.empty() &&
        Response.getString("trace_id").empty())
      Response.set("trace_id", Value::string(It->second.TraceId));
    if (It->second.CB) {
      CB = std::move(It->second.CB);
      Pendings.erase(It);
    } else {
      It->second.Response = std::move(Response);
      It->second.Done = true;
    }
  }
  if (CB)
    CB(std::move(Response));
  DoneCV.notify_all();
  WindowCV.notify_all();
}

void MuxClient::failAllPending(const Value &Error) {
  // Each waiter gets its own copy of the error stamped with its request's
  // trace_id, so even a mass connection-loss failure stays correlatable.
  std::vector<std::pair<Callback, std::string>> Callbacks;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (auto It = Pendings.begin(); It != Pendings.end();) {
      if (It->second.Done) {
        ++It;
        continue;
      }
      if (It->second.CB) {
        Callbacks.emplace_back(std::move(It->second.CB),
                               std::move(It->second.TraceId));
        It = Pendings.erase(It);
      } else {
        It->second.Response = Error;
        if (!It->second.TraceId.empty())
          It->second.Response.set("trace_id",
                                  Value::string(It->second.TraceId));
        It->second.Done = true;
        ++It;
      }
    }
  }
  for (auto &CB : Callbacks) {
    Value E = Error;
    if (!CB.second.empty())
      E.set("trace_id", Value::string(CB.second));
    CB.first(std::move(E));
  }
  DoneCV.notify_all();
  WindowCV.notify_all();
}

void MuxClient::readerLoop() {
  server::FrameReader FR;
  const int LocalFd = Fd.load(std::memory_order_acquire);
  bool Lost = false;
  while (!Lost) {
    // Poll no longer than the nearest pending deadline (capped at 50 ms so
    // newly submitted deadlines are picked up promptly).
    uint64_t Now = telemetry::nowMicros();
    int WaitMs = 50;
    {
      std::lock_guard<std::mutex> Lock(M);
      for (const auto &P : Pendings) {
        if (P.second.Done || P.second.DeadlineUs == 0)
          continue;
        uint64_t Left =
            P.second.DeadlineUs > Now ? P.second.DeadlineUs - Now : 0;
        int LeftMs = static_cast<int>(Left / 1000) + 1;
        WaitMs = std::min(WaitMs, LeftMs);
      }
    }
    struct pollfd PFd = {LocalFd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, WaitMs);
    if (PR < 0 && errno != EINTR) {
      Lost = true;
      break;
    }

    // Sweep expired requests: each completes with a structured timeout
    // error while the rest of the window keeps going.
    Now = telemetry::nowMicros();
    std::vector<uint64_t> Expired;
    {
      std::lock_guard<std::mutex> Lock(M);
      for (const auto &P : Pendings)
        if (!P.second.Done && P.second.DeadlineUs &&
            Now >= P.second.DeadlineUs)
          Expired.push_back(P.first);
    }
    for (uint64_t Id : Expired)
      complete(Id, server::errorResponseCode(
                       "timeout", "request timed out waiting for shard"));

    if (PR <= 0 || !(PFd.revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    server::FrameReader::Feed F = FR.fill(LocalFd);
    if (F == server::FrameReader::Feed::Eof ||
        F == server::FrameReader::Feed::Error) {
      Lost = true;
      break;
    }
    std::string Payload;
    while (FR.next(Payload)) {
      Value Response;
      std::string Err;
      if (!json::parse(Payload, Response, Err))
        continue; // Unparseable frame: ignore; framing itself is intact.
      uint64_t Id = static_cast<uint64_t>(Response.getNumber("id", 0));
      if (Id != 0)
        complete(Id, std::move(Response));
    }
    if (FR.corrupt())
      Lost = true;
  }

  Down.store(true, std::memory_order_release);
  failAllPending(server::errorResponseCode("shard_unavailable",
                                           "shard connection lost"));
  if (!UserClosed.load(std::memory_order_acquire) && OnConnectionLost)
    OnConnectionLost();
}
