#include "server/Client.h"

#include "server/Protocol.h"
#include "support/Backoff.h"

#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;
using terracpp::json::Value;

Client::~Client() { close(); }

bool Client::connect(const std::string &SocketPath) {
  close();
  Fd = connectUnix(SocketPath, LastError);
  return Fd >= 0;
}

bool Client::connect(const std::string &SocketPath,
                     const ConnectOptions &Opts) {
  backoff::Policy P;
  P.MaxAttempts = Opts.Attempts;
  P.InitialDelayMs = Opts.InitialDelayMs;
  P.MaxDelayMs = Opts.MaxDelayMs;
  return backoff::retry(P, [&] {
    if (!connect(SocketPath))
      return false;
    if (Opts.HealthCheck && !ping(0, Opts.HealthTimeoutMs)) {
      if (LastError.empty())
        LastError = "health check ping failed";
      close();
      return false;
    }
    return true;
  });
}

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Value Client::request(const Value &Request, int TimeoutMs) {
  if (Fd < 0) {
    LastError = "not connected";
    return Value();
  }
  // Stamp the protocol version on every outgoing request (callers build
  // op-specific objects and should not have to remember it).
  Value Stamped = Request;
  if (Stamped.isObject() && !Stamped.get("v"))
    Stamped.set("v", Value::number(ProtocolVersion));
  if (!writeMessage(Fd, Stamped)) {
    LastError = "send failed";
    close();
    return Value();
  }
  Value Response;
  std::string Err;
  FrameStatus St = readMessage(Fd, Response, Err, TimeoutMs);
  if (St != FrameStatus::OK) {
    switch (St) {
    case FrameStatus::Closed:
      LastError = "server closed the connection";
      break;
    case FrameStatus::Timeout:
      LastError = "timed out waiting for response";
      break;
    default:
      LastError = Err.empty() ? "receive failed" : Err;
    }
    close();
    return Value();
  }
  if (Response.isObject() && Response.get("v") &&
      static_cast<int>(Response.getNumber("v")) != ProtocolVersion) {
    LastError = "protocol version mismatch: peer speaks v" +
                std::to_string(static_cast<int>(Response.getNumber("v")));
    close();
    return Value();
  }
  return Response;
}

Client::CompileResult Client::compile(const std::string &Source,
                                      const std::string &Name,
                                      int TimeoutMs) {
  Value Req = opRequest("compile");
  Req.set("source", Value::string(Source));
  if (!Name.empty())
    Req.set("name", Value::string(Name));

  CompileResult R;
  Value Resp = request(Req, TimeoutMs);
  if (Resp.isNull()) {
    R.Error = LastError;
    return R;
  }
  R.OK = Resp.getBool("ok");
  if (!R.OK) {
    R.Error = Resp.getString("error", "compile failed");
    R.Diagnostics = Resp.getString("diagnostics");
    return R;
  }
  R.Handle = Resp.getString("handle");
  R.Warm = Resp.getBool("warm");
  R.Seconds = Resp.getNumber("seconds");
  if (const Value *Fns = Resp.get("functions"))
    for (const Value &F : Fns->elements())
      R.Functions.push_back(F.asString());
  if (const Value *Warns = Resp.get("warnings"))
    for (const Value &W : Warns->elements())
      R.Warnings.push_back(W.getString("rendered"));
  return R;
}

Client::CallResult Client::call(const std::string &Handle,
                                const std::string &Fn,
                                const std::vector<Value> &Args,
                                int TimeoutMs) {
  Value Req = opRequest("call");
  Req.set("handle", Value::string(Handle));
  Req.set("fn", Value::string(Fn));
  Value ArgArr = Value::array();
  for (const Value &A : Args)
    ArgArr.push(A);
  Req.set("args", std::move(ArgArr));

  CallResult R;
  Value Resp = request(Req, TimeoutMs);
  if (Resp.isNull()) {
    R.Error = LastError;
    return R;
  }
  R.OK = Resp.getBool("ok");
  if (!R.OK) {
    R.Error = Resp.getString("error", "call failed");
    R.Diagnostics = Resp.getString("diagnostics");
    return R;
  }
  if (const Value *Res = Resp.get("result"))
    R.Result = *Res;
  return R;
}

Value Client::stats(int TimeoutMs) {
  return request(opRequest("stats"), TimeoutMs);
}

Value Client::metrics(int TimeoutMs) {
  return request(opRequest("metrics"), TimeoutMs);
}

bool Client::ping(int DelayMs, int TimeoutMs) {
  Value Req = opRequest("ping");
  if (DelayMs > 0)
    Req.set("delay_ms", Value::number(DelayMs));
  Value Resp = request(Req, TimeoutMs);
  if (Resp.isNull())
    return false;
  if (!Resp.getBool("ok")) {
    LastError = Resp.getString("error", "ping failed");
    return false;
  }
  return true;
}

bool Client::shutdownServer() {
  Value Resp = request(opRequest("shutdown"));
  return !Resp.isNull() && Resp.getBool("ok");
}
