//===- ServePhase.cpp - Set-up and the `serve` traffic --------------------===//
//
// Load from this one process through a terrafleet router over two spawned
// terrad shards: two pipelined connections (two reader threads) and two
// sender threads. The call mix is one hot handle shared by both
// connections (contention on its engine), one private handle per
// connection, and one loop-heavy function where guest code dominates; a
// trickle of compile requests runs beside the calls.
//
//  * open loop at a fixed rate written here: each call is timed from when
//    it was due, so a stall also charges the calls queued behind it;
//  * closed loop: each connection keeps its in-flight window full, which
//    gives the saturation throughput.
//
// In a traced run every other open-loop call carries the benchmark's spans
// around its client calls (request encode, MuxClient::submit, the response
// check); the difference to the untraced calls is the tracing overhead.
// Traced runs add the per-layer probes: frame encode/decode, a ping to one
// shard (the transport floor), the same calls direct to a shard vs through
// the router (the fleet hop), the same functions in-process (guest time),
// and the shards' own queue-wait and exec histograms.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"
#include "ScriptGen.h"

#include "core/Engine.h"
#include "fleet/HashRing.h"
#include "fleet/MuxClient.h"
#include "fleet/Router.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "support/ContentHash.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace terracpp;
using json::Value;

namespace {

constexpr int32_t M = GenModulus;
/// Open-loop offered load: calls per second per sender (two senders).
constexpr double CallsPerSecondPerSender = 2000;
/// Compile requests per second beside the calls.
constexpr double CompilesPerSecond = 4;
/// In-flight window per connection in the closed loop.
constexpr unsigned Window = 32;
constexpr int RequestTimeoutMs = 5000;
constexpr int HeavyIters = 4000;

Script tinyScript(const std::string &Fn, int32_t A, int32_t B) {
  Script S;
  S.Name = Fn;
  S.Source = "terra " + Fn + "(x: int): int\n  return (x * " +
             std::to_string(A) + " + " + std::to_string(B) + ") % " +
             std::to_string(M) + "\nend\n";
  S.Fns = {Fn};
  return S;
}

int32_t evalTiny(int32_t X, int32_t A, int32_t B) {
  return static_cast<int32_t>((static_cast<int64_t>(X) * A + B) % M);
}

Script heavyScript(int32_t A) {
  Script S;
  S.Name = "heavy";
  S.Source = "terra heavy(x: int): int\n  var acc = x\n  for i = 0, " +
             std::to_string(HeavyIters) + " do acc = (acc * " +
             std::to_string(A) + " + i) % " + std::to_string(M) +
             " end\n  return acc\nend\n";
  S.Fns = {"heavy"};
  return S;
}

int32_t evalHeavy(int32_t X, int32_t A) {
  int64_t Acc = X;
  for (int I = 0; I < HeavyIters; ++I)
    Acc = (Acc * A + I) % M;
  return static_cast<int32_t>(Acc);
}

/// The shard the router places \p S on: its ring over the two shards,
/// keyed like terrad's handles.
unsigned shardOf(const Script &S) {
  static const fleet::HashRing Ring = [] {
    fleet::HashRing R;
    for (unsigned Node = 0; Node != 2; ++Node)
      R.addNode(Node, fleet::RouterConfig().VirtualNodes);
    return R;
  }();
  ContentHash H;
  H.updateField(S.Source);
  unsigned Node = 0;
  Ring.lookup(H.hex(), Node);
  return Node;
}

/// The serve functions. Their constants come from the seed, drawn until
/// the hot function sits alone on one shard and the heavy and both private
/// functions on the other: every seed then gives the same placement (and
/// a 50/50 split of the calls), not one picked by the hash.
struct ServeConsts {
  int32_t HotA, HotB, PrivA[2], PrivB[2], HeavyA;
  Script Hot, Heavy, Private[2];
  explicit ServeConsts(uint64_t Seed) {
    Rng R(Seed * 31 + 7);
    do {
      HotA = 2 + R.below(90);
      HotB = R.below(M);
      for (int C = 0; C != 2; ++C) {
        PrivA[C] = 2 + R.below(90);
        PrivB[C] = R.below(M);
      }
      HeavyA = 2 + R.below(90);
      Hot = tinyScript("hot", HotA, HotB);
      Heavy = heavyScript(HeavyA);
      for (int C = 0; C != 2; ++C)
        Private[C] = tinyScript("priv" + std::to_string(C), PrivA[C],
                                PrivB[C]);
    } while (shardOf(Heavy) == shardOf(Hot) ||
             shardOf(Private[0]) != shardOf(Heavy) ||
             shardOf(Private[1]) != shardOf(Heavy));
  }
};

bool compileVia(server::Client &C, const Script &S, std::string &Handle,
                std::string &Err) {
  server::Client::CompileResult CR = C.compile(S.Source, S.Name,
                                               RequestTimeoutMs * 4);
  if (!CR.OK) {
    Err = "compile " + S.Name + ": " + CR.Error + " " + CR.Diagnostics;
    return false;
  }
  Handle = CR.Handle;
  return true;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::string S, Line;
  while (std::getline(In, Line))
    S += Line + "\n";
  return S;
}

long statusField(int Pid, const std::string &Key) {
  std::string S = readFile("/proc/" + std::to_string(Pid) + "/status");
  size_t P = S.find(Key + ":");
  return P == std::string::npos ? 0 : strtol(S.c_str() + P + Key.size() + 1,
                                             nullptr, 10);
}

/// One planned call of the serve mix.
struct Call {
  int Kind = 0;      ///< 0 hot, 1 private, 2 heavy.
  int32_t Arg = 0;
  int32_t Expected = 0;
};

Call planCall(Rng &R, const ServeConsts &K, int Conn) {
  Call C;
  uint64_t Pick = R.below(100);
  C.Kind = Pick < 50 ? 0 : Pick < 85 ? 1 : 2;
  C.Arg = static_cast<int32_t>(R.below(M));
  C.Expected = C.Kind == 0   ? evalTiny(C.Arg, K.HotA, K.HotB)
               : C.Kind == 1 ? evalTiny(C.Arg, K.PrivA[Conn],
                                        K.PrivB[Conn])
                             : evalHeavy(C.Arg, K.HeavyA);
  return C;
}

Value callRequest(const Fleet &F, const ServeConsts &K, const Call &C,
                  int Conn) {
  Value Req = Value::object();
  Req.set("op", Value::string("call"));
  Req.set("handle", Value::string(C.Kind == 0   ? F.HotHandle
                                  : C.Kind == 1 ? F.PrivateHandle[Conn]
                                                : F.HeavyHandle));
  Req.set("fn", Value::string(C.Kind == 0   ? K.Hot.Fns[0]
                              : C.Kind == 1 ? K.Private[Conn].Fns[0]
                                            : K.Heavy.Fns[0]));
  Value Args = Value::array();
  Args.push(Value::number(C.Arg));
  Req.set("args", std::move(Args));
  return Req;
}

bool resultMatches(const Value &Resp, int32_t Expected) {
  const Value *Res = Resp.get("result");
  return Resp.getBool("ok") && Res && Res->isNumber() &&
         Res->asNumber() == Expected;
}

double histP(const Value &Reg, const std::string &Name, const char *P,
             double &Count) {
  const Value *Hs = Reg.get("histograms");
  const Value *H = Hs ? Hs->get(Name) : nullptr;
  Count = H ? H->getNumber("count") : 0;
  return H ? H->getNumber(P) : 0;
}

double counter(const Value &Reg, const std::string &Name) {
  const Value *Cs = Reg.get("counters");
  return Cs ? Cs->getNumber(Name) : 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fleet and set-up
//===----------------------------------------------------------------------===//

std::vector<int> Fleet::pids() {
  std::vector<int> P;
  if (!Router.started())
    return P;
  P.push_back(Router.pid());
  if (DIR *D = opendir("/proc")) {
    while (dirent *E = readdir(D)) {
      int Pid = atoi(E->d_name);
      if (Pid <= 0)
        continue;
      std::string Stat = readFile("/proc/" + std::to_string(Pid) + "/stat");
      size_t Close = Stat.rfind(')');
      int PPid = 0;
      char St = 0;
      if (Close != std::string::npos &&
          sscanf(Stat.c_str() + Close + 1, " %c %d", &St, &PPid) == 2 &&
          PPid == Router.pid())
        P.push_back(Pid);
    }
    closedir(D);
  }
  return P;
}

void Fleet::stop() {
  if (Router.started() && Router.alive()) {
    // The router drains and stops its shards on SIGTERM; a shard that
    // outlives a router killed by force is killed here.
    std::vector<int> Shards = pids();
    Router.terminate(SIGTERM);
    if (Router.waitExit(10000) < 0) {
      Router.terminate(SIGKILL);
      Router.waitExit(5000);
    }
    for (size_t I = 1; I < Shards.size(); ++I)
      for (int Wait = 0; kill(Shards[I], 0) == 0; ++Wait) {
        if (Wait == 5000)
          kill(Shards[I], SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
  }
  if (!Dir.empty()) {
    runCommand({"rm", "-rf", Dir}, "");
    Dir.clear();
  }
}

int perfbench::threadCount(const std::vector<int> &Pids) {
  long N = 0;
  for (int P : Pids)
    N += statusField(P, "Threads");
  return static_cast<int>(N);
}

double perfbench::peakRssMb(int Pid) {
  return statusField(Pid, "VmHWM") / 1024.0;
}

bool perfbench::setUp(const RunOptions &O, int Attempt, Fleet &F,
                      std::string &Err) {
  // Sockets use paths relative to the run's cwd: absolute checkout paths
  // can exceed the 108-byte sun_path limit.
  F.Dir = O.RunDir + "/fleet" + std::to_string(Attempt);
  std::string Rel = O.RunDirRel + "/fleet" + std::to_string(Attempt);
  mkdir(F.Dir.c_str(), 0700);
  F.Front = Rel + "/front.sock";
  F.ShardStem = Rel + "/shard.shard";

  // The first cc of a run pays for a cold page cache; take it here.
  {
    Engine E(BackendKind::Native);
    Script W = tinyScript("warmcc" + std::to_string(Attempt), 3, Attempt + 1);
    if (!E.run(W.Source, W.Name) || !E.rawPointer(W.Fns[0])) {
      Err = "cc warm-up failed: " + E.errors();
      return false;
    }
  }

  std::vector<std::string> Argv = {
      O.BinDir + "/terrafleet", "--socket",   F.Front,
      "--spawn",                "2",          "--terrad",
      O.BinDir + "/terrad",     "--cache-dir", F.Dir + "/cache",
      "--shard-dir",            Rel,          "--quiet"};
  if (!F.Router.spawn(Argv, {"TERRAD_LOG_LEVEL=warn"}, Err))
    return false;

  server::Client C;
  server::Client::ConnectOptions CO;
  CO.Attempts = 60;
  CO.InitialDelayMs = 5;
  CO.MaxDelayMs = 100;
  CO.HealthCheck = true;
  if (!C.connect(F.Front, CO)) {
    Err = "cannot reach terrafleet: " + C.error();
    return false;
  }
  ServeConsts K(O.Seed);
  return compileVia(C, K.Hot, F.HotHandle, Err) &&
         compileVia(C, K.Heavy, F.HeavyHandle, Err) &&
         compileVia(C, K.Private[0], F.PrivateHandle[0], Err) &&
         compileVia(C, K.Private[1], F.PrivateHandle[1], Err);
}

//===----------------------------------------------------------------------===//
// Traffic
//===----------------------------------------------------------------------===//

namespace {

class ServePhase final : public Phase {
public:
  ServePhase(const RunOptions &O, Fleet &F, Report &R)
      : O(O), F(F), R(R), K(O.Seed), PlanRng{Rng(O.Seed * 1000003),
                                            Rng(O.Seed * 1000003 + 1)},
        ClosedRng{Rng(O.Seed * 7919), Rng(O.Seed * 7919 + 1)},
        CompileRng(O.Seed * 977 + 3), Perturb(O.Perturb) {
    for (fleet::MuxClient &MC : Conn) {
      MC.setMaxInFlight(Window);
      fleet::MuxClient::ConnectOptions CO;
      CO.Attempts = 20;
      Up &= MC.connect(F.Front, CO);
    }
    if (!Up)
      R.check("serve", false,
              "serve: cannot connect: " + Conn[0].error() + Conn[1].error());
  }

  ~ServePhase() override {
    // Fails anything still pending while the records its callbacks write
    // are alive.
    Conn[0].close();
    Conn[1].close();
  }

  void slice(double DeadlineUs) override {
    if (!Up)
      return;
    double Now = nowUs();
    double Open = std::max(0.0, (DeadlineUs - Now) * 0.7);
    openLoop(Open);
    closedLoop(std::max(DeadlineUs, nowUs() + 1000));
  }

  void finish(const Quiet &Q) override;

private:
  /// One open-loop or compile-trickle operation and its outcome. Done is
  /// stamped once the response is checked.
  struct Rec {
    double Due = 0, Sent = 0, Done = 0;
    /// Spans of a traced op: request encode and submit on the sender
    /// thread, the response check on the reader thread.
    double EncodeUs = 0, SubmitUs = 0, CheckUs = 0;
    bool IsCompile = false, OK = false, Traced = false;
    int32_t Expected = 0;
    std::string Note;
    Value Resp; ///< A traced call's response, for the decode probe.
  };

  void openLoop(double DurationUs);
  void closedLoop(double EndUs);
  void tracedProbes();

  const RunOptions &O;
  Fleet &F;
  Report &R;
  ServeConsts K;
  fleet::MuxClient Conn[2];
  bool Up = true;
  Rng PlanRng[2], ClosedRng[2], CompileRng;
  bool Perturb;
  std::vector<Script> Trickle;
  double OpenUs = 0; ///< Open-loop time so far (the trickle's clock).
  size_t CompilesSent = 0;
  Series CallUs, CompileMs, Rps;
  std::vector<double> TracedUs, UntracedUs, LagUs, ClientUs;
  std::vector<Value> Frames; ///< Real responses of traced calls.
};

/// Calls at the fixed rate on both connections for \p DurationUs, with the
/// compile trickle on connection 0. Every call is timed from when it was
/// due; the segment drains before it returns.
void ServePhase::openLoop(double DurationUs) {
  struct Event {
    double Due; ///< Microseconds after the start of the segment.
    bool IsCompile;
    Call C;
    size_t Script; ///< Index into Trickle.
  };
  std::vector<Event> Events[2];
  for (int C = 0; C != 2; ++C)
    for (double Due = 0; Due < DurationUs;
         Due += 1e6 / CallsPerSecondPerSender)
      Events[C].push_back({Due, false, planCall(PlanRng[C], K, C), 0});
  if (Perturb && !Events[0].empty()) {
    Events[0][0].C.Expected += 1;
    Perturb = false;
  }
  // The trickle runs on open-loop time, so it keeps its rate across
  // segments. Every fourth compile repeats an earlier script; new ones
  // cycle through 1..3 functions, so every run sees the same mix.
  for (;;) {
    double At = CompilesSent * 1e6 / CompilesPerSecond - OpenUs;
    if (At >= DurationUs)
      break;
    bool Repeat = CompilesSent % 4 == 3;
    if (!Repeat)
      Trickle.push_back(makeScript(CompileRng, 1000000 + Trickle.size(),
                                   1 + static_cast<int>(Trickle.size() % 3)));
    size_t Pick =
        Repeat ? CompileRng.below(Trickle.size()) : Trickle.size() - 1;
    Events[0].push_back({std::max(At, 0.0), true, Call(), Pick});
    ++CompilesSent;
  }
  OpenUs += DurationUs;
  std::stable_sort(
      Events[0].begin(), Events[0].end(),
      [](const Event &A, const Event &B) { return A.Due < B.Due; });

  std::vector<Rec> Recs[2];
  Recs[0].resize(Events[0].size());
  Recs[1].resize(Events[1].size());
  std::atomic<size_t> Outstanding{0};
  const double Start = nowUs() + 2000;
  auto Sender = [&](int C) {
    // Default timer slack (50us) would show up as generator lag.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (size_t I = 0; I != Events[C].size(); ++I) {
      const Event &Ev = Events[C][I];
      double Due = Start + Ev.Due, Now = nowUs();
      if (Due > Now)
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(Due - Now)));
      Rec &Rc = Recs[C][I];
      Rc.Due = Due;
      Rc.IsCompile = Ev.IsCompile;
      Rc.Traced = O.Traced && I % 2 == 0;
      const double E0 = Rc.Traced ? nowUs() : 0;
      Value Req;
      if (Ev.IsCompile) {
        const Script &S = Trickle[Ev.Script];
        Req = Value::object();
        Req.set("op", Value::string("compile"));
        Req.set("source", Value::string(S.Source));
        Req.set("name", Value::string(S.Name));
        Rc.Note = S.Fns.back();
      } else {
        Req = callRequest(F, K, Ev.C, C);
        Rc.Expected = Ev.C.Expected;
      }
      ++Outstanding;
      Rc.Sent = nowUs();
      if (Rc.Traced)
        Rc.EncodeUs = Rc.Sent - E0;
      uint64_t T = Conn[C].submit(
          std::move(Req), RequestTimeoutMs, [&Rc, &Outstanding](Value Resp) {
            const double C0 = Rc.Traced ? nowUs() : 0;
            if (Rc.IsCompile) {
              bool Has = false;
              if (const Value *Fns = Resp.get("functions"))
                for (const Value &V : Fns->elements())
                  Has |= V.asString() == Rc.Note;
              Rc.OK = Resp.getBool("ok") && Has;
            } else {
              Rc.OK = resultMatches(Resp, Rc.Expected);
            }
            if (Rc.Traced) {
              Rc.Resp = std::move(Resp);
              Rc.CheckUs = nowUs() - C0;
            }
            Rc.Done = nowUs();
            --Outstanding;
          });
      if (Rc.Traced)
        Rc.SubmitUs = nowUs() - Rc.Sent;
      if (!T) {
        Rc.Done = nowUs();
        --Outstanding;
      }
    }
  };
  std::thread Second(Sender, 1);
  Sender(0);
  Second.join();
  // MuxClient completes every request by its deadline; this only bounds a
  // broken client.
  for (int Wait = 0; Outstanding.load() && Wait < 2 * RequestTimeoutMs;
       ++Wait)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Outstanding.load()) {
    Conn[0].close();
    Conn[1].close();
    Up = false;
  }

  for (int C = 0; C != 2; ++C)
    for (const Rec &Rc : Recs[C]) {
      R.check("serve", Rc.OK,
              Rc.IsCompile ? "serve: compile " + Rc.Note : "serve: call");
      LagUs.push_back(Rc.Sent - Rc.Due);
      // A failed op counts as missing any latency target.
      double Lat = Rc.OK ? Rc.Done - Rc.Due : 1e12;
      if (Rc.IsCompile) {
        CompileMs.add(Lat / 1000);
        continue;
      }
      CallUs.add(Lat);
      if (O.Traced) {
        (Rc.Traced ? TracedUs : UntracedUs).push_back(Lat);
        if (Rc.Traced && Rc.OK) {
          ClientUs.push_back(Rc.EncodeUs + Rc.SubmitUs + Rc.CheckUs);
          if (Frames.size() < 512)
            Frames.push_back(Rc.Resp);
        }
      }
    }
}

/// Each connection keeps its in-flight window full until \p EndUs.
void ServePhase::closedLoop(double EndUs) {
  std::atomic<uint64_t> Completed{0}, Failed{0}, Issued{0}, Outstanding{0};
  auto Saturate = [&](int C) {
    while (nowUs() < EndUs) {
      Call Cl = planCall(ClosedRng[C], K, C);
      ++Issued;
      ++Outstanding;
      uint64_t T = Conn[C].submit(
          callRequest(F, K, Cl, C), RequestTimeoutMs,
          [&, Expected = Cl.Expected](Value Resp) {
            // Only good results count towards the throughput.
            if (!resultMatches(Resp, Expected))
              ++Failed;
            else if (nowUs() <= EndUs)
              ++Completed;
            --Outstanding;
          });
      if (!T) {
        ++Failed;
        --Outstanding;
      }
    }
  };
  double Begin = nowUs();
  std::thread Second(Saturate, 1);
  Saturate(0);
  Second.join();
  double WallUs = std::min(nowUs(), EndUs) - Begin;
  if (WallUs > 0)
    Rps.add(Completed.load() / (WallUs / 1e6));
  for (int Wait = 0; Outstanding.load() && Wait < 2 * RequestTimeoutMs;
       ++Wait)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Outstanding.load()) {
    Conn[0].close();
    Conn[1].close();
    Up = false;
  }
  R.count("serve", Issued.load(), Failed.load());
}

void ServePhase::finish(const Quiet &Q) {
  R.timing("call_p50_us", "us", CallUs, 50, Q, "fleet", "tier1");
  R.timing("call_rps_max", "1/s", Rps, 50, Q, "fleet", "tier1");
  R.timing("service_compile_ms_p50", "ms", CompileMs, 50, Q, "fleet",
           "tier1");
  if (O.Traced)
    tracedProbes();
}

void ServePhase::tracedProbes() {
  // The call tail is reported here, without a bound: on the hosts this
  // runs on it is set by host preemption (sender wake-ups late by up to
  // 25 ms), and its run-to-run spread is 2-3x.
  R.layer("serve.call_p99_us", "us", windowed(CallUs, 99, 1000), "fleet",
          "tier1");

  // Frame encode and decode of this run's real frames, over a socketpair.
  std::vector<double> EncUs, DecUs;
  int SV[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, SV) == 0) {
    Rng PR(O.Seed * 7 + 1);
    server::FrameReader FR;
    for (size_t I = 0; I != Frames.size(); ++I) {
      int C = static_cast<int>(I % 2);
      double T0 = nowUs();
      Value Req = callRequest(F, K, planCall(PR, K, C), C);
      Req.set("id", Value::number(static_cast<double>(I + 1)));
      Req.set("v", Value::number(server::ProtocolVersion));
      bool W = server::writeFrame(SV[0], Req.dump());
      EncUs.push_back(nowUs() - T0);
      std::string Payload;
      while (W && !FR.next(Payload))
        FR.fill(SV[1]);
      // The response direction: decode a real response frame.
      W = W && server::writeFrame(SV[0], Frames[I].dump());
      T0 = nowUs();
      Value Resp;
      std::string Err;
      while (W && !FR.next(Payload))
        FR.fill(SV[1]);
      json::parse(Payload, Resp, Err);
      DecUs.push_back(nowUs() - T0);
    }
    close(SV[0]);
    close(SV[1]);
  }

  // Transport floor, the fleet hop and the shards' own histograms. The
  // direct calls go to the hot function's own shard, so both paths end in
  // the same engine.
  server::Client Direct, Front;
  std::vector<double> PingUs, FrontUs, DirectUs;
  if (Direct.connect(F.ShardStem + std::to_string(shardOf(K.Hot))) &&
      Front.connect(F.Front)) {
    std::string Err, H;
    bool OK = compileVia(Direct, K.Hot, H, Err); // a warm engine hit
    for (int I = 0; OK && I != 300; ++I) {
      double T0 = nowUs();
      OK = Direct.ping();
      PingUs.push_back(nowUs() - T0);
    }
    Rng PR(O.Seed * 13 + 5);
    for (int I = 0; OK && I != 300; ++I) {
      int32_t X = static_cast<int32_t>(PR.below(M));
      std::vector<json::Value> Args = {Value::number(X)};
      int32_t Want = evalTiny(X, K.HotA, K.HotB);
      double T0 = nowUs();
      server::Client::CallResult A = Front.call(F.HotHandle, "hot", Args);
      double T1 = nowUs();
      server::Client::CallResult B = Direct.call(H, "hot", Args);
      double T2 = nowUs();
      OK = A.OK && B.OK && A.Result.asNumber() == Want &&
           B.Result.asNumber() == Want;
      FrontUs.push_back(T1 - T0);
      DirectUs.push_back(T2 - T1);
    }
    R.check("serve", OK, "serve: direct/front probe calls");
  } else {
    R.check("serve", false, "serve: cannot connect probes");
  }

  double QW50 = 0, QW99 = 0, Exec50 = 0, QWN = 0, ExecN = 0, WarmHits = 0,
         Created = 0, Evicted = 0;
  for (int S = 0; S != 2; ++S) {
    server::Client SC;
    Value Mx = SC.connect(F.ShardStem + std::to_string(S)) ? SC.metrics()
                                                           : Value();
    const Value *Reg = Mx.get("server");
    if (!Reg) {
      R.check("serve", false, "serve: metrics from shard " + std::to_string(S));
      continue;
    }
    double N = 0, NE = 0;
    double P50 = histP(*Reg, "server.queue_wait_us", "p50", N);
    double P99 = histP(*Reg, "server.queue_wait_us", "p99", N);
    double E50 = histP(*Reg, "server.op.call.latency_us", "p50", NE);
    // Count-weighted mean over the two shards.
    QW50 += P50 * N;
    QW99 += P99 * N;
    QWN += N;
    Exec50 += E50 * NE;
    ExecN += NE;
    WarmHits += counter(*Reg, "server.engine_warm_hits");
    Created += counter(*Reg, "server.engines_created");
    Evicted += counter(*Reg, "server.engines_evicted");
  }
  QW50 = QWN ? QW50 / QWN : 0;
  QW99 = QWN ? QW99 / QWN : 0;
  Exec50 = ExecN ? Exec50 / ExecN : 0;

  // Guest time: the same call mix in-process, through the entry thunk.
  std::vector<double> GuestUs;
  {
    Engine E(BackendKind::Native);
    TerraFunction *Fn[4] = {nullptr, nullptr, nullptr, nullptr};
    const Script *Src[4] = {&K.Hot, &K.Private[0], &K.Private[1], &K.Heavy};
    bool OK = true;
    for (int I = 0; I != 4 && OK; ++I) {
      OK = E.run(Src[I]->Source, Src[I]->Name);
      Fn[I] = OK ? E.terraFunction(Src[I]->Fns[0]) : nullptr;
      OK = Fn[I] && E.compiler().ensureCompiled(Fn[I]) && Fn[I]->Entry;
    }
    Rng PR(O.Seed * 1000003);
    for (int I = 0; OK && I != 2000; ++I) {
      Call Cl = planCall(PR, K, 0);
      TerraFunction *G = Fn[Cl.Kind == 0 ? 0 : Cl.Kind == 1 ? 1 : 3];
      int32_t A = Cl.Arg, Ret = -1;
      void *Args[1] = {&A};
      double T0 = nowUs();
      G->Entry(Args, &Ret);
      GuestUs.push_back(nowUs() - T0);
      OK = Ret == Cl.Expected;
    }
    R.check("serve", OK, "serve: in-process guest calls");
  }

  double Enc = median(EncUs), Dec = median(DecUs), Ping = median(PingUs);
  double Hop = median(FrontUs) - median(DirectUs);
  double TracedP50 = percentile(TracedUs, 50);
  R.layer("proto.encode_us", "us", Enc, "fleet", "tier1");
  R.layer("proto.decode_us", "us", Dec, "fleet", "tier1");
  R.layer("server.ping_rtt_us", "us", Ping, "fleet", "tier1");
  R.layer("server.queue_wait_us_p50", "us", QW50, "fleet", "tier1");
  R.layer("server.queue_wait_us_p99", "us", QW99, "fleet", "tier1");
  R.layer("server.call_exec_us_p50", "us", Exec50, "fleet", "tier1");
  R.layer("guest.call_us", "us", median(GuestUs), "native", "tier1");
  R.layer("fleet.hop_us", "us", Hop, "fleet", "tier1");
  R.layer("server.engine_warm_hit_ratio", "ratio",
          WarmHits + Created ? WarmHits / (WarmHits + Created) : 0, "fleet",
          "tier1");
  R.layer("server.engines_evicted", "count", Evicted, "fleet", "tier1");
  R.layer("server.daemon_threads", "count", threadCount(F.pids()), "fleet",
          "tier1");
  R.layer("serve.gen_lag_us_p99", "us", percentile(LagUs, 99), "fleet",
          "tier1");
  R.layer("serve.client_us", "us", median(ClientUs), "fleet", "tier1");
  R.layer("serve.unattributed_us", "us",
          TracedP50 - (Enc + Dec + Ping + Hop + QW50 + Exec50), "fleet",
          "tier1");
  R.layer("trace.call_overhead_us", "us",
          TracedP50 - percentile(UntracedUs, 50), "fleet", "tier1");
}

} // namespace

std::unique_ptr<Phase> perfbench::makeServePhase(const RunOptions &O,
                                                 Fleet &F, Report &R) {
  return std::make_unique<ServePhase>(O, F, R);
}
