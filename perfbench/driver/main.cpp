//===- main.cpp - perfbench driver ----------------------------------------===//
//
//   perfbench_driver --workload compile|serve --seed N --seconds S
//                    --trace 0|1 --bin-dir DIR [--rev REV] [--perturb]
//
// One run: set-up (seven times, the median is setup_s), then the compile,
// serve and kernels phases against the public APIs of terracpp, interleaved
// in half-second slices until --seconds are spent. The last
// stdout line is the result: {"correct","attempted","failed","metrics"},
// with the end-to-end metrics when untraced and the per-layer metrics when
// traced. The line before it is the ledger: one row per metric with the
// host fingerprint, source revision, seed, backend and tier policy, and
// whether the metric is a count that must repeat exactly for a seed.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "support/Json.h"
#include "support/Subprocess.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;
using terracpp::json::Value;

namespace {

std::string firstLine(const std::string &S) {
  return S.substr(0, S.find('\n'));
}

Value hostFingerprint(const std::string &RunDir) {
  Value H = Value::object();
  H.set("nproc",
        Value::number(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  std::ifstream In("/proc/cpuinfo");
  std::string Line, Model = "unknown";
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      Model = Line.substr(Line.find(':') + 2);
      break;
    }
  H.set("cpu", Value::string(Model));
  terracpp::SpawnResult CC = terracpp::runCommand({"cc", "--version"}, RunDir);
  H.set("cc", Value::string(CC.ok() ? firstLine(CC.Stdout) : "unavailable"));
  return H;
}

/// All CPU time and the part the hypervisor gave to other guests ("steal"),
/// in clock ticks since boot; zero where /proc/stat cannot be read.
struct CpuTicks {
  uint64_t Total = 0, Steal = 0;
};

CpuTicks cpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  CpuTicks C;
  // user nice system idle iowait irq softirq steal
  for (int I = 0; I != 8; ++I) {
    uint64_t V = 0;
    if (!(In >> V))
      return {};
    C.Total += V;
    if (I == 7)
      C.Steal = V;
  }
  return C;
}

double stealShare(const CpuTicks &A, const CpuTicks &B) {
  return B.Total > A.Total
             ? static_cast<double>(B.Steal - A.Steal) / (B.Total - A.Total)
             : 0;
}

int usage() {
  fprintf(stderr, "usage: perfbench_driver --workload compile|serve "
                  "--seed N --seconds S --trace 0|1 --bin-dir DIR "
                  "[--rev REV] [--perturb]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string Rev = "unknown";
  int Trace = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (A == "--perturb") {
      O.Perturb = true;
      continue;
    }
    if (!V)
      return usage();
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = atof(V);
    else if (A == "--trace")
      Trace = atoi(V);
    else if (A == "--bin-dir")
      O.BinDir = V;
    else if (A == "--rev")
      Rev = V;
    else
      return usage();
  }
  if ((O.Workload != "compile" && O.Workload != "serve") ||
      (Trace != 0 && Trace != 1) || O.Seconds <= 0 || O.BinDir.empty())
    return usage();
  O.Traced = Trace == 1;

  // Private per-run directory under the working directory (the checkout):
  // in-process compile cache, fleet sockets and shared fleet cache.
  char Cwd[4096];
  if (!getcwd(Cwd, sizeof(Cwd)))
    return 1;
  mkdir(".bench_run", 0700);
  O.RunDirRel = ".bench_run/" + std::to_string(getpid());
  O.RunDir = std::string(Cwd) + "/" + O.RunDirRel;
  if (mkdir(O.RunDir.c_str(), 0700) != 0) {
    perror("perfbench: cannot create run dir");
    return 1;
  }
  // Only the settings below may shape a run.
  for (const char *Var : {"TERRACPP_JIT_TIER", "TERRACPP_BACKEND",
                          "TERRACPP_CACHE", "TERRACPP_CACHE_MAX_MB",
                          "TERRACPP_INTERP", "TERRACPP_JIT_BASELINE",
                          "TERRACPP_TRACE", "TERRACPP_ANALYZE",
                          "TERRACPP_COMPILE_JOBS"})
    unsetenv(Var);
  setenv("TERRACPP_CACHE_DIR", (O.RunDir + "/cache").c_str(), 1);

  Report R;
  std::string Err;
  // Set-up runs SetUps times, each from a fresh private dir; setup_s is
  // the median and the last fleet serves the run.
  constexpr int SetUps = 7;
  std::vector<double> SetupS;
  std::unique_ptr<Fleet> F;
  for (int Attempt = 0; Attempt != SetUps; ++Attempt) {
    if (F)
      F->stop();
    F = std::make_unique<Fleet>();
    double T0 = nowUs();
    if (!setUp(O, Attempt, *F, Err)) {
      fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      F.reset();
      terracpp::runCommand({"rm", "-rf", O.RunDir}, "");
      return 1;
    }
    SetupS.push_back((nowUs() - T0) / 1e6);
  }

  {
    // Slices of SliceUs in a cycle of five, one for kernels. The compile
    // workload gives three to compile and one to serve. The serve workload
    // gives two to each: a compile op is long (cc), and the compile figures
    // need a few dozen of them to be steady.
    constexpr double SliceUs = 500000;
    std::unique_ptr<Phase> Compile = makeCompilePhase(O, R);
    std::unique_ptr<Phase> Serve = makeServePhase(O, *F, R);
    std::unique_ptr<Phase> Kernels = makeKernelPhase(O, R);
    Phase *C = Compile.get(), *S = Serve.get(), *K = Kernels.get();
    Phase *const CompileCycle[5] = {C, S, C, K, C};
    Phase *const ServeCycle[5] = {S, C, S, K, C};
    Phase *const *Cycle = O.Workload == "compile" ? CompileCycle : ServeCycle;
    const double End = nowUs() + O.Seconds * 1e6;
    struct SliceRec {
      Phase *P;
      double BeginUs, EndUs, Steal;
    };
    std::vector<SliceRec> Slices;
    for (int I = 0; nowUs() < End; I = (I + 1) % 5) {
      CpuTicks T0 = cpuTicks();
      double B = nowUs();
      Cycle[I]->slice(std::min(End, B + SliceUs));
      Slices.push_back({Cycle[I], B, nowUs(), stealShare(T0, cpuTicks())});
    }
    // Each phase's quiet slices: no more stolen than its median slice. A
    // phase's first slice warms it up (threads, connections, caches) and
    // is never quiet.
    auto quiet = [&Slices](Phase *P) {
      std::vector<const SliceRec *> Mine;
      std::vector<double> Shares;
      for (const SliceRec &Sl : Slices)
        if (Sl.P == P) {
          Mine.push_back(&Sl);
          Shares.push_back(Sl.Steal);
        }
      if (Mine.size() > 1) {
        Mine.erase(Mine.begin());
        Shares.erase(Shares.begin());
      }
      double Cut = median(Shares);
      Quiet Q;
      for (const SliceRec *Sl : Mine)
        if (Sl->Steal <= Cut)
          Q.add(Sl->BeginUs, Sl->EndUs);
      return Q;
    };
    std::vector<double> Shares;
    for (const SliceRec &Sl : Slices)
      Shares.push_back(Sl.Steal);
    R.layer("host.steal_share", "share", median(Shares), "host", "n/a");
    Compile->finish(quiet(C));
    Serve->finish(quiet(S));
    Kernels->finish(quiet(K));
  }

  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  double RssMb = RU.ru_maxrss / 1024.0;
  for (int Pid : F->pids())
    RssMb += peakRssMb(Pid);
  F.reset();
  Value Host = hostFingerprint(O.RunDir);
  terracpp::runCommand({"rm", "-rf", O.RunDir}, "");
  rmdir(".bench_run");

  R.e2e("setup_s", "s", median(SetupS), "fleet", "tier1");
  R.e2e("peak_rss_mb", "MB", RssMb, "host", "n/a");
  R.e2e("ok_ops_share", "share", R.okShare(), "host", "n/a");

  for (const std::string &N : R.FailureNotes)
    fprintf(stderr, "perfbench: FAILED %s\n", N.c_str());

  const std::vector<Metric> &Out = O.Traced ? R.Layer : R.EndToEnd;
  Value Metrics = Value::object(), Ledger = Value::array();
  bool Finite = true;
  for (const Metric &M : Out) {
    Finite &= std::isfinite(M.Value);
    Value V = Value::object();
    V.set("value", Value::number(std::isfinite(M.Value) ? M.Value : 0));
    V.set("unit", Value::string(M.Unit));
    Metrics.set(M.Name, std::move(V));
    Value Row = Value::object();
    Row.set("bench", Value::string("perfbench"));
    Row.set("case", Value::string(O.Workload));
    Row.set("metric", Value::string(M.Name));
    Row.set("unit", Value::string(M.Unit));
    Row.set("value", Value::number(std::isfinite(M.Value) ? M.Value : 0));
    Row.set("class", Value::string(M.Count ? "count" : "timing"));
    Row.set("backend", Value::string(M.Backend));
    Row.set("tier_policy", Value::string(M.TierPolicy));
    Row.set("seed", Value::number(static_cast<double>(O.Seed)));
    Row.set("traced", Value::boolean(O.Traced));
    Row.set("rev", Value::string(Rev));
    Row.set("host", Host);
    Ledger.push(std::move(Row));
  }
  if (!Finite)
    fprintf(stderr, "perfbench: a metric was not finite\n");
  Value Ledg = Value::object();
  Ledg.set("ledger", std::move(Ledger));
  printf("%s\n", Ledg.dump().c_str());

  Value Result = Value::object();
  Result.set("correct", Value::boolean(R.Failed == 0 && Finite));
  Result.set("attempted", Value::number(static_cast<double>(R.Attempted)));
  Result.set("failed", Value::number(static_cast<double>(R.Failed)));
  Result.set("metrics", std::move(Metrics));
  printf("%s\n", Result.dump().c_str());
  return 0;
}
