//===- bench_tiering.cpp - Tiered execution performance (DESIGN.md §10) ---===//
//
// Quantifies the three claims behind the tiered pipeline:
//
//   1. Engine tiers — per-call throughput of one loop-heavy kernel on the
//      tree-walking evaluator, the tier-0 register-bytecode VM (target:
//      >= 10x the tree-walker), and promoted native code.
//   2. First-call latency — wall time from "script evaluated" to "first
//      call returned" under tier 1 (blocks on the C compiler) vs tier auto
//      (tier-0 VM answers immediately; target p50 <= 1ms cold), with both
//      cold and warm content-addressed caches for tier 1.
//   3. Promotion under load — a call loop against one hot function under
//      tier auto: how many calls execute on tier 0 before the background
//      native compile lands, and per-call cost before/after the switch
//      (after == native parity).
//
// main() measures all three directly and writes BENCH_tiering.json, then
// runs the google-benchmark suite for steady-state per-tier numbers.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraTier.h"
#include "support/Timer.h"

#include "BenchReport.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

using namespace terracpp;

namespace {

/// Scoped environment override (tier policy and thresholds are read at
/// Engine construction).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Old = getenv(Name);
    if (Old) {
      Saved = Old;
      HadOld = true;
    }
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::string Saved;
  bool HadOld = false;
};

/// The measured kernel: integer + double arithmetic, branches, and a
/// counted loop — bytecode-eligible, loop-heavy, no memory traffic that
/// would hide dispatch cost. `salt` makes variants content-distinct so
/// cold-cache runs are genuinely cold.
std::string kernelSource(const std::string &Name, int Salt) {
  return "terra " + Name + "(n: int): double\n"
         "  var acc = 0.0\n"
         "  var k = " + std::to_string(Salt) + "\n"
         "  for i = 0, n do\n"
         "    k = (k * 1103515245 + 12345) % 2147483647\n"
         "    if k % 3 == 0 then acc = acc + i * 0.5\n"
         "    else acc = acc - k % 7 end\n"
         "  end\n"
         "  return acc\n"
         "end\n";
}

/// One entry-thunk call (shared convention across all tiers).
double callKernel(TerraFunction *F, int32_t N) {
  double Ret = 0;
  void *Args[1] = {&N};
  F->Entry(Args, &Ret);
  return Ret;
}

bool nativeAvailable() {
  return Engine::defaultBackend() == BackendKind::Native;
}

/// Mean seconds per call of `kern(N)` over \p Iters calls.
double timePerCall(TerraFunction *F, int32_t N, int Iters) {
  callKernel(F, N); // Warm up (compile bytecode / load native code).
  Timer T;
  double Sink = 0;
  for (int I = 0; I != Iters; ++I)
    Sink += callKernel(F, N);
  benchmark::DoNotOptimize(Sink);
  return T.seconds() / Iters;
}

/// Claim 1: per-tier throughput on the same kernel.
void measureEngineTiers(benchreport::Json &Report) {
  constexpr int32_t N = 20000;
  constexpr int Iters = 30;
  benchreport::Json Tiers;

  double TreeSec = 0, VMSec = 0, BaseSec = 0, BaseEmitUs = 0;
  {
    ScopedEnv Force("TERRACPP_INTERP", "tree");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    TreeSec = timePerCall(F, N, std::max(Iters / 10, 3));
  }
  {
    // Pin to the VM: with the baseline JIT enabled by default, an
    // unconstrained Interp engine would measure tier 0.5, not tier 0.
    ScopedEnv Off("TERRACPP_JIT_BASELINE", "0");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    VMSec = timePerCall(F, N, Iters);
  }
  {
    // Baseline JIT (tier 0.5): direct x86-64 emission from the bytecode.
    ScopedEnv Force("TERRACPP_INTERP", nullptr);
    ScopedEnv On("TERRACPP_JIT_BASELINE", "1");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    BaseSec = timePerCall(F, N, Iters * 10);
    // Emission latency (the "promotion to baseline" cost) from telemetry.
    BaseEmitUs = E.compiler()
                     .jit()
                     .metrics()
                     .histogram("jit.baseline_emit_us")
                     .snapshot()
                     .Mean;
  }
  Tiers.put("tree_walk_us_per_call", TreeSec * 1e6);
  Tiers.put("tier0_vm_us_per_call", VMSec * 1e6);
  Tiers.put("vm_speedup_vs_tree", VMSec > 0 ? TreeSec / VMSec : 0.0);
  if (BaseSec > 0) {
    Tiers.put("baseline_us_per_call", BaseSec * 1e6);
    Tiers.put("baseline_speedup_vs_vm", VMSec / BaseSec);
    Tiers.put("baseline_emit_us", BaseEmitUs);
  }
  if (nativeAvailable()) {
    Engine E;
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    double NativeSec = timePerCall(F, N, Iters * 10);
    Tiers.put("native_us_per_call", NativeSec * 1e6);
    Tiers.put("native_speedup_vs_vm", NativeSec > 0 ? VMSec / NativeSec : 0.0);
    if (NativeSec > 0 && BaseSec > 0)
      Tiers.put("baseline_slowdown_vs_native", BaseSec / NativeSec);
  }
  Report.put("engine_tiers", Tiers);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// Claim 2: definition-to-first-result latency per tier policy.
void measureFirstCall(benchreport::Json &Report) {
  constexpr int Samples = 15;
  benchreport::Json FirstCall;

  auto sample = [](const char *TierEnv, int Salt, bool CacheOff) {
    ScopedEnv Tier("TERRACPP_JIT_TIER", TierEnv);
    ScopedEnv Cache("TERRACPP_CACHE", CacheOff ? "off" : nullptr);
    Engine E;
    // Distinct body per sample: a cold run never hits the cc cache.
    E.run(kernelSource("kern", Salt));
    TerraFunction *F = E.terraFunction("kern");
    // The timed region is definition-to-first-result: typecheck + codegen
    // + (tier 1) the blocking cc invocation, then the call itself.
    Timer T;
    E.compiler().ensureCompiled(F);
    callKernel(F, 10);
    return T.seconds() * 1e6;
  };

  std::vector<double> Auto, Tier1Cold, Tier1Warm;
  for (int I = 0; I != Samples; ++I)
    Auto.push_back(sample("auto", 7000 + I, /*CacheOff=*/true));
  FirstCall.put("auto_cold_p50_us", percentile(Auto, 0.5));
  FirstCall.put("auto_cold_p95_us", percentile(Auto, 0.95));
  if (nativeAvailable()) {
    for (int I = 0; I != Samples; ++I)
      Tier1Cold.push_back(sample("1", 8000 + I, /*CacheOff=*/true));
    // Warm: same sources again, served from the content-addressed cache.
    for (int I = 0; I != Samples; ++I)
      Tier1Warm.push_back(sample("1", 9000 + I, /*CacheOff=*/false));
    for (int I = 0; I != Samples; ++I)
      Tier1Warm[I] = std::min(Tier1Warm[I],
                              sample("1", 9000 + I, /*CacheOff=*/false));
    FirstCall.put("tier1_cold_p50_us", percentile(Tier1Cold, 0.5));
    FirstCall.put("tier1_cold_p95_us", percentile(Tier1Cold, 0.95));
    FirstCall.put("tier1_warm_p50_us", percentile(Tier1Warm, 0.5));
    FirstCall.put("tier0_first_call_speedup_vs_tier1_cold",
                  percentile(Auto, 0.5) > 0
                      ? percentile(Tier1Cold, 0.5) / percentile(Auto, 0.5)
                      : 0.0);
  }
  Report.put("first_call_latency", FirstCall);
}

/// Claim 3: the promotion-under-load curve.
void measurePromotion(benchreport::Json &Report) {
  if (!nativeAvailable())
    return;
  ScopedEnv Tier("TERRACPP_JIT_TIER", "auto");
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "8");
  ScopedEnv Cache("TERRACPP_CACHE", "off");
  Engine E;
  E.run(kernelSource("kern", 424242));
  TerraFunction *F = E.terraFunction("kern");
  E.compiler().ensureCompiled(F);

  constexpr int32_t N = 20000;
  constexpr int MaxCalls = 100000;
  std::vector<double> Tier0Us, Tier1Us;
  int SwitchedAt = -1;
  Timer Wall;
  for (int I = 0; I != MaxCalls; ++I) {
    Timer T;
    callKernel(F, N);
    double Us = T.seconds() * 1e6;
    if (E.compiler().lastCallTier() == 1) {
      if (SwitchedAt < 0)
        SwitchedAt = I;
      Tier1Us.push_back(Us);
      if (Tier1Us.size() >= 200)
        break;
    } else {
      Tier0Us.push_back(Us);
    }
  }
  benchreport::Json Promo;
  Promo.put("call_threshold", 8);
  Promo.put("calls_on_tier0_before_switch", SwitchedAt);
  Promo.put("wall_seconds_to_promotion", Wall.seconds());
  Promo.put("tier0_p50_us", percentile(Tier0Us, 0.5));
  Promo.put("tier1_p50_us", percentile(Tier1Us, 0.5));
  Promo.put("speedup_after_promotion",
            percentile(Tier1Us, 0.5) > 0
                ? percentile(Tier0Us, 0.5) / percentile(Tier1Us, 0.5)
                : 0.0);
  if (TierManager *TM = E.compiler().tierManager()) {
    TierManager::Snapshot S = TM->snapshot();
    Promo.put("promotions", static_cast<unsigned>(S.Promotions));
    Promo.put("promotion_failures",
              static_cast<unsigned>(S.PromotionFailures));
  }
  Report.put("promotion_under_load", Promo);
}

//===----------------------------------------------------------------------===//
// Steady-state google-benchmark suite
//===----------------------------------------------------------------------===//

void runTierBenchmark(benchmark::State &State, const char *InterpMode,
                      BackendKind BK) {
  ScopedEnv Force("TERRACPP_INTERP", InterpMode);
  if (BK == BackendKind::Native && !nativeAvailable()) {
    State.SkipWithError("native backend unavailable");
    return;
  }
  Engine E(BK);
  if (!E.run(kernelSource("kern", 1))) {
    State.SkipWithError("run failed");
    return;
  }
  TerraFunction *F = E.terraFunction("kern");
  E.compiler().ensureCompiled(F);
  int32_t N = static_cast<int32_t>(State.range(0));
  callKernel(F, N);
  double Sink = 0;
  for (auto _ : State)
    Sink += callKernel(F, N);
  benchmark::DoNotOptimize(Sink);
  State.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(N) * State.iterations(), benchmark::Counter::kIsRate);
}

void BM_TreeWalker(benchmark::State &State) {
  runTierBenchmark(State, "tree", BackendKind::Interp);
}
BENCHMARK(BM_TreeWalker)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void BM_Tier0VM(benchmark::State &State) {
  ScopedEnv Off("TERRACPP_JIT_BASELINE", "0");
  runTierBenchmark(State, nullptr, BackendKind::Interp);
}
BENCHMARK(BM_Tier0VM)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void BM_BaselineJIT(benchmark::State &State) {
  ScopedEnv On("TERRACPP_JIT_BASELINE", "1");
  runTierBenchmark(State, nullptr, BackendKind::Interp);
}
BENCHMARK(BM_BaselineJIT)
    ->Arg(1000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

void BM_Native(benchmark::State &State) {
  runTierBenchmark(State, nullptr, BackendKind::Native);
}
BENCHMARK(BM_Native)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  benchreport::Json Report;
  benchreport::addHostInfo(Report);
  measureEngineTiers(Report);
  measureFirstCall(Report);
  measurePromotion(Report);
  Report.writeTo("BENCH_tiering.json");
  fprintf(stderr, "BENCH_tiering.json: %s\n", Report.str().c_str());

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
