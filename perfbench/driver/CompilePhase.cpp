//===- CompilePhase.cpp - The `compile` traffic ---------------------------===//
//
// A seeded stream of generated scripts, each compiled in a fresh Engine.
// Half of the ops compile a new script (the private disk cache misses and
// cc runs). The other half are repeats: each compiles one earlier script
// of every size band (disk-cache hits: frontend plus load), and runs it
// once under the auto tier policy, which serves the first result from the
// VM or baseline tier without waiting on cc. Sizes are drawn band by band,
// so every eight new scripts and every repeat hold one script of each
// band: those blocks are what the end-to-end figures are taken over.
//
// Untraced ops go through the public one-call path (Engine::run,
// Engine::compileAll). Traced ops call each layer's public function in the
// order TerraCompiler::compileAll does, with a span around each. In a
// traced run every repeat is also compiled untraced in a fresh engine; the
// median paired difference is the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"
#include "ScriptGen.h"

#include "core/CBackend.h"
#include "core/Engine.h"
#include "core/Parser.h"
#include "core/TerraPasses.h"

#include <cstdlib>
#include <set>

using namespace perfbench;
using namespace terracpp;

namespace {

/// The first ops of the stream run whatever the time budget, so counts
/// taken over them repeat exactly for a given seed.
constexpr int DeterministicPrefix = 16;
constexpr int MaxFns = 32;
/// Script sizes 1..MaxFns are cut into SizeBands bands of BandWidth.
constexpr int SizeBands = 8, BandWidth = MaxFns / SizeBands;

/// Calls every function of \p S once and compares with the generator.
bool checkCalls(Engine &E, const Script &S, bool Perturb) {
  for (size_t I = 0; I != S.Fns.size(); ++I) {
    TerraFunction *F = E.terraFunction(S.Fns[I]);
    if (!F || !F->Entry)
      return false;
    int32_t A = S.Args[I], Ret = -1;
    void *Args[1] = {&A};
    F->Entry(Args, &Ret);
    if (Ret != S.Expected[I] + (Perturb && I == 0 ? 1 : 0))
      return false;
  }
  return true;
}

std::vector<TerraFunction *> lookup(Engine &E, const Script &S, bool &OK) {
  std::vector<TerraFunction *> Fns;
  for (const std::string &N : S.Fns) {
    TerraFunction *F = E.terraFunction(N);
    OK &= F != nullptr;
    Fns.push_back(F);
  }
  return Fns;
}

/// The public one-call path: Engine::run, then Engine::compileAll.
bool untracedCompile(Engine &E, const Script &S) {
  bool OK = E.run(S.Source, S.Name);
  std::vector<TerraFunction *> Fns = lookup(E, S, OK);
  return OK && E.compileAll(Fns);
}

/// Mirror of TerraCompiler::collectComponent for the default tier policy.
void collect(TerraFunction *F, std::vector<TerraFunction *> &Out) {
  if (F->isCompiled() || F->IsExtern ||
      std::find(Out.begin(), Out.end(), F) != Out.end())
    return;
  Out.push_back(F);
  for (TerraFunction *C : F->Callees)
    collect(C, Out);
}

struct Spans {
  double Parse = 0, Eval = 0, Typecheck = 0, Analyze = 0, Midend = 0,
         Codegen = 0, Jit = 0;
  size_t CodeBytes = 0;
};

/// The compile path with a span around each layer's public function.
bool tracedCompile(Engine &E, const Script &S, Spans &Sp) {
  double T = nowUs();
  auto Lap = [&T](double &Acc) {
    double N = nowUs();
    Acc += N - T;
    T = N;
  };
  SourceManager &SM = E.sourceManager();
  uint32_t Id = SM.addBuffer(S.Name, S.Source);
  const lua::Block *Chunk;
  {
    Parser P(E.context(), SM.bufferContents(Id), Id, E.diags());
    Chunk = P.parseChunk();
  }
  Lap(Sp.Parse);
  bool OK = Chunk && !E.diags().hasErrors() && E.interp().runChunk(Chunk);
  Lap(Sp.Eval);
  std::vector<TerraFunction *> Fns = lookup(E, S, OK);
  if (!OK)
    return false;
  for (TerraFunction *F : Fns)
    OK &= E.compiler().typechecker().check(F);
  Lap(Sp.Typecheck);
  if (!OK)
    return false;

  std::set<TerraFunction *> Staged;
  std::vector<JITEngine::ModuleJob> Jobs;
  for (TerraFunction *F : Fns) {
    if (F->isCompiled() || Staged.count(F))
      continue;
    std::vector<TerraFunction *> Comp;
    collect(F, Comp);
    T = nowUs();
    OK &= E.compiler().analyzeComponent(Comp);
    Lap(Sp.Analyze);
    for (TerraFunction *Fn : Comp)
      if (!Fn->HostClosure) {
        runMidendPasses(E.context(), Fn);
        OK &= verifyFunction(E.diags(), Fn);
      }
    Lap(Sp.Midend);
    CBackend CB(E.context());
    std::string Src = CB.emitModule(Comp, &E.compiler());
    Lap(Sp.Codegen);
    if (!OK || Src.empty())
      return false;
    Sp.CodeBytes += Src.size();
    Staged.insert(Comp.begin(), Comp.end());
    Jobs.push_back({std::move(Src), std::move(Comp),
                    !CB.lastModuleBakedAddresses()});
  }
  T = nowUs();
  OK = E.compiler().jit().addModules(std::move(Jobs));
  Lap(Sp.Jit);
  return OK;
}

class CompilePhase final : public Phase {
public:
  CompilePhase(const RunOptions &O, Report &R)
      : O(O), R(R), Rg(O.Seed * 0x9E3779B97F4A7C15ull + 11),
        Perturb(O.Perturb), ByBand(SizeBands) {}

  void slice(double DeadlineUs) override {
    do
      step();
    while (nowUs() < DeadlineUs);
  }

  void finish(const Quiet &) override;

private:
  int nextBand();
  void step();
  void compile(const Script &S, bool New);
  void firstResult(const Script &S);
  double untracedTwin(const Script &S);

  const RunOptions &O;
  Report &R;
  Rng Rg;
  bool Perturb;
  int Op = 0, Compiles = 0;
  std::vector<int> Bands;
  std::vector<Script> Made;
  std::vector<std::vector<size_t>> ByBand; ///< Indices into Made.
  Blocks ColdMs, WarmMs, FirstUs;
  // Traced-op samples.
  std::vector<double> ParseUs, EvalUs, TcUs, AnUs, MidUs, CgUs, CcMs, LoadUs,
      FirstCallUs, UnattrUs, OverheadUs;
  uint64_t PrefixBytes = 0, PrefixLaunches = 0, PrefixHits = 0,
           PrefixLookups = 0;
};

/// New-script bands come in blocks of SizeBands draws, one of each band in
/// seeded order, so every prefix of the stream has nearly the same size
/// mix whatever the seed.
int CompilePhase::nextBand() {
  if (Bands.empty()) {
    for (int B = 0; B != SizeBands; ++B)
      Bands.push_back(B);
    for (size_t I = Bands.size() - 1; I > 0; --I)
      std::swap(Bands[I], Bands[Rg.below(I + 1)]);
  }
  int B = Bands.back();
  Bands.pop_back();
  return B;
}

/// Compiles \p S untraced in a fresh engine; returns the op's time in us.
double CompilePhase::untracedTwin(const Script &S) {
  Engine Twin(BackendKind::Native);
  double T0 = nowUs();
  bool OK = untracedCompile(Twin, S) && checkCalls(Twin, S, false);
  double Us = nowUs() - T0;
  R.check("compile", OK, "compile " + S.Name + " untraced twin");
  return Us;
}

void CompilePhase::step() {
  // New scripts until every band has one, then new or repeat at random.
  if (Made.size() < SizeBands || Rg.below(2) == 0) {
    int B = nextBand();
    int Size = 1 + B * BandWidth + static_cast<int>(Rg.below(BandWidth));
    if (Made.size() % SizeBands == 0)
      ColdMs.open();
    ByBand[B].push_back(Made.size());
    Made.push_back(makeScript(Rg, Made.size(), Size));
    compile(Made.back(), true);
  } else {
    WarmMs.open();
    FirstUs.open();
    for (const std::vector<size_t> &Band : ByBand) {
      const Script &S = Made[Band[Rg.below(Band.size())]];
      compile(S, false);
      firstResult(S);
    }
  }
  ++Op;
}

void CompilePhase::compile(const Script &S, bool New) {
  const bool Traced = O.Traced;
  // In a traced run every repeat is also compiled untraced in a fresh
  // engine, before or after the traced op in turn; the paired difference
  // is the tracing overhead.
  const bool Twin = Traced && !New, TwinFirst = Twin && Compiles++ % 2 == 1;
  double TwinUs = TwinFirst ? untracedTwin(S) : 0;

  Engine E(BackendKind::Native);
  Spans Sp;
  double T0 = nowUs();
  bool OK = Traced ? tracedCompile(E, S, Sp) : untracedCompile(E, S);
  bool Right = OK && checkCalls(E, S, Perturb);
  double Whole = nowUs() - T0;
  R.check("compile", Right,
          "compile " + S.Name + (New ? " cold" : " warm") +
              (OK ? ": wrong result" : ": " + E.errors()));
  Perturb = false;
  // A failed op counts as missing any latency target.
  (New ? ColdMs : WarmMs).add(Right ? Whole / 1000 : 1e12);

  JITEngine::Stats St = E.compiler().jit().stats();
  if (Op < DeterministicPrefix) {
    PrefixLaunches += St.CompilerLaunches;
    PrefixHits += St.CacheHits;
    PrefixLookups += St.CacheHits + St.CacheMisses;
    PrefixBytes += Sp.CodeBytes;
  }
  if (Traced && Right) {
    ParseUs.push_back(Sp.Parse);
    EvalUs.push_back(Sp.Eval);
    TcUs.push_back(Sp.Typecheck);
    AnUs.push_back(Sp.Analyze);
    MidUs.push_back(Sp.Midend);
    CgUs.push_back(Sp.Codegen);
    (New ? CcMs : LoadUs).push_back(New ? Sp.Jit / 1000 : Sp.Jit);
    UnattrUs.push_back(Whole - (Sp.Parse + Sp.Eval + Sp.Typecheck +
                                Sp.Analyze + Sp.Midend + Sp.Codegen + Sp.Jit));
  }
  if (Twin && Right)
    OverheadUs.push_back(Whole - (TwinFirst ? TwinUs : untracedTwin(S)));
}

/// Definition -> first result of \p S's last function under the auto tier
/// policy, in a fresh engine.
void CompilePhase::firstResult(const Script &S) {
  // The policy is read from the environment once, at Engine construction.
  setenv("TERRACPP_JIT_TIER", "auto", 1);
  Engine EA(BackendKind::Native);
  unsetenv("TERRACPP_JIT_TIER");
  double A0 = nowUs();
  bool AOK = EA.run(S.Source, S.Name);
  TerraFunction *F = AOK ? EA.terraFunction(S.Fns.back()) : nullptr;
  AOK = F && EA.compiler().ensureCompiled(F) && F->Entry;
  double A1 = nowUs();
  int32_t Arg = S.Args.back(), Ret = -1;
  if (AOK) {
    void *Args[1] = {&Arg};
    F->Entry(Args, &Ret);
  }
  double A2 = nowUs();
  // Tier 1 would mean the call waited for cc-native code.
  bool ARight =
      AOK && Ret == S.Expected.back() && EA.compiler().lastCallTier() != 1;
  R.check("compile", ARight, "auto-tier first result " + S.Name);
  FirstUs.add(ARight ? A2 - A0 : 1e12);
  if (ARight)
    FirstCallUs.push_back(A2 - A1);
}

void CompilePhase::finish(const Quiet &) {
  // The counts below cover the first DeterministicPrefix ops.
  while (Op < DeterministicPrefix)
    step();
  // Each block holds one script of every size band; its p90 is the time of
  // its larger scripts.
  R.timing("compile_cold_ms_p50", "ms", ColdMs, 50, SizeBands, "native",
           "tier1");
  R.timing("compile_cold_ms_p90", "ms", ColdMs, 90, SizeBands, "native",
           "tier1");
  R.timing("compile_warm_ms_p50", "ms", WarmMs, 50, SizeBands, "native",
           "tier1");
  R.timing("compile_warm_ms_p90", "ms", WarmMs, 90, SizeBands, "native",
           "tier1");
  R.timing("first_result_us_p50", "us", FirstUs, 50, SizeBands, "native",
           "auto");
  if (!O.Traced)
    return;
  R.layer("core.parse_us", "us", median(ParseUs), "native", "tier1");
  R.layer("core.host_eval_us", "us", median(EvalUs), "native", "tier1");
  R.layer("core.typecheck_us", "us", median(TcUs), "native", "tier1");
  R.layer("analysis.analyze_us", "us", median(AnUs), "native", "tier1");
  R.layer("core.midend_us", "us", median(MidUs), "native", "tier1");
  R.layer("core.codegen_us", "us", median(CgUs), "native", "tier1");
  R.layer("core.codegen_bytes", "bytes", static_cast<double>(PrefixBytes),
          "native", "tier1", true);
  R.layer("jit.cc_ms", "ms", median(CcMs), "native", "tier1");
  R.layer("jit.cc_launches", "count", static_cast<double>(PrefixLaunches),
          "native", "tier1", true);
  R.layer("jit.load_us", "us", median(LoadUs), "native", "tier1");
  R.layer("jit.cache_hit_ratio", "ratio",
          PrefixLookups ? static_cast<double>(PrefixHits) / PrefixLookups
                        : 0,
          "native", "tier1", true);
  R.layer("tier.first_call_us", "us", median(FirstCallUs), "native", "auto");
  R.layer("compile.unattributed_us", "us", median(UnattrUs), "native",
          "tier1");
  R.layer("trace.compile_overhead_us", "us", median(OverheadUs), "native",
          "tier1");
}

} // namespace

std::unique_ptr<Phase> perfbench::makeCompilePhase(const RunOptions &O,
                                                 Report &R) {
  return std::make_unique<CompilePhase>(O, R);
}
