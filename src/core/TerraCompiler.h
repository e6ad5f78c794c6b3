//===- TerraCompiler.h - Compilation driver + FFI ---------------*- C++ -*-===//
//
// Orchestrates the lazy compilation pipeline (paper §4.1/§5): when a Terra
// function is first called, its whole connected component is typechecked
// (Fig. 4), midend passes run, and the component is compiled by the selected
// backend. Also implements the FFI (paper §4.2): host values convert to
// Terra values at call boundaries, Terra results convert back, and host
// closures can be wrapped as callable Terra functions.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRACOMPILER_H
#define TERRACPP_CORE_TERRACOMPILER_H

#include "core/LuaValue.h"
#include "core/TerraAST.h"
#include "core/TerraJIT.h"
#include "core/TerraTier.h"
#include "core/TerraTypecheck.h"

#include <atomic>
#include <map>
#include <memory>

namespace terracpp {

class TerraInterpBackend;
class BaselineJIT;

/// Which execution engine runs compiled Terra code.
enum class BackendKind {
  Native, ///< CBackend -> system cc -> dlopen (default).
  Interp, ///< Compiler-free tiers: baseline JIT, bytecode VM, tree-walker.
};

/// How an Engine runs Terra code, resolved once from the environment plus
/// explicit overrides (Engine::resolveSettings). Nothing below the Engine
/// reads these knobs itself.
struct EngineSettings {
  BackendKind Backend = BackendKind::Native;
  /// Native only: Auto starts every function on the compiler-free tiers
  /// and promotes hot ones to cc-native code in the background.
  TierPolicy Tier = TierPolicy::Tier1;
  /// The baseline JIT fronts the VM (off under TERRACPP_JIT_BASELINE=0
  /// and TERRACPP_JIT_TIER=0).
  bool Baseline = true;
  /// TERRACPP_INTERP=tree: the tree-walker runs every pre-native call (the
  /// differential-test oracle).
  bool TreeOnly = false;
  uint64_t CallThreshold = 8;        ///< TERRACPP_TIER_CALL_THRESHOLD
  uint64_t BackEdgeThreshold = 4096; ///< TERRACPP_TIER_BACKEDGE_THRESHOLD
};

class TerraCompiler {
public:
  TerraCompiler(TerraContext &Ctx, lua::Interp &I,
                const EngineSettings &Settings = EngineSettings());
  ~TerraCompiler();

  Typechecker &typechecker() { return TC; }
  JITEngine &jit() { return JIT; }
  BackendKind backend() const { return Settings.Backend; }
  const EngineSettings &settings() const { return Settings; }

  /// The tier-promotion manager; null unless running under
  /// TierPolicy::Auto with the native backend.
  TierManager *tierManager() { return Tiers.get(); }

  /// The baseline JIT (tier 0.5); null when EngineSettings::Baseline is
  /// off, on an unsupported architecture, or in pure-native mode.
  BaselineJIT *baseline() { return Baseline.get(); }

  /// The pre-native dispatcher; null in pure-native mode.
  TerraInterpBackend *interpBackend() { return InterpBackend.get(); }

  /// The tier (0 = interpreted/VM, 2 = baseline JIT, 1 = cc-native) that
  /// executed the most recent host-initiated call; -1 before any call.
  /// Monitoring only (terrad echoes it in call responses); approximate
  /// under concurrency.
  int lastCallTier() const {
    return LastCallTier.load(std::memory_order_relaxed);
  }

  /// Overwrites lastCallTier() (the entry thunk records each host call).
  void noteLastCallTier(int T) {
    LastCallTier.store(T, std::memory_order_relaxed);
  }

  /// Static-analysis policy for the compile pipeline. Lints default to the
  /// TERRACPP_ANALYZE environment setting; the missing-return check always
  /// runs (it is a backend invariant).
  void setAnalyzeLints(bool On) { AnalyzeLints = On; }
  bool analyzeLints() const { return AnalyzeLints; }
  void setAnalyzeWerror(bool On) { AnalyzeWerror = On; }
  bool analyzeWerror() const { return AnalyzeWerror; }

  /// Typechecks, optimizes, and compiles F (and its connected component).
  /// Under TierPolicy::Auto "compiled" means runnable: the function gets a
  /// tier-0 dispatcher entry immediately and native code arrives in the
  /// background. Idempotent; false on failure.
  bool ensureCompiled(TerraFunction *F);

  /// Returns \p F's native machine-code address, compiling synchronously if
  /// needed (under TierPolicy::Auto this forces promotion of the
  /// function's component, waiting for an in-flight background job). Null
  /// on failure. This is what function-pointer marshalling and
  /// Engine::rawPointer use — native code must never receive a tier-0
  /// handle as a function pointer.
  void *nativePointer(TerraFunction *F);

  /// Reverse of nativePointer: maps a machine address it returned back to
  /// the function; null for unknown addresses. Under TierPolicy::Auto
  /// materialized function values are machine addresses everywhere (so
  /// native code can call the same bits), and the tier-0 engines use this
  /// to dispatch indirect calls through them.
  TerraFunction *functionForRawPtr(const void *P) const {
    auto It = RawToFn.find(P);
    return It == RawToFn.end() ? nullptr : It->second;
  }

  /// Batch variant of ensureCompiled: typechecks and generates code for
  /// every root's connected component serially (the frontend is
  /// single-threaded), then pushes all resulting C modules through the
  /// JIT's parallel job pool at once. Functions already compiled or staged
  /// by an earlier root are skipped. Candidates fail independently —
  /// callers that can tolerate partial success (the autotuner) should test
  /// each function's RawPtr afterwards. Returns true only if every root
  /// compiled.
  bool compileAll(const std::vector<TerraFunction *> &Roots);

  /// Calls a Terra function with host values across the FFI.
  bool callFromHost(TerraFunction *F, std::vector<lua::Value> &Args,
                    std::vector<lua::Value> &Results, SourceLoc Loc);

  /// Converts one host value into the bytes of a Terra value of type \p Ty
  /// at \p Dst (paper §4.2 FFI conversions). False on conversion failure.
  bool marshalValue(const lua::Value &V, Type *Ty, void *Dst, SourceLoc Loc);

  /// Converts Terra bytes back into a host value.
  lua::Value unmarshalValue(Type *Ty, const void *Src);

  /// Wraps a host closure as a Terra function of type \p FnTy
  /// (terralib.cast). The wrapper is compiled lazily like any function.
  TerraFunction *wrapHostClosure(std::shared_ptr<lua::Closure> C,
                                 FunctionType *FnTy, std::string Name);

  /// Creates an extern "C" function binding (terralib.includec substitute).
  TerraFunction *createExtern(std::string Name, FunctionType *FnTy,
                              std::string Header, void *Addr);

  /// Invoked by the generated-code trampoline for host-closure wrappers.
  bool invokeHostClosure(uint64_t Id, void **Args, void *Ret);

  /// saveobj: writes the named functions (and their components) to a .c,
  /// .o, or .so file with unmangled exported names.
  bool saveObject(const std::string &Path,
                  const std::vector<std::pair<std::string, TerraFunction *>>
                      &Exports);

  /// Cumulative pipeline timings (for bench_compile).
  struct Stats {
    double TypecheckSeconds = 0;
    double CodegenSeconds = 0;
    unsigned ModulesCompiled = 0;
    unsigned FunctionsCompiled = 0;
  };
  const Stats &stats() const { return Timing; }
  double backendCompilerSeconds() const { return JIT.compilerSeconds(); }

  /// Runs terracheck over every not-yet-analyzed function of a typechecked
  /// component (between typechecking and the midend). Returns false when a
  /// mandatory finding — or any finding under Werror — failed the compile;
  /// the offending functions are marked SK_Error.
  bool analyzeComponent(const std::vector<TerraFunction *> &Component);

private:
  /// Collects the not-yet-compiled connected component rooted at F. Under
  /// TierPolicy::Auto membership is keyed on RawPtr rather than
  /// isCompiled(): a tier-0 function has an Entry but no native address, so
  /// dependent modules must re-emit its definition (benign under
  /// RTLD_LOCAL) instead of baking an address that does not exist.
  void collectComponent(TerraFunction *F,
                        std::vector<TerraFunction *> &Component);

  /// Runs the midend passes and the verifier over a typechecked, analyzed
  /// component (host closures have no body and are skipped), counting
  /// inlined calls.
  bool runMidend(const std::vector<TerraFunction *> &Component);

  /// Emits the C module for \p Component (traced and timed as codegen of
  /// \p Root). \p Cacheable is false when the source bakes process-local
  /// addresses; calls through a baked callee address are counted.
  std::string emitComponent(TerraFunction *Root,
                            const std::vector<TerraFunction *> &Component,
                            bool &Cacheable);

  /// Tier-0 installation: compiles each function of \p Component to
  /// bytecode and installs the entry thunk (enterTier0). Under
  /// TierPolicy::Auto it first emits the C module and parks it with the
  /// TierManager for background promotion.
  bool installTier0(TerraFunction *Root,
                    const std::vector<TerraFunction *> &Component);

  /// The entry thunk of every function installed at tier 0: native code
  /// once \p TS has been promoted, else the pre-native dispatcher
  /// (TerraInterpBackend::run) in a fresh ExecEnv. Records lastCallTier
  /// for an outermost activation and counts the call with the TierManager.
  void enterTier0(TerraFunction *F, TierState *TS, void **Args, void *Ret);

  TerraContext &Ctx;
  lua::Interp &I;
  EngineSettings Settings;
  Typechecker TC;
  JITEngine JIT;
  /// Declared after JIT: destroyed first, joining the promotion worker
  /// while the JIT it uses is still alive.
  std::unique_ptr<TierManager> Tiers;
  std::unique_ptr<TerraInterpBackend> InterpBackend;
  std::unique_ptr<BaselineJIT> Baseline;
  telemetry::Counter &MInlinedCalls;    ///< midend.inlined_calls
  telemetry::Counter &MBakedCalleeRefs; ///< codegen.baked_callee_refs
  telemetry::Counter &MBackEdges;       ///< vm.backedges
  std::atomic<int> LastCallTier{-1};
  std::map<const void *, TerraFunction *> RawToFn;

  struct HostClosureInfo {
    std::shared_ptr<lua::Closure> Closure;
    FunctionType *FnTy;
  };
  std::map<uint64_t, HostClosureInfo> HostClosures;
  uint64_t NextHostClosureId = 1;
  Stats Timing;
  bool AnalyzeLints;
  bool AnalyzeWerror = false;
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRACOMPILER_H
