//===- Engine.h - Public facade for the terracpp system ---------*- C++ -*-===//
//
// The Engine owns one complete Lua/Terra universe: source manager,
// diagnostics, Terra context, host interpreter, and compiler. It is the
// entry point applications use:
//
//   terracpp::Engine E;
//   E.run("terra add(a: int, b: int): int return a + b end");
//   auto *Add = (int32_t(*)(int32_t, int32_t))E.rawPointer("add");
//
// Substrate libraries (auto-tuner, Orion, class system, DataTable) are
// built on the Engine plus the C++ staging API in StagingAPI.h.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_ENGINE_H
#define TERRACPP_CORE_ENGINE_H

#include "core/LuaInterp.h"
#include "core/TerraCompiler.h"

#include <memory>
#include <optional>
#include <string>

namespace terracpp {

namespace analysis {
struct AnalysisReport;
} // namespace analysis

/// Explicit engine choices that take precedence over the environment
/// (terracpp's --backend and --tier flags).
struct EngineOverrides {
  std::optional<BackendKind> Backend;
  std::string Tier; ///< "0", "1" or "auto"; empty when not given.
};

class Engine {
public:
  /// Settings from the environment (resolveSettings).
  Engine();
  /// Settings from the environment, with the backend fixed.
  explicit Engine(BackendKind Backend);
  explicit Engine(const EngineSettings &Settings);
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Resolves the engine settings from TERRACPP_BACKEND (native|interp),
  /// TERRACPP_JIT_TIER (0|1|auto), TERRACPP_INTERP (tree),
  /// TERRACPP_JIT_BASELINE and the TERRACPP_TIER_*_THRESHOLD knobs, with
  /// \p O taking precedence. The backend is, first match wins: the
  /// override; the environment's, unless a tier override is given; Interp
  /// for tier 0 or with no cc on PATH; Native. A malformed environment
  /// value warns once (env.invalid) and counts as unset. When the overrides
  /// conflict (an Interp backend with tier 1 or auto, Native with tier 0)
  /// or the tier override is not 0, 1 or auto, \p Err receives the reason
  /// and the environment alone decides.
  static EngineSettings resolveSettings(const EngineOverrides &O = {},
                                        std::string *Err = nullptr);

  /// The backend resolveSettings picks from the environment alone.
  static BackendKind defaultBackend() { return resolveSettings().Backend; }

  /// Parses and runs a combined Lua/Terra chunk. False on error (see
  /// errors()).
  bool run(const std::string &Source, const std::string &Name = "chunk");
  bool runFile(const std::string &Path);

  /// Reads/writes a global host variable.
  lua::Value global(const std::string &Name);
  void setGlobal(const std::string &Name, lua::Value V);

  /// Looks up a global holding a Terra function.
  TerraFunction *terraFunction(const std::string &GlobalName);

  /// Names of globals currently bound to Terra functions, sorted. This is
  /// the callable surface a compiled script exposes (the terrad server
  /// reports it per compile handle).
  std::vector<std::string> terraFunctionNames();

  /// Compiles the named Terra function and returns its native code address
  /// (null in interp backend or on error). Cast to the correct signature.
  void *rawPointer(const std::string &GlobalName);
  void *rawPointer(TerraFunction *F);

  /// Batch-compiles every function's connected component through the JIT's
  /// parallel pipeline (TerraCompiler::compileAll). Returns true only if
  /// all succeeded; individual results are observable via each function's
  /// RawPtr.
  bool compileAll(const std::vector<TerraFunction *> &Fns);

  /// Calls a host value (closure or Terra function) with host-value args.
  bool call(const lua::Value &Fn, std::vector<lua::Value> Args,
            std::vector<lua::Value> &Results);

  /// Typechecks and statically analyzes every defined Terra function
  /// (terracpp --analyze) without generating code. Returns the number of
  /// analysis findings reported; functions that fail to typecheck are
  /// skipped after their type errors are reported. When \p Report is
  /// non-null it receives the full structured report (machine-readable
  /// findings for --analyze-json).
  unsigned analyzeAll(analysis::AnalysisReport *Report = nullptr);

  DiagnosticEngine &diags() { return Diags; }
  TerraContext &context() { return *TCtx; }
  lua::Interp &interp() { return *I; }
  TerraCompiler &compiler() { return *Comp; }
  SourceManager &sourceManager() { return SM; }

  /// All diagnostics rendered as one string; clears nothing.
  std::string errors() const { return Diags.renderAll(); }

private:
  SourceManager SM;
  DiagnosticEngine Diags;
  std::unique_ptr<TerraContext> TCtx;
  std::unique_ptr<lua::Interp> I;
  std::unique_ptr<TerraCompiler> Comp;
};

} // namespace terracpp

#endif // TERRACPP_CORE_ENGINE_H
