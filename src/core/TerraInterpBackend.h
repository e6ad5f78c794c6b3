//===- TerraInterpBackend.h - Pre-native dispatch ---------------*- C++ -*-===//
//
// The one dispatcher of the compiler-free tiers (DESIGN.md §10). Every
// pre-native activation starts in run(): the entry thunk of a tier-0
// function (TerraCompiler::enterTier0) and the call sites of the VM, of
// baseline code and of the tree-walker (vm::call) all come here, and run()
// picks the engine:
//
//  * the tree-walking evaluator (TEval, in the .cpp) when the engine is
//    pinned to it (EngineSettings::TreeOnly, the oracle of the
//    differential tests) or the function has no bytecode (indirect calls,
//    calls with more than 32 arguments); interp.tree_calls counts its
//    activations;
//  * else baseline machine code (TerraBaselineJIT) when the emitter took
//    the function;
//  * else the register-bytecode VM (TerraBytecode/TerraVM).
//
// The choice is per activation, so a tree-walked caller's callees still run
// on baseline code. All engines implement the native backend's
// separate-evaluation semantics (Terra code never touches the host store),
// report the same "terra interpreter: ..." diagnostics and charge one
// per-thread depth budget (vm::CallDepthScope). Outside TierPolicy::Auto,
// values of function type hold a TerraFunction* (never a machine address),
// so interpreted code calls externs, host wrappers and other Terra
// functions uniformly.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAINTERPBACKEND_H
#define TERRACPP_CORE_TERRAINTERPBACKEND_H

#include "core/TerraAST.h"
#include "support/Telemetry.h"

#include <cstdint>

namespace terracpp {

class TerraCompiler;

namespace vm {
struct ExecEnv;
} // namespace vm

class TerraInterpBackend {
public:
  TerraInterpBackend(TerraContext &Ctx, TerraCompiler &Compiler,
                     bool TreeOnly);

  /// Compiles \p F to bytecode unless it has some, counting a rejection in
  /// bytecode.bailouts.{vector,indirect_call,wide_call,other}.
  void compileBytecode(TerraFunction *F);

  /// Runs one activation of \p F over FFI-convention arguments on the
  /// engine chosen above, inside \p Env (a callee shares its caller's).
  /// Returns the tier it took as lastCallTier() numbers it: 2 for baseline
  /// code, 0 for the VM and the tree-walker. Failure is reported through
  /// Env.Failed. An outermost VM or baseline activation is timed in
  /// vm.dispatch_us.
  int run(TerraFunction *F, void **Args, void *Ret, vm::ExecEnv &Env);

private:
  TerraContext &Ctx;
  TerraCompiler &Compiler;
  bool TreeOnly;
  telemetry::Histogram &MDispatchUs; ///< vm.dispatch_us (outermost calls).
  telemetry::Counter &MTreeCalls;    ///< interp.tree_calls (activations).
  telemetry::Counter *MBailouts[4];  ///< bytecode.bailouts.*, by BailReason.
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAINTERPBACKEND_H
