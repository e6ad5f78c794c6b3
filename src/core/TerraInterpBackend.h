//===- TerraInterpBackend.h - Interpreted execution backend -----*- C++ -*-===//
//
// Execution engine that runs typechecked Terra functions with no C compiler
// required. Since the tiered-execution work (DESIGN.md §10) it is a thin
// driver over two engines:
//
//  * the register-bytecode VM (TerraBytecode/TerraVM) — the tier-0 engine,
//    used whenever a function compiles to bytecode; and
//  * the original tree-walking evaluator (TEval, in the .cpp) — the
//    reference implementation, kept as the fallback for the constructs the
//    bytecode compiler does not cover (indirect calls, calls with more than
//    32 arguments) and as the oracle for differential tests
//    (TERRACPP_INTERP=tree, or setForceTree, pins every execution to it).
//    interp.tree_calls counts its activations.
//
// Both engines implement the same separate-evaluation semantics as the
// native backend (Terra code never touches the host store) and report the
// same "terra interpreter: ..." diagnostics. Values of function type hold a
// TerraFunction* (never a machine address), so interpreted code can call
// externs, host wrappers, and other interpreted functions uniformly.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAINTERPBACKEND_H
#define TERRACPP_CORE_TERRAINTERPBACKEND_H

#include "core/TerraAST.h"
#include "support/Telemetry.h"

#include <cstdint>

namespace terracpp {

class TerraCompiler;

class TerraInterpBackend {
public:
  TerraInterpBackend(TerraContext &Ctx, TerraCompiler &Compiler);

  /// Compiles \p F to bytecode when possible and installs an interpretive
  /// Entry thunk. Idempotent.
  bool prepare(TerraFunction *F);

  /// Compiles \p F to bytecode unless it has some, counting a rejection in
  /// bytecode.bailouts.{vector,indirect_call,wide_call,other}.
  void compileBytecode(TerraFunction *F);

  /// Runs \p F over FFI-convention arguments through the best available
  /// interpreted engine: bytecode VM if \p F compiled to bytecode and the
  /// tree-walker is not forced, tree-walker otherwise. When \p BackEdges is
  /// non-null it receives the VM's loop back-edge count for this call (0
  /// for tree-walked calls) — the tier dispatcher feeds it into promotion
  /// heuristics. An outermost activation records its tier in
  /// TerraCompiler::lastCallTier (2 on the baseline JIT, else 0). False
  /// when execution aborted on a trap or error.
  bool execute(const TerraFunction *F, void **Args, void *Ret,
               uint64_t *BackEdges = nullptr);

  /// Pins execution to the tree-walking evaluator (differential tests).
  /// Initialized from TERRACPP_INTERP=tree.
  void setForceTree(bool Force) { ForceTree = Force; }
  bool forceTree() const { return ForceTree; }

private:
  TerraContext &Ctx;
  TerraCompiler &Compiler;
  bool ForceTree = false;
  telemetry::Histogram &MDispatchUs; ///< vm.dispatch_us (outermost calls).
  telemetry::Counter &MBackEdges;    ///< vm.backedges.
  telemetry::Counter &MTreeCalls;    ///< interp.tree_calls (activations).
  telemetry::Counter *MBailouts[4];  ///< bytecode.bailouts.*, by BailReason.
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAINTERPBACKEND_H
