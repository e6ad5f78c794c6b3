//===- TerraVM.h - Tier-0 register bytecode interpreter ---------*- C++ -*-===//
//
// Executes bytecode::Function programs (TerraBytecode.h) with a
// computed-goto dispatch loop. This is the tier-0 engine of the tiered
// execution pipeline: it runs immediately after codegen with no C compiler
// on the critical path, while profile counters (call counts at the entry
// thunk, back edges accumulated in ExecEnv) drive background promotion to
// native code.
//
// Calls leave an activation through vm::call, which the VM, baseline code
// and the tree-walker share: externs go to the registry, tiered and native
// callees to their Entry, and every other callee back into the pre-native
// dispatcher (TerraInterpBackend::run), which picks the callee's engine.
//
// Semantics are the tree-walking evaluator's, bit for bit: same canonical
// widening, same trap messages ("terra interpreter: ..." diagnostics), same
// extern registry (TerraExternDispatch), same depth limit. The differential
// tests in test_backends/test_fuzz pin this equivalence.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAVM_H
#define TERRACPP_CORE_TERRAVM_H

#include "core/TerraBytecode.h"

#include <cstdint>

namespace terracpp {

class TerraContext;
class TerraCompiler;

namespace vm {

/// Per-invocation execution context. One ExecEnv spans an entry thunk's
/// activation and every pre-native callee vm::call dispatches under it;
/// calls through an Entry thunk (tiered callees) get fresh state. Call
/// depth is deliberately NOT part of this state: it lives in a per-thread
/// counter (callDepth()) so recursion that crosses entry thunks — where
/// each hop constructs a fresh ExecEnv — still runs into the depth limit
/// instead of growing the native stack without bound.
struct ExecEnv {
  ExecEnv(TerraContext &Ctx, TerraCompiler &Comp) : Ctx(Ctx), Comp(Comp) {}

  TerraContext &Ctx;
  TerraCompiler &Comp;
  /// Loop latch executions observed during this invocation; the entry
  /// thunk flushes them into the function's TierState / telemetry.
  uint64_t BackEdges = 0;
  /// Set once a trap or callee failure aborted execution (the diagnostic,
  /// if any, has already been reported).
  bool Failed = false;
};

/// Depth budget shared by the pre-native tiers (tree-walker, VM, baseline).
/// Ordinary activations cost one unit; baseline activations whose emitted
/// frame lives on the native stack are charged proportionally to its size
/// (BaselineJIT::depthUnits) so a full budget always fits a default-sized
/// thread stack.
constexpr unsigned MaxCallDepth = 400;

/// The current thread's guest call depth, in units. Shared across ExecEnv
/// instances (see above); manipulate it through CallDepthScope only.
unsigned &callDepth();

/// RAII charge of one guest activation against the thread's depth budget.
/// Construct, then test exceeded() before doing any real work: past the
/// limit the caller must report failStackOverflow() and unwind.
class CallDepthScope {
public:
  explicit CallDepthScope(unsigned Units = 1) : Units(Units) {
    callDepth() += Units;
  }
  ~CallDepthScope() { callDepth() -= Units; }
  CallDepthScope(const CallDepthScope &) = delete;
  CallDepthScope &operator=(const CallDepthScope &) = delete;
  bool exceeded() const { return callDepth() > MaxCallDepth; }

private:
  unsigned Units;
};

/// Reports the tier-invariant "terra call stack overflow" diagnostic, sets
/// Env.Failed, and returns false.
bool failStackOverflow(ExecEnv &Env);

/// Runs \p F over FFI-convention arguments: Args[i] points at the i-th
/// value with C layout, Ret at the result buffer (null for void). Returns
/// false when execution aborted (Env.Failed set; at most one "terra
/// interpreter: ..." diagnostic reported).
bool run(const bytecode::Function &F, void **Args, void *Ret, ExecEnv &Env);

/// Calls \p Callee at a call site of a running pre-native activation in
/// \p Env. \p ArgTypes are the static argument types (extern dispatch);
/// \p Loc locates a failing extern. False when the call failed (Env.Failed
/// set).
bool call(TerraFunction *Callee, void **Args,
          const std::vector<Type *> &ArgTypes, void *Ret, SourceLoc Loc,
          ExecEnv &Env);

// Out-of-line services for the baseline JIT (TerraBaselineJIT.cpp). The
// emitted machine code calls these for everything that is not straight-line
// arithmetic, so call dispatch, trap messages, and function-literal
// semantics stay byte-identical across the VM and baseline tiers.

/// Executes call site \p Idx of \p F over the register file / frame of a
/// running activation. False when the callee failed (Env.Failed set).
bool execCallSite(const bytecode::Function &F, uint64_t Idx,
                  bytecode::Slot *R, uint8_t *Frame, ExecEnv &Env);

/// Reports trap \p Idx of \p F (diagnostic with its source location).
void execTrap(const bytecode::Function &F, uint64_t Idx, ExecEnv &Env);

/// Materializes the value of function \p Fn into \p Dst (machine address
/// under tiered execution, the TerraFunction otherwise). False on failure.
bool execFnLit(TerraFunction *Fn, bytecode::Slot &Dst, ExecEnv &Env);

/// Runs lane op \p O (VSplat..VNeg) with VecShape \p Imm, writing the
/// vector at \p Dst. B and C hold the operand vectors' addresses (VSplat: B
/// is the canonical lane value). False when an integer VDiv/VMod meets a
/// zero divisor lane, before any lane is written; the caller then reports
/// trap VecShape::Trap. Shared by the VM loop and the baseline JIT's helper
/// path, so both tiers compute every lane identically.
bool execLaneOp(bytecode::Op O, int64_t Imm, void *Dst, bytecode::Slot B,
                bytecode::Slot C);

} // namespace vm
} // namespace terracpp

#endif // TERRACPP_CORE_TERRAVM_H
