//===- TerraPasses.h - Midend passes over typed Terra trees -----*- C++ -*-===//
//
// Small optimization/cleanup pipeline run between typechecking and code
// generation:
//   * constant folding of arithmetic/comparisons on literals;
//   * dead-branch elimination (`if true/false` from staged parameters);
//   * trivially unreachable-statement removal after `return`/`break`;
//   * inlining of small straight-line Terra callees, so accessor methods
//     cost no call on any tier;
//   * a verifier that asserts the tree is fully typed and escape-free.
//
// Heavy optimization is deliberately left to the downstream C compiler (the
// LLVM substitute); these passes exist to clean up staging residue (e.g.
// `if [cond] then` where cond was a host constant) and to catch backend
// precondition violations early. Inlining is the exception: a callee
// compiled into an earlier module is called through a baked address the C
// compiler cannot see through, and the bytecode tiers pay a frame per call.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAPASSES_H
#define TERRACPP_CORE_TERRAPASSES_H

#include "core/TerraAST.h"

namespace terracpp {

/// Runs the standard pipeline over a typechecked function whose component
/// has been analyzed. Rewrites each body once; later runs are no-ops. Only
/// callees whose passes are already done are inlined, so a component is
/// passed callees first. Returns the number of calls inlined into \p F.
unsigned runMidendPasses(TerraContext &Ctx, TerraFunction *F);

/// Verifies backend preconditions (fully typed, no escapes, no method
/// calls). Returns false and reports through \p Diags on violation.
bool verifyFunction(DiagnosticEngine &Diags, TerraFunction *F);

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAPASSES_H
