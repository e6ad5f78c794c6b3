//===- CBackend.h - Emit C from typed Terra trees ---------------*- C++ -*-===//
//
// The native backend. The original system JIT-compiles Terra through LLVM;
// offline we substitute a C code generator whose output is compiled by the
// system C compiler and loaded with dlopen (see DESIGN.md §4). SIMD vector
// types map to GCC vector extensions and `prefetch` to __builtin_prefetch,
// so staged kernels become real vectorized native code.
//
// Cross-module references (functions compiled earlier, Terra globals, and
// the host-callback trampoline) are emitted as pointer literals baked into
// the source, which keeps every generated module self-contained — the same
// strategy a JIT uses when patching absolute addresses.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_CBACKEND_H
#define TERRACPP_CORE_CBACKEND_H

#include "core/TerraAST.h"

#include <map>
#include <string>
#include <vector>

namespace terracpp {

class CBackend {
public:
  explicit CBackend(TerraContext &Ctx) : Ctx(Ctx) {}

  /// Emits a complete C translation unit defining every function in \p Fns
  /// (which must be typechecked, with midend passes run), plus an
  /// `<name>_entry(void**, void*)` thunk per function for FFI calls.
  /// Returns an empty string after reporting a diagnostic on failure.
  ///
  /// In standalone mode (saveobj) no in-process addresses may be baked into
  /// the output: every referenced function must be part of \p Fns, host
  /// closures are rejected, and Terra globals become module-local
  /// definitions (zero-initialized). \p Exports adds alias symbols with
  /// unmangled names.
  std::string
  emitModule(const std::vector<TerraFunction *> &Fns,
             void *HostCallCtx = nullptr, bool Standalone = false,
             const std::map<const TerraFunction *, std::string> *Exports =
                 nullptr);

  /// True when the most recent emitModule baked a process-local absolute
  /// address (compiled callee, global storage, host trampoline, pointer
  /// literal) into the source. Such modules must not be served from the
  /// JIT's persistent cross-process cache.
  bool lastModuleBakedAddresses() const { return LastBakedAddrs; }

  /// Distinct previously compiled callees the most recent emitModule calls
  /// through a baked address: calls the C compiler cannot inline.
  unsigned lastModuleBakedCallees() const { return LastBakedCallees; }

private:
  class Emitter;
  TerraContext &Ctx;
  bool LastBakedAddrs = false;
  unsigned LastBakedCallees = 0;
};

} // namespace terracpp

#endif // TERRACPP_CORE_CBACKEND_H
