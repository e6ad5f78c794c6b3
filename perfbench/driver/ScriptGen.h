//===- ScriptGen.h - Seeded Terra script generator --------------*- C++ -*-===//
//
// Generates Lua/Terra scripts whose every function maps an int to an int,
// and computes each function's expected result itself, in plain C++, so the
// checks never trust the compiler under test. Function bodies mix loops,
// branches, structs with methods, quotes/escapes and vectors; a function
// may call the one defined before it, which gives the compiler connected
// components of varying size.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SCRIPTGEN_H
#define PERFBENCH_SCRIPTGEN_H

#include "Common.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Script {
  std::string Name;
  std::string Source;
  std::vector<std::string> Fns;   ///< Global names, in definition order.
  std::vector<int32_t> Args;      ///< One argument per function.
  std::vector<int32_t> Expected;  ///< Fns[i](Args[i]), computed here.
};

/// A script of \p NumFns functions. \p Uid makes its text (and so its
/// generated C and cache key) unique; the same (Rng state, Uid, NumFns)
/// always yields the same script.
Script makeScript(Rng &R, uint64_t Uid, int NumFns);

/// Modulus every generated function reduces by; keeps all values in int32.
constexpr int32_t GenModulus = 10007;

} // namespace perfbench

#endif // PERFBENCH_SCRIPTGEN_H
