//===- test_backends.cpp - Cross-engine differential tests ----------------===//
//
// Runs a corpus of programs on all three execution engines — the native C
// backend (the LLVM substitute), the tier-0 register-bytecode VM (what the
// Interp backend runs by default; see DESIGN.md §10), and the tree-walking
// evaluator (retained as the VM's bailout path and as a reference
// implementation) — and requires identical results. This is the main
// defense against codegen bugs: the engines share only the typed AST.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraType.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <optional>

using namespace terracpp;
using lua::Value;

namespace {

struct Program {
  const char *Name;
  const char *Src;    ///< Defines terra `f`.
  double Arg;
  double Expected;
};

const Program Corpus[] = {
    {"arith", "terra f(x: double): double return (x + 1) * 3 - 0.5 end", 2,
     8.5},
    {"intdiv", "terra f(x: int): int return (x * 7 + 3) / 2 % 5 end", 9, 3},
    {"loops",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = 0, n do\n"
     "    var j = 0\n"
     "    while j < i do s = s + 1 j = j + 1 end\n"
     "  end\n"
     "  return s\n"
     "end",
     10, 45},
    {"negative_step",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = n, 0, -1 do s = s + i end\n"
     "  return s\n"
     "end",
     10, 55},
    {"pointers",
     "std = terralib.includec('stdlib.h')\n"
     "terra f(n: int): int\n"
     "  var p = [&int](std.malloc(n * 4))\n"
     "  for i = 0, n do p[i] = i end\n"
     "  var q = p + n - 1\n"
     "  var last = @q\n"
     "  std.free([&opaque](p))\n"
     "  return last\n"
     "end",
     8, 7},
    {"structs",
     "struct V { x : double; y : double }\n"
     "terra dot(a: V, b: V): double return a.x * b.x + a.y * b.y end\n"
     "terra f(k: double): double\n"
     "  var a = V { k, 2.0 }\n"
     "  var b = V { 3.0, 4.0 }\n"
     "  return dot(a, b)\n"
     "end",
     5, 23},
    {"nested_struct",
     "struct Inner { v : int }\n"
     "struct Outer { a : Inner; b : Inner }\n"
     "terra f(k: int): int\n"
     "  var o = Outer { Inner { k }, Inner { k * 2 } }\n"
     "  o.a.v = o.a.v + 1\n"
     "  return o.a.v + o.b.v\n"
     "end",
     10, 31},
    {"arrays",
     "terra f(n: int): int\n"
     "  var a: int[16]\n"
     "  for i = 0, 16 do a[i] = i * i end\n"
     "  var s = 0\n"
     "  for i = 0, n do s = s + a[i] end\n"
     "  return s\n"
     "end",
     5, 30},
    {"vectors",
     "terra f(k: double): double\n"
     "  var v: vector(double, 4) = k\n"
     "  var w: vector(double, 4) = 2.0\n"
     "  var u = v * w + v\n"
     "  return u[0] + u[1] + u[2] + u[3]\n"
     "end",
     1.5, 18},
    {"recursion",
     "terra f(n: int): int\n"
     "  if n < 2 then return n end\n"
     "  return f(n - 1) + f(n - 2)\n"
     "end",
     12, 144},
    {"mutual",
     "odd = terralib.declare('odd')\n"
     "terra even(n: int): bool\n"
     "  if n == 0 then return true end\n"
     "  return odd(n - 1)\n"
     "end\n"
     "terra odd(n: int): bool\n"
     "  if n == 0 then return false end\n"
     "  return even(n - 1)\n"
     "end\n"
     "terra f(n: int): int\n"
     "  if even(n) then return 1 else return 0 end\n"
     "end",
     10, 1},
    {"globals",
     "acc = global(double, 1.5)\n"
     "terra f(k: double): double\n"
     "  acc = acc + k\n"
     "  return acc\n"
     "end",
     2.5, 4.0},
    {"staged",
     "local weights = { 1, 2, 3, 4 }\n"
     "terra f(x: int): int\n"
     "  var s = 0\n"
     "  [ (function()\n"
     "      local stmts = terralib.newlist()\n"
     "      for i, w in ipairs(weights) do\n"
     "        stmts:insert(quote s = s + x * w end)\n"
     "      end\n"
     "      return stmts\n"
     "    end)() ]\n"
     "  return s\n"
     "end",
     3, 30},
    {"casts",
     "terra f(x: double): double\n"
     "  var a = [int8](x)\n"
     "  var b = [uint8](x)\n"
     "  var c = bool(1)\n"
     "  var d = int(c)\n"
     "  return a + b + d\n"
     "end",
     200, (200 - 256) + 200 + 1},
    {"funcptr",
     "terra add1(x: int): int return x + 1 end\n"
     "terra mul2(x: int): int return x * 2 end\n"
     "terra f(n: int): int\n"
     "  var fp: int -> int = add1\n"
     "  if n > 5 then fp = mul2 end\n"
     "  return fp(n)\n"
     "end",
     7, 14},
    {"shortcircuit",
     "terra f(n: int): int\n"
     "  var p: &int = nil\n"
     "  if p ~= nil and @p > 0 then return 1 end\n"
     "  return 2\n"
     "end",
     0, 2},
};

/// The three execution engines under differential test. VM and Tree both
/// construct the Interp backend; the env knob picks which interpreter it
/// actually runs (programs outside the bytecode subset — e.g. the vector
/// corpus entry — fall back from the VM to the tree-walker transparently).
enum class Exec { Native, VM, Tree };

class BackendDiffTest
    : public ::testing::TestWithParam<std::tuple<Exec, size_t>> {};

TEST_P(BackendDiffTest, SameResult) {
  auto [Mode, Idx] = GetParam();
  if (Mode == Exec::Native &&
      Engine::defaultBackend() != BackendKind::Native)
    GTEST_SKIP();
  const Program &P = Corpus[Idx];
  // The VM runs with the baseline JIT off.
  std::optional<ScopedEnv> Force, NoBase;
  if (Mode != Exec::Native) {
    Force.emplace("TERRACPP_INTERP", Mode == Exec::Tree ? "tree" : "");
    NoBase.emplace("TERRACPP_JIT_BASELINE", "0");
  }
  Engine E(Mode == Exec::Native ? BackendKind::Native : BackendKind::Interp);
  ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
  std::vector<Value> Results;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(P.Arg)}, Results))
      << P.Name << ": " << E.errors();
  ASSERT_FALSE(Results.empty()) << P.Name;
  EXPECT_DOUBLE_EQ(Results[0].asNumber(), P.Expected) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BackendDiffTest,
    ::testing::Combine(::testing::Values(Exec::Native, Exec::VM, Exec::Tree),
                       ::testing::Range<size_t>(0, std::size(Corpus))),
    [](const ::testing::TestParamInfo<BackendDiffTest::ParamType> &Info) {
      Exec Mode = std::get<0>(Info.param);
      return std::string(Mode == Exec::Native ? "native_"
                         : Mode == Exec::VM   ? "vm_"
                                              : "tree_") +
             Corpus[std::get<1>(Info.param)].Name;
    });

// Builder-level min/max must agree across backends (scalar + vector lanes).
TEST(Backends, MinMaxIntrinsics) {
  for (BackendKind BK : {BackendKind::Native, BackendKind::Interp}) {
    if (BK == BackendKind::Native &&
        Engine::defaultBackend() != BackendKind::Native)
      continue;
    Engine E(BK);
    stage::Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64();
    TerraSymbol *X = B.sym(F64, "x");
    TerraSymbol *Y = B.sym(F64, "y");
    // min(x,y)*100 + max(x,y) + vector-lane check.
    Type *V4 = TC.vector(F64, 4);
    TerraSymbol *Va = B.sym(V4, "va");
    TerraSymbol *Vb = B.sym(V4, "vb");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.varDecl(Va, B.cast(V4, B.var(X))));
    Body.push_back(B.varDecl(Vb, B.cast(V4, B.var(Y))));
    TerraSymbol *Vm = B.sym(V4, "vm");
    Body.push_back(B.varDecl(Vm, B.maxExpr(B.var(Va), B.var(Vb))));
    Body.push_back(B.ret(B.add(
        B.mul(B.minExpr(B.var(X), B.var(Y)), B.litFloat(100)),
        B.add(B.maxExpr(B.var(X), B.var(Y)), B.index(B.var(Vm), 2)))));
    TerraFunction *F =
        B.function("mm", {X, Y}, F64, B.block(std::move(Body)));
    std::vector<Value> Args = {Value::number(3), Value::number(7)};
    std::vector<Value> R;
    ASSERT_TRUE(E.compiler().callFromHost(F, Args, R, SourceLoc()))
        << E.errors();
    // min=3, max=7, vm[2]=max(3,7)=7 -> 300 + 7 + 7 = 314.
    EXPECT_DOUBLE_EQ(R[0].asNumber(), 314.0);
  }
}

// The short-circuit program relies on `and` evaluating lazily; make sure
// both backends agree it does NOT dereference the null pointer. (Covered by
// the corpus entry; this re-checks with the interpreter explicitly since a
// crash there would abort the process.)
TEST(Backends, ShortCircuitAvoidsNullDeref) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(Corpus[15].Src)) << E.errors();
  std::vector<Value> Results;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(0)}, Results))
      << E.errors();
  EXPECT_EQ(Results[0].asNumber(), 2);
}

} // namespace
