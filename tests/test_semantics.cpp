//===- test_semantics.cpp - The paper's staging semantics (§3, §4.1) ------===//
//
// Each test encodes one of the semantic obligations the paper's Terra Core
// calculus pins down: eager specialization, separate evaluation, hygiene,
// deliberate hygiene violation via symbol(), the shared lexical environment,
// lazy + monotonic typechecking and linking, declaration/definition split
// for mutual recursion, quotation splicing, implicit escapes through nested
// tables, and the reflection metamethods (__cast on the paper's Complex).
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraType.h"

#include <gtest/gtest.h>

using namespace terracpp;
using lua::Value;

namespace {

void runOK(Engine &E, const std::string &Src) {
  ASSERT_TRUE(E.run(Src)) << E.errors();
}

double callD(Engine &E, const std::string &Name, std::vector<double> Args) {
  std::vector<Value> VArgs;
  for (double A : Args)
    VArgs.push_back(Value::number(A));
  std::vector<Value> Results;
  bool OK = E.call(E.global(Name), VArgs, Results);
  EXPECT_TRUE(OK) << E.errors();
  if (!OK || Results.empty() || !Results[0].isNumber())
    return -424242;
  return Results[0].asNumber();
}

//===----------------------------------------------------------------------===//
// Eager specialization (§4.1: "y(0) will evaluate to 0")
//===----------------------------------------------------------------------===//

TEST(Semantics, EagerSpecializationCapturesValueAtDefinition) {
  Engine E;
  runOK(E, "x1 = 0\n"
           "terra y(x2: int): int return x1 end\n"
           "x1 = 1");
  // The paper's example: specialization happened at definition, so the
  // later mutation of x1 is invisible.
  EXPECT_EQ(callD(E, "y", {0}), 0);
}

TEST(Semantics, SeparateEvaluationIgnoresHostStore) {
  Engine E;
  // §4.1 "Separate evaluation of Terra code": x1 := 2 after definition does
  // not affect the compiled function.
  runOK(E, "x1 = 1\n"
           "terra y(x2: int): int return x1 end\n"
           "x1 = 2");
  EXPECT_EQ(callD(E, "y", {0}), 1);
}

//===----------------------------------------------------------------------===//
// Hygiene (§4.1's capture example)
//===----------------------------------------------------------------------===//

TEST(Semantics, QuotedLetDoesNotCaptureFunctionParameter) {
  // The paper's §4.1 capture example: a quote binds its own y, and a
  // reference to the function parameter y is spliced underneath it. With
  // hygiene the two stay distinct; without renaming the quoted binding
  // would capture the splice.
  // The generator closure is created inside the escape so the quote's
  // lexical environment is f's body (shared lexical environment).
  Engine E3;
  runOK(E3,
        "terra f(y: int): int\n"
        "  var result = 0\n"
        "  [ (function(outer)\n"
        "       return quote var y = 100 result = y + [outer] end\n"
        "     end)(y) ]\n"
        "  return result\n"
        "end");
  // outer == parameter y (7); the quoted y (100) must not capture it:
  // result = 100 + 7.
  EXPECT_EQ(callD(E3, "f", {7}), 107);
}

TEST(Semantics, SymbolDeliberatelyViolatesHygiene) {
  Engine E;
  // §6.1: symbol() creates an identifier that is *not* renamed, so separate
  // quotes can refer to the same variable.
  runOK(E, "local s = symbol(int, 'acc')\n"
           "local decl = quote var [s] = 10 end\n"
           "local use = `[s] * 2\n"
           "terra f(): int\n"
           "  [decl]\n"
           "  return [use]\n"
           "end");
  EXPECT_EQ(callD(E, "f", {}), 20);
}

// Well-scopedness: a variable a quote captured, or a symbol no binder
// introduced, must not reach a function that does not bind it (no scope
// extrusion). Every tier reports the same located typechecker error, and the
// engine keeps serving.
void expectScopeError(const std::string &Src, const std::string &Where) {
  for (const char *Tier : {"native", "baseline", "vm", "tree"}) {
    bool Native = std::string(Tier) == "native";
    ScopedUnsetEnv NoTier("TERRACPP_JIT_TIER");
    ScopedEnv Tree("TERRACPP_INTERP",
                   std::string(Tier) == "tree" ? "tree" : "");
    ScopedEnv Base("TERRACPP_JIT_BASELINE",
                   std::string(Tier) == "baseline" ? "1" : "0");
    if (Native && Engine::defaultBackend() != BackendKind::Native)
      continue;
    Engine E(Native ? BackendKind::Native : BackendKind::Interp);
    EXPECT_FALSE(
        E.run("terra ok(n: int): int return n + 1 end " + Src, "scope.t"))
        << Tier;
    std::string Errs = E.errors();
    EXPECT_NE(Errs.find(Where + ": error: variable"), std::string::npos)
        << Tier << ": " << Errs;
    EXPECT_NE(Errs.find("[TS001]"), std::string::npos) << Tier << ": " << Errs;
    EXPECT_EQ(callD(E, "ok", {41}), 42) << Tier;
  }
}

TEST(Semantics, QuoteSplicedIntoAnotherFunctionIsRejected) {
  expectScopeError("local q\n"
                   "local function grab(e) q = e return e end\n"
                   "terra f(x: int): int\n"
                   "  return [grab(`x)]\n"
                   "end\n"
                   "f(1)\n"
                   "terra g(): int return [q] end\n"
                   "g()",
                   "scope.t:4:17");
}

TEST(Semantics, UnboundSymbolIsRejected) {
  expectScopeError("local s = symbol(int)\n"
                   "terra h(): int\n"
                   "  return [s] + 1\n"
                   "end\n"
                   "h()",
                   "scope.t:3:10");
}

TEST(Semantics, LoopVariableDoesNotOutliveItsLoop) {
  // A loop body is a scope (the C backend gives it braces); a plain block,
  // such as a spliced statement quote, is not.
  Engine E;
  EXPECT_FALSE(E.run("local q\n"
                     "terra f(n: int): int\n"
                     "  for i = 0, n do\n"
                     "    [(function() q = `i return quote end end)()]\n"
                     "  end\n"
                     "  return [q]\n"
                     "end\n"
                     "f(2)",
                     "loop.t"));
  EXPECT_NE(E.errors().find("[TS001]"), std::string::npos) << E.errors();
}

//===----------------------------------------------------------------------===//
// Shared lexical environment (§2, §4.1)
//===----------------------------------------------------------------------===//

TEST(Semantics, TerraVariablesVisibleToEscapedLua) {
  Engine E;
  // Terra loop variables flow into Lua code during specialization and come
  // back as variable references (the paper's blockedloop pattern).
  runOK(E, "function double_it(v) return `[v] + [v] end\n"
           "terra f(n: int): int\n"
           "  var total = 0\n"
           "  for i = 0, n do\n"
           "    total = total + [ double_it(i) ]\n"
           "  end\n"
           "  return total\n"
           "end");
  // sum of 2*i for i in 0..4 = 20.
  EXPECT_EQ(callD(E, "f", {5}), 20);
}

TEST(Semantics, NestedTableSelectIsImplicitEscape) {
  Engine E;
  // §4.1: x.id1.id2 chains into Lua tables resolve at specialization
  // (std.malloc needs no explicit escape).
  runOK(E, "lib = { math = { answer = 42 } }\n"
           "terra f(): int return lib.math.answer end");
  EXPECT_EQ(callD(E, "f", {}), 42);
}

TEST(Semantics, QuoteListSplicesInStatementPosition) {
  Engine E;
  // Fig. 5's `[loadc]` pattern: a Lua list of quotes splices as statements.
  runOK(E, "local stmts = terralib.newlist()\n"
           "local s = symbol(int, 'acc')\n"
           "local decl = quote var [s] = 0 end\n"
           "for i = 1, 4 do\n"
           "  stmts:insert(quote [s] = [s] + i end)\n"
           "end\n"
           "terra f(): int\n"
           "  [decl]\n"
           "  [stmts]\n"
           "  return [s]\n"
           "end");
  EXPECT_EQ(callD(E, "f", {}), 10);
}

TEST(Semantics, SymbolListSplicesAsParameters) {
  Engine E;
  // §6.3.1's `terra([params])`: an escaped list of symbols becomes the
  // parameter list.
  runOK(E, "local params = terralib.newlist()\n"
           "params:insert(symbol(int, 'a'))\n"
           "params:insert(symbol(int, 'b'))\n"
           "local a, b = params[1], params[2]\n"
           "terra f([params]): int\n"
           "  return [a] * 10 + [b]\n"
           "end");
  EXPECT_EQ(callD(E, "f", {3, 4}), 34);
}

//===----------------------------------------------------------------------===//
// Lazy + monotonic typechecking and linking (§4.1, Fig. 4)
//===----------------------------------------------------------------------===//

TEST(Semantics, MutualRecursionViaDeclarationDefinitionSplit) {
  Engine E;
  // Paper §4.1: eager specialization needs every symbol defined, so mutual
  // recursion uses the declaration/definition split (tdecl + ter).
  runOK(E, "is_even = terralib.declare('is_even')\n"
           "terra is_odd(n: int): int\n"
           "  if n == 0 then return 0 end\n"
           "  return is_even(n - 1)\n"
           "end\n"
           "terra is_even(n: int): int\n" // Fills the declaration.
           "  if n == 0 then return 1 end\n"
           "  return is_odd(n - 1)\n"
           "end");
  EXPECT_EQ(callD(E, "is_even", {10}), 1);
  EXPECT_EQ(callD(E, "is_odd", {10}), 0);
}

TEST(Semantics, UndefinedVariableFailsAtSpecialization) {
  // Using an unbound name inside terra code is a specialization-time
  // error (the paper's "undefined variable" failure mode) — this is why
  // mutual recursion needs the declaration/definition split.
  Engine E;
  EXPECT_FALSE(E.run("terra f(): int return g() end"));
  EXPECT_NE(E.errors().find("not defined"), std::string::npos) << E.errors();
}

TEST(Semantics, MonotonicLinking) {
  Engine E;
  // f references g; g is only declared when f is first called -> link
  // error. After defining g, calling f succeeds (typechecking results move
  // monotonically from error to success, §4.1).
  ASSERT_TRUE(E.run("g = terra(n: int): int return n end\n")) << E.errors();
  // Rebind g to an undefined declaration is not expressible in the surface
  // syntax; drive the property through the paper's semantics directly:
  TerraContext &Ctx = E.context();
  TerraFunction *Decl = Ctx.createFunction("late"); // tdecl (undefined).
  E.setGlobal("late", Value::terraFn(Decl));
  ASSERT_TRUE(E.run("terra f(): int return late() end")) << E.errors();

  std::vector<Value> Results;
  EXPECT_FALSE(E.call(E.global("f"), {}, Results)); // Link error.
  E.diags().clear();

  // Now define `late` (paper rule LTDEFN fills the declaration) and retry.
  ASSERT_TRUE(E.run("terra late(): int return 9 end")) << E.errors();
  // The surface definition must have filled the same declaration object.
  EXPECT_EQ(callD(E, "f", {}), 9);
}

TEST(Semantics, TypeErrorsAreSticky) {
  Engine E;
  ASSERT_TRUE(E.run("terra bad_add(): int\n"
                    "  var p: &int = nil\n"
                    "  return p\n" // &int -> int: type error.
                    "end\n"
                    "terra bad(): int return bad_add() end"))
      << E.errors();
  std::vector<Value> Results;
  EXPECT_FALSE(E.call(E.global("bad"), {}, Results));
  E.diags().clear();
  EXPECT_FALSE(E.call(E.global("bad"), {}, Results)); // Still an error.
}

//===----------------------------------------------------------------------===//
// Reflection: the paper's Complex __cast example (§4.1)
//===----------------------------------------------------------------------===//

TEST(Semantics, ComplexEntriesAndCastMetamethod) {
  Engine E;
  runOK(E,
        "struct Complex {}\n"
        "Complex.entries:insert { field = 'real', type = float }\n"
        "Complex.entries:insert { field = 'imag', type = float }\n"
        "Complex.metamethods.__cast = function(fromtype, totype, exp)\n"
        "  if fromtype == float then\n"
        "    return `Complex { [exp], 0.f }\n"
        "  end\n"
        "  error('invalid conversion')\n"
        "end\n"
        "terra re(c: Complex): float return c.real end\n"
        "terra promote_and_read(x: float): float\n"
        "  var c: Complex = x\n" // float -> Complex via __cast.
        "  return re(c)\n"
        "end");
  EXPECT_FLOAT_EQ(callD(E, "promote_and_read", {2.5}), 2.5);
}

TEST(Semantics, StructEntriesDetermineLayout) {
  Engine E;
  runOK(E, "struct P {}\n"
           "P.entries:insert { field = 'a', type = int8 }\n"
           "P.entries:insert { field = 'b', type = int64 }\n"
           "sz = sizeof(P)\n"
           "off = terralib.offsetof(P, 'b')");
  EXPECT_EQ(E.global("sz").asNumber(), 16); // C layout: pad to int64.
  EXPECT_EQ(E.global("off").asNumber(), 8);
}

TEST(Semantics, TypeReflectionPredicates) {
  Engine E;
  runOK(E, "t1 = (&int):ispointer()\n"
           "t2 = int:isarithmetic()\n"
           "t3 = (&int).type == int\n"
           "t4 = vector(float, 4):isvector()\n"
           "t5 = vector(float, 4).N");
  EXPECT_TRUE(E.global("t1").asBool());
  EXPECT_TRUE(E.global("t2").asBool());
  EXPECT_TRUE(E.global("t3").asBool());
  EXPECT_TRUE(E.global("t4").asBool());
  EXPECT_EQ(E.global("t5").asNumber(), 4);
}

TEST(Semantics, FunctionTypeReflection) {
  Engine E;
  runOK(E, "terra f(a: int, b: double): double return b end\n"
           "ft = f:gettype()\n"
           "np = #ft.parameters\n"
           "rt = ft.returntype == double");
  EXPECT_EQ(E.global("np").asNumber(), 2);
  EXPECT_TRUE(E.global("rt").asBool());
}

//===----------------------------------------------------------------------===//
// Terra-type generator functions (the paper's Image template, §2)
//===----------------------------------------------------------------------===//

TEST(Semantics, TypeGeneratorFunctions) {
  Engine E;
  runOK(E, "function Pair(T)\n"
           "  struct Impl { fst : T; snd : T; }\n"
           "  terra Impl:sum(): T return self.fst + self.snd end\n"
           "  return Impl\n"
           "end\n"
           "IntPair = Pair(int)\n"
           "DoublePair = Pair(double)\n"
           "terra test(): double\n"
           "  var a = IntPair { 1, 2 }\n"
           "  var b = DoublePair { 0.25, 0.5 }\n"
           "  return a:sum() + b:sum()\n"
           "end\n"
           "distinct = IntPair ~= DoublePair");
  EXPECT_TRUE(E.global("distinct").asBool());
  EXPECT_DOUBLE_EQ(callD(E, "test", {}), 3.75);
}

//===----------------------------------------------------------------------===//
// FFI (§4.2): lua functions as terra functions, cdata, globals
//===----------------------------------------------------------------------===//

TEST(Semantics, LuaFunctionWrappedAsTerraFunction) {
  Engine E;
  runOK(E, "local function twice(x) return x * 2 end\n"
           "tf = terralib.cast(int -> int, twice)\n"
           "terra f(n: int): int return tf(n) + 1 end");
  EXPECT_EQ(callD(E, "f", {20}), 41);
}

TEST(Semantics, TerraGlobalsShareStateAcrossCalls) {
  Engine E;
  runOK(E, "counter = global(int, 0)\n"
           "terra bump(): int\n"
           "  counter = counter + 1\n"
           "  return counter\n"
           "end");
  EXPECT_EQ(callD(E, "bump", {}), 1);
  EXPECT_EQ(callD(E, "bump", {}), 2);
  EXPECT_EQ(callD(E, "bump", {}), 3);
}

TEST(Semantics, MallocRoundtripThroughIncludec) {
  Engine E;
  runOK(E, "std = terralib.includec('stdlib.h')\n"
           "terra f(n: int): int\n"
           "  var p = [&int](std.malloc(n * 4))\n"
           "  for i = 0, n do p[i] = i * i end\n"
           "  var total = 0\n"
           "  for i = 0, n do total = total + p[i] end\n"
           "  std.free([&opaque](p))\n"
           "  return total\n"
           "end");
  EXPECT_EQ(callD(E, "f", {5}), 0 + 1 + 4 + 9 + 16);
}

} // namespace
