//===- test_inline.cpp - Midend inlining of small Terra callees -----------===//
//
// The midend copies small straight-line callees into their callers, so a
// data-layout library's accessor methods (DataTable, paper §6.3.2) cost no
// call on any tier. The layout kernel is built the way the benchmark builds
// it: translate is compiled after fill, whose module already holds the
// set_p* accessors. Covered here:
//   * results equal a C loop on cc-native, baseline JIT, VM and tree-walker;
//   * no call survives in translate: its C module bakes no callee address
//     (so a second engine loads it from the disk cache) and its bytecode
//     has no Call op;
//   * the rules that keep a call a call (recursion, loops, trapping ops,
//     side-effecting arguments in expression position);
//   * a call statement still evaluates each argument once, left to right.
//
//===----------------------------------------------------------------------===//

#include "core/CBackend.h"
#include "core/Engine.h"
#include "core/TerraBaselineJIT.h"
#include "core/TerraBytecode.h"
#include "core/TerraPrint.h"
#include "core/TerraType.h"
#include "layout/DataTable.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <dirent.h>
#include <memory>
#include <tuple>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::layout;
using lua::Value;

namespace {

enum class Tier { Native, Baseline, VM, Tree };

const char *tierName(Tier T) {
  switch (T) {
  case Tier::Native:
    return "native";
  case Tier::Baseline:
    return "baseline";
  case Tier::VM:
    return "vm";
  case Tier::Tree:
    return "tree";
  }
  return "?";
}

/// Pins the engine a test constructs to one tier (the knobs are read at
/// Engine construction).
class TierScope {
public:
  explicit TierScope(Tier T)
      : NoTier("TERRACPP_JIT_TIER"), NoBackend("TERRACPP_BACKEND"),
        Interp("TERRACPP_INTERP", T == Tier::Tree ? "tree" : ""),
        Baseline("TERRACPP_JIT_BASELINE", T == Tier::Baseline ? "1" : "0") {
    if (T == Tier::Native)
      Skip = Engine::defaultBackend() != BackendKind::Native
                 ? "no C compiler on PATH"
                 : nullptr;
    else if (T == Tier::Baseline && !BaselineJIT::supported())
      Skip = "the baseline JIT needs x86-64";
    Backend = T == Tier::Native ? BackendKind::Native : BackendKind::Interp;
  }

  const char *Skip = nullptr;
  BackendKind Backend;

private:
  ScopedUnsetEnv NoTier, NoBackend;
  ScopedEnv Interp, Baseline;
};

uint64_t counter(Engine &E, const char *Name) {
  return E.compiler().jit().metrics().counter(Name).value();
}

/// True when \p Caller's typed body still calls a function named \p Callee.
bool stillCalls(const TerraFunction *Caller, const std::string &Callee) {
  return printFunction(Caller).find(Callee + "(") != std::string::npos;
}

bool bytecodeHasCall(const TerraFunction *F) {
  if (!F->Bytecode)
    return true;
  for (const bytecode::Insn &I : F->Bytecode->Code)
    if (I.Code == bytecode::Op::Call)
      return true;
  return !F->Bytecode->Calls.empty();
}

//===----------------------------------------------------------------------===//
// The DataTable translate kernel
//===----------------------------------------------------------------------===//

/// Vertex positions fill writes (the C reference recomputes them).
float fillPos(int64_t I, int Axis) {
  if (Axis == 0)
    return static_cast<float>(I % 1024);
  if (Axis == 1)
    return static_cast<float>(I / 1024 % 1024);
  return static_cast<float>(I * 7 % 97) * 0.01f;
}

/// A DataTable of vertices plus fill/translate/pos written against its
/// accessors, compiled one root at a time in the benchmark's order. Must
/// not outlive its engine (the destructor frees the table through it).
struct LayoutKernel {
  ~LayoutKernel() {
    if (!Filled)
      return;
    void *T = Box.data();
    void *Args[1] = {&T};
    Free->Entry(Args, nullptr);
  }

  std::shared_ptr<DataTable> DT;
  TerraFunction *Init = nullptr, *Fill = nullptr, *Tr = nullptr,
                *Pos = nullptr, *Free = nullptr;
  bool Filled = false;
  std::vector<uint8_t> Box;
  /// Cache hits the translate compile alone produced.
  uint64_t TranslateCacheHits = 0;
  /// Baked callee references the translate compile alone produced.
  uint64_t TranslateBakedCallees = 0;

  bool build(Engine &E, LayoutKind L) {
    Type *F32 = E.context().types().float32();
    DT = std::make_shared<DataTable>(
        E, "Verts",
        std::vector<std::pair<std::string, Type *>>{
            {"px", F32}, {"py", F32}, {"pz", F32}},
        L);
    if (!DT->valid())
      return false;
    E.setGlobal("Verts", Value::type(DT->type()));
    if (!E.run(R"(
terra fill(t: &Verts)
  for i = 0, t.N do
    t:set_px(i, [float](i % 1024))
    t:set_py(i, [float](i / 1024 % 1024))
    t:set_pz(i, [float](i * 7 % 97) * 0.01f)
  end
end
terra translate(t: &Verts, dx: float, dy: float, dz: float)
  for i = 0, t.N do
    t:set_px(i, t:get_px(i) + dx)
    t:set_py(i, t:get_py(i) + dy)
    t:set_pz(i, t:get_pz(i) + dz)
  end
end
terra pos(t: &Verts, i: int64, axis: int): float
  if axis == 0 then return t:get_px(i) end
  if axis == 1 then return t:get_py(i) end
  return t:get_pz(i)
end
)",
               "layout"))
      return false;
    Init = DT->type()->methods()->getStr("init").asTerraFn();
    Fill = E.terraFunction("fill");
    Tr = E.terraFunction("translate");
    Pos = E.terraFunction("pos");
    Free = DT->type()->methods()->getStr("free").asTerraFn();
    TerraCompiler &C = E.compiler();
    for (TerraFunction *F : {Init, Fill, Tr, Pos, Free}) {
      uint64_t Hits = counter(E, "jit.cache.hits");
      uint64_t Baked = counter(E, "codegen.baked_callee_refs");
      if (!F || !C.ensureCompiled(F) || !F->Entry)
        return false;
      if (F == Tr) {
        TranslateCacheHits = counter(E, "jit.cache.hits") - Hits;
        TranslateBakedCallees = counter(E, "codegen.baked_callee_refs") - Baked;
      }
    }
    if (!C.typechecker().completeStruct(DT->type(), SourceLoc()))
      return false;
    Box.assign(DT->type()->size(), 0);
    return true;
  }

  /// Allocates and fills N vertices on the first run, then translates.
  void run(int64_t N, float Dx, float Dy, float Dz) {
    void *T = Box.data();
    if (!Filled) {
      void *InitArgs[2] = {&T, &N};
      Init->Entry(InitArgs, nullptr);
      void *FillArgs[1] = {&T};
      Fill->Entry(FillArgs, nullptr);
      Filled = true;
    }
    void *TrArgs[4] = {&T, &Dx, &Dy, &Dz};
    Tr->Entry(TrArgs, nullptr);
  }

  float pos(int64_t I, int Axis) {
    void *T = Box.data();
    int32_t A = Axis;
    float Got = 0;
    void *Args[3] = {&T, &I, &A};
    Pos->Entry(Args, &Got);
    return Got;
  }
};

using LayoutParam = std::tuple<Tier, LayoutKind>;

class InlineLayoutTest : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(InlineLayoutTest, TranslateAfterFillRunsWithoutCalls) {
  auto [T, L] = GetParam();
  TierScope Scope(T);
  if (Scope.Skip)
    GTEST_SKIP() << Scope.Skip;
  Engine E(Scope.Backend);
  LayoutKernel K;
  ASSERT_TRUE(K.build(E, L)) << E.errors();

  // Every accessor call in translate was replaced by its body.
  for (const char *Acc : {"set_px", "set_py", "set_pz", "get_px", "get_py",
                          "get_pz"})
    EXPECT_FALSE(stillCalls(K.Tr, std::string("Verts_") + Acc)) << Acc;
  // fill's 3 setters, translate's 6 accessors, pos's 3 getters.
  EXPECT_EQ(counter(E, "midend.inlined_calls"), 12u);
  EXPECT_EQ(counter(E, "codegen.baked_callee_refs"), 0u);

  const int64_t N = 3000;
  const float D[3] = {0.5f, -1.25f, 2.0f};
  uint64_t TreeBefore = counter(E, "interp.tree_calls");
  K.run(N, D[0], D[1], D[2]);
  for (int64_t I = 0; I < N; I += 7)
    for (int Axis = 0; Axis != 3; ++Axis)
      EXPECT_FLOAT_EQ(K.pos(I, Axis), fillPos(I, Axis) + D[Axis])
          << "vertex " << I << " axis " << Axis;

  switch (T) {
  case Tier::Native: {
    // translate's module references nothing by address, so it is cacheable.
    CBackend CB(E.context());
    EXPECT_FALSE(CB.emitModule({K.Tr}, &E.compiler()).empty()) << E.errors();
    EXPECT_FALSE(CB.lastModuleBakedAddresses());
    break;
  }
  case Tier::Baseline:
  case Tier::VM:
    EXPECT_FALSE(bytecodeHasCall(K.Tr))
        << bytecode::disassemble(*K.Tr->Bytecode);
    EXPECT_EQ(E.compiler().lastCallTier(), T == Tier::Baseline ? 2 : 0);
    EXPECT_EQ(counter(E, "interp.tree_calls"), TreeBefore);
    break;
  case Tier::Tree:
    // Only the host's own calls reach the tree-walker: no nested accessor
    // activations.
    EXPECT_EQ(counter(E, "interp.tree_calls"),
              TreeBefore + 3 + (N + 6) / 7 * 3);
    break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inline, InlineLayoutTest,
    ::testing::Combine(::testing::Values(Tier::Native, Tier::Baseline,
                                         Tier::VM, Tier::Tree),
                       ::testing::Values(LayoutKind::AoS, LayoutKind::SoA)),
    [](const ::testing::TestParamInfo<LayoutParam> &I) {
      return std::string(tierName(std::get<0>(I.param))) +
             (std::get<1>(I.param) == LayoutKind::AoS ? "_aos" : "_soa");
    });

/// Points TERRACPP_CACHE_DIR at a fresh private directory for one test.
class ScopedCacheDir {
public:
  ScopedCacheDir() : Cache("TERRACPP_CACHE", "on") {
    char Template[] = "/tmp/terracpp-inline-XXXXXX";
    Dir = mkdtemp(Template);
    DirEnv = std::make_unique<ScopedEnv>("TERRACPP_CACHE_DIR", Dir);
  }
  ~ScopedCacheDir() {
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Dir + "/" + Name).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Dir.c_str());
  }

private:
  ScopedEnv Cache;
  std::string Dir;
  std::unique_ptr<ScopedEnv> DirEnv;
};

TEST(Inline, TranslateModuleHitsTheDiskCacheInASecondEngine) {
  TierScope Scope(Tier::Native);
  if (Scope.Skip)
    GTEST_SKIP() << Scope.Skip;
  ScopedCacheDir Cache;
  {
    Engine E(BackendKind::Native);
    LayoutKernel First;
    ASSERT_TRUE(First.build(E, LayoutKind::SoA)) << E.errors();
    EXPECT_EQ(First.TranslateBakedCallees, 0u);
    EXPECT_EQ(First.TranslateCacheHits, 0u);
  }
  Engine E(BackendKind::Native);
  LayoutKernel Second;
  ASSERT_TRUE(Second.build(E, LayoutKind::SoA)) << E.errors();
  EXPECT_EQ(Second.TranslateCacheHits, 1u);
  Second.run(100, 1, 2, 3);
  EXPECT_FLOAT_EQ(Second.pos(99, 2), fillPos(99, 2) + 3);
}

//===----------------------------------------------------------------------===//
// Which calls are inlined
//===----------------------------------------------------------------------===//

/// Runs a script on one tier and calls its `f` with no arguments.
class InlineRulesTest : public ::testing::TestWithParam<Tier> {
protected:
  void SetUp() override {
    Scope = std::make_unique<TierScope>(GetParam());
    if (Scope->Skip)
      GTEST_SKIP() << Scope->Skip;
    E = std::make_unique<Engine>(Scope->Backend);
  }

  double runF(const std::string &Src) {
    if (!E->run(Src)) {
      ADD_FAILURE() << E->errors();
      return -1;
    }
    std::vector<Value> R;
    if (!E->call(E->global("f"), {}, R) || R.empty()) {
      ADD_FAILURE() << E->errors();
      return -1;
    }
    return R[0].asNumber();
  }

  TerraFunction *fn(const char *Name) { return E->terraFunction(Name); }

  std::unique_ptr<TierScope> Scope;
  std::unique_ptr<Engine> E;
};

TEST_P(InlineRulesTest, NestedAccessorsInlineBottomUp) {
  EXPECT_EQ(runF("struct P { x: int; y: int }\n"
                 "terra getx(p: &P): int return p.x end\n"
                 "terra sum(p: &P): int return getx(p) + p.y end\n"
                 "terra setx(p: &P, v: int) p.x = v end\n"
                 "terra f(): int\n"
                 "  var p = P { 1, 2 }\n"
                 "  var acc = 0\n"
                 "  for i = 0, 10 do\n"
                 "    setx(&p, i)\n"
                 "    acc = acc + sum(&p)\n"
                 "  end\n"
                 "  return acc\n"
                 "end"),
            65);
  EXPECT_FALSE(stillCalls(fn("sum"), "getx"));
  EXPECT_FALSE(stillCalls(fn("f"), "sum"));
  EXPECT_FALSE(stillCalls(fn("f"), "setx"));
}

TEST_P(InlineRulesTest, DeepAccessorChainInlinesFully) {
  // Six getters, each calling the one before: the component's callees are
  // processed first, so every level is already flat when its caller runs.
  std::string Src = "struct P { x: int }\n"
                    "terra a0(p: &P): int return p.x end\n";
  for (int K = 1; K != 6; ++K)
    Src += "terra a" + std::to_string(K) + "(p: &P): int return a" +
           std::to_string(K - 1) + "(p) + 1 end\n";
  Src += "terra f(): int\n"
         "  var p = P { 10 }\n"
         "  var acc = 0\n"
         "  for i = 0, 3 do acc = acc + a5(&p) end\n"
         "  return acc\n"
         "end";
  EXPECT_EQ(runF(Src), 45);
  for (int K = 0; K != 6; ++K)
    EXPECT_FALSE(stillCalls(fn("f"), "a" + std::to_string(K))) << K;
}

TEST_P(InlineRulesTest, SharedCalleeInlinesIntoEveryCaller) {
  // f calls getx and sum, sum calls getx too: getx runs before both.
  EXPECT_EQ(runF("struct P { x: int; y: int }\n"
                 "terra getx(p: &P): int return p.x end\n"
                 "terra sum(p: &P): int return getx(p) + p.y end\n"
                 "terra f(): int\n"
                 "  var p = P { 3, 4 }\n"
                 "  return getx(&p) * 100 + sum(&p)\n"
                 "end"),
            307);
  EXPECT_FALSE(stillCalls(fn("sum"), "getx"));
  EXPECT_FALSE(stillCalls(fn("f"), "getx"));
  EXPECT_FALSE(stillCalls(fn("f"), "sum"));
}

TEST_P(InlineRulesTest, FoldedLiteralArgumentsKeepTheCallsArithmetic) {
  // Literal arguments substituted into the body are folded with it. The
  // fold must wrap to the type's width and round float32 after each
  // operation, as the call does at run time.
  EXPECT_EQ(runF("terra inc8(x: uint8): uint8 return x + 1 end\n"
                 "terra inc32(x: int32): int32 return x + 1 end\n"
                 "terra sub8(x: int8, y: int8): int8 return x - y end\n"
                 "terra mul16(x: uint16): uint16 return x * x end\n"
                 "terra sum3(a: float, b: float, c: float): float\n"
                 "  return a + b + c\n"
                 "end\n"
                 "terra f(): int\n"
                 "  var r = 0\n"
                 "  if inc8(255) == 0 then r = r + 1 end\n"
                 "  if inc32(2147483647) < 0 then r = r + 2 end\n"
                 "  if sub8(0, 128) == -128 then r = r + 4 end\n"
                 "  if mul16(65535) == 1 then r = r + 8 end\n"
                 "  if sum3(16777216.0, 1.0, 1.0) == 16777216.0 then\n"
                 "    r = r + 16\n"
                 "  end\n"
                 "  return r\n"
                 "end"),
            31);
  for (const char *Callee : {"inc8", "inc32", "sub8", "mul16", "sum3"})
    EXPECT_FALSE(stillCalls(fn("f"), Callee)) << Callee;
}

TEST_P(InlineRulesTest, RecursiveCalleeStaysACall) {
  EXPECT_EQ(runF("terra fact(n: int): int\n"
                 "  if n <= 1 then return 1 end\n"
                 "  return n * fact(n - 1)\n"
                 "end\n"
                 "terra f(): int return fact(5) end"),
            120);
  EXPECT_TRUE(stillCalls(fn("f"), "fact"));
  EXPECT_TRUE(stillCalls(fn("fact"), "fact"));
  // Straight-line but mutually recursive: the cycle is never unrolled.
  EXPECT_EQ(runF("ping = terralib.declare('ping')\n"
                 "terra pong(n: int): int return ping(n) end\n"
                 "terra ping(n: int): int\n"
                 "  if n <= 0 then return 7 end\n"
                 "  return pong(n - 1)\n"
                 "end\n"
                 "terra f(): int return pong(3) end"),
            7);
  EXPECT_TRUE(stillCalls(fn("pong"), "ping"));
  EXPECT_TRUE(stillCalls(fn("ping"), "pong"));
}

TEST_P(InlineRulesTest, CalleeWithALoopStaysACall) {
  EXPECT_EQ(runF("terra tri(n: int): int\n"
                 "  var s = 0\n"
                 "  for i = 0, n do s = s + i end\n"
                 "  return s\n"
                 "end\n"
                 "terra f(): int var n = 5 return tri(n) end"),
            10);
  EXPECT_TRUE(stillCalls(fn("f"), "tri"));
}

TEST_P(InlineRulesTest, CalleeWithATrappingOpStaysACall) {
  // Div, Mod and shifts carry per-node guard facts a copy would lack.
  EXPECT_EQ(runF("terra half(x: int): int return x / 2 end\n"
                 "terra low(x: int): int return x % 8 end\n"
                 "terra shl(x: int): int return x << 1 end\n"
                 "terra f(): int var x = 21 return half(x) + low(x) + shl(x) "
                 "end"),
            10 + 5 + 42);
  EXPECT_TRUE(stillCalls(fn("f"), "half"));
  EXPECT_TRUE(stillCalls(fn("f"), "low"));
  EXPECT_TRUE(stillCalls(fn("f"), "shl"));
}

TEST_P(InlineRulesTest, SideEffectingArgumentInExpressionPositionStaysACall) {
  // Substituting bump(&c) for both uses of x would run it twice (1 + 2).
  EXPECT_EQ(runF("terra twice(x: int): int return x + x end\n"
                 "terra bump(p: &int): int @p = @p + 1 return @p end\n"
                 "terra f(): int var c = 0 return twice(bump(&c)) + c end"),
            3);
  EXPECT_TRUE(stillCalls(fn("f"), "twice"));
  EXPECT_TRUE(stillCalls(fn("f"), "bump"));
}

TEST_P(InlineRulesTest, StatementArgumentsEvaluateOnceLeftToRight) {
  EXPECT_EQ(runF("terra next(c: &int): int @c = @c + 1 return @c end\n"
                 "terra put(p: &int, a: int, b: int) @p = a * 10 + b end\n"
                 "terra sq(p: &int, a: int) @p = a * a end\n"
                 "terra f(): int\n"
                 "  var c = 0\n"
                 "  var r: int\n"
                 "  var s: int\n"
                 "  put(&r, next(&c), next(&c))\n"
                 "  sq(&s, next(&c))\n"
                 "  return r * 1000 + s * 10 + c\n"
                 "end"),
            12 * 1000 + 9 * 10 + 3);
  EXPECT_FALSE(stillCalls(fn("f"), "put"));
  EXPECT_FALSE(stillCalls(fn("f"), "sq"));
  EXPECT_TRUE(stillCalls(fn("f"), "next"));
}

TEST_P(InlineRulesTest, CallOperandsEvaluateLeftToRight) {
  // Loops keep next and put calls on every tier, so the C backend emits
  // them as C calls and binary operators, whose operand order C leaves
  // unspecified; every tier must still run them left to right.
  EXPECT_EQ(runF("terra next(c: &int): int\n"
                 "  for i = 0, 1 do @c = @c + 1 end\n"
                 "  return @c\n"
                 "end\n"
                 "terra put(p: &int, a: int, b: int)\n"
                 "  var s = 0\n"
                 "  for i = 0, 1 do s = s + a * 10 + b end\n"
                 "  @p = s\n"
                 "end\n"
                 "terra f(): int\n"
                 "  var c = 0\n"
                 "  var r: int\n"
                 "  put(&r, next(&c), next(&c))\n"
                 "  var x = next(&c) * 10 + next(&c)\n"
                 "  var y = next(&c) - c\n"
                 "  return r * 10000 + x * 100 + y * 10 + c\n"
                 "end"),
            12 * 10000 + 34 * 100 + 0 * 10 + 5);
  EXPECT_TRUE(stillCalls(fn("f"), "put"));
  EXPECT_TRUE(stillCalls(fn("f"), "next"));
}

TEST_P(InlineRulesTest, CheapArgumentsAreSubstitutedInExpressionPosition) {
  EXPECT_EQ(runF("struct V { a: int; b: int }\n"
                 "terra dot(v: V, k: int64): int64 return v.a * k + v.b end\n"
                 "terra addr(v: &V): int return v.b end\n"
                 "terra f(): int\n"
                 "  var w = V { 3, 4 }\n"
                 "  var n = 5\n"
                 "  return dot(w, n) + addr(&w) + dot(w, 2)\n"
                 "end"),
            19 + 4 + 10);
  EXPECT_FALSE(stillCalls(fn("f"), "dot"));
  EXPECT_FALSE(stillCalls(fn("f"), "addr"));
}

INSTANTIATE_TEST_SUITE_P(Inline, InlineRulesTest,
                         ::testing::Values(Tier::Native, Tier::Baseline,
                                           Tier::VM, Tier::Tree),
                         [](const ::testing::TestParamInfo<Tier> &I) {
                           return std::string(tierName(I.param));
                         });

} // namespace
