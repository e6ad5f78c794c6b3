//===- test_vector.cpp - vector(T,N) on the bytecode tiers ----------------===//
//
// vector(T,N) code compiles to bytecode lane ops (DESIGN.md §10) and runs on
// the VM and the baseline JIT (§11), not on the tree-walker:
//   * lane ops agree bit for bit with the tree-walker across splat,
//     arithmetic, negation, casts, min/max, lane extract, vector parameters
//     and results, and loads and stores through vector pointers;
//   * an integer-lane division by zero traps with the same message and
//     source location on every interpreter tier;
//   * the paper's vector kernels (blocked DGEMM, Orion's vectorized diffuse
//     and area filter) match C loops with no tree-walker activation;
//   * bytecode.bailouts.* names why a function stays on the tree-walker.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "autotuner/Gemm.h"
#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraBytecode.h"
#include "core/TerraType.h"
#include "orion/Orion.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace terracpp;
using lua::Value;

namespace {

/// The interpreter tiers under differential test.
struct Tier {
  const char *Name;
  const char *Interp;   ///< TERRACPP_INTERP.
  const char *Baseline; ///< TERRACPP_JIT_BASELINE.
};

const Tier Tiers[] = {
    {"baseline", "", "1"}, {"vm", "", "0"}, {"tree", "tree", "0"}};

/// Pins one tier for the engines a scope constructs.
struct TierScope {
  explicit TierScope(const Tier &T)
      : NoTier("TERRACPP_JIT_TIER"), Interp("TERRACPP_INTERP", T.Interp),
        Base("TERRACPP_JIT_BASELINE", T.Baseline) {}
  ScopedUnsetEnv NoTier;
  ScopedEnv Interp;
  ScopedEnv Base;
};

uint64_t counter(Engine &E, const char *Name) {
  return E.compiler().jit().metrics().counter(Name).value();
}

uint64_t bits(double D) {
  uint64_t U;
  memcpy(&U, &D, 8);
  return U;
}

//===----------------------------------------------------------------------===//
// Lane-op corpus
//===----------------------------------------------------------------------===//

struct Program {
  const char *Name;
  const char *Src; ///< Defines terra `f(x: double): double`.
};

const Program Corpus[] = {
    {"f64_splat_arith",
     "terra f(x: double): double\n"
     "  var v: vector(double, 4) = x\n"
     "  var w: vector(double, 4) = 2.0\n"
     "  var u = v * w + v / w - [vector(double, 4)](0.25)\n"
     "  return u[0] + u[1] * 3 + u[2] + u[3]\n"
     "end"},
    {"f32x8_loop_neg",
     "terra f(x: double): double\n"
     "  var v: vector(float, 8) = [float](x)\n"
     "  var acc: vector(float, 8) = 0.1f\n"
     "  for i = 0, 7 do\n"
     "    acc = acc * 0.75f + v / 3.0f\n"
     "    v = -v + acc\n"
     "  end\n"
     "  var s: double = 0\n"
     "  for i = 0, 8 do s = s * 1.5 + acc[i] - v[i] end\n"
     "  return s\n"
     "end"},
    {"i32_divmod_cast",
     "terra f(x: double): double\n"
     "  var v: vector(int32, 4) = [int32](x * 100)\n"
     "  var d: vector(int32, 4) = -7\n"
     "  var q = v / d + v % 5 - -v * 3\n"
     "  var w = [vector(double, 4)](q) * 0.5\n"
     "  var back = [vector(int32, 4)](w)\n"
     "  return w[0] + w[3] + back[1] + q[2]\n"
     "end"},
    {"narrow_int_wrap",
     "terra f(x: double): double\n"
     "  var a: vector(int8, 16) = [int8](x * 10)\n"
     "  var b: vector(uint8, 16) = 200\n"
     "  var c: vector(uint16, 8) = 60000\n"
     "  for i = 0, 5 do\n"
     "    a = a * 7 + 100\n"
     "    b = b + [vector(uint8, 16)](a) / 3\n"
     "    c = c * 3 - 11\n"
     "  end\n"
     "  return a[0] + a[15] * 2 + b[3] + c[7] + [double](c[0] / 9)\n"
     "end"},
    {"i64_u64",
     "terra f(x: double): double\n"
     "  var a: vector(int64, 2) = [int64](x * 1000)\n"
     "  var b: vector(uint64, 2) = [uint64](x * 123456789) * 100\n"
     "  a = a * a - 77 + a / 3\n"
     "  b = b / [vector(uint64, 2)](a % 97 + 100) + b % 10\n"
     "  return [double](a[1] % 1000003) + [double](b[0] % 1000003)\n"
     "end"},
    {"pointer_loads_stores",
     "terra f(x: double): double\n"
     "  var a: float[16]\n"
     "  for i = 0, 16 do a[i] = [float](x) * i end\n"
     "  var p = [&vector(float, 4)](&a[4])\n"
     "  @p = @p * 2.0f + @[&vector(float, 4)](&a[0])\n"
     "  @[&vector(float, 4)](&a[6]) = @[&vector(float, 4)](&a[2]) - 1.0f\n"
     "  var s: double = 0\n"
     "  for i = 0, 16 do s = s * 1.25 + a[i] end\n"
     "  return s\n"
     "end"},
    {"params_results_rvalue_lane",
     "terra g(a: vector(float, 4), b: vector(float, 4)): vector(float, 4)\n"
     "  return a * b + a\n"
     "end\n"
     "terra f(x: double): double\n"
     "  var v: vector(float, 4) = [float](x)\n"
     "  var w = g(v, v + 1.0f)\n"
     "  return (w - v)[2] + g(w, w)[0]\n"
     "end"},
    {"aliasing",
     "terra bump(p: &vector(double, 4)): double\n"
     "  @p = @p * 10.0\n"
     "  return 1.0\n"
     "end\n"
     "terra f(x: double): double\n"
     "  var v: vector(double, 4) = x\n"
     "  v = v + v\n"
     "  var p = &v\n"
     "  v = @p * v\n"
     "  v = v + [vector(double, 4)](bump(&v))\n"
     "  return v[0] + v[3]\n"
     "end"},
    {"lane_compare_and_store",
     "terra f(x: double): double\n"
     "  var v: vector(double, 4) = x\n"
     "  var w: vector(double, 4) = 1.0\n"
     "  for i = 0, 4 do\n"
     "    w[i] = w[i] + i\n"
     "    if v[i] < w[i] then v[i] = w[i] * 2 end\n"
     "  end\n"
     "  return v[0] + v[1] * 10 + v[2] * 100 + v[3] * 1000\n"
     "end"},
};

class VectorParityTest : public ::testing::TestWithParam<int> {};

TEST_P(VectorParityTest, MatchesTreeWalker) {
  const Program &P = Corpus[GetParam()];
  uint64_t Results[3] = {};
  for (int I = 0; I != 3; ++I) {
    TierScope Scope(Tiers[I]);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(1.7)}, R))
        << Tiers[I].Name << ": " << E.errors();
    Results[I] = bits(R[0].asNumber());
    bool Tree = I == 2;
    // The bytecode tiers really ran the vector code.
    EXPECT_EQ(counter(E, "interp.tree_calls") == 0, !Tree) << Tiers[I].Name;
    EXPECT_EQ(counter(E, "bytecode.bailouts.vector"), 0u);
  }
  EXPECT_EQ(Results[1], Results[2]) << "vm vs tree: " << P.Name;
  EXPECT_EQ(Results[0], Results[2]) << "baseline vs tree: " << P.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, VectorParityTest,
    ::testing::Range(0, static_cast<int>(std::size(Corpus))),
    [](const ::testing::TestParamInfo<int> &Info) {
      return std::string(Corpus[Info.param].Name);
    });

/// Builder-level min/max on float lanes, NaN lanes included: every tier
/// picks `X < Y ? X : Y` (the second operand when either is NaN).
TEST(Vector, MinMaxLanesMatchTreeWalker) {
  uint64_t Results[3] = {};
  for (int I = 0; I != 3; ++I) {
    TierScope Scope(Tiers[I]);
    Engine E(BackendKind::Interp);
    stage::Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64(), *F32 = TC.float32();
    Type *V8 = TC.vector(F32, 8);
    TerraSymbol *X = B.sym(F64, "x");
    TerraSymbol *A = B.sym(V8, "a"), *N = B.sym(V8, "n");
    TerraSymbol *S = B.sym(F64, "s"), *K = B.sym(TC.int64(), "k");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.varDecl(A, B.cast(V8, B.var(X))));
    // n = a / 0: one NaN (0/0) lane is enough; here every lane is +-inf
    // or NaN depending on a.
    Body.push_back(B.varDecl(N, B.div(B.sub(B.var(A), B.var(A)),
                                      B.cast(V8, B.litFloat(0, F32)))));
    Body.push_back(B.assign(
        B.var(A), B.add(B.minExpr(B.var(N), B.var(A)),
                        B.maxExpr(B.var(A), B.mul(B.var(N), B.var(A))))));
    Body.push_back(B.varDecl(S, B.litFloat(0)));
    TerraExpr *Lane = B.index(B.var(A), B.var(K));
    // NaN lanes count as 1000 so the result stays comparable as a number.
    Body.push_back(B.forNum(
        K, B.litI64(0), B.litI64(8),
        B.block({B.ifStmt(B.ne(Lane, Lane),
                          B.block({B.assign(B.var(S),
                                            B.add(B.var(S),
                                                  B.litFloat(1000)))}),
                          B.block({B.assign(
                              B.var(S),
                              B.add(B.var(S),
                                    B.cast(F64, B.index(B.var(A),
                                                        B.var(K)))))}))})));
    Body.push_back(B.ret(B.var(S)));
    TerraFunction *F = B.function("f", {X}, F64, B.block(std::move(Body)));
    std::vector<Value> Args = {Value::number(2.5)}, R;
    ASSERT_TRUE(E.compiler().callFromHost(F, Args, R, SourceLoc()))
        << E.errors();
    Results[I] = bits(R[0].asNumber());
  }
  EXPECT_EQ(Results[1], Results[2]);
  EXPECT_EQ(Results[0], Results[2]);
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(Vector, IntegerLaneDivideByZeroTrapsIdentically) {
  const char *Src = "terra f(k: double): double\n"
                    "  var v: vector(int32, 4) = 12\n"
                    "  var d: vector(int32, 4) = [int32](k)\n"
                    "  d[2] = 3\n"
                    "  var q = v / d\n"
                    "  var r = v % d\n"
                    "  return q[0] + r[1]\n"
                    "end";
  std::string Errors[3];
  for (int I = 0; I != 3; ++I) {
    TierScope Scope(Tiers[I]);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src, "vtrap.t")) << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(5)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), 2 + 2);
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(0)}, R));
    Errors[I] = E.errors();
  }
  EXPECT_NE(Errors[2].find("vtrap.t:5:13: error: terra interpreter: integer "
                           "division by zero"),
            std::string::npos)
      << Errors[2];
  EXPECT_EQ(Errors[1], Errors[2]);
  EXPECT_EQ(Errors[0], Errors[2]);
}

//===----------------------------------------------------------------------===//
// The paper's vector kernels on a host with no C compiler
//===----------------------------------------------------------------------===//

float tap(const std::vector<float> &I, int64_t N, int64_t X, int64_t Y) {
  return X < 0 || X >= N || Y < 0 || Y >= N ? 0.0f : I[Y * N + X];
}

void diffuseRef(const std::vector<float> &X0, std::vector<float> &Out,
                int64_t N, int Iters, float A) {
  std::vector<float> Cur = X0, Next(N * N);
  for (int K = 0; K != Iters; ++K) {
    for (int64_t Y = 0; Y != N; ++Y)
      for (int64_t X = 0; X != N; ++X)
        Next[Y * N + X] =
            (tap(X0, N, X, Y) + A * (tap(Cur, N, X - 1, Y) +
                                     tap(Cur, N, X + 1, Y) +
                                     tap(Cur, N, X, Y - 1) +
                                     tap(Cur, N, X, Y + 1))) /
            (1 + 4 * A);
    std::swap(Cur, Next);
  }
  Out = Cur;
}

void areaRef(const std::vector<float> &In, std::vector<float> &Out,
             int64_t N) {
  std::vector<float> Tmp(N * N);
  for (int64_t Y = 0; Y != N; ++Y)
    for (int64_t X = 0; X != N; ++X) {
      float S = 0;
      for (int D = -2; D <= 2; ++D)
        S += tap(In, N, X, Y + D);
      Tmp[Y * N + X] = S / 5.0f;
    }
  for (int64_t Y = 0; Y != N; ++Y)
    for (int64_t X = 0; X != N; ++X) {
      float S = 0;
      for (int D = -2; D <= 2; ++D)
        S += tap(Tmp, N, X + D, Y);
      Out[Y * N + X] = S / 5.0f;
    }
}

TEST(Vector, NoCCKernelsNeverTreeWalk) {
  // The kernels stay on the bytecode tiers whatever the environment pins
  // (the CI runs this with and without the baseline JIT).
  ScopedUnsetEnv NoForce("TERRACPP_INTERP");
  {
    Engine E(BackendKind::Interp);
    autotuner::KernelParams P;
    P.NB = 64;
    P.RM = 4;
    P.RN = 2;
    P.V = 4;
    TerraFunction *F =
        autotuner::generateGemm(E, E.context().types().float64(), P);
    ASSERT_TRUE(F && E.compiler().ensureCompiled(F) && F->Entry)
        << E.errors();
    int64_t N = 64;
    std::vector<double> A(N * N), Bm(N * N), C(N * N, 0), Ref(N * N, 0);
    for (int64_t I = 0; I != N * N; ++I) {
      A[I] = (I * 7 % 13) / 8.0;
      Bm[I] = (I * 5 % 11) / 4.0 - 1;
    }
    const void *PA = A.data(), *PB = Bm.data();
    void *PC = C.data();
    void *Args[4] = {&PA, &PB, &PC, &N};
    F->Entry(Args, nullptr);
    for (int64_t I = 0; I != N; ++I)
      for (int64_t K = 0; K != N; ++K)
        for (int64_t J = 0; J != N; ++J)
          Ref[I * N + J] += A[I * N + K] * Bm[K * N + J];
    for (int64_t I = 0; I != N * N; ++I)
      ASSERT_NEAR(C[I], Ref[I], 1e-9) << "gemm element " << I;
    EXPECT_EQ(counter(E, "interp.tree_calls"), 0u);
    EXPECT_EQ(counter(E, "bytecode.bailouts.vector"), 0u);
  }
  int64_t N = 64;
  std::vector<float> In(N * N);
  for (int64_t I = 0; I != N * N; ++I)
    In[I] = static_cast<float>(I * 37 % 1000) / 1000.0f;
  for (bool Diffuse : {true, false}) {
    Engine E(BackendKind::Interp);
    orion::Pipeline P;
    if (Diffuse) {
      orion::Func X0 = P.input("x0"), Cur = X0;
      for (int I = 0; I != 10; ++I)
        Cur = P.define("d" + std::to_string(I),
                       (X0(0, 0) + orion::Expr(0.25f) *
                                       (Cur(-1, 0) + Cur(1, 0) + Cur(0, -1) +
                                        Cur(0, 1))) /
                           (1 + 4 * 0.25f));
      P.setOutput(Cur);
    } else {
      orion::Func Img = P.input("img");
      orion::Func BlurY = P.define(
          "blury", (Img(0, -2) + Img(0, -1) + Img(0, 0) + Img(0, 1) +
                    Img(0, 2)) /
                       5.0f);
      P.setOutput(P.define("blurx", (BlurY(-2, 0) + BlurY(-1, 0) +
                                     BlurY(0, 0) + BlurY(1, 0) +
                                     BlurY(2, 0)) /
                                        5.0f));
    }
    orion::CompiledPipeline CP = P.compile(E, {8});
    ASSERT_TRUE(CP.valid()) << E.errors();
    std::vector<float> Out(N * N), Ref(N * N);
    ASSERT_TRUE(CP.run({In.data()}, Out.data(), N, N)) << E.errors();
    if (Diffuse)
      diffuseRef(In, Ref, N, 10, 0.25f);
    else
      areaRef(In, Ref, N);
    for (int64_t I = 0; I != N * N; ++I)
      ASSERT_NEAR(Out[I], Ref[I], 1e-4)
          << (Diffuse ? "diffuse" : "area") << " pixel " << I;
    EXPECT_EQ(counter(E, "interp.tree_calls"), 0u);
    EXPECT_EQ(counter(E, "bytecode.bailouts.vector"), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Bailout accounting
//===----------------------------------------------------------------------===//

TEST(Vector, BailoutCountersNameTheReason) {
  ScopedUnsetEnv NoForce("TERRACPP_INTERP");
  Engine E(BackendKind::Interp);
  std::string Wide = "terra g(";
  std::string Call = "  return g(";
  for (int I = 0; I != 33; ++I) {
    Wide += (I ? ", a" : "a") + std::to_string(I) + ": int";
    Call += I ? ", n" : "n";
  }
  // The branch keeps g a real call (the midend inlines straight-line
  // callees).
  Wide += "): int if a0 < 0 then return 0 end return a0 + a32 end\n";
  ASSERT_TRUE(E.run("terra add1(x: int): int return x + 1 end\n"
                    "terra ind(n: int): int\n"
                    "  var fp: int -> int = add1\n"
                    "  return fp(n)\n"
                    "end\n" +
                    Wide + "terra wide(n: int): int\n" + Call +
                    ")\nend\n"
                    "terra vec(n: int): int\n"
                    "  var v: vector(int, 4) = n\n"
                    "  return (v * v)[3]\n"
                    "end"))
      << E.errors();
  for (const char *Fn : {"ind", "wide", "vec"}) {
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global(Fn), {Value::number(3)}, R)) << E.errors();
  }
  EXPECT_EQ(counter(E, "bytecode.bailouts.indirect_call"), 1u);
  // The 33-parameter callee and its 33-argument caller.
  EXPECT_EQ(counter(E, "bytecode.bailouts.wide_call"), 2u);
  EXPECT_EQ(counter(E, "bytecode.bailouts.vector"), 0u);
  EXPECT_EQ(counter(E, "bytecode.bailouts.other"), 0u);
  EXPECT_NE(E.terraFunction("vec")->Bytecode, nullptr);
  // ind, wide and g: each tree-walked function itself. add1, reached from
  // ind's tree-walked frame, has bytecode and leaves the tree.
  EXPECT_EQ(counter(E, "interp.tree_calls"), 3u);
}

} // namespace
