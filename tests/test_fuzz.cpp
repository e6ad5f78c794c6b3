//===- test_fuzz.cpp - Randomized differential backend testing ------------===//
//
// Property: for any well-typed Terra program, every execution engine — the
// native C backend, the baseline JIT, the tier-0 register-bytecode VM, and
// the tree-walking evaluator — computes the bit-identical result. This
// suite generates random (seeded, reproducible) programs — double
// arithmetic, comparisons, branches, bounded loops, assignments; integer
// division and shifts; vector(T,N) lane arithmetic; accessor helpers the
// midend inlines, next to the same program inlined by hand — runs them on
// all four engines, and compares. Value ranges are kept where no C
// undefined behavior (signed overflow) or fused multiply-add can make
// "disagreement" ambiguous.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraType.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

using namespace terracpp;
using lua::Value;

namespace {

/// Deterministic generator (SplitMix64).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  int range(int N) { return static_cast<int>(next() % N); }
  uint64_t State = 0;
  double small() {
    // Small doubles with exact binary representations keep both backends'
    // arithmetic bit-identical.
    static const double Pool[] = {0.0, 1.0,  2.0, 0.5,  -1.0,
                                  3.0, -0.25, 4.0, -2.0, 0.125};
    return Pool[range(10)];
  }
};

class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    std::ostringstream OS;
    OS << "terra f(x: double): double\n";
    OS << "  var a0: double = x\n"
       << "  var a1: double = x * 0.5\n"
       << "  var a2: double = 1.0\n"
       << "  var a3: double = -2.0\n";
    int NumStmts = 3 + R.range(6);
    for (int I = 0; I != NumStmts; ++I)
      OS << stmt(2, 1);
    OS << "  return a0 + a1 * 2.0 + a2 - a3\n";
    OS << "end\n";
    return OS.str();
  }

private:
  std::string var() { return "a" + std::to_string(R.range(4)); }

  std::string expr(int Depth) {
    if (Depth <= 0 || R.range(3) == 0) {
      switch (R.range(3)) {
      case 0:
        return var();
      case 1:
        return "x";
      default: {
        std::ostringstream OS;
        OS << R.small();
        std::string S = OS.str();
        if (S.find('.') == std::string::npos)
          S += ".0";
        return S;
      }
      }
    }
    static const char *Ops[] = {" + ", " - ", " * "};
    return "(" + expr(Depth - 1) + Ops[R.range(3)] + expr(Depth - 1) + ")";
  }

  std::string cond(int Depth) {
    static const char *Cmp[] = {" < ", " <= ", " > ", " >= ", " == ", " ~= "};
    return expr(Depth) + Cmp[R.range(6)] + expr(Depth);
  }

  std::string stmt(int Depth, int Indent) {
    std::string Pad(Indent * 2, ' ');
    switch (R.range(5)) {
    case 0:
    case 1:
      return Pad + var() + " = " + expr(Depth) + "\n";
    case 2: {
      std::string S = Pad + "if " + cond(Depth) + " then\n";
      S += stmt(Depth - 1, Indent + 1);
      if (R.range(2)) {
        S += Pad + "else\n";
        S += stmt(Depth - 1, Indent + 1);
      }
      S += Pad + "end\n";
      return S;
    }
    case 3: {
      int N = 1 + R.range(4);
      std::string S = Pad + "for k" + std::to_string(Counter++) +
                      " = 0, " + std::to_string(N) + " do\n";
      S += stmt(Depth - 1, Indent + 1);
      S += Pad + "end\n";
      return S;
    }
    default: {
      // Bounded damping keeps values finite across loops.
      return Pad + var() + " = " + var() + " * 0.5 + " + expr(Depth - 1) +
             "\n";
    }
    }
  }

  Rng R;
  int Counter = 0;
};

class FuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

/// The four execution engines under differential test.
struct EngineConfig {
  const char *Name;
  BackendKind Backend;
  const char *InterpMode; ///< TERRACPP_INTERP for the run; null = default.
  bool Baseline;          ///< Route through the baseline JIT (tier 0.5).
};

const EngineConfig Engines[] = {
    {"native", BackendKind::Native, nullptr, false},
    {"baseline", BackendKind::Interp, nullptr, true},
    {"vm", BackendKind::Interp, nullptr, false},
    {"tree", BackendKind::Interp, "tree", false},
};
constexpr int NumEngines = static_cast<int>(std::size(Engines));

TEST_P(FuzzDiffTest, BackendsAgree) {
  bool Native = Engine::defaultBackend() == BackendKind::Native;
  uint64_t Seed = GetParam();
  ProgramGen G(Seed);
  std::string Src = G.generate();

  double Results[NumEngines] = {0};
  bool Have[NumEngines] = {false};
  for (int I = 0; I != NumEngines; ++I) {
    const EngineConfig &C = Engines[I];
    if (C.Backend == BackendKind::Native && !Native)
      continue; // No C compiler: the interpreter tiers still differential.
    ScopedEnv Force("TERRACPP_INTERP", C.InterpMode ? C.InterpMode : "");
    ScopedEnv Base("TERRACPP_JIT_BASELINE", C.Baseline ? "1" : "0");
    Engine E(C.Backend);
    ASSERT_TRUE(E.run(Src, "fuzz")) << "seed " << Seed << "\n"
                                    << Src << "\n"
                                    << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(1.5)}, R))
        << "seed " << Seed << " engine " << C.Name << "\n"
        << Src << "\n"
        << E.errors();
    ASSERT_TRUE(R[0].isNumber());
    Results[I] = R[0].asNumber();
    Have[I] = true;
  }
  // The interpreter tiers always run.
  ASSERT_TRUE(Have[1] && Have[2] && Have[3]);
  ASSERT_FALSE(std::isnan(Results[2])) << Src;
  // Bit-identical across every engine pair that ran.
  EXPECT_EQ(Results[2], Results[3])
      << "vm vs tree, seed " << Seed << "\n" << Src;
  EXPECT_EQ(Results[1], Results[2])
      << "baseline vs vm, seed " << Seed << "\n" << Src;
  if (Have[0])
    EXPECT_EQ(Results[0], Results[2])
        << "native vs vm, seed " << Seed << "\n" << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 33));

//===----------------------------------------------------------------------===//
// Integer programs with constant-range divisors and shift amounts. The
// interval analysis proves most divisors nonzero / shift amounts in range
// and elides the corresponding trap guards, so this battery checks that
// guard elimination never changes a result: all four engines must stay
// bit-identical on division/modulo/shift-heavy integer code.
//===----------------------------------------------------------------------===//

class IntProgramGen {
public:
  explicit IntProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    std::ostringstream OS;
    OS << "terra f(x: int64): int64\n";
    OS << "  var b0: int64 = x\n"
       << "  var b1: int64 = x * 3 + 7\n"
       << "  var b2: int64 = 1000 - x\n"
       << "  var b3: int64 = 12345\n";
    int NumStmts = 4 + R.range(8);
    for (int I = 0; I != NumStmts; ++I)
      OS << stmt(1);
    // Damp once more so the checked result is far from 2^53.
    OS << "  return (b0 + b1 * 3 + b2 - b3) % 100003\n";
    OS << "end\n";
    return OS.str();
  }

private:
  std::string var() { return "b" + std::to_string(R.range(4)); }

  /// Every statement re-damps its target var with `% 100003`, so operands
  /// stay small enough that int64 arithmetic can never overflow (UB in the
  /// C backend would make disagreement ambiguous).
  std::string stmt(int Indent) {
    std::string Pad(Indent * 2, ' ');
    std::string V = var(), A = var(), B = var();
    switch (R.range(6)) {
    case 0:
      return Pad + V + " = (" + A + " + " + B + " * " +
             std::to_string(1 + R.range(9)) + ") % 100003\n";
    case 1: {
      // Divisor with a proven-nonzero constant range: A % k is in
      // [-(k-1), k-1], so + (k + m) keeps it positive. The analysis elides
      // the TrapIfZero for this site.
      int K = 2 + R.range(29);
      int M = 1 + R.range(50);
      return Pad + V + " = " + A + " / (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K + M) + ")\n";
    }
    case 2: {
      // Same shape for modulo.
      int K = 2 + R.range(13);
      return Pad + V + " = " + A + " % (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K + 1) + ")\n";
    }
    case 3: {
      // Shift amount in [K+1 - K, ...] = proven within [1, K+7] ⊂ [0, 63];
      // the shifted value is damped first so the result stays bounded.
      int K = 1 + R.range(7);
      return Pad + V + " = (" + A + " % 65536) << (" + B + " % " +
             std::to_string(K) + " + " + std::to_string(K) + ")\n";
    }
    case 4: {
      int K = 1 + R.range(15);
      return Pad + V + " = " + A + " >> (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K) + ")\n";
    }
    default: {
      // An unproven divisor (plain variable): the guard stays, and the
      // branch keeps the divisor nonzero at runtime on every engine.
      std::string S = Pad + "if " + A + " ~= 0 then\n";
      S += Pad + "  " + V + " = ((" + B + " * 5 - 11) / " + A +
           ") % 100003\n";
      S += Pad + "end\n";
      return S;
    }
    }
  }

  Rng R;
};

class IntFuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntFuzzDiffTest, BackendsAgreeOnGuardElidedCode) {
  bool Native = Engine::defaultBackend() == BackendKind::Native;
  uint64_t Seed = GetParam();
  IntProgramGen G(Seed);
  std::string Src = G.generate();

  double Results[NumEngines] = {0};
  bool Have[NumEngines] = {false};
  for (int I = 0; I != NumEngines; ++I) {
    const EngineConfig &C = Engines[I];
    if (C.Backend == BackendKind::Native && !Native)
      continue;
    ScopedEnv Force("TERRACPP_INTERP", C.InterpMode ? C.InterpMode : "");
    ScopedEnv Base("TERRACPP_JIT_BASELINE", C.Baseline ? "1" : "0");
    Engine E(C.Backend);
    E.compiler().setAnalyzeLints(true); // Feed RangeFacts to the backends.
    ASSERT_TRUE(E.run(Src, "intfuzz")) << "seed " << Seed << "\n"
                                       << Src << "\n"
                                       << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(271828)}, R))
        << "seed " << Seed << " engine " << C.Name << "\n"
        << Src << "\n"
        << E.errors();
    ASSERT_TRUE(R[0].isNumber());
    Results[I] = R[0].asNumber();
    Have[I] = true;
  }
  ASSERT_TRUE(Have[1] && Have[2] && Have[3]);
  EXPECT_EQ(Results[2], Results[3])
      << "vm vs tree, seed " << Seed << "\n" << Src;
  EXPECT_EQ(Results[1], Results[2])
      << "baseline vs vm, seed " << Seed << "\n" << Src;
  if (Have[0])
    EXPECT_EQ(Results[0], Results[2])
        << "native vs vm, seed " << Seed << "\n" << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntFuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// vector(float,8), vector(double,4) and vector(int32,4) programs: splat, lane
// arithmetic, min/max, negation, lane casts, lane extract/compare/store, and
// loads and stores through vector pointers. Built with stage::Builder, since
// min/max exist only as staged intrinsics. Float values stay small integers
// between statements (clamped with min/max; quotients truncated through an
// int32 lane cast), so every product is exact and the native build's fused
// multiply-adds cannot change a bit, and the result hashes every lane. Every fourth seed divides an int32
// vector by a zero lane: the interpreter tiers must trap identically.
//===----------------------------------------------------------------------===//

class VectorProgramGen {
public:
  VectorProgramGen(uint64_t Seed, stage::Builder &B)
      : R(Seed), B(B), TC(B.types()) {}

  /// Builds `f(x: double): double`; \p Traps tells whether it divides by a
  /// zero lane when called with x = 1.5.
  TerraFunction *generate(bool Traps) {
    Type *I32 = TC.int32();
    X = B.sym(TC.float64(), "x");
    K[F] = kind(TC.float32(), 8, 16, 32, false);
    K[D] = kind(TC.float64(), 4, 8, 2048, false);
    K[I] = kind(I32, 4, 8, 1009, true);
    Q8 = TC.vector(I32, 8);
    std::vector<TerraStmt *> Body;
    for (Kind &Kd : K) {
      // buf[k] = x * 2 + k - 4, then v = splat(x * 2): small integers.
      TerraSymbol *Ix = B.sym(TC.int64(), "k");
      TerraExpr *Init = B.add(B.mul(B.var(X), B.litFloat(2)),
                              B.sub(B.var(Ix), B.litI64(4)));
      Body.push_back(B.varDecl(Kd.Buf));
      Body.push_back(B.forNum(
          Ix, B.litI64(0), B.litI64(Kd.BufLen),
          B.block({B.assign(B.index(B.var(Kd.Buf), B.var(Ix)),
                            B.cast(Kd.Elem, Init))})));
      Body.push_back(B.varDecl(
          Kd.V, B.cast(Kd.Vec, B.cast(Kd.Elem, B.mul(B.var(X),
                                                      B.litFloat(2))))));
    }
    int N = 6 + R.range(8);
    int TrapAt = Traps ? R.range(N) : -1;
    for (int S = 0; S != N; ++S) {
      if (S == TrapAt)
        zeroLaneDivision(Body);
      Body.push_back(stmt(K[R.range(3)]));
    }
    // Hash every lane and buffer element (all small integers) so a change
    // in any one of them shows in the result.
    TerraSymbol *H = B.sym(TC.int64(), "h");
    Body.push_back(B.varDecl(H, B.litI64(0)));
    auto Fold = [&](TerraExpr *E) {
      Body.push_back(B.assign(
          B.var(H),
          B.mod(B.add(B.add(B.mul(B.var(H), B.litI64(31)),
                            B.cast(TC.int64(), E)),
                      B.litI64(4096)),
                B.litI64(1000000007))));
    };
    for (Kind &Kd : K) {
      for (int L = 0; L != Kd.Lanes; ++L)
        Fold(B.index(B.var(Kd.V), L));
      for (int L = 0; L != Kd.BufLen; ++L)
        Fold(B.index(B.var(Kd.Buf), L));
    }
    Body.push_back(B.ret(B.cast(TC.float64(), B.var(H))));
    return B.function("f", {X}, TC.float64(), B.block(std::move(Body)));
  }

  TerraSymbol *param() const { return X; }

private:
  struct Kind {
    Type *Elem, *Vec, *Ptr;
    TerraSymbol *V, *Buf;
    int Lanes, BufLen;
    int64_t Bound; ///< Values stay in [-Bound, Bound] between statements.
    bool Int;
  };
  enum { F, D, I };

  Kind kind(Type *Elem, int Lanes, int BufLen, int64_t Bound, bool Int) {
    Kind Kd;
    Kd.Elem = Elem;
    Kd.Vec = TC.vector(Elem, Lanes);
    Kd.Ptr = TC.pointer(Kd.Vec);
    Kd.V = B.sym(Kd.Vec, "v");
    Kd.Buf = B.sym(TC.array(Elem, BufLen), "buf");
    Kd.Lanes = Lanes;
    Kd.BufLen = BufLen;
    Kd.Bound = Bound;
    Kd.Int = Int;
    return Kd;
  }

  TerraExpr *lit(const Kind &Kd, int64_t V) {
    return Kd.Int ? B.litInt(V, Kd.Elem)
                  : B.litFloat(static_cast<double>(V), Kd.Elem);
  }
  TerraExpr *splat(const Kind &Kd, int64_t V) {
    return B.cast(Kd.Vec, lit(Kd, V));
  }
  TerraExpr *lane(const Kind &Kd, int L) { return B.index(B.var(Kd.V), L); }
  /// @[&vector](&buf[off]): a vector load or store through a cast pointer.
  TerraExpr *mem(const Kind &Kd) {
    int64_t Off = R.range(Kd.BufLen - Kd.Lanes + 1);
    return B.deref(B.cast(Kd.Ptr, B.addrOf(B.index(B.var(Kd.Buf), Off))));
  }

  /// Operands within Bound.
  TerraExpr *leaf(const Kind &Kd) {
    switch (R.range(4)) {
    case 0:
      return B.var(Kd.V);
    case 1:
      return splat(Kd, R.range(9) - 4);
    case 2:
      return mem(Kd);
    default:
      return B.cast(Kd.Vec, lane(Kd, R.range(Kd.Lanes)));
    }
  }
  /// Within Bound^2: one product of leaves at most.
  TerraExpr *term(const Kind &Kd) {
    switch (R.range(4)) {
    case 0:
      return leaf(Kd);
    case 1:
      return R.range(2) ? B.minExpr(leaf(Kd), leaf(Kd))
                        : B.maxExpr(leaf(Kd), leaf(Kd));
    case 2:
      return B.mul(leaf(Kd), leaf(Kd));
    default:
      return R.range(2) ? B.add(leaf(Kd), leaf(Kd)) : B.sub(leaf(Kd), leaf(Kd));
    }
  }
  TerraExpr *combine(const Kind &Kd) {
    TerraExpr *A = term(Kd), *C = term(Kd);
    switch (R.range(3)) {
    case 0:
      return B.add(A, C);
    case 1:
      return B.sub(A, C);
    default:
      return B.mul(A, C);
    }
  }
  /// Brings a value back within Bound: clamp floats, reduce integers.
  TerraExpr *fix(const Kind &Kd, TerraExpr *E) {
    if (Kd.Int)
      return B.mod(E, splat(Kd, Kd.Bound));
    return B.maxExpr(B.minExpr(E, splat(Kd, Kd.Bound)),
                     splat(Kd, -Kd.Bound));
  }

  TerraStmt *stmt(Kind &Kd) {
    switch (R.range(7)) {
    case 0:
    case 1:
      return B.assign(B.var(Kd.V), fix(Kd, combine(Kd)));
    case 2: {
      static const int Divs[] = {2, 3, -4, 5, 7};
      TerraExpr *Q = B.div(term(Kd), splat(Kd, Divs[R.range(5)]));
      if (Kd.Int)
        return B.assign(B.var(Kd.V), R.range(2) ? Q
                                                : B.mod(term(Kd),
                                                        splat(Kd, 3)));
      // Truncate the quotient to an integer through int32 lanes.
      Type *QT = Kd.Lanes == 8 ? Q8 : K[I].Vec;
      return B.assign(B.var(Kd.V), B.cast(Kd.Vec, B.cast(QT, fix(Kd, Q))));
    }
    case 3:
      return B.assign(mem(Kd), fix(Kd, term(Kd)));
    case 4:
      return B.assign(B.var(Kd.V), fix(Kd, B.neg(term(Kd))));
    case 5: {
      // Lane extract, scalar compare, lane store.
      int A = R.range(Kd.Lanes), C = R.range(Kd.Lanes);
      TerraExpr *V = B.maxExpr(
          B.minExpr(B.add(lane(Kd, C), lit(Kd, R.range(9) - 4)),
                    lit(Kd, Kd.Bound)),
          lit(Kd, -Kd.Bound));
      return B.ifStmt(B.lt(lane(Kd, A), lane(Kd, C)),
                      B.block({B.assign(lane(Kd, A), V)}));
    }
    default: {
      // Lane casts between kinds (all values are integers in range).
      if (&Kd == &K[F]) {
        TerraExpr *Ints = B.deref(B.cast(
            TC.pointer(Q8), B.addrOf(B.index(B.var(K[I].Buf), int64_t(0)))));
        return B.assign(B.var(Kd.V), fix(Kd, B.cast(Kd.Vec, Ints)));
      }
      Kind &Other = &Kd == &K[D] ? K[I] : K[D];
      return B.assign(B.var(Kd.V),
                      fix(Kd, B.cast(Kd.Vec, B.var(Other.V))));
    }
    }
  }

  /// dz = splat(3); dz[l] = int32(x * 2) - 3 (zero at x = 1.5); v = v / dz.
  void zeroLaneDivision(std::vector<TerraStmt *> &Body) {
    Kind &Kd = K[I];
    TerraSymbol *Dz = B.sym(Kd.Vec, "dz");
    Body.push_back(B.varDecl(Dz, splat(Kd, 3)));
    Body.push_back(B.assign(
        B.index(B.var(Dz), R.range(Kd.Lanes)),
        B.sub(B.cast(Kd.Elem, B.mul(B.var(X), B.litFloat(2))), lit(Kd, 3))));
    Body.push_back(B.assign(B.var(Kd.V), B.div(B.var(Kd.V), B.var(Dz))));
  }

  Rng R;
  stage::Builder &B;
  TypeContext &TC;
  TerraSymbol *X = nullptr;
  Kind K[3];
  Type *Q8 = nullptr;
};

class VectorFuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorFuzzDiffTest, BackendsAgree) {
  bool Native = Engine::defaultBackend() == BackendKind::Native;
  uint64_t Seed = GetParam();
  bool Traps = Seed % 4 == 0;
  uint64_t Results[NumEngines] = {0};
  std::string Errors[NumEngines];
  bool Have[NumEngines] = {false};
  for (int I = 0; I != NumEngines; ++I) {
    const EngineConfig &C = Engines[I];
    // Native code SIGFPEs on the zero lane (C semantics): no native run.
    if (C.Backend == BackendKind::Native && (!Native || Traps))
      continue;
    ScopedUnsetEnv NoTier("TERRACPP_JIT_TIER");
    ScopedEnv Force("TERRACPP_INTERP", C.InterpMode ? C.InterpMode : "");
    ScopedEnv Base("TERRACPP_JIT_BASELINE", C.Baseline ? "1" : "0");
    Engine E(C.Backend);
    stage::Builder B(E.context());
    TerraFunction *F = VectorProgramGen(Seed, B).generate(Traps);
    std::vector<Value> Args = {Value::number(1.5)}, R;
    bool OK = E.compiler().callFromHost(F, Args, R, SourceLoc());
    ASSERT_EQ(OK, !Traps) << "seed " << Seed << " engine " << C.Name << "\n"
                          << E.errors();
    if (OK) {
      double D = R[0].asNumber();
      memcpy(&Results[I], &D, 8);
    }
    Errors[I] = E.errors();
    Have[I] = true;
    if (C.Backend == BackendKind::Interp && !C.InterpMode)
      EXPECT_EQ(E.compiler().jit().metrics().counter("interp.tree_calls").value(),
                0u)
          << "seed " << Seed << ": vector code fell back to the tree-walker";
  }
  ASSERT_TRUE(Have[1] && Have[2] && Have[3]);
  // The same trap message (or none) and the same bits on every tier.
  EXPECT_EQ(Errors[2], Errors[3]) << "vm vs tree, seed " << Seed;
  EXPECT_EQ(Errors[1], Errors[2]) << "baseline vs vm, seed " << Seed;
  if (Traps)
    EXPECT_NE(Errors[3].find("integer division by zero"), std::string::npos)
        << Errors[3];
  EXPECT_EQ(Results[2], Results[3]) << "vm vs tree, seed " << Seed;
  EXPECT_EQ(Results[1], Results[2]) << "baseline vs vm, seed " << Seed;
  if (Have[0])
    EXPECT_EQ(Results[0], Results[2]) << "native vs vm, seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// Accessor programs: small getter/setter helpers over a struct pointer, an
// array pointer and scalars, called from loops and conditions. The midend
// inlines such helpers, so each program is also emitted with every helper
// call substituted by hand in the script text; both forms must agree on
// every engine. Some helpers are compiled before `f` (in a seeded order),
// so native `f` meets them already compiled: the case where a call would
// go through a baked address. Multiplications are by powers of two only,
// so the native build's fused multiply-adds cannot change a bit.
//===----------------------------------------------------------------------===//

class AccessorProgramGen {
public:
  explicit AccessorProgramGen(uint64_t Seed) : R(Seed) {}

  /// The program with helper calls, and the same program hand-inlined.
  struct Forms {
    std::string Calls, Hand;
  };

  Forms generate() {
    Forms Out;
    const std::string Helpers =
        "struct Acc { a: double; b: double; n: int }\n"
        "terra get_a(p: &Acc): double return p.a end\n"
        "terra get_b(p: &Acc): double return p.b end\n"
        "terra set_a(p: &Acc, v: double) p.a = v end\n"
        "terra set_b(p: &Acc, v: double) p.b = v end\n"
        "terra damp(x: double, k: double): double return x * 0.5 + k end\n"
        "terra step(p: &Acc, k: double)\n"
        "  var t = p.b\n"
        "  p.b = t * 0.5 + k\n"
        "  p.n = p.n + 1\n"
        "end\n"
        "terra swap(p: &Acc) var t = p.a p.a = p.b p.b = t end\n"
        "terra at(q: &double, i: int): double return q[i] end\n"
        "terra put(q: &double, i: int, v: double) q[i] = v end\n";
    Out.Calls = Helpers;
    Out.Hand = "struct Acc { a: double; b: double; n: int }\n";
    Forms Body;
    Body.Calls = Body.Hand = "terra f(x: double): double\n"
                             "  var s = Acc { x, 1.0, 0 }\n"
                             "  var p = &s\n"
                             "  var buf: double[4]\n"
                             "  buf[0] = x buf[1] = 0.5 buf[2] = -1.0 "
                             "buf[3] = 2.0\n"
                             "  var q: &double = &buf[0]\n"
                             "  var r = 0.0\n";
    int NumStmts = 4 + R.range(6);
    for (int I = 0; I != NumStmts; ++I)
      append(Body, stmt(1, ""));
    append(Body, same("  return s.a + s.b * 2.0 + r + [double](s.n) + "
                      "buf[0] + buf[1] * 4.0 + buf[2] + buf[3]\nend\n"));
    append(Out, Body);
    return Out;
  }

  /// Helpers to compile before `f`, in order.
  std::vector<std::string> precompiled() {
    static const char *Names[] = {"get_a", "get_b", "set_a", "set_b", "damp",
                                  "step",  "swap",  "at",    "put"};
    std::vector<std::string> Out;
    for (int I = 0, N = R.range(4); I != N; ++I)
      Out.push_back(Names[R.range(9)]);
    return Out;
  }

private:
  static Forms same(const std::string &S) { return {S, S}; }
  static void append(Forms &To, const Forms &F) {
    To.Calls += F.Calls;
    To.Hand += F.Hand;
  }
  static Forms join(std::initializer_list<Forms> Parts) {
    Forms Out;
    for (const Forms &P : Parts)
      append(Out, P);
    return Out;
  }

  /// `&s` or `p`: both name s; the hand form selects through either.
  Forms self() { return R.range(2) ? Forms{"&s", "s"} : Forms{"p", "p"}; }

  Forms get(const char *Field) {
    Forms P = self();
    return {std::string("get_") + Field + "(" + P.Calls + ")",
            P.Hand + "." + Field};
  }

  Forms lit() {
    std::ostringstream OS;
    OS << R.small();
    std::string S = OS.str();
    if (S.find('.') == std::string::npos)
      S += ".0";
    return same(S);
  }

  /// A double expression; \p K names an enclosing loop variable, if any.
  Forms expr(int Depth, const std::string &K) {
    if (Depth <= 0 || R.range(3) == 0) {
      switch (R.range(K.empty() ? 5 : 6)) {
      case 0:
        return same("x");
      case 1:
        return same("r");
      case 2:
        return get("a");
      case 3:
        return get("b");
      case 4:
        return lit();
      default:
        return {"at(q, " + K + ")", "q[" + K + "]"};
      }
    }
    Forms A = expr(Depth - 1, K), B = expr(Depth - 1, K);
    switch (R.range(3)) {
    case 0:
      return join({same("("), A, same(" + "), B, same(")")});
    case 1:
      return join({same("("), A, same(" - "), B, same(")")});
    default:
      return {"damp(" + A.Calls + ", " + B.Calls + ")",
              "((" + A.Hand + ") * 0.5 + (" + B.Hand + "))"};
    }
  }

  Forms stmt(int Indent, const std::string &K) {
    std::string Pad(Indent * 2, ' ');
    switch (R.range(K.empty() ? 7 : 8)) {
    case 0: {
      Forms E = expr(1, K);
      return {Pad + "set_a(&s, damp(get_a(p), " + E.Calls + "))\n",
              Pad + "s.a = ((p.a) * 0.5 + (" + E.Hand + "))\n"};
    }
    case 1: {
      Forms P = self(), E = expr(1, K);
      return {Pad + "set_b(" + P.Calls + ", " + E.Calls + " * 0.25)\n",
              Pad + P.Hand + ".b = " + E.Hand + " * 0.25\n"};
    }
    case 2: {
      Forms P = self(), E = expr(1, K);
      std::string T = "t" + std::to_string(Counter++);
      return {Pad + "step(" + P.Calls + ", " + E.Calls + ")\n",
              Pad + "do var " + T + " = " + P.Hand + ".b " + P.Hand +
                  ".b = " + T + " * 0.5 + (" + E.Hand + ") " + P.Hand +
                  ".n = " + P.Hand + ".n + 1 end\n"};
    }
    case 3: {
      std::string T = "t" + std::to_string(Counter++);
      return {Pad + "swap(p)\n", Pad + "do var " + T +
                                      " = p.a p.a = p.b p.b = " + T +
                                      " end\n"};
    }
    case 4: {
      Forms E = expr(1, K);
      return {Pad + "r = damp(r, " + E.Calls + ")\n",
              Pad + "r = ((r) * 0.5 + (" + E.Hand + "))\n"};
    }
    case 5: {
      Forms C = join({expr(0, K), same(" < "), expr(0, K)});
      Forms Then = stmt(Indent + 1, K);
      return join({same(Pad + "if "), C, same(" then\n"), Then,
                   same(Pad + "end\n")});
    }
    case 6: {
      std::string V = "k" + std::to_string(Counter++);
      Forms Body = stmt(Indent + 1, V);
      return join({same(Pad + "for " + V + " = 0, " +
                        std::to_string(1 + R.range(4)) + " do\n"),
                   Body, same(Pad + "end\n")});
    }
    default: {
      Forms E = expr(1, K);
      return {Pad + "put(q, " + K + ", damp(at(q, " + K + "), " + E.Calls +
                  "))\n",
              Pad + "q[" + K + "] = ((q[" + K + "]) * 0.5 + (" + E.Hand +
                  "))\n"};
    }
    }
  }

  Rng R;
  int Counter = 0;
};

class AccessorFuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccessorFuzzDiffTest, InlinedAndHandWrittenAgree) {
  bool Native = Engine::defaultBackend() == BackendKind::Native;
  uint64_t Seed = GetParam();
  AccessorProgramGen G(Seed);
  AccessorProgramGen::Forms Src = G.generate();
  std::vector<std::string> Early = G.precompiled();

  double Results[2][NumEngines] = {{0}};
  bool Have[NumEngines] = {false};
  for (int Form = 0; Form != 2; ++Form) {
    const std::string &Text = Form == 0 ? Src.Calls : Src.Hand;
    for (int I = 0; I != NumEngines; ++I) {
      const EngineConfig &C = Engines[I];
      if (C.Backend == BackendKind::Native && !Native)
        continue;
      ScopedUnsetEnv NoTier("TERRACPP_JIT_TIER");
      ScopedEnv Force("TERRACPP_INTERP", C.InterpMode ? C.InterpMode : "");
      ScopedEnv Base("TERRACPP_JIT_BASELINE", C.Baseline ? "1" : "0");
      Engine E(C.Backend);
      ASSERT_TRUE(E.run(Text, "accfuzz")) << "seed " << Seed << "\n"
                                          << Text << "\n"
                                          << E.errors();
      if (Form == 0)
        for (const std::string &H : Early)
          ASSERT_TRUE(E.compiler().ensureCompiled(E.terraFunction(H)))
              << H << "\n" << E.errors();
      std::vector<Value> R;
      ASSERT_TRUE(E.call(E.global("f"), {Value::number(1.5)}, R))
          << "seed " << Seed << " engine " << C.Name << "\n"
          << Text << "\n"
          << E.errors();
      ASSERT_TRUE(R[0].isNumber());
      // Every program holds call statements, which are always inlined.
      if (Form == 0)
        EXPECT_GE(E.compiler()
                      .jit()
                      .metrics()
                      .counter("midend.inlined_calls")
                      .value(),
                  1u);
      Results[Form][I] = R[0].asNumber();
      Have[I] = true;
    }
  }
  ASSERT_TRUE(Have[1] && Have[2] && Have[3]);
  ASSERT_FALSE(std::isnan(Results[1][2])) << Src.Hand;
  for (int I = 0; I != NumEngines; ++I) {
    if (!Have[I])
      continue;
    EXPECT_EQ(Results[0][I], Results[1][2])
        << "helpers on " << Engines[I].Name << " vs hand-inlined on vm, seed "
        << Seed << "\n" << Src.Calls << "\n" << Src.Hand;
    EXPECT_EQ(Results[1][I], Results[1][2])
        << "hand-inlined on " << Engines[I].Name << " vs vm, seed " << Seed
        << "\n" << Src.Hand;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessorFuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
