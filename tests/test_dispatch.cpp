//===- test_dispatch.cpp - Engine settings and pre-native dispatch --------===//
//
// Covers where the compiler-free tiers decide (DESIGN.md §10):
//   * Engine::resolveSettings, the one place that reads the engine knobs:
//     environment × explicit overrides → settings, the conflicting
//     overrides terracpp rejects, and malformed values, which warn once
//     and fall back;
//   * the pre-native dispatcher, which picks the engine per activation: a
//     tree-walked caller's callees run on baseline code, tree-pinning
//     still tree-walks everything, and recursion that alternates between
//     tree-walked and compiled frames runs into the one depth budget;
//   * terracpp's --backend and --tier flags give the same result in
//     either order.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraBaselineJIT.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace terracpp;
using lua::Value;

namespace {

const char *const Knobs[] = {
    "TERRACPP_BACKEND",          "TERRACPP_JIT_TIER",
    "TERRACPP_INTERP",           "TERRACPP_JIT_BASELINE",
    "TERRACPP_TIER_CALL_THRESHOLD", "TERRACPP_TIER_BACKEDGE_THRESHOLD"};

/// Clears every engine knob for a scope, so a test sees only what it sets.
struct CleanEnv {
  std::vector<std::unique_ptr<ScopedUnsetEnv>> Unset;
  CleanEnv() {
    for (const char *K : Knobs)
      Unset.push_back(std::make_unique<ScopedUnsetEnv>(K));
  }
};

uint64_t counter(Engine &E, const char *Name) {
  return E.compiler().jit().metrics().counter(Name).value();
}

//===----------------------------------------------------------------------===//
// Settings resolution
//===----------------------------------------------------------------------===//

enum Want { N, I, CcN }; ///< Native, Interp, Native iff cc is on PATH.

struct Row {
  const char *Name;
  std::vector<std::pair<const char *, const char *>> Env;
  std::optional<BackendKind> Backend; ///< Override.
  const char *Tier;                   ///< Override; "" = none.
  Want Expect;   ///< The backend.
  bool Auto;     ///< TierPolicy::Auto (when the backend is Native).
  bool Baseline;
  bool TreeOnly;
};

const Row Rows[] = {
    {"nothing set", {}, {}, "", CcN, false, true, false},
    {"env tier 0", {{"TERRACPP_JIT_TIER", "0"}}, {}, "", I, false, false,
     false},
    {"env tier 1", {{"TERRACPP_JIT_TIER", "1"}}, {}, "", CcN, false, true,
     false},
    {"env tier auto", {{"TERRACPP_JIT_TIER", "auto"}}, {}, "", CcN, true, true,
     false},
    {"env backend interp", {{"TERRACPP_BACKEND", "interp"}}, {}, "", I, false,
     true, false},
    {"env backend native", {{"TERRACPP_BACKEND", "native"}}, {}, "", N, false,
     true, false},
    {"env backend native, tier auto",
     {{"TERRACPP_BACKEND", "native"}, {"TERRACPP_JIT_TIER", "auto"}},
     {}, "", N, true, true, false},
    {"env backend beats env tier 0",
     {{"TERRACPP_BACKEND", "native"}, {"TERRACPP_JIT_TIER", "0"}},
     {}, "", N, false, false, false},
    {"env tree pin keeps the baseline", {{"TERRACPP_INTERP", "tree"}}, {}, "",
     CcN, false, true, true},
    {"env baseline off", {{"TERRACPP_JIT_BASELINE", "0"}}, {}, "", CcN, false,
     false, false},
    {"override interp, env tier auto", {{"TERRACPP_JIT_TIER", "auto"}},
     BackendKind::Interp, "", I, false, true, false},
    {"override native, env tier 0", {{"TERRACPP_JIT_TIER", "0"}},
     BackendKind::Native, "", N, false, false, false},
    {"override tier 0", {}, {}, "0", I, false, false, false},
    {"override tier 1 beats env backend", {{"TERRACPP_BACKEND", "interp"}},
     {}, "1", CcN, false, true, false},
    {"override tier auto beats env tier 0", {{"TERRACPP_JIT_TIER", "0"}}, {},
     "auto", CcN, true, true, false},
    {"override interp + tier 0", {}, BackendKind::Interp, "0", I, false, false,
     false},
    {"override native + tier auto", {}, BackendKind::Native, "auto", N, true,
     true, false},
    {"malformed tier", {{"TERRACPP_JIT_TIER", "atuo"}}, {}, "", CcN, false,
     true, false},
    {"malformed backend", {{"TERRACPP_BACKEND", "interpp"}}, {}, "", CcN,
     false, true, false},
    {"malformed tree pin", {{"TERRACPP_INTERP", "trees"}}, {}, "", CcN, false,
     true, false},
    {"retired vm value", {{"TERRACPP_INTERP", "vm"}}, {}, "", CcN, false, true,
     false},
};

TEST(EngineSettings, ResolvesEnvironmentAndOverrides) {
  CleanEnv Clean;
  bool CC = Engine::resolveSettings().Backend == BackendKind::Native;
  for (const Row &R : Rows) {
    std::vector<std::unique_ptr<ScopedEnv>> Set;
    for (const auto &[K, V] : R.Env)
      Set.push_back(std::make_unique<ScopedEnv>(K, V));
    std::string Err;
    EngineSettings S = Engine::resolveSettings({R.Backend, R.Tier}, &Err);
    EXPECT_EQ(Err, "") << R.Name;
    BackendKind Want = R.Expect == I || (R.Expect == CcN && !CC)
                           ? BackendKind::Interp
                           : BackendKind::Native;
    EXPECT_EQ(S.Backend, Want) << R.Name;
    bool Auto = R.Auto && Want == BackendKind::Native;
    EXPECT_EQ(S.Tier == TierPolicy::Auto, Auto) << R.Name;
    EXPECT_EQ(S.Baseline, R.Baseline) << R.Name;
    EXPECT_EQ(S.TreeOnly, R.TreeOnly) << R.Name;
  }
}

TEST(EngineSettings, ThresholdsComeFromTheEnvironment) {
  CleanEnv Clean;
  EngineSettings D = Engine::resolveSettings();
  EXPECT_EQ(D.CallThreshold, 8u);
  EXPECT_EQ(D.BackEdgeThreshold, 4096u);
  ScopedEnv Calls("TERRACPP_TIER_CALL_THRESHOLD", "3");
  ScopedEnv Edges("TERRACPP_TIER_BACKEDGE_THRESHOLD", "8abc");
  EngineSettings S = Engine::resolveSettings();
  EXPECT_EQ(S.CallThreshold, 3u);
  EXPECT_EQ(S.BackEdgeThreshold, 4096u);
  // The Engine hands the resolved value down unchanged.
  Engine E(S);
  EXPECT_EQ(E.compiler().settings().CallThreshold, 3u);
}

TEST(EngineSettings, ConflictingOverridesAreRejected) {
  CleanEnv Clean;
  const std::pair<std::optional<BackendKind>, const char *> Bad[] = {
      {BackendKind::Interp, "1"},
      {BackendKind::Interp, "auto"},
      {BackendKind::Native, "0"},
      {std::nullopt, "2"}};
  for (const auto &[B, T] : Bad) {
    std::string Err;
    EngineSettings S = Engine::resolveSettings({B, T}, &Err);
    EXPECT_NE(Err, "") << T;
    // The environment alone decides what the caller gets back.
    EXPECT_EQ(S.Backend, Engine::defaultBackend()) << T;
  }
}

//===----------------------------------------------------------------------===//
// The dispatcher
//===----------------------------------------------------------------------===//

/// `apply` calls through a function pointer, so it has no bytecode and
/// tree-walks; `sq` is a loop, and the branch keeps `apply` a real call (the
/// midend inlines straight-line callees).
const char *ApplySrc = "terra sq(n: int): int\n"
                       "  var s = 0\n"
                       "  for i = 0, n do s = s + i end\n"
                       "  return s\n"
                       "end\n"
                       "terra apply(f: int -> int, x: int): int\n"
                       "  if x < 0 then return 0 end\n"
                       "  return f(x)\n"
                       "end\n"
                       "terra run(n: int): int return apply(sq, n) end";

TEST(Dispatch, TreeWalkedCallerRunsCalleeOnBaseline) {
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "the baseline JIT needs x86-64";
  CleanEnv Clean;
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(ApplySrc)) << E.errors();
  for (int K = 0; K != 20; ++K) {
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("run"), {Value::number(1000)}, R))
        << E.errors();
    EXPECT_EQ(R[0].asNumber(), 499500);
  }
  EXPECT_EQ(E.terraFunction("apply")->Bytecode, nullptr);
  // Only apply's own activations are tree-walked; sq left the tree.
  EXPECT_EQ(counter(E, "interp.tree_calls"), 20u);
  EXPECT_EQ(counter(E, "jit.baseline_functions"), 2u) << "run and sq";
  void *SqCode = E.terraFunction("sq")->BaselineEntry.load();
  EXPECT_NE(SqCode, nullptr);
}

TEST(Dispatch, TreePinRunsEveryActivationOnTree) {
  CleanEnv Clean;
  ScopedEnv Tree("TERRACPP_INTERP", "tree");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(ApplySrc)) << E.errors();
  for (int K = 0; K != 20; ++K) {
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("run"), {Value::number(100)}, R))
        << E.errors();
    EXPECT_EQ(R[0].asNumber(), 4950);
  }
  EXPECT_EQ(counter(E, "interp.tree_calls"), 60u) << "run, apply and sq";
  EXPECT_EQ(counter(E, "jit.baseline_functions"), 0u);
  EXPECT_EQ(E.compiler().lastCallTier(), 0);
}

TEST(Dispatch, AlternatingTreeAndBytecodeRecursionOverflows) {
  // down() calls back through a pointer, so it tree-walks; step() has
  // bytecode. Each level alternates between a tree-walked frame and a VM or
  // baseline frame, so only the one shared depth budget can stop it.
  const char *Src = "step = terralib.declare('step')\n"
                    "terra down(n: int): int\n"
                    "  if n == 0 then return 0 end\n"
                    "  var f: int -> int = step\n"
                    "  return f(n - 1) + 1\n"
                    "end\n"
                    "terra step(n: int): int\n"
                    "  if n == 0 then return 0 end\n"
                    "  return down(n - 1) + 1\n"
                    "end";
  for (const char *Base : {"1", "0"}) {
    CleanEnv Clean;
    ScopedEnv B("TERRACPP_JIT_BASELINE", Base);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src)) << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("down"), {Value::number(100)}, R))
        << E.errors();
    EXPECT_EQ(R[0].asNumber(), 100);
    R.clear();
    EXPECT_FALSE(E.call(E.global("down"), {Value::number(100000)}, R));
    EXPECT_NE(E.errors().find("terra call stack overflow"), std::string::npos)
        << "baseline=" << Base << ": " << E.errors();
    // The budget unwound completely: the engine keeps serving.
    R.clear();
    ASSERT_TRUE(E.call(E.global("step"), {Value::number(10)}, R))
        << E.errors();
    EXPECT_EQ(R[0].asNumber(), 10);
  }
}

//===----------------------------------------------------------------------===//
// terracpp flags
//===----------------------------------------------------------------------===//

#ifdef TERRACPP_CLI_BIN
/// Runs terracpp with \p Flags over a one-line chunk; returns its exit
/// status and appends its stderr to \p Log when given.
int cli(const std::string &Flags, std::string *Log = nullptr) {
  if (::access(TERRACPP_CLI_BIN, X_OK) != 0)
    return -2;
  std::string Cmd = std::string(TERRACPP_CLI_BIN) + " " + Flags +
                    " -e 'terra f(): int return 1 end f()' 2>&1 >/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[256];
  while (fgets(Buf, sizeof(Buf), P))
    if (Log)
      *Log += Buf;
  int St = pclose(P);
  return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
}

size_t occurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + 1))
    ++N;
  return N;
}

TEST(Cli, BackendAndTierFlagsAreOrderIndependent) {
  if (cli("--help") == -2)
    GTEST_SKIP() << "terracpp is not built";
  CleanEnv Clean;
  for (const char *Tier : {"1", "auto"}) {
    std::string T = std::string("--tier=") + Tier;
    EXPECT_EQ(cli("--backend=interp " + T), 2) << T;
    EXPECT_EQ(cli(T + " --backend=interp"), 2) << T;
  }
  EXPECT_EQ(cli("--backend=native --tier=0"), 2);
  EXPECT_EQ(cli("--tier=0 --backend=native"), 2);
  EXPECT_EQ(cli("--tier=2"), 2);
  EXPECT_EQ(cli("--backend=interp --tier=0"), 0);
  EXPECT_EQ(cli("--tier=0 --backend=interp"), 0);
}

TEST(EngineSettings, MalformedValuesWarnOnce) {
  if (cli("--help") == -2)
    GTEST_SKIP() << "terracpp is not built";
  CleanEnv Clean;
  ScopedEnv Tier("TERRACPP_JIT_TIER", "atuo");
  ScopedEnv Backend("TERRACPP_BACKEND", "interpp");
  ScopedEnv Interp("TERRACPP_INTERP", "trees");
  const char *Vars[] = {"TERRACPP_JIT_TIER", "TERRACPP_BACKEND",
                        "TERRACPP_INTERP"};
  // A fresh process warns about each variable once and still runs.
  std::string Log;
  EXPECT_EQ(cli("", &Log), 0) << Log;
  EXPECT_EQ(occurrences(Log, "env.invalid"), 3u) << Log;
  for (const char *Var : Vars)
    EXPECT_EQ(occurrences(Log, Var), 1u) << Log;
  // Resolving again in one process adds no second warning.
  testing::internal::CaptureStderr();
  Engine::resolveSettings();
  Engine::resolveSettings();
  std::string Again = testing::internal::GetCapturedStderr();
  for (const char *Var : Vars)
    EXPECT_LE(occurrences(Again, Var), 1u) << Again;
}
#endif

} // namespace
