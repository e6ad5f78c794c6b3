//===- KernelPhase.cpp - The kernels phase --------------------------------===//
//
// Guest code does all the work: DGEMM with fixed KernelParams (no autotune
// search, so the generated code is the same on every run), the Orion
// diffuse and area pipelines, and a DataTable translate kernel in AoS and
// SoA layouts. Each runs on cc-native and on Engine(BackendKind::Interp),
// which is what a host without cc runs, at much smaller sizes.
//
// Outputs are compared with hand-written C references in this file. The
// same references give kern.*_vs_c, and small FMA-peak and STREAM-triad
// probes give the fraction-of-host figures.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "autotuner/Gemm.h"
#include "core/Engine.h"
#include "core/TerraType.h"
#include "layout/DataTable.h"
#include "orion/Orion.h"

#include <cmath>
#include <functional>
#include <memory>

using namespace perfbench;
using namespace terracpp;

namespace {

// Sizes: the no-cc engine is two to three orders of magnitude slower.
constexpr int64_t GemmN = 256, GemmNoCC = 64;
constexpr int64_t ImgN = 512, ImgNoCC = 64;
constexpr int64_t VertsN = 1 << 20, VertsNoCC = 1 << 13;
constexpr int DiffuseIters = 10;
constexpr float DiffA = 0.25f;
constexpr size_t NoCCTierCalls = 3;

// Tolerances of the output checks (relative, floor 1).
constexpr double GemmTol = 1e-9;   // double; summation order may differ
constexpr double OrionTol = 1e-4;  // float; FMA contraction may differ
constexpr double LayoutTol = 1e-6; // float; one add per element

bool close(double A, double B, double Tol) {
  return std::fabs(A - B) <= Tol * std::max(1.0, std::fabs(B));
}

//===--- C references ---------------------------------------------------===//

void gemmRef(const double *A, const double *B, double *C, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    for (int64_t K = 0; K < N; ++K) {
      double Av = A[I * N + K];
      for (int64_t J = 0; J < N; ++J)
        C[I * N + J] += Av * B[K * N + J];
    }
}

/// Zero boundary: taps outside the image read 0 (Orion's halo rule).
inline float tap(const float *I, int64_t X, int64_t Y, int64_t N) {
  return X < 0 || X >= N || Y < 0 || Y >= N ? 0.0f : I[Y * N + X];
}

void diffuseRef(const float *X0, float *Out, int64_t N) {
  std::vector<float> Cur(X0, X0 + N * N), Next(N * N);
  for (int K = 0; K != DiffuseIters; ++K) {
    for (int64_t Y = 0; Y < N; ++Y)
      for (int64_t X = 0; X < N; ++X)
        Next[Y * N + X] =
            (X0[Y * N + X] +
             DiffA * (tap(Cur.data(), X - 1, Y, N) +
                      tap(Cur.data(), X + 1, Y, N) +
                      tap(Cur.data(), X, Y - 1, N) +
                      tap(Cur.data(), X, Y + 1, N))) /
            (1 + 4 * DiffA);
    std::swap(Cur, Next);
  }
  std::copy(Cur.begin(), Cur.end(), Out);
}

void areaRef(const float *In, float *Out, int64_t N) {
  std::vector<float> T(N * N);
  for (int64_t Y = 0; Y < N; ++Y)
    for (int64_t X = 0; X < N; ++X)
      T[Y * N + X] = (tap(In, X, Y - 2, N) + tap(In, X, Y - 1, N) +
                      tap(In, X, Y, N) + tap(In, X, Y + 1, N) +
                      tap(In, X, Y + 2, N)) /
                     5.0f;
  const float *P = T.data();
  for (int64_t Y = 0; Y < N; ++Y)
    for (int64_t X = 0; X < N; ++X)
      Out[Y * N + X] = (tap(P, X - 2, Y, N) + tap(P, X - 1, Y, N) +
                        tap(P, X, Y, N) + tap(P, X + 1, Y, N) +
                        tap(P, X + 2, Y, N)) /
                       5.0f;
}

struct AosVert {
  float Px, Py, Pz, Nx, Ny, Nz;
};

void translateAosRef(AosVert *V, int64_t N, float Dx, float Dy, float Dz) {
  for (int64_t I = 0; I < N; ++I) {
    V[I].Px += Dx;
    V[I].Py += Dy;
    V[I].Pz += Dz;
  }
}

void translateSoaRef(float *Px, float *Py, float *Pz, int64_t N, float Dx,
                     float Dy, float Dz) {
  for (int64_t I = 0; I < N; ++I) {
    Px[I] += Dx;
    Py[I] += Dy;
    Pz[I] += Dz;
  }
}

/// Vertex positions both the Terra fill and the C reference start from.
float fillPos(int64_t I, int Axis) {
  return Axis == 0 ? static_cast<float>(I % 1024)
         : Axis == 1 ? static_cast<float>(I / 1024 % 1024)
                     : static_cast<float>(I * 7 % 97) * 0.01f;
}

//===--- Host probes ----------------------------------------------------===//

/// Double-precision multiply-add throughput of one core: independent
/// 512-bit accumulator chains, enough to cover the latency.
__attribute__((noinline)) double peakGflops() {
  typedef double V8 __attribute__((vector_size(64)));
  constexpr int Chains = 16;
  constexpr int64_t Iters = 1000000;
  double Best = 0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    V8 Acc[Chains];
    for (int C = 0; C != Chains; ++C)
      Acc[C] = V8{} + 1.0 + C * 1e-3;
    V8 Mul = V8{} + 0.999999999, Add = V8{} + 1e-9;
    double T0 = nowUs();
    for (int64_t I = 0; I != Iters; ++I)
      for (int C = 0; C != Chains; ++C)
        Acc[C] = Acc[C] * Mul + Add;
    double Us = nowUs() - T0;
    double Sink = 0;
    for (int C = 0; C != Chains; ++C)
      Sink += Acc[C][0];
    if (Sink == 42)
      fprintf(stderr, "?");
    Best = std::max(Best, 2.0 * 8 * Chains * Iters / (Us * 1e3));
  }
  return Best;
}

/// STREAM triad a = b + s*c, with a working set comparable to the Orion
/// images (bytes counted as STREAM does: two reads and one write).
__attribute__((noinline)) double triadGbs(int64_t N) {
  std::vector<double> A(N, 0.0), B(N, 1.0), C(N, 2.0);
  double Best = 0;
  for (int Rep = 0; Rep != 5; ++Rep) {
    double S = 0.5 + Rep * 1e-3;
    double T0 = nowUs();
    for (int64_t I = 0; I < N; ++I)
      A[I] = B[I] + S * C[I];
    double Us = nowUs() - T0;
    if (A[N / 2] == 42)
      fprintf(stderr, "?");
    Best = std::max(Best, 24.0 * N / (Us * 1e3));
  }
  return Best;
}

//===--- Kernels --------------------------------------------------------===//

/// One kernel instance on one engine: \p Run executes one call,
/// \p Check compares the output of a fresh call with the C reference.
struct Kernel {
  std::string Name;
  bool Native = true;
  Engine *Eng = nullptr;
  std::function<void()> Run;
  std::function<bool()> Check;
  std::function<void()> RunRef; ///< The C reference at the same size.
  double Flops = 0, Bytes = 0; ///< Per call, computed (gemm / Orion).
  Series Ms;
};

/// Engines (and buffers the kernels reach by raw address) kept alive for
/// the phase.
struct World {
  std::vector<std::unique_ptr<Engine>> Engines;
  std::vector<std::shared_ptr<void>> Keep;
  Engine &engine(bool Native) {
    Engines.push_back(std::make_unique<Engine>(
        Native ? BackendKind::Native : BackendKind::Interp));
    return *Engines.back();
  }
};

template <typename T> std::shared_ptr<std::vector<T>> buffer(int64_t N, T V) {
  return std::make_shared<std::vector<T>>(N, V);
}

std::vector<float> image(int64_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> I(N * N);
  for (float &X : I)
    X = static_cast<float>(R.below(1000)) / 1000.0f;
  return I;
}

bool makeGemm(World &W, bool Native, uint64_t Seed, bool Perturb,
              Kernel &K) {
  int64_t N = Native ? GemmN : GemmNoCC;
  Engine &E = W.engine(Native);
  autotuner::KernelParams P;
  P.NB = 64;
  P.RM = 4;
  P.RN = 2;
  P.V = 4;
  TerraFunction *F =
      autotuner::generateGemm(E, E.context().types().float64(), P);
  if (!F || !E.compiler().ensureCompiled(F) || !F->Entry)
    return false;
  auto A = buffer<double>(N * N, 0), B = buffer<double>(N * N, 0),
       C = buffer<double>(N * N, 0), Ref = buffer<double>(N * N, 0);
  Rng R(Seed);
  for (int64_t I = 0; I != N * N; ++I) {
    (*A)[I] = R.below(1000) / 1000.0;
    (*B)[I] = R.below(1000) / 1000.0;
  }
  auto Call = [F, A, B, C, N] {
    const void *PA = A->data(), *PB = B->data();
    void *PC = C->data();
    int64_t NN = N;
    void *Args[4] = {&PA, &PB, &PC, &NN};
    F->Entry(Args, nullptr);
  };
  K.Name = "gemm";
  K.Eng = &E;
  K.Native = Native;
  K.Run = Call;
  K.Flops = 2.0 * N * N * N;
  K.RunRef = [A, B, Ref, N] { gemmRef(A->data(), B->data(), Ref->data(), N); };
  K.Check = [=] {
    std::fill(C->begin(), C->end(), 0.0);
    std::fill(Ref->begin(), Ref->end(), 0.0);
    Call();
    gemmRef(A->data(), B->data(), Ref->data(), N);
    bool OK = true;
    for (int64_t I = 0; I != N * N; ++I)
      OK &= close((*C)[I], (*Ref)[I] + (Perturb && I == 0), GemmTol);
    return OK;
  };
  return true;
}

bool makeOrion(World &W, bool Native, bool Diffuse, uint64_t Seed,
               Kernel &K) {
  int64_t N = Native ? ImgN : ImgNoCC;
  Engine &E = W.engine(Native);
  orion::Pipeline P;
  if (Diffuse) {
    orion::Func X0 = P.input("x0");
    orion::Func Cur = X0;
    for (int I = 0; I != DiffuseIters; ++I) {
      char Name[16];
      snprintf(Name, sizeof(Name), "d%d", I);
      Cur = P.define(Name, (X0(0, 0) + orion::Expr(DiffA) *
                                            (Cur(-1, 0) + Cur(1, 0) +
                                             Cur(0, -1) + Cur(0, 1))) /
                               (1 + 4 * DiffA));
    }
    P.setOutput(Cur);
  } else {
    orion::Func In = P.input("img");
    orion::Func BlurY = P.define(
        "blury",
        (In(0, -2) + In(0, -1) + In(0, 0) + In(0, 1) + In(0, 2)) / 5.0f);
    orion::Func BlurX = P.define("blurx", (BlurY(-2, 0) + BlurY(-1, 0) +
                                           BlurY(0, 0) + BlurY(1, 0) +
                                           BlurY(2, 0)) /
                                              5.0f);
    P.setOutput(BlurX);
  }
  auto CP = std::make_shared<orion::CompiledPipeline>(P.compile(E, {8}));
  auto In = std::make_shared<std::vector<float>>(image(N, Seed));
  if (!CP->valid() || !CP->prepare({In->data()}, N, N))
    return false;
  K.Name = Diffuse ? "orion_diffuse" : "orion_area";
  K.Eng = &E;
  K.Native = Native;
  K.Run = [CP] { CP->runPrepared(); };
  // Bytes each stage must read and write once, as computed from the
  // pipeline (diffuse: x0 and the previous iterate in, one image out).
  K.Bytes = (Diffuse ? DiffuseIters * 3.0 : 2 * 2.0) * 4 * N * N;
  auto Ref = std::make_shared<std::vector<float>>(N * N);
  auto RunRef = [=] {
    Diffuse ? diffuseRef(In->data(), Ref->data(), N)
            : areaRef(In->data(), Ref->data(), N);
  };
  K.RunRef = RunRef;
  K.Check = [=] {
    std::vector<float> Out(N * N);
    if (!CP->runPrepared())
      return false;
    CP->readOutput(Out.data());
    RunRef();
    bool OK = true;
    for (int64_t I = 0; I != N * N; ++I)
      OK &= close(Out[I], (*Ref)[I], OrionTol);
    return OK;
  };
  return true;
}

bool makeLayout(World &W, bool Native, layout::LayoutKind L, Kernel &K) {
  int64_t N = Native ? VertsN : VertsNoCC;
  Engine &E = W.engine(Native);
  TypeContext &TC = E.context().types();
  Type *F32 = TC.float32();
  auto DT = std::make_shared<layout::DataTable>(
      E, "Verts",
      std::vector<std::pair<std::string, Type *>>{{"px", F32},
                                                  {"py", F32},
                                                  {"pz", F32},
                                                  {"nx", F32},
                                                  {"ny", F32},
                                                  {"nz", F32}},
      L);
  if (!DT->valid())
    return false;
  E.setGlobal("Verts", lua::Value::type(DT->type()));
  // The kernel is written once against the layout-independent accessors.
  bool OK = E.run(R"(
terra fill(t: &Verts)
  for i = 0, t.N do
    t:set_px(i, [float](i % 1024))
    t:set_py(i, [float](i / 1024 % 1024))
    t:set_pz(i, [float](i * 7 % 97) * 0.01f)
    t:set_nx(i, 0.0f)
    t:set_ny(i, 0.0f)
    t:set_nz(i, 0.0f)
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
                  "layout");
  TerraFunction *Init = DT->type()->methods()->getStr("init").asTerraFn();
  TerraFunction *Fill = OK ? E.terraFunction("fill") : nullptr;
  TerraFunction *Tr = OK ? E.terraFunction("translate") : nullptr;
  TerraFunction *Pos = OK ? E.terraFunction("pos") : nullptr;
  for (TerraFunction *F : {Init, Fill, Tr, Pos})
    if (!F || !E.compiler().ensureCompiled(F) || !F->Entry)
      return false;
  if (!E.compiler().typechecker().completeStruct(DT->type(), SourceLoc()))
    return false;
  auto Box = buffer<uint8_t>(DT->type()->size(), 0);
  // The kernels hold the container by address.
  W.Keep.insert(W.Keep.end(), {DT, Box});
  void *T = Box->data();
  {
    int64_t NN = N;
    void *Args[2] = {&T, &NN};
    Init->Entry(Args, nullptr);
    void *FArgs[1] = {&T};
    Fill->Entry(FArgs, nullptr);
  }
  auto Call = [Tr, T](float Dx, float Dy, float Dz) {
    void *PT = T;
    void *Args[4] = {&PT, &Dx, &Dy, &Dz};
    Tr->Entry(Args, nullptr);
  };
  bool AoS = L == layout::LayoutKind::AoS;
  K.Name = AoS ? "layout_aos" : "layout_soa";
  K.Eng = &E;
  K.Native = Native;
  K.Check = [=] {
    // Runs first, on freshly filled positions.
    Call(0.5f, -1.25f, 2.0f);
    bool Good = true;
    for (int64_t I = 0; I < N; I += 7)
      for (int Axis = 0; Axis != 3; ++Axis) {
        void *PT = T;
        int64_t II = I;
        int32_t A = Axis;
        float Got = 0;
        void *Args[3] = {&PT, &II, &A};
        Pos->Entry(Args, &Got);
        float D = Axis == 0 ? 0.5f : Axis == 1 ? -1.25f : 2.0f;
        Good &= close(Got, fillPos(I, Axis) + D, LayoutTol);
      }
    return Good;
  };
  K.Run = [Call] { Call(1e-3f, 2e-3f, -1e-3f); };
  if (AoS) {
    auto V = std::make_shared<std::vector<AosVert>>(N);
    K.RunRef = [V, N] { translateAosRef(V->data(), N, 1e-3f, 2e-3f, -1e-3f); };
  } else {
    auto V = std::make_shared<std::vector<float>>(3 * N);
    K.RunRef = [V, N] {
      translateSoaRef(V->data(), V->data() + N, V->data() + 2 * N, N, 1e-3f,
                      2e-3f, -1e-3f);
    };
  }
  return true;
}

double timeMs(const std::function<void()> &F) {
  double T0 = nowUs();
  F();
  return (nowUs() - T0) / 1000;
}

class KernelPhase final : public Phase {
public:
  KernelPhase(const RunOptions &O, Report &R);
  void slice(double DeadlineUs) override;
  void finish(const Quiet &) override;

private:
  const RunOptions &O;
  Report &R;
  World W;
  std::vector<Kernel> Ks;
  uint64_t ByBaseline = 0, ByVM = 0, ByTree = 0;
};

/// Builds every kernel on both engines (cc runs here, outside any slice)
/// and checks each one's output once.
KernelPhase::KernelPhase(const RunOptions &O, Report &R) : O(O), R(R) {
  const char *Names[] = {"gemm", "orion_diffuse", "orion_area", "layout_aos",
                         "layout_soa"};
  for (bool Native : {true, false})
    for (int I = 0; I != 5; ++I) {
      Kernel K;
      uint64_t Seed = O.Seed * 101 + I;
      bool Built = I == 0   ? makeGemm(W, Native, Seed, O.Perturb, K)
                   : I == 1 ? makeOrion(W, Native, true, Seed, K)
                   : I == 2 ? makeOrion(W, Native, false, Seed, K)
                   : I == 3 ? makeLayout(W, Native, layout::LayoutKind::AoS, K)
                            : makeLayout(W, Native, layout::LayoutKind::SoA, K);
      std::string What = std::string("kernel ") + Names[I] +
                         (Native ? " native" : " nocc");
      if (!Built) {
        R.check("kernels", false, What + ": build failed");
        continue;
      }
      R.check("kernels", K.Check(), What + ": output differs from C reference");
      Ks.push_back(std::move(K));
    }
}

/// Round-robin over every kernel, one timed call each.
void KernelPhase::slice(double DeadlineUs) {
  do
    for (Kernel &K : Ks) {
      // The no-cc tier mix covers the first NoCCTierCalls calls, so it
      // repeats. Only the baseline tier reports itself through
      // lastCallTier; the VM and the baseline record each dispatch in
      // vm.dispatch_us, and the tree-walker records nothing.
      if (K.Native || K.Ms.size() >= NoCCTierCalls) {
        K.Ms.add(timeMs(K.Run));
        continue;
      }
      TerraCompiler &TC = K.Eng->compiler();
      telemetry::Histogram &Dispatch =
          TC.jit().metrics().histogram("vm.dispatch_us");
      uint64_t Before = Dispatch.snapshot().Count;
      TC.noteLastCallTier(-1);
      K.Ms.add(timeMs(K.Run));
      ++(TC.lastCallTier() == 2                 ? ByBaseline
         : Dispatch.snapshot().Count != Before ? ByVM
                                                : ByTree);
    }
  while (nowUs() < DeadlineUs);
}

void KernelPhase::finish(const Quiet &) {
  std::vector<double> NativeMs, NoCCMs;
  for (Kernel &K : Ks)
    (K.Native ? NativeMs : NoCCMs).push_back(windowed(K.Ms, 50, 5));
  R.e2e("native_kernel_ms_geomean", "ms", geomean(NativeMs), "native",
        "tier1");
  R.e2e("nocc_kernel_ms_geomean", "ms", geomean(NoCCMs), "interp", "interp");
  if (!O.Traced)
    return;

  uint64_t Bailouts = 0;
  for (auto &E : W.Engines)
    if (E->compiler().backend() == BackendKind::Interp)
      Bailouts += E->compiler()
                      .jit()
                      .metrics()
                      .counter("jit.baseline_bailouts")
                      .value();
  const double Peak = peakGflops();
  const double Triad = triadGbs(ImgN * ImgN * 4);
  double OrionBytes = 0, OrionMs = 0;
  for (Kernel &K : Ks) {
    double Ms = median(K.Ms.values());
    R.layer("kern." + K.Name + (K.Native ? "_native_ms" : "_nocc_ms"), "ms",
            Ms, K.Native ? "native" : "interp", K.Native ? "tier1" : "interp");
    if (!K.Native)
      continue;
    std::vector<double> RefMs;
    for (int Rep = 0; Rep != 5; ++Rep)
      RefMs.push_back(timeMs(K.RunRef));
    R.layer("kern." + K.Name + "_vs_c", "ratio", median(RefMs) / Ms, "native",
            "tier1");
    if (K.Name == "gemm") {
      double Gflops = K.Flops / (Ms * 1e6);
      R.layer("kern.gemm_flops", "count", K.Flops, "native", "tier1", true);
      R.layer("kern.gemm_gflops", "GFLOP/s", Gflops, "native", "tier1");
      R.layer("kern.gemm_peak_frac", "ratio", Gflops / Peak, "native",
              "tier1");
    } else if (K.Name.rfind("orion", 0) == 0) {
      OrionBytes += K.Bytes;
      OrionMs += Ms;
    }
  }
  double OrionGbs = OrionBytes / (OrionMs * 1e6);
  R.layer("kern.orion_bytes", "bytes", OrionBytes, "native", "tier1", true);
  R.layer("kern.orion_gbs", "GB/s", OrionGbs, "native", "tier1");
  R.layer("kern.orion_bw_frac", "ratio", OrionGbs / Triad, "native", "tier1");
  R.layer("probe.peak_gflops", "GFLOP/s", Peak, "host", "n/a");
  R.layer("probe.triad_gbs", "GB/s", Triad, "host", "n/a");
  double Calls = static_cast<double>(ByBaseline + ByVM + ByTree);
  R.layer("tier.nocc_tier_mix.baseline", "share", ByBaseline / Calls, "interp",
          "interp", true);
  R.layer("tier.nocc_tier_mix.vm", "share", ByVM / Calls, "interp", "interp",
          true);
  R.layer("tier.nocc_tier_mix.tree", "share", ByTree / Calls, "interp",
          "interp", true);
  R.layer("jit.baseline_bailouts", "count", static_cast<double>(Bailouts),
          "interp", "interp", true);
}

} // namespace

std::unique_ptr<Phase> perfbench::makeKernelPhase(const RunOptions &O,
                                                  Report &R) {
  return std::make_unique<KernelPhase>(O, R);
}
