//===- TerraTier.cpp - Tiered execution state and promotion ---------------===//

#include "core/TerraTier.h"

#include "core/TerraJIT.h"
#include "support/ContentHash.h"
#include "support/Log.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>

namespace terracpp {

TierManager::TierManager(JITEngine &JIT, uint64_t CallThreshold,
                         uint64_t BackEdgeThreshold)
    : JIT(JIT), CallThreshold(CallThreshold),
      BackEdgeThreshold(BackEdgeThreshold),
      MPromotions(JIT.metrics().counter("tier.promotions")),
      MPromotionFailures(JIT.metrics().counter("tier.promotion_failures")),
      MTier0Calls(JIT.metrics().counter("tier.0.calls")),
      MTier1Calls(JIT.metrics().counter("tier.1.calls")),
      MBaselineCalls(JIT.metrics().counter("tier.baseline.calls")),
      MBacklog(JIT.metrics().gauge("tier.promotion_backlog")),
      MTier0Fns(JIT.metrics().gauge("tier.functions.tier0")),
      MPromotedFns(JIT.metrics().gauge("tier.functions.promoted")),
      MCcUnavailable(JIT.metrics().gauge("tier.cc_unavailable")) {}

TierManager::~TierManager() = default;

std::shared_ptr<PendingComponent>
TierManager::registerComponent(std::string CSource, bool Cacheable,
                               const std::vector<TerraFunction *> &Fns) {
  auto C = std::make_shared<PendingComponent>();
  C->CSource = std::move(CSource);
  C->Cacheable = Cacheable;
  {
    // Same derivation as terrad's script handles: the profile dump keys by
    // this hash so a persisted profile matches any engine that generates
    // byte-identical C for the component.
    ContentHash H;
    H.updateField(C->CSource);
    C->Hash = H.hex();
  }

  int64_t NewTier0 = 0;
  for (TerraFunction *F : Fns) {
    if (!F->Tier) {
      // A function compiled natively outside the tiering pipeline (e.g. a
      // baked-address module) keeps its direct entry.
      if (F->Entry)
        continue;
      F->Tier = std::make_shared<TierState>();
      ++NewTier0;
    } else if (F->Tier->NativeEntry.load(std::memory_order_relaxed)) {
      // Already promoted with an earlier component; keep the live code.
      continue;
    }
    PendingComponent::Slot S;
    S.Fn = F;
    S.TS = F->Tier;
    S.Symbol = F->mangledName();
    S.Name = F->Name;
    // Latest registration wins: counters accumulated so far now queue this
    // component, which re-emits any earlier, still-unpromoted siblings.
    std::atomic_store(&S.TS->Component, C);
    C->Slots.push_back(std::move(S));
  }

  {
    std::lock_guard<std::mutex> Lock(M);
    Components.push_back(C);
  }
  if (NewTier0)
    MTier0Fns.add(NewTier0);
  return C;
}

void TierManager::noteCall(TierState &TS, int Tier, uint64_t BackEdges) {
  (Tier == 2 ? MBaselineCalls : MTier0Calls).inc();
  bool Hot = TS.Calls.fetch_add(1, std::memory_order_relaxed) + 1 >=
             CallThreshold;
  if (BackEdges)
    Hot |= TS.BackEdges.fetch_add(BackEdges, std::memory_order_relaxed) +
               BackEdges >=
           BackEdgeThreshold;
  if (Hot)
    tryQueue(TS);
}

void TierManager::tryQueue(TierState &TS) {
  if (CcPinned.load(std::memory_order_relaxed))
    return; // No C compiler: stay at the current tier, don't retry.
  std::shared_ptr<PendingComponent> C = std::atomic_load(&TS.Component);
  if (!C)
    return;
  int Expected = PendingComponent::Idle;
  if (!C->St.compare_exchange_strong(Expected, PendingComponent::Queued,
                                     std::memory_order_acq_rel))
    return;
  MBacklog.add(1);
  TierManager *Self = this;
  worker().enqueue([Self, C] { Self->runJob(C); });
}

bool TierManager::forceNative(PendingComponent &C) {
  int St = C.St.load(std::memory_order_acquire);
  if (St == PendingComponent::Done)
    return true;
  if (St == PendingComponent::Failed)
    return false;

  int Expected = PendingComponent::Idle;
  if (C.St.compare_exchange_strong(Expected, PendingComponent::Queued,
                                   std::memory_order_acq_rel)) {
    // Not yet hot: compile inline on the caller's thread.
    MBacklog.add(1);
    std::shared_ptr<PendingComponent> Self;
    {
      std::lock_guard<std::mutex> Lock(M);
      for (const auto &P : Components)
        if (P.get() == &C) {
          Self = P;
          break;
        }
    }
    if (!Self) {
      // Unregistered component: cannot happen via TerraCompiler, but fail
      // closed rather than dereferencing a dangling pointer off-thread.
      MBacklog.add(-1);
      C.St.store(PendingComponent::Failed, std::memory_order_release);
      return false;
    }
    runJob(Self);
  } else {
    // A background job owns it; wait for the landing.
    std::unique_lock<std::mutex> Lock(C.M);
    C.CV.wait(Lock, [&C] {
      int S = C.St.load(std::memory_order_acquire);
      return S == PendingComponent::Done || S == PendingComponent::Failed;
    });
  }
  return C.St.load(std::memory_order_acquire) == PendingComponent::Done;
}

void TierManager::runJob(std::shared_ptr<PendingComponent> C) {
  trace::TraceSpan Span("tier.promote", "tier");
  Span.arg("functions", std::to_string(C->Slots.size()));

  std::vector<JITEngine::ResolvedFn> Out;
  std::string Err;
  bool OK = false;
  if (CcPinned.load(std::memory_order_relaxed)) {
    // The compiler binary is known to be missing; skip the spawn entirely.
    Err = "C compiler unavailable; function pinned at baseline tier";
  } else {
    std::vector<std::string> Syms;
    Syms.reserve(C->Slots.size());
    for (const PendingComponent::Slot &S : C->Slots)
      Syms.push_back(S.Symbol);
    OK = JIT.compileAndResolve(C->CSource, C->Cacheable, Syms, Out, Err);
    if (!OK && JIT.ccUnavailable()) {
      bool Expected = false;
      if (CcPinned.compare_exchange_strong(Expected, true,
                                           std::memory_order_relaxed)) {
        MCcUnavailable.set(1);
        logging::emit(logging::Level::Warn, "tier.cc_unavailable",
                      {{"detail", Err},
                       {"action", "pinning functions at baseline tier; "
                                  "background promotion disabled"}});
      }
    }
  }

  if (OK) {
    int64_t Promoted = 0;
    for (size_t I = 0; I != C->Slots.size(); ++I) {
      TierState &TS = *C->Slots[I].TS;
      if (TS.NativeEntry.load(std::memory_order_relaxed))
        continue; // promoted with an earlier component; keep the live code
      // Release order: a reader that acquires a non-null NativeEntry also
      // observes NativeRaw and the dlopen'd code it points into.
      TS.NativeRaw.store(Out[I].Raw, std::memory_order_release);
      TS.NativeEntry.store(Out[I].Entry, std::memory_order_release);
      ++Promoted;
    }
    MPromotions.inc();
    MPromotedFns.add(Promoted);
    MTier0Fns.add(-Promoted);
  } else {
    MPromotionFailures.inc();
  }
  MBacklog.add(-1);

  {
    std::lock_guard<std::mutex> Lock(C->M);
    if (!OK)
      C->Error = Err;
    C->St.store(OK ? PendingComponent::Done : PendingComponent::Failed,
                std::memory_order_release);
  }
  C->CV.notify_all();
}

ThreadPool &TierManager::worker() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Worker)
    Worker.reset(new ThreadPool(1));
  return *Worker;
}

TierManager::Snapshot TierManager::snapshot() const {
  Snapshot S;
  S.Tier0Functions =
      static_cast<uint64_t>(std::max<int64_t>(0, MTier0Fns.value()));
  S.PromotedFunctions =
      static_cast<uint64_t>(std::max<int64_t>(0, MPromotedFns.value()));
  S.PromotionBacklog =
      static_cast<uint64_t>(std::max<int64_t>(0, MBacklog.value()));
  S.Promotions = MPromotions.value();
  S.PromotionFailures = MPromotionFailures.value();
  S.Tier0Calls = MTier0Calls.value();
  S.Tier1Calls = MTier1Calls.value();
  S.BaselineCalls = MBaselineCalls.value();
  S.CcUnavailable = CcPinned.load(std::memory_order_relaxed) ? 1 : 0;
  return S;
}

json::Value TierManager::profileJson() const {
  std::vector<std::shared_ptr<PendingComponent>> Cs;
  {
    std::lock_guard<std::mutex> Lock(M);
    Cs = Components;
  }
  json::Value Out = json::Value::object();
  for (const auto &C : Cs) {
    json::Value Fns = json::Value::object();
    for (const PendingComponent::Slot &S : C->Slots) {
      uint64_t Calls = S.TS->Calls.load(std::memory_order_relaxed);
      uint64_t BackEdges = S.TS->BackEdges.load(std::memory_order_relaxed);
      // Resident tier, best first: cc-native wins over a published
      // baseline body; the (void *)1 bailout sentinel is not callable
      // code, so it still counts as tier 0.
      int Tier = 0;
      if (S.TS->NativeEntry.load(std::memory_order_acquire)) {
        Tier = 1;
      } else if (S.Fn) {
        void *B = S.Fn->BaselineEntry.load(std::memory_order_acquire);
        if (B && B != reinterpret_cast<void *>(1))
          Tier = 2;
      }
      json::Value F = json::Value::object();
      F.set("name", json::Value::string(S.Name));
      F.set("calls", json::Value::number(static_cast<double>(Calls)));
      F.set("backedges",
            json::Value::number(static_cast<double>(BackEdges)));
      F.set("tier", json::Value::number(Tier));
      Fns.set(S.Symbol, std::move(F));
      // Mirror into the engine registry so metrics/metrics_text expose the
      // same per-function numbers without a second collection pass.
      const std::string P = "profile.fn." + S.Symbol;
      JIT.metrics().gauge(P + ".calls").set(static_cast<int64_t>(Calls));
      JIT.metrics().gauge(P + ".backedges")
          .set(static_cast<int64_t>(BackEdges));
      JIT.metrics().gauge(P + ".tier").set(Tier);
    }
    json::Value CJ = json::Value::object();
    CJ.set("cacheable", json::Value::boolean(C->Cacheable));
    CJ.set("functions", std::move(Fns));
    Out.set(C->Hash, std::move(CJ));
  }
  return Out;
}

} // namespace terracpp
