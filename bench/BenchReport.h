//===- BenchReport.h - Machine-readable benchmark reports ------*- C++ -*-===//
//
// Assembles the perf-trajectory files (BENCH_compile.json,
// BENCH_gemm.json, ...) written next to the benchmark binaries. A thin
// layer over support/Json, which escapes strings and formats numbers, so a
// report is valid JSON whatever its keys and values hold.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_BENCH_BENCHREPORT_H
#define TERRACPP_BENCH_BENCHREPORT_H

#include "support/Json.h"

#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace benchreport {

class Json {
  using Value = terracpp::json::Value;

public:
  Json &put(const std::string &Key, double V) {
    return set(Key, Value::number(V));
  }
  Json &put(const std::string &Key, unsigned V) {
    return set(Key, Value::number(V));
  }
  Json &put(const std::string &Key, int V) {
    return set(Key, Value::number(V));
  }
  Json &put(const std::string &Key, bool V) {
    return set(Key, Value::boolean(V));
  }
  Json &put(const std::string &Key, const std::string &V) {
    return set(Key, Value::string(V));
  }
  Json &put(const std::string &Key, const Json &Nested) {
    return set(Key, Nested.Obj);
  }
  Json &put(const std::string &Key, const std::vector<Json> &Arr) {
    Value A = Value::array();
    for (const Json &J : Arr)
      A.push(J.Obj);
    return set(Key, std::move(A));
  }
  /// Splices in a value already serialized as JSON (e.g. a telemetry
  /// registry snapshot's dump()); one that does not parse becomes null.
  Json &putRaw(const std::string &Key, const std::string &RawJson) {
    Value V;
    std::string Err;
    if (!terracpp::json::parse(RawJson, V, Err))
      V = Value();
    return set(Key, std::move(V));
  }

  std::string str() const { return Obj.dump(); }

  bool writeTo(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::trunc);
    if (!Out)
      return false;
    Out << str() << "\n";
    return static_cast<bool>(Out);
  }

private:
  Json &set(const std::string &Key, Value V) {
    Obj.set(Key, std::move(V));
    return *this;
  }
  Value Obj = Value::object();
};

/// Stamps every report with the host's parallelism so trajectory numbers
/// are never compared across incomparable machines unknowingly: a "parallel
/// speedup" of 1.0 on a single-core CI runner is expected, not a
/// regression. \p PoolSize is the worker-pool size the benchmark actually
/// used (0 = no pool involved).
inline Json &addHostInfo(Json &Report, unsigned PoolSize = 0) {
  unsigned HW = std::thread::hardware_concurrency();
  Report.put("hardware_concurrency", HW);
  Report.put("pool_size", PoolSize);
  Report.put("single_core_host", HW <= 1);
  return Report;
}

} // namespace benchreport

#endif // TERRACPP_BENCH_BENCHREPORT_H
