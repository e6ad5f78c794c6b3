//===- Common.h - Shared plumbing of the perfbench driver -------*- C++ -*-===//
//
// Clock, seeded RNG, sample statistics and the report every phase writes
// into. A phase records end-to-end metrics (printed by an untraced run) and
// per-layer metrics (printed by a traced run); counts that must repeat
// exactly for a given seed are marked Count, everything else Timing.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t S;
};

/// Reported for a statistic of no samples. It is not finite, so the run
/// that reports it is not correct.
constexpr double NoSamples = std::numeric_limits<double>::quiet_NaN();

/// Percentile by linear interpolation between closest ranks.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return NoSamples;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50);
}

inline double geomean(const std::vector<double> &V) {
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return V.empty() ? NoSamples : std::exp(L / V.size());
}

/// Time-stamped samples of one timing.
struct Series {
  std::vector<std::pair<double, double>> S; ///< (nowUs() when taken, value)
  void add(double V) { S.emplace_back(nowUs(), V); }
  size_t size() const { return S.size(); }
  std::vector<double> values() const {
    std::vector<double> V;
    for (const auto &P : S)
      V.push_back(P.second);
    return V;
  }
};

/// Percentile \p P of \p X over time windows: samples are cut, in time
/// order, into windows spanning at least 5 s and holding at least
/// \p MinSamples each, and the result is percentile \p Across of the
/// windows' values (the median by default).
inline double windowed(const Series &X, double P, size_t MinSamples,
                       double Across = 50) {
  constexpr double SpanUs = 5e6;
  if (X.S.empty())
    return NoSamples;
  std::vector<std::vector<double>> Windows(1);
  double Begin = X.S.front().first;
  for (const auto &[T, V] : X.S) {
    if (Windows.back().size() >= MinSamples && T - Begin >= SpanUs) {
      Windows.emplace_back();
      Begin = T;
    }
    Windows.back().push_back(V);
  }
  // A short tail joins the window before it rather than standing alone.
  if (Windows.size() > 1 && Windows.back().size() < MinSamples) {
    std::vector<double> Tail = std::move(Windows.back());
    Windows.pop_back();
    Windows.back().insert(Windows.back().end(), Tail.begin(), Tail.end());
  }
  std::vector<double> Values;
  for (const std::vector<double> &W : Windows)
    Values.push_back(percentile(W, P));
  return percentile(Values, Across);
}

/// Samples taken in blocks of like composition: a block of compile ops
/// holds one script of each size band, so blocks compare like with like
/// whatever the seed, where a time window holds whichever sizes fell in it.
struct Blocks {
  std::vector<std::vector<double>> B;
  void open() { B.emplace_back(); }
  void add(double V) {
    if (B.empty())
      open();
    B.back().push_back(V);
  }
  std::vector<double> values() const {
    std::vector<double> V;
    for (const std::vector<double> &Blk : B)
      V.insert(V.end(), Blk.begin(), Blk.end());
    return V;
  }
};

/// Percentile \p P within each block of at least \p Full samples, then the
/// median over those blocks. The run's last block, cut short, is left out
/// unless no block is full.
inline double blocked(const Blocks &X, double P, size_t Full) {
  std::vector<double> Values, Short;
  for (const std::vector<double> &Blk : X.B)
    if (!Blk.empty())
      (Blk.size() >= Full ? Values : Short).push_back(percentile(Blk, P));
  return median(Values.empty() ? Short : Values);
}

/// The time spans of a phase's quiet slices: those in which the host's
/// hypervisor stole no more CPU time than in the phase's median slice.
/// Latency across processes rises with the share stolen, and that share
/// changes from second to second with other tenants' load. The choice is
/// made on the host's counter, never on the measured values, so a slower
/// program is slower in the quiet slices too.
class Quiet {
public:
  /// Spans are added in time order.
  void add(double BeginUs, double EndUs) {
    Spans.emplace_back(BeginUs, EndUs);
  }
  bool at(double T) const {
    auto It = std::upper_bound(Spans.begin(), Spans.end(), T,
                               [](double X, const std::pair<double, double> &S) {
                                 return X < S.first;
                               });
    return It != Spans.begin() && T <= std::prev(It)->second;
  }

private:
  std::vector<std::pair<double, double>> Spans;
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  bool Count = false;       ///< Exact-repeat class (else timing class).
  std::string Backend;      ///< "native", "interp", "fleet", "host".
  std::string TierPolicy;   ///< "tier1", "auto", "interp", "n/a".
};

/// Checked operations of one phase.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Everything one run measures. Attempted/Failed count operations whose
/// output was checked: a wrong result, an error, a rejection or a timeout
/// is a failure, and a run with any failure is not correct.
struct Report {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Tally> ByPhase;
  std::vector<std::string> FailureNotes; ///< First few, for stderr.

  void e2e(std::string Name, std::string Unit, double V, std::string Backend,
           std::string Tier) {
    EndToEnd.push_back({std::move(Name), std::move(Unit), V, false,
                        std::move(Backend), std::move(Tier)});
  }
  void layer(std::string Name, std::string Unit, double V, std::string Backend,
             std::string Tier, bool Count = false) {
    Layer.push_back({std::move(Name), std::move(Unit), V, Count,
                     std::move(Backend), std::move(Tier)});
  }
  /// An end-to-end timing: percentile \p P of the samples of \p X taken
  /// in the phase's quiet slices, plus the same percentile over all of its
  /// samples as the per-layer metric "pooled.<Name>".
  void timing(const std::string &Name, const std::string &Unit,
              const Series &X, double P, const Quiet &Q,
              const std::string &Backend, const std::string &Tier) {
    std::vector<double> In;
    for (const auto &[T, V] : X.S)
      if (Q.at(T))
        In.push_back(V);
    e2e(Name, Unit, percentile(In, P), Backend, Tier);
    layer("pooled." + Name, Unit, percentile(X.values(), P), Backend, Tier);
  }
  /// The same for a timing taken in blocks: blocked() end to end, the
  /// pooled percentile per layer.
  void timing(const std::string &Name, const std::string &Unit,
              const Blocks &X, double P, size_t Full,
              const std::string &Backend, const std::string &Tier) {
    e2e(Name, Unit, blocked(X, P, Full), Backend, Tier);
    layer("pooled." + Name, Unit, percentile(X.values(), P), Backend, Tier);
  }
  /// Records \p N checked operations of \p Phase, \p Bad of them failed.
  void count(const std::string &Phase, uint64_t N, uint64_t Bad) {
    Attempted += N;
    Failed += Bad;
    Tally &T = ByPhase[Phase];
    T.Attempted += N;
    T.Failed += Bad;
  }
  /// Records one checked operation.
  void check(const std::string &Phase, bool OK, const std::string &What) {
    count(Phase, 1, OK ? 0 : 1);
    if (!OK && FailureNotes.size() < 8)
      FailureNotes.push_back(What);
  }
  /// The lowest share of good operations over the phases, so failures in a
  /// phase with few operations are not diluted by the others.
  double okShare() const {
    double Share = NoSamples;
    for (const auto &[Phase, T] : ByPhase) {
      double S = T.Attempted ? static_cast<double>(T.Attempted - T.Failed) /
                                   T.Attempted
                             : 0;
      Share = std::isnan(Share) ? S : std::min(Share, S);
    }
    return Share;
  }
};

/// Options shared by every phase.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Self-check: every phase flips one expected value so the output checks
  /// must report a failure.
  bool Perturb = false;
  std::string RunDir;    ///< Private scratch dir of this run (absolute).
  std::string RunDirRel; ///< The same, relative to the working directory.
  std::string BinDir;    ///< Where terrad / terrafleet were built.
};

/// One kind of traffic. A run interleaves the three phases in short slices
/// until --seconds are spent, so every phase's samples span the whole run
/// (the host's speed drifts over seconds).
class Phase {
public:
  virtual ~Phase() = default;
  /// Runs this phase's traffic until \p DeadlineUs (at least one op).
  virtual void slice(double DeadlineUs) = 0;
  /// Reports this phase's metrics (and runs traced-only probes); \p Q holds
  /// this phase's quiet slices.
  virtual void finish(const Quiet &Q) = 0;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
