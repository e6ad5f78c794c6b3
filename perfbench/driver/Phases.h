//===- Phases.h - The three traffic phases of a perfbench run ---*- C++ -*-===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Common.h"

#include "support/Subprocess.h"

#include <string>
#include <vector>

namespace perfbench {

/// A terrafleet router over two spawned terrad shards sharing one private
/// cache dir, with the serve workload's handles compiled.
struct Fleet {
  terracpp::DaemonProcess Router;
  std::string Dir;       ///< Private dir: sockets and the shared cache.
  std::string Front;     ///< Router socket (relative to the run's cwd).
  std::string ShardStem; ///< Shard I listens on ShardStem + I.
  /// Handles of the serve functions: one tiny function every connection
  /// calls, one loop-heavy function and one tiny function per connection.
  std::string HotHandle, HeavyHandle, PrivateHandle[2];

  Fleet() = default;
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;
  ~Fleet() { stop(); }

  /// Router plus its spawned shards.
  std::vector<int> pids();
  /// SIGTERM, wait for the drain, then remove the private dir.
  void stop();
};

/// Set-up of one run: warms the host cc once, spawns the fleet and
/// pre-compiles the serve handles through it. \p Attempt names the private
/// directory, so repeated set-ups never share a cache.
bool setUp(const RunOptions &O, int Attempt, Fleet &F, std::string &Err);

std::unique_ptr<Phase> makeCompilePhase(const RunOptions &O, Report &R);
std::unique_ptr<Phase> makeServePhase(const RunOptions &O, Fleet &F,
                                      Report &R);
std::unique_ptr<Phase> makeKernelPhase(const RunOptions &O, Report &R);

/// Sum of Threads: over \p Pids, from /proc.
int threadCount(const std::vector<int> &Pids);
/// VmHWM of \p Pid in MiB (0 when unreadable).
double peakRssMb(int Pid);

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
