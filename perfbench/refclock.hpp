// CPU time at a reference speed.
//
// On a shared host the same code's CPU time moves with the host. On a
// 4-vCPU VM the timed workloads took 1.5-2.0x their quiet CPU time for over
// half an hour at a stretch, and two sets of ten runs of the same code
// spread 22-35% (IQR / median) in process CPU time. A fixed loop timed
// between the measured operations, on the same pinned vCPU, slows with them
// on average, so CPU seconds times kRefLoopSeconds / (the loop's CPU
// seconds) are CPU seconds at about the reference speed. In that slow
// period register-only arithmetic took 1.3x its quiet time and a walk over
// a buffer larger than the caches 1.6-2.1x; the workloads, which do both,
// lie in between, and so does the loop: about 30% of its quiet time is
// arithmetic and 70% the walk. It is the benchmark's own code, compiled
// with fixed flags (CMakeLists.txt), so no change to the library moves it.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Size of the loop's buffer, allocated on first use and kept: the process's
/// peak resident set includes it.
constexpr std::size_t kReferenceBufferMb = 64;

/// Thread-CPU seconds of one pass of the reference loop: 24M vector
/// multiply-adds in eight register chains, then four sweeps that read and
/// write one double in each 64-byte line of the buffer.
double reference_loop_seconds();

/// reference_loop_seconds() on the reference machine (4-vCPU Sapphire Rapids
/// VM, quiet host; 8 ms of arithmetic, 18 ms of sweeps). It only sets the
/// scale: both sides of a comparison divide by the same constant.
constexpr double kRefLoopSeconds = 0.026;

/// Times the reference loop between the operations of a timed loop.
class RefClock {
 public:
  /// Times one pass of the loop.
  void tick() { loops_.push_back(reference_loop_seconds()); }

  /// Reference seconds per CPU second by the mean loop. An operation much
  /// longer than a loop feels the host's average slowdown over its run, as
  /// the mean loop does.
  double scale_mean() const;

  /// Reference seconds per CPU second by the median loop, for the median
  /// of operations no longer than a loop.
  double scale_median() const;

  std::size_t ticks() const { return loops_.size(); }

 private:
  std::vector<double> loops_;
};

}  // namespace perfbench
