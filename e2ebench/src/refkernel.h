#ifndef E2EBENCH_REFKERNEL_H_
#define E2EBENCH_REFKERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace e2ebench {

/// The reference time (median pass of one kernel run) on the host the
/// bounds in BENCHMARK.json were set on. Every time-based metric is scaled
/// by kRefNominalMs / (measured reference time), so its unit reads as
/// "milliseconds on the reference host" and host-speed drift cancels.
inline constexpr double kRefNominalMs = 7.0;

/// Share of reference timings that may be discarded as disturbed before
/// a run fails: beyond it the host is too busy for the numbers to mean
/// anything.
inline constexpr double kMaxDisturbedShare = 0.25;

/// CPU time of the whole process (all threads), user + sys, in ms.
double ProcessCpuMs();
/// CPU time of the calling thread, user + sys, in ms.
double ThreadCpuMs();

/// One timed reference run.
struct RefSample {
  double wall_ms = 0.0;        // median pass
  double self_cpu_ms = 0.0;    // RUSAGE_SELF delta (every thread)
  double thread_cpu_ms = 0.0;  // RUSAGE_THREAD delta (the kernel's thread)
  /// Another thread of the process burned CPU during the run, or the
  /// caller's idle probe reported a request in flight.
  bool disturbed = false;
};

/// A fixed, single-threaded CPU + memory kernel that touches none of
/// GEA. One pass is an xorshift fill and sort of 512 KiB of 64-bit keys,
/// then ordered-map inserts (about 6 ms); one run is 15 passes (about
/// 100 ms) and reports the median pass, so a preemption or a neighbour's
/// burst that hits a few passes does not move it. Passes rotate over
/// eight slices of a pre-touched 4 MiB pool: a single buffer would time
/// one physical placement, and its cache behaviour, for the whole
/// process, biasing every window of that process the same way.
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Runs the kernel once and times it. `idle` (optional) is asked before
  /// and after the run whether the program is idle; a false answer marks
  /// the sample disturbed.
  RefSample Run(const std::function<bool()>& idle = {});

  /// Order-sensitive digest of the last run's results, so the work cannot
  /// be optimized away and a broken kernel shows.
  uint64_t checksum() const { return checksum_; }

 private:
  /// Times one pass of the kernel over slice `slice` of the pool.
  double Pass(size_t slice);

  std::vector<uint64_t> pool_;
  std::map<uint64_t, uint32_t> map_;
  uint64_t checksum_ = 0;
};

/// True when the process burned more CPU than the kernel's own thread by
/// more than scheduler noise (2 ms or 5 %, whichever is larger).
bool OtherThreadsBusy(double self_cpu_ms, double thread_cpu_ms);

}  // namespace e2ebench

#endif  // E2EBENCH_REFKERNEL_H_
