#ifndef E2EBENCH_MEASURE_H_
#define E2EBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One measurement window: the reference timing taken just before it and
/// the raw figures of the operations that ran inside it.
struct Window {
  double ref_ms = 0.0;        // reference-kernel wall time before the window
  double ref_after_ms = 0.0;  // and after it
  double wall_ms = 0.0;  // time the window measured
  double cpu_ms = 0.0;   // process user+sys CPU spent in the window
  uint64_t ops = 0;
  std::vector<double> latencies_ms;  // raw, one per operation

  /// kRefNominalMs over the mean of the two reference timings around the
  /// window: multiplies a time, divides a rate.
  double Scale() const;
};

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// One reported figure: the normalized value the gate reads, and the raw
/// (host-time) value it came from.
struct Figure {
  std::string name;
  std::string unit;
  double value = 0.0;
  double raw = 0.0;
};

/// Everything an untraced run measured, before reduction.
struct EndToEndRun {
  double setup_ms = 0.0;      // raw set-up time
  double setup_ref_ms = 0.0;  // reference timing taken before set-up
  std::vector<Window> windows;  // kept windows (warm-up, disturbed excluded)
  double peak_rss_mb = 0.0;
};

/// Reduces a run to the six end-to-end figures: setup_s, throughput_ops_s,
/// latency_p50_ms, latency_p90_ms, cpu_ms_per_op, peak_rss_mb. Every time
/// is normalized by its window's reference. Latency quantiles are taken
/// per window and reduced to the median over windows, so a burst of host
/// noise that spoils a minority of windows does not move them.
/// Throughput and CPU per operation are totals over the kept windows, so
/// periodic stalls (checkpoints) count at their true share.
std::vector<Figure> ReduceEndToEnd(const EndToEndRun& run);

/// p90 and p99 of the pooled normalized latencies and the sample count,
/// printed for reference only.
struct LatencyTail {
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;
};
LatencyTail PooledTail(const EndToEndRun& run);

/// Peak resident set of this process (ru_maxrss), in MB.
double PeakRssMb();

/// JSON number with all significant digits.
std::string JsonNumber(double value);
/// JSON string literal.
std::string JsonString(const std::string& text);

}  // namespace e2ebench

#endif  // E2EBENCH_MEASURE_H_
