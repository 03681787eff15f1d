#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "refkernel.h"

namespace e2ebench {

double Window::Scale() const {
  return kRefNominalMs / (0.5 * (ref_ms + ref_after_ms));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}


std::vector<Figure> ReduceEndToEnd(const EndToEndRun& run) {
  std::vector<double> p50[2];  // [normalized, raw]
  std::vector<double> p90[2];
  uint64_t ops = 0;
  double wall_s[2] = {0.0, 0.0};
  double cpu_ms[2] = {0.0, 0.0};
  for (const Window& w : run.windows) {
    if (w.ops == 0) continue;
    const double scale = w.Scale();
    p50[0].push_back(Quantile(w.latencies_ms, 0.50) * scale);
    p50[1].push_back(Quantile(w.latencies_ms, 0.50));
    p90[0].push_back(Quantile(w.latencies_ms, 0.90) * scale);
    p90[1].push_back(Quantile(w.latencies_ms, 0.90));
    ops += w.ops;
    wall_s[0] += w.wall_ms * scale / 1e3;
    wall_s[1] += w.wall_ms / 1e3;
    cpu_ms[0] += w.cpu_ms * scale;
    cpu_ms[1] += w.cpu_ms;
  }
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  const double setup_scale = kRefNominalMs / run.setup_ref_ms;
  return {
      {"setup_s", "s", run.setup_ms * setup_scale / 1e3, run.setup_ms / 1e3},
      {"throughput_ops_s", "ops/s", n / wall_s[0], n / wall_s[1]},
      {"latency_p50_ms", "ms", Median(p50[0]), Median(p50[1])},
      {"latency_p90_ms", "ms", Median(p90[0]), Median(p90[1])},
      {"cpu_ms_per_op", "ms", cpu_ms[0] / n, cpu_ms[1] / n},
      {"peak_rss_mb", "MB", run.peak_rss_mb, run.peak_rss_mb},
  };
}

LatencyTail PooledTail(const EndToEndRun& run) {
  std::vector<double> lat;
  for (const Window& w : run.windows) {
    for (double ms : w.latencies_ms) lat.push_back(ms * w.Scale());
  }
  return {Quantile(lat, 0.90), Quantile(lat, 0.99), lat.size()};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
