#include "refkernel.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace e2ebench {

namespace {

constexpr size_t kSortKeys = size_t{1} << 16;  // 512 KiB of uint64_t
constexpr size_t kMapInserts = 6000;
constexpr int kRepeats = 15;
constexpr size_t kSlices = 8;  // 4 MiB pool

double RusageMs(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

}  // namespace

double ProcessCpuMs() { return RusageMs(RUSAGE_SELF); }
double ThreadCpuMs() { return RusageMs(RUSAGE_THREAD); }

bool OtherThreadsBusy(double self_cpu_ms, double thread_cpu_ms) {
  return self_cpu_ms - thread_cpu_ms > std::max(2.0, 0.05 * thread_cpu_ms);
}


ReferenceKernel::ReferenceKernel() : pool_(kSortKeys * kSlices, 1) {}

double ReferenceKernel::Pass(size_t slice) {
  uint64_t* const keys = pool_.data() + slice * kSortKeys;
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < kSortKeys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys[i] = x;
  }
  std::sort(keys, keys + kSortKeys);
  map_.clear();
  for (size_t i = 0; i < kMapInserts; ++i) {
    map_[keys[(i * 7919) % kSortKeys] >> 20] = static_cast<uint32_t>(i);
  }
  uint64_t digest = keys[kSortKeys / 2] ^ map_.size();
  for (const auto& [key, value] : map_) digest = digest * 31 + key + value;
  checksum_ = digest;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

RefSample ReferenceKernel::Run(const std::function<bool()>& idle) {
  RefSample sample;
  const bool idle_before = !idle || idle();
  const double self0 = ProcessCpuMs();
  const double thread0 = ThreadCpuMs();
  std::vector<double> passes(kRepeats);
  for (size_t i = 0; i < passes.size(); ++i) passes[i] = Pass(i % kSlices);
  std::nth_element(passes.begin(), passes.begin() + kRepeats / 2, passes.end());
  sample.wall_ms = passes[kRepeats / 2];
  sample.self_cpu_ms = ProcessCpuMs() - self0;
  sample.thread_cpu_ms = ThreadCpuMs() - thread0;
  const bool idle_after = !idle || idle();
  sample.disturbed = !idle_before || !idle_after ||
                     OtherThreadsBusy(sample.self_cpu_ms, sample.thread_cpu_ms);
  return sample;
}

}  // namespace e2ebench
