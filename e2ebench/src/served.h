#ifndef E2EBENCH_SERVED_H_
#define E2EBENCH_SERVED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "serve/client.h"
#include "workloads.h"

namespace e2ebench {

/// Automatic checkpoint cadence of serve_write's storage, in WAL records.
inline constexpr uint64_t kCheckpointEveryRecords = 2000;

/// One finished request, as the traced mode sees it.
struct RequestSample {
  const ScriptRequest* request = nullptr;
  const gea::serve::Response* response = nullptr;
  double rtt_us = 0.0;
  bool traced = false;  // the request carried a sampled trace context
};
using RequestObserver = std::function<void(const RequestSample&)>;

/// The analysts of a served workload: kConnections loopback connections,
/// each repeating its script in a closed loop (the next request goes out
/// when the previous answer is in). Each response is checked between
/// requests, outside the request's timed interval; the CPU the checks
/// burn is subtracted from the window's CPU figure.
class ScriptClients {
 public:
  ScriptClients(const Inputs& inputs, const ServedExpectations& expected,
                bool writes, RunResult& result);
  ~ScriptClients();
  ScriptClients(const ScriptClients&) = delete;
  ScriptClients& operator=(const ScriptClients&) = delete;

  /// Connects and logs every connection in.
  gea::Status Connect(int port);

  /// Runs whole scripts on every connection until `window_ms` has passed.
  /// With `observer`, one request in `trace_every` carries a sampled
  /// trace context and every request is reported to it.
  Window RunWindow(double window_ms, const RequestObserver* observer = nullptr,
                   size_t trace_every = 0);

  /// No request is in flight.
  bool Idle() const { return in_flight_.load() == 0; }

  /// Per connection: 1 + the iteration of the last script whose every
  /// request was acknowledged, 0 when none was.
  std::vector<uint64_t> LastAcked() const { return last_acked_; }

  void Close();

 private:
  struct ConnectionWindow {
    std::vector<double> latencies_ms;
    double check_cpu_ms = 0.0;
    uint64_t attempted = 0;
  };
  void RunConnection(size_t c, Clock::time_point deadline,
                     const RequestObserver* observer, size_t trace_every,
                     ConnectionWindow& out);

  const Inputs& inputs_;
  const ServedExpectations& expected_;
  const bool writes_;
  RunResult& result_;
  std::vector<gea::serve::QueryClient> clients_;
  std::vector<uint64_t> iteration_;
  std::vector<uint64_t> last_acked_;
  std::vector<uint64_t> requests_;
  std::atomic<int> in_flight_{0};
};

}  // namespace e2ebench

#endif  // E2EBENCH_SERVED_H_
