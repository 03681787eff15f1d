#include "served.h"

#include <thread>

namespace e2ebench {

ScriptClients::ScriptClients(const Inputs& inputs,
                             const ServedExpectations& expected, bool writes,
                             RunResult& result)
    : inputs_(inputs),
      expected_(expected),
      writes_(writes),
      result_(result),
      clients_(kConnections),
      iteration_(kConnections, 0),
      last_acked_(kConnections, 0),
      requests_(kConnections, 0) {}

ScriptClients::~ScriptClients() { Close(); }

gea::Status ScriptClients::Connect(int port) {
  for (gea::serve::QueryClient& client : clients_) {
    if (gea::Status s = client.Connect(port); !s.ok()) return s;
    if (gea::Status s = client.Login("admin", "secret", "admin"); !s.ok()) {
      return s;
    }
  }
  return gea::Status::OK();
}

void ScriptClients::Close() {
  for (gea::serve::QueryClient& client : clients_) client.Close();
}

Window ScriptClients::RunWindow(double window_ms,
                                const RequestObserver* observer,
                                size_t trace_every) {
  std::vector<ConnectionWindow> parts(kConnections);
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(window_ms * 1e3));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        RunConnection(c, deadline, observer, trace_every, parts[c]);
      });
    }
  }
  Window w;
  w.wall_ms = MsSince(start);
  w.cpu_ms = ProcessCpuMs() - cpu0;
  for (ConnectionWindow& part : parts) {
    w.cpu_ms -= part.check_cpu_ms;
    w.ops += part.latencies_ms.size();
    result_.attempted += part.attempted;
    w.latencies_ms.insert(w.latencies_ms.end(), part.latencies_ms.begin(),
                          part.latencies_ms.end());
  }
  return w;
}

void ScriptClients::RunConnection(size_t c, Clock::time_point deadline,
                                  const RequestObserver* observer,
                                  size_t trace_every, ConnectionWindow& out) {
  gea::serve::QueryClient& client = clients_[c];
  while (Clock::now() < deadline) {
    const uint64_t iteration = iteration_[c]++;
    const std::vector<ScriptRequest> script =
        writes_ ? WriteScript(inputs_, c, iteration) : ReadScript(c, iteration);
    ++out.attempted;
    double script_ms = 0.0;
    bool ok = true;
    for (const ScriptRequest& request : script) {
      const bool traced =
          trace_every > 0 && requests_[c]++ % trace_every == 0;
      client.SetTracing(traced);
      in_flight_.fetch_add(1);
      const Clock::time_point sent = Clock::now();
      gea::Result<gea::serve::Response> response =
          client.Call(request.op, request.params);
      const double ms = MsSince(sent);
      in_flight_.fetch_sub(1);
      script_ms += ms;
      if (!response.ok() || !response->ok()) {
        result_.OperationFailed(
            request.op + ": " +
            (response.ok() ? response->ToStatus() : response.status())
                .ToString());
        ok = false;
        break;
      }
      const double check_cpu0 = ThreadCpuMs();
      const std::string err =
          CheckResponse(inputs_, expected_, request, *response);
      if (!err.empty()) result_.CheckFailed(err);
      if (observer != nullptr) {
        (*observer)({&request, &*response, ms * 1e3, traced});
      }
      out.check_cpu_ms += ThreadCpuMs() - check_cpu0;
    }
    if (!ok) {
      if (!client.Connected()) return;
      continue;
    }
    out.latencies_ms.push_back(script_ms);
    last_acked_[c] = iteration + 1;
  }
}

}  // namespace e2ebench
