// The traced mode: per-layer figures, measured from outside each layer by
// timing calls into it, with the program's metrics registry on and client
// request tracing on for one request in kTraceEvery. End-to-end figures
// never come from here. Every traced run profiles all three workloads, so
// it prints every per-layer metric whichever workload it is named after.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>

#include "cluster/fascicles.h"
#include "core/gap_compare.h"
#include "core/gap_ops.h"
#include "core/operators.h"
#include "core/populate.h"
#include "obs/metrics.h"
#include "sage/cleaning.h"
#include "served.h"
#include "workloads.h"

namespace e2ebench {

using gea::workbench::AccessLevel;
using gea::workbench::AnalysisSession;

namespace {

/// One traced request in kTraceEvery carries a sampled trace context.
/// Tracing every request slows served writes steadily (see CHANGES.md).
constexpr size_t kTraceEvery = 4;
/// Length of each traced-mode phase (untraced, then traced) and window.
constexpr double kPhaseShare = 1.0 / 6.0;
constexpr double kTracedWindowMs = 1000.0;
/// Pipeline rounds that also time the direct core/cluster calls.
constexpr int kDirectRounds = 5;
/// In-process repetitions of the rel and materialize probes.
constexpr int kProbeReps = 20;

/// A span the benchmark records around one call into a layer.
struct Span {
  std::string layer;
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  uint64_t Add(const std::string& layer, const std::string& name,
               Clock::time_point start, double dur_us, uint64_t parent = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) return 0;
    const double start_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    spans_.push_back({layer, name, spans_.size() + 1, parent, start_us, dur_us});
    return spans_.size();
  }

  /// Sets the duration of a span added with dur_us 0 (a span whose
  /// children are recorded before it ends).
  void End(uint64_t id, double dur_us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id > 0 && id <= spans_.size()) spans_[id - 1].dur_us = dur_us;
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"layer\": " << JsonString(s.layer)
          << ", \"name\": " << JsonString(s.name) << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent
          << ", \"start_us\": " << JsonNumber(s.start_us)
          << ", \"dur_us\": " << JsonNumber(s.dur_us) << "}";
    }
    out << "\n]}\n";
  }

 private:
  static constexpr size_t kMaxSpans = 500000;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Samples per layer metric; each reduces to its median.
class LayerSamples {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    units_[name] = unit;
    samples_[name].push_back(value);
  }
  /// Time figures (unit ms or us) scale by `time_scale`, the reference
  /// normalization; counts, bytes and percentages do not.
  void AppendTo(std::vector<Figure>& out, double time_scale) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, values] : samples_) {
      const std::string& unit = units_.at(name);
      const double raw = Median(values);
      const bool time = unit == "ms" || unit == "us";
      out.push_back({name, unit, time ? raw * time_scale : raw, raw});
    }
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> units_;
};

uint64_t CounterValue(const gea::obs::MetricsSnapshot& s,
                      const std::string& name) {
  for (const gea::obs::CounterValue& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const gea::obs::HistogramValue* HistogramOf(const gea::obs::MetricsSnapshot& s,
                                            const std::string& name) {
  for (const gea::obs::HistogramValue& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Count and sum deltas of a histogram between two snapshots.
std::pair<uint64_t, uint64_t> HistogramDelta(
    const gea::obs::MetricsSnapshot& before,
    const gea::obs::MetricsSnapshot& after, const std::string& name) {
  const gea::obs::HistogramValue* a = HistogramOf(after, name);
  const gea::obs::HistogramValue* b = HistogramOf(before, name);
  if (a == nullptr) return {0, 0};
  return {a->count - (b ? b->count : 0), a->sum - (b ? b->sum : 0)};
}

gea::obs::MetricsSnapshot Metrics() {
  return gea::obs::MetricsRegistry::Global().Snapshot();
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MsSince(start);
}

/// Normalized median latency of a set of windows.
double NormalizedP50(const std::vector<Window>& windows) {
  EndToEndRun run;
  run.windows = windows;
  run.setup_ref_ms = kRefNominalMs;
  return ReduceEndToEnd(run)[2].value;
}

double OverheadPct(double traced_p50, double untraced_p50) {
  return untraced_p50 > 0.0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0;
}

/// The session calls that have a direct core/cluster counterpart; their
/// summed time minus the direct calls' is workbench.overhead_ms.
bool HasDirectCounterpart(const std::string& call) {
  return call == "metadata" || call == "fascicles" || call == "diff" ||
         call == "top_gap" || call == "populate" || call == "compare_gaps" ||
         call == "gap_query";
}

class TracedRun {
 public:
  TracedRun(const Options& options, ReferenceKernel& kernel, RunResult& result)
      : options_(options),
        kernel_(kernel),
        result_(result),
        phase_seconds_(std::max(2.0, options.seconds * kPhaseShare)),
        spans_(Clock::now()) {}

  void Run() {
    gea::sage::SyntheticSage raw = Generate(options_.seed);
    kernel_.Run();
    const double setup_ref = kernel_.Run().wall_ms;
    double clean_ms = 0.0;
    inputs_ = CleanAndIndex(std::move(raw), &clean_ms);
    layers_.Add("sage.clean_ms", "ms", clean_ms * kRefNominalMs / setup_ref);

    Pipeline();
    Served(/*writes=*/false);
    Served(/*writes=*/true);

    const double scale = kRefNominalMs / Median(result_.ref_ms);
    layers_.AppendTo(result_.layers, scale);
    spans_.Write(options_.out_dir + "/spans.json");
  }

 private:
  std::vector<Window> Windows(const std::function<bool()>& idle,
                              const std::function<Window(double)>& window) {
    return MeasureWindows(phase_seconds_, kTracedWindowMs, kernel_, idle,
                          window, result_);
  }

  /// Pipeline rounds for one window. Traced, each session call is timed
  /// and spanned, the round's latency is the sum of its session calls,
  /// and the registry's counter deltas become per-round layer samples.
  Window PipelineWindow(double window_ms, bool traced) {
    Window w;
    while (w.wall_ms < window_ms) {
      gea::sage::SageDataSet copy = inputs_->dataset;
      std::vector<TissueOutputs> outputs;
      ++result_.attempted;
      const gea::obs::MetricsSnapshot before =
          traced ? Metrics() : gea::obs::MetricsSnapshot{};
      double session_ms = 0.0;
      uint64_t round_span = 0;
      RoundProbe probe;
      probe.session_call = [&](const std::string& call, double ms) {
        session_ms += ms;
        if (!traced) return;
        const Clock::time_point end = Clock::now();
        spans_.Add("workbench", call,
                   end - std::chrono::microseconds(
                             static_cast<int64_t>(ms * 1e3)),
                   ms * 1e3, round_span);
      };
      const double cpu0 = ProcessCpuMs();
      const Clock::time_point start = Clock::now();
      if (traced) round_span = spans_.Add("pipeline", "round", start, 0.0);
      auto session = FreshSession();
      const uint64_t epoch0 = session->CurrentEpoch();
      const std::string err =
          PipelineRound(std::move(copy), *session, &outputs, &probe);
      const double ms = MsSince(start);
      w.cpu_ms += ProcessCpuMs() - cpu0;
      w.wall_ms += ms;
      if (!err.empty()) {
        result_.OperationFailed(err);
        continue;
      }
      ++w.ops;
      // A round's latency here is the sum of its session calls, on both
      // sides of the overhead figure, so span and counter bookkeeping
      // between calls stays out of it.
      w.latencies_ms.push_back(session_ms);
      if (traced) {
        spans_.End(round_span, ms * 1e3);
        const gea::obs::MetricsSnapshot after = Metrics();
        const auto delta = [&](const char* name) {
          return static_cast<double>(CounterValue(after, name) -
                                     CounterValue(before, name));
        };
        layers_.Add("common.pool_tasks_per_op", "count",
                    delta("gea.pool.tasks_submitted") +
                        delta("gea.pool.tasks_inline"));
        layers_.Add("common.pool_queue_wait_ms", "ms",
                    static_cast<double>(
                        HistogramDelta(before, after,
                                       "gea.pool.queue_wait_nanos")
                            .second) /
                        1e6);
        const double fascicles = delta("gea.mine.fascicles_mined");
        if (fascicles > 0) {
          layers_.Add("cluster.candidates_per_fascicle", "count",
                      delta("gea.fascicles.candidates_evaluated") / fascicles);
        }
        layers_.Add("txn.epochs_per_op.pipeline", "count",
                    static_cast<double>(session->CurrentEpoch() - epoch0));
      }
      CheckRound(*inputs_, *session, outputs, result_);
    }
    return w;
  }

  /// Session calls vs the direct core/cluster calls on the same inputs.
  void DirectRound() {
    std::map<std::string, double> session_ms;
    double load_ms = 0.0;
    double tissue_ms = 0.0;
    double direct_ms = 0.0;
    std::map<std::string, double> layer_ms;
    auto direct = [&](const char* layer, const char* metric, auto&& fn) {
      const Clock::time_point start = Clock::now();
      fn();
      const double ms = MsSince(start);
      spans_.Add(layer, metric, start, ms * 1e3);
      layer_ms[metric] += ms;
      return ms;
    };
    RoundProbe probe;
    probe.session_call = [&](const std::string& call, double ms) {
      if (call == "load") load_ms += ms;
      if (call == "tissue_dataset") tissue_ms += ms;
      if (HasDirectCounterpart(call)) session_ms[call] += ms;
    };
    probe.after_tissue = [&](AnalysisSession& session, const TissueOutputs& out) {
      const gea::core::EnumTable& tissue = **session.GetEnum(out.name);
      std::vector<double> tolerances;
      direct_ms += direct("core", "core.metadata_ms", [&] {
        tolerances = gea::core::MakeToleranceMetadata(tissue, 25.0);
      });
      gea::cluster::FascicleParams params;
      params.min_compact_tags = 150;
      params.tolerances = tolerances;
      params.batch_size = 6;
      params.min_size = 3;
      direct("cluster", "cluster.mine_ms", [&] {
        gea::cluster::FascicleMiner miner(tissue.values().data(),
                                          tissue.NumLibraries(),
                                          tissue.NumTags());
        (void)miner.Mine(params);
      });
      // core::Mine (miner + member tables + SUMYs) is what the session's
      // CalculateFascicles wraps.
      direct_ms += TimeMs([&] { (void)gea::core::Mine(tissue, params, "x"); });
      direct("core", "core.aggregate_ms", [&] {
        (void)gea::core::Aggregate(**session.GetEnum(out.groups.opposite_enum),
                                   "x");
        (void)gea::core::Aggregate(
            **session.GetEnum(out.groups.not_in_fas_enum), "x");
      });
      const gea::core::SumyTable& fas = **session.GetSumy(out.groups.fascicle_sumy);
      direct_ms += direct("core", "core.diff_ms", [&] {
        (void)gea::core::Diff(fas, **session.GetSumy(out.groups.opposite_sumy),
                              "x");
        (void)gea::core::Diff(fas, **session.GetSumy(out.groups.not_in_fas_sumy),
                              "x");
      });
      direct_ms += direct("core", "core.top_gap_ms", [&] {
        (void)gea::core::TopGap(**session.GetGap(out.cancer_vs_normal), kTopGapX,
                                gea::core::TopGapMode::kLargestMagnitude, "x");
      });
      direct_ms += direct("core", "core.populate_ms", [&] {
        gea::core::PopulateEngine engine(tissue);
        (void)engine.Populate(fas, "x");
      });
    };
    gea::sage::SageDataSet copy = inputs_->dataset;
    std::vector<TissueOutputs> outputs;
    auto session = FreshSession();
    ++result_.attempted;
    const std::string err = PipelineRound(std::move(copy), *session, &outputs,
                                          &probe);
    if (!err.empty()) {
      result_.OperationFailed(err);
      return;
    }
    for (size_t p = 0; p + 1 < outputs.size(); ++p) {
      const gea::core::GapTable& a = **session->GetGap(outputs[p].cancer_vs_normal);
      const gea::core::GapTable& b =
          **session->GetGap(outputs[p + 1].cancer_vs_normal);
      gea::Result<gea::core::GapTable> compared = gea::core::GapTable();
      direct_ms += direct("core", "core.compare_gaps_ms", [&] {
        compared = gea::core::CompareGaps(a, b,
                                          gea::core::GapCompareKind::kIntersect,
                                          "x");
      });
      direct_ms += direct("core", "core.gap_query_ms", [&] {
        (void)gea::core::ApplyGapQuery(
            *compared, gea::core::GapCompareQuery::kLowerInAInBoth, "x");
      });
    }
    double session_total = 0.0;
    for (const auto& [call, ms] : session_ms) session_total += ms;
    layers_.Add("workbench.load_ms", "ms", load_ms);
    layers_.Add("workbench.tissue_dataset_ms", "ms", tissue_ms);
    layers_.Add("workbench.overhead_ms", "ms", session_total - direct_ms);
    for (const auto& [metric, ms] : layer_ms) layers_.Add(metric, "ms", ms);
    CheckRound(*inputs_, *session, outputs, result_);
  }

  void Pipeline() {
    const std::vector<Window> plain =
        Windows({}, [&](double ms) { return PipelineWindow(ms, false); });
    std::vector<Window> traced;
    {
      gea::obs::ScopedMetricsEnable metrics(true);
      traced = Windows({}, [&](double ms) { return PipelineWindow(ms, true); });
      for (int i = 0; i < kDirectRounds; ++i) DirectRound();
    }
    layers_.Add("obs.tracing_overhead_pct.pipeline", "%",
                OverheadPct(NormalizedP50(traced), NormalizedP50(plain)));
  }

  /// Request-type key of a served request: the wire op, with the two SQL
  /// statements told apart.
  static std::string RequestType(const ScriptRequest& request) {
    if (request.op != "sql") return request.op;
    return request.params.at("query") == kGroupBySql ? "sql_groupby"
                                                     : "sql_orderby";
  }

  void ObserveRequest(const RequestSample& s, bool writes) {
    const std::string type = RequestType(*s.request);
    const Clock::time_point sent =
        Clock::now() - std::chrono::microseconds(static_cast<int64_t>(s.rtt_us));
    const uint64_t id = spans_.Add("serve", type, sent, s.rtt_us);
    if (!writes) {
      layers_.Add("serve.response_bytes." + type, "bytes",
                  static_cast<double>(
                      gea::serve::EncodeResponse(*s.response).size() + 8));
    }
    if (!s.traced || !s.response->timing.has_value()) return;
    const gea::serve::StageBreakdown& t = *s.response->timing;
    const double us = 1e-3;
    const double total_us = static_cast<double>(t.TotalNanos()) * us;
    if (std::string err = CheckStages(t, s.rtt_us); !err.empty()) {
      result_.CheckFailed(type + ": " + err);
    }
    const std::pair<const char*, uint64_t> stages[] = {
        {"decode", t.decode_nanos},   {"queue", t.queue_nanos},
        {"execute", t.execute_nanos}, {"encode", t.encode_nanos},
        {"wal_append", t.wal_append_nanos}, {"wal_fsync", t.wal_fsync_nanos},
        {"lock_wait", t.lock_wait_nanos}};
    // The wire carries stage durations, not offsets: stage spans start
    // at their request's start.
    for (const auto& [stage, nanos] : stages) {
      spans_.Add("serve", stage, sent, static_cast<double>(nanos) * us, id);
    }
    if (!writes) {
      // The first four stages are the ones a read passes through.
      for (const auto& [stage, nanos] : std::span(stages).first(4)) {
        layers_.Add("serve." + std::string(stage) + "_us." + type, "us",
                    static_cast<double>(nanos) * us);
      }
      layers_.Add("serve.rtt_us." + type, "us", s.rtt_us);
      layers_.Add("serve.unattributed_us." + type, "us", s.rtt_us - total_us);
    } else if (s.request->op != "get_table" && s.request->op != "sql") {
      layers_.Add("serve.lock_wait_us", "us",
                  static_cast<double>(t.lock_wait_nanos) * us);
      layers_.Add("store.wal_append_us", "us",
                  static_cast<double>(t.wal_append_nanos) * us);
      layers_.Add("store.wal_fsync_us", "us",
                  static_cast<double>(t.wal_fsync_nanos) * us);
    }
  }

  void Served(bool writes) {
    const std::string dir = options_.out_dir + "/store-traced";
    std::filesystem::remove_all(dir);
    auto session = FreshSession();
    std::string err;
    if (writes) {
      gea::store::StorageOptions storage;
      storage.checkpoint_every_records = kCheckpointEveryRecords;
      if (gea::Status s = session->OpenStorage(dir, storage); !s.ok()) {
        err = s.ToString();
      }
    }
    if (err.empty()) err = PrepareServedSession(*inputs_, *session);
    gea::serve::QueryServer server(session.get());
    if (err.empty()) {
      if (gea::Status s = server.Start(); !s.ok()) err = s.ToString();
    }
    const ServedExpectations expected = ExpectServedTables(*inputs_);
    ScriptClients clients(*inputs_, expected, writes, result_);
    if (err.empty()) {
      if (gea::Status s = clients.Connect(server.Port()); !s.ok()) {
        err = s.ToString();
      }
    }
    if (!err.empty()) {
      ++result_.attempted;
      result_.OperationFailed("traced set-up: " + err);
      return;
    }
    if (!writes) InProcessProbes(*session);

    auto idle = [&] {
      return clients.Idle() && server.GetStats().queue_depth == 0;
    };
    const std::vector<Window> plain =
        Windows(idle, [&](double ms) { return clients.RunWindow(ms); });
    std::vector<Window> traced;
    uint64_t scripts = 0;
    {
      gea::obs::ScopedMetricsEnable metrics(true);
      const gea::obs::MetricsSnapshot before = Metrics();
      const uint64_t epoch0 = session->CurrentEpoch();
      const RequestObserver observer = [&](const RequestSample& s) {
        ObserveRequest(s, writes);
      };
      const std::vector<Window> windows = Windows(idle, [&](double ms) {
        Window w = clients.RunWindow(ms, &observer, kTraceEvery);
        scripts += w.ops;
        return w;
      });
      traced = windows;
      const gea::obs::MetricsSnapshot after = Metrics();
      if (writes && scripts > 0) {
        const auto delta = [&](const char* name) {
          return static_cast<double>(CounterValue(after, name) -
                                     CounterValue(before, name));
        };
        const double per_op = 1.0 / static_cast<double>(scripts);
        layers_.Add("txn.epochs_per_op.serve_write", "count",
                    static_cast<double>(session->CurrentEpoch() - epoch0) *
                        per_op);
        const double commits = delta("gea.txn.group_commits");
        layers_.Add("txn.records_per_fsync", "count",
                    commits > 0 ? delta("gea.txn.group_commit_records") / commits
                                : 0.0);
        layers_.Add("store.wal_bytes_per_op", "bytes",
                    delta("gea.store.wal_bytes") * per_op);
        layers_.Add("store.checkpoints", "count", delta("gea.store.checkpoints"));
        const auto [count, nanos] = HistogramDelta(
            before, after, "gea.store.snapshot_write_nanos");
        layers_.Add("store.checkpoint_ms", "ms",
                    count > 0 ? static_cast<double>(nanos) / 1e6 /
                                    static_cast<double>(count)
                              : 0.0);
      }
    }
    layers_.Add(std::string("obs.tracing_overhead_pct.") +
                    (writes ? "serve_write" : "serve_read"),
                "%", OverheadPct(NormalizedP50(traced), NormalizedP50(plain)));
    clients.Close();
    server.Stop();
    if (writes) {
      (void)session->CloseStorage();
      std::filesystem::remove_all(dir);
    }
  }

  /// rel and workbench figures of the browse script's reads, called
  /// in-process on the served session while no client runs.
  void InProcessProbes(const AnalysisSession& session) {
    for (int rep = 0; rep < kProbeReps; ++rep) {
      layers_.Add("rel.sql_groupby_ms", "ms",
                  TimeMs([&] { (void)session.Query(kGroupBySql); }));
      layers_.Add("rel.sql_orderby_ms", "ms",
                  TimeMs([&] { (void)session.Query(kOrderBySql); }));
      const std::string tissue = gea::sage::TissueTypeName(
          static_cast<gea::sage::TissueType>(rep % gea::sage::kNumTissueTypes));
      layers_.Add("workbench.materialize_ms", "ms", TimeMs([&] {
                    (void)session.MaterializeAnyTable(tissue + "_cancer_SUMY");
                    (void)session.MaterializeAnyTable(tissue + "_GAP");
                  }));
    }
  }

  const Options& options_;
  ReferenceKernel& kernel_;
  RunResult& result_;
  const double phase_seconds_;
  std::unique_ptr<Inputs> inputs_;
  SpanLog spans_;
  LayerSamples layers_;
};

}  // namespace

void RunTraced(const Options& options, ReferenceKernel& kernel,
               RunResult& result) {
  TracedRun(options, kernel, result).Run();
}

}  // namespace e2ebench
