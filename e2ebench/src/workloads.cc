#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/thread_pool.h"
#include "sage/cleaning.h"
#include "served.h"

namespace e2ebench {

using gea::Status;
using gea::sage::TissueType;
using gea::workbench::AccessLevel;
using gea::workbench::AnalysisSession;

// ---- Inputs ----

gea::sage::SyntheticSage Generate(uint64_t seed) {
  gea::sage::GeneratorConfig config;
  config.seed = seed;
  config.panels = gea::sage::SyntheticSageGenerator::DefaultPanels();
  for (gea::sage::TissuePanel& panel : config.panels) {
    panel.num_cancer_bulk *= 4;
    panel.num_cancer_cell_line *= 4;
    panel.num_normal_bulk *= 4;
    panel.num_normal_cell_line *= 4;
  }
  return gea::sage::SyntheticSageGenerator(config).Generate();
}

std::unique_ptr<Inputs> CleanAndIndex(gea::sage::SyntheticSage raw,
                                      double* clean_ms) {
  auto inputs = std::make_unique<Inputs>();
  inputs->truth = std::move(raw.truth);
  inputs->dataset = std::move(raw.dataset);
  const Clock::time_point start = Clock::now();
  gea::sage::CleanAndNormalize(inputs->dataset);
  *clean_ms = MsSince(start);
  inputs->libraries = IndexLibraries(inputs->dataset);
  for (const gea::sage::SageLibrary& lib : inputs->dataset.libraries()) {
    ++inputs->panel_counts[gea::sage::TissueTypeName(lib.tissue())];
    inputs->tissue_ids[lib.tissue()].push_back(lib.id());
    (lib.state() == gea::sage::NeoplasticState::kCancer
         ? inputs->cancer_ids
         : inputs->normal_ids)[lib.tissue()]
        .push_back(lib.id());
  }
  return inputs;
}

// ---- RunResult ----

void RunResult::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < 20) errors_.push_back(what);
}

void RunResult::OperationFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed;
  if (failures_.size() < 20) failures_.push_back(what);
}

bool RunResult::Correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_.empty();
}

std::vector<std::string> RunResult::Errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> all = errors_;
  for (const std::string& f : failures_) all.push_back("failed: " + f);
  return all;
}

// ---- Windows ----

std::vector<Window> MeasureWindows(
    double seconds, double window_ms, ReferenceKernel& kernel,
    const std::function<bool()>& idle,
    const std::function<Window(double window_ms)>& window, RunResult& result) {
  std::vector<Window> kept;
  const Clock::time_point start = Clock::now();
  RefSample before = kernel.Run(idle);
  bool warm_up = true;
  while (MsSince(start) + window_ms / 2 < seconds * 1e3) {
    Window w = window(window_ms);
    const RefSample after = kernel.Run(idle);
    w.ref_ms = before.wall_ms;
    w.ref_after_ms = after.wall_ms;
    const bool disturbed = before.disturbed || after.disturbed;
    before = after;
    ++result.ref_runs;
    if (warm_up) {
      warm_up = false;
      continue;
    }
    if (disturbed) {
      ++result.ref_discarded;
      continue;
    }
    result.ref_ms.push_back(0.5 * (w.ref_ms + w.ref_after_ms));
    kept.push_back(std::move(w));
  }
  return kept;
}

// ---- Pipeline ----

std::string ComparedName(size_t pair) {
  return "cmp_" + std::to_string(pair);
}
std::string QueryName(size_t pair) { return "q2_" + std::to_string(pair); }

namespace {

template <typename T>
std::string ErrorOf(const gea::Result<T>& r, const std::string& what) {
  return r.ok() ? "" : what + ": " + r.status().ToString();
}
std::string ErrorOf(const Status& s, const std::string& what) {
  return s.ok() ? "" : what + ": " + s.ToString();
}

}  // namespace

std::string PipelineRound(gea::sage::SageDataSet dataset,
                          AnalysisSession& session,
                          std::vector<TissueOutputs>* outputs,
                          const RoundProbe* probe) {
  // Times one session call for the traced mode's overhead figure.
  auto call = [&](const char* name, auto&& fn) {
    const Clock::time_point start = Clock::now();
    auto r = fn();
    if (probe != nullptr && probe->session_call) {
      probe->session_call(name, MsSince(start));
    }
    return r;
  };
  std::string err;
  if (!(err = ErrorOf(call("load", [&] {
          return session.LoadDataSet(std::move(dataset));
        }), "LoadDataSet")).empty()) {
    return err;
  }
  outputs->clear();
  for (TissueType tissue : gea::sage::AllTissueTypes()) {
    TissueOutputs out;
    out.tissue = tissue;
    out.name = gea::sage::TissueTypeName(tissue);
    const std::string& name = out.name;
    const std::string meta = name + ".meta";
    if (!(err = ErrorOf(call("tissue_dataset", [&] {
            return session.CreateTissueDataSet(tissue);
          }), "CreateTissueDataSet " + name)).empty() ||
        !(err = ErrorOf(call("metadata", [&] {
            return session.GenerateMetadata(name, 25.0, meta);
          }), "GenerateMetadata " + name)).empty()) {
      return err;
    }
    auto fascicles = call("fascicles", [&] {
      return session.CalculateFascicles(name, meta, 150, 6, 3, name + "_fas");
    });
    if (!(err = ErrorOf(fascicles, "CalculateFascicles " + name)).empty()) {
      return err;
    }
    for (const std::string& f : *fascicles) {
      auto purity = call("purity", [&] { return session.CheckPurity(f); });
      if (!(err = ErrorOf(purity, "CheckPurity " + f)).empty()) return err;
      if (std::find(purity->begin(), purity->end(),
                    gea::core::PurityProperty::kCancer) != purity->end()) {
        out.fascicle = f;
        break;
      }
    }
    if (out.fascicle.empty()) return "no pure cancer fascicle in " + name;
    auto groups = call("control_groups", [&] {
      return session.FormControlGroups(name, out.fascicle);
    });
    if (!(err = ErrorOf(groups, "FormControlGroups " + name)).empty()) {
      return err;
    }
    out.groups = *groups;
    out.cancer_vs_normal = name + "_cvn";
    out.cancer_vs_cancer = name + "_cvc";
    out.populated = name + "_pop";
    if (!(err = ErrorOf(call("diff", [&] {
            return session.CreateGap(out.groups.fascicle_sumy,
                                     out.groups.opposite_sumy,
                                     out.cancer_vs_normal);
          }), "CreateGap " + out.cancer_vs_normal)).empty() ||
        !(err = ErrorOf(call("diff", [&] {
            return session.CreateGap(out.groups.fascicle_sumy,
                                     out.groups.not_in_fas_sumy,
                                     out.cancer_vs_cancer);
          }), "CreateGap " + out.cancer_vs_cancer)).empty()) {
      return err;
    }
    auto top = call("top_gap", [&] {
      return session.CalculateTopGap(out.cancer_vs_normal, kTopGapX);
    });
    if (!(err = ErrorOf(top, "CalculateTopGap " + name)).empty()) return err;
    out.top = *top;
    if (!(err = ErrorOf(call("populate", [&] {
            return session.Populate(out.groups.fascicle_sumy, name,
                                    out.populated);
          }), "Populate " + name)).empty()) {
      return err;
    }
    if (probe != nullptr && probe->after_tissue) {
      probe->after_tissue(session, out);
    }
    outputs->push_back(std::move(out));
  }
  for (size_t p = 0; p + 1 < outputs->size(); ++p) {
    if (!(err = ErrorOf(call("compare_gaps", [&] {
            return session.CompareGapTables(
                (*outputs)[p].cancer_vs_normal,
                (*outputs)[p + 1].cancer_vs_normal,
                gea::core::GapCompareKind::kIntersect, ComparedName(p));
          }), "CompareGapTables " + ComparedName(p))).empty() ||
        !(err = ErrorOf(call("gap_query", [&] {
            return session.RunGapQuery(
                ComparedName(p), gea::core::GapCompareQuery::kLowerInAInBoth,
                QueryName(p));
          }), "RunGapQuery " + QueryName(p))).empty()) {
      return err;
    }
  }
  return "";
}

namespace {

/// Planted genes: at least kPlantedShare of each cancer-vs-normal GAP's
/// (up to) kPlantedTop largest positive gaps must be planted cancer-up
/// tags, and the round's nine GAPs together must hold at least
/// kPlantedMinPositives positive gaps. The gaps run over the fascicle's
/// compact tags only, so one GAP may hold none (2-8 is typical).
constexpr size_t kPlantedTop = 10;
constexpr double kPlantedShare = 0.8;
constexpr size_t kPlantedMinPositives = 9;

std::vector<const gea::sage::SageLibrary*> Members(
    const Inputs& inputs, const gea::core::EnumTable& table) {
  std::vector<int> ids;
  for (const gea::sage::LibraryMeta& meta : table.libraries()) {
    ids.push_back(meta.id);
  }
  return Group(inputs.libraries, ids);
}

}  // namespace

void CheckRound(const Inputs& inputs, const AnalysisSession& session,
                const std::vector<TissueOutputs>& outputs, RunResult& result) {
  static std::atomic<size_t> rotation{0};
  const size_t gap_checked = rotation.fetch_add(1) % outputs.size();
  size_t positives = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    const TissueOutputs& out = outputs[i];
    auto fascicle = session.GetEnum(out.fascicle);
    auto cvn = session.GetGap(out.cancer_vs_normal);
    auto populated = session.GetEnum(out.populated);
    auto sumy = session.GetSumy(out.groups.fascicle_sumy);
    if (!fascicle.ok() || !cvn.ok() || !populated.ok() || !sumy.ok()) {
      result.CheckFailed(out.name + ": a table of the round is missing");
      continue;
    }
    std::string err = CheckFascicleIsCancer(**fascicle, inputs.libraries);
    if (err.empty()) {
      std::vector<gea::sage::TagId> planted =
          inputs.truth.cancer_up.at(out.tissue);
      planted.insert(planted.end(), inputs.truth.shared_cancer_up.begin(),
                     inputs.truth.shared_cancer_up.end());
      size_t n = 0;
      err = CheckPlantedGenes(**cvn, planted, kPlantedTop, kPlantedShare, &n);
      positives += n;
    }
    if (err.empty() && i == gap_checked) {
      err = CheckGapValues(**cvn, Members(inputs, **fascicle),
                           Group(inputs.libraries,
                                 inputs.normal_ids.at(out.tissue)));
    }
    if (err.empty()) {
      err = CheckPopulate(**populated, **sumy,
                          Group(inputs.libraries,
                                inputs.tissue_ids.at(out.tissue)));
    }
    if (!err.empty()) result.CheckFailed(err);
  }
  if (positives < kPlantedMinPositives) {
    result.CheckFailed("the round's cancer-vs-normal GAPs hold " +
                       std::to_string(positives) + " positive gaps, expected " +
                       "at least " + std::to_string(kPlantedMinPositives));
  }
  for (size_t p = 0; p + 1 < outputs.size(); ++p) {
    auto q = session.GetGap(QueryName(p));
    auto a = session.GetGap(outputs[p].cancer_vs_normal);
    auto b = session.GetGap(outputs[p + 1].cancer_vs_normal);
    if (!q.ok() || !a.ok() || !b.ok()) {
      result.CheckFailed(QueryName(p) + " or its inputs are missing");
      continue;
    }
    std::string err = CheckGapQueryLowerInBoth(**q, **a, **b);
    if (!err.empty()) result.CheckFailed(err);
  }
}

namespace {

/// Every stored ENUM/SUMY/GAP of a session as bytes, for the
/// thread-count identity check.
std::string SessionDigest(const AnalysisSession& session) {
  std::string bytes;
  auto append = [&bytes](const void* data, size_t n) {
    bytes.append(static_cast<const char*>(data), n);
  };
  for (const std::string& name : session.TableNames()) {
    bytes += name;
    if (auto e = session.GetEnum(name); e.ok()) {
      for (const gea::sage::LibraryMeta& meta : (*e)->libraries()) {
        append(&meta.id, sizeof(meta.id));
      }
      append((*e)->tags().data(), (*e)->tags().size() * sizeof(gea::sage::TagId));
      append((*e)->values().data(), (*e)->values().size() * sizeof(double));
    } else if (auto s = session.GetSumy(name); s.ok()) {
      for (const gea::core::SumyEntry& entry : (*s)->entries()) {
        const double row[] = {static_cast<double>(entry.tag), entry.min,
                              entry.max, entry.mean, entry.stddev};
        append(row, sizeof(row));
      }
    } else if (auto g = session.GetGap(name); g.ok()) {
      append((*g)->tags().data(), (*g)->tags().size() * sizeof(gea::sage::TagId));
      for (size_t c = 0; c < (*g)->NumColumns(); ++c) {
        append((*g)->column_values(c).data(),
               (*g)->column_values(c).size() * sizeof(double));
        append((*g)->column_valid(c).data(), (*g)->column_valid(c).size());
      }
    }
  }
  return bytes;
}

}  // namespace

std::unique_ptr<AnalysisSession> FreshSession() {
  auto session = std::make_unique<AnalysisSession>("admin", "secret");
  (void)session->Login("admin", "secret", AccessLevel::kAdministrator);
  return session;
}

void RunPipeline(const Options& options, ReferenceKernel& kernel,
                 RunResult& result) {
  gea::sage::SyntheticSage raw = Generate(options.seed);
  kernel.Run();  // warm-up run
  result.e2e.setup_ref_ms = kernel.Run().wall_ms;
  double clean_ms = 0.0;
  std::unique_ptr<Inputs> inputs = CleanAndIndex(std::move(raw), &clean_ms);
  result.e2e.setup_ms = clean_ms;

  auto window = [&](double window_ms) {
    Window w;
    while (w.wall_ms < window_ms) {
      gea::sage::SageDataSet copy = inputs->dataset;
      std::vector<TissueOutputs> outputs;
      ++result.attempted;
      const double cpu0 = ProcessCpuMs();
      const Clock::time_point start = Clock::now();
      std::unique_ptr<AnalysisSession> session = FreshSession();
      const std::string err =
          PipelineRound(std::move(copy), *session, &outputs);
      const double ms = MsSince(start);
      w.cpu_ms += ProcessCpuMs() - cpu0;
      w.wall_ms += ms;
      if (!err.empty()) {
        result.OperationFailed(err);
        continue;
      }
      ++w.ops;
      w.latencies_ms.push_back(ms);
      CheckRound(*inputs, *session, outputs, result);
    }
    return w;
  };
  result.e2e.windows =
      MeasureWindows(options.seconds, kWindowMs, kernel, {}, window, result);
  result.e2e.peak_rss_mb = PeakRssMb();

  // The round's outputs must not depend on the operator pool's size.
  std::string digest[2];
  const size_t threads[2] = {1, gea::ConfiguredThreads()};
  for (int i = 0; i < 2; ++i) {
    gea::ThreadCountOverride pin(threads[i]);
    std::vector<TissueOutputs> outputs;
    std::unique_ptr<AnalysisSession> session = FreshSession();
    const std::string err =
        PipelineRound(inputs->dataset, *session, &outputs);
    if (!err.empty()) {
      result.CheckFailed("thread-identity round: " + err);
      return;
    }
    digest[i] = SessionDigest(*session);
  }
  if (digest[0] != digest[1]) {
    result.CheckFailed("round outputs differ between 1 and " +
                       std::to_string(threads[1]) + " pool threads");
  }
}

// ---- Served workloads ----

std::string PrepareServedSession(const Inputs& inputs,
                                 AnalysisSession& session) {
  std::string err;
  if (!(err = ErrorOf(session.LoadDataSet(inputs.dataset), "LoadDataSet"))
           .empty()) {
    return err;
  }
  for (TissueType tissue : gea::sage::AllTissueTypes()) {
    const std::string name = gea::sage::TissueTypeName(tissue);
    const std::string cancer = name + "_cancer";
    const std::string normal = name + "_normal";
    for (const std::string& e :
         {ErrorOf(session.CreateTissueDataSet(tissue), "tissue " + name),
          ErrorOf(session.CreateCustomDataSet(cancer,
                                              inputs.cancer_ids.at(tissue)),
                  cancer),
          ErrorOf(session.CreateCustomDataSet(normal,
                                              inputs.normal_ids.at(tissue)),
                  normal),
          ErrorOf(session.Aggregate(cancer, cancer + "_SUMY"), cancer),
          ErrorOf(session.Aggregate(normal, normal + "_SUMY"), normal),
          ErrorOf(session.CreateGap(cancer + "_SUMY", normal + "_SUMY",
                                    name + "_GAP"),
                  name + "_GAP")}) {
      if (!e.empty()) return e;
    }
  }
  return "";
}

ServedExpectations ExpectServedTables(const Inputs& inputs) {
  ServedExpectations expected;
  for (TissueType tissue : gea::sage::AllTissueTypes()) {
    const std::string name = gea::sage::TissueTypeName(tissue);
    const auto cancer = Group(inputs.libraries, inputs.cancer_ids.at(tissue));
    const auto normal = Group(inputs.libraries, inputs.normal_ids.at(tissue));
    expected.sumys[name + "_cancer_SUMY"] = ExpectedSumy(cancer);
    expected.sumys[name + "_normal_SUMY"] = ExpectedSumy(normal);
    expected.gaps[name + "_GAP"] = ExpectedDiff(cancer, normal);
  }
  return expected;
}

namespace {

std::string TissueName(uint64_t index) {
  return gea::sage::TissueTypeName(
      static_cast<TissueType>(index % gea::sage::kNumTissueTypes));
}

std::string WriteName(size_t connection, const char* kind) {
  return "w" + std::to_string(connection) + "_" + kind;
}

}  // namespace

std::vector<ScriptRequest> ReadScript(size_t connection, uint64_t iteration) {
  const std::string tissue = TissueName(connection + iteration);
  return {{"sql", {{"query", kGroupBySql}}},
          {"sql", {{"query", kOrderBySql}}},
          {"tables", {}},
          {"get_table", {{"name", tissue + "_cancer_SUMY"}}},
          {"get_table", {{"name", tissue + "_GAP"}}}};
}

TissueType WriteScriptTissue(size_t connection, uint64_t iteration) {
  return static_cast<TissueType>((2 * connection + iteration) %
                                 gea::sage::kNumTissueTypes);
}

std::vector<int> WriteScriptLibraries(const Inputs& inputs, size_t connection,
                                      uint64_t iteration) {
  // 12 of the tissue's libraries, cancer and normal mixed, rotating with
  // the iteration so every script aggregates a different group.
  const std::vector<int>& ids =
      inputs.tissue_ids.at(WriteScriptTissue(connection, iteration));
  const size_t n = ids.size();
  const size_t start = (iteration * 7 + connection * 3) % n;
  std::vector<int> chosen;
  for (size_t k = 0; k < 12 && k < n; ++k) {
    chosen.push_back(ids[(start + k * (n / 12)) % n]);
  }
  std::sort(chosen.begin(), chosen.end());
  chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  return chosen;
}

std::vector<ScriptRequest> WriteScript(const Inputs& inputs, size_t connection,
                                       uint64_t iteration) {
  std::string libs;
  for (int id : WriteScriptLibraries(inputs, connection, iteration)) {
    if (!libs.empty()) libs += ',';
    libs += std::to_string(id);
  }
  const std::string normal_sumy =
      std::string(gea::sage::TissueTypeName(
          WriteScriptTissue(connection, iteration))) +
      "_normal_SUMY";
  const std::string dataset = WriteName(connection, "enum");
  const std::string sumy = WriteName(connection, "sumy");
  const std::string gap = WriteName(connection, "gap");
  return {
      {"custom_dataset", {{"name", dataset}, {"libs", libs}, {"replace", "1"}}},
      {"aggregate", {{"enum", dataset}, {"out", sumy}, {"replace", "1"}}},
      {"diff",
       {{"sumy1", sumy}, {"sumy2", normal_sumy}, {"gap", gap}, {"replace", "1"}}},
      {"top_gap", {{"gap", gap}, {"x", std::to_string(kTopGapX)}}},
      {"get_table", {{"name", gap + "_" + std::to_string(kTopGapX)}}},
      {"sql", {{"query", kGroupBySql}}}};
}

std::string CheckResponse(const Inputs& inputs,
                          const ServedExpectations& expected,
                          const ScriptRequest& request,
                          const gea::serve::Response& response) {
  const auto param = [&request](const char* key) {
    auto it = request.params.find(key);
    return it == request.params.end() ? std::string() : it->second;
  };
  const bool has_table = response.table.has_value();
  if (request.op == "sql") {
    if (!has_table) return "sql: no table";
    if (param("query") == kGroupBySql) {
      return CheckGroupBy(*response.table, inputs.panel_counts,
                          gea::sage::kStandardDepth);
    }
    return CheckOrderBy(*response.table, inputs.dataset, kOrderByLimit);
  }
  if (request.op == "tables") {
    if (!has_table) return "tables: no table";
    std::set<std::string> names;
    for (size_t r = 0; r < response.table->NumRows(); ++r) {
      names.insert(response.table->At(r, 0).AsString());
    }
    for (const auto& [name, rows] : expected.sumys) {
      if (names.count(name) == 0) return "tables: " + name + " missing";
    }
    for (const auto& [name, rows] : expected.gaps) {
      if (names.count(name) == 0) return "tables: " + name + " missing";
    }
    return "";
  }
  if (request.op == "get_table") {
    if (!has_table) return "get_table: no table";
    const std::string name = param("name");
    if (auto it = expected.sumys.find(name); it != expected.sumys.end()) {
      return CheckSumyTable(*response.table, it->second);
    }
    if (auto it = expected.gaps.find(name); it != expected.gaps.end()) {
      return CheckGapRelTable(*response.table, it->second);
    }
    // A write script's top-x result: recomputed in full after recovery;
    // here its shape only.
    const gea::rel::Table& t = *response.table;
    if (t.NumRows() == 0 || t.NumRows() > kTopGapX || t.NumColumns() < 3) {
      return "get_table " + name + ": " + std::to_string(t.NumRows()) +
             " rows, expected 1.." + std::to_string(kTopGapX);
    }
    for (size_t r = 0; r < t.NumRows(); ++r) {
      if (t.At(r, t.NumColumns() - 1).is_null()) {
        return "get_table " + name + ": a top gap is null";
      }
    }
    return "";
  }
  if (request.op == "top_gap") {
    const std::string want = param("gap") + "_" + param("x");
    return response.text == want ? ""
                                 : "top_gap answered " + response.text +
                                       ", expected " + want;
  }
  const std::string out = request.op == "custom_dataset" ? param("name")
                          : request.op == "aggregate"    ? param("out")
                                                         : param("gap");
  return response.text == "created " + out
             ? ""
             : request.op + " answered '" + response.text + "'";
}

namespace {

/// After the measured phase of serve_write: stop the server, close
/// storage, recover the directory into a fresh session and compare every
/// acknowledged table with the recomputation from raw counts.
void CheckDurability(const Inputs& inputs, const std::string& dir,
                     const std::vector<uint64_t>& last_acked,
                     const ServedExpectations& expected, RunResult& result) {
  AnalysisSession recovered("admin", "secret");
  (void)recovered.Login("admin", "secret", AccessLevel::kAdministrator);
  if (Status s = recovered.OpenStorage(dir); !s.ok()) {
    result.CheckFailed("recovery: " + s.ToString());
    return;
  }
  for (const auto& [name, rows] : expected.sumys) {
    auto sumy = recovered.GetSumy(name);
    std::string err = sumy.ok()
                          ? CheckSumy(**sumy, rows, kRecoveredCountPrecision)
                          : "recovery lost " + name;
    if (!err.empty()) result.CheckFailed(err);
  }
  for (const auto& [name, rows] : expected.gaps) {
    auto gap = recovered.GetGap(name);
    std::string err = gap.ok() ? CheckGapRelTable((*gap)->ToRelTable(), rows,
                                                  kRecoveredCountPrecision)
                               : "recovery lost " + name;
    if (!err.empty()) result.CheckFailed(err);
  }
  for (size_t c = 0; c < last_acked.size(); ++c) {
    if (last_acked[c] == 0) continue;  // connection never finished a script
    const uint64_t iteration = last_acked[c] - 1;
    const std::vector<int> ids = WriteScriptLibraries(inputs, c, iteration);
    const auto group = Group(inputs.libraries, ids);
    const auto normal = Group(
        inputs.libraries,
        inputs.normal_ids.at(WriteScriptTissue(c, iteration)));
    const std::vector<GapRow> diff = ExpectedDiff(group, normal);
    auto dataset = recovered.GetEnum(WriteName(c, "enum"));
    auto sumy = recovered.GetSumy(WriteName(c, "sumy"));
    auto gap = recovered.GetGap(WriteName(c, "gap"));
    auto top = recovered.GetGap(WriteName(c, "gap") + "_" +
                                std::to_string(kTopGapX));
    std::string err;
    if (!dataset.ok() || !sumy.ok() || !gap.ok() || !top.ok()) {
      err = "recovery lost a table of connection " + std::to_string(c);
    } else {
      std::vector<int> got;
      for (const gea::sage::LibraryMeta& m : (*dataset)->libraries()) {
        got.push_back(m.id);
      }
      std::sort(got.begin(), got.end());
      if (got != ids) {
        err = "recovered " + WriteName(c, "enum") +
              " holds other libraries than the last acknowledged script";
      }
      if (err.empty()) {
        err = CheckSumy(**sumy, ExpectedSumy(group), kRecoveredCountPrecision);
      }
      if (err.empty() && (*gap)->NumTags() != diff.size()) {
        err = "recovered " + WriteName(c, "gap") + " has " +
              std::to_string((*gap)->NumTags()) + " tags, expected " +
              std::to_string(diff.size());
      }
      if (err.empty()) {
        err = CheckGapValues(**gap, group, normal, kRecoveredCountPrecision);
      }
      if (err.empty()) {
        err = CheckTopGap(**top, diff, kTopGapX, kRecoveredCountPrecision);
      }
    }
    if (!err.empty()) result.CheckFailed(err);
  }
  (void)recovered.CloseStorage();
}

}  // namespace

void RunServe(const Options& options, bool writes, ReferenceKernel& kernel,
              RunResult& result) {
  gea::sage::SyntheticSage raw = Generate(options.seed);
  kernel.Run();
  result.e2e.setup_ref_ms = kernel.Run().wall_ms;
  const std::string dir = options.out_dir + "/store";
  std::filesystem::remove_all(dir);

  double clean_ms = 0.0;
  std::unique_ptr<Inputs> inputs = CleanAndIndex(std::move(raw), &clean_ms);
  const Clock::time_point setup_start = Clock::now();
  auto session = FreshSession();
  std::string err;
  if (writes) {
    gea::store::StorageOptions storage;
    storage.sync_every_record = true;
    storage.checkpoint_every_records = kCheckpointEveryRecords;
    err = ErrorOf(session->OpenStorage(dir, storage), "OpenStorage");
  }
  if (err.empty()) err = PrepareServedSession(*inputs, *session);
  gea::serve::QueryServer server(session.get());
  if (err.empty()) err = ErrorOf(server.Start(), "QueryServer::Start");
  result.e2e.setup_ms = clean_ms + MsSince(setup_start);
  if (!err.empty()) {
    result.OperationFailed("set-up: " + err);
    ++result.attempted;
    return;
  }

  const ServedExpectations expected = ExpectServedTables(*inputs);
  ScriptClients clients(*inputs, expected, writes, result);
  if (Status s = clients.Connect(server.Port()); !s.ok()) {
    result.OperationFailed("connect: " + s.ToString());
    ++result.attempted;
    return;
  }
  result.e2e.windows = MeasureWindows(
      options.seconds, kWindowMs, kernel,
      [&] { return clients.Idle() && server.GetStats().queue_depth == 0; },
      [&](double window_ms) { return clients.RunWindow(window_ms, nullptr); },
      result);
  result.e2e.peak_rss_mb = PeakRssMb();
  clients.Close();
  server.Stop();

  if (writes) {
    if (Status s = session->CloseStorage(); !s.ok()) {
      result.CheckFailed("CloseStorage: " + s.ToString());
    }
    CheckDurability(*inputs, dir, clients.LastAcked(), expected, result);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace e2ebench
