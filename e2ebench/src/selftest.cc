// The benchmark's own tests: every output check accepts the program's
// right answer and rejects a deliberately wrong one, and a busy thread
// beside the reference kernel marks its timing disturbed.
//
//   python3 e2ebench/run.py --selftest

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "checks.h"
#include "core/gap_compare.h"
#include "core/populate.h"
#include "refkernel.h"
#include "sage/cleaning.h"
#include "serve/protocol.h"
#include "workbench/session.h"
#include "workloads.h"

namespace {

using namespace e2ebench;
using gea::core::GapTable;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The right answer passes, the wrong one is caught.
void ExpectCaught(const std::string& right, const std::string& wrong,
                  const std::string& what) {
  Expect(right.empty(), what + ": right answer accepted" +
                            (right.empty() ? "" : " (" + right + ")"));
  Expect(!wrong.empty(), what + ": wrong answer rejected" +
                             (wrong.empty() ? "" : " (" + wrong + ")"));
}

template <typename T>
T Must(gea::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

void Must(const gea::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

/// `gap` with the value at row `i` replaced (valid) or nulled.
GapTable WithGap(const GapTable& gap, size_t i, std::optional<double> value) {
  std::vector<double> values = gap.column_values(0);
  std::vector<uint8_t> valid = gap.column_valid(0);
  values[i] = value.value_or(0.0);
  valid[i] = value.has_value();
  return GapTable::FromColumns(gap.name(), gap.gap_columns(), gap.tags(),
                               {values}, {valid});
}

/// `table` with one cell replaced.
gea::rel::Table WithCell(const gea::rel::Table& table, size_t row, size_t col,
                         gea::rel::Value value) {
  gea::rel::Table out(table.name(), table.schema());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    gea::rel::Row cells = table.GetRow(r);
    if (r == row) cells[col] = value;
    out.AppendRowUnchecked(cells);
  }
  return out;
}

void TestReferenceIntegrity() {
  ReferenceKernel kernel;
  kernel.Run();
  const RefSample quiet = kernel.Run();
  Expect(!quiet.disturbed, "reference: a quiet process is not disturbed");
  Expect(kernel.Run([] { return false; }).disturbed,
         "reference: a request in flight marks the timing disturbed");
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    volatile uint64_t x = 0;
    while (!stop.load(std::memory_order_relaxed)) x = x + 1;
  });
  const RefSample loud = kernel.Run();
  stop = true;
  busy.join();
  Expect(loud.disturbed,
         "reference: a busy background thread marks the timing disturbed "
         "(self " + std::to_string(loud.self_cpu_ms) + " ms, thread " +
             std::to_string(loud.thread_cpu_ms) + " ms)");
}

void TestStages() {
  gea::serve::StageBreakdown t;
  t.decode_nanos = 1000;
  t.queue_nanos = 2000;
  t.execute_nanos = 10000;
  t.encode_nanos = 1000;
  t.wal_append_nanos = 3000;
  t.wal_fsync_nanos = 4000;
  t.lock_wait_nanos = 1000;
  gea::serve::StageBreakdown over = t;
  over.wal_fsync_nanos = 9000;
  ExpectCaught(CheckStages(t, 20.0), CheckStages(t, 10.0),
               "stages: server total within the client round trip");
  ExpectCaught(CheckStages(t, 20.0), CheckStages(over, 20.0),
               "stages: WAL append + fsync + lock wait within execute");
}

}  // namespace

int main() {
  TestReferenceIntegrity();
  TestStages();

  // A small data set run through the program gives the right answers.
  gea::sage::SyntheticSage synth = Generate(7);
  double clean_ms = 0.0;
  std::unique_ptr<Inputs> inputs = CleanAndIndex(std::move(synth), &clean_ms);
  gea::workbench::AnalysisSession session("admin", "secret");
  Must(session.Login("admin", "secret",
                     gea::workbench::AccessLevel::kAdministrator));
  std::vector<TissueOutputs> outputs;
  const std::string round = PipelineRound(inputs->dataset, session, &outputs);
  Expect(round.empty(), "pipeline round runs (" + round + ")");
  if (!round.empty()) return 1;
  RunResult checked;
  CheckRound(*inputs, session, outputs, checked);
  Expect(checked.Correct(), "CheckRound accepts the program's round");

  const TissueOutputs& out = outputs[0];
  const auto tissue = out.tissue;
  const auto& fascicle = *Must(session.GetEnum(out.fascicle));
  const auto& cvn = *Must(session.GetGap(out.cancer_vs_normal));
  const auto& fas_sumy = *Must(session.GetSumy(out.groups.fascicle_sumy));
  const auto& populated = *Must(session.GetEnum(out.populated));
  const auto normal = Group(inputs->libraries, inputs->normal_ids.at(tissue));
  const auto cancer = Group(inputs->libraries, inputs->cancer_ids.at(tissue));
  const auto all = Group(inputs->libraries, inputs->tissue_ids.at(tissue));
  std::vector<int> member_ids;
  for (const auto& m : fascicle.libraries()) member_ids.push_back(m.id);
  const auto members = Group(inputs->libraries, member_ids);

  // Fascicle membership: add a normal library.
  {
    std::vector<gea::sage::LibraryMeta> libs = fascicle.libraries();
    const gea::sage::SageLibrary& n = *normal[0];
    libs.push_back({n.id(), n.name(), n.tissue(), n.state(), n.source()});
    std::vector<double> values = fascicle.values();
    values.resize(values.size() + fascicle.NumTags(), 0.0);
    auto wrong = Must(gea::core::EnumTable::FromRows(
        "wrong", libs, fascicle.tags(), values));
    ExpectCaught(CheckFascicleIsCancer(fascicle, inputs->libraries),
                 CheckFascicleIsCancer(wrong, inputs->libraries),
                 "fascicle members are cancer libraries");
  }
  // Planted genes: the GAP's positive gaps moved onto unplanted tags.
  {
    std::vector<gea::sage::TagId> planted = inputs->truth.cancer_up.at(tissue);
    planted.insert(planted.end(), inputs->truth.shared_cancer_up.begin(),
                   inputs->truth.shared_cancer_up.end());
    size_t n = 0;
    const std::string right = CheckPlantedGenes(cvn, planted, 10, 0.8, &n);
    GapTable wrong = cvn;
    for (size_t i = 0; i < cvn.NumTags(); ++i) {
      const auto g = cvn.GapAt(i, 0);
      if (g && *g > 0) wrong = WithGap(wrong, i, std::nullopt);
    }
    size_t planted_rows = 0;
    for (size_t i = 0; i < cvn.NumTags() && planted_rows < 10; ++i) {
      if (std::find(planted.begin(), planted.end(), cvn.tag(i)) ==
          planted.end()) {
        wrong = WithGap(wrong, i, 1e6 + static_cast<double>(i));
        ++planted_rows;
      }
    }
    ExpectCaught(right, CheckPlantedGenes(wrong, planted, 10, 0.8, &n),
                 "top positive gaps are planted cancer-up tags");
  }
  // Gap values: one value off by 1 %, and one non-null gap nulled.
  {
    size_t i = 0;
    while (i < cvn.NumTags() && !cvn.GapAt(i, 0)) ++i;
    ExpectCaught(CheckGapValues(cvn, members, normal),
                 CheckGapValues(WithGap(cvn, i, *cvn.GapAt(i, 0) * 1.01),
                                members, normal),
                 "gap values match the recomputation");
    ExpectCaught("", CheckGapValues(WithGap(cvn, i, std::nullopt), members,
                                    normal),
                 "a non-null gap reported null is caught");
    ExpectCaught(
        CheckGapValues(cvn, members, normal, kRecoveredCountPrecision),
        CheckGapValues(WithGap(cvn, i, *cvn.GapAt(i, 0) + 1e-3), members,
                       normal, kRecoveredCountPrecision),
        "recovered gap values: 1e-3 off is beyond the stored precision");
  }
  // Populate: drop a returned library, and add one from outside.
  {
    ExpectCaught(CheckPopulate(populated, fas_sumy, all),
                 CheckPopulate(populated.MinusLibraries("wrong", fascicle),
                               fas_sumy, all),
                 "populate leaves out only libraries outside the SUMY");
    std::vector<int> ids;
    for (const auto& m : populated.libraries()) ids.push_back(m.id);
    ids.push_back(normal[0]->id());
    const gea::core::EnumTable& tissue_enum = *Must(session.GetEnum(out.name));
    ExpectCaught("", CheckPopulate(tissue_enum.SelectLibraries("wrong", ids),
                                   fas_sumy, all),
                 "populate returns only libraries inside the SUMY");
  }
  // Gap query 2: an extra tag, and a missing one.
  {
    const auto& q = *Must(session.GetGap(QueryName(0)));
    const auto& a = *Must(session.GetGap(outputs[0].cancer_vs_normal));
    const auto& b = *Must(session.GetGap(outputs[1].cancer_vs_normal));
    ExpectCaught(CheckGapQueryLowerInBoth(q, a, b),
                 CheckGapQueryLowerInBoth(a, a, b),
                 "gap query 2 keeps exactly the tags negative in both");
  }

  // Served reads against the same data set.
  gea::workbench::AnalysisSession served("admin", "secret");
  Must(served.Login("admin", "secret",
                    gea::workbench::AccessLevel::kAdministrator));
  const std::string prepared = PrepareServedSession(*inputs, served);
  Expect(prepared.empty(), "served session prepared (" + prepared + ")");
  const ServedExpectations expected = ExpectServedTables(*inputs);
  {
    const gea::rel::Table t = Must(served.Query(kGroupBySql));
    ExpectCaught(
        CheckGroupBy(t, inputs->panel_counts, gea::sage::kStandardDepth),
        CheckGroupBy(WithCell(t, 0, 1, gea::rel::Value::Int(
                                          t.At(0, 1).AsInt() + 1)),
                     inputs->panel_counts, gea::sage::kStandardDepth),
        "GROUP BY counts equal the panel");
    ExpectCaught("",
                 CheckGroupBy(WithCell(t, 0, 2, gea::rel::Value::Double(
                                                   t.At(0, 2).AsDouble() + 1)),
                              inputs->panel_counts, gea::sage::kStandardDepth),
                 "GROUP BY SUM(Tag) equals depth x count");
  }
  {
    const gea::rel::Table t = Must(served.Query(kOrderBySql));
    ExpectCaught(CheckOrderBy(t, inputs->dataset, kOrderByLimit),
                 CheckOrderBy(WithCell(t, 0, 0, t.At(1, 0)), inputs->dataset,
                              kOrderByLimit),
                 "ORDER BY equals the benchmark's own sort");
  }
  const std::string name = std::string(gea::sage::TissueTypeName(tissue));
  {
    const auto& rows = expected.sumys.at(name + "_cancer_SUMY");
    const gea::rel::Table t =
        Must(served.MaterializeAnyTable(name + "_cancer_SUMY"));
    const size_t avg = *t.schema().FindColumn("Average");
    ExpectCaught(CheckSumyTable(t, rows),
                 CheckSumyTable(WithCell(t, 0, avg, gea::rel::Value::Double(
                                                      t.At(0, avg).AsDouble() *
                                                      1.001)),
                                rows),
                 "fetched SUMY means match the raw counts");
    const size_t mx = *t.schema().FindColumn("Max");
    ExpectCaught("",
                 CheckSumyTable(WithCell(t, 0, avg, gea::rel::Value::Double(
                                                      t.At(0, mx).AsDouble() +
                                                      1)),
                                rows),
                 "fetched SUMY with mean > max is caught");
    const auto& stored = *Must(served.GetSumy(name + "_cancer_SUMY"));
    std::vector<gea::core::SumyEntry> entries = stored.entries();
    entries[0].mean += 1e-3;
    ExpectCaught(
        CheckSumy(stored, rows, kRecoveredCountPrecision),
        CheckSumy(gea::core::SumyTable::FromSortedEntries("wrong", entries),
                  rows, kRecoveredCountPrecision),
        "recovered SUMY: 1e-3 off is beyond the stored precision");
  }
  {
    const auto& rows = expected.gaps.at(name + "_GAP");
    const gea::rel::Table t = Must(served.MaterializeAnyTable(name + "_GAP"));
    size_t r = 0;
    while (r < t.NumRows() && t.At(r, 2).is_null()) ++r;
    ExpectCaught(CheckGapRelTable(t, rows),
                 CheckGapRelTable(WithCell(t, r, 2, gea::rel::Value::Double(
                                                      t.At(r, 2).AsDouble() +
                                                      1)),
                                  rows),
                 "fetched GAP matches the recomputation");
    const auto& gap = *Must(served.GetGap(name + "_GAP"));
    const GapTable top = Must(gea::core::TopGap(
        gap, kTopGapX, gea::core::TopGapMode::kLargestMagnitude, "top"));
    const GapTable wrong_top = Must(gea::core::TopGap(
        gap, kTopGapX, gea::core::TopGapMode::kLowest, "top"));
    ExpectCaught(CheckTopGap(top, rows, kTopGapX),
                 CheckTopGap(wrong_top, rows, kTopGapX),
                 "top gap keeps the largest-magnitude gaps");
  }
  // A write script's responses.
  {
    const std::vector<ScriptRequest> script = WriteScript(*inputs, 0, 0);
    gea::serve::Response created;
    created.text = "created " + script[0].params.at("name");
    gea::serve::Response other;
    other.text = "created something_else";
    ExpectCaught(CheckResponse(*inputs, expected, script[0], created),
                 CheckResponse(*inputs, expected, script[0], other),
                 "a write answers with the name it created");
  }

  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
