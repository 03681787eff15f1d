#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace e2ebench {

using gea::core::EnumTable;
using gea::core::GapTable;
using gea::core::SumyTable;
using gea::sage::SageLibrary;
using gea::sage::TagId;
using Libs = std::vector<const SageLibrary*>;

namespace {

/// Equal up to rounding (1e-9 relative) plus `abs_tol`, the precision
/// the caller knows its reference lost.
bool Close(double a, double b, double scale, double abs_tol = 0.0) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(scale),
                                             std::abs(a), std::abs(b)}) +
                                abs_tol;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Tags present (non-zero) in at least one library of the group.
std::set<TagId> Universe(const Libs& group) {
  std::set<TagId> tags;
  for (const SageLibrary* lib : group) {
    for (const SageLibrary::Entry& e : lib->entries()) tags.insert(e.tag);
  }
  return tags;
}

double NumberAt(const gea::rel::Table& table, size_t row, size_t col) {
  const gea::rel::Value v = table.At(row, col);
  if (v.type() == gea::rel::ValueType::kInt) {
    return static_cast<double>(v.AsInt());
  }
  if (v.type() == gea::rel::ValueType::kDouble) return v.AsDouble();
  return std::nan("");
}

/// Compares one program gap against the recomputation; `scale` bounds the
/// rounding of the subtraction that produced it.
std::string CompareGap(TagId tag, std::optional<double> got,
                       const Moments& a, const Moments& b, double abs_tol) {
  const std::optional<double> want = GapOf(a, b);
  const double scale = a.mean + a.stddev + b.mean + b.stddev;
  const bool borderline =
      std::abs((std::max(a.mean, b.mean) -
                (a.mean >= b.mean ? a.stddev : b.stddev)) -
               (std::min(a.mean, b.mean) +
                (a.mean >= b.mean ? b.stddev : a.stddev))) <=
      1e-9 * std::max(1.0, scale) + 4 * abs_tol;
  if (borderline) return "";
  if (got.has_value() != want.has_value()) {
    return "tag " + std::to_string(tag) + ": gap " +
           (got ? Num(*got) : "null") + ", recomputed " +
           (want ? Num(*want) : "null");
  }
  if (got && !Close(*got, *want, scale, 4 * abs_tol)) {
    return "tag " + std::to_string(tag) + ": gap " + Num(*got) +
           ", recomputed " + Num(*want);
  }
  return "";
}

}  // namespace

LibraryIndex IndexLibraries(const gea::sage::SageDataSet& dataset) {
  LibraryIndex index;
  for (const SageLibrary& lib : dataset.libraries()) index[lib.id()] = &lib;
  return index;
}

Libs Group(const LibraryIndex& libraries, const std::vector<int>& ids) {
  Libs group;
  for (int id : ids) {
    auto it = libraries.find(id);
    if (it != libraries.end()) group.push_back(it->second);
  }
  return group;
}

Moments TagMoments(const Libs& group, TagId tag) {
  Moments m;
  if (group.empty()) return m;
  double sum = 0.0;
  m.min = group[0]->Count(tag);
  m.max = m.min;
  for (const SageLibrary* lib : group) {
    const double v = lib->Count(tag);
    sum += v;
    m.min = std::min(m.min, v);
    m.max = std::max(m.max, v);
  }
  const double n = static_cast<double>(group.size());
  m.mean = sum / n;
  double sq = 0.0;
  for (const SageLibrary* lib : group) {
    const double d = lib->Count(tag) - m.mean;
    sq += d * d;
  }
  m.stddev = std::sqrt(sq / n);
  return m;
}

std::optional<double> GapOf(const Moments& a, const Moments& b) {
  const bool a_higher = a.mean >= b.mean;
  const Moments& hi = a_higher ? a : b;
  const Moments& lo = a_higher ? b : a;
  const double magnitude = (hi.mean - hi.stddev) - (lo.mean + lo.stddev);
  if (magnitude <= 0.0) return std::nullopt;
  return a_higher ? magnitude : -magnitude;
}

std::string CheckFascicleIsCancer(const EnumTable& fascicle,
                                  const LibraryIndex& libraries) {
  if (fascicle.NumLibraries() == 0) return fascicle.name() + " is empty";
  for (const gea::sage::LibraryMeta& meta : fascicle.libraries()) {
    auto it = libraries.find(meta.id);
    if (it == libraries.end()) {
      return fascicle.name() + ": unknown library id " +
             std::to_string(meta.id);
    }
    if (it->second->state() != gea::sage::NeoplasticState::kCancer) {
      return fascicle.name() + ": member " + it->second->name() +
             " is not a cancer library";
    }
  }
  return "";
}

std::string CheckPlantedGenes(const GapTable& gap,
                              const std::vector<TagId>& planted_up,
                              size_t top, double min_share,
                              size_t* positives) {
  std::vector<std::pair<double, TagId>> positive;
  for (size_t i = 0; i < gap.NumTags(); ++i) {
    const std::optional<double> g = gap.GapAt(i, 0);
    if (g && *g > 0.0) positive.emplace_back(*g, gap.tag(i));
  }
  std::sort(positive.begin(), positive.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  *positives = positive.size();
  if (positive.size() > top) positive.resize(top);
  const std::set<TagId> planted(planted_up.begin(), planted_up.end());
  size_t hits = 0;
  for (const auto& [value, tag] : positive) hits += planted.count(tag);
  if (static_cast<double>(hits) <
      min_share * static_cast<double>(positive.size())) {
    return gap.name() + ": " + std::to_string(hits) + " of the top " +
           std::to_string(positive.size()) +
           " positive gaps are planted cancer-up tags";
  }
  return "";
}

std::string CheckGapValues(const GapTable& gap, const Libs& first,
                           const Libs& second, double abs_tol) {
  if (gap.NumTags() == 0) return gap.name() + " is empty";
  for (size_t i = 0; i < gap.NumTags(); ++i) {
    const TagId tag = gap.tag(i);
    std::string err = CompareGap(tag, gap.GapAt(i, 0), TagMoments(first, tag),
                                 TagMoments(second, tag), abs_tol);
    if (!err.empty()) return gap.name() + ": " + err;
  }
  return "";
}

std::string CheckPopulate(const EnumTable& populated, const SumyTable& sumy,
                          const Libs& base) {
  std::set<int> returned;
  for (const gea::sage::LibraryMeta& meta : populated.libraries()) {
    returned.insert(meta.id);
  }
  for (const SageLibrary* lib : base) {
    bool inside = true;
    for (const gea::core::SumyEntry& e : sumy.entries()) {
      const double v = lib->Count(e.tag);
      if (v < e.min || v > e.max) {
        inside = false;
        break;
      }
    }
    const bool kept = returned.erase(lib->id()) > 0;
    if (kept && !inside) {
      return populated.name() + ": returned " + lib->name() +
             ", which lies outside " + sumy.name();
    }
    if (!kept && inside) {
      return populated.name() + ": left out " + lib->name() +
             ", which lies inside " + sumy.name();
    }
  }
  if (!returned.empty()) {
    return populated.name() + ": returned a library outside the base set";
  }
  return "";
}

std::string CheckGapQueryLowerInBoth(const GapTable& result,
                                     const GapTable& gap_a,
                                     const GapTable& gap_b) {
  size_t expected = 0;
  for (size_t i = 0; i < gap_a.NumTags(); ++i) {
    const std::optional<double> a = gap_a.GapAt(i, 0);
    const std::optional<double> b = gap_b.Gap(gap_a.tag(i));
    if (a && b && *a < 0.0 && *b < 0.0) ++expected;
  }
  for (size_t i = 0; i < result.NumTags(); ++i) {
    const TagId tag = result.tag(i);
    const std::optional<double> a = gap_a.Gap(tag);
    const std::optional<double> b = gap_b.Gap(tag);
    if (!a || !b || *a >= 0.0 || *b >= 0.0) {
      return result.name() + ": tag " + std::to_string(tag) +
             " is not negative in both inputs";
    }
  }
  if (result.NumTags() != expected) {
    return result.name() + ": " + std::to_string(result.NumTags()) +
           " tags, expected " + std::to_string(expected);
  }
  return "";
}

std::string CheckGroupBy(const gea::rel::Table& table,
                         const std::map<std::string, int>& panel_counts,
                         double depth) {
  const auto type = table.schema().FindColumn("Type");
  const auto n = table.schema().FindColumn("n");
  const auto total = table.schema().FindColumn("total");
  if (!type || !n || !total) return "GROUP BY: missing column";
  if (table.NumRows() != panel_counts.size()) {
    return "GROUP BY: " + std::to_string(table.NumRows()) + " groups, expected " +
           std::to_string(panel_counts.size());
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const gea::rel::Value name = table.At(r, *type);
    if (name.type() != gea::rel::ValueType::kString) return "GROUP BY: bad Type";
    auto it = panel_counts.find(name.AsString());
    if (it == panel_counts.end()) return "GROUP BY: unexpected " + name.AsString();
    const double count = NumberAt(table, r, *n);
    if (count != it->second) {
      return "GROUP BY: " + it->first + " has " + Num(count) +
             " libraries, the panel " + std::to_string(it->second);
    }
    const double want = depth * it->second;
    if (!Close(NumberAt(table, r, *total), want, want)) {
      return "GROUP BY: " + it->first + " SUM(Tag) " +
             Num(NumberAt(table, r, *total)) + ", expected " + Num(want);
    }
  }
  return "";
}

std::string CheckOrderBy(const gea::rel::Table& table,
                         const gea::sage::SageDataSet& dataset, size_t limit) {
  std::vector<std::pair<size_t, int>> own;  // (unique tags, id)
  for (const SageLibrary& lib : dataset.libraries()) {
    own.emplace_back(lib.UniqueTagCount(), lib.id());
  }
  std::sort(own.begin(), own.end(), [](const auto& a, const auto& b) {
    return std::tie(b.first, a.second) < std::tie(a.first, b.second);
  });
  if (own.size() > limit) own.resize(limit);
  const auto id = table.schema().FindColumn("Lib_ID");
  const auto utag = table.schema().FindColumn("Utag");
  if (!id || !utag) return "ORDER BY: missing column";
  if (table.NumRows() != own.size()) {
    return "ORDER BY: " + std::to_string(table.NumRows()) + " rows, expected " +
           std::to_string(own.size());
  }
  for (size_t r = 0; r < own.size(); ++r) {
    if (NumberAt(table, r, *id) != own[r].second ||
        NumberAt(table, r, *utag) != static_cast<double>(own[r].first)) {
      return "ORDER BY: row " + std::to_string(r) + " is library " +
             Num(NumberAt(table, r, *id)) + ", expected " +
             std::to_string(own[r].second);
    }
  }
  return "";
}

std::vector<SumyRow> ExpectedSumy(const Libs& group) {
  std::vector<SumyRow> rows;
  for (TagId tag : Universe(group)) rows.push_back({tag, TagMoments(group, tag)});
  return rows;
}

std::vector<GapRow> ExpectedDiff(const Libs& first, const Libs& second) {
  const std::set<TagId> ub = Universe(second);
  std::vector<GapRow> rows;
  for (TagId tag : Universe(first)) {
    if (ub.count(tag) == 0) continue;
    rows.push_back({tag, TagMoments(first, tag), TagMoments(second, tag)});
  }
  return rows;
}

std::string CheckSumyTable(const gea::rel::Table& table,
                           const std::vector<SumyRow>& expected) {
  const auto tag = table.schema().FindColumn("TagNo");
  const auto mn = table.schema().FindColumn("Min");
  const auto mx = table.schema().FindColumn("Max");
  const auto avg = table.schema().FindColumn("Average");
  const auto sd = table.schema().FindColumn("StdDev");
  if (!tag || !mn || !mx || !avg || !sd) return "SUMY: missing column";
  if (table.NumRows() != expected.size()) {
    return "SUMY " + table.name() + ": " + std::to_string(table.NumRows()) +
           " rows, expected " + std::to_string(expected.size());
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const double lo = NumberAt(table, r, *mn);
    const double hi = NumberAt(table, r, *mx);
    const double mean = NumberAt(table, r, *avg);
    const double stddev = NumberAt(table, r, *sd);
    if (!(lo <= mean && mean <= hi && stddev >= 0.0)) {
      return "SUMY " + table.name() + ": row " + std::to_string(r) +
             " breaks min <= mean <= max, stddev >= 0";
    }
    const SumyRow& want = expected[r];
    if (NumberAt(table, r, *tag) != static_cast<double>(want.tag) ||
        lo != want.m.min || hi != want.m.max ||
        !Close(mean, want.m.mean, want.m.max) ||
        !Close(stddev, want.m.stddev, want.m.max)) {
      return "SUMY " + table.name() + ": row " + std::to_string(r) +
             " (mean " + Num(mean) + ") differs from the recomputation (tag " +
             std::to_string(want.tag) + ", mean " + Num(want.m.mean) + ")";
    }
  }
  return "";
}

std::string CheckSumy(const SumyTable& sumy,
                      const std::vector<SumyRow>& expected, double abs_tol) {
  if (sumy.NumTags() != expected.size()) {
    return "SUMY " + sumy.name() + ": " + std::to_string(sumy.NumTags()) +
           " tags, expected " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const gea::core::SumyEntry& e = sumy.entry(i);
    const Moments& m = expected[i].m;
    if (e.tag != expected[i].tag || !Close(e.min, m.min, m.max, abs_tol) ||
        !Close(e.max, m.max, m.max, abs_tol) ||
        !Close(e.mean, m.mean, m.max, abs_tol) ||
        !Close(e.stddev, m.stddev, m.max, 2 * abs_tol)) {
      return "SUMY " + sumy.name() + ": tag " + std::to_string(e.tag) +
             " (min " + Num(e.min) + ", max " + Num(e.max) + ", mean " +
             Num(e.mean) + ", stddev " + Num(e.stddev) +
             ") differs from the recomputation (tag " +
             std::to_string(expected[i].tag) + ", " + Num(m.min) + ", " +
             Num(m.max) + ", " + Num(m.mean) + ", " + Num(m.stddev) + ")";
    }
  }
  return "";
}

std::string CheckGapRelTable(const gea::rel::Table& table,
                             const std::vector<GapRow>& expected,
                             double abs_tol) {
  const auto tag = table.schema().FindColumn("TagNo");
  if (!tag || table.NumColumns() < 3) return "GAP: missing column";
  if (table.NumRows() != expected.size()) {
    return "GAP " + table.name() + ": " + std::to_string(table.NumRows()) +
           " rows, expected " + std::to_string(expected.size());
  }
  const size_t gap_col = table.NumColumns() - 1;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const GapRow& want = expected[r];
    if (NumberAt(table, r, *tag) != static_cast<double>(want.tag)) {
      return "GAP " + table.name() + ": row " + std::to_string(r) +
             " is not tag " + std::to_string(want.tag);
    }
    std::optional<double> got;
    if (!table.At(r, gap_col).is_null()) got = NumberAt(table, r, gap_col);
    std::string err =
        CompareGap(want.tag, got, want.first, want.second, abs_tol);
    if (!err.empty()) return "GAP " + table.name() + ": " + err;
  }
  return "";
}

std::string CheckTopGap(const GapTable& top, const std::vector<GapRow>& expected,
                        size_t x, double abs_tol) {
  std::vector<std::pair<TagId, double>> want;
  for (const GapRow& row : expected) {
    if (std::optional<double> g = GapOf(row.first, row.second)) {
      want.emplace_back(row.tag, *g);
    }
  }
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return std::abs(a.second) > std::abs(b.second);
  });
  if (want.size() > x) want.resize(x);
  std::sort(want.begin(), want.end());
  if (top.NumTags() != want.size()) {
    return "top gap " + top.name() + ": " + std::to_string(top.NumTags()) +
           " tags, expected " + std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const std::optional<double> got = top.GapAt(i, 0);
    if (top.tag(i) != want[i].first || !got ||
        !Close(*got, want[i].second, want[i].second, 4 * abs_tol)) {
      return "top gap " + top.name() + ": entry " + std::to_string(i) +
             " differs from the recomputation";
    }
  }
  return "";
}

std::string CheckStages(const gea::serve::StageBreakdown& timing,
                        double rtt_us) {
  const double total_us = static_cast<double>(timing.TotalNanos()) / 1e3;
  if (total_us > rtt_us) {
    return "server stages total " + Num(total_us) +
           " us, more than the client's round trip of " + Num(rtt_us) + " us";
  }
  if (timing.wal_append_nanos + timing.wal_fsync_nanos +
          timing.lock_wait_nanos >
      timing.execute_nanos) {
    return "WAL append + fsync + lock wait exceed the execute stage";
  }
  return "";
}

}  // namespace e2ebench
