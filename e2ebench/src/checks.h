#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Output checks. Each one compares what the program returned against a
// computation made here, from the generator's raw library counts and
// metadata, never against a stored copy of earlier output. Every check
// returns an empty string when the output is right and a description of
// the first mismatch otherwise; selftest.cc feeds each one a wrong answer.
// Values compare to 1e-9 relative; `abs_tol`, where offered, adds the
// absolute precision a reference is known to have lost (see
// kRecoveredCountPrecision).

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/enum_table.h"
#include "core/gap.h"
#include "core/sumy.h"
#include "rel/table.h"
#include "sage/dataset.h"
#include "sage/generator.h"
#include "serve/protocol.h"

namespace e2ebench {

/// Libraries of the cleaned data set by id.
using LibraryIndex = std::map<int, const gea::sage::SageLibrary*>;
LibraryIndex IndexLibraries(const gea::sage::SageDataSet& dataset);

/// µ and population σ of one tag over a group of libraries, from raw counts.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Moments TagMoments(const std::vector<const gea::sage::SageLibrary*>& group,
                   gea::sage::TagId tag);

/// The gap of Fig. 3.5: (µ_hi − σ_hi) − (µ_lo + σ_lo), signed by which
/// side has the higher mean, nullopt when the bands overlap.
std::optional<double> GapOf(const Moments& a, const Moments& b);

/// Every member of `fascicle` is a cancer library in the generator's own
/// library metadata.
std::string CheckFascicleIsCancer(const gea::core::EnumTable& fascicle,
                                  const LibraryIndex& libraries);

/// At least `min_share` of the (up to) `top` largest positive gaps of a
/// cancer-vs-normal GAP are planted cancer-up tags. Sets `positives` to
/// the GAP's count of positive gaps, so the caller can require enough of
/// them across a round for the share to mean something.
std::string CheckPlantedGenes(const gea::core::GapTable& gap,
                              const std::vector<gea::sage::TagId>& planted_up,
                              size_t top, double min_share, size_t* positives);

/// Recomputes every tag of `gap` = diff(SUMY(hi_group), SUMY(lo_group))
/// from raw counts and compares within a relative tolerance.
std::string CheckGapValues(
    const gea::core::GapTable& gap,
    const std::vector<const gea::sage::SageLibrary*>& first,
    const std::vector<const gea::sage::SageLibrary*>& second,
    double abs_tol = 0.0);

/// Populate: every returned library lies inside the SUMY's [min, max] on
/// every tag; every base library left out lies outside on at least one.
std::string CheckPopulate(const gea::core::EnumTable& populated,
                          const gea::core::SumyTable& sumy,
                          const std::vector<const gea::sage::SageLibrary*>& base);

/// Gap query 2 (lower in A in both): every output tag is negative in both
/// inputs, and the count equals the count of such tags in the inputs.
std::string CheckGapQueryLowerInBoth(const gea::core::GapTable& result,
                                     const gea::core::GapTable& gap_a,
                                     const gea::core::GapTable& gap_b);

/// `SELECT Type, COUNT(*) AS n, SUM(Tag) AS total FROM Libraries GROUP BY
/// Type`: per-tissue counts equal the generator's panel and every library
/// holds the normalized depth, so total = depth × n.
std::string CheckGroupBy(const gea::rel::Table& table,
                         const std::map<std::string, int>& panel_counts,
                         double depth);

/// `SELECT Lib_ID, Utag FROM Libraries ORDER BY Utag DESC, Lib_ID LIMIT n`
/// equals this side's own sort of the data set.
std::string CheckOrderBy(const gea::rel::Table& table,
                         const gea::sage::SageDataSet& dataset, size_t limit);

/// SUMY(group) recomputed from raw counts over the group's tag universe
/// (every tag non-zero in at least one library), tag-ascending.
struct SumyRow {
  gea::sage::TagId tag = 0;
  Moments m;
};
std::vector<SumyRow> ExpectedSumy(
    const std::vector<const gea::sage::SageLibrary*>& group);

/// diff(SUMY(first), SUMY(second)) recomputed from raw counts over the
/// tags both universes share, tag-ascending.
struct GapRow {
  gea::sage::TagId tag = 0;
  Moments first;
  Moments second;
};
std::vector<GapRow> ExpectedDiff(
    const std::vector<const gea::sage::SageLibrary*>& first,
    const std::vector<const gea::sage::SageLibrary*>& second);

/// A fetched SUMY: min <= mean <= max and stddev >= 0 on every row, and
/// every row equals the recomputation.
std::string CheckSumyTable(const gea::rel::Table& table,
                           const std::vector<SumyRow>& expected);

/// A stored SUMY against the recomputation.
std::string CheckSumy(const gea::core::SumyTable& sumy,
                      const std::vector<SumyRow>& expected,
                      double abs_tol = 0.0);

/// A fetched GAP table against the recomputation.
std::string CheckGapRelTable(const gea::rel::Table& table,
                             const std::vector<GapRow>& expected,
                             double abs_tol = 0.0);

/// A stored top-x GAP against the x largest-magnitude non-null gaps of
/// the recomputation: same tags, same values.
std::string CheckTopGap(const gea::core::GapTable& top,
                        const std::vector<GapRow>& expected, size_t x,
                        double abs_tol = 0.0);

/// A traced request's stage breakdown: the server's stage total must not
/// exceed the round trip the client measured, and WAL append + fsync +
/// session-lock wait must not exceed the execute stage they sit inside.
std::string CheckStages(const gea::serve::StageBreakdown& timing,
                        double rtt_us);

/// Absolute precision of library counts that went through recovery: the
/// WAL and snapshots keep the data set as library text with six decimals
/// (workbench EncodeDataSetBlob -> sage::WriteLibraryText), so tables
/// replayed after recovery are recomputed from rounded counts.
inline constexpr double kRecoveredCountPrecision = 1e-6;

/// The libraries of `ids`, in that order.
std::vector<const gea::sage::SageLibrary*> Group(const LibraryIndex& libraries,
                                                 const std::vector<int>& ids);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
