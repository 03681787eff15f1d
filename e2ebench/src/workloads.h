#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checks.h"
#include "measure.h"
#include "refkernel.h"
#include "sage/dataset.h"
#include "sage/generator.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workbench/session.h"

namespace e2ebench {

inline const char* const kWorkloads[] = {"pipeline", "serve_read",
                                         "serve_write"};

/// Client connections of the served workloads; also the server's worker
/// count (ServerOptions default).
inline constexpr size_t kConnections = 4;
/// Length of one measurement window.
inline constexpr double kWindowMs = 2000.0;
/// GEA's operator pool size on every side of a comparison, capped by the
/// host's cores.
inline constexpr size_t kPoolThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory inside the checkout: storage and span dumps.
  std::string out_dir;
};

/// The generated data set, cleaned by the program, plus the generator's
/// ground truth and per-tissue library ids. Holds pointers into
/// `dataset`, so it is built in place and never moved.
struct Inputs {
  gea::sage::GroundTruth truth;
  gea::sage::SageDataSet dataset;
  LibraryIndex libraries;
  std::map<std::string, int> panel_counts;  // tissue name -> libraries
  std::map<gea::sage::TissueType, std::vector<int>> cancer_ids;
  std::map<gea::sage::TissueType, std::vector<int>> normal_ids;
  std::map<gea::sage::TissueType, std::vector<int>> tissue_ids;

  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;
};

/// Generates the raw (uncleaned) nine-tissue panel at 4x libraries per
/// tissue from `seed`. Not part of any timed interval.
gea::sage::SyntheticSage Generate(uint64_t seed);
/// Cleans and normalizes through the program (the timed set-up step) and
/// indexes the result.
std::unique_ptr<Inputs> CleanAndIndex(gea::sage::SyntheticSage raw,
                                      double* clean_ms);

/// Outcome of one run: counts, check failures and measurements.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  EndToEndRun e2e;
  size_t ref_runs = 0;
  size_t ref_discarded = 0;
  std::vector<double> ref_ms;  // kept windows' reference timings
  std::vector<Figure> layers;  // traced mode only

  void CheckFailed(const std::string& what);
  void OperationFailed(const std::string& what);
  bool Correct() const;
  std::vector<std::string> Errors() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
  std::vector<std::string> failures_;
};

/// Runs measurement windows for `seconds`: before each window the
/// reference kernel is timed while `idle` holds; `window` then runs
/// operations for about `window_ms` and returns their raw figures. The
/// first window is warm-up; a window whose reference timing was disturbed
/// is discarded and counted. Returns the kept windows.
std::vector<Window> MeasureWindows(
    double seconds, double window_ms, ReferenceKernel& kernel,
    const std::function<bool()>& idle,
    const std::function<Window(double window_ms)>& window, RunResult& result);

/// Untraced workloads. Each fills result.e2e (set-up time included) and
/// result.attempted/failed, and records every failed output check.
void RunPipeline(const Options& options, ReferenceKernel& kernel,
                 RunResult& result);
void RunServe(const Options& options, bool writes, ReferenceKernel& kernel,
              RunResult& result);

/// The traced mode: per-layer figures of all three workloads into
/// result.layers, with spans written under options.out_dir.
void RunTraced(const Options& options, ReferenceKernel& kernel,
               RunResult& result);

// ---- Shared pieces of the workloads (used by the traced mode) ----

/// Names and outputs of one tissue's §4 chain in a pipeline round.
struct TissueOutputs {
  gea::sage::TissueType tissue;
  std::string name;
  std::string fascicle;     // chosen pure-cancer fascicle ENUM
  gea::workbench::AnalysisSession::ControlGroups groups;
  std::string cancer_vs_normal;   // GAP, case 1
  std::string cancer_vs_cancer;   // GAP, case 2
  std::string top;                // top-gap GAP
  std::string populated;          // populate ENUM
};

/// Hooks the traced mode uses to time each session call and the direct
/// core/cluster call on the same inputs. Untraced rounds pass none.
struct RoundProbe {
  std::function<void(const std::string& call, double ms)> session_call;
  std::function<void(gea::workbench::AnalysisSession&, const TissueOutputs&)>
      after_tissue;
};

/// One pipeline operation: fresh session, LoadDataSet, the chain on every
/// tissue, then CompareGapTables + RunGapQuery across tissue pairs.
/// Returns an error message on a failed call, empty on success.
std::string PipelineRound(gea::sage::SageDataSet dataset,
                          gea::workbench::AnalysisSession& session,
                          std::vector<TissueOutputs>* outputs,
                          const RoundProbe* probe = nullptr);

/// Output checks of one finished round (fascicles, planted genes, gap
/// values, populate, gap query 2).
void CheckRound(const Inputs& inputs,
                const gea::workbench::AnalysisSession& session,
                const std::vector<TissueOutputs>& outputs, RunResult& result);

/// A new session with the administrator logged in.
std::unique_ptr<gea::workbench::AnalysisSession> FreshSession();

/// Names of the cross-tissue comparison and query tables of a round.
std::string ComparedName(size_t pair);
std::string QueryName(size_t pair);

/// A logged-in session holding the data set plus, per tissue, the stored
/// tables the served scripts read and diff against: ENUMs
/// "<tissue>_cancer" / "<tissue>_normal", their SUMYs "<name>_SUMY", and
/// the GAP "<tissue>_GAP" = diff(cancer SUMY, normal SUMY).
std::string PrepareServedSession(const Inputs& inputs,
                                 gea::workbench::AnalysisSession& session);

/// Recomputed expectations of the stored served tables.
struct ServedExpectations {
  std::map<std::string, std::vector<SumyRow>> sumys;
  std::map<std::string, std::vector<GapRow>> gaps;
};
ServedExpectations ExpectServedTables(const Inputs& inputs);

inline constexpr const char* kGroupBySql =
    "SELECT Type, COUNT(*) AS n, SUM(Tag) AS total FROM Libraries "
    "GROUP BY Type";
inline constexpr size_t kOrderByLimit = 25;
inline constexpr const char* kOrderBySql =
    "SELECT Lib_ID, Utag FROM Libraries ORDER BY Utag DESC, Lib_ID ASC "
    "LIMIT 25";
/// Rows a served top_gap keeps.
inline constexpr size_t kTopGapX = 20;

/// One request of a served script.
struct ScriptRequest {
  std::string op;
  std::map<std::string, std::string> params;
};

/// The served scripts. serve_read: GROUP BY, ORDER BY, tables, get_table
/// of a stored SUMY and of a stored GAP. serve_write: custom_dataset,
/// aggregate, diff against a stored SUMY, top_gap, get_table of the
/// result, one SQL read. `iteration` varies the tissue and libraries.
std::vector<ScriptRequest> ReadScript(size_t connection, uint64_t iteration);
std::vector<ScriptRequest> WriteScript(const Inputs& inputs,
                                       size_t connection, uint64_t iteration);

/// The library ids a write script's custom_dataset uses, and the tissue
/// whose normal SUMY it diffs against.
std::vector<int> WriteScriptLibraries(const Inputs& inputs, size_t connection,
                                      uint64_t iteration);
gea::sage::TissueType WriteScriptTissue(size_t connection, uint64_t iteration);

/// Checks one response of a served script against the expectations; the
/// caller keeps this outside the request's timed interval.
std::string CheckResponse(const Inputs& inputs,
                          const ServedExpectations& expected,
                          const ScriptRequest& request,
                          const gea::serve::Response& response);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
