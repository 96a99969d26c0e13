// PVC — Processor Voltage/frequency Control (paper Section 3).
//
// The controller sweeps PVC operating points (underclock x voltage
// downgrade), measures each against the stock baseline, and produces the
// trade-off curves of Figures 1-4. It can also *predict* a curve with the
// energy-aware cost model, without running the workload — the mechanism a
// DBMS would use online.

#ifndef ECODB_CORE_PVC_H_
#define ECODB_CORE_PVC_H_

#include <vector>

#include "ecodb/core/experiment.h"
#include "ecodb/optimizer/cost_model.h"

namespace ecodb {

/// One measured operating point, with ratios relative to stock.
struct OperatingPoint {
  SystemSettings settings;
  RunMeasurement measurement;
  RatioPoint ratio;
  /// The paper's theoretical EDP factor V^2/F, as a ratio to stock
  /// (Figure 4's secondary axis).
  double theoretical_edp_ratio = 1.0;
};

/// A full PVC sweep: stock + alternative points.
struct TradeoffCurve {
  OperatingPoint stock;
  std::vector<OperatingPoint> points;
};

/// One per-core settings assignment (the per-core PVC knob) and its
/// phase-level pricing from the core ledgers.
struct CoreOperatingPoint {
  std::vector<SystemSettings> core_settings;  ///< one entry per core
  ParallelPhaseSummary summary;
  double makespan_ratio = 1.0;   ///< vs. the all-stock assignment
  double dc_energy_ratio = 1.0;
  double edp_ratio = 1.0;        ///< dc_j * makespan, vs. all-stock
};

/// Per-core sweep: the all-stock assignment + alternatives.
struct CoreTradeoffCurve {
  CoreOperatingPoint stock;
  std::vector<CoreOperatingPoint> points;
};

class PvcController {
 public:
  explicit PvcController(Database* db) : db_(db) {}

  /// The paper's grid: {small, medium} x {5 %, 10 %, 15 %} underclock.
  static std::vector<SystemSettings> PaperGrid();
  /// Medium-downgrade column only (Figure 1's settings A, B, C).
  static std::vector<SystemSettings> MediumGrid();

  /// Measures the workload at stock + each grid point.
  Result<TradeoffCurve> MeasureCurve(const tpch::Workload& workload,
                                     const std::vector<SystemSettings>& grid,
                                     const RunOptions& options);

  /// Predicts the curve with the cost model (no execution). Measurement
  /// fields carry predicted seconds/cpu_j/edp; per-query times are empty.
  Result<TradeoffCurve> PredictCurve(const tpch::Workload& workload,
                                     const std::vector<SystemSettings>& grid);

  /// Per-core assignment grid: for every MediumGrid() point, one
  /// symmetric assignment (all cores at that point — slow-and-wide) and
  /// one asymmetric assignment (all cores stock except the last — one
  /// "eco core" absorbing the overflow morsels).
  static std::vector<std::vector<SystemSettings>> PerCoreGrid(int num_cores);

  /// The per-core PVC knob. Runs `workload` once on the core schedule
  /// (exec_workers = num_cores) at the machine's current settings to
  /// capture each core's raw morsel work (cycles, cache lines) from the
  /// core ledgers, then re-prices that captured work under every
  /// assignment in `grid` on a scratch machine — answering "what if core
  /// i ran at settings s" without re-running the workload. Ratios are
  /// against the all-stock assignment priced from the same capture.
  Result<CoreTradeoffCurve> MeasureCorePhaseCurve(
      const tpch::Workload& workload,
      const std::vector<std::vector<SystemSettings>>& grid);

 private:
  double TheoreticalEdp(const SystemSettings& s) const;

  Database* db_;
};

}  // namespace ecodb

#endif  // ECODB_CORE_PVC_H_
