// Paper-figure gate: reproduces Figures 1-3, 5, 6 and Table 1 of Lang &
// Patel (CIDR 2009) through library calls at small scale, as the bench/
// harnesses do, and holds every reproduced value two ways:
//
//  - against the paper column the harnesses print, within the tolerance
//    stated next to each check (loose: the model reproduces the paper's
//    shape, not its testbed to the digit);
//  - against a pinned drift baseline at kDriftRelTol relative, so a
//    charge-model or simulator change cannot move a figure unnoticed. A
//    change that moves a figure on purpose re-pins it and says by how
//    much in CHANGES.md. The pins are the values the engine produced when
//    this gate was added; the simulation is deterministic, so they hold
//    under every build leg (SIMD on/off, sanitizers).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ecodb/core/pvc.h"
#include "ecodb/core/qed.h"
#include "test_util.h"

namespace ecodb {
namespace {

/// Scale of the TPC-H figures (the harnesses default to 0.02; every ratio
/// below moves by under 0.002 between SF 0.005 and 0.02).
constexpr double kFigureSf = 0.01;
constexpr double kDriftRelTol = 1e-4;

void ExpectPinned(const std::vector<double>& got,
                  const std::vector<double>& pinned, const char* figure) {
  ASSERT_EQ(got.size(), pinned.size()) << figure;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], pinned[i], std::fabs(pinned[i]) * kDriftRelTol)
        << figure << " value " << i << " drifted from its pinned baseline";
  }
}

TradeoffCurve MeasureQ5Curve(const EngineProfile& profile) {
  auto db = testing::MakeTestDb(profile, kFigureSf);
  EXPECT_NE(db, nullptr);
  if (db == nullptr) return {};
  auto workload = tpch::MakeQ5Workload(*db->catalog());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  if (!workload.ok()) return {};
  PvcController pvc(db.get());
  auto curve = pvc.MeasureCurve(workload.value(), PvcController::PaperGrid(),
                                RunOptions{});
  EXPECT_TRUE(curve.ok()) << curve.status().ToString();
  return curve.ok() ? curve.value() : TradeoffCurve{};
}

/// Energy, time and EDP ratio of every grid point, in grid order.
std::vector<double> CurveRatios(const TradeoffCurve& curve) {
  std::vector<double> out;
  for (const OperatingPoint& p : curve.points) {
    out.push_back(p.ratio.energy_ratio);
    out.push_back(p.ratio.time_ratio);
    out.push_back(p.ratio.edp_ratio);
  }
  return out;
}

TEST(PaperFiguresTest, Fig1And2PvcOnCommercialDbms) {
  const TradeoffCurve curve = MeasureQ5Curve(EngineProfile::Commercial());
  ASSERT_EQ(curve.points.size(), 6u);
  const RunMeasurement& stock = curve.stock.measurement;

  // Figure 1, stock: ~48.5 s and ~1229 J at SF 1.0. Within 15 % once
  // scaled linearly from kFigureSf.
  EXPECT_NEAR(stock.seconds / kFigureSf / 48.5, 1.0, 0.15);
  EXPECT_NEAR(stock.cpu_j / kFigureSf / 1229.0, 1.0, 0.15);
  // Figure 1, setting A (5 % underclock, medium downgrade = PaperGrid()[3]):
  // -49 % CPU energy for +3 % time. Within 0.03 and 0.02.
  EXPECT_NEAR(curve.points[3].ratio.energy_ratio, 0.51, 0.03);
  EXPECT_NEAR(curve.points[3].ratio.time_ratio, 1.03, 0.02);
  // Figure 2 / Section 3.3: EDP delta of each grid point, within 10
  // percentage points; every point below the iso-EDP curve.
  const double paper_edp_pct[6] = {-30, -22, -15, -47, -38, -23};
  for (size_t i = 0; i < 6; ++i) {
    const double edp = curve.points[i].ratio.edp_ratio;
    EXPECT_NEAR((edp - 1.0) * 100.0, paper_edp_pct[i], 10.0) << "point " << i;
    EXPECT_LT(edp, 1.0) << "point " << i;
  }

  std::vector<double> got = {stock.seconds, stock.cpu_j};
  const std::vector<double> ratios = CurveRatios(curve);
  got.insert(got.end(), ratios.begin(), ratios.end());
  const std::vector<double> pinned = {
      0.5402325499, 13.18534984,                 // stock s, cpu J
      0.6514669119, 1.023358552, 0.6666842357,   // uc 5 % small
      0.6808696787, 1.078518316, 0.7343304193,   // uc 10 % small
      0.770977872, 1.202024101, 0.9267339833,    // uc 15 % small
      0.4968993134, 1.023358552, 0.5085061619,   // uc 5 % medium (A)
      0.5190019893, 1.078518316, 0.5597531515,   // uc 10 % medium (B)
      0.5869613648, 1.202024101, 0.7055417068};  // uc 15 % medium (C)
  ExpectPinned(got, pinned, "Figures 1/2");
}

TEST(PaperFiguresTest, Fig3PvcOnMySql) {
  const TradeoffCurve curve = MeasureQ5Curve(EngineProfile::MySqlMemory());
  ASSERT_EQ(curve.points.size(), 6u);
  // EDP delta of each grid point, within 6 percentage points.
  const double paper_edp_pct[6] = {-7, -0.4, +9, -16, -8, 0};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR((curve.points[i].ratio.edp_ratio - 1.0) * 100.0,
                paper_edp_pct[i], 6.0)
        << "point " << i;
  }

  std::vector<double> got = {curve.stock.measurement.seconds,
                             curve.stock.measurement.cpu_j};
  const std::vector<double> ratios = CurveRatios(curve);
  got.insert(got.end(), ratios.begin(), ratios.end());
  const std::vector<double> pinned = {
      0.2472770149, 7.350681223,                 // stock s, cpu J
      0.8927115859, 1.047953147, 0.9355199161,   // uc 5 % small
      0.9010733039, 1.101234484, 0.992292995,    // uc 10 % small
      0.9105644924, 1.160784288, 1.056968956,    // uc 15 % small
      0.8003549274, 1.047953147, 0.8387344651,   // uc 5 % medium
      0.8078515728, 1.101234484, 0.88963401,     // uc 10 % medium
      0.8163608378, 1.160784288, 0.9476188336};  // uc 15 % medium
  ExpectPinned(got, pinned, "Figure 3");
}

TEST(PaperFiguresTest, Fig5DiskAccessPatterns) {
  DiskModel disk(DiskConfig::WdCaviarSe16());
  const uint64_t total = 1600ull << 20;  // 1.6 GB, as in the paper
  // Random-read throughput relative to 4 KB reads: ~1.88x / 3.5x / 6x at
  // 8 / 16 / 32 KB. Within 5 %.
  const double paper_rand_gain[4] = {1.0, 1.88, 3.5, 6.0};
  std::vector<double> got;
  double rand_base = 0;
  int i = 0;
  for (uint64_t block : {4096u, 8192u, 16384u, 32768u}) {
    const uint64_t n = total / block;
    const DiskOpCost seq = disk.ReadCost(total, n, false);
    const DiskOpCost rnd = disk.ReadCost(total, n, true);
    const double seq_tput = total / seq.total_s / (1 << 20);
    const double rnd_tput = total / rnd.total_s / (1 << 20);
    if (block == 4096) rand_base = rnd_tput;
    EXPECT_NEAR(rnd_tput / rand_base / paper_rand_gain[i], 1.0, 0.05)
        << block << " B";
    // Sequential is the more energy-efficient pattern at every size.
    const double seq_jkb =
        (seq.TotalEnergyJ() + seq.total_s * disk.IdlePowerW()) /
        (total / 1024.0);
    const double rnd_jkb =
        (rnd.TotalEnergyJ() + rnd.total_s * disk.IdlePowerW()) /
        (total / 1024.0);
    EXPECT_LT(seq_jkb, rnd_jkb) << block << " B";
    got.insert(got.end(), {seq_tput, rnd_tput, seq_jkb, rnd_jkb});
    ++i;
  }
  const std::vector<double> pinned = {
      74.83237548, 0.2972792998, 6.31425e-05, 0.02968225,        // 4 KB
      75.55609284, 0.5669448476, 6.261125e-05, 0.015229125,      // 8 KB
      75.92322643, 1.0375166, 6.2345625e-05, 0.0080025625,       // 16 KB
      76.10813444, 1.773552781, 6.22128125e-05, 0.00438928125};  // 32 KB
  ExpectPinned(got, pinned, "Figure 5");
}

TEST(PaperFiguresTest, Fig6QedBatching) {
  auto db = testing::MakeTestDb(EngineProfile::MySqlMemory(), kFigureSf);
  ASSERT_NE(db, nullptr);
  auto workload = tpch::MakeSelectionWorkload(*db->catalog(), 50, 7);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  // Per-query energy and response-time ratios at batch 35 / 40 / 50 (the
  // paper gives no point for 45). Within 0.05 and 0.1.
  struct PaperPoint {
    double energy, time;
  };
  const PaperPoint paper[4] = {{0.54, 1.52}, {0.49, 1.50}, {-1, -1},
                               {0.46, 1.43}};
  std::vector<double> got;
  int i = 0;
  for (int n : {35, 40, 45, 50}) {
    QedScheduler qed(db.get(), QedOptions{n, false});
    auto rep = qed.RunComparison(workload.value());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    const QedBatchReport& r = rep.value();
    EXPECT_TRUE(r.results_match) << "batch " << n;
    if (paper[i].energy > 0) {
      EXPECT_NEAR(r.energy_ratio, paper[i].energy, 0.05) << "batch " << n;
      EXPECT_NEAR(r.response_ratio, paper[i].time, 0.1) << "batch " << n;
    }
    got.insert(got.end(), {r.energy_ratio, r.response_ratio, r.edp_ratio,
                           r.first_query_degradation});
    ++i;
  }
  const std::vector<double> pinned = {
      0.5083394925, 1.431919141, 0.7279010494, 25.64190814,   // batch 35
      0.5010157173, 1.42486146, 0.7138779863, 29.05628348,    // batch 40
      0.4945113376, 1.418558306, 0.7014931653, 32.45350529,   // batch 45
      0.4880333875, 1.410617762, 0.6884285647, 35.78034381};  // batch 50
  ExpectPinned(got, pinned, "Figure 6");
}

TEST(PaperFiguresTest, Table1PowerBreakdown) {
  struct Stage {
    bool sys_on;
    bool has_cpu;
    int dimms;
    bool has_gpu;
    double paper_w;
  };
  const Stage stages[] = {
      {false, false, 0, false, 9.2},  // PSU+MOBO, system off
      {true, false, 0, false, 20.1},  // PSU+MOBO, system on
      {true, true, 0, false, 49.7},   // + CPU (incl. fan)
      {true, true, 1, false, 54.0},   // + 1G RAM
      {true, true, 2, false, 55.7},   // + 2G RAM
      {true, true, 2, true, 69.3},    // + GPU
  };
  std::vector<double> got;
  for (const Stage& s : stages) {
    MachineConfig cfg = MachineConfig::PaperTestbed();
    cfg.has_disk = false;
    cfg.os_running = false;
    cfg.has_cpu = s.has_cpu;
    cfg.num_dimms = s.dimms;
    cfg.has_gpu = s.has_gpu;
    Machine machine(cfg);
    const double w =
        s.sys_on ? machine.IdleWallPowerW() : machine.StandbyWallPowerW();
    // Wall watts within 3 %.
    EXPECT_NEAR(w / s.paper_w, 1.0, 0.03) << s.paper_w << " W stage";
    got.push_back(w);
  }
  const std::vector<double> pinned = {9.2,         20.46864232, 50.11106065,
                                      54.45123643, 56.08378722, 69.7505344};
  ExpectPinned(got, pinned, "Table 1");
}

}  // namespace
}  // namespace ecodb
