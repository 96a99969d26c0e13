// Differential row-vs-batch fuzz harness.
//
// Generates hundreds of random physical plans over the dbgen TPC-H tables
// — scans, typed predicates (compare / BETWEEN / IN-list / AND-OR-NOT
// chains, column-vs-column and column-vs-sampled-literal), projections
// with arithmetic (including NULL-producing division), FK hash-join
// chains, nested-loop joins, group-by aggregation, sort and limit — and
// executes every plan in BOTH ExecModes AND in batch mode on the
// simulated-core schedule (ECODB_FUZZ_WORKERS workers, default 3) —
// limits over aggregates and sorts cap the breaker's emission, limits
// straight over joins, filters and scans cap every pull down to the
// scan, with limits below, at and far above the child cardinality,
// including 0 — asserting:
//
//   * identical result rows, in order;
//   * bit-exact integer logical-work counters (the parity contract every
//     kernel rewrite must preserve);
//   * simulated time and energy within 0.1% of row mode;
//   * the scheduled run bit-identical to the single-worker batch run in
//     every stats field, joule and simulated second.
//
// Each plan is derived from its own seed; on failure the seed is in every
// assertion message (SCOPED_TRACE), so a run reproduces with
// ECODB_FUZZ_SEED=<seed> (and ECODB_FUZZ_PLANS=1). ECODB_FUZZ_PLANS
// scales the number of plans (default 224).
//
// This is the acceptance gate named in docs/architecture.md: new
// operators and kernel fast paths land only if this harness stays green.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "plan_fuzzer.h"
#include "test_util.h"

namespace ecodb {
namespace {

constexpr double kChargeRelTol = 1e-9;
constexpr double kEnergyRelTol = 1e-3;

void ExpectNearRel(double a, double b, double tol, const char* what) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs "
                                           << b;
}

class BatchParityFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions row_opt;
    row_opt.profile = EngineProfile::MySqlMemory();
    row_opt.exec_mode = ExecMode::kRow;
    row_db_ = new Database(row_opt);
    DatabaseOptions batch_opt;
    batch_opt.profile = EngineProfile::MySqlMemory();
    batch_opt.exec_mode = ExecMode::kBatch;
    batch_db_ = new Database(batch_opt);
    // Third axis: batch mode on the simulated-core schedule.
    // ECODB_FUZZ_WORKERS overrides the worker count (default 3 — an odd
    // count exercises uneven static schedules).
    int workers = 3;
    if (const char* s = std::getenv("ECODB_FUZZ_WORKERS")) {
      workers = std::atoi(s);
    }
    DatabaseOptions par_opt;
    par_opt.profile = EngineProfile::MySqlMemory();
    par_opt.exec_mode = ExecMode::kBatch;
    par_opt.exec_workers = workers;
    parallel_db_ = new Database(par_opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    ASSERT_TRUE(row_db_->LoadTpch(gen).ok());
    ASSERT_TRUE(batch_db_->LoadTpch(gen).ok());
    ASSERT_TRUE(parallel_db_->LoadTpch(gen).ok());
  }
  static void TearDownTestSuite() {
    delete row_db_;
    delete batch_db_;
    delete parallel_db_;
    row_db_ = nullptr;
    batch_db_ = nullptr;
    parallel_db_ = nullptr;
  }

  /// Runs the plan `generate` makes from `seed` in every mode.
  void CheckPlanParity(uint64_t seed,
                       PlanNodePtr (testing::PlanFuzzer::*generate)()) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (rerun with ECODB_FUZZ_SEED=" + std::to_string(seed) +
                 " ECODB_FUZZ_PLANS=1)");
    testing::PlanFuzzer fuzzer(seed, *row_db_->catalog());
    PlanNodePtr plan = (fuzzer.*generate)();
    ASSERT_NE(plan, nullptr);
    SCOPED_TRACE("plan:\n" + plan->Explain());

    auto row_res = row_db_->ExecutePlanQuery(*plan);
    auto batch_res = batch_db_->ExecutePlanQuery(*plan);
    auto par_res = parallel_db_->ExecutePlanQuery(*plan);
    ASSERT_TRUE(row_res.ok()) << row_res.status().ToString();
    ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();
    ASSERT_TRUE(par_res.ok()) << par_res.status().ToString();

    const QueryResult& r = row_res.value();
    // The batch engine, with and without the core schedule, is held to
    // the same contract against the row-mode oracle.
    struct Contender {
      const char* label;
      const QueryResult* res;
    };
    const Contender contenders[] = {{"batch", &batch_res.value()},
                                    {"parallel", &par_res.value()}};
    for (const Contender& c : contenders) {
      SCOPED_TRACE(c.label);
      const QueryResult& b = *c.res;
      ASSERT_EQ(r.rows().size(), b.rows().size());
      for (size_t i = 0; i < r.rows().size(); ++i) {
        ASSERT_EQ(RowToString(r.rows()[i]), RowToString(b.rows()[i]))
            << "row " << i;
      }
      EXPECT_EQ(r.exec_stats.tuples_scanned, b.exec_stats.tuples_scanned);
      EXPECT_EQ(r.exec_stats.tuples_output, b.exec_stats.tuples_output);
      EXPECT_EQ(r.exec_stats.comparisons, b.exec_stats.comparisons);
      EXPECT_EQ(r.exec_stats.arith_ops, b.exec_stats.arith_ops);
      EXPECT_EQ(r.exec_stats.hash_builds, b.exec_stats.hash_builds);
      EXPECT_EQ(r.exec_stats.hash_probes, b.exec_stats.hash_probes);
      EXPECT_EQ(r.exec_stats.agg_updates, b.exec_stats.agg_updates);
      EXPECT_EQ(r.exec_stats.sort_compares, b.exec_stats.sort_compares);
      EXPECT_EQ(r.exec_stats.spill_bytes, b.exec_stats.spill_bytes);
      ExpectNearRel(r.exec_stats.cycles_charged, b.exec_stats.cycles_charged,
                    kChargeRelTol, "cycles_charged");
      ExpectNearRel(r.exec_stats.mem_lines_charged,
                    b.exec_stats.mem_lines_charged, kChargeRelTol,
                    "mem_lines_charged");
      ExpectNearRel(r.seconds, b.seconds, kEnergyRelTol, "seconds");
      ExpectNearRel(r.cpu_joules, b.cpu_joules, kEnergyRelTol, "cpu_joules");
      ExpectNearRel(r.disk_joules, b.disk_joules, kEnergyRelTol,
                    "disk_joules");
      ExpectNearRel(r.wall_joules, b.wall_joules, kEnergyRelTol,
                    "wall_joules");
    }
    // The schedule only adds the per-core view: everything the query
    // reports is bit-identical to the unscheduled batch run.
    const QueryResult& b = batch_res.value();
    const QueryResult& p = par_res.value();
    const QueryExecStats& bs = b.exec_stats;
    const QueryExecStats& ps = p.exec_stats;
    EXPECT_EQ(bs.tuples_scanned, ps.tuples_scanned);
    EXPECT_EQ(bs.tuples_output, ps.tuples_output);
    EXPECT_EQ(bs.comparisons, ps.comparisons);
    EXPECT_EQ(bs.arith_ops, ps.arith_ops);
    EXPECT_EQ(bs.hash_builds, ps.hash_builds);
    EXPECT_EQ(bs.hash_probes, ps.hash_probes);
    EXPECT_EQ(bs.agg_updates, ps.agg_updates);
    EXPECT_EQ(bs.sort_compares, ps.sort_compares);
    EXPECT_EQ(bs.cycles_charged, ps.cycles_charged);
    EXPECT_EQ(bs.mem_lines_charged, ps.mem_lines_charged);
    EXPECT_EQ(bs.spill_bytes, ps.spill_bytes);
    EXPECT_EQ(bs.peak_memory_bytes, ps.peak_memory_bytes);
    EXPECT_EQ(bs.dict_dedup_hits, ps.dict_dedup_hits);
    EXPECT_EQ(bs.dict_dedup_misses, ps.dict_dedup_misses);
    EXPECT_EQ(b.seconds, p.seconds);
    EXPECT_EQ(b.cpu_joules, p.cpu_joules);
    EXPECT_EQ(b.disk_joules, p.disk_joules);
    EXPECT_EQ(b.wall_joules, p.wall_joules);
  }

  static Database* row_db_;
  static Database* batch_db_;
  static Database* parallel_db_;
};

Database* BatchParityFuzzTest::row_db_ = nullptr;
Database* BatchParityFuzzTest::batch_db_ = nullptr;
Database* BatchParityFuzzTest::parallel_db_ = nullptr;

TEST_F(BatchParityFuzzTest, HundredsOfRandomPlansMatch) {
  uint64_t base_seed = 0xEC0DB0;
  size_t n_plans = 224;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_plans = std::strtoull(s, nullptr, 0);
  }
  for (size_t i = 0; i < n_plans; ++i) {
    CheckPlanParity(base_seed + i, &testing::PlanFuzzer::Generate);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every plan ends in a pipeline breaker (aggregation root, sort root, or
// both, half the time over multi-join bases), so most spines drain into
// join_build / agg / sort slots of the core schedule, at whatever
// ECODB_FUZZ_WORKERS is set to (check.sh sweeps 1, 2 and 8; the default
// run covers 3).
TEST_F(BatchParityFuzzTest, BreakerRootPlansMatch) {
  uint64_t base_seed = 0xB4EA4E4;
  size_t n_plans = 96;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_plans = std::strtoull(s, nullptr, 0);
  }
  for (size_t i = 0; i < n_plans; ++i) {
    CheckPlanParity(base_seed + i, &testing::PlanFuzzer::GenerateBreakerRoot);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every plan is a LIMIT straight over a streaming subtree: capped pulls
// through duplicate-key hash joins, nested-loop joins and low-selectivity
// filters must read exactly the rows the early-stopping row engine reads.
TEST_F(BatchParityFuzzTest, LimitedStreamPlansMatch) {
  uint64_t base_seed = 0x11A17;
  size_t n_plans = 96;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_plans = std::strtoull(s, nullptr, 0);
  }
  for (size_t i = 0; i < n_plans; ++i) {
    CheckPlanParity(base_seed + i,
                    &testing::PlanFuzzer::GenerateLimitedStream);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ecodb
