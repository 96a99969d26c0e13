// Golden-result tests for TPC-H Q1 / Q3 / Q5 / Q6.
//
// The batch-vs-row parity suite proves the two execution modes agree
// with each other — but it cannot notice both modes drifting together.
// These tests pin the exact result rows (every column, via RowToString)
// at a fixed dbgen scale factor and seed, so a kernel rewrite that
// changes answers while preserving parity fails loudly. Both execution
// modes are checked against the same goldens.
//
// The expected rows were produced by this engine at sf=0.002,
// seed=19940101 and are stable by construction: dbgen is deterministic,
// aggregation groups emit in first-occurrence order, sorts are stable,
// and join chains iterate in insertion order — none of which depends on
// the platform's std::hash.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace ecodb {
namespace {

constexpr double kGoldenSf = 0.002;
constexpr uint64_t kGoldenSeed = 19940101;

const char* const kQ1Expected[] = {
    "(A, F, 101338, 152240481.95, 144599812.7273, 150356754.7171, 25.265, "
    "37955.7422, 0.0499, 4011)",
    "(A, O, 10250, 15025861.41, 14249433.449, 14817322.0412, 26.0152, "
    "38136.7041, 0.052, 394)",
    "(N, F, 102368, 152087002.1, 144567266.8252, 150283764.2239, 25.4774, "
    "37851.4191, 0.0494, 4018)",
    "(N, O, 9414, 14020703.37, 13302575.8416, 13839400.1365, 26.2228, "
    "39054.884, 0.0516, 359)",
    "(R, F, 70805, 106522627.45, 101127201.991, 105212840.7395, 25.6169, "
    "38539.3008, 0.0505, 2764)",
    "(R, O, 6956, 10340655.83, 9863667.1947, 10249375.3973, 25.8587, "
    "38441.0997, 0.0471, 269)",
};

const char* const kQ3Expected[] = {
    "(1530, 1995-03-07, 0, 323344.4835)",
    "(2598, 1995-01-25, 0, 285399.0179)",
    "(2213, 1995-01-17, 0, 175412.3168)",
    "(2935, 1995-03-06, 0, 171206.991)",
    "(241, 1995-02-22, 0, 170960.071)",
    "(1368, 1995-02-16, 0, 157910.6809)",
    "(699, 1995-03-07, 0, 130545.8002)",
    "(2299, 1995-02-22, 0, 114485.9624)",
    "(9, 1994-12-21, 0, 109430.2846)",
    "(901, 1994-12-02, 0, 90782.2902)",
};

const char* const kQ5Expected[] = {
    "(JAPAN, 485087.7315)",
    "(CHINA, 231257.5606)",
};

const char* const kQ6Expected[] = {
    "(245657.4596)",
};

// String-returning ORDER BY: region |x| nation (string payloads cross a
// join), projected to (n_name, r_name), sorted descending on n_name,
// LIMIT 10 — in batch mode the LimitOp pulls capped batches from the
// columnar sort and truncates with the selection vector, so this golden
// pins string-ref lifetime across that truncation path. Nation and
// region contents are fixed by the TPC-H spec, so these rows are stable
// at any scale factor. Pins sort order and string payload bytes end to
// end — drift here is invisible to the parity suite, which only compares
// the modes to each other.
const char* const kStringOrderByExpected[] = {
    "(VIETNAM, ASIA)",        "(UNITED STATES, AMERICA)",
    "(UNITED KINGDOM, EUROPE)", "(SAUDI ARABIA, MIDDLE EAST)",
    "(RUSSIA, EUROPE)",       "(ROMANIA, EUROPE)",
    "(PERU, AMERICA)",        "(MOZAMBIQUE, AFRICA)",
    "(MOROCCO, AFRICA)",      "(KENYA, AFRICA)",
};

// LIMIT directly over a string-bearing join (no sort between): in batch
// mode the LimitOp pulls capped batches through the projection and the
// join, whose string lanes point into table and pool storage and must
// arrive intact. Nation/region contents are fixed
// by the TPC-H spec; the join is probe-driven, so output follows nation
// insertion order.
const char* const kLimitOverJoinStringsExpected[] = {
    "(AFRICA, ALGERIA)",      "(AMERICA, ARGENTINA)",
    "(AMERICA, BRAZIL)",      "(AMERICA, CANADA)",
    "(MIDDLE EAST, EGYPT)",   "(AFRICA, ETHIOPIA)",
    "(EUROPE, FRANCE)",
};

Result<PlanNodePtr> BuildLimitOverJoinStringsPlan(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr region, MakeScan(catalog, "region"));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr nation, MakeScan(catalog, "nation"));
  const int rk = region->output_schema.FindField("r_regionkey");
  const int nk = nation->output_schema.FindField("n_regionkey");
  PlanNodePtr joined =
      MakeHashJoin(std::move(region), std::move(nation), {rk}, {nk});
  const int r_name = joined->output_schema.FindField("r_name");
  const int n_name = joined->output_schema.FindField("n_name");
  std::vector<ExprPtr> exprs{Col(r_name, ValueType::kString, "r_name"),
                             Col(n_name, ValueType::kString, "n_name")};
  PlanNodePtr projected = MakeProject(std::move(joined), std::move(exprs),
                                      {"r_name", "n_name"});
  return MakeLimit(std::move(projected), 7);
}

Result<PlanNodePtr> BuildStringOrderByPlan(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr region, MakeScan(catalog, "region"));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr nation, MakeScan(catalog, "nation"));
  const int rk = region->output_schema.FindField("r_regionkey");
  const int nk = nation->output_schema.FindField("n_regionkey");
  PlanNodePtr joined =
      MakeHashJoin(std::move(region), std::move(nation), {rk}, {nk});
  const int n_name = joined->output_schema.FindField("n_name");
  const int r_name = joined->output_schema.FindField("r_name");
  std::vector<ExprPtr> exprs{Col(n_name, ValueType::kString, "n_name"),
                             Col(r_name, ValueType::kString, "r_name")};
  PlanNodePtr projected = MakeProject(std::move(joined), std::move(exprs),
                                      {"n_name", "r_name"});
  std::vector<SortKey> keys;
  keys.push_back(
      SortKey{Col(0, ValueType::kString, "n_name"), /*ascending=*/false});
  PlanNodePtr sorted = MakeSort(std::move(projected), std::move(keys));
  return MakeLimit(std::move(sorted), 10);
}

class TpchGoldenTest : public ::testing::TestWithParam<ExecMode> {
 protected:
  static std::unique_ptr<Database> MakeDb(ExecMode mode) {
    DatabaseOptions opt;
    opt.profile = EngineProfile::MySqlMemory();
    opt.exec_mode = mode;
    auto db = std::make_unique<Database>(opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = kGoldenSf;
    gen.seed = kGoldenSeed;
    EXPECT_TRUE(db->LoadTpch(gen).ok());
    return db;
  }

  template <size_t N>
  void ExpectGolden(Database* db, const Result<PlanNodePtr>& plan,
                    const char* const (&expected)[N]) {
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto res = db->ExecutePlanQuery(*plan.value());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const std::vector<Row>& rows = res.value().rows();
    ASSERT_EQ(rows.size(), N);
    for (size_t i = 0; i < N; ++i) {
      EXPECT_EQ(RowToString(rows[i]), expected[i]) << "row " << i;
    }
  }
};

TEST_P(TpchGoldenTest, Q1) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), tpch::BuildQ1Plan(*db->catalog(), "1998-09-02"),
               kQ1Expected);
}

TEST_P(TpchGoldenTest, Q3) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), tpch::BuildQ3Plan(*db->catalog(), tpch::Q3Params{}),
               kQ3Expected);
}

TEST_P(TpchGoldenTest, Q5) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), tpch::BuildQ5Plan(*db->catalog(), tpch::Q5Params{}),
               kQ5Expected);
}

TEST_P(TpchGoldenTest, StringOrderBy) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), BuildStringOrderByPlan(*db->catalog()),
               kStringOrderByExpected);
}

TEST_P(TpchGoldenTest, LimitOverJoinStrings) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), BuildLimitOverJoinStringsPlan(*db->catalog()),
               kLimitOverJoinStringsExpected);
}

TEST_P(TpchGoldenTest, Q6) {
  auto db = MakeDb(GetParam());
  ExpectGolden(db.get(), tpch::BuildQ6Plan(*db->catalog(), tpch::Q6Params{}),
               kQ6Expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, TpchGoldenTest,
                         ::testing::Values(ExecMode::kRow, ExecMode::kBatch),
                         [](const ::testing::TestParamInfo<ExecMode>& info) {
                           return info.param == ExecMode::kRow ? "row"
                                                               : "batch";
                         });

}  // namespace
}  // namespace ecodb
