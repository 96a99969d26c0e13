// Batch-vs-row execution parity suite.
//
// The vectorized engine must be *indistinguishable* from the Volcano row
// engine in everything the simulation reports: identical result rows (in
// order), identical integer logical-work counters (tuples, comparisons,
// arith ops, hash builds/probes, agg updates, sort compares — these drive
// the paper's Figure 6 cost shapes), and simulated cycles/DRAM/energy
// equal up to floating-point re-association (way inside the 0.1%
// acceptance bound). Every operator and every TPC-H benchmark query is
// exercised, on both the memory-resident and the disk-backed profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "ecodb/ecodb.h"
#include "ecodb/exec/query_task.h"
#include "test_util.h"

namespace ecodb {
namespace {

// Two tolerance classes. Charged cycles/lines differ between modes only
// by fp re-association (n * x vs x + ... + x): held to 1e-9 relative.
// Machine-level time/energy additionally sees the simulator integrate
// power over differently-grouped Flush steps, which perturbs totals a few
// parts in 1e5 — the acceptance bound for energy parity is 0.1%.
constexpr double kChargeRelTol = 1e-9;
constexpr double kEnergyRelTol = 1e-3;

void ExpectNearRel(double a, double b, double tol, const char* what) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs "
                                           << b;
}

void ExpectStatsParity(const QueryExecStats& row, const QueryExecStats& batch) {
  EXPECT_EQ(row.tuples_scanned, batch.tuples_scanned);
  EXPECT_EQ(row.tuples_output, batch.tuples_output);
  EXPECT_EQ(row.comparisons, batch.comparisons);
  EXPECT_EQ(row.arith_ops, batch.arith_ops);
  EXPECT_EQ(row.hash_builds, batch.hash_builds);
  EXPECT_EQ(row.hash_probes, batch.hash_probes);
  EXPECT_EQ(row.agg_updates, batch.agg_updates);
  EXPECT_EQ(row.sort_compares, batch.sort_compares);
  EXPECT_EQ(row.spill_bytes, batch.spill_bytes);
  ExpectNearRel(row.cycles_charged, batch.cycles_charged, kChargeRelTol,
                "cycles_charged");
  ExpectNearRel(row.mem_lines_charged, batch.mem_lines_charged, kChargeRelTol,
                "mem_lines_charged");
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i])) << "row " << i;
  }
}

// --- Operator-level parity over simple tables ---

class BatchParityTest : public ::testing::Test {
 protected:
  BatchParityTest()
      : machine_(MachineConfig::PaperTestbed()),
        profile_(EngineProfile::MySqlMemory()),
        pool_(&machine_, 0) {
    // > kDefaultBatchRows rows so pipelines cross batch boundaries.
    testing::MakeSimpleTable(&catalog_, "big", 2500, 7);
    testing::MakeSimpleTable(&catalog_, "small", 37, 5);
  }

  PlanNodePtr Scan(const std::string& name) {
    return MakeScan(catalog_, name).value();
  }

  ExprPtr K() { return Col(0, ValueType::kInt64, "k"); }
  ExprPtr V() { return Col(1, ValueType::kDouble, "v"); }
  ExprPtr S() { return Col(2, ValueType::kString, "s"); }

  void ExpectParity(const PlanNode& plan) {
    ExecContext row_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto row_rows = ExecutePlan(plan, &row_ctx, ExecMode::kRow);
    ASSERT_TRUE(row_rows.ok()) << row_rows.status().ToString();

    ExecContext batch_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto batch_rows = ExecutePlan(plan, &batch_ctx, ExecMode::kBatch);
    ASSERT_TRUE(batch_rows.ok()) << batch_rows.status().ToString();

    ExpectRowsEqual(row_rows.value(), batch_rows.value());
    ExpectStatsParity(row_ctx.stats(), batch_ctx.stats());
  }

  Machine machine_;
  EngineProfile profile_;
  Catalog catalog_;
  BufferPool pool_;
};

TEST_F(BatchParityTest, SeqScan) { ExpectParity(*Scan("big")); }

TEST_F(BatchParityTest, FilterCompare) {
  ExpectParity(*MakeFilter(Scan("big"),
                           Cmp(CompareOp::kLt, K(), LitInt(1100))));
}

TEST_F(BatchParityTest, FilterAndOrShortCircuit) {
  // Mixed AND/OR chain: the lazy comparison counts depend on per-row
  // short-circuiting, the exact semantics Figure 6 relies on.
  ExprPtr pred = Or({
      Cmp(CompareOp::kLt, K(), LitInt(100)),
      And({Cmp(CompareOp::kGe, K(), LitInt(1200)),
           Cmp(CompareOp::kLt, K(), LitInt(1300))}),
      Eq(S(), LitStr("s3")),
  });
  ExpectParity(*MakeFilter(Scan("big"), pred));
}

TEST_F(BatchParityTest, FilterBetween) {
  ExpectParity(*MakeFilter(Scan("big"),
                           Between(V(), LitDbl(100.5), LitDbl(2000.25))));
}

TEST_F(BatchParityTest, FilterInListLinear) {
  std::vector<Value> vals;
  for (int i = 0; i < 6; ++i) vals.push_back(Value::Str("s" + std::to_string(i)));
  ExpectParity(*MakeFilter(Scan("big"), InList(S(), vals, /*hashed=*/false)));
}

TEST_F(BatchParityTest, FilterInListHashed) {
  std::vector<Value> vals;
  for (int i = 0; i < 6; ++i) vals.push_back(Value::Str("s" + std::to_string(i)));
  ExpectParity(*MakeFilter(Scan("big"), InList(S(), vals, /*hashed=*/true)));
}

TEST_F(BatchParityTest, FilterNot) {
  ExpectParity(*MakeFilter(Scan("big"), Not(Eq(S(), LitStr("s1")))));
}

TEST_F(BatchParityTest, ProjectArith) {
  ExpectParity(*MakeProject(
      Scan("big"),
      {Arith(ArithOp::kMul, K(), LitInt(3)),
       Arith(ArithOp::kAdd, V(), Arith(ArithOp::kDiv, V(), LitDbl(2.0))), S()},
      {"k3", "v15", "s"}));
}

TEST_F(BatchParityTest, HashJoin) {
  // small x big on k: single-match per probe row for k < 37.
  ExpectParity(*MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinMultiMatch) {
  // Join on the (duplicated) string column: many matches per probe row,
  // so batches fill mid-bucket-chain and the resume path is exercised.
  ExpectParity(*MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}));
}

TEST_F(BatchParityTest, HashJoinBuildResizeHeavy) {
  // Build side (2500 rows) far exceeds the flat table's initial slot
  // capacity, forcing several rehashes during build, with duplicate
  // string keys chained through the resizes.
  ExpectParity(*MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}));
}

TEST_F(BatchParityTest, HashJoinMultiKeyTypedProbe) {
  // Multi-column (int64, string) key hashed straight off lazily-bound
  // scan batches: the typed batch hasher must agree bit-for-bit with the
  // row-mode boxed HashRowKey.
  ExpectParity(*MakeHashJoin(Scan("small"), Scan("big"), {0, 2}, {0, 2}));
}

TEST_F(BatchParityTest, HashJoinFilteredProbe) {
  // Probe batches arrive with a narrowed selection: the up-front batch
  // hashing walks sparse positions of a lazily-bound batch.
  ExpectParity(*MakeHashJoin(
      Scan("small"),
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(700))),
      {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinEmptyBuildSide) {
  ExpectParity(*MakeHashJoin(
      MakeFilter(Scan("small"), Cmp(CompareOp::kLt, K(), LitInt(-1))),
      Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinNullProducingBuildSide) {
  // Build side is a projection whose arithmetic divides by zero at k == 5,
  // injecting NULL cells into the typed build pool: the null masks must
  // round-trip through gather emission bit-exactly in both modes.
  PlanNodePtr build = MakeProject(
      Scan("small"),
      {K(), Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5))),
       S()},
      {"k", "vdiv", "s"});
  ExpectParity(*MakeHashJoin(std::move(build), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinBuildSideIsJoinOutput) {
  // The inner join's typed-lane output feeds the outer build consumption
  // (views over lanes, strings copied into the pool).
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("small"), {0}, {0});
  ExpectParity(*MakeHashJoin(std::move(inner), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinProbeSideIsJoinOutput) {
  // The inner join's lanes are the probe side of the outer join: numeric
  // lanes gather lane-to-lane, string-ref lanes gather zero-copy (the
  // output batch retains the probe batch's arenas, so the pointers
  // survive the probe batch's replacement), and the batch key hasher
  // reads lanes directly.
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParity(*MakeHashJoin(Scan("small"), std::move(inner), {2}, {2}));
}

TEST_F(BatchParityTest, FilterAndProjectOverJoinLanes) {
  // Filter compares typed-lane columns of a join output (view-based
  // generic path), then a projection passes lanes through and computes a
  // double lane on top of them.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  PlanNodePtr filtered = MakeFilter(
      std::move(join),
      Cmp(CompareOp::kGe, Col(4, ValueType::kDouble, "bv"),
          Col(1, ValueType::kDouble, "sv")));
  ExpectParity(*MakeProject(
      std::move(filtered),
      {Col(3, ValueType::kInt64, "bk"), Col(5, ValueType::kString, "bs"),
       Arith(ArithOp::kMul, Col(4, ValueType::kDouble, "bv"), LitDbl(0.5))},
      {"bk", "bs", "half"}));
}

TEST_F(BatchParityTest, AggregateOverJoinLanes) {
  // Group keys and SUM/MIN/MAX arguments read the join's typed lanes
  // (string lane group keys hash unboxed; the SUM argument runs through
  // the raw-double path).
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = Arith(ArithOp::kMul, Col(4, ValueType::kDouble, "bv"),
                  LitDbl(2.0));
  sum.name = "sum";
  AggSpec mn;
  mn.kind = AggSpec::Kind::kMin;
  mn.arg = Col(3, ValueType::kInt64, "bk");
  mn.name = "min";
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParity(*MakeAggregate(std::move(join),
                              {Col(5, ValueType::kString, "bs")}, {sum, mn}));
}

TEST_F(BatchParityTest, NestedLoopJoinPredicate) {
  ExprPtr pred = Eq(Col(2, ValueType::kString, "ss"),
                    Col(5, ValueType::kString, "bs"));
  ExpectParity(*MakeNestedLoopJoin(Scan("small"), Scan("big"), pred));
}

TEST_F(BatchParityTest, CrossJoin) {
  ExpectParity(*MakeNestedLoopJoin(Scan("small"), Scan("small"), nullptr));
}

TEST_F(BatchParityTest, HashAggGroups) {
  auto agg = [&](AggSpec::Kind kind, const char* name) {
    AggSpec a;
    a.kind = kind;
    a.arg = K();
    a.name = name;
    return a;
  };
  AggSpec count_star;
  count_star.kind = AggSpec::Kind::kCount;
  count_star.arg = nullptr;
  count_star.name = "n";
  ExpectParity(*MakeAggregate(
      Scan("big"), {S()},
      {agg(AggSpec::Kind::kSum, "sum"), agg(AggSpec::Kind::kMin, "min"),
       agg(AggSpec::Kind::kMax, "max"), agg(AggSpec::Kind::kAvg, "avg"),
       count_star}));
}

TEST_F(BatchParityTest, GlobalAggregate) {
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = V();
  sum.name = "sum_v";
  ExpectParity(*MakeAggregate(Scan("big"), {}, {sum}));
}

TEST_F(BatchParityTest, GlobalAggregateEmptyInput) {
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  PlanNodePtr filtered =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1)));
  ExpectParity(*MakeAggregate(std::move(filtered), {}, {cnt}));
}

TEST_F(BatchParityTest, SortMultiKey) {
  ExpectParity(*MakeSort(Scan("big"),
                         {SortKey{S(), true}, SortKey{K(), false}}));
}

TEST_F(BatchParityTest, SortOverJoinLanes) {
  // Columnar sort consumes the join's typed lanes (string bytes into the
  // sort columns' arenas) and emits sorted lanes; row mode decorates
  // boxed Rows. Results and every counter must agree.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParity(*MakeSort(std::move(join),
                         {SortKey{S(), false}, SortKey{V(), true}}));
}

TEST_F(BatchParityTest, SortNullProducingKey) {
  // A sort key whose arithmetic divides by zero at k == 5: NULL keys ride
  // the key column's null mask in batch mode and must order exactly like
  // boxed Value::Null (less than everything) in row mode.
  ExprPtr key =
      Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5)));
  ExpectParity(*MakeSort(Scan("small"), {SortKey{key, true}}));
}

TEST_F(BatchParityTest, LimitOverSortOverJoinLanes) {
  // LimitOp pulls row-at-a-time even in batch mode, so the batch-consumed
  // columnar sort serves Next() by boxing from its typed columns.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParity(
      *MakeLimit(MakeSort(std::move(join), {SortKey{S(), true}}), 9));
}

TEST_F(BatchParityTest, LimitOverScan) {
  // Limit drives its child row-at-a-time in batch mode, so even the
  // early-termination tuple counts match exactly.
  ExpectParity(*MakeLimit(Scan("big"), 7));
  ExpectParity(*MakeLimit(Scan("big"), 0));
  ExpectParity(*MakeLimit(Scan("small"), 1000000));
}

TEST_F(BatchParityTest, LimitOverSort) {
  ExpectParity(*MakeLimit(MakeSort(Scan("big"), {SortKey{K(), false}}), 10));
}

TEST_F(BatchParityTest, LimitOverAggregate) {
  // The truncating batched LimitOp path: the aggregate's materialized
  // emission is pulled in capped batches. Limits below, at, and far
  // above the group count (7 distinct strings), plus 0.
  auto plan = [&](int64_t limit) {
    AggSpec sum;
    sum.kind = AggSpec::Kind::kSum;
    sum.arg = V();
    sum.name = "sum";
    AggSpec cnt;
    cnt.kind = AggSpec::Kind::kCount;
    cnt.arg = nullptr;
    cnt.name = "n";
    return MakeLimit(MakeAggregate(Scan("big"), {S()}, {sum, cnt}), limit);
  };
  ExpectParity(*plan(3));
  ExpectParity(*plan(7));
  ExpectParity(*plan(0));
  ExpectParity(*plan(1000000));
}

TEST_F(BatchParityTest, LimitOverAggregateManyGroups) {
  // More groups than one batch (2500 int64 keys), limit mid-emission:
  // the capped gather crosses a batch boundary before truncating.
  AggSpec mx;
  mx.kind = AggSpec::Kind::kMax;
  mx.arg = S();
  mx.name = "max_s";
  ExpectParity(*MakeLimit(MakeAggregate(Scan("big"), {K()}, {mx}), 1500));
}

TEST_F(BatchParityTest, LimitOverLimitOverSort) {
  // Stacked limits over a sort: each LimitOp passes the smaller of its
  // own remainder and its parent's cap down.
  ExpectParity(*MakeLimit(
      MakeLimit(MakeSort(Scan("big"), {SortKey{S(), true}}), 100), 12));
}

// --- LIMIT over streaming subtrees: capped batch pulls ---
//
// A LimitOp asks its child for at most what is left of the limit, and
// every operator below reads only input that producing that many rows
// needs, so the subtree reads exactly the rows the early-stopping row
// engine reads: every counter stays equal to row mode.

TEST_F(BatchParityTest, LimitOverLowSelectivityFilter) {
  // ~1 in 20 rows passes, limits ending mid-batch and past the input.
  for (int64_t limit : {1, 7, 60, 125, 126, 5000}) {
    SCOPED_TRACE(limit);
    ExpectParity(*MakeLimit(
        MakeFilter(Scan("big"), Cmp(CompareOp::kLt, V(), LitDbl(125.0))),
        limit));
  }
}

TEST_F(BatchParityTest, LimitOverProjectOverFilter) {
  ExpectParity(*MakeLimit(
      MakeProject(MakeFilter(Scan("big"), Eq(S(), LitStr("s3"))),
                  {Arith(ArithOp::kMul, K(), LitInt(3)), S()}, {"k3", "s"}),
      100));
}

TEST_F(BatchParityTest, LimitOverDuplicateKeyJoin) {
  // Joined on the string column: every build key repeats, so a probe row
  // has several matches (F > 1) and the limit lands mid-chain.
  for (int64_t limit : {1, 5, 333, 1500, 100000}) {
    SCOPED_TRACE(limit);
    ExpectParity(
        *MakeLimit(MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}), limit));
    ExpectParity(*MakeLimit(
        MakeFilter(MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}),
                   Cmp(CompareOp::kLt, Col(3, ValueType::kInt64, "k"),
                       LitInt(300))),
        limit));
  }
}

TEST_F(BatchParityTest, LimitOverNestedLoopJoin) {
  ExprPtr pred = Cmp(CompareOp::kLt, K(), Col(3, ValueType::kInt64, "k"));
  for (int64_t limit : {1, 20, 700, 100000}) {
    SCOPED_TRACE(limit);
    ExpectParity(*MakeLimit(
        MakeNestedLoopJoin(Scan("small"), Scan("big"), pred),
        limit));
    ExpectParity(*MakeLimit(
        MakeNestedLoopJoin(Scan("big"), Scan("small"), nullptr), limit));
  }
  // An empty inner side: both modes drain the outer child.
  ExpectParity(*MakeLimit(
      MakeNestedLoopJoin(Scan("big"),
                         MakeFilter(Scan("small"),
                                    Cmp(CompareOp::kLt, K(), LitInt(0))),
                         nullptr),
      3));
}

/// A leaf that serves batches only: Next fails the query, so a batch-mode
/// path that falls back to row pulls cannot pass unnoticed; so does a
/// pull asking for no rows. Its int64 column `k` holds keys[i] in row i;
/// it counts the rows it served.
class BatchOnlySource : public Operator {
 public:
  explicit BatchOnlySource(std::vector<int64_t> keys)
      : keys_(std::move(keys)), schema_({Field("k", ValueType::kInt64)}) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Status Next(Row*, bool*) override {
    return Status::Internal("row pull from a batch-mode plan");
  }
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    if (max_rows == 0) return Status::Internal("batch pull of 0 rows");
    out->Reset(1);
    const size_t take =
        std::min({max_rows, RowBatch::kDefaultBatchRows, keys_.size() - pos_});
    for (size_t i = 0; i < take; ++i) {
      out->AppendRowMove(Row{Value::Int(keys_[pos_++])});
    }
    *has_rows = take > 0;
    return Status::OK();
  }
  void Close() override {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "BatchOnlySource"; }

  size_t served() const { return pos_; }

 private:
  std::vector<int64_t> keys_;
  Schema schema_;
  size_t pos_ = 0;
};

/// keys[i] = i % mod for i < n.
std::vector<int64_t> ModKeys(size_t n, int64_t mod) {
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i) % mod;
  return keys;
}

class NoRowPullTest : public BatchParityTest {
 protected:
  /// Drains `root` (built on ctx_) in batch mode; returns the number of
  /// result rows.
  size_t Drain(Operator* root) {
    auto res = ExecuteOperatorColumnar(root, &ctx_, ExecMode::kBatch);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? res.value().num_rows() : 0;
  }
  OperatorPtr Source(std::vector<int64_t> keys, BatchOnlySource** handle) {
    auto src = std::make_unique<BatchOnlySource>(std::move(keys));
    *handle = src.get();
    return src;
  }
  ExecContext ctx_{&machine_, &profile_, &catalog_, &pool_};
};

TEST_F(NoRowPullTest, LimitOverFilter) {
  // k == 3 passes every 4th row; the 10th passing row is row 39, which
  // is where the row engine stops reading.
  BatchOnlySource* src = nullptr;
  LimitOp limit(&ctx_,
                std::make_unique<FilterOp>(
                    &ctx_, Source(ModKeys(5000, 4), &src),
                    Eq(Col(0, ValueType::kInt64, "k"), LitInt(3))),
                10);
  EXPECT_EQ(Drain(&limit), 10u);
  EXPECT_EQ(src->served(), 40u);
}

TEST_F(NoRowPullTest, LimitOverProject) {
  BatchOnlySource* src = nullptr;
  std::vector<ExprPtr> exprs;
  exprs.push_back(Arith(ArithOp::kAdd, Col(0, ValueType::kInt64, "k"),
                        LitInt(1)));
  LimitOp limit(&ctx_,
                std::make_unique<ProjectOp>(&ctx_,
                                            Source(ModKeys(5000, 7), &src),
                                            std::move(exprs),
                                            std::vector<std::string>{"k1"}),
                1500);
  EXPECT_EQ(Drain(&limit), 1500u);
  EXPECT_EQ(src->served(), 1500u);
}

TEST_F(NoRowPullTest, LimitOverDuplicateKeyHashJoin) {
  // Build keys {0, 0, 0, 1}: F = 4 - 2 + 1 = 3, and every probe row
  // (key 0) matches 3 build rows. 10 rows need ceil(10 / 3) = 4 probe
  // rows, and the surplus matches of the 4th stay in the chain cursor; 9
  // rows end exactly with the 3rd probe row, and nothing more is read.
  for (const auto& [rows, probe_rows] :
       {std::pair<size_t, size_t>{10, 4}, {9, 3}, {1, 1}}) {
    SCOPED_TRACE(rows);
    BatchOnlySource* build = nullptr;
    BatchOnlySource* probe = nullptr;
    LimitOp limit(&ctx_,
                  std::make_unique<HashJoinOp>(
                      &ctx_, Source({0, 0, 0, 1}, &build),
                      Source(std::vector<int64_t>(3000, 0), &probe),
                      std::vector<int>{0}, std::vector<int>{0}),
                  static_cast<int64_t>(rows));
    EXPECT_EQ(Drain(&limit), rows);
    EXPECT_EQ(build->served(), 4u);
    EXPECT_EQ(probe->served(), probe_rows);
  }
}

TEST_F(NoRowPullTest, LimitOverNestedLoopJoinWithEmptyInner) {
  // No output row exists, so both modes drain the outer child.
  BatchOnlySource* outer = nullptr;
  BatchOnlySource* inner = nullptr;
  LimitOp limit(&ctx_,
                std::make_unique<NestedLoopJoinOp>(
                    &ctx_, Source(ModKeys(3000, 5), &outer),
                    Source({}, &inner), nullptr),
                3);
  EXPECT_EQ(Drain(&limit), 0u);
  EXPECT_EQ(outer->served(), 3000u);
}

// --- Sort at the root: the ResultSet adopts the sort's columns ---

/// Every counter, exactly: the adopted and the gathered drain perform the
/// same charges in the same order, and the logical memory peak matches.
void ExpectStatsEqual(const QueryExecStats& a, const QueryExecStats& b) {
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.tuples_output, b.tuples_output);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.arith_ops, b.arith_ops);
  EXPECT_EQ(a.hash_builds, b.hash_builds);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.agg_updates, b.agg_updates);
  EXPECT_EQ(a.sort_compares, b.sort_compares);
  EXPECT_EQ(a.cycles_charged, b.cycles_charged);
  EXPECT_EQ(a.mem_lines_charged, b.mem_lines_charged);
  EXPECT_EQ(a.spill_bytes, b.spill_bytes);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
}

TEST_F(BatchParityTest, SortTakeEmissionOnlyAtABatchModeSortBeforeAnyPull) {
  auto take = [&](const PlanNode& plan, ExecMode mode, bool pull_first) {
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    ctx.set_exec_mode(mode);
    auto op = InstantiatePlan(plan, &ctx);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    EXPECT_TRUE(op.value()->Open().ok());
    if (pull_first) {
      RowBatch batch;
      bool has = false;
      EXPECT_TRUE(op.value()->NextBatch(&batch, &has, Operator::kAllRows).ok());
    }
    std::vector<TypedColumn> cols;
    size_t rows = 0;
    const bool taken = op.value()->TakeEmission(&cols, &rows);
    if (taken) {
      EXPECT_EQ(rows, 2500u);
      EXPECT_EQ(cols.size(), 3u);
      // Handed-off columns are end of stream for the operator.
      RowBatch batch;
      bool has = true;
      EXPECT_TRUE(op.value()->NextBatch(&batch, &has, Operator::kAllRows).ok());
      EXPECT_FALSE(has);
    }
    op.value()->Close();
    return taken;
  };
  PlanNodePtr sort = MakeSort(Scan("big"), {SortKey{K(), false}});
  EXPECT_TRUE(take(*sort, ExecMode::kBatch, false));
  EXPECT_FALSE(take(*sort, ExecMode::kRow, false));
  EXPECT_FALSE(take(*sort, ExecMode::kBatch, true));
  EXPECT_FALSE(take(*MakeLimit(ClonePlan(*sort), 1000000), ExecMode::kBatch,
                    false));
  EXPECT_FALSE(take(*Scan("big"), ExecMode::kBatch, false));
}

/// Runs `sort` (a Sort root) in row mode, in batch mode (the ResultSet
/// adopts the sort's columns) and as Limit(Sort) with a limit above the
/// row count (batch mode gathers through the limit). All three return
/// the same rows; the two batch runs charge exactly the same.
class SortHandoffTest : public BatchParityTest {
 protected:
  ResultSet RunAll(const PlanNode& sort) {
    EXPECT_EQ(sort.kind, PlanKind::kSort);
    ExecContext row_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto row = ExecutePlanColumnar(sort, &row_ctx, ExecMode::kRow);
    EXPECT_TRUE(row.ok()) << row.status().ToString();

    ExecContext adopt_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto adopted = ExecutePlanColumnar(sort, &adopt_ctx, ExecMode::kBatch);
    EXPECT_TRUE(adopted.ok()) << adopted.status().ToString();

    PlanNodePtr limited = MakeLimit(ClonePlan(sort), 1000000);
    ExecContext gather_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto gathered =
        ExecutePlanColumnar(*limited, &gather_ctx, ExecMode::kBatch);
    EXPECT_TRUE(gathered.ok()) << gathered.status().ToString();
    if (!row.ok() || !adopted.ok() || !gathered.ok()) return ResultSet();

    ExpectRowsEqual(row.value().rows(), adopted.value().rows());
    ExpectRowsEqual(gathered.value().rows(), adopted.value().rows());
    ExpectStatsParity(row_ctx.stats(), adopt_ctx.stats());
    EXPECT_EQ(row_ctx.stats().peak_memory_bytes,
              adopt_ctx.stats().peak_memory_bytes);
    ExpectStatsEqual(gather_ctx.stats(), adopt_ctx.stats());
    return std::move(adopted).value();
  }
};

TEST_F(SortHandoffTest, EmptyInput) {
  ResultSet res = RunAll(*MakeSort(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))),
      {SortKey{S(), true}}));
  EXPECT_EQ(res.num_rows(), 0u);
  EXPECT_EQ(res.num_cols(), 3);
}

TEST_F(SortHandoffTest, NullCarryingColumns) {
  // NULLs from a division by zero at k == 5 reach a payload column and
  // the key; the lazily allocated null mask must permute with the rows.
  ExprPtr vdiv =
      Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5)));
  ResultSet res = RunAll(*MakeSort(
      MakeProject(Scan("big"), {K(), vdiv, S()}, {"k", "vdiv", "s"}),
      {SortKey{Col(1, ValueType::kDouble, "vdiv"), true}}));
  ASSERT_EQ(res.num_rows(), 2500u);
  EXPECT_TRUE(res.At(0, 1).is_null());  // NULL sorts first
  EXPECT_EQ(res.At(0, 0).i, 5);
  EXPECT_FALSE(res.At(1, 1).is_null());
}

TEST_F(SortHandoffTest, DemotedColumnStaysBoxed) {
  // The projection declares k as DOUBLE but yields INT64 cells, so the
  // sort's column for it demotes to boxed Values on the first cell; the
  // adopted result column is that boxed column.
  ResultSet res = RunAll(*MakeSort(
      MakeProject(Scan("big"), {Col(0, ValueType::kDouble, "kd"), S()},
                  {"kd", "s"}),
      {SortKey{Col(1, ValueType::kString, "s"), true},
       SortKey{Col(0, ValueType::kDouble, "kd"), false}}));
  ASSERT_EQ(res.num_rows(), 2500u);
  EXPECT_TRUE(res.col(0).boxed());
  EXPECT_FALSE(res.col(1).boxed());
}

TEST_F(SortHandoffTest, PoolBackedStringsOutliveTheOperatorTree) {
  // Nested-loop-join output points into the join's inner pool, which dies
  // at its Close. The sort copies those strings into its own arenas, and
  // the adopted result is read after ExecutePlanColumnar destroyed the
  // tree (ASan checks every read).
  ExprPtr pred = Eq(Col(2, ValueType::kString, "ss"),
                    Col(5, ValueType::kString, "bs"));
  ResultSet res = RunAll(*MakeSort(
      MakeNestedLoopJoin(Scan("small"), Scan("big"), pred),
      {SortKey{Col(5, ValueType::kString, "bs"), false},
       SortKey{Col(3, ValueType::kInt64, "bk"), true}}));
  ASSERT_GT(res.num_rows(), 0u);
  for (size_t r = 0; r < res.num_rows(); ++r) {
    ASSERT_EQ(*res.At(r, 2).s, *res.At(r, 5).s) << "row " << r;
  }
}

TEST_F(SortHandoffTest, QueryTaskTakesTheSameStepsAsTheGather) {
  // One step opens the tree, then one per batch of at most
  // kDefaultBatchRows rows, then the final empty pull: 1 + 3 + 1 for 2500
  // rows, whether the result adopts the sort's columns or gathers them.
  PlanNodePtr sort = MakeSort(Scan("big"), {SortKey{S(), true}});
  PlanNodePtr limited = MakeLimit(ClonePlan(*sort), 1000000);
  std::vector<std::vector<Row>> results;
  for (const PlanNode* plan : {sort.get(), limited.get()}) {
    QueryTask task(plan,
                   std::make_unique<ExecContext>(&machine_, &profile_,
                                                 &catalog_, &pool_),
                   ExecMode::kBatch);
    int steps = 1;
    while (task.Step() == QueryTask::State::kRunning) ++steps;
    ASSERT_EQ(task.state(), QueryTask::State::kDone)
        << task.status().ToString();
    EXPECT_EQ(steps, 5);
    results.push_back(task.TakeResult().TakeRows());
  }
  ExpectRowsEqual(results[0], results[1]);
}

TEST_F(BatchParityTest, ScanFilterAggPipeline) {
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = Arith(ArithOp::kMul, V(), LitDbl(0.5));
  sum.name = "rev";
  ExpectParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2000))), {S()},
      {sum}));
}

// --- TPC-H query parity, both engine profiles, full energy accounting ---

class TpchBatchParityTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static EngineProfile ProfileFor(const std::string& name) {
    return name == "commercial" ? EngineProfile::Commercial()
                                : EngineProfile::MySqlMemory();
  }

  static std::unique_ptr<Database> MakeDb(ExecMode mode,
                                          const std::string& profile) {
    DatabaseOptions opt;
    opt.profile = ProfileFor(profile);
    opt.exec_mode = mode;
    auto db = std::make_unique<Database>(opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    EXPECT_TRUE(db->LoadTpch(gen).ok());
    return db;
  }
};

TEST_P(TpchBatchParityTest, AllBenchmarkQueriesMatch) {
  const std::string profile = GetParam();
  auto row_db = MakeDb(ExecMode::kRow, profile);
  auto batch_db = MakeDb(ExecMode::kBatch, profile);

  auto row_queries = tpch::BuildAllBenchmarkQueries(*row_db->catalog());
  auto batch_queries = tpch::BuildAllBenchmarkQueries(*batch_db->catalog());
  ASSERT_TRUE(row_queries.ok());
  ASSERT_TRUE(batch_queries.ok());
  ASSERT_EQ(row_queries.value().size(), batch_queries.value().size());

  for (size_t i = 0; i < row_queries.value().size(); ++i) {
    SCOPED_TRACE(row_queries.value()[i].name);
    auto row_res = row_db->ExecutePlanQuery(*row_queries.value()[i].plan);
    auto batch_res =
        batch_db->ExecutePlanQuery(*batch_queries.value()[i].plan);
    ASSERT_TRUE(row_res.ok()) << row_res.status().ToString();
    ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();

    ExpectRowsEqual(row_res.value().rows(), batch_res.value().rows());
    ExpectStatsParity(row_res.value().exec_stats,
                      batch_res.value().exec_stats);
    // Simulated time and energy: the paper-facing outputs.
    ExpectNearRel(row_res.value().seconds, batch_res.value().seconds,
                  kEnergyRelTol, "seconds");
    ExpectNearRel(row_res.value().cpu_joules, batch_res.value().cpu_joules,
                  kEnergyRelTol, "cpu_joules");
    ExpectNearRel(row_res.value().disk_joules, batch_res.value().disk_joules,
                  kEnergyRelTol, "disk_joules");
    ExpectNearRel(row_res.value().wall_joules, batch_res.value().wall_joules,
                  kEnergyRelTol, "wall_joules");
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, TpchBatchParityTest,
                         ::testing::Values("mysql_memory", "commercial"));

TEST(SortHandoffTpchTest, FullWidthLineitemSortMatchesRowModeAndTheGather) {
  // A Sort(Scan lineitem) root in row mode, in batch mode (adopted
  // columns) and under a Limit with a huge limit (batch mode, gathered),
  // each on a fresh database so the machines start identical. The two
  // batch drains charge the same amounts in the same order, so every
  // counter, joule and second matches exactly; row mode charges its
  // output per row and matches up to fp re-association, as everywhere in
  // this suite. The results borrow table strings, so the databases
  // outlive them.
  std::vector<std::unique_ptr<Database>> dbs;
  auto run = [&dbs](ExecMode mode, bool under_limit) {
    DatabaseOptions opt;
    opt.profile = EngineProfile::MySqlMemory();
    opt.exec_mode = mode;
    dbs.push_back(std::make_unique<Database>(opt));
    Database& db = *dbs.back();
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    EXPECT_TRUE(db.LoadTpch(gen).ok());
    PlanNodePtr plan = MakeScan(*db.catalog(), "lineitem").value();
    const Schema& s = plan->output_schema;
    const int price = s.FindField("l_extendedprice");
    const int key = s.FindField("l_orderkey");
    plan = MakeSort(
        std::move(plan),
        {SortKey{Col(price, ValueType::kDouble, "l_extendedprice"), false},
         SortKey{Col(key, ValueType::kInt64, "l_orderkey"), true}});
    if (under_limit) plan = MakeLimit(std::move(plan), 1000000000);
    auto res = db.ExecutePlanQuery(*plan);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return std::move(res).value();
  };
  const QueryResult row = run(ExecMode::kRow, false);
  const QueryResult adopted = run(ExecMode::kBatch, false);
  const QueryResult gathered = run(ExecMode::kBatch, true);
  ASSERT_GT(adopted.num_rows(), RowBatch::kDefaultBatchRows);

  ExpectRowsEqual(row.rows(), adopted.rows());
  ExpectStatsParity(row.exec_stats, adopted.exec_stats);
  EXPECT_EQ(row.exec_stats.peak_memory_bytes,
            adopted.exec_stats.peak_memory_bytes);
  ExpectNearRel(row.seconds, adopted.seconds, kEnergyRelTol, "seconds");
  ExpectNearRel(row.wall_joules, adopted.wall_joules, kEnergyRelTol,
                "wall_joules");

  ExpectRowsEqual(gathered.rows(), adopted.rows());
  ExpectStatsEqual(gathered.exec_stats, adopted.exec_stats);
  EXPECT_EQ(gathered.seconds, adopted.seconds);
  EXPECT_EQ(gathered.cpu_joules, adopted.cpu_joules);
  EXPECT_EQ(gathered.disk_joules, adopted.disk_joules);
  EXPECT_EQ(gathered.wall_joules, adopted.wall_joules);
  // Dedup counters are mode-dependent diagnostics; the two batch drains
  // both borrow lineitem's strings.
  EXPECT_EQ(gathered.exec_stats.dict_dedup_hits,
            adopted.exec_stats.dict_dedup_hits);
  EXPECT_EQ(gathered.exec_stats.dict_dedup_misses,
            adopted.exec_stats.dict_dedup_misses);
}

}  // namespace
}  // namespace ecodb
