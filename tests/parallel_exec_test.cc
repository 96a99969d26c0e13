// Simulated-core schedule suite (exec/morsel.h).
//
// exec_workers > 1 runs the same single-threaded operator tree as
// exec_workers == 1, so at ANY worker count the rows, every
// QueryExecStats field, and the simulated joules and seconds are
// bit-identical. The worker count only shapes the per-core ledgers: the
// additive concurrency view, which never perturbs the shared ledger.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"
#include "ecodb/exec/morsel.h"
#include "test_util.h"

namespace ecodb {
namespace {

void ExpectCountersEqual(const QueryExecStats& seq,
                         const QueryExecStats& par) {
  EXPECT_EQ(seq.tuples_scanned, par.tuples_scanned);
  EXPECT_EQ(seq.tuples_output, par.tuples_output);
  EXPECT_EQ(seq.comparisons, par.comparisons);
  EXPECT_EQ(seq.arith_ops, par.arith_ops);
  EXPECT_EQ(seq.hash_builds, par.hash_builds);
  EXPECT_EQ(seq.hash_probes, par.hash_probes);
  EXPECT_EQ(seq.agg_updates, par.agg_updates);
  EXPECT_EQ(seq.sort_compares, par.sort_compares);
  EXPECT_EQ(seq.spill_bytes, par.spill_bytes);
  EXPECT_EQ(seq.peak_memory_bytes, par.peak_memory_bytes);
  EXPECT_EQ(seq.dict_dedup_hits, par.dict_dedup_hits);
  EXPECT_EQ(seq.dict_dedup_misses, par.dict_dedup_misses);
  EXPECT_EQ(seq.cycles_charged, par.cycles_charged);
  EXPECT_EQ(seq.mem_lines_charged, par.mem_lines_charged);
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i])) << "row " << i;
  }
}

// --- Plan-level parity over hand-built tables ---

struct RunResult {
  std::vector<Row> rows;
  QueryExecStats stats;
  double cpu_j = 0;
  double wall_j = 0;
  double seconds = 0;
  std::vector<CoreLedger> cores;
  std::vector<CorePhase> phases;
};

class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest() {
    // Several morsels' worth of rows (kMorselRows == 8192) so the
    // schedule actually fans out, plus a build-side-sized table, plus
    // exactly six equal morsels.
    testing::MakeSimpleTable(&catalog_, "big", 40000, 7);
    testing::MakeSimpleTable(&catalog_, "small", 37, 5);
    testing::MakeSimpleTable(&catalog_, "six_morsels",
                             static_cast<int>(6 * kMorselRows), 5);
  }

  PlanNodePtr Scan(const std::string& name) {
    return MakeScan(catalog_, name).value();
  }
  ExprPtr K() { return Col(0, ValueType::kInt64, "k"); }
  ExprPtr V() { return Col(1, ValueType::kDouble, "v"); }
  ExprPtr S() { return Col(2, ValueType::kString, "s"); }

  AggSpec Agg(AggSpec::Kind kind, ExprPtr arg, const std::string& name) {
    AggSpec a;
    a.kind = kind;
    a.arg = std::move(arg);
    a.name = name;
    return a;
  }

  /// Runs `plan` on a fresh machine with `workers` simulated workers and
  /// returns everything the simulation reports about it.
  RunResult Run(const PlanNode& plan, int workers) {
    Machine machine(MachineConfig::PaperTestbed());
    EngineProfile profile = EngineProfile::MySqlMemory();
    BufferPool pool(&machine, 0);
    ExecContext ctx(&machine, &profile, &catalog_, &pool);
    ctx.set_exec_workers(workers);
    double t0 = machine.NowSeconds();
    auto rows = ExecutePlan(plan, &ctx, ExecMode::kBatch);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    ctx.Flush();
    RunResult r;
    if (rows.ok()) r.rows = std::move(rows).value();
    r.stats = ctx.stats();
    r.cpu_j = machine.ledger().cpu_j;
    r.wall_j = machine.ledger().wall_j;
    r.seconds = machine.NowSeconds() - t0;
    r.cores = machine.core_ledgers();
    r.phases = machine.core_phases();
    return r;
  }

  /// Parity across worker counts: rows, every stats field, joules and
  /// simulated seconds bit-identical to the single-worker run.
  void ExpectParallelParity(const PlanNode& plan) {
    RunResult seq = Run(plan, 1);
    for (int workers : {2, 3, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      RunResult par = Run(plan, workers);
      ExpectRowsEqual(seq.rows, par.rows);
      ExpectCountersEqual(seq.stats, par.stats);
      EXPECT_EQ(seq.cpu_j, par.cpu_j);
      EXPECT_EQ(seq.wall_j, par.wall_j);
      EXPECT_EQ(seq.seconds, par.seconds);
    }
  }

  Catalog catalog_;
};

TEST_F(ParallelExecTest, ScanOnly) { ExpectParallelParity(*Scan("big")); }

TEST_F(ParallelExecTest, FilterAtRoot) {
  ExpectParallelParity(
      *MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(11000))));
}

TEST_F(ParallelExecTest, FilterEmptyResult) {
  ExpectParallelParity(
      *MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))));
}

TEST_F(ParallelExecTest, ProjectOverFilter) {
  ExpectParallelParity(*MakeProject(
      MakeFilter(Scan("big"), Cmp(CompareOp::kGe, K(), LitInt(100))),
      {Arith(ArithOp::kMul, K(), LitInt(3)),
       Arith(ArithOp::kAdd, V(), LitDbl(0.5)), S()},
      {"k3", "v5", "s"}));
}

TEST_F(ParallelExecTest, AggregateOverSpine) {
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(33000))), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kMax, K(), "max_k")}));
}

TEST_F(ParallelExecTest, HashJoinProbeSpine) {
  // small (build) x big (probe): the probe side is the streaming spine,
  // the one-morsel build side a join_build spine.
  ExpectParallelParity(*MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}));
}

TEST_F(ParallelExecTest, HashJoinMultiMatchProbeSpine) {
  // Duplicate string keys: many matches per probe row, so output batches
  // fill mid-chain and straddle morsel boundaries.
  ExpectParallelParity(*MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}));
}

TEST_F(ParallelExecTest, NestedJoinSpineTwoBuilds) {
  // join(small2, join(small, big)): one streaming spine through two
  // probes, each build side a join_build spine of its own.
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParallelParity(
      *MakeHashJoin(Scan("small"), std::move(inner), {0}, {0}));
}

TEST_F(ParallelExecTest, ParallelBuildSide) {
  // big (build) x small (probe): the *build* subtree is the heavy spine
  // and accrues as join_build work.
  ExpectParallelParity(*MakeHashJoin(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2500))),
      Scan("small"), {0}, {0}));
}

TEST_F(ParallelExecTest, SortOverJoinSpine) {
  ExpectParallelParity(*MakeSort(
      MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}),
      {SortKey{Col(4, ValueType::kDouble, "v"), false}}));
}

TEST_F(ParallelExecTest, LimitOverStreamingSpineStaysSequential) {
  // A streaming child of Limit may stop early and gets no schedule.
  ExpectParallelParity(*MakeLimit(
      MakeFilter(Scan("big"), Cmp(CompareOp::kGe, K(), LitInt(5))), 100));
}

TEST_F(ParallelExecTest, LimitOverAggregateWrapsBelow) {
  // Materialized child of Limit: the aggregate's input is a full-drain
  // slot and is scheduled even though the limit truncates the output.
  ExpectParallelParity(*MakeLimit(
      MakeAggregate(Scan("big"), {S()},
                    {Agg(AggSpec::Kind::kCount, nullptr, "n")}),
      3));
}

TEST_F(ParallelExecTest, NestedLoopInnerSpine) {
  // The NLJ inner side is materialized at Open (full-drain slot); its
  // filter-over-big spine is scheduled as a stream.
  ExpectParallelParity(*MakeNestedLoopJoin(
      Scan("small"),
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(40))),
      Cmp(CompareOp::kEq, Col(0, ValueType::kInt64, "k"),
          Col(3, ValueType::kInt64, "k2"))));
}

TEST_F(ParallelExecTest, SameWorkerCountBitIdentical) {
  // Static morsel schedule: two runs at the same worker count are
  // bit-identical in every double the simulation reports, per-core
  // ledgers included.
  PlanNodePtr plan = MakeAggregate(
      MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}), {Col(2, ValueType::kString, "s")},
      {Agg(AggSpec::Kind::kSum, Col(4, ValueType::kDouble, "v"), "sum_v")});
  RunResult a = Run(*plan, 3);
  RunResult b = Run(*plan, 3);
  ExpectRowsEqual(a.rows, b.rows);
  EXPECT_EQ(a.stats.cycles_charged, b.stats.cycles_charged);
  EXPECT_EQ(a.stats.mem_lines_charged, b.stats.mem_lines_charged);
  EXPECT_EQ(a.cpu_j, b.cpu_j);
  EXPECT_EQ(a.wall_j, b.wall_j);
  EXPECT_EQ(a.seconds, b.seconds);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
    EXPECT_EQ(a.cores[i].busy_s, b.cores[i].busy_s);
  }
}

TEST_F(ParallelExecTest, CoreLedgersSeeWorkerWork) {
  PlanNodePtr plan =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(11000)));
  RunResult par = Run(*plan, 2);
  // PaperTestbed models 2 cores; the static schedule gives both workers
  // morsels, so both core ledgers accrue cycles.
  ASSERT_EQ(par.cores.size(), 2u);
  EXPECT_GT(par.cores[0].cycles, 0.0);
  EXPECT_GT(par.cores[1].cycles, 0.0);
  EXPECT_GT(par.cores[0].busy_s, 0.0);
  // The per-core view is a slice of the query's own charge stream (the
  // work before the first and after the last morsel stays off it).
  EXPECT_LE(par.cores[0].cycles + par.cores[1].cycles,
            par.stats.cycles_charged * (1.0 + 1e-9));
  // Sequential runs never touch the core ledgers.
  RunResult seq = Run(*plan, 1);
  EXPECT_EQ(seq.cores[0].cycles, 0.0);
  EXPECT_EQ(seq.cores[1].cycles, 0.0);
}

TEST_F(ParallelExecTest, ScheduleMapsMorselsToWorkersAndCores) {
  // Six equal morsels at W=3 on the 2-core model: morsel m runs on
  // worker m % 3, on core (m % 3) % 2, so workers 0 and 2 share core 0
  // and core 0 accrues twice core 1's cycles.
  RunResult r = Run(*Scan("six_morsels"), 3);
  ASSERT_EQ(r.cores.size(), 2u);
  ASSERT_GT(r.cores[1].cycles, 0.0);
  EXPECT_NEAR(r.cores[0].cycles / r.cores[1].cycles, 2.0, 1e-9);
  EXPECT_NEAR(r.cores[0].mem_lines / r.cores[1].mem_lines, 2.0, 1e-9);
  for (const CoreLedger& c : r.cores) {
    EXPECT_LE(c.cycles, r.stats.cycles_charged);
  }
  // One spine at the root: one "stream" phase holding all of it.
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].label, "stream");
  EXPECT_EQ(r.phases[0].ledgers[0].cycles, r.cores[0].cycles);
  // At W=2 the same morsels split evenly.
  RunResult even = Run(*Scan("six_morsels"), 2);
  EXPECT_NEAR(even.cores[0].cycles / even.cores[1].cycles, 1.0, 1e-9);
}

// --- Pipeline breakers over spines ---

TEST_F(ParallelExecTest, ParallelBuildDuplicateChainOrder) {
  // big as the BUILD side on a duplicate string key: probe matches emit
  // in build-row order and the chain walks charge identical counts.
  ExpectParallelParity(*MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}));
}

TEST_F(ParallelExecTest, ParallelBuildUnderFilterSpine) {
  // Filtered build spine: batches arrive with gaps (selection vectors).
  ExpectParallelParity(*MakeHashJoin(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2500))),
      Scan("small"), {0}, {0}));
}

TEST_F(ParallelExecTest, ParallelAggSumCountMinMax) {
  // Every accumulator kind over an agg spine.
  ExpectParallelParity(*MakeAggregate(
      Scan("big"), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kAvg, V(), "avg_v"),
       Agg(AggSpec::Kind::kCount, nullptr, "n"),
       Agg(AggSpec::Kind::kMin, K(), "min_k"),
       Agg(AggSpec::Kind::kMax, S(), "max_s")}));
}

TEST_F(ParallelExecTest, ParallelGlobalAggregate) {
  // No group keys: one global group.
  ExpectParallelParity(*MakeAggregate(
      Scan("big"), {},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kCount, nullptr, "n")}));
}

TEST_F(ParallelExecTest, ParallelAggEmptyInput) {
  // Empty input: grouped agg yields zero rows, global agg a synthetic
  // zero-count row.
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v")}));
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))), {},
      {Agg(AggSpec::Kind::kCount, nullptr, "n")}));
}

TEST_F(ParallelExecTest, ParallelSortAtRoot) {
  // Sort directly over the spine, on a duplicate-heavy string key plus a
  // descending double.
  ExpectParallelParity(
      *MakeSort(Scan("big"), {SortKey{S(), true}, SortKey{V(), false}}));
}

TEST_F(ParallelExecTest, ParallelSortEmptyInput) {
  ExpectParallelParity(*MakeSort(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))),
      {SortKey{K(), true}}));
}

TEST_F(ParallelExecTest, ParallelSortOverParallelBuildJoin) {
  // A join_build spine (big as build side) and a sort spine through the
  // probe in one plan.
  ExpectParallelParity(*MakeSort(
      MakeHashJoin(MakeFilter(Scan("big"),
                              Cmp(CompareOp::kLt, K(), LitInt(20000))),
                   Scan("big"), {0}, {0}),
      {SortKey{Col(4, ValueType::kDouble, "v"), false}}));
}

TEST_F(ParallelExecTest, BreakerMergeDeterminism) {
  // Same worker count => bit-identical doubles, with join_build and agg
  // phases in the plan.
  PlanNodePtr plan = MakeSort(
      MakeAggregate(MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}), {S()},
                    {Agg(AggSpec::Kind::kSum, V(), "sum_v")}),
      {SortKey{Col(1, ValueType::kDouble, "sum_v"), false}});
  RunResult a = Run(*plan, 8);
  RunResult b = Run(*plan, 8);
  ExpectRowsEqual(a.rows, b.rows);
  EXPECT_EQ(a.stats.cycles_charged, b.stats.cycles_charged);
  EXPECT_EQ(a.stats.mem_lines_charged, b.stats.mem_lines_charged);
  EXPECT_EQ(a.cpu_j, b.cpu_j);
  EXPECT_EQ(a.wall_j, b.wall_j);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST_F(ParallelExecTest, BreakerWorkLandsOnWorkerCores) {
  // The aggregate's per-batch accumulate work lands on the morsel's core,
  // not bulk-charged to core 0. With 2 workers on the 2-core testbed both
  // ledgers accrue, and the spine's phase mark labels it agg work.
  PlanNodePtr plan = MakeAggregate(
      Scan("big"), {S()}, {Agg(AggSpec::Kind::kSum, V(), "sum_v")});
  Machine machine(MachineConfig::PaperTestbed());
  EngineProfile profile = EngineProfile::MySqlMemory();
  BufferPool pool(&machine, 0);
  ExecContext ctx(&machine, &profile, &catalog_, &pool);
  ctx.set_exec_workers(2);
  auto rows = ExecutePlan(*plan, &ctx, ExecMode::kBatch);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<CoreLedger>& cores = machine.core_ledgers();
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_GT(cores[0].cycles, 0.0);
  EXPECT_GT(cores[1].cycles, 0.0);
  bool saw_agg_phase = false;
  for (const CorePhase& p : machine.core_phases()) {
    if (p.label == "agg") saw_agg_phase = true;
  }
  EXPECT_TRUE(saw_agg_phase);
}

TEST_F(ParallelExecTest, EligibilityRules) {
  PlanNodePtr scan = Scan("big");
  EXPECT_TRUE(MorselEligibleSpine(*scan));
  PlanNodePtr filter =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(10)));
  EXPECT_TRUE(MorselEligibleSpine(*filter));
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  EXPECT_TRUE(MorselEligibleSpine(*join));
  PlanNodePtr agg = MakeAggregate(
      Scan("big"), {S()}, {Agg(AggSpec::Kind::kCount, nullptr, "n")});
  EXPECT_FALSE(MorselEligibleSpine(*agg));
  // Build-side spines don't make the *join* a spine: eligibility follows
  // the probe child.
  PlanNodePtr sort_probe = MakeHashJoin(
      Scan("small"), MakeSort(Scan("big"), {SortKey{K(), true}}), {0}, {0});
  EXPECT_FALSE(MorselEligibleSpine(*sort_probe));
}

// --- Database-level parity over TPC-H benchmark queries ---

TEST(ParallelTpchTest, BenchmarkQueryParityAcrossWorkerCounts) {
  // Every worker count runs the query list on a fresh database, so the
  // machines start from the same state and the per-query ledger deltas
  // can be compared bit for bit.
  auto seq_db = testing::MakeTestDb();
  ASSERT_NE(seq_db, nullptr);
  auto seq_queries = tpch::BuildAllBenchmarkQueries(*seq_db->catalog());
  ASSERT_TRUE(seq_queries.ok());
  std::vector<QueryResult> seq;
  for (const auto& q : seq_queries.value()) {
    auto r = seq_db->ExecutePlanQuery(*q.plan);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    seq.push_back(std::move(r).value());
  }

  for (int workers : {2, 3, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto par_db = testing::MakeTestDb();
    ASSERT_NE(par_db, nullptr);
    par_db->set_exec_workers(workers);
    auto par_queries = tpch::BuildAllBenchmarkQueries(*par_db->catalog());
    ASSERT_TRUE(par_queries.ok());
    ASSERT_EQ(seq.size(), par_queries.value().size());

    for (size_t i = 0; i < seq.size(); ++i) {
      SCOPED_TRACE(par_queries.value()[i].name);
      auto par = par_db->ExecutePlanQuery(*par_queries.value()[i].plan);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      ExpectRowsEqual(seq[i].rows(), par.value().rows());
      ExpectCountersEqual(seq[i].exec_stats, par.value().exec_stats);
      EXPECT_EQ(seq[i].cpu_joules, par.value().cpu_joules);
      EXPECT_EQ(seq[i].wall_joules, par.value().wall_joules);
      EXPECT_EQ(seq[i].seconds, par.value().seconds);
    }
  }
}

TEST(ParallelTpchTest, GovernedQueryKeepsScheduleBitIdentical) {
  // A governed query keeps its simulated workers: a governed 8-worker run
  // is bit-identical to a governed 1-worker run and still accrues
  // per-core work.
  auto a = testing::MakeTestDb();
  auto b = testing::MakeTestDb();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  QueryLimits limits;
  limits.deadline_seconds = 1e9;  // attached but never trips
  a->set_query_limits(limits);
  b->set_query_limits(limits);
  b->set_exec_workers(8);
  auto qa = tpch::BuildQ1Plan(*a->catalog(), "1998-09-02");
  auto qb = tpch::BuildQ1Plan(*b->catalog(), "1998-09-02");
  ASSERT_TRUE(qa.ok() && qb.ok());
  auto ra = a->ExecutePlanQuery(*qa.value());
  auto rb = b->ExecutePlanQuery(*qb.value());
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().exec_stats.cycles_charged,
            rb.value().exec_stats.cycles_charged);
  EXPECT_EQ(ra.value().cpu_joules, rb.value().cpu_joules);
  ExpectRowsEqual(ra.value().rows(), rb.value().rows());
  EXPECT_EQ(a->machine()->core_ledgers()[0].cycles, 0.0);
  EXPECT_GT(b->machine()->core_ledgers()[0].cycles, 0.0);
  EXPECT_GT(b->machine()->core_ledgers()[1].cycles, 0.0);
}

TEST(ParallelTpchTest, RowModeClampsToSequential) {
  DatabaseOptions opt;
  opt.profile = EngineProfile::MySqlMemory();
  opt.exec_mode = ExecMode::kRow;
  opt.exec_workers = 8;
  Database db(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = testing::kTestSf;
  ASSERT_TRUE(db.LoadTpch(gen).ok());
  auto q = tpch::BuildQ6Plan(*db.catalog(), {});
  ASSERT_TRUE(q.ok());
  auto r = db.ExecutePlanQuery(*q.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().num_rows(), 0u);
}

}  // namespace
}  // namespace ecodb
