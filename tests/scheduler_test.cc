// WorkloadScheduler robustness contracts:
//  * circuit breaker state machine (unit level),
//  * shed-never-wrong: every completed query's rows match a solo run,
//    even when completion took transient-fault retries or QED merging,
//  * conservation: submitted = admitted + sheds + rejections, and
//    admitted = completed + failed,
//  * determinism: identical seeds give bit-identical reports,
//  * ladder-before-shedding: no shed while degradation rungs remain,
//  * retry layer: transient storms at low rates complete every admitted
//    query.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ecodb/core/scheduler.h"
#include "ecodb/ecodb.h"
#include "ecodb/exec/query_task.h"
#include "test_util.h"

namespace ecodb {
namespace {

// --- CircuitBreaker unit tests (pure state machine, no database) ---

CircuitBreakerOptions BreakerOpts(int threshold, double open_s,
                                  int probes) {
  CircuitBreakerOptions o;
  o.failure_threshold = threshold;
  o.open_seconds = open_s;
  o.half_open_probes = probes;
  return o;
}

TEST(CircuitBreakerTest, OpensAfterConsecutivePersistentFailures) {
  CircuitBreaker b(BreakerOpts(3, 1.0, 1));
  EXPECT_EQ(b.state(0.0), CircuitBreaker::State::kClosed);
  b.RecordPersistentFailure(0.0);
  b.RecordPersistentFailure(0.1);
  EXPECT_EQ(b.state(0.1), CircuitBreaker::State::kClosed);
  b.RecordPersistentFailure(0.2);
  EXPECT_EQ(b.state(0.2), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.AllowAdmission(0.2));
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_DOUBLE_EQ(b.open_until_seconds(), 1.2);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker b(BreakerOpts(2, 1.0, 1));
  b.RecordPersistentFailure(0.0);
  b.RecordSuccess(0.1);  // streak broken
  b.RecordPersistentFailure(0.2);
  EXPECT_EQ(b.state(0.3), CircuitBreaker::State::kClosed);
  b.RecordPersistentFailure(0.3);
  EXPECT_EQ(b.state(0.3), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseOrReopen) {
  CircuitBreaker b(BreakerOpts(1, 1.0, 2));
  b.RecordPersistentFailure(0.0);
  EXPECT_EQ(b.state(0.5), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.state(1.5), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.AllowAdmission(1.5));  // probes are admitted

  // First probe succeeds: still half-open (needs 2).
  b.RecordSuccess(1.5);
  EXPECT_EQ(b.state(1.6), CircuitBreaker::State::kHalfOpen);
  b.RecordSuccess(1.6);
  EXPECT_EQ(b.state(1.7), CircuitBreaker::State::kClosed);

  // Trip again; this time the probe fails -> immediate re-open.
  b.RecordPersistentFailure(2.0);
  EXPECT_EQ(b.state(3.5), CircuitBreaker::State::kHalfOpen);
  b.RecordPersistentFailure(3.5);
  EXPECT_EQ(b.state(3.6), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 3u);
  EXPECT_DOUBLE_EQ(b.open_until_seconds(), 4.5);
}

TEST(CircuitBreakerTest, FailureWhileOpenExtendsTheWindow) {
  CircuitBreaker b(BreakerOpts(1, 1.0, 1));
  b.RecordPersistentFailure(0.0);  // open until 1.0
  b.RecordPersistentFailure(0.8);  // straggler extends to 1.8
  EXPECT_EQ(b.state(1.5), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.state(1.9), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.opens(), 1u);  // an extension is not a new open
}

// --- Integration fixtures ---

std::unique_ptr<Database> MakeSchedDb(double transient, double persistent,
                                      uint64_t fault_seed = 0xFA17) {
  DatabaseOptions opt;
  opt.profile = EngineProfile::Commercial();
  // Tiny pool: the SF-0.002 tables would otherwise fit in Commercial's
  // 1 GiB pool after the first scan and injected fault rates would
  // almost never fire (faults are per *disk read*).
  opt.profile.buffer_pool_pages = 64;
  opt.fault_injection.seed = fault_seed;
  opt.fault_injection.transient_fault_rate = transient;
  opt.fault_injection.persistent_fault_rate = persistent;
  // Force every transient fault to escalate to kHardwareFault so the
  // *scheduler's* retry layer (not the buffer pool's inner loop) does
  // the recovering.
  if (transient > 0.0) opt.fault_injection.max_retries = 0;
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = testing::kTestSf;
  if (!db->LoadTpch(gen).ok()) return nullptr;
  // Cold pool: without this, scans are served from the load-warmed
  // buffer pool and the injected disk-fault rates never fire.
  db->ColdRestart();
  return db;
}

SchedulerOptions BaseOptions() {
  SchedulerOptions opt;
  opt.seed = 0x5EED1;
  opt.worker_slots = 2;
  opt.max_queue_depth = 8;
  return opt;
}

bool RowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].Compare(b[i][j]) != 0) return false;
    }
  }
  return true;
}

void CheckConservation(const ScheduleReport& r, size_t num_specs) {
  EXPECT_EQ(r.submitted, num_specs);
  EXPECT_EQ(r.submitted, r.admitted + r.shed_queue_full +
                             r.shed_projected_wait + r.breaker_rejected);
  EXPECT_EQ(r.admitted, r.completed + r.failed);
  EXPECT_EQ(r.outcomes.size(), num_specs);
}

// --- Shed-never-wrong: completed rows match fault-free solo runs ---

TEST(SchedulerTest, CompletedRowsMatchSoloRunsUnderFaultsAndMerging) {
  // Scheduler DB with transient faults; solo DB fault-free. Identical
  // content (same dbgen), so completed rows must agree exactly.
  auto sched_db = MakeSchedDb(/*transient=*/1e-3, /*persistent=*/0.0);
  auto solo_db = MakeSchedDb(0.0, 0.0);
  ASSERT_NE(sched_db, nullptr);
  ASSERT_NE(solo_db, nullptr);

  const int kN = 24;
  auto wl = tpch::MakeSchedulerMixWorkload(*sched_db->catalog(), kN, 0x77,
                                           /*selection_fraction=*/0.8);
  auto solo_wl = tpch::MakeSchedulerMixWorkload(*solo_db->catalog(), kN,
                                                0x77, 0.8);
  ASSERT_TRUE(wl.ok() && solo_wl.ok());

  SchedulerOptions opt = BaseOptions();
  // High enough arrival rate that merging happens; generous class with
  // no deadline so nothing is governor-killed.
  WorkloadScheduler sched(sched_db.get(), opt);
  auto report = sched.Run(
      WorkloadScheduler::SpecsFromWorkload(wl.value()),
      ArrivalProcess::OpenLoop(/*qps=*/200.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, kN);
  EXPECT_GT(r.completed, 0u);

  for (int i = 0; i < kN; ++i) {
    const QueryOutcome& out = r.outcomes[static_cast<size_t>(i)];
    if (!out.status.ok()) {
      // Only sheds are acceptable non-completions here: transient
      // faults must be healed by the retry layer.
      EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
      continue;
    }
    auto solo = solo_db->ExecutePlanQuery(
        *solo_wl.value().queries[static_cast<size_t>(i)]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    EXPECT_TRUE(RowsEqual(out.rows, solo.value().rows()))
        << "query " << i << " (merged=" << out.merged
        << ", attempts=" << out.attempts << ")";
  }
}

// --- One drain: a scheduled query reports what a solo run reports ---

TEST(SchedulerTest, QueryTaskReportsDictDedupCountersLikeExecutePlanQuery) {
  // QueryTask (the scheduler's unit of work) and ExecutePlanQuery drive
  // the same ResultDrain, so a string-result query's result-surface dedup
  // counters agree, as do the rows and every logical-work counter.
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(
      "SELECT n_name, r_name FROM nation, region "
      "WHERE n_regionkey < r_regionkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto solo = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  const QueryExecStats& want = solo.value().exec_stats;
  ASSERT_GT(want.dict_dedup_hits + want.dict_dedup_misses, 0u);

  QueryTask task(plan.value().get(), db->MakeExecContext(),
                 db->options().exec_mode);
  while (task.Step() == QueryTask::State::kRunning) {
  }
  ASSERT_EQ(task.state(), QueryTask::State::kDone)
      << task.status().ToString();
  EXPECT_EQ(task.stats().dict_dedup_hits, want.dict_dedup_hits);
  EXPECT_EQ(task.stats().dict_dedup_misses, want.dict_dedup_misses);
  EXPECT_EQ(task.stats().tuples_output, want.tuples_output);
  EXPECT_EQ(task.stats().sort_compares, want.sort_compares);
  EXPECT_EQ(task.stats().comparisons, want.comparisons);
  EXPECT_TRUE(RowsEqual(task.TakeResult().TakeRows(), solo.value().rows()));
}

// --- Retry layer: low transient rate completes every admitted query ---

TEST(SchedulerTest, TransientFaultsAreRetriedToCompletion) {
  auto db = MakeSchedDb(/*transient=*/1e-3, /*persistent=*/0.0);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 20, 0x31, 0.5);
  ASSERT_TRUE(wl.ok());

  SchedulerOptions opt = BaseOptions();
  opt.max_queue_depth = 64;  // roomy: nothing shed, isolate the retries
  WorkloadScheduler sched(db.get(), opt);
  auto report = sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                          ArrivalProcess::OpenLoop(50.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, 20);
  EXPECT_GT(r.retries, 0u);  // the fault rate really fired
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.completed, r.admitted);
  for (const QueryOutcome& out : r.outcomes) {
    if (out.status.ok()) {
      EXPECT_GE(out.attempts, 1);
    }
  }
}

// --- Determinism: same seed, bit-identical report ---

TEST(SchedulerTest, RunsAreBitIdenticalForTheSameSeed) {
  ScheduleReport reports[2];
  for (int run = 0; run < 2; ++run) {
    auto db = MakeSchedDb(/*transient=*/5e-3, /*persistent=*/1e-4);
    ASSERT_NE(db, nullptr);
    auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 30, 0x99, 0.7);
    ASSERT_TRUE(wl.ok());
    SchedulerOptions opt = BaseOptions();
    WorkloadScheduler sched(db.get(), opt);
    auto report =
        sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                  ArrivalProcess::OpenLoop(150.0));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports[run] = std::move(report.value());
  }
  const ScheduleReport& a = reports[0];
  const ScheduleReport& b = reports[1];
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.merged_batches, b.merged_batches);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);  // bit-identical
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.total_wall_j, b.total_wall_j);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].status.code(), b.outcomes[i].status.code()) << i;
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts) << i;
    EXPECT_EQ(a.outcomes[i].latency_seconds, b.outcomes[i].latency_seconds)
        << i;
  }
}

// --- Ladder before shedding ---

TEST(SchedulerTest, OverloadClimbsTheLadderBeforeShedding) {
  auto db = MakeSchedDb(0.0, 0.0);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 60, 0x42, 0.9);
  ASSERT_TRUE(wl.ok());

  SchedulerOptions opt = BaseOptions();
  opt.worker_slots = 1;
  opt.max_queue_depth = 4;  // tiny: overload immediately
  WorkloadScheduler sched(db.get(), opt);
  auto report = sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                          ArrivalProcess::OpenLoop(2000.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, 60);

  // The flood must have pushed the ladder to its top and triggered QED
  // merging on the way.
  EXPECT_EQ(r.max_level_reached, opt.degradation.MaxLevel());
  EXPECT_GT(r.escalations, 0u);
  EXPECT_GT(r.merged_batches, 0u);
  // Sheds happened (the flood exceeds capacity) but never while rungs
  // remained.
  EXPECT_GT(r.shed_queue_full + r.shed_projected_wait, 0u);
  EXPECT_EQ(r.sheds_below_max_level, 0u);
  // Operating point restored after the run.
  EXPECT_TRUE(db->settings() == SystemSettings{});
}

// --- Breaker integration: persistent outage opens, rejects, recovers ---

TEST(SchedulerTest, PersistentFaultsOpenBreakerAndRejectArrivals) {
  // High persistent rate: early queries fail persistently, open the
  // breaker, and subsequent arrivals are rejected with kUnavailable.
  auto db = MakeSchedDb(/*transient=*/0.0, /*persistent=*/0.6);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 30, 0x13, 1.0);
  ASSERT_TRUE(wl.ok());

  SchedulerOptions opt = BaseOptions();
  opt.breaker.failure_threshold = 2;
  opt.breaker.open_seconds = 0.5;
  opt.classes.push_back(SchedulerClass{});
  opt.classes[0].retry_budget = 0;  // persistent faults fail immediately
  WorkloadScheduler sched(db.get(), opt);
  auto report = sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                          ArrivalProcess::OpenLoop(100.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, 30);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.breaker_opens, 0u);
  EXPECT_GT(r.breaker_rejected, 0u);
  for (const QueryOutcome& out : r.outcomes) {
    if (out.attempts == 0) {
      EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
    }
  }
}

// --- Closed loop terminates and respects the client bound ---

TEST(SchedulerTest, ClosedLoopRunsEveryQueryWithBoundedConcurrency) {
  auto db = MakeSchedDb(0.0, 0.0);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 15, 0x21, 0.6);
  ASSERT_TRUE(wl.ok());

  SchedulerOptions opt = BaseOptions();
  WorkloadScheduler sched(db.get(), opt);
  auto report =
      sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                ArrivalProcess::ClosedLoop(/*clients=*/3,
                                           /*think_s=*/0.01));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, 15);
  // 3 clients against 2 workers and queue depth 8: nothing ever sheds.
  EXPECT_EQ(r.completed, 15u);
  EXPECT_EQ(r.shed_queue_full + r.shed_projected_wait, 0u);
}

// --- SLA classes: tight deadlines are enforced per class ---

TEST(SchedulerTest, ClassDeadlinesGovernAdmittedQueries) {
  auto db = MakeSchedDb(0.0, 0.0);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 12, 0x55, 0.0);
  ASSERT_TRUE(wl.ok());  // all heavies: slow enough to miss a deadline

  SchedulerOptions opt = BaseOptions();
  SchedulerClass strict;
  strict.name = "strict";
  strict.sla.max_seconds = 1e-4;  // far below any heavy's service time
  strict.retry_budget = 0;
  opt.classes.push_back(strict);
  WorkloadScheduler sched(db.get(), opt);
  auto report = sched.Run(WorkloadScheduler::SpecsFromWorkload(wl.value()),
                          ArrivalProcess::OpenLoop(50.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScheduleReport& r = report.value();
  CheckConservation(r, 12);
  EXPECT_EQ(r.completed, 0u);
  for (const QueryOutcome& out : r.outcomes) {
    if (out.attempts > 0) {
      EXPECT_TRUE(out.status.IsDeadlineExceeded()) << out.status.ToString();
    }
  }
}

TEST(SchedulerTest, ValidatesOptionsAndSpecs) {
  auto db = MakeSchedDb(0.0, 0.0);
  ASSERT_NE(db, nullptr);
  auto wl = tpch::MakeSchedulerMixWorkload(*db->catalog(), 3, 0x1, 0.5);
  ASSERT_TRUE(wl.ok());
  auto specs = WorkloadScheduler::SpecsFromWorkload(wl.value());

  SchedulerOptions bad = BaseOptions();
  bad.worker_slots = 0;
  EXPECT_FALSE(WorkloadScheduler(db.get(), bad)
                   .Run(specs, ArrivalProcess::OpenLoop(10.0))
                   .ok());

  SchedulerOptions opt = BaseOptions();
  EXPECT_FALSE(WorkloadScheduler(db.get(), opt)
                   .Run(specs, ArrivalProcess::OpenLoop(0.0))
                   .ok());

  std::vector<QuerySpec> bad_specs = specs;
  bad_specs[0].class_id = 7;  // out of range
  EXPECT_FALSE(WorkloadScheduler(db.get(), opt)
                   .Run(bad_specs, ArrivalProcess::OpenLoop(10.0))
                   .ok());
}

}  // namespace
}  // namespace ecodb
