// Workload-scheduler robustness bench: sweeps open-loop arrival rate x
// injected disk-fault rate over the admission-controlled scheduler
// (core/scheduler.h) on a Commercial-profile machine, and reports the
// latency distribution (p50/p95/p99/mean), simulated joules per
// completed query, and the robustness counters (sheds, retries, breaker
// rejections/opens, degradation-ladder escalations).
//
// Everything reported is *simulated* — a pure function of (seed,
// workload, options) — so the results are bit-identical run to run; no
// host wall-clock figures appear. Emits a whole JSON document on stdout,
// committed as BENCH_workload_scheduler.json (its own file, so
// regenerating another bench's file cannot drop this one).
//
// Usage: workload_scheduler [--sf=0.002] > BENCH_workload_scheduler.json

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "ecodb/ecodb.h"

namespace ecodb::bench {
namespace {

constexpr uint64_t kSeed = 0x5ECDBE7CULL;
constexpr int kNumQueries = 48;
constexpr double kSelectionFraction = 0.8;

struct FaultConfig {
  const char* name;
  double transient_rate;
  double persistent_rate;
};

/// Two SLA classes: "interactive" carries a (generous) absolute deadline
/// and a single retry; "batch" is unconstrained with the default retry
/// budget. SpecsFromWorkload assigns them round-robin.
SchedulerOptions MakeOptions() {
  SchedulerOptions opt;
  opt.seed = kSeed;
  opt.worker_slots = 2;
  opt.max_queue_depth = 8;
  opt.keep_rows = false;

  SchedulerClass interactive;
  interactive.name = "interactive";
  interactive.sla.max_seconds = 30.0;
  interactive.retry_budget = 1;
  opt.classes.push_back(interactive);

  SchedulerClass batch;
  batch.name = "batch";
  batch.retry_budget = 2;
  opt.classes.push_back(batch);
  return opt;
}

Result<ScheduleReport> RunCell(double sf, double arrival_qps,
                               const FaultConfig& faults) {
  DatabaseOptions dopt;
  dopt.profile = EngineProfile::Commercial();
  // Memory-constrained pool: scans keep paying disk reads, so the
  // injected per-read fault rates actually bite at bench scale.
  dopt.profile.buffer_pool_pages = 64;
  dopt.fault_injection.seed = kSeed ^ 0xFA17;
  dopt.fault_injection.transient_fault_rate = faults.transient_rate;
  dopt.fault_injection.persistent_fault_rate = faults.persistent_rate;
  // Escalate transient storms to the scheduler immediately: its retry
  // layer (backoff + budget), not the buffer pool's, does the recovery.
  if (faults.transient_rate > 0.0) dopt.fault_injection.max_retries = 0;
  auto db = std::make_unique<Database>(dopt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  ECODB_RETURN_NOT_OK(db->LoadTpch(gen));
  // Cold pool: scans actually touch the (fault-injected) disk instead of
  // the load-warmed buffer pool.
  db->ColdRestart();

  ECODB_ASSIGN_OR_RETURN(
      tpch::Workload wl,
      tpch::MakeSchedulerMixWorkload(*db->catalog(), kNumQueries, kSeed,
                                     kSelectionFraction));
  auto specs = WorkloadScheduler::SpecsFromWorkload(wl, /*num_classes=*/2);
  WorkloadScheduler sched(db.get(), MakeOptions());
  return sched.Run(specs, ArrivalProcess::OpenLoop(arrival_qps));
}

int Main(int argc, char** argv) {
  // Small default SF: with the 64-page pool, per-query service time is
  // disk-bound and grows with table size; 0.002 keeps the lowest arrival
  // rate genuinely healthy (everything completes) so the sweep spans
  // healthy -> saturated -> overloaded.
  const double sf = ScaleFactorArg(argc, argv, 0.002);

  // Service times are disk-bound (tiny pool, cold start): ~0.1-0.4 sim
  // seconds/query on 2 workers, so ~5 qps is healthy, ~20 qps saturated,
  // ~100 qps deep overload (ladder top, heavy shedding).
  const std::vector<double> arrival_rates = {5.0, 20.0, 100.0};
  const std::vector<FaultConfig> fault_configs = {
      {"clean", 0.0, 0.0},
      {"transient_1e-3", 1e-3, 0.0},
      {"storm", 5e-3, 2e-4},
  };

  PrintJsonHeader("workload_scheduler", sf);
  std::printf("  \"workload_scheduler_benchmarks\": [\n");
  bool first = true;
  for (double qps : arrival_rates) {
    for (const FaultConfig& faults : fault_configs) {
      auto report = RunCell(sf, qps, faults);
      if (!report.ok()) {
        std::fprintf(stderr, "cell (%g qps, %s) failed: %s\n", qps,
                     faults.name, report.status().ToString().c_str());
        return 1;
      }
      const ScheduleReport& r = report.value();
      std::printf(
          "%s    {\"faults\": \"%s\", \"arrival_qps\": %g, "
          "\"transient_fault_rate\": %g, \"persistent_fault_rate\": %g, "
          "\"queries\": %d, \"completed\": %llu, \"failed\": %llu, "
          "\"shed\": %llu, \"breaker_rejected\": %llu, "
          "\"retries\": %llu, \"merged_batches\": %llu, "
          "\"breaker_opens\": %llu, \"escalations\": %llu, "
          "\"max_level_reached\": %d, \"sheds_below_max_level\": %llu, "
          "\"p50_latency_s\": %.9e, \"p95_latency_s\": %.9e, "
          "\"p99_latency_s\": %.9e, \"mean_latency_s\": %.9e, "
          "\"makespan_seconds\": %.9e, "
          "\"sim_joules_per_completed\": %.9e}",
          first ? "" : ",\n", faults.name, qps, faults.transient_rate,
          faults.persistent_rate, kNumQueries,
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.failed),
          static_cast<unsigned long long>(r.shed_queue_full +
                                          r.shed_projected_wait),
          static_cast<unsigned long long>(r.breaker_rejected),
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.merged_batches),
          static_cast<unsigned long long>(r.breaker_opens),
          static_cast<unsigned long long>(r.escalations),
          r.max_level_reached,
          static_cast<unsigned long long>(r.sheds_below_max_level),
          r.p50_latency_s, r.p95_latency_s, r.p99_latency_s,
          r.mean_latency_s, r.makespan_seconds, r.wall_j_per_completed);
      first = false;
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace ecodb::bench

int main(int argc, char** argv) { return ecodb::bench::Main(argc, argv); }
