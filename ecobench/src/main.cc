// ecobench: the repository benchmark.
//
//   ecobench --workload <pvc_q5|qed_selections|sort_drain> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>]
//   ecobench --self-test
//
// --trace 0 measures one workload with tracing off and prints its end-to-end
// metrics. --trace 1 is the separate traced run: it covers all three
// workloads, so every per-layer metric (named "<workload>.<layer>.<metric>")
// is measured in every traced run, and writes the spans to --trace-out.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is a JSON summary of diagnostics (host.ref_ms samples,
// call counts, failed_frac, per-query simulated cost spread).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace ecobench {
namespace {

using ecodb::Result;
using ecodb::Status;

// Set-ups per timed run, before and after the measured loop so that their
// median spans the run; setup_s is the median.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;
// host.ref_ms samples taken before and after the measured loop.
constexpr int kRefSamples = 3;
// Traced and untraced blocks per workload in the traced run.
constexpr int kTraceBlocks = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v[0] - '0';
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  if (a->self_test) return true;
  return have_seed && a->seconds > 0 && a->trace >= 0 &&
         MakeWorkload(a->workload, 0, Scale::Tiny()) != nullptr;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

struct Loop {
  std::vector<CallOutcome> calls;
  double elapsed_s = 0;
  int64_t members = 0;
  int64_t failed = 0;
};

/// Closed loop, zero think time: runs calls first, first+1, ... until
/// `seconds` have passed and at least `min_calls` calls have completed.
Loop RunLoop(BenchWorkload* wl, int64_t first, double seconds, int min_calls,
             Tracer* tracer) {
  Loop loop;
  const int64_t t0 = NowNs();
  int64_t now = t0;
  for (int64_t i = first;
       static_cast<int>(loop.calls.size()) < min_calls ||
       static_cast<double>(now - t0) * 1e-9 < seconds;
       ++i) {
    loop.calls.push_back(wl->Call(i, tracer));
    loop.members += loop.calls.back().members;
    loop.failed += loop.calls.back().failed;
    now = NowNs();
  }
  loop.elapsed_s = static_cast<double>(now - t0) * 1e-9;
  return loop;
}

void Append(Loop&& part, Loop* into) {
  into->calls.insert(into->calls.end(), part.calls.begin(), part.calls.end());
  into->elapsed_s += part.elapsed_s;
  into->members += part.members;
  into->failed += part.failed;
}

std::vector<CallOutcome> FirstCalls(const Loop& loop, int n) {
  return std::vector<CallOutcome>(
      loop.calls.begin(),
      loop.calls.begin() + std::min<size_t>(loop.calls.size(),
                                            static_cast<size_t>(n)));
}

// Simulated cost per query over the fixed calls. Every member of a QED flush
// waits the whole flush (its response time) but the flush's joules are
// shared by its members.
struct SimCost {
  double s_per_query = 0;
  double j_per_query = 0;
  double max_over_min = 0;  ///< most over least expensive call, sim seconds
};

SimCost SimCostOf(const std::vector<CallOutcome>& fixed) {
  SimCost c;
  double s = 0, j = 0, members = 0, lo = 0, hi = 0;
  for (const CallOutcome& o : fixed) {
    s += o.sim_s * o.members;
    j += o.sim.wall_j;
    members += o.members;
    lo = lo == 0 ? o.sim_s : std::min(lo, o.sim_s);
    hi = std::max(hi, o.sim_s);
  }
  if (members > 0) {
    c.s_per_query = s / members;
    c.j_per_query = j / members;
  }
  c.max_over_min = lo > 0 ? hi / lo : 0;
  return c;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + JsonNumber(v[i]);
  }
  return s + "]";
}

bool AllFinite(const Metrics& m) {
  for (const Metric& x : m) {
    if (!std::isfinite(x.value)) return false;
  }
  return true;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "ecobench: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

void SampleHostRef(std::vector<double>* samples) {
  for (int k = 0; k < kRefSamples; ++k) samples->push_back(HostRefMs());
}

// --------------------------------------------------------------------------
// Timed run (--trace 0)
// --------------------------------------------------------------------------

int RunTimed(const Args& a) {
  std::unique_ptr<BenchWorkload> wl =
      MakeWorkload(a.workload, a.seed, Scale::Full());
  std::vector<double> setup_s;
  auto set_up = [&](int times) -> Status {
    for (int r = 0; r < times; ++r) {
      Result<SetupTimes> t = wl->Setup(nullptr);
      if (!t.ok()) return t.status();
      setup_s.push_back(t.value().load_s + t.value().warmup_s);
    }
    return Status::OK();
  };
  Status st = set_up(kSetupsBefore);
  if (!st.ok()) return Fail("setup", st);
  std::vector<double> ref_ms;
  SampleHostRef(&ref_ms);
  st = wl->WarmPass();
  if (!st.ok()) return Fail("warm-up pass", st);

  Loop loop = RunLoop(wl.get(), 0, a.seconds, wl->fixed_calls(), nullptr);
  const double peak_rss_mb = PeakRssMb();
  SampleHostRef(&ref_ms);

  Result<int64_t> wrong = wl->VerifyAnswers();
  if (!wrong.ok()) return Fail("answer check", wrong.status());
  const int64_t failed =
      std::min(loop.members, loop.failed + wrong.value());
  if (!wl->first_error().empty()) {
    std::fprintf(stderr, "ecobench: first error: %s\n",
                 wl->first_error().c_str());
  }
  // Set-ups after the loop replace the measured database, so they come
  // after the answer check.
  st = set_up(kSetupsAfter);
  if (!st.ok()) return Fail("setup", st);

  std::vector<double> member_ms;
  for (const CallOutcome& c : loop.calls) {
    member_ms.insert(member_ms.end(), static_cast<size_t>(c.members),
                     c.host_ms);
  }
  const SimCost sim = SimCostOf(FirstCalls(loop, wl->fixed_calls()));
  const Metrics gated = {
      {"sim_j_per_query", sim.j_per_query, "J"},
      {"sim_s_per_query", sim.s_per_query, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
  // Reported but not gated: on a shared host the share of calls slowed by
  // other tenants moves from run to run, and every host-time statistic of a
  // run follows it (see README.md).
  const Metrics ungated = {
      {"queries_per_s", static_cast<double>(loop.members) / loop.elapsed_s,
       "1/s"},
      {"query_ms_p50", Percentile(member_ms, 0.5), "ms"},
      {"query_ms_p90", Percentile(member_ms, 0.9), "ms"},
      {"failed_frac",
       static_cast<double>(failed) / static_cast<double>(loop.members),
       "ratio"},
      {"sim_s_max_over_min", sim.max_over_min, "ratio"},
  };
  std::printf(
      "{\"summary\": {\"workload\": \"%s\", \"seed\": %llu, \"calls\": %zu, "
      "\"queries\": %lld, \"metrics\": %s, \"host.ref_ms\": %s, "
      "\"setup_s\": %s}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      loop.calls.size(), static_cast<long long>(loop.members),
      MetricsJson(ungated).c_str(), JsonArray(ref_ms).c_str(),
      JsonArray(setup_s).c_str());
  PrintResult(failed == 0 && AllFinite(gated), loop.members, failed, gated);
  return 0;
}

// --------------------------------------------------------------------------
// Traced run (--trace 1)
// --------------------------------------------------------------------------

// Span name -> per-layer metric. A metric is the per-call median of the
// summed self time of its spans. sim.ApplySettings runs on one pvc_q5 call
// in ten, so its median would be 0; it stays in the span file only.
struct SpanMetric {
  const char* span;
  const char* metric;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"client.call", "client.self_ms"},
    {"sql.PlanSql", "sql.plan_ms"},
    {"exec.ExecutePlanQuery", "exec.execute_ms"},
    {"exec.ExecutePlan", "exec.execute_ms"},
    {"result.read", "result.read_ms"},
    {"qed.Submit", "qed.submit_ms"},
    {"qed.MergeQueued", "qed.merge_ms"},
    {"qed.SplitMergedResult", "qed.split_ms"},
};

void AddSpanMetrics(const Tracer& tr, const Loop& traced, Metrics* out) {
  // Self time per metric for every traced call (roots named client.call).
  std::vector<std::string> names;
  std::vector<std::vector<double>> per_call;
  double exec_ns = 0;
  for (const auto& [root, by_span] : tr.SelfNsByRoot()) {
    if (std::strcmp(tr.spans()[static_cast<size_t>(root)].name,
                    "client.call") != 0) {
      continue;
    }
    std::vector<double> row(names.size(), 0.0);
    for (const auto& [span, ns] : by_span) {
      for (const SpanMetric& sm : kSpanMetrics) {
        if (span != sm.span) continue;
        size_t k = std::find(names.begin(), names.end(), sm.metric) -
                   names.begin();
        if (k == names.size()) {
          names.push_back(sm.metric);
          row.push_back(0.0);
          for (auto& earlier : per_call) earlier.push_back(0.0);
        }
        row[k] += static_cast<double>(ns) * 1e-6;
        if (span.rfind("exec.", 0) == 0) exec_ns += static_cast<double>(ns);
      }
    }
    per_call.push_back(row);
  }
  for (size_t k = 0; k < names.size(); ++k) {
    std::vector<double> v;
    for (const auto& row : per_call) v.push_back(row[k]);
    out->push_back({names[k], Median(v), "ms"});
  }
  uint64_t cells = 0;
  for (const CallOutcome& c : traced.calls) cells += c.cells;
  out->push_back({"exec.ns_per_output_cell",
                  cells ? exec_ns / static_cast<double>(cells) : 0.0, "ns"});
}

void AddFixedCallMetrics(const std::vector<CallOutcome>& fixed, Metrics* out) {
  const double n = static_cast<double>(fixed.size());
  ecodb::QueryExecStats e;
  double cells = 0, cpu_j = 0, mem_j = 0, busy_s = 0;
  for (const CallOutcome& c : fixed) {
    e.tuples_scanned += c.exec.tuples_scanned;
    e.tuples_output += c.exec.tuples_output;
    e.spill_bytes += c.exec.spill_bytes;
    e.comparisons += c.exec.comparisons;
    e.hash_builds += c.exec.hash_builds;
    e.hash_probes += c.exec.hash_probes;
    e.agg_updates += c.exec.agg_updates;
    e.sort_compares += c.exec.sort_compares;
    e.cycles_charged += c.exec.cycles_charged;
    e.mem_lines_charged += c.exec.mem_lines_charged;
    e.peak_memory_bytes += c.exec.peak_memory_bytes;
    cells += static_cast<double>(c.cells);
    cpu_j += c.sim.cpu_j;
    mem_j += c.sim.mem_j;
    busy_s += c.sim.busy_s;
  }
  auto per_call = [n](double total) { return total / n; };
  auto count = [&](const char* name, double total) {
    out->push_back({name, per_call(total), "count"});
  };
  count("result.cells", cells);
  count("exec.tuples_scanned", static_cast<double>(e.tuples_scanned));
  count("exec.tuples_output", static_cast<double>(e.tuples_output));
  count("exec.comparisons", static_cast<double>(e.comparisons));
  count("exec.hash_builds", static_cast<double>(e.hash_builds));
  count("exec.hash_probes", static_cast<double>(e.hash_probes));
  count("exec.agg_updates", static_cast<double>(e.agg_updates));
  count("exec.sort_compares", static_cast<double>(e.sort_compares));
  count("exec.cycles_charged", e.cycles_charged);
  count("exec.mem_lines_charged", e.mem_lines_charged);
  out->push_back({"exec.spill_bytes", per_call(static_cast<double>(
                                          e.spill_bytes)), "B"});
  out->push_back({"exec.peak_memory_bytes",
                  per_call(static_cast<double>(e.peak_memory_bytes)), "B"});
  out->push_back({"sim.cpu_j", per_call(cpu_j), "J"});
  out->push_back({"sim.mem_j", per_call(mem_j), "J"});
  out->push_back({"sim.busy_s", per_call(busy_s), "s"});
}

int RunTraced(const Args& a) {
  Metrics metrics;
  int64_t attempted = 0, failed = 0;
  std::string problems;
  std::vector<double> ref_ms;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> span_file(nullptr,
                                                            &std::fclose);
  if (!a.trace_out.empty()) {
    span_file.reset(std::fopen(a.trace_out.c_str(), "w"));
    if (span_file == nullptr) {
      std::fprintf(stderr, "ecobench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
    std::fprintf(span_file.get(), "[");
  }
  bool first_span = true;

  const double block_s =
      a.seconds / (2.0 * kTraceBlocks *
                   static_cast<double>(WorkloadNames().size()));
  SampleHostRef(&ref_ms);
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<BenchWorkload> wl = MakeWorkload(name, a.seed,
                                                     Scale::Full());
    Tracer tracer;
    Result<SetupTimes> t = wl->Setup(&tracer);
    if (!t.ok()) return Fail("setup", t.status());
    Status st = wl->WarmPass();
    if (!st.ok()) return Fail("warm-up pass", st);
    Metrics extra;
    st = wl->ExtraLayerMetrics(&tracer, &extra);
    if (!st.ok()) return Fail("layer metrics", st);

    // Traced and untraced blocks alternate along one call sequence, so host
    // drift weighs on both sides of the overhead comparison alike. A traced
    // block comes first: its opening calls have the same history in every
    // traced run, so their counts repeat exactly.
    Loop traced, untraced;
    int64_t next = 0;
    for (int b = 0; b < kTraceBlocks; ++b) {
      Append(RunLoop(wl.get(), next, block_s, b == 0 ? wl->fixed_calls() : 1,
                     &tracer),
             &traced);
      next = static_cast<int64_t>(traced.calls.size() + untraced.calls.size());
      Append(RunLoop(wl.get(), next, block_s, 1, nullptr), &untraced);
      next = static_cast<int64_t>(traced.calls.size() + untraced.calls.size());
    }
    const std::vector<CallOutcome> fixed =
        FirstCalls(traced, wl->fixed_calls());

    Metrics m;
    m.push_back({"tpch.load_s", t.value().load_s, "s"});
    if (wl->db()->profile().disk_backed) {
      m.push_back({"storage.warmup_s", t.value().warmup_s, "s"});
    }
    AddSpanMetrics(tracer, traced, &m);
    AddFixedCallMetrics(fixed, &m);
    const double qps_traced =
        static_cast<double>(traced.members) / traced.elapsed_s;
    const double qps_untraced =
        static_cast<double>(untraced.members) / untraced.elapsed_s;
    m.push_back({"trace.overhead_frac", 1.0 - qps_traced / qps_untraced,
                 "ratio"});
    wl->FixedCallMetrics(fixed, &m);
    m.insert(m.end(), extra.begin(), extra.end());
    for (Metric& x : m) {
      metrics.push_back({name + "." + x.name, x.value, x.unit});
    }

    Result<int64_t> wrong = wl->VerifyAnswers();
    if (!wrong.ok()) return Fail("answer check", wrong.status());
    const int64_t members = traced.members + untraced.members;
    attempted += members;
    failed += std::min(members,
                       traced.failed + untraced.failed + wrong.value());
    std::string nesting = tracer.CheckNesting();
    if (!nesting.empty()) problems += name + ": " + nesting + "; ";
    if (!wl->first_error().empty()) {
      std::fprintf(stderr, "ecobench: %s: first error: %s\n", name.c_str(),
                   wl->first_error().c_str());
    }
    if (span_file) tracer.AppendJson(span_file.get(), name, &first_span);
  }
  SampleHostRef(&ref_ms);
  metrics.push_back({"host.ref_ms", Median(ref_ms), "ms"});

  if (span_file) {
    std::fprintf(span_file.get(), "\n]\n");
    if (std::fclose(span_file.release()) != 0) {
      problems += "span file write failed; ";
    }
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "ecobench: trace check: %s\n", problems.c_str());
  }
  std::printf(
      "{\"summary\": {\"traced\": true, \"seed\": %llu, "
      "\"host.ref_ms\": %s}}\n",
      static_cast<unsigned long long>(a.seed), JsonArray(ref_ms).c_str());
  PrintResult(failed == 0 && problems.empty() && AllFinite(metrics),
              attempted, failed, metrics);
  return 0;
}

// --------------------------------------------------------------------------
// Determinism self-test (--self-test)
// --------------------------------------------------------------------------

// The simulated and counted parts of a call, which must repeat bit for bit.
std::vector<double> Deterministic(const CallOutcome& c) {
  const ecodb::EnergyLedger& l = c.sim;
  const ecodb::QueryExecStats& e = c.exec;
  return {static_cast<double>(c.members), static_cast<double>(c.failed),
          c.sim_s, l.cpu_j, l.fan_j, l.mem_j, l.disk_5v_j, l.disk_12v_j,
          l.mobo_j, l.gpu_j, l.dc_j, l.wall_j, l.busy_s, l.io_s, l.idle_s,
          static_cast<double>(e.tuples_scanned),
          static_cast<double>(e.tuples_output),
          static_cast<double>(e.comparisons),
          static_cast<double>(e.arith_ops),
          static_cast<double>(e.hash_builds),
          static_cast<double>(e.hash_probes),
          static_cast<double>(e.agg_updates),
          static_cast<double>(e.sort_compares), e.cycles_charged,
          e.mem_lines_charged, static_cast<double>(e.spill_bytes),
          static_cast<double>(e.peak_memory_bytes),
          static_cast<double>(c.pool_hits), static_cast<double>(c.pool_misses),
          static_cast<double>(c.cells), static_cast<double>(c.merged_rows),
          static_cast<double>(c.setting)};
}

int SelfTest() {
  constexpr uint64_t kSeed = 20090104;
  int failures = 0;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::vector<double>> runs[2];
    std::string problem;
    for (auto& run : runs) {
      std::unique_ptr<BenchWorkload> wl =
          MakeWorkload(name, kSeed, Scale::Tiny());
      Status st = wl->Setup(nullptr).status();
      if (st.ok()) st = wl->WarmPass();
      if (!st.ok()) {
        problem = st.ToString();
        break;
      }
      // The opening calls untraced (the timed run's path), then traced (the
      // traced run's path, which also fills the QED exec counters).
      Tracer tracer;
      const int n = wl->fixed_calls();
      Loop untraced = RunLoop(wl.get(), 0, 0.0, n, nullptr);
      Loop traced = RunLoop(wl.get(), 0, 0.0, n, &tracer);
      for (const Loop* loop : {&untraced, &traced}) {
        for (const CallOutcome& c : loop->calls) {
          run.push_back(Deterministic(c));
        }
      }
      if (traced.calls.front().exec.tuples_scanned == 0) {
        problem = "traced calls counted no scanned tuples";
      }
      Result<int64_t> wrong = wl->VerifyAnswers();
      if (!wrong.ok() || wrong.value() != 0 || untraced.failed ||
          traced.failed) {
        problem = "wrong or failed answers: " + wl->first_error();
      }
      std::string nesting = tracer.CheckNesting();
      if (!nesting.empty()) problem = nesting;
    }
    if (problem.empty() && runs[0].size() != runs[1].size()) {
      problem = "different call counts";
    }
    for (size_t i = 0; problem.empty() && i < runs[0].size(); ++i) {
      if (std::memcmp(runs[0][i].data(), runs[1][i].data(),
                      runs[0][i].size() * sizeof(double)) != 0) {
        problem = "call " + std::to_string(i) + " differs between runs";
      }
    }
    std::printf("%s %s%s%s\n", problem.empty() ? "PASS" : "FAIL", name.c_str(),
                problem.empty() ? "" : ": ", problem.c_str());
    failures += problem.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) {
  ecobench::Args args;
  if (!ecobench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ecobench --workload <pvc_q5|qed_selections|"
                 "sort_drain> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n"
                 "       ecobench --self-test\n");
    return 2;
  }
  if (args.self_test) return ecobench::SelfTest();
  return args.trace == 1 ? ecobench::RunTraced(args)
                         : ecobench::RunTimed(args);
}
