// The benchmark's three workloads. Each is a single client in a closed loop
// with zero think time, at exec_workers = 1, made of queries of like cost:
//
//  * pvc_q5         — the paper's PVC workload (Section 3.3, Figure 1): the
//                     ten TPC-H Q5 plans on the disk-backed Commercial
//                     profile, cycling stock and PVC settings A, B, C.
//  * qed_selections — the paper's QED workload (Section 4, Figure 6):
//                     2 %-selectivity l_quantity selections merged in
//                     batches of 35 on the MySQL MEMORY profile.
//  * sort_drain     — full-width SELECT * FROM lineitem ORDER BY <key> as
//                     SQL text, every result cell read by the client.
//
// Every choice a workload makes is drawn from Mix(seed, ...), so call i of a
// run is the same query for the same seed, whatever ran before it.

#ifndef ECOBENCH_WORKLOADS_H_
#define ECOBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "trace.h"

namespace ecobench {

/// splitmix64 over (seed, a, b): the benchmark's only source of choices.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Order-insensitive digest of a result: the row count and the wrapping sum
/// of one hash per row (cells hashed in column order, doubles by bit
/// pattern). Equal digests mean equal multisets of rows.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator<(const Digest& o) const {
    return rows != o.rows ? rows < o.rows : sum < o.sum;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// TPC-H scale factors. The committed runs use Full(); the determinism
/// self-test uses Tiny().
struct Scale {
  double pvc_sf = 0.05;
  double memory_sf = 0.02;
  static Scale Full() { return Scale{}; }
  static Scale Tiny() { return Scale{0.005, 0.002}; }
};

struct SetupTimes {
  double load_s = 0;    ///< Database::LoadTpch
  double warmup_s = 0;  ///< Database::WarmUp
};

/// What one benchmark call did. A call is one query, except for
/// qed_selections, where it is one flush of `members` queries.
struct CallOutcome {
  int members = 1;
  int failed = 0;            ///< members that returned an error
  double host_ms = 0;        ///< response time of every member
  double sim_s = 0;          ///< simulated response time of every member
  ecodb::EnergyLedger sim;   ///< machine ledger delta over the call
  ecodb::QueryExecStats exec;  ///< counters of the executed plan
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t cells = 0;        ///< result cells the client read
  uint64_t merged_rows = 0;  ///< QED merged-plan rows (traced calls only)
  int setting = 0;           ///< pvc_q5 operating point (0 = stock)
};

class BenchWorkload {
 public:
  explicit BenchWorkload(uint64_t seed) : seed_(seed) {}
  virtual ~BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;

  /// The calls that open every run. Simulated metrics and counts are taken
  /// from them, so they repeat exactly for a seed.
  virtual int fixed_calls() const = 0;

  /// Builds a fresh database (dropping any previous one), loads TPC-H and
  /// warms it up.
  virtual ecodb::Result<SetupTimes> Setup(Tracer* tracer) = 0;
  /// One untimed pass over the workload's distinct queries.
  virtual ecodb::Status WarmPass() = 0;
  /// Runs call `i` of the seeded sequence. A traced call also records its
  /// layer spans under one "client.call" root span.
  virtual CallOutcome Call(int64_t i, Tracer* tracer) = 0;
  /// Layer metrics only this workload has that come from extra untimed
  /// queries, each under its own root span. The traced run calls this right
  /// after the warm-up pass, so their simulated results repeat exactly.
  virtual ecodb::Status ExtraLayerMetrics(Tracer*, Metrics*) {
    return ecodb::Status::OK();
  }
  /// Layer metrics only this workload has, from its opening calls.
  virtual void FixedCallMetrics(const std::vector<CallOutcome>&, Metrics*) {}

  /// Checks every answer recorded so far against the workload's oracle and
  /// returns how many members answered wrongly. Runs outside any timing.
  ecodb::Result<int64_t> VerifyAnswers();

  ecodb::Database* db() { return db_.get(); }
  /// First error seen by a call, for the report on stderr.
  const std::string& first_error() const { return first_error_; }

 protected:
  /// The correct answer for an answer key, computed independently of the
  /// timed path (row-mode execution and, for QED, sequential execution).
  virtual ecodb::Result<Digest> Oracle(int64_t key) = 0;

  ecodb::Result<SetupTimes> LoadFresh(const ecodb::EngineProfile& profile,
                                      double sf, Tracer* tracer);
  void RecordAnswer(int64_t key, const Digest& d) { ++answers_[key][d]; }
  void RecordBadAnswer() { ++bad_answers_; }
  void RecordError(const ecodb::Status& st);

  uint64_t seed_;
  std::unique_ptr<ecodb::Database> db_;

 private:
  std::map<int64_t, std::map<Digest, int64_t>> answers_;
  int64_t bad_answers_ = 0;
  std::string first_error_;
};

/// The workload names, in the order the traced run covers them.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            uint64_t seed, const Scale& scale);

/// Median of a sample (the upper middle value for an even count; 0 if empty).
double Median(std::vector<double> v);

/// A fixed sort + hash kernel that uses no engine code, in milliseconds.
/// Timed at intervals in every run so host drift can be told from a
/// regression.
double HostRefMs();

}  // namespace ecobench

#endif  // ECOBENCH_WORKLOADS_H_
