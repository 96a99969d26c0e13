// ExecContext: the bridge between logical operator work and the simulated
// machine. Operators report logical operations (tuples scanned, predicates
// evaluated, hash probes, ...); the context converts them to CPU cycles
// and DRAM traffic using the EngineProfile and charges the Machine in
// batches.

#ifndef ECODB_EXEC_EXEC_CONTEXT_H_
#define ECODB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

#include "ecodb/core/engine_profile.h"
#include "ecodb/exec/query_governor.h"
#include "ecodb/sim/machine.h"
#include "ecodb/storage/buffer_pool.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/util/memory_tracker.h"
#include "ecodb/util/status.h"

namespace ecodb {

/// How an operator tree is driven: classic row-at-a-time Volcano pulls, or
/// vectorized RowBatch pulls. Both modes charge identical logical work to
/// the simulated machine (the parity suite asserts it); batch mode merely
/// amortizes host-side bookkeeping over ~1k tuples.
enum class ExecMode { kRow, kBatch };

const char* ToString(ExecMode m);

/// Comparisons charged for sorting `n` rows: 0 when n < 2, otherwise
/// floor(n * log2 n). The one sort-count formula: SortOp charges it on
/// the rows it sorted (both exec modes) and CostModel prices kSort with
/// it, so the host's comparison sequence never reaches the simulation.
uint64_t SortCompares(uint64_t n);

/// Logical-operation counters accumulated during expression evaluation.
/// Comparisons are counted lazily (short-circuit AND/OR), which is what
/// gives QED's merged disjunctions their paper-shaped cost curve.
struct EvalCounters {
  uint64_t comparisons = 0;
  uint64_t arith_ops = 0;
};

/// Aggregate execution statistics for one query/batch (diagnostics).
struct QueryExecStats {
  uint64_t tuples_scanned = 0;
  uint64_t tuples_output = 0;
  uint64_t comparisons = 0;
  uint64_t arith_ops = 0;
  uint64_t hash_builds = 0;
  uint64_t hash_probes = 0;
  uint64_t agg_updates = 0;
  uint64_t sort_compares = 0;
  double cycles_charged = 0;
  double mem_lines_charged = 0;
  uint64_t spill_bytes = 0;
  /// High-water mark of the query's tracked logical scratch bytes (see
  /// MemoryTracker); mirrored live from the context's tracker.
  uint64_t peak_memory_bytes = 0;
  /// String-dedup dictionary effectiveness on the result surface
  /// (StringArena::InternDedup hits/misses). Diagnostics ONLY: batch mode
  /// borrows stable pointers where row mode copies, so these counters are
  /// mode-dependent and intentionally excluded from the parity suite's
  /// comparisons.
  uint64_t dict_dedup_hits = 0;
  uint64_t dict_dedup_misses = 0;
};

class ExecContext {
 public:
  ExecContext(Machine* machine, const EngineProfile* profile,
              Catalog* catalog, BufferPool* buffer_pool);

  Machine* machine() { return machine_; }
  const EngineProfile& profile() const { return *profile_; }
  Catalog* catalog() { return catalog_; }
  BufferPool* buffer_pool() { return buffer_pool_; }

  /// Expression evaluation counters (flushed into cycles by operators).
  EvalCounters* eval_counters() { return &eval_; }

  /// Execution mode the current operator tree is driven in. Pipeline
  /// breakers (sort, hash build, aggregation) consult this to decide how
  /// they consume their children.
  ExecMode exec_mode() const { return exec_mode_; }
  void set_exec_mode(ExecMode m) { exec_mode_ = m; }

  /// Simulated workers of the morsel schedule (exec/morsel.h); 1 (the
  /// default) accrues no per-core work. Execution itself is single-threaded
  /// at any count. Database::ExecutePlanQuery clamps row mode to 1.
  int exec_workers() const { return exec_workers_; }
  void set_exec_workers(int n) { exec_workers_ = n < 1 ? 1 : n; }

  /// How this query's work loads the CPU. Captured from the profile at
  /// construction so two contexts with different profiles can charge the
  /// same Machine concurrently without stomping a shared global.
  LoadClass load_class() const { return load_class_; }

  // --- Logical work reporting (called by operators) ---
  //
  // Bulk variants charge `n` tuples' worth of logical work with one stats
  // update and one pending-cycle accumulation; the singular forms are the
  // n == 1 case. The per-tuple cycle formula is identical either way, so
  // simulated totals agree between row and batch execution (bit-exact for
  // the integer counters, within fp-associativity for cycles).

  void ChargeScanTuple(int bytes) {
    ChargeScanTuples(1, static_cast<uint64_t>(bytes));
  }
  void ChargeScanTuples(uint64_t n, uint64_t total_bytes);
  void ChargeHashBuild(int key_bytes) { ChargeHashBuilds(1, key_bytes); }
  void ChargeHashBuilds(uint64_t n, int key_bytes);
  void ChargeHashProbe(int key_bytes) { ChargeHashProbes(1, key_bytes); }
  void ChargeHashProbes(uint64_t n, int key_bytes);
  void ChargeAggUpdate(int n_aggregates) { ChargeAggUpdates(1, n_aggregates); }
  void ChargeAggUpdates(uint64_t n, int n_aggregates);
  /// Charges SortCompares(rows) sort compares.
  void ChargeSort(uint64_t rows);
  /// Charges `n` key comparisons of a breaker (hash-join match, group
  /// lookup) straight to stats and cycles, at compare_cycles each.
  void ChargeComparisons(uint64_t n);
  void ChargeOutputTuple(int bytes) { ChargeOutputTuples(1, bytes); }
  void ChargeOutputTuples(uint64_t n, int bytes_per_tuple);
  /// Drains eval_counters into cycles.
  void ChargeEvalOps();
  /// Raw cycle charge (split costs, custom work).
  void ChargeCycles(double cycles, double mem_lines = 0.0);

  /// Spill `bytes` to temp storage and read them back (grace-hash model).
  /// No-op for memory-resident profiles.
  Status ChargeSpill(uint64_t bytes);

  /// Page fetch for a scan; charges real simulated I/O only for
  /// disk-backed profiles. `scan_page_seq` counts pages fetched by this
  /// scan so far, to drive the cold_random_page_period mixing.
  Status FetchScanPages(uint32_t file_id, uint64_t first_page, uint64_t count,
                        uint64_t scan_page_ordinal);

  /// Flushes pending cycles/lines to the machine. Called at structural
  /// points (operator Close, before simulated I/O); between those points
  /// pending work auto-drains in *exact* kFlushCycleThreshold-cycle
  /// quanta with a proportional share of pending memory lines, so the
  /// machine sees flush boundaries at fixed charged-cycle positions
  /// regardless of whether operators report work row-at-a-time or in
  /// bulk — the bus-contention model is nonlinear per flush, and
  /// granularity-dependent boundaries would let simulated time/energy
  /// drift between execution modes.
  void Flush();

  const QueryExecStats& stats() const { return stats_; }
  void ResetStats();

  /// Cycles / memory lines charged so far, pending (not yet flushed) work
  /// included — what the morsel schedule reads at morsel boundaries.
  double charged_cycles() const {
    return stats_.cycles_charged + pending_cycles_ * cycle_inflation_;
  }
  double charged_mem_lines() const {
    return stats_.mem_lines_charged + pending_lines_;
  }

  /// Folds result-surface InternDedup counters into stats. Diagnostics
  /// only — no cycles are charged and the parity suite ignores these.
  void AddDictDedupCounters(uint64_t hits, uint64_t misses) {
    stats_.dict_dedup_hits += hits;
    stats_.dict_dedup_misses += misses;
  }

  // --- Query governor (optional; null = unlimited, zero-overhead) ---

  /// Attaches a per-query governor. The context does not own it; the
  /// caller (Database::ExecutePlanQuery) keeps it alive for the query.
  void set_governor(QueryGovernor* governor) { governor_ = governor; }
  QueryGovernor* governor() { return governor_; }

  /// Cooperative limit check, called by operators at pull/consume
  /// boundaries. Observes (in this order, for cross-mode determinism):
  /// an already-latched trip, the external cancel flag, the logical
  /// memory budget, and the simulated-time deadline. Returns the trip
  /// status once tripped; OK otherwise. The charged-cycle cancellation
  /// trigger and the CPU-time deadline additionally trip *inside*
  /// MaybeFlush at exact quantum boundaries (see Flush), which is what
  /// makes a governed kill land at a bit-exact charged-cycle position in
  /// both execution modes.
  Status CheckGovernor();

  /// The query's logical-byte scratch accounting (always present; cheap
  /// when nothing attaches to it). Operators hand this to their pools.
  MemoryTracker* memory_tracker() { return &tracker_; }

  /// Re-derives settings-dependent cached state (the underclock CPI
  /// inflation) from the machine's *current* operating point, flushing
  /// pending work first so cycles charged before the switch are inflated
  /// at the old point. The workload scheduler calls this on every
  /// in-flight query's context after a degradation-ladder eco/stock
  /// transition; single-query execution never changes settings mid-run.
  void RefreshSettings();

 private:
  void MaybeFlush();

  /// Quantum of the auto-drain (~6 simulated ms at 3.2 GHz): large enough
  /// that the lines-vs-cycles mix of one quantum is insensitive to charge
  /// arrival order (row-vs-batch energy parity on even sub-millisecond
  /// queries), small enough that long scans still step the power
  /// integration many times.
  static constexpr double kFlushCycleThreshold = 2.0e7;

  Machine* machine_;
  const EngineProfile* profile_;
  Catalog* catalog_;
  BufferPool* buffer_pool_;

  EvalCounters eval_;
  QueryExecStats stats_;
  ExecMode exec_mode_ = ExecMode::kBatch;
  int exec_workers_ = 1;
  LoadClass load_class_ = LoadClass::kSustained;
  QueryGovernor* governor_ = nullptr;  ///< not owned; null = no limits
  MemoryTracker tracker_;

  double pending_cycles_ = 0;
  double pending_lines_ = 0;
  double cycle_inflation_ = 1.0;  ///< 1 + k*uc^2, cached per settings
};

}  // namespace ecodb

#endif  // ECODB_EXEC_EXEC_CONTEXT_H_
