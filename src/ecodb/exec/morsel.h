// Simulated-core schedule for morsel-sized pipeline work.
//
// exec_workers > 1 starts no threads. The query runs the ordinary
// single-threaded operator tree (InstantiatePlan), so rows, every
// QueryExecStats counter and the shared energy ledger are identical to
// exec_workers == 1 by construction. The worker count only shapes a
// *simulated* concurrency view — the per-core ledgers that per-core
// P-state experiments and sim_core_speedup read (Machine::AccrueCoreWork):
//
//  * A "spine" is the streaming prefix of a batch pipeline: a scan leaf
//    under any stack of filters, projections and hash-join probes.
//  * The spine's scan leaf splits its table into kMorselRows-row morsels.
//    Morsel m stands for worker m % W, running on core
//    (m % W) % num_cores.
//  * At each morsel boundary, the cycles and memory lines the query's
//    context charged since the previous boundary accrue on that core:
//    the spine's per-batch work plus the consuming operator's per-batch
//    consume work (hash builds, group probes, accumulator updates).
//  * When the spine is exhausted, the slice is marked as a machine phase
//    named after the slot the spine drains into: "join_build" (a hash
//    join's build side), "agg", "sort", or "stream" (any other full-drain
//    slot).
//
// Work before a spine's first batch and after its last one — the final
// sort, aggregate materialization, spill charges — stays off the core
// ledgers as the serial tail. A streaming child of a limit may stop early
// and gets no schedule.

#ifndef ECODB_EXEC_MORSEL_H_
#define ECODB_EXEC_MORSEL_H_

#include <cstdint>

#include "ecodb/exec/row_batch.h"

namespace ecodb {

class ExecContext;
struct PlanNode;

/// Rows per morsel: 8 batches, so morsel boundaries coincide with the
/// scan's batch boundaries. Small enough that bench-scale tables split
/// into enough morsels for a near-balanced 2-core packing.
inline constexpr uint64_t kMorselRows = 8 * RowBatch::kDefaultBatchRows;

/// True when `node` is a spine: a kScan leaf under any stack of kFilter /
/// kProject nodes and kHashJoin probe sides.
bool MorselEligibleSpine(const PlanNode& node);

/// The simulated-core schedule of one spine, driven by its scan leaf.
class MorselSchedule {
 public:
  /// `phase` names the machine phase marked at the end (a literal).
  MorselSchedule(ExecContext* ctx, const char* phase)
      : ctx_(ctx), phase_(phase) {}

  /// Called by the scan before it emits table row `row`. Crossing into a
  /// new morsel accrues the previous one on its core.
  void BeforeRow(uint64_t row);
  /// End of the spine (or an early Close): accrues the open morsel and
  /// marks the phase. Idempotent.
  void Finish();

 private:
  void AccrueOpenMorsel();

  ExecContext* ctx_;
  const char* phase_;
  bool started_ = false;
  bool finished_ = false;
  uint64_t morsel_ = 0;  ///< morsel whose charges are accumulating
  double mark_cycles_ = 0;
  double mark_lines_ = 0;
};

}  // namespace ecodb

#endif  // ECODB_EXEC_MORSEL_H_
