#include "ecodb/exec/morsel.h"

#include <algorithm>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/plan.h"

namespace ecodb {

bool MorselEligibleSpine(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return true;
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return MorselEligibleSpine(*node.children[0]);
    case PlanKind::kHashJoin:
      // The build side is a spine of its own (a "join_build" slot).
      return MorselEligibleSpine(*node.children[1]);
    default:
      return false;
  }
}

void MorselSchedule::BeforeRow(uint64_t row) {
  const uint64_t morsel = row / kMorselRows;
  if (!started_) {
    started_ = true;
    mark_cycles_ = ctx_->charged_cycles();
    mark_lines_ = ctx_->charged_mem_lines();
  } else if (morsel != morsel_) {
    AccrueOpenMorsel();
  }
  morsel_ = morsel;
}

void MorselSchedule::Finish() {
  if (started_ && !finished_) {
    AccrueOpenMorsel();
    ctx_->machine()->MarkCorePhase(phase_);
  }
  finished_ = true;
}

void MorselSchedule::AccrueOpenMorsel() {
  const double cycles = ctx_->charged_cycles();
  const double lines = ctx_->charged_mem_lines();
  Machine* machine = ctx_->machine();
  const uint64_t worker =
      morsel_ % static_cast<uint64_t>(ctx_->exec_workers());
  const int core =
      static_cast<int>(worker % static_cast<uint64_t>(machine->num_cores()));
  // A governor trip discards pending work, so the totals can step back.
  machine->AccrueCoreWork(core, std::max(0.0, cycles - mark_cycles_),
                          std::max(0.0, lines - mark_lines_),
                          ctx_->load_class());
  mark_cycles_ = cycles;
  mark_lines_ = lines;
}

}  // namespace ecodb
