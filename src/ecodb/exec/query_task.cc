#include "ecodb/exec/query_task.h"

namespace ecodb {

QueryTask::~QueryTask() {
  // Abandoned mid-run (scheduler shutdown): tear down like a failure so
  // operator pools and tracked bytes never outlive the task.
  if (state_ == State::kRunning) drain_->Close();
}

void QueryTask::Govern(const QueryLimits& limits, double start_seconds) {
  if (limits.None()) return;
  governor_ = std::make_unique<QueryGovernor>(limits, start_seconds);
  ctx_->set_governor(governor_.get());
}

QueryTask::State QueryTask::Fail(const Status& status) {
  if (drain_.has_value()) {
    drain_->Close();
  } else if (op_ != nullptr) {
    op_->Close();
  }
  status_ = status;
  state_ = State::kFailed;
  return state_;
}

QueryTask::State QueryTask::Step() {
  switch (state_) {
    case State::kDone:
    case State::kFailed:
      return state_;

    case State::kCreated: {
      // Mirrors ExecutePlanColumnar's preamble: validate, instantiate,
      // open. Pipeline breakers (sort, hash build, aggregation) do their
      // full materialization inside Open, consulting the governor at
      // their internal consume-loop checkpoints.
      Status st = ValidatePlan(*plan_);
      if (!st.ok()) return Fail(st);
      ctx_->set_exec_mode(mode_);
      auto op = InstantiatePlan(*plan_, ctx_.get());
      if (!op.ok()) return Fail(op.status());
      op_ = std::move(op.value());
      st = op_->Open();
      if (!st.ok()) return Fail(st);
      drain_.emplace(op_.get(), ctx_.get());
      state_ = State::kRunning;
      return state_;
    }

    case State::kRunning: {
      // One Pull of ExecuteOperatorColumnar's drain, governor checks
      // included; row mode pulls up to one batch's worth of rows so a
      // step is comparable work in both modes.
      bool done = false;
      Status st = drain_->Pull(&done);
      if (!st.ok()) return Fail(st);
      if (done) {
        set_ = drain_->Finish();
        state_ = State::kDone;
      }
      return state_;
    }
  }
  return state_;
}

}  // namespace ecodb
