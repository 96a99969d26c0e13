#include "ecodb/exec/typed_column.h"

#include <cassert>
#include <utility>

#include "ecodb/exec/query_governor.h"

namespace ecodb {

TypedColumn::TypedColumn(TypedColumn&& o) noexcept { *this = std::move(o); }

TypedColumn& TypedColumn::operator=(TypedColumn&& o) noexcept {
  if (this == &o) return *this;
  // Drop our own state first (releases tracked bytes, detaches our arena).
  if (str_ != nullptr) str_->DetachMemoryTracker();
  TrackReleaseAll();
  type_ = o.type_;
  boxed_ = o.boxed_;
  has_nulls_ = o.has_nulls_;
  dict_dedup_ = o.dict_dedup_;
  size_ = o.size_;
  i64_ = std::move(o.i64_);
  f64_ = std::move(o.f64_);
  strp_ = std::move(o.strp_);
  str_ = std::move(o.str_);
  retained_ = std::move(o.retained_);
  nulls_ = std::move(o.nulls_);
  vals_ = std::move(o.vals_);
  tracker_ = o.tracker_;
  tracked_bytes_ = o.tracked_bytes_;
  // The source must not release the bytes we now own.
  o.tracker_ = nullptr;
  o.tracked_bytes_ = 0;
  o.size_ = 0;
  o.boxed_ = false;
  o.has_nulls_ = false;
  return *this;
}

TypedColumn::~TypedColumn() {
  // The arena may be retained by emitted batches that outlive the query's
  // ExecContext (and thus the tracker) — sever its tracker link before it
  // escapes our control.
  if (str_ != nullptr) str_->DetachMemoryTracker();
  TrackReleaseAll();
}

void TypedColumn::Reset(ValueType declared_type) {
  TrackReleaseAll();
  type_ = declared_type;
  // Types with no typed representation stay boxed from the start.
  boxed_ = RowBatch::LaneKindFor(declared_type) == RowBatch::LaneKind::kNone;
  has_nulls_ = false;
  dict_dedup_ = false;
  size_ = 0;
  i64_.clear();
  f64_.clear();
  strp_.clear();
  if (RowBatch::LaneKindFor(declared_type) == RowBatch::LaneKind::kStringRef) {
    // A fresh arena unless this column is the sole owner of the old one
    // (emitted batches may still reference the previous query's strings).
    if (str_ == nullptr || str_.use_count() > 1) {
      if (str_ != nullptr) str_->DetachMemoryTracker();
      str_ = std::make_shared<StringArena>();
    } else {
      str_->Clear();
    }
    if (tracker_ != nullptr) str_->set_memory_tracker(tracker_);
  } else {
    if (str_ != nullptr) str_->DetachMemoryTracker();
    str_.reset();
  }
  retained_.clear();
  nulls_.clear();
  vals_.clear();
}

void TypedColumn::Demote() {
  vals_.clear();
  vals_.reserve(size_);
  for (uint32_t i = 0; i < size_; ++i) vals_.push_back(GetValue(i));
  i64_.clear();
  f64_.clear();
  strp_.clear();
  if (str_ != nullptr) str_->DetachMemoryTracker();
  str_.reset();
  retained_.clear();
  nulls_.clear();
  has_nulls_ = false;  // boxed cells carry their own nulls
  boxed_ = true;
  // Re-derive the charge from the boxed cells: the arena just released
  // its payload bytes, and borrowed-payload charges no longer apply.
  TrackReleaseAll();
  if (tracker_ != nullptr) {
    for (const Value& v : vals_) TrackCharge(LogicalValueBytes(v));
  }
}

void TypedColumn::GatherInto(RowBatch* out, int out_col,
                             const uint32_t* indices, size_t n) const {
  if (!boxed_) {
    RowBatch::TypedLane* lane = out->StartLaneAppend(out_col, type_);
    if (lane != nullptr) {
      switch (RowBatch::LaneKindFor(type_)) {
        case RowBatch::LaneKind::kInt64:
          for (size_t i = 0; i < n; ++i) lane->i64.push_back(i64_[indices[i]]);
          break;
        case RowBatch::LaneKind::kDouble:
          for (size_t i = 0; i < n; ++i) lane->f64.push_back(f64_[indices[i]]);
          break;
        case RowBatch::LaneKind::kStringRef:
          // The emitted pointers target this column's own arena, borrowed
          // arenas, or table storage; hand `out` every refcounted handle.
          out->RetainArena(str_);
          for (const StringArenaPtr& a : retained_) out->RetainArena(a);
          for (size_t i = 0; i < n; ++i) {
            lane->str.push_back(strp_[indices[i]]);
          }
          break;
        case RowBatch::LaneKind::kStringCode:
        case RowBatch::LaneKind::kNone:
          break;  // LaneKindFor never yields these
      }
      if (has_nulls_ && !lane->has_nulls) {
        lane->has_nulls = true;
        lane->nulls.assign(lane->LaneSize() - n, 0);
      }
      if (lane->has_nulls) {
        if (has_nulls_) {
          for (size_t i = 0; i < n; ++i) {
            lane->nulls.push_back(nulls_[indices[i]]);
          }
        } else {
          lane->nulls.resize(lane->LaneSize(), 0);
        }
      }
      return;
    }
  }
  // Boxed source, or the output column is already boxed.
  if (out->lane_active(out_col)) out->DemoteLaneDense(out_col);
  std::vector<Value>& dst = out->col(out_col);
  for (size_t i = 0; i < n; ++i) dst.push_back(GetValue(indices[i]));
}

namespace {

template <typename T>
void PermuteVector(std::vector<T>* v, const std::vector<uint32_t>& order) {
  if (v->empty()) return;
  std::vector<T> out;
  out.reserve(order.size());
  for (uint32_t i : order) out.push_back(std::move((*v)[i]));
  v->swap(out);  // the old storage dies with `out`
}

}  // namespace

void TypedColumn::Permute(const std::vector<uint32_t>& order) {
  assert(order.size() == size_ && "Permute needs a permutation of the rows");
  PermuteVector(&i64_, order);
  PermuteVector(&f64_, order);
  PermuteVector(&strp_, order);
  PermuteVector(&nulls_, order);
  PermuteVector(&vals_, order);
}

uint64_t TypedColumn::DetachMemoryTracker() {
  uint64_t released = tracked_bytes_;  // nonzero only while tracked
  TrackReleaseAll();
  tracker_ = nullptr;
  if (str_ != nullptr) released += str_->DetachMemoryTracker();
  return released;
}

void TypedColumn::AppendImpl(const CellView& v, bool stable_str) {
  if (!boxed_ && v.type != type_ && v.type != ValueType::kNull) {
    // Exact-tag mismatch with the declared type: typed storage could not
    // reproduce the boxed cell bit-for-bit, so fall back to Values.
    Demote();
  }
  if (boxed_) {
    vals_.push_back(BoxCellView(v));
    ++size_;
    TrackCharge(LogicalValueBytes(vals_.back()));
    return;
  }
  const bool null = v.type == ValueType::kNull;
  if (null && !has_nulls_) {
    nulls_.assign(size_, 0);  // first null: backfill the mask
    has_nulls_ = true;
  }
  if (has_nulls_) nulls_.push_back(null ? 1 : 0);
  switch (RowBatch::LaneKindFor(type_)) {
    case RowBatch::LaneKind::kInt64:
      i64_.push_back(null ? 0 : v.i);
      TrackCharge(null ? 1 : 8);
      break;
    case RowBatch::LaneKind::kDouble:
      f64_.push_back(null ? 0.0 : v.d);
      TrackCharge(null ? 1 : 8);
      break;
    case RowBatch::LaneKind::kStringRef:
      if (null) {
        strp_.push_back(nullptr);
        TrackCharge(1);
      } else if (stable_str) {
        strp_.push_back(v.s);
        TrackCharge(8 + v.s->size());  // borrowed payload, not in our arena
      } else {
        strp_.push_back(dict_dedup_ ? str_->InternDedup(*v.s)
                                    : str_->Intern(*v.s));
        TrackCharge(8);  // payload charged by the arena's tracker
      }
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
  ++size_;
}

}  // namespace ecodb
